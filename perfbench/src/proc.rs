//! CPU time and peak memory from Linux `/proc`.
//!
//! Process CPU comes from `/proc/self/stat` and one thread's CPU from
//! `/proc/thread-self/stat` (fields 14 and 15, user + system, in clock
//! ticks). Subtracting the benchmark's own generator thread from the
//! process total leaves the CPU the program's threads spent.

use std::time::Duration;

/// `AT_CLKTCK` in the auxiliary vector: clock ticks per second.
const AT_CLKTCK: u64 = 17;

fn clock_ticks_per_sec() -> u64 {
    let Ok(aux) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    aux.chunks_exact(16)
        .map(|kv| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&kv[..8]), word(&kv[8..]))
        })
        .find(|&(k, _)| k == AT_CLKTCK)
        .map_or(100, |(_, v)| v.max(1))
}

fn stat_cpu(path: &str) -> Result<Duration, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it start
    // past the last ')'. Field 3 is then index 0, so utime (14) is 11.
    let rest = text
        .rsplit_once(')')
        .ok_or_else(|| format!("{path}: no command field"))?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: bad field {}", i + 3))
    };
    let total = ticks(11)? + ticks(12)?;
    let hz = clock_ticks_per_sec();
    Ok(Duration::from_nanos(total * 1_000_000_000 / hz))
}

/// CPU time (user + system) of every thread of this process so far.
pub fn process_cpu() -> Result<Duration, String> {
    stat_cpu("/proc/self/stat")
}

/// CPU time (user + system) of the calling thread so far.
pub fn thread_cpu() -> Result<Duration, String> {
    stat_cpu("/proc/thread-self/stat")
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("status: no VmHWM")?;
    Ok(kb / 1024.0)
}

/// Host-wide CPU ticks so far: (stolen by the hypervisor, all).
pub fn host_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let steal = *ticks.get(7).ok_or("/proc/stat: no steal column")?;
    Ok((steal, ticks.iter().take(8).sum()))
}
