//! perfbench — one benchmark for FlashEd serving traffic under live
//! updates: latency, CPU and memory per request, update pause, rollout
//! and rollback time end to end, and a per-layer breakdown in a separate
//! traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_open --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads, metrics and checks are described in `perfbench/README.md`.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod alloc;
mod fixture;
mod layers;
mod load;
mod proc;
mod report;
mod spans;
mod stats;
mod walk;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu_core::GeneratedPatch;
use flashed::telemetry::names;
use flashed::Fleet;

use fixture::{Fixture, Spec, SPECS};
use load::{Phase, Retired, Slot, Target};
use report::{m, Report};
use spans::Spans;
use walk::WalkStats;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run, half before and half after the measurement;
/// `setup_s` is their median.
const SETUP_REPS: usize = 20;
/// Walks per run, spread evenly over the walk phase.
const WALKS: usize = 160;
/// Pauses a run needs so that p90 has ten beyond it.
const MIN_PAUSES: usize = 100;
/// Sojourn samples a run needs so that p99 has ten beyond it.
const MIN_REQUESTS: u64 = 1000;
/// The generator's p99 lateness above which a run is invalid: far above
/// the few-millisecond stalls a shared host's scheduler imposes, far
/// below what a generator that cannot sustain its rate accumulates.
const LATE_BOUND: Duration = Duration::from_millis(20);

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let spec = *SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        spec,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(last_line) => {
            println!("{last_line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Counters a phase reads from the fleets' registries before and after.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    instrs: u64,
    ic_hits: u64,
    ic_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counters {
    fn read(fleet: &Fleet) -> Counters {
        let mut c = Counters::default();
        let Some(tel) = fleet.telemetry() else {
            return c;
        };
        for w in 0..tel.worker_count() {
            let wt = tel.worker(w);
            c.cache_hits += wt.cache_hits();
            c.cache_misses += wt.cache_misses();
            for m in wt.registry().snapshot() {
                let dsu_obs::metrics::MetricValue::Counter(v) = m.value else {
                    continue;
                };
                match m.name.as_str() {
                    names::VM_INSTRS => c.instrs += v,
                    names::VM_IC_HITS => c.ic_hits += v,
                    names::VM_IC_MISSES => c.ic_misses += v,
                    _ => {}
                }
            }
        }
        c
    }

    fn add_since(&mut self, now: Counters, then: Counters) {
        self.instrs += now.instrs.saturating_sub(then.instrs);
        self.ic_hits += now.ic_hits.saturating_sub(then.ic_hits);
        self.ic_misses += now.ic_misses.saturating_sub(then.ic_misses);
        self.cache_hits += now.cache_hits.saturating_sub(then.cache_hits);
        self.cache_misses += now.cache_misses.saturating_sub(then.cache_misses);
    }
}

/// What the main thread measured over one phase.
#[derive(Default)]
struct PhaseOut {
    alloc_bytes: u64,
    counters: Counters,
}

/// The main thread's side of a run: fleets, the slot, retire messages.
struct Runner<'a> {
    fx: &'a Fixture,
    slot: Arc<Slot>,
    retired: Receiver<Retired>,
    next_id: usize,
    spans: Spans,
    walks: WalkStats,
}

impl Runner<'_> {
    fn hand_over(&mut self, fleet: &Fleet, phase: Phase) -> Result<usize, String> {
        self.next_id += 1;
        let edge = Arc::clone(fleet.edge().ok_or("fleet has no edge")?);
        let t = Target::new(self.next_id, phase, edge, fleet.shared());
        self.slot.set(Some(Arc::new(t)));
        Ok(self.next_id)
    }

    fn await_retired(&self, id: usize) -> Result<(), String> {
        loop {
            let r = self
                .retired
                .recv_timeout(fixture::STALL * 2)
                .map_err(|e| format!("fleet {id} never retired: {e}"))?;
            if r.id == id {
                return Ok(());
            }
        }
    }

    fn boot_warm(&mut self, version: usize) -> Result<Fleet, String> {
        let t = Instant::now();
        let fleet = fixture::boot(self.fx, version)?;
        fixture::warm(&fleet, self.fx)?;
        self.spans.close("boot_warm", 0, t);
        Ok(fleet)
    }

    /// Serves on `fleet` alone until `deadline`.
    fn serve(&mut self, fleet: Fleet, deadline: Instant) -> Result<PhaseOut, String> {
        let before = Counters::read(&fleet);
        let (alloc0, start) = (alloc::bytes(), Instant::now());
        let id = self.hand_over(&fleet, Phase::Serve)?;
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        self.slot.set(None);
        self.await_retired(id)?;
        let mut out = PhaseOut {
            alloc_bytes: alloc::bytes() - alloc0,
            ..PhaseOut::default()
        };
        out.counters.add_since(Counters::read(&fleet), before);
        self.spans.close("serve_phase", 0, start);
        fleet.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(out)
    }

    /// Walks `WALKS` fresh fleets under load, spread evenly up to
    /// `deadline`, and more if pauses are still short of `MIN_PAUSES`.
    /// Each next fleet is booted and warmed while the current one still
    /// serves, then swapped in.
    fn walk(
        &mut self,
        first: Fleet,
        patches: &[GeneratedPatch],
        deadline: Instant,
    ) -> Result<PhaseOut, String> {
        let mut out = PhaseOut::default();
        let mut cur = first;
        let mut before = Counters::read(&cur);
        let (alloc0, start) = (alloc::bytes(), Instant::now());
        let mut id = self.hand_over(&cur, Phase::Walk)?;
        let every = deadline.saturating_duration_since(start) / WALKS as u32;
        let mut host = proc::host_ticks()?;
        for i in 1.. {
            walk::walk(&cur, patches, &mut self.walks, &mut self.spans);
            let now = proc::host_ticks()?;
            if let Some(rec) = self.walks.records.last_mut() {
                rec.steal = (now.0 - host.0) as f64 / (now.1 - host.1).max(1) as f64;
            }
            host = now;
            if i >= WALKS && self.walks.pause_count() >= MIN_PAUSES {
                break;
            }
            if i > 10 * WALKS {
                return Err("walks produce no pauses".into());
            }
            std::thread::sleep(
                (start + every * i as u32).saturating_duration_since(Instant::now()),
            );
            let next = self.boot_warm(0)?;
            let next_before = Counters::read(&next);
            let next_id = self.hand_over(&next, Phase::Walk)?;
            self.await_retired(id)?;
            out.counters.add_since(Counters::read(&cur), before);
            cur.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            (cur, before, id) = (next, next_before, next_id);
        }
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        self.slot.set(None);
        self.await_retired(id)?;
        out.alloc_bytes = alloc::bytes() - alloc0;
        out.counters.add_since(Counters::read(&cur), before);
        cur.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(out)
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<String, String> {
    let spec = args.spec;
    let t0 = Instant::now();
    let fx = Arc::new(Fixture::new(spec, args.seed));
    if args.trace {
        alloc::enable();
    }
    let mut spans = Spans::new(t0, args.trace, 0);

    // Set-up, half of the repetitions before the measurement (the last
    // one's fleet is the first to serve) and half after it, so the median
    // spans the run.
    let first_version = if spec.serve_share > 0.0 {
        spec.serve_version
    } else {
        0
    };
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPS / 2 {
        let (f, s) = set_up(&fx, first_version, &mut spans)?;
        setups.push(s);
        if let Some(old) = fleet.replace(f) {
            Fleet::shutdown(old).map_err(|e| format!("shutdown: {e}"))?;
        }
    }
    let fleet = fleet.expect("SETUP_REPS > 1");
    let patches = flashed::patch_stream().map_err(|e| format!("patch stream: {e}"))?;

    let slot = Arc::new(Slot::default());
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let gen = load::spawn(
        Arc::clone(&fx),
        args.seed,
        args.trace,
        t0,
        Arc::clone(&slot),
        Arc::clone(&stop),
        tx,
    );
    let mut runner = Runner {
        fx: &fx,
        slot: Arc::clone(&slot),
        retired: rx,
        next_id: 0,
        spans,
        walks: WalkStats::default(),
    };
    let measure_start = Instant::now();
    let seconds = Duration::from_secs(args.seconds);
    let phases = (|| -> Result<(Option<PhaseOut>, PhaseOut), String> {
        if spec.serve_share > 0.0 {
            let serve_end = measure_start + seconds.mul_f64(spec.serve_share);
            let served = runner.serve(fleet, serve_end)?;
            let first = runner.boot_warm(0)?;
            let walked = runner.walk(first, &patches, measure_start + seconds)?;
            Ok((Some(served), walked))
        } else {
            let walked = runner.walk(fleet, &patches, measure_start + seconds)?;
            Ok((None, walked))
        }
    })();
    slot.set(None);
    stop.store(true, Ordering::SeqCst);
    let gen = gen
        .join()
        .map_err(|_| "load generator panicked".to_string())?;
    let (served, walked) = phases?;

    let mut spans = runner.spans;
    let ws = runner.walks;
    for _ in SETUP_REPS / 2..SETUP_REPS {
        let (f, s) = set_up(&fx, first_version, &mut spans)?;
        setups.push(s);
        Fleet::shutdown(f).map_err(|e| format!("shutdown: {e}"))?;
    }
    let setup: Vec<Duration> = setups.iter().map(|s| s.total).collect();
    let compile: Vec<Duration> = setups.iter().map(|s| s.compile).collect();
    let verify: Vec<Duration> = setups.iter().map(|s| s.verify).collect();
    let report = Report::new(args, &gen, &ws, served, walked, &setup)?;
    let mut text = report.text(&gen, &ws, args.trace);

    let metrics = if args.trace {
        let fx = &*fx;
        let mut layer = report.layer_metrics(&gen, &ws, &compile, &verify)?;
        let t = Instant::now();
        let (parse, render) = layers::http(fx)?;
        let guest = layers::guest_us_per_req(fx, 2000)?;
        let miss_read = layers::miss_read_us(fx, 2000)?;
        let (state_bytes, bytes_per_update) = layers::forward_walk(fx, &patches)?;
        spans.close("layer_probes", 0, t);
        layer.extend([
            m("http.parse_ns", "ns", Some(parse))?,
            m("http.render_ns", "ns", Some(render))?,
            m("vm.guest_us_per_req", "us", Some(guest))?,
            m("fs.miss_read_us_p50", "us", Some(miss_read))?,
            m("core.worker_state_bytes", "bytes", Some(state_bytes))?,
            m("alloc.bytes_per_update", "bytes", Some(bytes_per_update))?,
        ]);
        let mut all = spans.spans;
        all.extend(gen.spans.iter().copied());
        all.sort_by_key(|s| s.start_ns);
        let dir = out_dir();
        let path = dir.join(format!("trace-{}-{}.json", spec.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(&all)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(text, "spans: {} written to {}", all.len(), path.display());
        let _ = writeln!(text, "{}", report.overhead_line(&dir));
        layer
    } else {
        report.save_untraced(&out_dir())?;
        report.e2e.clone()
    };
    for mt in &metrics {
        let _ = writeln!(text, "  {:<26} {:>14.3} {}", mt.name, mt.value, mt.unit);
    }
    print!("{text}");
    Ok(report.json(&metrics))
}

/// One set-up's timings.
struct SetUp {
    total: Duration,
    compile: Duration,
    verify: Duration,
}

/// Compiles and verifies every version, generates the patch stream, and
/// boots and warms a fleet on `version`.
fn set_up(fx: &Fixture, version: usize, spans: &mut Spans) -> Result<(Fleet, SetUp), String> {
    let t = Instant::now();
    let id = spans.reserve();
    let (compile, verify) = layers::compile_and_verify(spans, id)?;
    let tp = Instant::now();
    flashed::patch_stream().map_err(|e| format!("patch stream: {e}"))?;
    spans.close("dsu_core.patchgen", id, tp);
    let tb = Instant::now();
    let fleet = fixture::boot(fx, version)?;
    spans.close("flashed.boot", id, tb);
    let tw = Instant::now();
    fixture::warm(&fleet, fx)?;
    spans.close("flashed.warm", id, tw);
    let total = t.elapsed();
    let (s, e) = (spans.ns(t), spans.ns(Instant::now()));
    spans.record_as(id, "setup", 0, s, e);
    Ok((
        fleet,
        SetUp {
            total,
            compile,
            verify,
        },
    ))
}
