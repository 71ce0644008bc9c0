//! Table 3 — overhead of updateable compilation (indirection) on compute
//! kernels.
//!
//! Each kernel runs in three variants: static linking (direct call
//! targets), updateable linking with inline caching disabled ("cold":
//! every call pays the Global Indirection Table lookup, the pre-cache
//! behaviour), and updateable linking with per-site inline caches
//! ("cached": table traffic only on the first call after a rebind).
//! The overhead should track call density: call-dense kernels
//! (`pingpong`, `fib`) pay the most, loop/array kernels the least.
//!
//! Run with: `cargo run --release -p dsu-bench --bin table3_indirection`
//!
//! Flags: `--quick` (CI-sized sampling), `--json <path>` (write the
//! measurements), `--max-cached-overhead <pct>` (exit non-zero when the
//! mean cached overhead across kernels exceeds the bound — the CI
//! regression gate).

use std::io::Write as _;
use std::time::Duration;

use dsu_bench::kernels::{boot_kernel, kernels, run_kernel};
use dsu_bench::measure::{fmt_dur, overhead_percent, row, rule, time_interleaved3};
use vm::LinkMode;

struct Measurement {
    name: &'static str,
    t_static: Duration,
    t_cold: Duration,
    t_cached: Duration,
    calls: u64,
    instrs: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let max_cached: Option<f64> = args
        .iter()
        .position(|a| a == "--max-cached-overhead")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--max-cached-overhead takes a percent"));
    let (samples, iters) = if quick { (6, 2) } else { (25, 8) };

    println!(
        "Table 3: updateable-compilation overhead \
         (min of {samples} interleaved samples x {iters} runs)\n"
    );
    let widths = [9, 11, 11, 9, 11, 9, 10, 11];
    row(
        &[
            "kernel",
            "static",
            "upd-cold",
            "overhead",
            "upd-cached",
            "overhead",
            "calls",
            "instrs",
        ],
        &widths,
    );
    rule(&widths);

    let mut results = Vec::new();
    for k in kernels() {
        let mut ps = boot_kernel(&k, LinkMode::Static);
        let mut pc = boot_kernel(&k, LinkMode::Updateable);
        pc.set_inline_caching(false);
        let mut pu = boot_kernel(&k, LinkMode::Updateable);
        let (t_static, t_cold, t_cached) = time_interleaved3(
            samples,
            iters,
            || run_kernel(&mut ps, &k),
            || run_kernel(&mut pc, &k),
            || run_kernel(&mut pu, &k),
        );

        // Per-run instruction/call profile (from one clean run).
        let mut probe = boot_kernel(&k, LinkMode::Static);
        run_kernel(&mut probe, &k);

        let m = Measurement {
            name: k.name,
            t_static,
            t_cold,
            t_cached,
            calls: probe.stats.calls,
            instrs: probe.stats.instrs,
        };
        row(
            &[
                m.name,
                &fmt_dur(m.t_static),
                &fmt_dur(m.t_cold),
                &format!("{:+.1}%", overhead_percent(m.t_static, m.t_cold)),
                &fmt_dur(m.t_cached),
                &format!("{:+.1}%", overhead_percent(m.t_static, m.t_cached)),
                &m.calls.to_string(),
                &m.instrs.to_string(),
            ],
            &widths,
        );
        results.push(m);
    }

    let mean =
        |f: &dyn Fn(&Measurement) -> f64| results.iter().map(f).sum::<f64>() / results.len() as f64;
    let mean_cold = mean(&|m| overhead_percent(m.t_static, m.t_cold));
    let mean_cached = mean(&|m| overhead_percent(m.t_static, m.t_cached));
    println!(
        "\nmean overhead vs static: cold {mean_cold:+.2}%, cached {mean_cached:+.2}%\n\
         (cold = every call re-resolves through the indirection table; cached =\n\
         per-site inline caches validated against the bind generation, so a warm\n\
         site skips the rebindable slot entirely — one generation compare, then\n\
         a direct code-store fetch. The paper's Table 3 predicts overhead\n\
         concentrated in call-dense kernels; on this substrate both updateable\n\
         variants sit within ~1-3% of static because the GIT is a flat dense\n\
         table and the decoded dispatch loop dominates.)"
    );

    if let Some(path) = json_path {
        let mut w = dsu_obs::json::Writer::new();
        w.obj().key("bench").str("table3_indirection");
        w.key("quick").bool(quick);
        w.key("mean_cold_overhead_pct").num(mean_cold);
        w.key("mean_cached_overhead_pct").num(mean_cached);
        w.key("kernels").arr();
        for m in &results {
            w.obj().key("kernel").str(m.name);
            w.key("static_ns").int(m.t_static.as_nanos());
            w.key("cold_ns").int(m.t_cold.as_nanos());
            w.key("cached_ns").int(m.t_cached.as_nanos());
            w.key("cold_overhead_pct")
                .num(overhead_percent(m.t_static, m.t_cold));
            w.key("cached_overhead_pct")
                .num(overhead_percent(m.t_static, m.t_cached));
            w.key("calls").int(m.calls).key("instrs").int(m.instrs);
            w.end_obj();
        }
        w.end_arr().end_obj();
        let doc = w.finish() + "\n";
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
        let mut f = std::fs::File::create(&path).expect("create json file");
        f.write_all(doc.as_bytes()).expect("write json");
        println!("wrote {path}");
    }

    if let Some(bound) = max_cached {
        if mean_cached > bound {
            eprintln!("FAIL: mean cached overhead {mean_cached:+.2}% exceeds bound {bound:+.2}%");
            std::process::exit(1);
        }
        println!("gate: mean cached overhead {mean_cached:+.2}% within bound {bound:+.2}%");
    }
}
