//! Call-dispatch cost: static vs updateable-cold vs updateable-cached.
//!
//! The narrowest view of the paper's overhead experiment, in three
//! variants of the same call-dense kernels:
//!
//! * **static** — calls bound directly to code (the paper's baseline);
//! * **updateable-cold** — every call through a Global Indirection Table
//!   slot, inline caching disabled (the pre-cache dispatch cost);
//! * **updateable-cached** — slot calls answered by per-site inline
//!   caches validated against the bind generation (table traffic only on
//!   the first call after a rebind).
//!
//! Plain timing harness (no external bench framework). Flags:
//! `--quick` shrinks samples/iters for CI smoke runs; `--json <path>`
//! writes the measurements for trend tracking.

use std::io::Write as _;

use dsu_bench::kernels::{boot_kernel, kernels, run_kernel};
use dsu_bench::measure::{fmt_dur, overhead_percent, time_interleaved3};
use vm::LinkMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (samples, iters) = if quick { (5, 2) } else { (20, 5) };

    println!(
        "dispatch: static vs updateable-cold vs updateable-cached \
         (min of {samples} interleaved samples x {iters})"
    );
    let mut w = dsu_obs::json::Writer::new();
    w.obj().key("bench").str("dispatch");
    w.key("quick").bool(quick).key("kernels").arr();
    for k in kernels() {
        let mut ps = boot_kernel(&k, LinkMode::Static);
        let mut pc = boot_kernel(&k, LinkMode::Updateable);
        pc.set_inline_caching(false);
        let mut pu = boot_kernel(&k, LinkMode::Updateable);
        let (ts, tcold, tcached) = time_interleaved3(
            samples,
            iters,
            || {
                run_kernel(&mut ps, &k);
            },
            || {
                run_kernel(&mut pc, &k);
            },
            || {
                run_kernel(&mut pu, &k);
            },
        );
        println!(
            "  {:<10} static {:>9}  cold {:>9} ({:+.2}%)  cached {:>9} ({:+.2}%)",
            k.name,
            fmt_dur(ts),
            fmt_dur(tcold),
            overhead_percent(ts, tcold),
            fmt_dur(tcached),
            overhead_percent(ts, tcached),
        );
        w.obj().key("kernel").str(k.name);
        w.key("static_ns").int(ts.as_nanos());
        w.key("cold_ns").int(tcold.as_nanos());
        w.key("cached_ns").int(tcached.as_nanos());
        w.key("cold_overhead_pct").num(overhead_percent(ts, tcold));
        w.key("cached_overhead_pct")
            .num(overhead_percent(ts, tcached));
        w.end_obj();
    }
    w.end_arr().end_obj();

    if let Some(path) = json_path {
        let doc = w.finish() + "\n";
        // `cargo bench` runs this binary with the package dir as CWD, so
        // anchor relative paths at the workspace root — artifacts land in
        // the same `target/telemetry/` the other bench bins write to.
        let path = std::path::Path::new(&path);
        let path = if path.is_absolute() {
            path.to_path_buf()
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path)
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
        let mut f = std::fs::File::create(&path).expect("create json file");
        f.write_all(doc.as_bytes()).expect("write json");
        println!("  wrote {}", path.display());
    }
}
