//! Reduces a run's windows and walks to the metrics it prints, and runs
//! the run-level checks.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use crate::load::{self, GenReport, Phase, Window};
use crate::stats::{median, median_us, quantile};
use crate::walk::{WalkRecord, WalkStats};
use crate::{proc, Args, PhaseOut, LATE_BOUND, MIN_PAUSES, MIN_REQUESTS};

/// A named metric with its unit.
#[derive(Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn m(name: &'static str, unit: &'static str, value: Option<f64>) -> Result<Metric, String> {
    match value {
        Some(v) if v.is_finite() => Ok(Metric {
            name,
            unit,
            value: v,
        }),
        _ => Err(format!("metric {name} could not be measured")),
    }
}

/// Everything measured, reduced to what the report prints.
pub struct Report {
    workload: &'static str,
    seed: u64,
    primary: Phase,
    completed: u64,
    out: PhaseOut,
    correct: bool,
    attempted: u64,
    failed: u64,
    shed: u64,
    /// The end-to-end metrics, as `--trace 0` reports them.
    pub e2e: Vec<Metric>,
    checks: Vec<String>,
}

/// Walks per block: a block holds about 100 pauses, so its p90 has ten
/// beyond it.
const BLOCK: usize = 10;

/// The best quarter of per-window or per-block figures: the first
/// quartile where lower is better, the third where higher is better.
/// Neighbours on a shared host only ever slow a window down, by up to a
/// third for seconds at a time, so the best quarter tracks the program.
fn best(mut values: Vec<f64>, higher_is_better: bool) -> Option<f64> {
    quantile(&mut values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Best quarter over windows of a lower-is-better figure.
fn win(windows: &[Window], f: impl Fn(&Window) -> f64) -> Option<f64> {
    best(windows.iter().map(f).collect(), false)
}

/// Consecutive blocks of `BLOCK` walks; a short last block is dropped
/// unless it is the only one.
fn blocks(ws: &WalkStats) -> Vec<&[WalkRecord]> {
    let mut b: Vec<&[WalkRecord]> = ws.records.chunks(BLOCK).collect();
    if b.len() > 1 && b.last().is_some_and(|l| l.len() < BLOCK) {
        b.pop();
    }
    b
}

/// Best quarter over blocks of a lower-is-better per-block figure.
fn per_block(ws: &WalkStats, f: impl Fn(&[WalkRecord]) -> Option<f64>) -> Option<f64> {
    best(blocks(ws).into_iter().filter_map(f).collect(), false)
}

/// One block's samples, pooled.
fn pooled<T: Copy>(block: &[WalkRecord], f: impl Fn(&WalkRecord) -> &[T]) -> Vec<T> {
    block.iter().flat_map(|w| f(w).iter().copied()).collect()
}

/// Median of a block's pooled durations, in microseconds.
fn block_us(block: &[WalkRecord], f: impl Fn(&WalkRecord) -> &[Duration]) -> Option<f64> {
    median_us(&pooled(block, f))
}

impl Report {
    pub fn new(
        args: &Args,
        gen: &GenReport,
        ws: &WalkStats,
        served: Option<PhaseOut>,
        walked: PhaseOut,
        setup: &[Duration],
    ) -> Result<Report, String> {
        let (primary, out) = match served {
            Some(s) => (Phase::Serve, s),
            None => (Phase::Walk, walked),
        };
        let ps = &gen.phases[primary as usize];
        let offered: u64 = gen.phases.iter().map(|p| p.admitted + p.shed).sum();
        let shed: u64 = gen.phases.iter().map(|p| p.shed).sum();
        let wrong: u64 = gen.phases.iter().map(|p| p.wrong).sum();
        let completions: u64 = gen.phases.iter().map(|p| p.completed).sum();
        let mut checks = vec![
            format!(
                "responses: {} of {completions} were the requested document; \
                 completions = admissions + sheds on every fleet",
                completions.saturating_sub(wrong)
            ),
            format!(
                "walks: {} ({} update operations, {} failed, every card Completed and every \
                 worker back on v1 unless listed); journal lifecycles validated: {}; \
                 ledger worst miss {:.4}% of pause",
                ws.records.len(),
                ws.attempted,
                ws.failed,
                ws.journal_ids,
                ws.ledger_worst * 100.0
            ),
        ];
        let mut valid = true;
        let fewest = ps.windows.iter().map(|w| w.completed).min().unwrap_or(0);
        if fewest < MIN_REQUESTS {
            valid = false;
            checks.push(format!(
                "INVALID: a window has {fewest} requests < {MIN_REQUESTS}"
            ));
        }
        let fewest = blocks(ws)
            .iter()
            .map(|b| pooled(b, |w| &w.pauses).len())
            .min()
            .unwrap_or(0);
        if fewest < MIN_PAUSES {
            valid = false;
            checks.push(format!(
                "INVALID: a block of walks has {fewest} pauses < {MIN_PAUSES}"
            ));
        }
        let late_bound = LATE_BOUND.as_secs_f64() * 1e6;
        let late_p99 = median(&ps.windows.iter().map(|w| w.late_p99_us).collect::<Vec<_>>())
            .unwrap_or(f64::INFINITY);
        if late_p99 > late_bound {
            valid = false;
            checks.push(format!(
                "INVALID: generator p99 lateness {late_p99:.1} us over {late_bound} us"
            ));
        }
        for e in gen.errors.iter().chain(&ws.errors) {
            checks.push(format!("error: {e}"));
        }
        let mut r = Report {
            workload: args.spec.name,
            seed: args.seed,
            primary,
            completed: ps.completed,
            out,
            correct: valid && wrong == 0 && ws.wrong == 0 && gen.errors.is_empty(),
            attempted: offered + ws.attempted,
            failed: shed + wrong + ws.failed + ws.wrong,
            shed,
            e2e: Vec::new(),
            checks,
        };
        r.e2e = r.end_to_end(gen, ws, setup)?;
        Ok(r)
    }

    /// The primary phase's windows.
    fn windows<'g>(&self, gen: &'g GenReport) -> &'g [Window] {
        &gen.phases[self.primary as usize].windows
    }

    fn end_to_end(
        &self,
        gen: &GenReport,
        ws: &WalkStats,
        setup: &[Duration],
    ) -> Result<Vec<Metric>, String> {
        let w = self.windows(gen);
        let pause_q = |p: f64| {
            move |b: &[WalkRecord]| {
                let mut v: Vec<f64> = pooled(b, |w| &w.pauses)
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e6)
                    .collect();
                quantile(&mut v, p)
            }
        };
        let rollback =
            |b: &[WalkRecord]| median_us(&b.iter().filter_map(|w| w.rollback).collect::<Vec<_>>());
        Ok(vec![
            m("latency_p50_us", "us", win(w, |w| w.sojourn_p50_us))?,
            m("cpu_us_per_req", "us", win(w, |w| w.cpu_us_per_req))?,
            m(
                "throughput_rps",
                "1/s",
                best(w.iter().map(Window::throughput).collect(), true),
            )?,
            m("update_pause_p50_us", "us", per_block(ws, pause_q(0.50)))?,
            m("update_pause_p90_us", "us", per_block(ws, pause_q(0.90)))?,
            m(
                "rollout_ms_p50",
                "ms",
                per_block(ws, |b| block_us(b, |w| &w.rollout)).map(|us| us / 1e3),
            )?,
            m(
                "rollback_ms_p50",
                "ms",
                per_block(ws, rollback).map(|us| us / 1e3),
            )?,
            m("peak_rss_mb", "MiB", Some(proc::peak_rss_mb()?))?,
            m("setup_s", "s", median_us(setup).map(|us| us / 1e6))?,
        ])
    }

    /// The human-readable part of the output: what ran, what was
    /// checked, and the metrics no JSON field carries.
    pub fn text(&self, gen: &GenReport, ws: &WalkStats, traced: bool) -> String {
        let w = self.windows(gen);
        let steal = |v: Vec<f64>| median(&v).unwrap_or(0.0) * 100.0;
        let mut t = format!(
            "perfbench {} seed {}: {} requests in {} windows of {:?}, {} walks in {} blocks, \
             {} pauses; figures are the best quarter over windows or blocks; host CPU stolen \
             by the hypervisor: median {:.1}% per window, {:.1}% per walk\n",
            self.workload,
            self.seed,
            self.completed,
            w.len(),
            load::WINDOW,
            ws.records.len(),
            blocks(ws).len(),
            ws.pause_count(),
            steal(w.iter().map(|w| w.steal).collect()),
            steal(ws.records.iter().map(|w| w.steal).collect()),
        );
        for c in &self.checks {
            let _ = writeln!(t, "check {c}");
        }

        let applied = ws.attempted.saturating_sub(ws.failed);
        let _ = writeln!(
            t,
            "  {:<26} {:>14} ratio ({} of {} operations)\n  {:<26} {:>14} count\n  \
             {:<26} {:>14} ratio",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            "edge.shed",
            self.shed,
            "update.applied_ratio",
            applied as f64 / ws.attempted.max(1) as f64,
        );
        if traced {
            let _ = writeln!(t, "end-to-end, measured with tracing on:");
            for mt in &self.e2e {
                let _ = writeln!(t, "  {:<26} {:>14.3} {}", mt.name, mt.value, mt.unit);
            }
            let _ = writeln!(t, "per layer:");
        }
        t
    }

    pub fn layer_metrics(
        &self,
        gen: &GenReport,
        ws: &WalkStats,
        compile: &[Duration],
        verify: &[Duration],
    ) -> Result<Vec<Metric>, String> {
        let w = self.windows(gen);
        let c = self.out.counters;
        let n = self.completed as f64;
        let ratio =
            |hit: u64, miss: u64| (hit + miss > 0).then(|| hit as f64 / (hit + miss) as f64);
        // Per phase, the median over the applies that ran it: most
        // patches add no globals and transform no state.
        let phase = |f: fn(&dsu_core::PhaseTimings) -> Duration| {
            per_block(ws, move |b| {
                let ran: Vec<Duration> = pooled(b, |w| &w.phases)
                    .iter()
                    .map(f)
                    .filter(|d| !d.is_zero())
                    .collect();
                median_us(&ran)
            })
        };
        let ms = |v: &[Duration]| median_us(v).map(|us| us / 1e3);
        let journal: Vec<f64> = ws.records.iter().filter_map(|w| w.journal_bytes).collect();
        Ok(vec![
            m("latency_p99_us", "us", win(w, |w| w.sojourn_p99_us))?,
            m("loadgen.late_p99_us", "us", win(w, |w| w.late_p99_us))?,
            m(
                "loadgen.gen_cpu_pct",
                "%",
                win(w, |w| w.gen_cpu_share * 100.0),
            )?,
            // Little's law: mean round trip = outstanding / throughput.
            m(
                "loadgen.unaccounted_us",
                "us",
                win(w, |w| {
                    w.outstanding / w.throughput() * 1e6 - w.sojourn_mean_us
                }),
            )?,
            m(
                "edge.submit_ns_p50",
                "ns",
                win(w, |w| w.submit_p50_ns.unwrap_or(f64::NAN)),
            )?,
            m("edge.inbox_wait_us_p50", "us", win(w, |w| w.wait_p50_us))?,
            m("edge.inbox_wait_us_p99", "us", win(w, |w| w.wait_p99_us))?,
            m("server.service_us_p50", "us", win(w, |w| w.service_p50_us))?,
            m("server.service_us_p99", "us", win(w, |w| w.service_p99_us))?,
            m("vm.instr_per_req", "count", Some(c.instrs as f64 / n))?,
            m("vm.ic_hit_ratio", "ratio", ratio(c.ic_hits, c.ic_misses))?,
            m(
                "fs.cache_hit_ratio",
                "ratio",
                ratio(c.cache_hits, c.cache_misses),
            )?,
            m("popcorn.compile_ms", "ms", ms(compile))?,
            m("tal.verify_ms", "ms", ms(verify))?,
            m("update.drain_us", "us", phase(|t| t.drain))?,
            m("update.verify_us", "us", phase(|t| t.verify))?,
            m("update.compat_us", "us", phase(|t| t.compat))?,
            m("update.link_us", "us", phase(|t| t.link))?,
            m("update.bind_us", "us", phase(|t| t.bind))?,
            m("update.init_us", "us", phase(|t| t.init))?,
            m("update.transform_us", "us", phase(|t| t.transform))?,
            m(
                "update.coord_wait_us",
                "us",
                per_block(ws, |b| block_us(b, |w| &w.coord_wait)),
            )?,
            m(
                "rollout.coord_ms",
                "ms",
                per_block(ws, |b| block_us(b, |w| &w.rollout_coord)).map(|us| us / 1e3),
            )?,
            m("obs.journal_bytes", "bytes", median(&journal))?,
            m(
                "alloc.bytes_per_req",
                "bytes",
                Some(self.out.alloc_bytes as f64 / n),
            )?,
        ])
    }

    /// An end-to-end figure by name.
    fn e2e(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    fn untraced_path(&self, dir: &std::path::Path) -> PathBuf {
        dir.join(format!("untraced-{}.txt", self.workload))
    }

    /// Keeps this untraced run's figures for the next traced run's
    /// overhead line.
    pub fn save_untraced(&self, dir: &std::path::Path) -> Result<(), String> {
        let path = self.untraced_path(dir);
        let body = format!(
            "{} {} {}\n",
            self.seed,
            self.e2e("cpu_us_per_req"),
            self.e2e("latency_p50_us")
        );
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, body))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Tracing overhead against the last untraced run of this workload.
    pub fn overhead_line(&self, dir: &std::path::Path) -> String {
        let saved = std::fs::read_to_string(self.untraced_path(dir)).ok();
        let parsed = saved.as_deref().and_then(|s| {
            let v: Vec<f64> = s
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            (v.len() == 3).then(|| (v[0], v[1], v[2]))
        });
        let Some((seed, cpu, p50)) = parsed else {
            return "tracing overhead: no untraced run of this workload recorded yet".into();
        };
        format!(
            "tracing overhead vs the last untraced run (seed {seed}): cpu_us_per_req {:+.1}% \
             ({:.3} vs {cpu:.3} us), latency_p50_us {:+.1}% ({:.3} vs {p50:.3} us)",
            (self.e2e("cpu_us_per_req") / cpu - 1.0) * 100.0,
            self.e2e("cpu_us_per_req"),
            (self.e2e("latency_p50_us") / p50 - 1.0) * 100.0,
            self.e2e("latency_p50_us")
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self, metrics: &[Metric]) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, mt) in metrics.iter().enumerate() {
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                mt.name,
                mt.value,
                mt.unit
            );
        }
        json.push_str("}}");
        json
    }
}
