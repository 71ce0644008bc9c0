//! One update walk on a freshly booted fleet: a staged rollout of every
//! patch v1→v2→v3→v4→v5, then a chain rollback of every worker to v1.
//! Times each call, reads the pauses and reports the calls leave behind,
//! and checks the journal and the pause ledger.

use std::time::{Duration, Instant};

use dsu_core::{GeneratedPatch, PauseEvent, PhaseTimings, UpdateReport};
use dsu_obs::journal::validate_lifecycle;
use dsu_obs::Stage;
use flashed::{BreachAction, Fleet, PauseSlo, RolloutOutcome, RolloutPlan};

use crate::alloc;
use crate::spans::Spans;

/// Health gate of every staged cohort: generous, so only a genuine stall
/// or failure holds a rollout.
const GATE: PauseSlo = PauseSlo {
    quantile: 0.99,
    max: Duration::from_millis(250),
};
/// How long the rollback may take before it counts as stalled.
const ROLLBACK_STALL: Duration = Duration::from_secs(10);
/// A ledger that misses by more than this share of its pauses fails.
const LEDGER_TOLERANCE: f64 = 0.01;

/// What one walk measured.
#[derive(Default)]
pub struct WalkRecord {
    /// Every update pause of every worker.
    pub pauses: Vec<Duration>,
    pub rollout: Vec<Duration>,
    pub rollout_coord: Vec<Duration>,
    pub rollback: Option<Duration>,
    /// Per apply, forward and rollback.
    pub phases: Vec<PhaseTimings>,
    /// Per worker and operation: pauses minus the phases applied in them.
    pub coord_wait: Vec<Duration>,
    pub journal_bytes: Option<f64>,
    /// Share of host CPU the hypervisor stole around this walk.
    pub steal: f64,
}

/// Every walk of a run, and the checks over them.
#[derive(Default)]
pub struct WalkStats {
    pub records: Vec<WalkRecord>,
    /// Update operations attempted: forward applies and rollback hops,
    /// per worker.
    pub attempted: u64,
    pub failed: u64,
    /// Checks on outputs that failed (journal lifecycles, final
    /// versions, ledger).
    pub wrong: u64,
    pub errors: Vec<String>,
    pub ledger_worst: f64,
    pub journal_ids: usize,
}

impl WalkStats {
    fn fail(&mut self, wrong: bool, msg: String) {
        if wrong {
            self.wrong += 1;
        } else {
            self.failed += 1;
        }
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn pause_count(&self) -> usize {
        self.records.iter().map(|r| r.pauses.len()).sum()
    }
}

/// Per worker, the lengths of its pause and report logs.
fn marks(fleet: &Fleet) -> Vec<(usize, usize)> {
    (0..fleet.worker_count())
        .map(|w| {
            let r = fleet.remote(w);
            (r.pauses().len(), r.reports().len())
        })
        .collect()
}

/// What one worker logged during one operation.
type Logged = (Vec<PauseEvent>, Vec<UpdateReport>);

/// Per worker, the pauses and reports logged since `marks`.
fn since(fleet: &Fleet, marks: &[(usize, usize)]) -> Vec<Logged> {
    marks
        .iter()
        .enumerate()
        .map(|(w, &(p, r))| {
            let remote = fleet.remote(w);
            (
                remote.pauses().into_iter().skip(p).collect(),
                remote.reports().into_iter().skip(r).collect(),
            )
        })
        .collect()
}

/// One timed call of a walk: a staged rollout, or the chain rollback.
struct Op {
    span: u64,
    start: Instant,
    took: Duration,
    /// The forward transition, or `None` for the rollback.
    forward: Option<(String, String)>,
}

/// Walks `fleet` (booted on v1) up the patch stream and back down.
pub fn walk(fleet: &Fleet, patches: &[GeneratedPatch], st: &mut WalkStats, spans: &mut Spans) {
    let workers = fleet.worker_count();
    let walk_start = Instant::now();
    let walk_id = spans.reserve();
    let mut ops = Vec::new();
    let plan = RolloutPlan::staged(0, GATE, BreachAction::Hold);
    st.records.push(WalkRecord::default());
    let failed_before = st.failed;
    let m = alloc::exempt(|| marks(fleet));
    for gp in patches {
        st.attempted += workers as u64;
        let t = Instant::now();
        let res = fleet.rollout_plan(&gp.patch, &plan);
        let took = t.elapsed();
        alloc::exempt(|| {
            let step = format!("{}->{}", gp.patch.from_version, gp.patch.to_version);
            match res {
                Ok(r)
                    if r.card.outcome == RolloutOutcome::Completed && r.fleet_report.complete() => {
                }
                Ok(r) => st.fail(false, format!("rollout {step}: {:?}", r.card.outcome)),
                Err(e) => st.fail(false, format!("rollout {step}: {e}")),
            }
            let span = spans.record("rollout_plan", walk_id, spans.ns(t), spans.ns(t + took));
            ops.push(Op {
                span,
                start: t,
                took,
                forward: Some((gp.patch.from_version.clone(), gp.patch.to_version.clone())),
            });
        });
        if st.failed > failed_before {
            return;
        }
    }

    // Chain rollback: every worker back down to v1. The poll waits until
    // every worker serves v1 with nothing pending (`pending_count` alone
    // can read 0 for an instant while a hop is mid-apply, see NOTES.md);
    // the time comes from the pause log (see `account_pauses`).
    let hops = patches.len();
    st.attempted += (workers * hops) as u64;
    let t = Instant::now();
    for w in 0..workers {
        let queued = fleet.remote(w).enqueue_rollback_chain(hops);
        if queued != hops {
            st.fail(
                false,
                format!("worker {w}: {queued}/{hops} rollback hops queued"),
            );
        }
    }
    let back = loop {
        if (0..workers).all(|w| fleet.remote(w).pending_count() == 0)
            && alloc::exempt(|| fleet.live_versions().iter().all(|v| v == "v1"))
        {
            break true;
        }
        if t.elapsed() > ROLLBACK_STALL {
            break false;
        }
        // Sleep, not spin: a spinning poller would take a core from the
        // two workers it is timing.
        std::thread::sleep(Duration::from_micros(20));
    };
    let took = t.elapsed();
    alloc::exempt(|| {
        if !back {
            let versions = fleet.live_versions();
            st.fail(false, format!("rollback stalled: versions {versions:?}"));
        }
        let span = spans.record("rollback_chain", walk_id, spans.ns(t), spans.ns(t + took));
        ops.push(Op {
            span,
            start: t,
            took,
            forward: None,
        });
        account(fleet, &m, &ops, st, spans);
        if !back {
            st.records.last_mut().expect("pushed above").rollback = None;
        }
        let (s, e) = (spans.ns(walk_start), spans.ns(Instant::now()));
        spans.record_as(walk_id, "walk", 0, s, e);
    });
}

/// An update lifecycle as the journal closed it: (worker, from, to,
/// rolled back).
type Key = (usize, String, String, bool);

/// Pools pauses, phases and coordinator wait; checks every journal
/// lifecycle, and per pause the ledger pause = coordinator wait + seven
/// phases, with the phases summed from the journal. A pause holds the
/// updates whose lifecycle the journal closed inside it: one forward
/// apply, the hops of a chain rollback, or, when a rollout returns
/// before the worker's pause ends, the next rollout's apply too.
fn account(
    fleet: &Fleet,
    marks: &[(usize, usize)],
    ops: &[Op],
    st: &mut WalkStats,
    spans: &mut Spans,
) {
    let Some(tel) = fleet.telemetry() else {
        st.fail(true, "fleet has no telemetry".into());
        return;
    };
    let journal = tel.journal();
    // The journal's epoch on this clock. Each estimate errs early by the
    // time between its two clock reads (more if the thread is preempted
    // between them), so the latest of a few is the closest.
    let epoch = (0..8)
        .map(|_| Instant::now() - journal.elapsed())
        .max()
        .expect("eight estimates");
    let mut closed: Vec<(Instant, Key, Duration)> = Vec::new();
    let ids = journal.update_ids();
    st.journal_ids += ids.len();
    for id in ids {
        let events = journal.events_for(id);
        if let Err(e) = validate_lifecycle(&events) {
            st.fail(true, format!("journal update {id}: {e}"));
            continue;
        }
        let last = events.last().expect("validated non-empty");
        let key = (
            last.worker.unwrap_or(usize::MAX),
            last.from_version.clone(),
            last.to_version.clone(),
            last.stage == Stage::RolledBack,
        );
        let phases: Duration = events
            .iter()
            .filter(|e| Stage::PHASES.contains(&e.stage))
            .filter_map(|e| e.dur)
            .sum();
        closed.push((epoch + last.at, key, phases));
    }
    let mut rec = st.records.pop().expect("walk pushed its record");
    rec.journal_bytes = Some(journal.to_jsonl().len() as f64);
    match settled(fleet, marks, &closed) {
        Some(logged) => account_pauses(&logged, ops, &closed, &mut rec, st, spans),
        None => st.fail(
            true,
            "an update the journal closed lies in no logged pause".into(),
        ),
    }
    st.records.push(rec);
}

/// Journal timestamps and pause instants come from different reads of
/// one monotonic clock; this allows for the gap between the reads.
const SLACK: Duration = Duration::from_micros(5);

/// Whether the journal closed `at` inside pause `p`.
fn within(at: Instant, p: &PauseEvent) -> bool {
    at + SLACK >= p.at && at <= p.at + p.dur + SLACK
}

/// Each worker's pauses and reports since `marks`, once every update the
/// journal closed lies inside a logged pause: a worker publishes a pause
/// only after the last update in it has closed.
fn settled(
    fleet: &Fleet,
    marks: &[(usize, usize)],
    closed: &[(Instant, Key, Duration)],
) -> Option<Vec<Logged>> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let logged = since(fleet, marks);
        let caught_up = closed.iter().all(|(at, key, _)| {
            logged
                .get(key.0)
                .is_some_and(|(pauses, _)| pauses.iter().any(|p| within(*at, p)))
        });
        if caught_up {
            return Some(logged);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// The per-pause half of [`account`].
fn account_pauses(
    logged: &[Logged],
    ops: &[Op],
    closed: &[(Instant, Key, Duration)],
    rec: &mut WalkRecord,
    st: &mut WalkStats,
    spans: &mut Spans,
) {
    let op_of = |key: &Key| {
        ops.iter().position(|o| match &o.forward {
            Some((from, to)) => !key.3 && key.1 == *from && key.2 == *to,
            None => key.3,
        })
    };
    let mut op_paused = vec![Duration::ZERO; ops.len()];
    // When the last rollback pause ended: the instant every worker
    // serves v1 again, free of the polling loop's granularity.
    let mut back_on_v1: Option<Instant> = None;
    for (w, (pauses, reports)) in logged.iter().enumerate() {
        let report = |key: &Key| {
            reports.iter().find(|r| {
                r.from_version == key.1 && r.to_version == key.2 && r.rolled_back == key.3
            })
        };
        let mut seen = 0;
        for p in pauses {
            let inside: Vec<&(Instant, Key, Duration)> = closed
                .iter()
                .filter(|(at, key, _)| key.0 == w && within(*at, p))
                .collect();
            seen += inside.len();
            let applied_reports: Vec<&UpdateReport> = inside
                .iter()
                .filter_map(|(_, key, _)| report(key))
                .collect();
            let applied: Duration = applied_reports.iter().map(|r| r.timings.total()).sum();
            let from_journal: Duration = inside.iter().map(|(_, _, d)| *d).sum();
            // pause = coord + phases, with coord = pause - report phases:
            // the ledger closes when the journal's phases equal the
            // reports' and no pause is shorter than its phases.
            let coord = p.dur.as_secs_f64() - applied.as_secs_f64();
            let miss = (applied.as_secs_f64() - from_journal.as_secs_f64()).abs();
            let share = miss.max(-coord) / p.dur.as_secs_f64().max(1e-9);
            st.ledger_worst = st.ledger_worst.max(share);
            if share > LEDGER_TOLERANCE || applied_reports.len() != inside.len() {
                st.fail(
                    true,
                    format!(
                        "ledger worker {w}: pause {:?}, phases {applied:?} in {} reports \
                         (journal {from_journal:?} in {} updates)",
                        p.dur,
                        applied_reports.len(),
                        inside.len()
                    ),
                );
            }
            rec.pauses.push(p.dur);
            rec.coord_wait.push(p.dur.saturating_sub(applied));
            rec.phases.extend(applied_reports.iter().map(|r| r.timings));
            // The whole pause counts against the operation of its
            // earliest update.
            let op = inside.first().and_then(|(_, key, _)| op_of(key));
            if let Some(k) = op {
                op_paused[k] += p.dur;
                if ops[k].forward.is_none() {
                    back_on_v1 = back_on_v1.max(Some(p.at + p.dur));
                }
            }
            if spans.on() {
                // The phases laid end to end inside the pause; the
                // remainder is coordinator wait.
                let start = spans.ns(p.at);
                let parent = op.map_or(0, |k| ops[k].span);
                let id = spans.record(
                    "update.pause",
                    parent,
                    start,
                    start + p.dur.as_nanos() as u64,
                );
                let t = applied_reports
                    .iter()
                    .fold(PhaseTimings::default(), |a, r| sum_timings(a, r.timings));
                spans.sequence(id, start, &phase_parts(&t, p.dur.saturating_sub(applied)));
            }
        }
        let expected = closed.iter().filter(|(_, key, _)| key.0 == w).count();
        if seen != expected || reports.len() != expected {
            st.fail(
                true,
                format!(
                    "worker {w}: {expected} journal updates, {} reports, {seen} inside a pause",
                    reports.len()
                ),
            );
        }
    }
    for (op, paused) in ops.iter().zip(op_paused) {
        if op.forward.is_some() {
            rec.rollout.push(op.took);
            rec.rollout_coord.push(op.took.saturating_sub(paused));
        } else {
            rec.rollback = back_on_v1.map(|end| end.saturating_duration_since(op.start));
        }
    }
}

fn sum_timings(a: PhaseTimings, b: PhaseTimings) -> PhaseTimings {
    PhaseTimings {
        drain: a.drain + b.drain,
        verify: a.verify + b.verify,
        compat: a.compat + b.compat,
        link: a.link + b.link,
        bind: a.bind + b.bind,
        init: a.init + b.init,
        transform: a.transform + b.transform,
    }
}

/// The seven phases plus coordinator wait, as span parts.
pub fn phase_parts(t: &PhaseTimings, coord: Duration) -> [(&'static str, u64); 8] {
    let ns = |d: Duration| d.as_nanos() as u64;
    [
        ("update.drain", ns(t.drain)),
        ("update.verify", ns(t.verify)),
        ("update.compat", ns(t.compat)),
        ("update.link", ns(t.link)),
        ("update.bind", ns(t.bind)),
        ("update.init", ns(t.init)),
        ("update.transform", ns(t.transform)),
        ("update.coord_wait", ns(coord)),
    ]
}
