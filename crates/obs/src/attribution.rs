//! Latency attribution: join request spans with overlapping update
//! spans into a per-update **stall report**.
//!
//! The AMPED worker is single-threaded: while an update pause runs, the
//! request the guest was serving is stalled and every other admitted
//! request queues behind it. The analyzer models exactly that —
//! **head-of-line exclusive attribution**:
//!
//! * for each update span, the *overlapping* request spans on the same
//!   worker are the delayed cohort;
//! * the cohort's **head** (earliest-started request — the one the guest
//!   was executing when the pause hit) is charged the pause: its
//!   attributed time is the sum of its overlaps with the update's phase
//!   child spans (`gate-wait`, `drain`, `verify`, …, `transform`);
//! * the rest of the cohort is counted as delayed but not double-charged
//!   — their queueing delay is a shadow of the same pause.
//!
//! Because update phase spans carry the same durations as
//! `PhaseTimings` and the journal, a pause that lands wholly inside its
//! head request reconciles *exactly*: attributed time == journal phase
//! sum. Phase time no request was executing under is reported as
//! `unattributed` (the pause hit an idle worker), keeping the
//! accounting total: attributed + unattributed == phase totals.

use std::collections::HashMap;
use std::time::Duration;

use crate::json;
use crate::trace::{Span, SpanKind};

/// One update's share of the stall accounting.
#[derive(Debug, Clone)]
pub struct UpdateStall {
    /// Update lifecycle id (journal cross-link).
    pub update: u64,
    /// Trace the update span belongs to (the rollout trace, when the
    /// coordinator propagated one).
    pub trace: u64,
    /// Worker the update applied on.
    pub worker: Option<usize>,
    /// Whether this was a reverse (rollback) update.
    pub rollback: bool,
    /// Version transition (`"v1->v2"`), from the span detail.
    pub detail: Option<String>,
    /// Whole pause: the update span's own duration.
    pub pause: Duration,
    /// Sum of the update's phase child spans (== journal phase sums).
    pub phase_total: Duration,
    /// Requests whose spans overlap the pause on the same worker.
    pub requests_delayed: usize,
    /// Pause time charged to the head request, per phase name.
    pub per_phase: Vec<(&'static str, Duration)>,
    /// Total pause time charged to the head request.
    pub attributed: Duration,
    /// Phase time no request was running under (idle-worker pause).
    pub unattributed: Duration,
}

/// One delayed request's view of the same accounting.
#[derive(Debug, Clone)]
pub struct RequestStall {
    /// Request id.
    pub request: u64,
    /// Worker that served it.
    pub worker: Option<usize>,
    /// End-to-end request latency (its span's duration).
    pub total: Duration,
    /// Update-pause time attributed to this request.
    pub attributed: Duration,
    /// Latency net of attributed pause time.
    pub intrinsic: Duration,
    /// Update spans this request's span overlaps (for the
    /// exactly-one-pause invariant under non-overlapping rollouts).
    pub overlapping_updates: usize,
}

/// The joined stall report for one span capture.
#[derive(Debug, Clone, Default)]
pub struct StallReport {
    /// Per-update rows, in start order.
    pub updates: Vec<UpdateStall>,
    /// Per-request rows for every request that overlapped a pause.
    pub requests: Vec<RequestStall>,
    /// Request spans seen in the capture.
    pub requests_seen: usize,
    /// Distinct requests overlapping at least one update pause.
    pub requests_delayed: usize,
    /// Total pause time attributed across all requests.
    pub attributed_total: Duration,
    /// Total phase time that hit idle workers.
    pub unattributed_total: Duration,
    /// p50 of attributed pause time over all sampled requests.
    pub p50_attributed: Duration,
    /// p99 of attributed pause time over all sampled requests.
    pub p99_attributed: Duration,
    /// p50 of intrinsic (pause-free) latency over all sampled requests.
    pub p50_intrinsic: Duration,
    /// p99 of intrinsic latency over all sampled requests.
    pub p99_intrinsic: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Builds the stall report from a span capture (as returned by
/// `Tracer::spans`). Only `Request`, `Update` and `UpdatePhase` spans
/// participate; anything else is ignored.
pub fn stall_report(spans: &[Span]) -> StallReport {
    let requests: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Request)
        .collect();
    let updates: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Update)
        .collect();
    let mut phases: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::UpdatePhase) {
        if let Some(p) = s.parent {
            phases.entry(p).or_default().push(s);
        }
    }

    // request span id -> (attributed, overlapping update count)
    let mut per_request: HashMap<u64, (Duration, usize)> = HashMap::new();
    let mut rows = Vec::with_capacity(updates.len());

    for u in &updates {
        let cohort: Vec<&Span> = requests
            .iter()
            .filter(|r| r.worker == u.worker && r.overlap(u) > Duration::ZERO)
            .copied()
            .collect();
        for r in &cohort {
            per_request.entry(r.id).or_default().1 += 1;
        }
        // Head of line: the earliest-started overlapping request is the
        // one the guest was executing when the pause hit.
        let head: Option<&Span> = cohort.iter().min_by_key(|r| (r.start, r.id)).copied();

        let children = phases.get(&u.id).map(Vec::as_slice).unwrap_or(&[]);
        let phase_total: Duration = children.iter().map(|c| c.dur).sum();
        let mut per_phase: Vec<(&'static str, Duration)> = Vec::with_capacity(children.len());
        let mut attributed = Duration::ZERO;
        for c in children {
            let share = head.map(|h| h.overlap(c)).unwrap_or_default();
            attributed += share;
            match per_phase.iter_mut().find(|(n, _)| *n == c.name) {
                Some((_, d)) => *d += share,
                None => per_phase.push((c.name, share)),
            }
        }
        if let Some(h) = head {
            per_request.entry(h.id).or_default().0 += attributed;
        }

        rows.push(UpdateStall {
            update: u.update.unwrap_or_default(),
            trace: u.trace,
            worker: u.worker,
            rollback: u.name == "rollback",
            detail: u.detail.clone(),
            pause: u.dur,
            phase_total,
            requests_delayed: cohort.len(),
            per_phase,
            attributed,
            unattributed: phase_total.saturating_sub(attributed),
        });
    }
    rows.sort_by_key(|r| (r.worker, r.update));

    let mut request_rows: Vec<RequestStall> = requests
        .iter()
        .filter_map(|r| {
            let (attributed, overlapping) = *per_request.get(&r.id)?;
            Some(RequestStall {
                request: r.request.unwrap_or(r.id),
                worker: r.worker,
                total: r.dur,
                attributed,
                intrinsic: r.dur.saturating_sub(attributed),
                overlapping_updates: overlapping,
            })
        })
        .collect();
    request_rows.sort_by_key(|r| (r.worker, r.request));

    // Percentiles over *all* sampled requests, delayed or not: the
    // attributed distribution is mostly zeros — that is the point.
    let mut attributed_all: Vec<Duration> = requests
        .iter()
        .map(|r| per_request.get(&r.id).map(|(a, _)| *a).unwrap_or_default())
        .collect();
    let mut intrinsic_all: Vec<Duration> = requests
        .iter()
        .map(|r| {
            let a = per_request.get(&r.id).map(|(a, _)| *a).unwrap_or_default();
            r.dur.saturating_sub(a)
        })
        .collect();
    attributed_all.sort_unstable();
    intrinsic_all.sort_unstable();

    StallReport {
        requests_seen: requests.len(),
        requests_delayed: request_rows.len(),
        attributed_total: rows.iter().map(|r| r.attributed).sum(),
        unattributed_total: rows.iter().map(|r| r.unattributed).sum(),
        p50_attributed: percentile(&attributed_all, 50.0),
        p99_attributed: percentile(&attributed_all, 99.0),
        p50_intrinsic: percentile(&intrinsic_all, 50.0),
        p99_intrinsic: percentile(&intrinsic_all, 99.0),
        updates: rows,
        requests: request_rows,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl StallReport {
    /// One JSON object.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.obj().key("requests_seen").int(self.requests_seen);
        w.key("requests_delayed").int(self.requests_delayed);
        for (key, d) in [
            ("attributed_total_ms", self.attributed_total),
            ("unattributed_total_ms", self.unattributed_total),
            ("p50_attributed_ms", self.p50_attributed),
            ("p99_attributed_ms", self.p99_attributed),
            ("p50_intrinsic_ms", self.p50_intrinsic),
            ("p99_intrinsic_ms", self.p99_intrinsic),
        ] {
            w.key(key).num(ms(d));
        }
        w.key("updates").arr();
        for u in &self.updates {
            w.obj().key("update").int(u.update);
            w.key("trace").int(u.trace);
            w.key("rollback").bool(u.rollback);
            w.key("pause_ms").num(ms(u.pause));
            w.key("phase_total_ms").num(ms(u.phase_total));
            w.key("requests_delayed").int(u.requests_delayed);
            w.key("attributed_ms").num(ms(u.attributed));
            w.key("unattributed_ms").num(ms(u.unattributed));
            if let Some(worker) = u.worker {
                w.key("worker").int(worker);
            }
            if let Some(d) = &u.detail {
                w.key("transition").str(d);
            }
            w.key("per_phase_ms").obj();
            for (name, d) in &u.per_phase {
                w.key(name).num(ms(*d));
            }
            w.end_obj().end_obj();
        }
        w.end_arr().key("requests").arr();
        for r in &self.requests {
            w.obj().key("request").int(r.request);
            w.key("total_ms").num(ms(r.total));
            w.key("attributed_ms").num(ms(r.attributed));
            w.key("intrinsic_ms").num(ms(r.intrinsic));
            w.key("overlapping_updates").int(r.overlapping_updates);
            if let Some(worker) = r.worker {
                w.key("worker").int(worker);
            }
            w.end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }

    /// Human-readable rendering (fixed-width table + summary lines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "stall report: {} requests sampled, {} delayed by updates\n",
            self.requests_seen, self.requests_delayed
        ));
        out.push_str(&format!(
            "latency: p50 intrinsic {:.3}ms / attributed {:.3}ms; \
             p99 intrinsic {:.3}ms / attributed {:.3}ms\n",
            ms(self.p50_intrinsic),
            ms(self.p50_attributed),
            ms(self.p99_intrinsic),
            ms(self.p99_attributed),
        ));
        out.push_str(&format!(
            "{:<8} {:<8} {:<12} {:<10} {:>8} {:>12} {:>12}  per-phase (attributed ms)\n",
            "update", "worker", "transition", "kind", "delayed", "pause ms", "attrib ms"
        ));
        for u in &self.updates {
            let worker = u.worker.map_or("-".to_string(), |w| w.to_string());
            let mut phases = String::new();
            for (name, d) in &u.per_phase {
                if *d > Duration::ZERO {
                    if !phases.is_empty() {
                        phases.push(' ');
                    }
                    phases.push_str(&format!("{name}={:.3}", ms(*d)));
                }
            }
            out.push_str(&format!(
                "{:<8} {:<8} {:<12} {:<10} {:>8} {:>12.3} {:>12.3}  {}\n",
                u.update,
                worker,
                u.detail.as_deref().unwrap_or("-"),
                if u.rollback { "ROLLBACK" } else { "update" },
                u.requests_delayed,
                ms(u.pause),
                ms(u.attributed),
                phases,
            ));
        }
        out.push_str(&format!(
            "attributed total {:.3}ms, unattributed (idle-worker) {:.3}ms\n",
            ms(self.attributed_total),
            ms(self.unattributed_total)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;

    fn mk(
        kind: SpanKind,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        worker: Option<usize>,
        start_us: u64,
        dur_us: u64,
    ) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            kind,
            name,
            worker,
            start: Duration::from_micros(start_us),
            dur: Duration::from_micros(dur_us),
            update: if kind == SpanKind::Update {
                Some(id)
            } else {
                None
            },
            request: if kind == SpanKind::Request {
                Some(id)
            } else {
                None
            },
            detail: None,
        }
    }

    #[test]
    fn head_of_line_gets_the_pause_exactly_once() {
        let spans = vec![
            // Head request [0, 1000]; a queued one [50, 1100].
            mk(SpanKind::Request, 1, None, "request", Some(0), 0, 1000),
            mk(SpanKind::Request, 2, None, "request", Some(0), 50, 1050),
            // Update [100, 400] with two phases fully inside the head.
            mk(SpanKind::Update, 10, None, "update", Some(0), 100, 300),
            mk(
                SpanKind::UpdatePhase,
                11,
                Some(10),
                "drain",
                Some(0),
                100,
                200,
            ),
            mk(
                SpanKind::UpdatePhase,
                12,
                Some(10),
                "bind",
                Some(0),
                300,
                100,
            ),
        ];
        let rep = stall_report(&spans);
        assert_eq!(rep.requests_seen, 2);
        assert_eq!(rep.requests_delayed, 2);
        assert_eq!(rep.updates.len(), 1);
        let u = &rep.updates[0];
        assert_eq!(u.requests_delayed, 2);
        assert_eq!(u.attributed, Duration::from_micros(300));
        assert_eq!(u.phase_total, Duration::from_micros(300));
        assert_eq!(u.unattributed, Duration::ZERO);
        // Only the head is charged.
        let head = rep.requests.iter().find(|r| r.request == 1).unwrap();
        assert_eq!(head.attributed, Duration::from_micros(300));
        assert_eq!(head.intrinsic, Duration::from_micros(700));
        let queued = rep.requests.iter().find(|r| r.request == 2).unwrap();
        assert_eq!(queued.attributed, Duration::ZERO);
        assert_eq!(queued.overlapping_updates, 1);
        assert_eq!(rep.attributed_total, Duration::from_micros(300));
    }

    #[test]
    fn idle_worker_pause_is_unattributed() {
        let spans = vec![
            mk(SpanKind::Update, 10, None, "update", Some(1), 100, 300),
            mk(
                SpanKind::UpdatePhase,
                11,
                Some(10),
                "bind",
                Some(1),
                100,
                300,
            ),
            // Request on a different worker: no overlap charge.
            mk(SpanKind::Request, 1, None, "request", Some(0), 0, 1000),
        ];
        let rep = stall_report(&spans);
        assert_eq!(rep.requests_delayed, 0);
        assert_eq!(rep.updates[0].requests_delayed, 0);
        assert_eq!(rep.updates[0].attributed, Duration::ZERO);
        assert_eq!(rep.updates[0].unattributed, Duration::from_micros(300));
    }

    #[test]
    fn partial_overlap_is_clamped_to_the_request() {
        // Pause starts inside the request but outlives it.
        let spans = vec![
            mk(SpanKind::Request, 1, None, "request", Some(0), 0, 200),
            mk(SpanKind::Update, 10, None, "update", Some(0), 100, 400),
            mk(
                SpanKind::UpdatePhase,
                11,
                Some(10),
                "bind",
                Some(0),
                100,
                400,
            ),
        ];
        let rep = stall_report(&spans);
        let u = &rep.updates[0];
        assert_eq!(u.attributed, Duration::from_micros(100));
        assert_eq!(u.unattributed, Duration::from_micros(300));
    }

    #[test]
    fn json_and_render_are_well_formed() {
        let spans = vec![
            mk(SpanKind::Request, 1, None, "request", Some(0), 0, 1000),
            mk(SpanKind::Update, 10, None, "rollback", Some(0), 100, 300),
            mk(
                SpanKind::UpdatePhase,
                11,
                Some(10),
                "bind",
                Some(0),
                100,
                300,
            ),
        ];
        let rep = stall_report(&spans);
        let json = rep.to_json();
        assert!(json.contains("\"rollback\":true"));
        assert!(json.contains("\"per_phase_ms\":{\"bind\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = rep.render();
        assert!(text.contains("ROLLBACK"), "{text}");
        assert!(text.contains("stall report"), "{text}");
    }
}
