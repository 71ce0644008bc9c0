//! Causal tracing: spans for requests, update pauses, and rollouts.
//!
//! The journal answers "*an* update paused *a* worker"; the tracer
//! answers "*which requests* stalled, in *which phase*, for *how long*".
//! Every layer of the stack records [`Span`]s into one shared [`Tracer`]:
//!
//! * `flashed::Server` emits a **request span** per sampled request with
//!   child phase spans across the AMPED lifecycle (`admit → park →
//!   guest-exec → respond`);
//! * `dsu_core::Updater` emits an **update span** per applied patch whose
//!   children are the pipeline phases (`gate-wait`, `drain`, `verify`,
//!   …, `transform`) carrying the *same* durations that land in
//!   `PhaseTimings` and the journal;
//! * the fleet coordinator opens a **rollout span** and propagates its
//!   `(trace, span)` context to every worker, so per-worker update spans
//!   parent under one rollout trace.
//!
//! The collector is lock-cheap by construction: id allocation and
//! sampling decisions are relaxed atomics, and recording takes one short
//! mutex push into a bounded ring (drop-oldest; a `dropped` counter keeps
//! the loss visible). Request spans are **sampled** (1-in-N, N
//! adjustable at runtime); update and rollout spans are rare and always
//! recorded.
//!
//! All spans share the tracer's own epoch clock, so intervals from
//! different threads and layers are directly comparable — that is what
//! makes the overlap join in [`crate::attribution`] sound. Export with
//! [`to_chrome_trace`] (Chrome trace-event JSON, loads in Perfetto or
//! `chrome://tracing`) and check structural invariants with
//! [`validate_spans`].

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json;

/// What a span measures (selects the analyzer treatment and the export
/// lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One served request, admit to respond (root).
    Request,
    /// A stage of a request's lifecycle (child of a `Request` span).
    RequestPhase,
    /// One applied update or rollback: the whole pause on one worker.
    Update,
    /// A pipeline phase of an update (child of an `Update` span).
    UpdatePhase,
    /// A coordinator-side rollout: parents the fleet's update spans.
    Rollout,
}

impl SpanKind {
    /// Stable lowercase name (used in the Chrome export's `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::RequestPhase => "request-phase",
            SpanKind::Update => "update",
            SpanKind::UpdatePhase => "update-phase",
            SpanKind::Rollout => "rollout",
        }
    }
}

/// One timed interval, tagged with its causal context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to (one trace per request / per rollout).
    pub trace: u64,
    /// Span id, unique tracer-wide.
    pub id: u64,
    /// Parent span id within the same trace, if any.
    pub parent: Option<u64>,
    /// Kind (selects analyzer treatment and export lane).
    pub kind: SpanKind,
    /// Operation name (`"request"`, `"guest-exec"`, `"update"`,
    /// `"drain"`, …).
    pub name: &'static str,
    /// Worker the span ran on (`None` for coordinator spans).
    pub worker: Option<usize>,
    /// Start offset from the tracer's epoch.
    pub start: Duration,
    /// Length of the interval (zero for instant events).
    pub dur: Duration,
    /// Update lifecycle id (journal cross-link), for update spans.
    pub update: Option<u64>,
    /// Request id, for request spans.
    pub request: Option<u64>,
    /// Free-form context (version transition, policy, …).
    pub detail: Option<String>,
}

impl Span {
    /// End offset from the tracer's epoch.
    pub fn end(&self) -> Duration {
        self.start + self.dur
    }

    /// Length of the overlap between this span's interval and another's
    /// (zero when disjoint).
    pub fn overlap(&self, other: &Span) -> Duration {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        end.saturating_sub(start)
    }
}

struct Inner {
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    /// Record 1 in N request traces (0 disables request sampling
    /// entirely; 1 records every request).
    sample_every: AtomicU64,
    sample_seq: AtomicU64,
    dropped: AtomicU64,
    cap: usize,
    spans: Mutex<VecDeque<Span>>,
}

/// Shared, bounded span collector (cheap to clone; all clones feed the
/// same ring).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("spans", &self.len())
            .finish()
    }
}

/// Default ring capacity: enough for a rollout's worth of sampled
/// request spans plus every update span, small enough to stay cheap.
pub const DEFAULT_CAPACITY: usize = 65_536;

impl Tracer {
    /// Creates an empty tracer; the epoch is now, every request is
    /// sampled, capacity is [`DEFAULT_CAPACITY`] spans.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a tracer whose ring holds at most `cap` spans
    /// (drop-oldest beyond that).
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_trace: AtomicU64::new(0),
                next_span: AtomicU64::new(0),
                sample_every: AtomicU64::new(1),
                sample_seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                cap: cap.max(1),
                spans: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Sets the request-sampling rate: record 1 in `n` requests. `0`
    /// turns request tracing off entirely; update and rollout spans are
    /// always recorded regardless.
    pub fn set_sampling(&self, n: u64) {
        self.inner.sample_every.store(n, Ordering::Relaxed);
    }

    /// Decides whether the next request should be traced (one relaxed
    /// fetch-add; no lock).
    pub fn sample(&self) -> bool {
        match self.inner.sample_every.load(Ordering::Relaxed) {
            0 => false,
            1 => true,
            n => self
                .inner
                .sample_seq
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(n),
        }
    }

    /// Allocates a fresh trace id.
    pub fn next_trace_id(&self) -> u64 {
        self.inner.next_trace.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Allocates a fresh span id (unique tracer-wide).
    pub fn next_span_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Converts an [`Instant`] to an offset from the tracer's epoch
    /// (zero for instants before the epoch).
    pub fn since_epoch(&self, t: Instant) -> Duration {
        t.checked_duration_since(self.inner.epoch)
            .unwrap_or_default()
    }

    /// Offset of "now" from the tracer's epoch.
    pub fn now(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// Records one finished span (one short lock; drop-oldest when the
    /// ring is full).
    pub fn record(&self, span: Span) {
        self.record_many(std::iter::once(span));
    }

    /// Records a batch of finished spans under a single lock
    /// acquisition (a request or update records its whole tree at once).
    pub fn record_many<I: IntoIterator<Item = Span>>(&self, spans: I) {
        let mut ring = self.inner.spans.lock().expect("poisoned");
        for span in spans {
            if ring.len() >= self.inner.cap {
                ring.pop_front();
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(span);
        }
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.inner.spans.lock().expect("poisoned").len()
    }

    /// Whether no spans are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped to the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the ring, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .spans
            .lock()
            .expect("poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Drains the ring, returning the held spans (oldest first).
    pub fn take_spans(&self) -> Vec<Span> {
        self.inner
            .spans
            .lock()
            .expect("poisoned")
            .drain(..)
            .collect()
    }
}

/// Checks structural invariants over a span set: span ids unique, every
/// parent reference resolves within the same trace, and every child's
/// interval nests inside its parent's.
///
/// Parents that fell out of a bounded ring are reported — run this on
/// complete captures (tests, smoke runs), not on a ring that has
/// dropped spans.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_spans(spans: &[Span]) -> Result<(), String> {
    let mut by_id: HashMap<u64, &Span> = HashMap::with_capacity(spans.len());
    for s in spans {
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    for s in spans {
        let Some(pid) = s.parent else { continue };
        let parent = by_id
            .get(&pid)
            .ok_or_else(|| format!("span {} ({}) has unknown parent {pid}", s.id, s.name))?;
        if parent.trace != s.trace {
            return Err(format!(
                "span {} ({}) crosses traces: {} vs parent's {}",
                s.id, s.name, s.trace, parent.trace
            ));
        }
        if s.start < parent.start || s.end() > parent.end() {
            return Err(format!(
                "span {} ({}) [{:?}, {:?}] escapes parent {} ({}) [{:?}, {:?}]",
                s.id,
                s.name,
                s.start,
                s.end(),
                parent.id,
                parent.name,
                parent.start,
                parent.end()
            ));
        }
    }
    Ok(())
}

/// Renders a span set as Chrome trace-event JSON (the `traceEvents`
/// array format) — loadable in Perfetto or `chrome://tracing`.
///
/// Workers map to processes (`pid` = worker + 1; coordinator spans get
/// `pid` 0); span kinds map to threads within each process, so request
/// traffic and update pauses stack in separate lanes and their overlap
/// is visible at a glance. Timestamps and durations are microseconds
/// from the tracer epoch, as the format requires.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    fn pid(worker: Option<usize>) -> usize {
        worker.map_or(0, |w| w + 1)
    }
    fn tid(kind: SpanKind) -> u32 {
        match kind {
            SpanKind::Request | SpanKind::RequestPhase => 1,
            SpanKind::Update | SpanKind::UpdatePhase => 2,
            SpanKind::Rollout => 3,
        }
    }
    fn micros(d: Duration) -> f64 {
        d.as_secs_f64() * 1e6
    }

    let mut w = json::Writer::new();
    w.obj().key("traceEvents").arr();

    // Metadata: name each process and lane once.
    let mut pids: Vec<usize> = spans.iter().map(|s| pid(s.worker)).collect();
    pids.sort_unstable();
    pids.dedup();
    for p in pids {
        let name = if p == 0 {
            "coordinator".to_string()
        } else {
            format!("worker {}", p - 1)
        };
        for (t, meta, label) in [
            (0u32, "process_name", name.as_str()),
            (1, "thread_name", "requests"),
            (2, "thread_name", "updates"),
            (3, "thread_name", "rollouts"),
        ] {
            w.obj().key("name").str(meta).key("ph").str("M");
            w.key("pid").int(p).key("tid").int(t);
            w.key("args").obj().key("name").str(label);
            w.end_obj().end_obj();
        }
    }

    for s in spans {
        w.obj().key("name").str(s.name);
        w.key("cat").str(s.kind.name());
        w.key("ph").str("X").key("ts").num(micros(s.start));
        w.key("dur").num(micros(s.dur));
        w.key("pid").int(pid(s.worker)).key("tid").int(tid(s.kind));
        w.key("args").obj().key("trace").int(s.trace);
        w.key("span").int(s.id);
        if let Some(p) = s.parent {
            w.key("parent").int(p);
        }
        if let Some(u) = s.update {
            w.key("update").int(u);
        }
        if let Some(r) = s.request {
            w.key("request").int(r);
        }
        if let Some(d) = &s.detail {
            w.key("detail").str(d);
        }
        w.end_obj().end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: Option<u64>, start_us: u64, dur_us: u64) -> Span {
        Span {
            trace,
            id,
            parent,
            kind: if parent.is_none() {
                SpanKind::Request
            } else {
                SpanKind::RequestPhase
            },
            name: if parent.is_none() { "request" } else { "phase" },
            worker: Some(0),
            start: Duration::from_micros(start_us),
            dur: Duration::from_micros(dur_us),
            update: None,
            request: None,
            detail: None,
        }
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let t = Tracer::new();
        let a = t.next_span_id();
        let b = t.next_span_id();
        assert!(b > a);
        assert_ne!(t.next_trace_id(), t.next_trace_id());
    }

    #[test]
    fn sampling_rates() {
        let t = Tracer::new();
        assert!(t.sample(), "default samples everything");
        t.set_sampling(0);
        assert!(!t.sample(), "0 disables request tracing");
        t.set_sampling(4);
        let hits = (0..100).filter(|_| t.sample()).count();
        assert_eq!(hits, 25);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(2);
        for i in 0..4 {
            t.record(span(1, i + 1, None, i * 10, 5));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        let held = t.spans();
        assert_eq!(held[0].id, 3);
        assert_eq!(held[1].id, 4);
    }

    #[test]
    fn validation_accepts_nested_rejects_escaping() {
        let ok = vec![span(1, 1, None, 0, 100), span(1, 2, Some(1), 10, 50)];
        validate_spans(&ok).unwrap();

        let escaping = vec![span(1, 1, None, 0, 100), span(1, 2, Some(1), 90, 50)];
        let e = validate_spans(&escaping).unwrap_err();
        assert!(e.contains("escapes"), "{e}");

        let orphan = vec![span(1, 2, Some(7), 0, 10)];
        let e = validate_spans(&orphan).unwrap_err();
        assert!(e.contains("unknown parent"), "{e}");

        let cross = vec![span(1, 1, None, 0, 100), span(2, 2, Some(1), 10, 50)];
        let e = validate_spans(&cross).unwrap_err();
        assert!(e.contains("crosses traces"), "{e}");
    }

    #[test]
    fn overlap_is_symmetric_and_clamped() {
        let a = span(1, 1, None, 0, 100);
        let b = span(1, 2, None, 60, 100);
        assert_eq!(a.overlap(&b), Duration::from_micros(40));
        assert_eq!(b.overlap(&a), Duration::from_micros(40));
        let c = span(1, 3, None, 500, 10);
        assert_eq!(a.overlap(&c), Duration::ZERO);
    }

    #[test]
    fn chrome_export_shape() {
        let spans = vec![span(1, 1, None, 0, 100), span(1, 2, Some(1), 10, 50)];
        let json = to_chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"pid\":1"), "worker 0 maps to pid 1");
        // Well-formed: it parses, has no trailing commas, balances braces.
        json::parse(&json).unwrap();
        assert!(!json.contains(",]") && !json.contains(",}"));
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
