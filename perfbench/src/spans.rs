//! In-memory spans for the traced run, written once at the end as a
//! Chrome trace (loadable in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval and the span that caused it (`parent` 0: a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span log on one clock. Disabled logs record nothing.
pub struct Spans {
    t0: Instant,
    on: bool,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    /// A log whose clock starts at `t0`; ids start above `id_base`, so
    /// logs kept by different threads merge without clashes.
    pub fn new(t0: Instant, on: bool, id_base: u64) -> Spans {
        Spans {
            t0,
            on,
            next: id_base,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the log's origin to `at` (0 before it).
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates a span id ahead of its recording, so children can name
    /// a parent that closes after them (0 when the log is off).
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        self.next
    }

    /// Records `[start_ns, end_ns)` as span `id` under `parent`.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Records `[start_ns, end_ns)` under `parent`; returns its id (0 when
    /// the log is off).
    pub fn record(&mut self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, start_ns, end_ns);
        id
    }

    /// Records `[start, now)` under `parent`.
    pub fn close(&mut self, name: &'static str, parent: u64, start: Instant) -> u64 {
        let (s, e) = (self.ns(start), self.ns(Instant::now()));
        self.record(name, parent, s, e)
    }

    /// Records children laid end to end from `start_ns`, one per
    /// `(name, length)`, under `parent`.
    pub fn sequence(&mut self, parent: u64, start_ns: u64, parts: &[(&'static str, u64)]) {
        let mut at = start_ns;
        for &(name, len) in parts {
            self.record(name, parent, at, at + len);
            at += len;
        }
    }
}

/// Renders spans as Chrome trace events; each root's tree shares a lane.
pub fn chrome_trace(spans: &[Span]) -> String {
    let parent: std::collections::HashMap<u64, u64> =
        spans.iter().map(|s| (s.id, s.parent)).collect();
    let root = |mut id: u64| {
        while let Some(&p) = parent.get(&id).filter(|&&p| p != 0) {
            id = p;
        }
        id
    };
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            root(s.id) % 64,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        );
    }
    out.push_str("\n]}\n");
    out
}
