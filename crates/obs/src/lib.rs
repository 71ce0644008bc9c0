//! # dsu-obs — unified telemetry for the DSU runtime
//!
//! The paper's whole argument rests on *measuring* the cost of
//! updateability: dispatch overhead, per-phase patch-application pauses,
//! served-traffic disruption. This crate is the substrate those
//! measurements flow through, shared by every layer of the system:
//!
//! * [`Journal`] — a structured **event journal**: every patch traverses
//!   an explicit lifecycle (`enqueued → gate-wait → verify → compat →
//!   link → bind → init → transform → committed/aborted`) emitted as
//!   timestamped, worker-tagged [`Event`]s with JSONL export;
//! * [`Registry`] — a **metrics registry** of atomic [`Counter`]s,
//!   [`Gauge`]s and bucketed [`Histogram`]s with Prometheus-style text
//!   exposition and a JSON snapshot;
//! * [`fleet`] — **fleet aggregation**: merge per-worker registries into
//!   one exposition and reconstruct rollout timelines from the journal;
//! * [`trace`] — **causal tracing**: a lock-cheap, sampling span
//!   collector ([`Tracer`]) joining request lifecycles, update pauses
//!   and rollouts under shared trace ids, with a Chrome-trace-event
//!   (Perfetto-loadable) exporter;
//! * [`attribution`] — the **latency-attribution analyzer**: joins
//!   request spans with overlapping update spans into a per-update
//!   [`StallReport`] (requests delayed, per-phase attributed time,
//!   attributed vs. intrinsic percentiles);
//! * [`json`] — the workspace's one **JSON codec**: a streaming
//!   [`json::Writer`] behind every exported artifact and durable record,
//!   and a bounded [`json::parse`] behind every reader (journal WAL
//!   recovery here, snapshot rings in `dsu-core`).
//!
//! Everything is dependency-free, lock-light (counters are relaxed
//! atomics; the journal and span ring take one short mutex per record)
//! and cheap to clone: handles are `Arc`s, so a worker thread, its
//! updater and a scraping coordinator can all share the same
//! instruments.

pub mod attribution;
pub mod fleet;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod trace;

pub use attribution::{stall_report, RequestStall, StallReport, UpdateStall};
pub use fleet::{aggregate_json, aggregate_text, render_timeline, RolloutRow};
pub use journal::{Event, Journal, Stage};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{to_chrome_trace, validate_spans, Span, SpanKind, Tracer};
