//! The metrics registry: atomic counters, gauges and bucketed
//! histograms, with Prometheus-style text exposition and a JSON
//! snapshot.
//!
//! Instruments are `Arc` handles over relaxed atomics — recording on the
//! hot path is one `fetch_add`, no locks — so the serving loop, the
//! updater and a scraping coordinator can share them freely. The
//! registry itself is only locked at registration and scrape time.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json;

/// Default latency-histogram bucket upper bounds, in microseconds
/// (5µs … 1s, roughly logarithmic — interpreter request service times
/// and update pauses both land comfortably inside).
pub const LATENCY_BOUNDS_US: [u64; 17] = [
    5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000,
];

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for mirroring a counter accumulated
    /// elsewhere (e.g. a VM's thread-local `ExecStats`). The caller owns
    /// the monotonicity promise.
    pub fn store(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    v: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    /// Bucket upper bounds in microseconds, ascending.
    bounds_us: Vec<u64>,
    /// One count per bound, plus a final overflow (+Inf) bucket.
    counts: Vec<AtomicU64>,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket duration histogram (cumulative exposition, Prometheus
/// style).
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// Creates a histogram with the given bucket upper bounds (µs,
    /// ascending; an overflow bucket is added automatically).
    pub fn new(bounds_us: &[u64]) -> Histogram {
        assert!(
            bounds_us.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = (0..=bounds_us.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds_us: bounds_us.to_vec(),
                counts,
                sum_ns: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let idx = self.inner.bounds_us.partition_point(|&bound| bound < us);
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner
            .sum_ns
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.inner.sum_ns.load(Ordering::Relaxed))
    }

    /// Per-bucket (non-cumulative) counts; the final entry is overflow.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bucket upper bounds in microseconds (no overflow entry).
    pub fn bounds_us(&self) -> &[u64] {
        &self.inner.bounds_us
    }

    /// Approximate quantile (`0.0..=1.0`): the upper bound of the bucket
    /// containing the q-th observation (the last finite bound for
    /// overflow observations). Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in self.bucket_counts().iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = self
                    .inner
                    .bounds_us
                    .get(i)
                    .or_else(|| self.inner.bounds_us.last())
                    .copied()
                    .unwrap_or(0);
                return Duration::from_micros(bound);
            }
        }
        Duration::from_micros(*self.inner.bounds_us.last().unwrap_or(&0))
    }
}

/// A point-in-time reading of one registered metric.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric name (Prometheus conventions: `snake_case`, unit-suffixed).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label set (registry labels plus per-metric labels).
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: MetricValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram reading.
    Histogram {
        /// Bucket upper bounds (µs).
        bounds_us: Vec<u64>,
        /// Per-bucket counts (last = overflow).
        counts: Vec<u64>,
        /// Sum of observations.
        sum: Duration,
        /// Number of observations.
        count: u64,
    },
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct RegistryInner {
    labels: Vec<(String, String)>,
    entries: Mutex<Vec<Entry>>,
}

/// A named collection of instruments, scrape-able as Prometheus text or
/// a JSON snapshot. Cheap to clone (all clones share the instruments).
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("labels", &self.inner.labels)
            .field(
                "metrics",
                &self.inner.entries.lock().expect("poisoned").len(),
            )
            .finish()
    }
}

impl Registry {
    /// An unlabelled registry.
    pub fn new() -> Registry {
        Registry::with_labels(&[])
    }

    /// A registry whose every metric carries `labels` (e.g.
    /// `[("worker", "3")]` for one fleet worker's instruments).
    pub fn with_labels(labels: &[(&str, &str)]) -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                entries: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The registry-level label set.
    pub fn labels(&self) -> &[(String, String)] {
        &self.inner.labels
    }

    fn full_labels(&self, extra: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut l = self.inner.labels.clone();
        l.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        l
    }

    /// Registers (or returns the existing) counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_labeled(name, help, &[])
    }

    /// Registers (or returns the existing) counter with extra labels.
    pub fn counter_labeled(&self, name: &str, help: &str, extra: &[(&str, &str)]) -> Counter {
        let labels = self.full_labels(extra);
        let mut entries = self.inner.entries.lock().expect("poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            match &e.instrument {
                Instrument::Counter(c) => return c.clone(),
                _ => panic!("metric `{name}` already registered with another type"),
            }
        }
        let c = Counter::default();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument: Instrument::Counter(c.clone()),
        });
        c
    }

    /// Registers (or returns the existing) gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_labeled(name, help, &[])
    }

    /// Registers (or returns the existing) gauge with extra labels.
    pub fn gauge_labeled(&self, name: &str, help: &str, extra: &[(&str, &str)]) -> Gauge {
        let labels = self.full_labels(extra);
        let mut entries = self.inner.entries.lock().expect("poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            match &e.instrument {
                Instrument::Gauge(g) => return g.clone(),
                _ => panic!("metric `{name}` already registered with another type"),
            }
        }
        let g = Gauge::default();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument: Instrument::Gauge(g.clone()),
        });
        g
    }

    /// Registers (or returns the existing) histogram `name` with the
    /// given bucket upper bounds (µs).
    pub fn histogram(&self, name: &str, help: &str, bounds_us: &[u64]) -> Histogram {
        self.histogram_labeled(name, help, &[], bounds_us)
    }

    /// Registers (or returns the existing) histogram with extra labels.
    pub fn histogram_labeled(
        &self,
        name: &str,
        help: &str,
        extra: &[(&str, &str)],
        bounds_us: &[u64],
    ) -> Histogram {
        let labels = self.full_labels(extra);
        let mut entries = self.inner.entries.lock().expect("poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            match &e.instrument {
                Instrument::Histogram(h) => return h.clone(),
                _ => panic!("metric `{name}` already registered with another type"),
            }
        }
        let h = Histogram::new(bounds_us);
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument: Instrument::Histogram(h.clone()),
        });
        h
    }

    /// Point-in-time readings of every registered metric, in
    /// registration order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.inner.entries.lock().expect("poisoned");
        entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        bounds_us: h.bounds_us().to_vec(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                },
            })
            .collect()
    }

    /// Prometheus text exposition of every registered metric.
    pub fn prometheus_text(&self) -> String {
        snapshots_to_prometheus(&self.snapshot())
    }

    /// JSON snapshot (`{"metrics": [...]}`) of every registered metric.
    pub fn json_snapshot(&self) -> String {
        snapshots_to_json(&self.snapshot())
    }
}

fn label_str(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", quote_label(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// A quoted Prometheus label value. Escapes `"`, `\\` and newlines as the
/// exposition format requires, and other control characters the way the
/// JSON writer does.
fn quote_label(v: &str) -> String {
    let mut w = json::Writer::new();
    w.str(v);
    w.finish()
}

fn label_str_with(labels: &[(String, String)], extra_k: &str, extra_v: &str) -> String {
    let mut l = labels.to_vec();
    l.push((extra_k.to_string(), extra_v.to_string()));
    label_str(&l)
}

/// Renders metric snapshots (possibly from several registries) as one
/// Prometheus text exposition; `# HELP`/`# TYPE` headers are emitted
/// once per metric name.
pub fn snapshots_to_prometheus(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    // Group by name, preserving first-appearance order.
    let mut names: Vec<&str> = Vec::new();
    for s in snaps {
        if !names.contains(&s.name.as_str()) {
            names.push(&s.name);
        }
    }
    for name in names {
        for s in snaps.iter().filter(|s| s.name == name) {
            if !seen.contains(&name) {
                seen.push(name);
                let ty = match s.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram { .. } => "histogram",
                };
                out.push_str(&format!("# HELP {name} {}\n# TYPE {name} {ty}\n", s.help));
            }
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name}{} {v}\n", label_str(&s.labels)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name}{} {v}\n", label_str(&s.labels)));
                }
                MetricValue::Histogram {
                    bounds_us,
                    counts,
                    sum,
                    count,
                } => {
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cum += c;
                        let le = match bounds_us.get(i) {
                            Some(us) => (*us as f64 / 1e6).to_string(),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            label_str_with(&s.labels, "le", &le)
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        label_str(&s.labels),
                        sum.as_secs_f64()
                    ));
                    out.push_str(&format!("{name}_count{} {count}\n", label_str(&s.labels)));
                }
            }
        }
    }
    out
}

/// Renders metric snapshots as a JSON document.
pub fn snapshots_to_json(snaps: &[MetricSnapshot]) -> String {
    let mut w = json::Writer::new();
    w.obj().key("metrics").arr();
    for s in snaps {
        w.obj().key("name").str(&s.name).key("labels").obj();
        for (k, v) in &s.labels {
            w.key(k).str(v);
        }
        w.end_obj().key("type");
        match &s.value {
            MetricValue::Counter(v) => w.str("counter").key("value").int(*v),
            MetricValue::Gauge(v) => w.str("gauge").key("value").int(*v),
            MetricValue::Histogram {
                bounds_us,
                counts,
                sum,
                count,
            } => {
                w.str("histogram").key("count").int(*count);
                w.key("sum_s").num(sum.as_secs_f64()).key("buckets").arr();
                for (i, c) in counts.iter().enumerate() {
                    w.obj().key("le_s");
                    match bounds_us.get(i) {
                        Some(us) => w.num(*us as f64 / 1e6),
                        None => w.null(),
                    };
                    w.key("count").int(*c).end_obj();
                }
                w.end_arr()
            }
        };
        w.end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_count() {
        let r = Registry::new();
        let c = r.counter("reqs_total", "requests");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same instrument.
        assert_eq!(r.counter("reqs_total", "requests").get(), 5);

        let g = r.gauge("queue_depth", "queued");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.observe(Duration::from_micros(5)); // bucket 0 (<=10µs)
        h.observe(Duration::from_micros(10)); // bucket 0 (le is inclusive)
        h.observe(Duration::from_micros(50)); // bucket 1
        h.observe(Duration::from_micros(5000)); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 0, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), Duration::from_micros(5065));
        assert_eq!(h.quantile(0.5), Duration::from_micros(10));
        assert_eq!(h.quantile(0.75), Duration::from_micros(100));
        // Overflow quantile reports the last finite bound.
        assert_eq!(h.quantile(1.0), Duration::from_micros(1000));
    }

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::with_labels(&[("worker", "0")]);
        r.counter("reqs_total", "requests served").add(3);
        let h = r.histogram("svc_seconds", "service time", &[1000, 10000]);
        h.observe(Duration::from_micros(500));
        h.observe(Duration::from_micros(20000));
        let text = r.prometheus_text();
        assert!(text.contains("# HELP reqs_total requests served"), "{text}");
        assert!(text.contains("# TYPE reqs_total counter"), "{text}");
        assert!(text.contains("reqs_total{worker=\"0\"} 3"), "{text}");
        assert!(text.contains("# TYPE svc_seconds histogram"), "{text}");
        assert!(
            text.contains("svc_seconds_bucket{worker=\"0\",le=\"0.001\"} 1"),
            "{text}"
        );
        // Buckets are cumulative; +Inf equals _count.
        assert!(
            text.contains("svc_seconds_bucket{worker=\"0\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("svc_seconds_count{worker=\"0\"} 2"), "{text}");
    }

    #[test]
    fn json_snapshot_shape() {
        let r = Registry::new();
        r.gauge("version_skew", "distinct versions minus one")
            .set(2);
        let json = r.json_snapshot();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.contains("\"name\":\"version_skew\""), "{json}");
        assert!(json.contains("\"type\":\"gauge\",\"value\":2"), "{json}");
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("m", "h");
        r.gauge("m", "h");
    }
}
