//! The load generator: one thread that offers the workload's load to
//! whichever fleet is current, collects and checks every completion, and
//! cuts each phase's traffic into one-second windows.
//!
//! The main thread hands fleets over through a [`Slot`]. When the slot
//! changes, the generator sends new requests to the new fleet only and
//! keeps collecting from the old one until every request it admitted
//! there has completed; then it reports the old fleet [`Retired`], so the
//! main thread can shut it down.
//!
//! Rates, CPU per request and percentiles are computed per window and
//! reported as the median window, so a few milliseconds of host stall
//! move one window, not the run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flashed::{Edge, EdgeError, Rng, ServerShared};

use crate::fixture::{Fixture, STALL};
use crate::spans::{Span, Spans};
use crate::stats::{ns32, q_us};
use crate::{alloc, proc};

/// Length of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Which measurement a fleet's traffic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Serve = 0,
    Walk = 1,
}

/// A fleet under load, as the generator sees it.
pub struct Target {
    pub id: usize,
    pub phase: Phase,
    pub edge: Arc<Edge>,
    pub shared: ServerShared,
    /// The instant `shared`'s completion timestamps count from.
    origin: Instant,
}

impl Target {
    pub fn new(id: usize, phase: Phase, edge: Arc<Edge>, shared: ServerShared) -> Target {
        let origin = Instant::now() - shared.elapsed();
        Target {
            id,
            phase,
            edge,
            shared,
            origin,
        }
    }
}

/// The current target, swapped by the main thread.
#[derive(Default)]
pub struct Slot {
    current: Mutex<Option<Arc<Target>>>,
    generation: AtomicU64,
}

impl Slot {
    pub fn set(&self, t: Option<Arc<Target>>) {
        *self.current.lock().expect("slot lock poisoned") = t;
        self.generation.fetch_add(1, Ordering::SeqCst);
    }
}

/// A target's traffic has fully completed.
pub struct Retired {
    pub id: usize,
}

/// One window of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub secs: f64,
    pub completed: u64,
    /// Process CPU minus the generator thread's CPU, per completion, µs.
    pub cpu_us_per_req: f64,
    pub gen_cpu_share: f64,
    pub sojourn_p50_us: f64,
    pub sojourn_p99_us: f64,
    pub sojourn_mean_us: f64,
    pub wait_p50_us: f64,
    pub wait_p99_us: f64,
    pub service_p50_us: f64,
    pub service_p99_us: f64,
    pub late_p99_us: f64,
    pub submit_p50_ns: Option<f64>,
    /// Mean requests outstanding, as the generator saw them.
    pub outstanding: f64,
    /// Share of the host's CPU time the hypervisor took (steal).
    pub steal: f64,
}

impl Window {
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.secs
    }
}

/// The samples of the window being filled.
#[derive(Default)]
struct Acc {
    /// When the window opened, with process and generator CPU then.
    start: Option<(Instant, Duration, Duration)>,
    host: (u64, u64),
    completed: u64,
    sojourn: Vec<u32>,
    wait: Vec<u32>,
    service: Vec<u32>,
    late: Vec<u32>,
    submit: Vec<u32>,
    outstanding_area: f64,
}

/// What one phase's traffic did.
#[derive(Default)]
pub struct PhaseStats {
    pub windows: Vec<Window>,
    pub admitted: u64,
    pub shed: u64,
    pub completed: u64,
    /// Responses that were not the requested document, and requests
    /// that never completed.
    pub wrong: u64,
    acc: Acc,
}

/// Everything the generator hands back when it stops.
pub struct GenReport {
    pub phases: [PhaseStats; 2],
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

/// One target's bookkeeping while it has traffic in flight.
struct Book {
    t: Arc<Target>,
    admitted: u64,
    shed: u64,
    completed: u64,
    sent: Vec<u32>,
    got: Vec<u32>,
    retire_by: Option<Instant>,
}

impl Book {
    fn new(t: Arc<Target>, docs: usize) -> Book {
        Book {
            t,
            admitted: 0,
            shed: 0,
            completed: 0,
            sent: vec![0; docs],
            got: vec![0; docs],
            retire_by: None,
        }
    }

    fn outstanding(&self) -> u64 {
        (self.admitted + self.shed).saturating_sub(self.completed)
    }
}

/// Spans per sampled request: one in this many completions.
const SPAN_EVERY: u64 = 64;

struct Generator {
    fx: Arc<Fixture>,
    rate: f64,
    trace: bool,
    rng: Rng,
    phases: [PhaseStats; 2],
    errors: Vec<String>,
    spans: Spans,
}

/// Starts the generator thread. It runs until `stop` is set and every
/// target it was handed has retired.
pub fn spawn(
    fx: Arc<Fixture>,
    seed: u64,
    trace: bool,
    t0: Instant,
    slot: Arc<Slot>,
    stop: Arc<AtomicBool>,
    retired: Sender<Retired>,
) -> JoinHandle<GenReport> {
    std::thread::Builder::new()
        .name("perfbench-load".into())
        .spawn(move || {
            alloc::exempt_thread();
            let mut g = Generator {
                rate: fx.spec.rate,
                fx,
                trace,
                rng: Rng::seed_from_u64(seed ^ 0x10ad),
                phases: Default::default(),
                errors: Vec::new(),
                spans: Spans::new(t0, trace, 1 << 40),
            };
            g.run(&slot, &stop, &retired);
            GenReport {
                phases: g.phases,
                errors: g.errors,
                spans: g.spans.spans,
            }
        })
        .expect("spawn load generator")
}

impl Generator {
    fn run(&mut self, slot: &Slot, stop: &AtomicBool, retired: &Sender<Retired>) {
        let mut seen = u64::MAX;
        let mut cur: Option<Book> = None;
        let mut draining: Vec<Book> = Vec::new();
        let t0 = Instant::now();
        let mut due = Duration::ZERO;
        let mut last = Instant::now();
        loop {
            let generation = slot.generation.load(Ordering::SeqCst);
            if generation != seen {
                seen = generation;
                let next = slot.current.lock().expect("slot lock poisoned").clone();
                if let Some(mut old) = cur.take() {
                    old.retire_by = Some(Instant::now() + STALL);
                    draining.push(old);
                }
                if let Some(t) = next {
                    if self.phases[t.phase as usize].acc.start.is_none() {
                        self.open_window(t.phase);
                    }
                    cur = Some(Book::new(t, self.fx.paths.len()));
                    due = due.max(t0.elapsed());
                }
            }

            let now = Instant::now();
            if let Some(b) = &cur {
                let out = b.outstanding() + draining.iter().map(Book::outstanding).sum::<u64>();
                self.phases[b.t.phase as usize].acc.outstanding_area +=
                    out as f64 * (now - last).as_secs_f64();
            }
            last = now;

            if let Some(b) = &mut cur {
                self.collect(b);
                let phase = b.t.phase;
                let opened = self.phases[phase as usize].acc.start.map(|s| s.0);
                if opened.is_some_and(|o| now - o >= WINDOW) {
                    self.close_window(phase, false);
                    self.open_window(phase);
                }
            }
            let mut i = 0;
            while i < draining.len() {
                self.collect(&mut draining[i]);
                let b = &draining[i];
                let stalled = b.retire_by.is_some_and(|by| Instant::now() > by);
                if b.outstanding() == 0 || stalled {
                    let b = draining.swap_remove(i);
                    let phase = b.t.phase;
                    self.retire(b, stalled, retired);
                    if !cur.iter().chain(&draining).any(|b| b.t.phase == phase) {
                        self.close_window(phase, true);
                    }
                } else {
                    i += 1;
                }
            }
            if cur.is_none() && draining.is_empty() && stop.load(Ordering::SeqCst) {
                return;
            }

            let Some(b) = &mut cur else {
                std::thread::sleep(Duration::from_micros(100));
                continue;
            };
            let mut now = t0.elapsed();
            while due <= now {
                self.send(b, now - due);
                // Exponential gaps, -ln(1 - U) / rate, with U in [0, 1).
                let gap = -(1.0 - self.rng.gen_f64()).ln() / self.rate;
                due += Duration::from_secs_f64(gap);
                now = t0.elapsed();
            }
            // Sleep to the next arrival without spinning: a plain sleep
            // overshoots a little, and the lateness records it.
            std::thread::sleep(due.min(now + Duration::from_millis(1)) - now);
        }
    }

    /// Process CPU and this thread's CPU so far.
    fn cpu(&mut self) -> (Duration, Duration) {
        match (proc::process_cpu(), proc::thread_cpu()) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                self.errors.push(e);
                (Duration::ZERO, Duration::ZERO)
            }
        }
    }

    fn host(&mut self) -> (u64, u64) {
        proc::host_ticks().unwrap_or_else(|e| {
            self.errors.push(e);
            (0, 0)
        })
    }

    fn open_window(&mut self, phase: Phase) {
        let (p, t) = self.cpu();
        let host = self.host();
        let acc = &mut self.phases[phase as usize].acc;
        acc.start = Some((Instant::now(), p, t));
        acc.host = host;
    }

    /// Closes the phase's current window. A final window shorter than
    /// half a window is dropped unless it would be the phase's only one.
    fn close_window(&mut self, phase: Phase, last: bool) {
        let (proc_now, gen_now) = self.cpu();
        let (steal_now, all_now) = self.host();
        let ph = &mut self.phases[phase as usize];
        let mut acc = std::mem::take(&mut ph.acc);
        let Some((opened, proc0, gen0)) = acc.start else {
            return;
        };
        let secs = opened.elapsed().as_secs_f64();
        let short = last && secs < WINDOW.as_secs_f64() / 2.0 && !ph.windows.is_empty();
        if short || acc.completed == 0 {
            return;
        }
        let gen = gen_now.saturating_sub(gen0);
        let program = proc_now.saturating_sub(proc0).saturating_sub(gen);
        let n = acc.completed as f64;
        ph.windows.push(Window {
            secs,
            completed: acc.completed,
            cpu_us_per_req: program.as_secs_f64() * 1e6 / n,
            gen_cpu_share: gen.as_secs_f64() / secs,
            sojourn_p50_us: q_us(&mut acc.sojourn, 0.50).unwrap_or(0.0),
            sojourn_p99_us: q_us(&mut acc.sojourn, 0.99).unwrap_or(0.0),
            sojourn_mean_us: acc.sojourn.iter().map(|&s| f64::from(s)).sum::<f64>() / 1e3 / n,
            wait_p50_us: q_us(&mut acc.wait, 0.50).unwrap_or(0.0),
            wait_p99_us: q_us(&mut acc.wait, 0.99).unwrap_or(0.0),
            service_p50_us: q_us(&mut acc.service, 0.50).unwrap_or(0.0),
            service_p99_us: q_us(&mut acc.service, 0.99).unwrap_or(0.0),
            late_p99_us: q_us(&mut acc.late, 0.99).unwrap_or(0.0),
            submit_p50_ns: q_us(&mut acc.submit, 0.50).map(|us| us * 1e3),
            outstanding: acc.outstanding_area / secs,
            steal: steal_now.saturating_sub(acc.host.0) as f64
                / all_now.saturating_sub(acc.host.1).max(1) as f64,
        });
    }

    fn send(&mut self, b: &mut Book, late: Duration) {
        let i = self.fx.draw(&mut self.rng);
        let req = self.fx.requests[i].clone();
        let p = &mut self.phases[b.t.phase as usize];
        p.acc.late.push(ns32(late));
        let started = self.trace.then(Instant::now);
        let res = b.t.edge.submit(req);
        if let Some(s) = started {
            let d = s.elapsed();
            p.acc.submit.push(ns32(d));
            if (p.acc.submit.len() as u64).is_multiple_of(SPAN_EVERY) {
                let start = self.spans.ns(s);
                self.spans
                    .record("edge.submit", 0, start, start + d.as_nanos() as u64);
            }
        }
        match res {
            Ok(_) => {
                b.admitted += 1;
                b.sent[i] += 1;
                p.admitted += 1;
            }
            Err(EdgeError::Overloaded { .. } | EdgeError::Unavailable) => {
                b.shed += 1;
                p.shed += 1;
            }
        }
    }

    fn collect(&mut self, b: &mut Book) {
        let done = b.t.shared.take_completions();
        if done.is_empty() {
            return;
        }
        let p = &mut self.phases[b.t.phase as usize];
        for c in &done {
            b.completed += 1;
            if !c.pulled {
                // A synthesized 503: the shed was counted at submit.
                continue;
            }
            p.completed += 1;
            p.acc.completed += 1;
            let sojourn = c.queue_wait + c.service;
            p.acc.sojourn.push(ns32(sojourn));
            p.acc.wait.push(ns32(c.queue_wait));
            p.acc.service.push(ns32(c.service));
            match self.fx.served(&c.response) {
                Some(i) => b.got[i] += 1,
                None => {
                    p.wrong += 1;
                    if self.errors.len() < 8 {
                        self.errors.push(format!(
                            "fleet {}: unexpected response {:?}",
                            b.t.id,
                            c.response.get(..60).unwrap_or(&c.response)
                        ));
                    }
                }
            }
            if self.spans.on() && p.completed.is_multiple_of(SPAN_EVERY) {
                let end = self.spans.ns(b.t.origin + c.at);
                let start = end.saturating_sub(sojourn.as_nanos() as u64);
                let root = self.spans.record("request", 0, start, end);
                self.spans.sequence(
                    root,
                    start,
                    &[
                        ("edge.inbox_wait", c.queue_wait.as_nanos() as u64),
                        ("server.service", c.service.as_nanos() as u64),
                    ],
                );
            }
        }
    }

    /// Final accounting for a fleet whose traffic has ended: completions
    /// must equal admissions plus sheds, and every document must have
    /// been served exactly as often as it was requested.
    fn retire(&mut self, b: Book, stalled: bool, retired: &Sender<Retired>) {
        let p = &mut self.phases[b.t.phase as usize];
        let mut problems = Vec::new();
        if stalled {
            p.wrong += b.outstanding();
            problems.push(format!("{} requests never completed", b.outstanding()));
        }
        let expected = b.admitted + b.shed;
        if b.completed > expected {
            p.wrong += b.completed - expected;
            problems.push(format!(
                "{} completions for {expected} admissions + sheds",
                b.completed
            ));
        }
        let extra: u64 = b
            .sent
            .iter()
            .zip(&b.got)
            .map(|(&s, &g)| u64::from(g.saturating_sub(s)))
            .sum();
        if extra > 0 {
            p.wrong += extra;
            problems.push(format!("{extra} responses for the wrong document"));
        }
        for e in problems {
            self.errors.push(format!("fleet {}: {e}", b.t.id));
        }
        let _ = retired.send(Retired { id: b.t.id });
    }
}
