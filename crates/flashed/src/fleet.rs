//! A sharded FlashEd fleet with coordinated live updates.
//!
//! The paper updates one single-threaded server mid-traffic. This module
//! scales that experiment out: a [`Fleet`] runs N worker threads, each
//! owning its *own* [`vm::Process`] (guest state is thread-local; nothing
//! about the VM becomes concurrent), all pulling from one shared request
//! queue ([`ServerShared`]). A coordinator thread broadcasts a compiled
//! [`Patch`] to every worker through [`dsu_core::UpdaterRemote`] handles.
//! [`Fleet::rollout_plan`] drives one [`RolloutPlan`] across the fleet:
//!
//! * [`RolloutPlan::simultaneous`] — every worker pauses at its next
//!   update point, a barrier lines the whole fleet up, all workers apply
//!   at once, all resume. One fleet-wide service gap; no version skew.
//! * [`RolloutPlan::rolling`] — workers apply one at a time; while one
//!   pauses the rest keep serving, so the fleet never stops completing
//!   requests. Transient version skew; no fleet-wide gap.
//! * [`RolloutPlan::guarded`] — a canary worker updates first and a
//!   [`crate::guard::HealthGate`] judges every step (pause-SLO budget,
//!   error counters, completion liveness) before the patch advances; a
//!   breach holds the line or rolls every updated worker back, and the
//!   whole run leaves a [`crate::guard::RolloutReportCard`] behind.
//! * [`RolloutPlan::staged`] — cohorts of 1 worker, 25%, then 100%,
//!   gated like a guarded plan.
//!
//! Workers run their updaters non-strict: a worker whose apply is rejected
//! keeps serving its old version and the failure lands in the rollout's
//! [`FleetUpdateReport`] — the rest of the fleet still rolls forward.
//! Deliberate misbehaviour for hardening tests is threaded in per worker
//! through [`WorkerOverride::fault`] (see [`crate::fault::FaultPlan`]).
//!
//! Nothing here polls. An idle worker blocks on its [`Wake`], which its
//! inbox (or the shared ingress queue), its read helpers, its patch
//! queue, fault injection and shutdown all notify. The coordinator waits
//! on a worker's outcome wake (reports, failures, pauses) or on the
//! completion wake, up to the rollout deadline. The supervisor blocks
//! until a worker thread signals its own exit — from a drop guard, so a
//! panic signals too — and then joins it.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dsu_core::{FleetUpdateReport, Patch, UpdaterRemote, Wake};
use dsu_obs::trace::{Span, SpanKind};
use dsu_obs::{Journal, Tracer};
use vm::LinkMode;

use crate::edge::{AcceptorHandle, Edge, EdgeConfig};
use crate::fault::{crash_if_armed, CrashPoint, FaultPlan, InjectedCrash};
use crate::fs::SimFs;
use crate::rollout::{Orchestrator, OrchestratorReport, RolloutPlan};
use crate::server::{Completion, ServeMode, Server, ServerConfig, ServerShared};
use crate::telemetry::FleetTelemetry;

/// Per-worker deviations from the fleet-wide configuration — a fleet
/// whose workers sit on heterogeneous "hardware" (different device
/// latencies, cache sizes, concurrency windows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOverride {
    /// Per-read device latency for this worker's filesystem copy.
    pub read_latency: Option<Duration>,
    /// Buffer-cache capacity (event-loop mode only).
    pub cache_entries: Option<usize>,
    /// In-flight request window (event-loop mode only).
    pub max_in_flight: Option<usize>,
    /// Injected misbehaviour for hardening tests: pause/gate delays take
    /// effect at this worker's update pauses, read errors at its boot.
    pub fault: FaultPlan,
}

/// Fleet configuration: size, link mode, serve mode, telemetry, and
/// optional per-worker overrides. Built fluently:
///
/// ```
/// use flashed::{EventLoopConfig, FleetConfig, ServeMode};
/// let cfg = FleetConfig::new(4)
///     .serve_mode(ServeMode::EventLoop(EventLoopConfig::default()))
///     .with_telemetry();
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Link mode every worker boots in.
    pub link_mode: LinkMode,
    /// Serve mode every worker runs (see [`WorkerOverride`] for per-worker
    /// event-loop tuning).
    pub serve_mode: ServeMode,
    /// Whether to build a [`FleetTelemetry`] (journal + registries).
    pub telemetry: bool,
    /// Whether to build a fleet-shared span [`dsu_obs::Tracer`] (implies
    /// `telemetry`): request, update and rollout spans land in one
    /// collector, ready for latency attribution.
    pub tracing: bool,
    /// Whether each worker arms its VM's hot-path profiler at boot and
    /// publishes the collapsed-stack profile at shutdown.
    pub vm_profile: bool,
    /// Per-worker overrides, indexed by worker id; missing entries mean
    /// "no override".
    pub overrides: Vec<WorkerOverride>,
    /// How long rollouts (and [`Fleet::drain`]) wait for a worker before
    /// giving up. Hardening tests shrink this so an injected gate stall
    /// surfaces in milliseconds instead of [`ROLLOUT_DEADLINE`].
    pub rollout_deadline: Duration,
    /// Journal the workers' lifecycle events land in. `None` builds a
    /// fresh in-memory one; an [`Orchestrator`] hands every shard fleet
    /// one shared (possibly write-ahead-backed) journal so the whole
    /// staged rollout is one recoverable stream. Implies `telemetry`.
    pub journal: Option<Journal>,
    /// First worker id used for journal tags and metric labels. Shard
    /// fleets under one orchestrator get disjoint ranges so worker ids
    /// stay globally unambiguous in the shared journal.
    pub worker_base: usize,
    /// Fronts the fleet with a routed [`Edge`]: per-worker bounded
    /// inboxes fed by an acceptor thread, instead of every worker
    /// contending on the shared ingress queue. `None` keeps the legacy
    /// shared-queue pull path.
    pub edge: Option<EdgeConfig>,
    /// Runs a [`Supervisor`] thread over the fleet: dead workers are
    /// detected, failed over at the edge, and rebooted from their
    /// persisted snapshot rings (see [`FleetConfig::supervised`]).
    /// `None` (the default) keeps the pre-supervision behaviour — a dead
    /// worker stays dead until shutdown reports it.
    pub supervision: Option<SupervisorConfig>,
}

impl FleetConfig {
    /// A `workers`-strong updateable, blocking, untelemetered fleet.
    pub fn new(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            link_mode: LinkMode::Updateable,
            serve_mode: ServeMode::Blocking,
            telemetry: false,
            tracing: false,
            vm_profile: false,
            overrides: Vec::new(),
            rollout_deadline: ROLLOUT_DEADLINE,
            journal: None,
            worker_base: 0,
            edge: None,
            supervision: None,
        }
    }

    /// Supervises the fleet with default knobs: dead workers are failed
    /// over at the edge and rebooted from their persisted snapshot rings,
    /// with exponential backoff and a bounded restart budget.
    pub fn supervised(self) -> FleetConfig {
        self.with_supervision(SupervisorConfig::default())
    }

    /// Supervises the fleet with explicit knobs.
    pub fn with_supervision(mut self, cfg: SupervisorConfig) -> FleetConfig {
        self.supervision = Some(cfg);
        self
    }

    /// Fronts the fleet with a routed edge (see [`EdgeConfig`]): workers
    /// pull from per-worker bounded inboxes, an acceptor routes the
    /// shared ingress queue, and overflow sheds with a typed error.
    pub fn with_edge(mut self, edge: EdgeConfig) -> FleetConfig {
        self.edge = Some(edge);
        self
    }

    /// Routes lifecycle events into a caller-supplied `journal` (shared
    /// across fleets, possibly write-ahead-backed) instead of a fresh
    /// in-memory one. Implies [`FleetConfig::with_telemetry`].
    pub fn with_journal(mut self, journal: Journal) -> FleetConfig {
        self.telemetry = true;
        self.journal = Some(journal);
        self
    }

    /// Offsets this fleet's worker ids (journal tags, metric labels) by
    /// `base`, so shard fleets in one orchestrator keep globally unique
    /// worker ids.
    pub fn worker_base(mut self, base: usize) -> FleetConfig {
        self.worker_base = base;
        self
    }

    /// Sets the rollout/drain deadline.
    pub fn rollout_deadline(mut self, deadline: Duration) -> FleetConfig {
        self.rollout_deadline = deadline;
        self
    }

    /// Sets the link mode.
    pub fn link_mode(mut self, mode: LinkMode) -> FleetConfig {
        self.link_mode = mode;
        self
    }

    /// Sets the serve mode.
    pub fn serve_mode(mut self, mode: ServeMode) -> FleetConfig {
        self.serve_mode = mode;
        self
    }

    /// Enables fleet telemetry.
    pub fn with_telemetry(mut self) -> FleetConfig {
        self.telemetry = true;
        self
    }

    /// Enables causal tracing (and, with it, telemetry): every worker's
    /// server emits request spans, every updater emits update/phase
    /// spans, and rollouts stamp a fleet-wide root span — all into one
    /// shared [`dsu_obs::Tracer`].
    pub fn with_tracing(mut self) -> FleetConfig {
        self.telemetry = true;
        self.tracing = true;
        self
    }

    /// Arms each worker's VM hot-path profiler at boot; the collapsed
    /// profile is published into the worker's telemetry at shutdown.
    pub fn with_vm_profile(mut self) -> FleetConfig {
        self.vm_profile = true;
        self
    }

    /// Overrides worker `worker`'s configuration.
    pub fn override_worker(mut self, worker: usize, ov: WorkerOverride) -> FleetConfig {
        if self.overrides.len() <= worker {
            self.overrides.resize(worker + 1, WorkerOverride::default());
        }
        self.overrides[worker] = ov;
        self
    }

    fn override_for(&self, worker: usize) -> WorkerOverride {
        self.overrides.get(worker).copied().unwrap_or_default()
    }
}

/// What went wrong inside one worker.
#[derive(Debug)]
pub enum WorkerFailure {
    /// The worker thread could not be spawned.
    Spawn(String),
    /// The worker's server failed to boot (compile/link).
    Boot(String),
    /// The worker thread died before reporting its boot outcome.
    BootChannel,
    /// The guest trapped (or a strict-mode update failed) while serving.
    Guest(String),
    /// The worker thread panicked.
    Panic,
    /// The worker thread was killed by injected crash fault at the given
    /// point (see [`crate::fault::FaultPlan::crash_at`]) — told apart
    /// from an accidental [`WorkerFailure::Panic`] by the typed panic
    /// payload.
    Crashed(CrashPoint),
    /// The supervisor exhausted its restart budget for this worker and
    /// degraded the fleet instead of restart-looping; the worker stays
    /// down and the edge routes around it.
    GaveUp {
        /// Restarts attempted before giving up.
        restarts: u64,
    },
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFailure::Spawn(e) => write!(f, "thread spawn failed: {e}"),
            WorkerFailure::Boot(e) => write!(f, "failed to boot: {e}"),
            WorkerFailure::BootChannel => write!(f, "died during boot"),
            WorkerFailure::Guest(e) => write!(f, "{e}"),
            WorkerFailure::Panic => write!(f, "panicked"),
            WorkerFailure::Crashed(point) => write!(f, "crashed ({point})"),
            WorkerFailure::GaveUp { restarts } => {
                write!(f, "supervisor gave up after {restarts} restarts")
            }
        }
    }
}

/// Fleet operation failures, carrying the worker they originate from
/// (where one does) and the underlying cause.
#[derive(Debug)]
pub enum FleetError {
    /// A worker failed — at boot, while serving, or at shutdown.
    Worker {
        /// The failing worker's index.
        worker: usize,
        /// What happened to it.
        cause: WorkerFailure,
    },
    /// [`Fleet::drain`] timed out with requests still outstanding. Now
    /// that queues are sharded, the stall is attributed per queue: the
    /// shared ingress count plus each worker inbox's depth, so a single
    /// wedged worker is identifiable from the error alone.
    QueueStall {
        /// Requests still in the shared ingress queue at the deadline.
        ingress: usize,
        /// Requests still queued in each worker's edge inbox, in worker
        /// order. Empty for a shared-queue fleet (no per-worker queues).
        per_worker: Vec<usize>,
        /// Completions observed at the deadline.
        completed: usize,
        /// Completions the caller expected.
        expected: usize,
    },
    /// A rollout gave up waiting for a worker to reach an update boundary.
    RolloutStalled {
        /// The worker that never resolved its patch.
        worker: usize,
    },
    /// The awaited worker died and its supervisor rebooted it mid-wait:
    /// the patch that was in flight was withdrawn (`Aborted`) and the
    /// worker now runs a fresh incarnation at its pre-crash version. The
    /// rollout driver catches this and re-drives the cohort patch on the
    /// new incarnation.
    WorkerRestarted {
        /// The restarted worker's index.
        worker: usize,
    },
    /// The awaited worker is down for good: it died and either no
    /// supervisor is running or the supervisor exhausted its restart
    /// budget. The rollout treats this like a stall (breach or partial
    /// rollout) while the rest of the fleet keeps serving.
    WorkerDown {
        /// The dead worker's index.
        worker: usize,
    },
    /// A rolling rollout stalled mid-fleet: some workers already serve the
    /// new version, the rest never will (the stalled worker's pending
    /// patch was withdrawn) — the fleet is left version-skewed and the
    /// caller must decide whether to retry forward or roll the updated
    /// workers back.
    PartialRollout {
        /// Workers now serving the new version.
        updated: Vec<usize>,
        /// Workers still on the old version (stalled or never reached).
        remaining: Vec<usize>,
    },
    /// A staged rollout pushed the cross-fleet version skew (distinct
    /// live versions minus one) past the orchestrator's configured bound.
    SkewExceeded {
        /// The skew observed at the violation.
        observed: usize,
        /// The configured bound.
        bound: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Worker { worker, cause } => write!(f, "worker {worker}: {cause}"),
            FleetError::QueueStall {
                ingress,
                per_worker,
                completed,
                expected,
            } => {
                write!(f, "fleet did not drain: {ingress} ingress")?;
                if !per_worker.is_empty() {
                    write!(f, " + {per_worker:?} per-worker queued")?;
                }
                write!(f, ", {completed}/{expected} completed")
            }
            FleetError::RolloutStalled { worker } => {
                write!(f, "worker {worker} did not reach an update boundary")
            }
            FleetError::WorkerRestarted { worker } => {
                write!(
                    f,
                    "worker {worker} was restarted by its supervisor mid-wait"
                )
            }
            FleetError::WorkerDown { worker } => {
                write!(f, "worker {worker} is down and will not be restarted")
            }
            FleetError::PartialRollout { updated, remaining } => write!(
                f,
                "rolling rollout stalled mid-fleet: {updated:?} updated, {remaining:?} remaining"
            ),
            FleetError::SkewExceeded { observed, bound } => {
                write!(
                    f,
                    "version skew {observed} exceeded the configured bound {bound}"
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// How long a rollout waits for a worker to apply before giving up.
const ROLLOUT_DEADLINE: Duration = Duration::from_secs(30);

/// Supervision knobs: how patiently (and how often) a dead worker is
/// rebooted before the fleet degrades. Death itself is noticed at once:
/// every worker thread signals its exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Backoff before the first restart of a worker; doubles on each
    /// consecutive restart of the same worker.
    pub backoff_base: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub backoff_cap: Duration,
    /// Restarts per worker before the supervisor gives up on it. The
    /// fleet then degrades gracefully: the worker stays down, the edge
    /// keeps routing around it, and shutdown reports
    /// [`WorkerFailure::GaveUp`].
    pub max_restarts: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            max_restarts: 3,
        }
    }
}

/// One supervised restart, timed phase by phase: how long death went
/// unnoticed plus reaping/failover (`detect`), booting the fresh server
/// (`reboot`), and replaying the persisted chain + installing the saved
/// snapshot ring (`replay`). `total` is detection → serving again.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// The restarted worker.
    pub worker: usize,
    /// What killed the previous incarnation.
    pub failure: String,
    /// Death noticed → old thread reaped, edge failed over, pending
    /// patches withdrawn.
    pub detect: Duration,
    /// Backoff + spawn + server boot (compile/link), excluding replay.
    pub reboot: Duration,
    /// Replaying the persisted patch chain and installing the saved
    /// snapshot ring.
    pub replay: Duration,
    /// The version the replay brought the fresh incarnation back to.
    pub replayed_to: String,
    /// Requests drained from the dead worker's inbox at failover and
    /// pushed back through the router (zero without an edge).
    pub rerouted: usize,
    /// Death noticed → rejoined and serving.
    pub total: Duration,
}

/// What a worker thread hands back at boot: the updater remote plus the
/// live handles a supervisor needs to observe and fault the running
/// worker from outside.
#[derive(Clone)]
struct WorkerLinks {
    remote: UpdaterRemote,
    /// The server's live fault-plan cell — crash points and pause delays
    /// can be armed mid-run.
    fault: Arc<Mutex<FaultPlan>>,
    /// Bumped by the worker every loop iteration; feeds the liveness
    /// gauge and survives restarts (the same cell is re-armed into each
    /// incarnation).
    heartbeat: Arc<AtomicU64>,
    /// The worker's persisted crash-durable state (replay chain +
    /// snapshot ring + pending ops), refreshed at the end of every pause.
    state: Arc<Mutex<Option<String>>>,
    /// How long this incarnation spent replaying persisted state at boot
    /// (zero for a first boot).
    replayed: Duration,
    /// The version the replay reached (the boot version for a first
    /// boot).
    replayed_to: String,
}

/// What a worker thread reports over its boot channel once serving.
struct BootInfo {
    remote: UpdaterRemote,
    /// The wake the worker blocks on while idle.
    wake: Arc<Wake>,
    fault: Arc<Mutex<FaultPlan>>,
    /// Time spent replaying persisted state (zero for a first boot).
    replayed: Duration,
    /// The version the replay reached (the boot version otherwise).
    replayed_to: String,
}

/// Tells one worker incarnation to stop: explicitly at shutdown, or when
/// its seat is dropped (a replaced incarnation, a fleet dropped without
/// [`Fleet::shutdown`]).
struct StopSignal {
    flag: Arc<AtomicBool>,
    /// The worker's wake, notified so an idle worker sees the flag.
    wake: Arc<Wake>,
}

impl StopSignal {
    fn raise(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.wake.notify();
    }
}

impl Drop for StopSignal {
    fn drop(&mut self) {
        self.raise();
    }
}

/// Dropped as a worker thread's last act — on return and during a panic
/// unwind alike: marks the incarnation exited and wakes the supervisor.
struct ExitSignal {
    exited: Arc<AtomicBool>,
    exits: Arc<Wake>,
}

impl Drop for ExitSignal {
    fn drop(&mut self) {
        self.exited.store(true, Ordering::SeqCst);
        self.exits.notify();
    }
}

/// One incarnation of a worker: stop signal, live links, and the thread
/// to reap. Swapped wholesale by the supervisor on restart.
struct Seat {
    stop: StopSignal,
    /// Set by the thread's [`ExitSignal`] once it has exited.
    exited: Arc<AtomicBool>,
    links: WorkerLinks,
    /// `None` after the supervisor reaped a dead incarnation (and before
    /// a successful respawn).
    join: Option<JoinHandle<Result<i64, String>>>,
}

pub(crate) struct Worker {
    pub(crate) id: usize,
    /// The current incarnation, swapped by the supervisor on restart.
    seat: Mutex<Seat>,
    /// Bumped on every successful respawn; rollout waits watch it to
    /// tell "restarted, re-drive the patch" apart from "stalled".
    epoch: AtomicU64,
    /// Whether the current incarnation is believed alive.
    up: AtomicBool,
    /// Set when the supervisor exhausted its restart budget.
    failed: AtomicBool,
    /// Successful supervised restarts of this worker.
    restarts: AtomicU64,
}

impl Worker {
    /// The current incarnation's updater remote. Cloned out (not
    /// borrowed) because the supervisor may swap the seat mid-use; an
    /// old clone stays safe — its Arcs just belong to a dead updater.
    pub(crate) fn remote(&self) -> UpdaterRemote {
        self.seat.lock().expect("poisoned").links.remote.clone()
    }

    /// Restart epoch: bumped once per successful supervised respawn.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether the current incarnation is believed alive.
    pub(crate) fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Whether the supervisor has given up on this worker.
    pub(crate) fn has_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Arms `plan` on the current incarnation and wakes it, so an idle
    /// worker passes its crash seams at once.
    fn inject_fault(&self, plan: FaultPlan) {
        let seat = self.seat.lock().expect("poisoned");
        *seat.links.fault.lock().expect("poisoned") = plan;
        seat.stop.wake.notify();
    }
}

/// Everything needed to (re)spawn any worker — the fleet's boot-time
/// configuration flattened per worker, kept alive for the supervisor.
struct RespawnSpec {
    mode: LinkMode,
    serve_modes: Vec<ServeMode>,
    src: String,
    version: String,
    /// Per-worker filesystem handles, one forked fault domain each —
    /// retained so read failures can be flipped on a live worker.
    fs: Vec<SimFs>,
    vm_profile: bool,
    shared: ServerShared,
    telemetry: Option<Arc<FleetTelemetry>>,
    edge: Option<Arc<Edge>>,
    /// Notified by every worker thread as it exits: the supervisor
    /// blocks on it.
    exits: Arc<Wake>,
}

/// The supervisor-shared heart of a [`Fleet`]: the worker table plus the
/// respawn spec and the restart log.
struct FleetState {
    workers: Vec<Worker>,
    spec: RespawnSpec,
    restart_log: Mutex<Vec<RestartReport>>,
}

/// The supervisor thread: stopped (and joined) before workers at
/// shutdown so a restart never races the teardown.
struct SupervisorHandle {
    stop: Arc<AtomicBool>,
    /// The wake the supervisor blocks on; stop notifies it.
    exits: Arc<Wake>,
    join: JoinHandle<()>,
}

impl SupervisorHandle {
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.exits.notify();
        let _ = self.join.join();
    }
}

/// Maps a joined worker thread's outcome to a typed failure; a clean
/// exit reports `None`.
fn classify_join(res: std::thread::Result<Result<i64, String>>) -> Option<WorkerFailure> {
    match res {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(WorkerFailure::Guest(e)),
        Err(payload) => Some(match payload.downcast_ref::<InjectedCrash>() {
            Some(c) => WorkerFailure::Crashed(c.0),
            None => WorkerFailure::Panic,
        }),
    }
}

/// An open fleet-wide rollout trace: the `(trace, root span)` ids every
/// worker's update spans parent under, plus when coordination began.
pub(crate) struct RolloutTrace {
    trace: u64,
    span: u64,
    began: Instant,
}

/// A running fleet of FlashEd workers over one shared request queue.
pub struct Fleet {
    shared: ServerShared,
    /// Worker table + respawn spec + restart log, shared with the
    /// supervisor thread.
    state: Arc<FleetState>,
    /// The version every worker booted on (the skew baseline).
    boot_version: String,
    telemetry: Option<Arc<FleetTelemetry>>,
    /// The routed front door, when configured (see [`FleetConfig::with_edge`]).
    edge: Option<Arc<Edge>>,
    /// The acceptor thread routing ingress into the edge; stopped at
    /// shutdown.
    acceptor: Option<AcceptorHandle>,
    /// The supervisor thread, when configured (see
    /// [`FleetConfig::supervised`]); stopped before workers at shutdown.
    supervisor: Option<SupervisorHandle>,
    /// How long rollouts and drains wait for a worker (see
    /// [`FleetConfig::rollout_deadline`]).
    rollout_deadline: Duration,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.state.workers.len())
            .field("shared", &self.shared)
            .finish()
    }
}

impl Fleet {
    /// Boots a fleet from a [`FleetConfig`]: `cfg.workers` workers, each
    /// compiling `src` inside its own thread (guest processes are
    /// thread-local by construction) and serving in the configured serve
    /// mode (blocking or AMPED event loop), with telemetry and per-worker
    /// overrides for device latency, cache size and concurrency window.
    ///
    /// # Errors
    ///
    /// Returns the first worker's boot error; already-started workers are
    /// shut down.
    pub fn start_cfg(
        cfg: &FleetConfig,
        src: &str,
        version: &str,
        fs: &SimFs,
    ) -> Result<Fleet, FleetError> {
        let n = cfg.workers;
        assert!(n > 0, "a fleet needs at least one worker");
        let telemetry = cfg.telemetry.then(|| {
            let journal = cfg.journal.clone().unwrap_or_default();
            let tracer = cfg.tracing.then(Tracer::new);
            Arc::new(FleetTelemetry::shared(n, cfg.worker_base, journal, tracer))
        });
        let shared = ServerShared::new();
        let edge = cfg
            .edge
            .as_ref()
            .map(|ec| Arc::new(Edge::new(n, ec, shared.clone(), telemetry.clone())));
        // Flatten the per-worker configuration into the respawn spec: the
        // supervisor reboots workers from exactly what they booted with
        // (minus the one-shot crash faults, disarmed on respawn).
        let mut serve_modes = Vec::with_capacity(n);
        let mut worker_fs = Vec::with_capacity(n);
        for id in 0..n {
            let ov = cfg.override_for(id);
            // Each worker gets its own fault domain over the shared
            // content: read failures are per worker, flippable live.
            let mut wfs = fs.fork_faults();
            if let Some(latency) = ov.read_latency {
                wfs.set_read_latency(latency);
            }
            if ov.fault.read_errors {
                wfs.set_read_failures(true);
            }
            worker_fs.push(wfs);
            serve_modes.push(match cfg.serve_mode {
                ServeMode::Blocking => ServeMode::Blocking,
                ServeMode::EventLoop(mut ec) => {
                    if let Some(c) = ov.cache_entries {
                        ec.cache_entries = c;
                    }
                    if let Some(m) = ov.max_in_flight {
                        ec.max_in_flight = m;
                    }
                    ServeMode::EventLoop(ec)
                }
            });
        }
        let spec = RespawnSpec {
            mode: cfg.link_mode,
            serve_modes,
            src: src.to_string(),
            version: version.to_string(),
            fs: worker_fs,
            vm_profile: cfg.vm_profile,
            shared: shared.clone(),
            telemetry: telemetry.clone(),
            edge: edge.clone(),
            exits: Arc::new(Wake::new()),
        };
        let mut workers = Vec::with_capacity(n);
        let mut boot_err = None;
        for id in 0..n {
            let ov = cfg.override_for(id);
            let heartbeat = Arc::new(AtomicU64::new(0));
            let state_slot = Arc::new(Mutex::new(None));
            match spawn_worker(&spec, id, ov.fault, None, heartbeat, state_slot) {
                Ok(seat) => workers.push(Worker {
                    id,
                    seat: Mutex::new(seat),
                    epoch: AtomicU64::new(0),
                    up: AtomicBool::new(true),
                    failed: AtomicBool::new(false),
                    restarts: AtomicU64::new(0),
                }),
                Err(cause) => {
                    boot_err = Some(FleetError::Worker { worker: id, cause });
                    break;
                }
            }
        }
        if let Some(e) = boot_err {
            for w in workers {
                let seat = w.seat.into_inner().expect("poisoned");
                seat.stop.raise();
                if let Some(join) = seat.join {
                    let _ = join.join();
                }
            }
            return Err(e);
        }
        if let Some(t) = &telemetry {
            t.set_live_versions(&vec![version.to_string(); n]);
        }
        let acceptor = edge.as_ref().map(Edge::start_acceptor);
        let state = Arc::new(FleetState {
            workers,
            spec,
            restart_log: Mutex::new(Vec::new()),
        });
        let supervisor = cfg
            .supervision
            .map(|sc| start_supervisor(Arc::clone(&state), sc));
        Ok(Fleet {
            shared,
            state,
            boot_version: version.to_string(),
            telemetry,
            edge,
            acceptor,
            supervisor,
            rollout_deadline: cfg.rollout_deadline,
        })
    }

    /// The routed front door, when this fleet was booted with
    /// [`FleetConfig::with_edge`]. Load generators submit through it
    /// directly (bypassing the acceptor) to stamp admission instants at
    /// the source.
    pub fn edge(&self) -> Option<&Arc<Edge>> {
        self.edge.as_ref()
    }

    /// The fleet's telemetry (journal, registries, skew gauge), when
    /// booted with [`FleetConfig::with_telemetry`].
    pub fn telemetry(&self) -> Option<&FleetTelemetry> {
        self.telemetry.as_deref()
    }

    /// The workers, in id order (for the rollout orchestrator).
    pub(crate) fn workers(&self) -> &[Worker] {
        &self.state.workers
    }

    /// The rollout/drain deadline this fleet was configured with.
    pub(crate) fn deadline(&self) -> Duration {
        self.rollout_deadline
    }

    /// The version worker `w` is currently serving: its last successful
    /// update's target version, or the boot version.
    pub(crate) fn worker_version(&self, w: &Worker) -> String {
        w.remote()
            .reports()
            .last()
            .map(|r| r.to_version.clone())
            .unwrap_or_else(|| self.boot_version.clone())
    }

    /// The version each worker currently serves, in worker order.
    pub fn live_versions(&self) -> Vec<String> {
        self.state
            .workers
            .iter()
            .map(|w| self.worker_version(w))
            .collect()
    }

    /// Recomputes the version-skew gauge from the workers' current
    /// versions (no-op without telemetry).
    pub(crate) fn refresh_skew(&self) {
        if let Some(t) = &self.telemetry {
            t.set_live_versions(&self.live_versions());
        }
    }

    /// Fleet size.
    pub fn worker_count(&self) -> usize {
        self.state.workers.len()
    }

    /// Control handle for one worker — canary a patch on a single worker,
    /// or inspect its apply history, without a fleet-wide rollout.
    ///
    /// The handle belongs to the worker's *current incarnation*: after a
    /// supervised restart an old handle keeps working but addresses the
    /// dead updater; re-fetch after [`Fleet::worker_epoch`] changes.
    pub fn remote(&self, worker: usize) -> UpdaterRemote {
        self.state.workers[worker].remote()
    }

    /// Arms a fault plan on a *live* worker: crash points and pause
    /// delays take effect at the worker's next pass through the matching
    /// seam, no reboot needed.
    pub fn inject_worker_fault(&self, worker: usize, plan: FaultPlan) {
        self.state.workers[worker].inject_fault(plan);
    }

    /// Starts (or stops) failing every device read on a *live* worker —
    /// the flag is shared with the worker's filesystem handle, so the
    /// flip is visible on its very next read.
    pub fn set_worker_read_failures(&self, worker: usize, fail: bool) {
        self.state.spec.fs[worker].set_read_failures(fail);
    }

    /// Every supervised restart so far, in completion order.
    pub fn restart_reports(&self) -> Vec<RestartReport> {
        self.state.restart_log.lock().expect("poisoned").clone()
    }

    /// Whether `worker`'s current incarnation is believed alive.
    pub fn worker_up(&self, worker: usize) -> bool {
        self.state.workers[worker].is_up()
    }

    /// `worker`'s restart epoch: 0 for the boot incarnation, bumped once
    /// per successful supervised restart.
    pub fn worker_epoch(&self, worker: usize) -> u64 {
        self.state.workers[worker].epoch()
    }

    /// `worker`'s liveness heartbeat: bumped by the worker every serve
    /// loop iteration (an idle worker blocks, so it only moves on
    /// events), preserved across supervised restarts.
    pub fn worker_heartbeat(&self, worker: usize) -> u64 {
        let seat = self.state.workers[worker].seat.lock().expect("poisoned");
        seat.links.heartbeat.load(Ordering::Relaxed)
    }

    /// The shared queue/completion state (clone to feed or observe the
    /// fleet from other threads).
    pub fn shared(&self) -> ServerShared {
        self.shared.clone()
    }

    /// Enqueues client requests onto the shared queue.
    pub fn push_requests<I>(&self, requests: I)
    where
        I: IntoIterator<Item = String>,
    {
        self.shared.push_requests(requests);
    }

    /// Completed responses so far, fleet-wide, in completion order.
    pub fn completions(&self) -> Vec<Completion> {
        self.shared.completions()
    }

    /// Blocks until the shared queue is empty and every pulled request has
    /// completed (`expected` = completions expected so far). Waits on the
    /// completion wake: every response and every emptied ingress queue
    /// re-checks.
    ///
    /// # Errors
    ///
    /// Errors if the fleet does not drain within the deadline.
    pub fn drain(&self, expected: usize) -> Result<(), FleetError> {
        let deadline = Instant::now() + self.rollout_deadline;
        let drained = self.shared.progress_wake().wait_for(Some(deadline), || {
            self.shared.queue_len() == 0
                && self.edge.as_ref().map_or(0, |e| e.queued()) == 0
                && self.shared.completions_len() >= expected
        });
        if drained {
            return Ok(());
        }
        Err(FleetError::QueueStall {
            ingress: self.shared.queue_len(),
            per_worker: self.edge.as_ref().map_or_else(Vec::new, |e| e.depths()),
            completed: self.shared.completions_len(),
            expected,
        })
    }

    /// Rolls `patch` out to every worker through `plan`, blocking until
    /// each worker has either applied it or had it rejected — a one-shard
    /// [`Orchestrator`] run with no skew bound. Serving continues
    /// throughout (under [`RolloutPlan::rolling`], completions never stop
    /// fleet-wide; under [`RolloutPlan::simultaneous`], the whole fleet
    /// pauses once, together). The report carries the
    /// [`FleetUpdateReport`] and the run's report card.
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::rollout`]: an ungated rollout errors if a worker
    /// fails to reach an update boundary within the rollout deadline (e.g.
    /// its thread died), and one that stalls after at least one worker
    /// updated returns [`FleetError::PartialRollout`] (the stalled
    /// worker's pending patch is withdrawn first, so it cannot land
    /// later). Gated forward stalls are health breaches, not errors.
    pub fn rollout_plan(
        &self,
        patch: &Patch,
        plan: &RolloutPlan,
    ) -> Result<OrchestratorReport, FleetError> {
        Orchestrator::new(std::slice::from_ref(self)).rollout(patch, plan)
    }

    /// Opens a rollout trace: allocates `(trace, root span)` ids on the
    /// fleet tracer and propagates them to every worker, so the update
    /// spans each worker records during this rollout parent under one
    /// fleet-wide root. Returns `None` when tracing is off.
    pub(crate) fn begin_rollout_trace(&self) -> Option<RolloutTrace> {
        let tracer = self.telemetry.as_deref()?.tracer()?;
        let trace = tracer.next_trace_id();
        let span = tracer.next_span_id();
        for w in &self.state.workers {
            w.remote().set_span_parent(trace, span);
        }
        Some(RolloutTrace {
            trace,
            span,
            began: Instant::now(),
        })
    }

    /// Closes a rollout trace: records the root `Rollout` span (covering
    /// the whole coordination window, so every worker's update spans nest
    /// inside it) and clears the propagated context — later direct
    /// updates must not parent under a span that has ended.
    pub(crate) fn end_rollout_trace(&self, rt: Option<RolloutTrace>, patch: &Patch) {
        let Some(rt) = rt else { return };
        let Some(tracer) = self.telemetry.as_deref().and_then(FleetTelemetry::tracer) else {
            return;
        };
        for w in &self.state.workers {
            w.remote().clear_span_parent();
        }
        let start = tracer.since_epoch(rt.began);
        let end = tracer.now().max(start);
        tracer.record(Span {
            trace: rt.trace,
            id: rt.span,
            parent: None,
            kind: SpanKind::Rollout,
            name: "rollout",
            worker: None,
            start,
            dur: end.saturating_sub(start),
            update: None,
            request: None,
            detail: Some(format!("{}->{}", patch.from_version, patch.to_version)),
        });
    }

    /// Per-worker `(applied, failed, pauses)` counts before a rollout.
    pub(crate) fn baselines(&self) -> Vec<(usize, usize, usize)> {
        self.state
            .workers
            .iter()
            .map(|w| baseline(&w.remote()))
            .collect()
    }

    /// Gathers everything each worker applied/failed/paused since
    /// `baselines` into a [`FleetUpdateReport`].
    pub(crate) fn collect_report(&self, baselines: &[(usize, usize, usize)]) -> FleetUpdateReport {
        let mut report = FleetUpdateReport {
            workers: self.state.workers.len(),
            ..FleetUpdateReport::default()
        };
        for (w, (applied0, failed0, pauses0)) in self.state.workers.iter().zip(baselines) {
            // `skip` instead of range-drain: a supervised restart resets
            // the worker's history to its replay hops, which can be
            // shorter than a baseline captured pre-crash.
            let remote = w.remote();
            for r in remote.reports().into_iter().skip(*applied0) {
                report.applied.push((w.id, r));
            }
            for e in remote.failures().into_iter().skip(*failed0) {
                report.failed.push((w.id, e));
            }
            let pause: Duration = remote.pauses().iter().skip(*pauses0).map(|p| p.dur).sum();
            report.pauses.push(pause);
        }
        report
    }

    /// Per-worker device-read-error counts (zeros untelemetered).
    pub(crate) fn read_error_counts(&self) -> Vec<u64> {
        match &self.telemetry {
            Some(t) => (0..self.state.workers.len())
                .map(|i| t.worker(i).read_errors())
                .collect(),
            None => vec![0; self.state.workers.len()],
        }
    }

    /// Waits until `worker` has resolved one more patch than its baseline.
    /// `epoch0` is the worker's restart epoch at enqueue time: a bump
    /// mid-wait means a supervisor rebooted the worker (the in-flight
    /// patch was withdrawn) and surfaces as
    /// [`FleetError::WorkerRestarted`] for the caller to re-drive.
    pub(crate) fn await_worker(
        &self,
        worker: &Worker,
        base: (usize, usize, usize),
        epoch0: u64,
    ) -> Result<(), FleetError> {
        self.await_worker_n(worker, base, 1, epoch0)
    }

    /// Waits until `worker` has resolved `n` more patches than its
    /// baseline (a rollback *chain* resolves several in one pause), on
    /// the outcome wake of the incarnation the patches went to. The
    /// supervisor notifies that wake too when it gives the worker up or
    /// replaces it.
    pub(crate) fn await_worker_n(
        &self,
        worker: &Worker,
        (applied0, failed0, _): (usize, usize, usize),
        n: usize,
        epoch0: u64,
    ) -> Result<(), FleetError> {
        let deadline = Instant::now() + self.rollout_deadline;
        let remote = worker.remote();
        let mut verdict = Err(FleetError::RolloutStalled { worker: worker.id });
        remote.outcomes().wait_for(Some(deadline), || {
            if worker.has_failed() {
                verdict = Err(FleetError::WorkerDown { worker: worker.id });
            } else if worker.epoch() != epoch0 {
                verdict = Err(FleetError::WorkerRestarted { worker: worker.id });
            } else {
                let resolved = remote.applied_count() + remote.failure_count();
                if resolved < applied0 + failed0 + n || remote.pending_count() > 0 {
                    return false;
                }
                verdict = Ok(());
            }
            true
        });
        verdict
    }

    /// Stops every worker and returns the per-worker served-request counts
    /// (in worker order).
    ///
    /// # Errors
    ///
    /// Returns the first worker error (guest trap, crash, or panic),
    /// after all workers have been joined. A worker the supervisor gave
    /// up on reports [`WorkerFailure::GaveUp`].
    pub fn shutdown(mut self) -> Result<Vec<i64>, FleetError> {
        // Stop the supervisor before anything else: a restart racing the
        // teardown would resurrect a worker we are about to join.
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.stop();
        }
        // Stop the acceptor next: it finishes routing whatever is still
        // in the ingress queue, so workers see those requests before
        // their shutdown signal lands.
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.stop();
        }
        for w in &self.state.workers {
            w.seat.lock().expect("poisoned").stop.raise();
        }
        let mut served = Vec::with_capacity(self.state.workers.len());
        let mut first_err: Option<FleetError> = None;
        for w in &self.state.workers {
            let join = w.seat.lock().expect("poisoned").join.take();
            match join {
                Some(join) => match join.join() {
                    Ok(Ok(n)) => served.push(n),
                    res => {
                        let cause =
                            classify_join(res).unwrap_or(WorkerFailure::Guest(String::new()));
                        first_err.get_or_insert(FleetError::Worker {
                            worker: w.id,
                            cause,
                        });
                        served.push(0);
                    }
                },
                // The supervisor reaped this incarnation and gave up (or
                // its last respawn failed): nothing to join, the failure
                // is the report.
                None => {
                    first_err.get_or_insert(FleetError::Worker {
                        worker: w.id,
                        cause: WorkerFailure::GaveUp {
                            restarts: w.restarts.load(Ordering::SeqCst),
                        },
                    });
                    served.push(0);
                }
            }
        }
        match first_err {
            None => Ok(served),
            Some(e) => Err(e),
        }
    }
}

/// A worker's `(applied, failed, pauses)` counts: the baseline a rollout
/// step measures its outcome against.
pub(crate) fn baseline(remote: &UpdaterRemote) -> (usize, usize, usize) {
    (
        remote.applied_count(),
        remote.failure_count(),
        remote.pause_count(),
    )
}

/// Everything one worker thread needs, bundled (the spawn site builds it
/// from the [`RespawnSpec`]).
struct WorkerCtx {
    server: ServerConfig,
    src: String,
    version: String,
    fs: SimFs,
    fault: FaultPlan,
    vm_profile: bool,
    /// Persisted crash-durable state to replay at boot (the respawn
    /// path); `None` boots fresh.
    restore: Option<String>,
    heartbeat: Arc<AtomicU64>,
    state_slot: Arc<Mutex<Option<String>>>,
}

/// Spawns (or respawns) worker `id` from the fleet's respawn spec,
/// blocking until the worker reports its boot outcome.
fn spawn_worker(
    spec: &RespawnSpec,
    id: usize,
    fault: FaultPlan,
    restore: Option<String>,
    heartbeat: Arc<AtomicU64>,
    state_slot: Arc<Mutex<Option<String>>>,
) -> Result<Seat, WorkerFailure> {
    let stop = Arc::new(AtomicBool::new(false));
    let exited = Arc::new(AtomicBool::new(false));
    let (boot_tx, boot_rx) = mpsc::channel();
    let ctx = WorkerCtx {
        server: ServerConfig {
            link_mode: spec.mode,
            serve_mode: spec.serve_modes[id],
            shared: spec.shared.clone(),
            telemetry: spec.telemetry.as_ref().map(|t| t.worker(id).clone()),
            inbox: spec.edge.as_ref().map(|e| Arc::clone(e.inbox(id))),
        },
        src: spec.src.clone(),
        version: spec.version.clone(),
        fs: spec.fs[id].clone(),
        fault,
        vm_profile: spec.vm_profile,
        restore,
        heartbeat: Arc::clone(&heartbeat),
        state_slot: Arc::clone(&state_slot),
    };
    let exit = ExitSignal {
        exited: Arc::clone(&exited),
        exits: Arc::clone(&spec.exits),
    };
    let stop_t = Arc::clone(&stop);
    let join = thread::Builder::new()
        .name(format!("flashed-worker-{id}"))
        .spawn(move || {
            let _exit = exit;
            worker_main(ctx, &stop_t, boot_tx)
        })
        .map_err(|e| WorkerFailure::Spawn(e.to_string()))?;
    match boot_rx.recv() {
        Ok(Ok(info)) => Ok(Seat {
            stop: StopSignal {
                flag: stop,
                wake: info.wake,
            },
            exited,
            links: WorkerLinks {
                remote: info.remote,
                fault: info.fault,
                heartbeat,
                state: state_slot,
                replayed: info.replayed,
                replayed_to: info.replayed_to,
            },
            join: Some(join),
        }),
        Ok(Err(e)) => {
            let _ = join.join();
            Err(WorkerFailure::Boot(e))
        }
        Err(_) => {
            let _ = join.join();
            Err(WorkerFailure::BootChannel)
        }
    }
}

/// Starts the supervisor thread, blocked on `state`'s exit wake.
fn start_supervisor(state: Arc<FleetState>, cfg: SupervisorConfig) -> SupervisorHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_t = Arc::clone(&stop);
    let exits = Arc::clone(&state.spec.exits);
    let join = thread::Builder::new()
        .name("flashed-supervisor".to_string())
        .spawn(move || supervisor_main(&state, cfg, &stop_t))
        .expect("supervisor thread spawns");
    SupervisorHandle { stop, exits, join }
}

/// The supervisor loop: block until a worker thread signals its exit
/// (without being asked to stop), then join it, fail its traffic over at
/// the edge, withdraw its in-flight patches, and — within the restart
/// budget, after a capped exponential backoff — reboot it from its
/// persisted crash-durable state, restore its vnode ownership, and log a
/// [`RestartReport`]. A failed respawn is retried at once.
fn supervisor_main(state: &FleetState, cfg: SupervisorConfig, stop: &AtomicBool) {
    let exits = &state.spec.exits;
    loop {
        let seen = exits.epoch();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut retry = false;
        for w in &state.workers {
            if w.has_failed() {
                continue;
            }
            let dead = {
                let seat = w.seat.lock().expect("poisoned");
                seat.join.is_none() || seat.exited.load(Ordering::SeqCst)
            };
            if !dead {
                continue;
            }
            let detect_began = Instant::now();
            w.up.store(false, Ordering::SeqCst);
            if let Some(t) = &state.spec.telemetry {
                t.set_worker_up(w.id, false);
            }
            // Fail the dead worker's traffic over: its vnodes route to
            // ring successors, its queued requests drain back through the
            // router. Idempotent — a retry sweep won't double-count.
            let rerouted = state.spec.edge.as_ref().map_or(0, |e| e.mark_down(w.id));
            // Reap the dead incarnation; `join` already `None` means a
            // previous respawn attempt failed and this is a retry.
            let (failure, old_links) = {
                let mut seat = w.seat.lock().expect("poisoned");
                let links = seat.links.clone();
                let failure = match seat.join.take() {
                    Some(join) => classify_join(join.join())
                        .unwrap_or_else(|| WorkerFailure::Guest("worker exited".to_string())),
                    None => WorkerFailure::Guest("previous respawn failed".to_string()),
                };
                (failure, links)
            };
            // The dead worker's remote Arcs outlive its thread: withdraw
            // whatever was still enqueued so those lifecycles close
            // (`Aborted`) instead of dangling `Enqueued` in the journal.
            old_links
                .remote
                .cancel_pending("worker crashed; withdrawn for re-drive");
            let attempts = w.restarts.load(Ordering::SeqCst);
            if attempts >= cfg.max_restarts {
                // Budget exhausted: degrade gracefully. The worker stays
                // down, the edge keeps routing around it, shutdown
                // reports `GaveUp`.
                w.failed.store(true, Ordering::SeqCst);
                old_links.remote.outcomes().notify();
                continue;
            }
            let detect = detect_began.elapsed();
            let shift = u32::try_from(attempts.min(20)).expect("bounded");
            let backoff = cfg
                .backoff_base
                .saturating_mul(1u32 << shift)
                .min(cfg.backoff_cap);
            thread::sleep(backoff);
            let blob = old_links.state.lock().expect("poisoned").clone();
            let spawn_began = Instant::now();
            // Respawn with crash faults disarmed: they are one-shot by
            // design (a crash loop would just burn the restart budget).
            match spawn_worker(
                &state.spec,
                w.id,
                FaultPlan::none(),
                blob,
                Arc::clone(&old_links.heartbeat),
                Arc::clone(&old_links.state),
            ) {
                Ok(seat) => {
                    let spawn_dur = spawn_began.elapsed();
                    let replay = seat.links.replayed;
                    let replayed_to = seat.links.replayed_to.clone();
                    *w.seat.lock().expect("poisoned") = seat;
                    w.restarts.fetch_add(1, Ordering::SeqCst);
                    w.up.store(true, Ordering::SeqCst);
                    if let Some(t) = &state.spec.telemetry {
                        t.set_worker_up(w.id, true);
                        t.record_worker_restart();
                    }
                    if let Some(e) = &state.spec.edge {
                        e.mark_up(w.id);
                    }
                    // Second withdrawal sweep: an op enqueued onto the
                    // dead incarnation *during* the reboot window (after
                    // the first cancel, before the seat swap) would
                    // dangle `Enqueued` forever; close it now that no new
                    // enqueue can reach the old seat.
                    old_links
                        .remote
                        .cancel_pending("worker crashed; withdrawn for re-drive");
                    state
                        .restart_log
                        .lock()
                        .expect("poisoned")
                        .push(RestartReport {
                            worker: w.id,
                            failure: failure.to_string(),
                            detect,
                            reboot: spawn_dur.saturating_sub(replay),
                            replay,
                            replayed_to,
                            rerouted,
                            total: detect_began.elapsed(),
                        });
                    // Epoch bump last: an await that sees the new epoch
                    // must also see the new seat and the restart report.
                    // Awaits block on the dead incarnation's outcome wake.
                    w.epoch.fetch_add(1, Ordering::SeqCst);
                    old_links.remote.outcomes().notify();
                }
                Err(_) => {
                    // Seat stays reaped (`join` is `None`); the next sweep
                    // retries until the budget runs out.
                    w.restarts.fetch_add(1, Ordering::SeqCst);
                    retry = true;
                }
            }
        }
        if !retry {
            exits.wait(seen, None);
        }
    }
}

/// Rebuilds a respawned worker to its pre-crash version: re-applies the
/// persisted net patch chain (strict — a replay failure is a boot
/// failure), then installs the persisted snapshot ring and re-queues
/// whatever ops the crash interrupted (for a crashed rollback chain,
/// its remaining hops). Returns the version the replay reached.
fn restore_worker(server: &mut Server, blob: &str, boot_version: &str) -> Result<String, String> {
    let (chain, inner) = dsu_core::decode_worker_state(blob)?;
    server.updater.strict = true;
    let mut version = boot_version.to_string();
    for patch in chain {
        let to = patch.to_version.clone();
        server.queue_patch(patch);
        server
            .apply_pending_now()
            .map_err(|e| format!("replay failed applying to {to}: {e}"))?;
        version = to;
    }
    server
        .load_updater_state(&inner)
        .map_err(|e| format!("replay failed installing state: {e}"))?;
    server.updater.strict = false;
    Ok(version)
}

/// One worker: boots its own server against the shared state, then serves
/// until told to stop, applying patches fed through its remote at update
/// points (busy) or quiescent boundaries (idle). A respawned worker first
/// replays its persisted state back to its pre-crash version; from then
/// on its updater persists crash-durable state (net patch chain +
/// snapshot ring + pending ops) into the supervisor-visible slot at the
/// end of every pause. Each loop iteration bumps the heartbeat and
/// passes the injectable crash seams; with nothing served and nothing
/// applied, it blocks on the server's wake.
fn worker_main(
    ctx: WorkerCtx,
    stop: &AtomicBool,
    boot_tx: mpsc::Sender<Result<BootInfo, String>>,
) -> Result<i64, String> {
    let mut server = match Server::start_cfg(&ctx.server, &ctx.src, &ctx.version, ctx.fs) {
        Ok(s) => s,
        Err(e) => {
            let _ = boot_tx.send(Err(e.to_string()));
            return Err(e.to_string());
        }
    };
    // Fleet workers keep serving their old version when a patch is
    // rejected; the coordinator reads the failure out of the shared log.
    server.updater.strict = false;
    if ctx.vm_profile {
        server.set_vm_profiling(true);
    }
    server.inject_fault(ctx.fault);
    let fault = server.fault_handle();
    // The mid-transform crash point fires from inside the apply pipeline
    // itself, via the core's thread-local phase probe — bindings already
    // flipped, state transformation interrupted.
    {
        let fault = Arc::clone(&fault);
        dsu_core::set_phase_probe(Some(Box::new(move |phase| {
            if phase == "transform" {
                crash_if_armed(&fault, CrashPoint::MidTransform);
            }
        })));
    }
    let replay_began = Instant::now();
    let (replayed, replayed_to) = match &ctx.restore {
        Some(blob) => match restore_worker(&mut server, blob, &ctx.version) {
            Ok(v) => (replay_began.elapsed(), v),
            Err(e) => {
                let _ = boot_tx.send(Err(e.clone()));
                return Err(e);
            }
        },
        None => (Duration::ZERO, ctx.version.clone()),
    };
    // "Mid-soak" means an update landed in *this* incarnation — replay
    // hops don't count, or a restart after a crash would re-crash.
    let soak_base = server.updater.applied_count();
    let wake = Arc::clone(server.wake());
    let info = BootInfo {
        remote: server.remote(),
        wake: Arc::clone(&wake),
        fault: Arc::clone(&fault),
        replayed,
        replayed_to,
    };
    if boot_tx.send(Ok(info)).is_err() {
        return Ok(0); // coordinator went away before boot finished
    }
    server.updater.set_state_slot(Arc::clone(&ctx.state_slot));

    // Lands the collapsed-stack VM profile (when armed) in the worker's
    // telemetry slot on the way out, success or failure.
    let finish = |server: &Server, r: Result<i64, String>| {
        server.publish_vm_profile();
        r
    };
    let mut total = 0i64;
    loop {
        // Read before any source is checked: whatever arrives from here
        // on makes the idle wait below return at once.
        let seen = wake.epoch();
        ctx.heartbeat.fetch_add(1, Ordering::Relaxed);
        let applied = server.updater.applied_count();
        if applied > soak_base {
            crash_if_armed(&fault, CrashPoint::MidSoak);
        }
        crash_if_armed(&fault, CrashPoint::Serving);
        if stop.load(Ordering::SeqCst) {
            return finish(&server, Ok(total));
        }
        // A patch that arrived while the queue was empty never meets an
        // update point (the guest exits its serve loop without passing
        // one); apply it here, at the quiescent boundary. Non-strict, so
        // rejections are recorded, not returned.
        if server.updater.pending_count() > 0 {
            if let Err(e) = server.apply_pending_now() {
                return finish(&server, Err(e.to_string()));
            }
        }
        match server.serve() {
            // Idle: block until a request, a read completion, a patch, a
            // fault or the stop arrives. An apply this pass loops first,
            // so the mid-soak seam is passed.
            Ok(0) if server.updater.applied_count() == applied => {
                wake.wait(seen, None);
            }
            Ok(n) => total += n,
            Err(e) => return finish(&server, Err(e.to_string())),
        }
    }
}
