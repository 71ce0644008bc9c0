//! Workloads, their seeded inputs, fleet boot/warm-up, and the response
//! check every completion goes through.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flashed::{
    EdgeConfig, EventLoopConfig, Fleet, FleetConfig, Rng, RoutePolicy, Routed, ServeMode, SimFs,
    Zipf,
};

/// Workers per fleet (the box the benchmark was sized on has 2 cores).
const WORKERS: usize = 2;
/// Documents, each `DOC_SIZE` bytes: all fit in every worker's cache.
const DOCS: usize = 64;
const DOC_SIZE: usize = 512;
/// Zipf exponent of the request mix.
const ZIPF: f64 = 0.7;
/// The event loop of every worker.
pub const SERVE: EventLoopConfig = EventLoopConfig {
    helpers: 2,
    cache_entries: 256,
    max_in_flight: 16,
};
/// Edge inbox bound; far above any queue these loads build.
const INBOX: usize = 4096;
/// How long a warm-up or drain may take before it counts as a stall.
pub const STALL: Duration = Duration::from_secs(20);

/// One workload: load, guest version, and how the run's seconds split
/// between serving alone and update walks.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Open-loop Poisson arrivals, requests per second.
    pub rate: f64,
    /// The version the serving-phase fleet runs (index into
    /// `flashed::versions::all()`).
    pub serve_version: usize,
    /// Share of the run spent serving without updates; the rest walks.
    pub serve_share: f64,
}

/// Both workloads serve the same fixture: every document resident in
/// every worker's cache and no device time, so guest execution, HTTP and
/// edge hand-offs do all the work.
pub const SPECS: [Spec; 2] = [
    // About a sixth of the fleet's capacity on v4, the heaviest guest
    // before logging. Its walks run under the same rate on v1 fleets.
    Spec {
        name: "hot_open",
        rate: 20_000.0,
        serve_version: 3,
        serve_share: 0.6,
    },
    // Light load while fleets walk the whole patch stream forward and
    // back: updates and traffic share the fleet.
    Spec {
        name: "live_update",
        rate: 5_000.0,
        serve_version: 0,
        serve_share: 0.0,
    },
];

/// The seeded inputs of one run: documents and the request mix.
pub struct Fixture {
    pub spec: Spec,
    pub paths: Vec<String>,
    pub contents: Vec<String>,
    /// Request line per document, indexed like `paths`.
    pub requests: Vec<String>,
    by_body: HashMap<String, usize>,
    zipf: Zipf,
}

impl Fixture {
    /// Documents of seeded random text and a Zipf request mix over them.
    pub fn new(spec: Spec, seed: u64) -> Fixture {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_f11e);
        let paths: Vec<String> = (0..DOCS).map(|i| format!("/d{i:04}.html")).collect();
        let contents: Vec<String> = (0..DOCS)
            .map(|_| {
                (0..DOC_SIZE)
                    .map(|_| char::from(*rng.choose(ALPHABET)))
                    .collect()
            })
            .collect();
        let by_body = contents
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect::<HashMap<_, _>>();
        assert_eq!(by_body.len(), DOCS, "documents must be distinct");
        Fixture {
            requests: paths.iter().map(|p| format!("GET {p} HTTP/1.0")).collect(),
            zipf: Zipf::new(DOCS, ZIPF),
            spec,
            paths,
            contents,
            by_body,
        }
    }

    /// The documents as a filesystem (no device latency).
    pub fn fs(&self) -> SimFs {
        let fs = SimFs::new();
        for (p, c) in self.paths.iter().zip(&self.contents) {
            fs.insert(p.clone(), c.clone());
        }
        fs
    }

    /// Draws one document index from the request mix.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        self.zipf.sample(rng)
    }

    /// The document a completion served, when it is a well-formed 200
    /// whose body is exactly one document and whose `Content-Length`
    /// matches; `None` for anything else (503s included).
    pub fn served(&self, response: &str) -> Option<usize> {
        let (head, body) = response.split_once("\r\n\r\n")?;
        let mut lines = head.split("\r\n");
        if !lines.next()?.starts_with("HTTP/1.0 200") {
            return None;
        }
        let len = lines.find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })?;
        (len == body.len()).then_some(())?;
        self.by_body.get(body).copied()
    }
}

/// The fleet configuration: least-loaded routing (every worker caches
/// every document), telemetry on, tracing off.
fn fleet_config() -> FleetConfig {
    FleetConfig::new(WORKERS)
        .serve_mode(ServeMode::EventLoop(SERVE))
        .with_edge(EdgeConfig::new(RoutePolicy::LeastLoaded).queue_capacity(INBOX))
        .with_telemetry()
}

/// Boots a fleet on version `version` (index into `versions::all()`).
pub fn boot(fx: &Fixture, version: usize) -> Result<Fleet, String> {
    let (name, src) = &flashed::versions::all()[version];
    Fleet::start_cfg(&fleet_config(), src, name, &fx.fs()).map_err(|e| format!("boot {name}: {e}"))
}

/// Fills every worker's buffer cache with every document, through its
/// inbox, and checks every warm-up response.
pub fn warm(fleet: &Fleet, fx: &Fixture) -> Result<(), String> {
    let edge = Arc::clone(fleet.edge().ok_or("fleet has no edge")?);
    let mut sent = vec![0u32; fx.paths.len()];
    let mut total = 0usize;
    for w in 0..WORKERS {
        for (i, req) in fx.requests.iter().enumerate() {
            let routed = Routed {
                request: req.clone(),
                accepted_at: Instant::now(),
            };
            edge.inbox(w)
                .try_push(routed)
                .map_err(|_| "warm-up inbox full".to_string())?;
            sent[i] += 1;
            total += 1;
        }
    }
    let shared = fleet.shared();
    let deadline = Instant::now() + STALL;
    while shared.completions_len() < total {
        if Instant::now() > deadline {
            return Err(format!(
                "warm-up stalled at {}/{total}",
                shared.completions_len()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut got = vec![0u32; fx.paths.len()];
    for c in shared.take_completions() {
        let i = fx
            .served(&c.response)
            .ok_or("warm-up response is not its document")?;
        got[i] += 1;
    }
    if got != sent {
        return Err("warm-up responses do not match the requests".into());
    }
    Ok(())
}
