//! The simulated filesystem FlashEd serves from.
//!
//! The paper's testbed served real files to real clients; here a
//! deterministic in-memory filesystem exercises the identical guest code
//! path (lookup → read → respond) while keeping experiments reproducible.
//!
//! Two read paths exist, mirroring Flash's AMPED split:
//!
//! * [`SimFs::read`] — synchronous: the caller stalls for the simulated
//!   device latency (the blocking thread-per-worker regime);
//! * [`AsyncFs`] — readiness/completion: [`AsyncFs::submit`] returns a
//!   [`ReadTicket`] immediately, a helper pool absorbs the device wait
//!   off-loop, posts [`ReadCompletion`]s to a queue and notifies the
//!   event loop's [`Wake`], and an LRU [`BufferCache`] makes repeat reads
//!   complete without touching the (simulated) device at all. Cached
//!   content is shared (`Arc<str>`), so a hit copies no bytes.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use dsu_core::Wake;

use crate::rng::Rng;

/// An in-memory filesystem: path → content.
///
/// Clones share the *content* (the same shared "disk", so a write through
/// one handle is visible to every clone — what lets a fleet coordinator
/// mutate files a worker serves). Read latency stays per-handle. The
/// read-failure flag is shared between clones of one handle lineage, so a
/// coordinator that kept a clone can start (and stop) a live worker's
/// read failures mid-run; [`SimFs::fork_faults`] severs the sharing —
/// fleets fork one fault domain per worker so one worker's dying device
/// never fails its siblings.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    files: Arc<RwLock<BTreeMap<String, String>>>,
    /// Simulated per-read device latency (zero by default). Flash — and
    /// hence the paper's testbed — is disk-bound; modelling the read wait
    /// lets multi-worker experiments overlap I/O the way the real server
    /// overlapped disk requests.
    read_latency: Duration,
    /// Fault injection: when set, every read pays its latency and then
    /// fails (returns `None`) even though the file exists — a dying
    /// device, not a missing document. Shared between clones (live
    /// injection); [`SimFs::fork_faults`] gives a handle its own flag.
    fail_reads: Arc<AtomicBool>,
}

impl SimFs {
    /// Creates an empty filesystem.
    pub fn new() -> SimFs {
        SimFs::default()
    }

    /// Adds (or replaces) a file. Visible to every clone sharing this
    /// filesystem's content.
    pub fn insert(&self, path: impl Into<String>, content: impl Into<String>) {
        self.files
            .write()
            .expect("poisoned")
            .insert(path.into(), content.into());
    }

    /// Mutates a file in place — [`SimFs::insert`] under the name the
    /// write-through cache-invalidation path uses (see [`AsyncFs::write`],
    /// which pairs the content change with a [`BufferCache::invalidate`]).
    pub fn write(&self, path: impl Into<String>, content: impl Into<String>) {
        self.insert(path, content);
    }

    /// Reads a file's content, stalling for the simulated device latency
    /// (if one is configured). Returns `None` for missing files — and,
    /// with [`SimFs::set_read_failures`] armed, for every read.
    pub fn read(&self, path: &str) -> Option<String> {
        if !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
        if self.fail_reads.load(Ordering::Relaxed) {
            return None;
        }
        self.files.read().expect("poisoned").get(path).cloned()
    }

    /// Arms (or disarms) injected read failures: reads pay their latency
    /// and fail, while [`SimFs::exists`] still answers — a failing
    /// device, not an empty one. The flag is shared with every clone of
    /// this handle, so flipping it here makes a *live* worker's reads
    /// start (or stop) failing mid-run; isolate with
    /// [`SimFs::fork_faults`] first when that sharing is unwanted.
    pub fn set_read_failures(&self, fail: bool) {
        self.fail_reads.store(fail, Ordering::Relaxed);
    }

    /// Whether this handle's reads are set to fail.
    pub fn read_failures(&self) -> bool {
        self.fail_reads.load(Ordering::Relaxed)
    }

    /// A clone in a fresh fault domain: same shared content and latency,
    /// but its own read-failure flag (initialised to this handle's
    /// current value). Fleets fork one domain per worker so per-worker
    /// fault plans — and live flips through the retained handle — stay
    /// scoped to that worker.
    pub fn fork_faults(&self) -> SimFs {
        SimFs {
            files: Arc::clone(&self.files),
            read_latency: self.read_latency,
            fail_reads: Arc::new(AtomicBool::new(self.read_failures())),
        }
    }

    /// Sets the simulated per-read device latency (builder form).
    pub fn with_read_latency(mut self, latency: Duration) -> SimFs {
        self.read_latency = latency;
        self
    }

    /// Sets the simulated per-read device latency in place — fleets use
    /// this to vary latency per worker on clones of one filesystem,
    /// which the by-value builder cannot express.
    pub fn set_read_latency(&mut self, latency: Duration) {
        self.read_latency = latency;
    }

    /// The configured per-read device latency.
    pub fn read_latency(&self) -> Duration {
        self.read_latency
    }

    /// Whether a file exists (metadata survives injected read failures).
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().expect("poisoned").contains_key(path)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.read().expect("poisoned").len()
    }

    /// Whether the filesystem is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.files
            .read()
            .expect("poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Generates `n` files named `/fNNN.html` with sizes drawn uniformly
    /// from `size_range` (bytes), deterministic in `seed`. This mirrors
    /// the static-document corpora of web-server benchmarks.
    pub fn generate(n: usize, size_range: (usize, usize), seed: u64) -> SimFs {
        let mut rng = Rng::seed_from_u64(seed);
        let fs = SimFs::new();
        for i in 0..n {
            let size = if size_range.0 >= size_range.1 {
                size_range.0
            } else {
                rng.gen_range_usize(size_range.0, size_range.1)
            };
            fs.insert(format!("/f{i:04}.html"), synth_content(i, size));
        }
        fs
    }

    /// Generates `n` files all of exactly `size` bytes.
    pub fn generate_fixed(n: usize, size: usize, seed: u64) -> SimFs {
        SimFs::generate(n, (size, size), seed)
    }
}

/// Identifies one in-flight [`AsyncFs`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadTicket(pub u64);

/// One finished read, posted to the completion queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadCompletion {
    /// The ticket [`AsyncFs::submit`] handed out for this read.
    pub ticket: ReadTicket,
    /// The path that was read.
    pub path: String,
    /// The content, or `None` when the file does not exist.
    pub content: Option<Arc<str>>,
}

/// An LRU cache over file contents with hit/miss counters — the buffer
/// cache the AMPED helpers warm. Thread-safe; shared between the event
/// loop (lookups) and the helper pool (inserts). Every access is
/// `O(log n)`: recency is a stamp per entry, ordered in a `BTreeMap`.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Entries dropped from the cache: LRU pressure plus explicit
    /// invalidations (the write-through path).
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Path → (content, recency stamp).
    entries: HashMap<String, (Arc<str>, u64)>,
    /// Recency stamp → path, least-recently-used first.
    order: BTreeMap<u64, String>,
    /// The last stamp handed out; stamps only grow.
    clock: u64,
}

impl CacheInner {
    /// Makes `path` the most recently used entry, returning its content.
    fn touch(&mut self, path: &str) -> Option<Arc<str>> {
        let (content, stamp) = self.entries.get_mut(path)?;
        let key = self.order.remove(stamp).expect("order mirrors entries");
        self.clock += 1;
        *stamp = self.clock;
        self.order.insert(self.clock, key);
        Some(Arc::clone(content))
    }
}

impl BufferCache {
    /// An empty cache holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> BufferCache {
        BufferCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Counting lookup: bumps the hit or miss counter and the entry's
    /// recency. The admission path uses this; the serve path, which would
    /// double-count, uses [`BufferCache::peek`].
    pub fn lookup(&self, path: &str) -> Option<Arc<str>> {
        let got = self.peek(path);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Non-counting lookup (still bumps recency).
    pub fn peek(&self, path: &str) -> Option<Arc<str>> {
        self.inner.lock().expect("poisoned").touch(path)
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// one when full.
    pub fn insert(&self, path: &str, content: Arc<str>) {
        let mut inner = self.inner.lock().expect("poisoned");
        if let Some((old, _)) = inner.entries.get_mut(path) {
            *old = content;
            inner.touch(path);
            return;
        }
        while inner.entries.len() >= self.capacity {
            let Some((_, evict)) = inner.order.pop_first() else {
                break;
            };
            inner.entries.remove(&evict);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.order.insert(stamp, path.to_string());
        inner.entries.insert(path.to_string(), (content, stamp));
    }

    /// Drops `path` from the cache, counting it as an eviction. Returns
    /// whether an entry was present. The write-through invalidation path:
    /// a mutated file must not keep serving its stale cached bytes.
    pub fn invalidate(&self, path: &str) -> bool {
        let mut inner = self.inner.lock().expect("poisoned");
        let Some((_, stamp)) = inner.entries.remove(path) else {
            return false;
        };
        inner.order.remove(&stamp);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("poisoned").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counting lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Counting lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped so far (LRU pressure + invalidations).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

struct ReadJob {
    ticket: ReadTicket,
    path: String,
}

/// The readiness/completion face of a [`SimFs`]: submit a read, get a
/// ticket back immediately, poll completions later. A pool of helper
/// threads absorbs the simulated device latency (each helper is one
/// outstanding "disk operation", so the pool size is the device queue
/// depth), inserting what it read into the shared [`BufferCache`] before
/// posting the completion and notifying the owner's [`Wake`]. Cached
/// paths complete without a helper trip.
pub struct AsyncFs {
    fs: Arc<SimFs>,
    cache: Arc<BufferCache>,
    jobs: Mutex<mpsc::Sender<ReadJob>>,
    completions: Arc<Mutex<Vec<ReadCompletion>>>,
    in_flight: Arc<AtomicUsize>,
    next_ticket: AtomicU64,
    helpers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for AsyncFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncFs")
            .field("helpers", &self.helpers.len())
            .field("in_flight", &self.in_flight())
            .field("cached", &self.cache.len())
            .finish()
    }
}

impl AsyncFs {
    /// Wraps `fs` with `helpers` helper threads and a buffer cache of
    /// `cache_entries` entries.
    pub fn new(fs: SimFs, helpers: usize, cache_entries: usize) -> AsyncFs {
        AsyncFs::with_wake(fs, helpers, cache_entries, Arc::new(Wake::new()))
    }

    /// As [`AsyncFs::new`], with every helper completion notifying
    /// `wake` — the event loop's worker wake.
    pub(crate) fn with_wake(
        fs: SimFs,
        helpers: usize,
        cache_entries: usize,
        wake: Arc<Wake>,
    ) -> AsyncFs {
        let fs = Arc::new(fs);
        let cache = Arc::new(BufferCache::new(cache_entries));
        let completions: Arc<Mutex<Vec<ReadCompletion>>> = Arc::new(Mutex::new(Vec::new()));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<ReadJob>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..helpers.max(1))
            .map(|i| {
                let fs = Arc::clone(&fs);
                let cache = Arc::clone(&cache);
                let completions = Arc::clone(&completions);
                let in_flight = Arc::clone(&in_flight);
                let rx = Arc::clone(&rx);
                let wake = Arc::clone(&wake);
                std::thread::Builder::new()
                    .name(format!("flashed-helper-{i}"))
                    .spawn(move || loop {
                        let job = { rx.lock().expect("poisoned").recv() };
                        let Ok(job) = job else { return };
                        // The device wait happens here, off the event
                        // loop — this sleep is the helper's whole reason
                        // to exist.
                        let content: Option<Arc<str>> = fs.read(&job.path).map(Arc::from);
                        if let Some(c) = &content {
                            cache.insert(&job.path, Arc::clone(c));
                        }
                        completions.lock().expect("poisoned").push(ReadCompletion {
                            ticket: job.ticket,
                            path: job.path,
                            content,
                        });
                        in_flight.fetch_sub(1, Ordering::Release);
                        wake.notify();
                    })
                    .expect("spawn helper")
            })
            .collect();
        AsyncFs {
            fs,
            cache,
            jobs: Mutex::new(tx),
            completions,
            in_flight,
            next_ticket: AtomicU64::new(0),
            helpers: handles,
        }
    }

    /// Submits a read and returns its ticket immediately. A cached path
    /// completes at once (its completion, sharing the cached bytes, is
    /// already queued when this returns); anything else goes to the
    /// helper pool. The cache lookup counts as a hit or miss either way.
    pub fn submit(&self, path: &str) -> ReadTicket {
        let ticket = ReadTicket(self.next_ticket.fetch_add(1, Ordering::Relaxed) + 1);
        if let Some(content) = self.cache.lookup(path) {
            self.completions
                .lock()
                .expect("poisoned")
                .push(ReadCompletion {
                    ticket,
                    path: path.to_string(),
                    content: Some(content),
                });
            return ticket;
        }
        self.in_flight.fetch_add(1, Ordering::Acquire);
        self.jobs
            .lock()
            .expect("poisoned")
            .send(ReadJob {
                ticket,
                path: path.to_string(),
            })
            .expect("helper pool gone");
        ticket
    }

    /// Drains every completion posted so far.
    pub fn poll(&self) -> Vec<ReadCompletion> {
        std::mem::take(&mut *self.completions.lock().expect("poisoned"))
    }

    /// Reads submitted but not yet posted as completions.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Write-through mutation: updates the file's content and drops any
    /// cached copy, so the next read — event loop or helper — serves the
    /// new bytes instead of the stale cache entry.
    pub fn write(&self, path: &str, content: impl Into<String>) {
        self.fs.write(path, content);
        self.cache.invalidate(path);
    }

    /// The shared buffer cache (for stats and serve-path lookups).
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// The wrapped filesystem (synchronous fallback path).
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }
}

impl Drop for AsyncFs {
    fn drop(&mut self) {
        // Replacing the sender closes the channel; helpers see the
        // disconnect and exit.
        let (dead, _) = mpsc::channel();
        *self.jobs.lock().expect("poisoned") = dead;
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Deterministic printable filler of exactly `size` bytes.
fn synth_content(file_idx: usize, size: usize) -> String {
    let pattern = format!("<p>file {file_idx} lorem ipsum dolor sit amet</p>\n");
    let mut s = String::with_capacity(size);
    while s.len() < size {
        let take = (size - s.len()).min(pattern.len());
        s.push_str(&pattern[..take]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SimFs::generate(10, (100, 1000), 42);
        let b = SimFs::generate(10, (100, 1000), 42);
        assert_eq!(a.paths(), b.paths());
        for p in a.paths() {
            assert_eq!(a.read(&p), b.read(&p));
        }
        let c = SimFs::generate(10, (100, 1000), 43);
        assert!(a.paths().iter().any(|p| a.read(p) != c.read(p)));
    }

    #[test]
    fn sizes_are_exact_for_fixed() {
        let fs = SimFs::generate_fixed(5, 256, 1);
        assert_eq!(fs.len(), 5);
        for p in fs.paths() {
            assert_eq!(fs.read(&p).unwrap().len(), 256);
        }
    }

    #[test]
    fn latency_can_be_set_in_place() {
        let mut fs = SimFs::new().with_read_latency(Duration::from_micros(5));
        assert_eq!(fs.read_latency(), Duration::from_micros(5));
        fs.set_read_latency(Duration::from_micros(9));
        assert_eq!(fs.read_latency(), Duration::from_micros(9));
    }

    #[test]
    fn buffer_cache_counts_and_evicts_lru() {
        let c = BufferCache::new(2);
        assert!(c.lookup("/a").is_none());
        c.insert("/a", "A".into());
        c.insert("/b", "B".into());
        assert_eq!(c.lookup("/a").as_deref(), Some("A"));
        // /b is now least recently used; inserting /c evicts it.
        c.insert("/c", "C".into());
        assert_eq!(c.len(), 2);
        assert!(c.lookup("/b").is_none());
        assert_eq!(c.lookup("/c").as_deref(), Some("C"));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        // peek finds entries without counting.
        assert_eq!(c.peek("/a").as_deref(), Some("A"));
        assert_eq!(c.hits() + c.misses(), 4);
    }

    #[test]
    fn buffer_cache_evicts_in_recency_order() {
        let c = BufferCache::new(3);
        for p in ["/a", "/b", "/c"] {
            c.insert(p, p.into());
        }
        // Recency after these: /c, /a, /b (least recent first) — a peek
        // and a refreshing insert both count as a use.
        assert!(c.peek("/a").is_some());
        c.insert("/b", "B2".into());
        c.insert("/d", "D".into());
        assert!(c.peek("/c").is_none(), "/c was least recently used");
        c.insert("/e", "E".into());
        assert!(c.peek("/a").is_none(), "/a went next");
        assert_eq!(c.peek("/b").as_deref(), Some("B2"));
        // An invalidation frees a slot without evicting anything else.
        assert!(c.invalidate("/d"));
        c.insert("/f", "F".into());
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 3);
        // Recency now: /e, /b, /f — so /g evicts /e, then /h evicts /b.
        c.insert("/g", "G".into());
        assert!(c.peek("/e").is_none());
        c.insert("/h", "H".into());
        assert!(c.peek("/b").is_none());
        for p in ["/f", "/g", "/h"] {
            assert!(c.peek(p).is_some(), "{p} survives");
        }
        assert_eq!(c.evictions(), 5);
        assert_eq!(c.hits() + c.misses(), 0, "peek never counts");
    }

    #[test]
    fn async_fs_completes_submitted_reads() {
        let fs = SimFs::new();
        fs.insert("/x", "hello");
        let afs = AsyncFs::new(fs.with_read_latency(Duration::from_micros(200)), 2, 8);
        let t1 = afs.submit("/x");
        let t2 = afs.submit("/nope");
        let mut done = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.len() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "reads never completed"
            );
            done.extend(afs.poll());
        }
        assert_eq!(afs.in_flight(), 0);
        let by_ticket = |t: ReadTicket| done.iter().find(|c| c.ticket == t).unwrap();
        assert_eq!(by_ticket(t1).content.as_deref(), Some("hello"));
        assert_eq!(by_ticket(t2).content, None);
        // The helper warmed the cache: the repeat read completes at
        // submit time, counted as a hit.
        let hits0 = afs.cache().hits();
        let t3 = afs.submit("/x");
        let again = afs.poll();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].ticket, t3);
        assert_eq!(afs.cache().hits(), hits0 + 1);
    }

    #[test]
    fn lookup_semantics() {
        let fs = SimFs::new();
        assert!(fs.is_empty());
        fs.insert("/a", "hello");
        assert!(fs.exists("/a"));
        assert!(!fs.exists("/b"));
        assert_eq!(fs.read("/a").as_deref(), Some("hello"));
        assert_eq!(fs.read("/b"), None);
    }

    #[test]
    fn fault_flags_are_shared_between_clones_until_forked() {
        let a = SimFs::new();
        a.insert("/f", "one");
        let b = a.clone();
        // Shared disk: a write through either handle is seen by both.
        b.write("/f", "two");
        assert_eq!(a.read("/f").as_deref(), Some("two"));
        // Shared faults: arming either clone fails both — this is how a
        // coordinator's retained handle makes a live worker's reads
        // start failing mid-run.
        b.set_read_failures(true);
        assert_eq!(b.read("/f"), None);
        assert!(b.exists("/f"), "metadata survives read failures");
        assert_eq!(a.read("/f"), None, "clones share the fault flag");
        a.set_read_failures(false);
        assert_eq!(b.read("/f").as_deref(), Some("two"), "and the disarm");
        // Forked fault domain: content still shared, faults private.
        let c = b.fork_faults();
        c.set_read_failures(true);
        assert_eq!(c.read("/f"), None);
        assert_eq!(b.read("/f").as_deref(), Some("two"), "fork isolates");
    }

    #[test]
    fn invalidation_counts_as_eviction_and_write_through_works() {
        let c = BufferCache::new(4);
        c.insert("/a", "stale".into());
        assert!(c.invalidate("/a"));
        assert!(!c.invalidate("/a"), "second invalidation finds nothing");
        assert_eq!(c.evictions(), 1);
        assert!(c.peek("/a").is_none());

        // LRU pressure counts into the same counter.
        let small = BufferCache::new(1);
        small.insert("/x", "X".into());
        small.insert("/y", "Y".into());
        assert_eq!(small.evictions(), 1);

        // End to end through AsyncFs: a cached read, then a write, then
        // the fresh bytes — never the stale cache entry.
        let fs = SimFs::new();
        fs.insert("/doc", "old bytes");
        let afs = AsyncFs::new(fs, 1, 8);
        afs.submit("/doc");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while afs.in_flight() > 0 {
            assert!(std::time::Instant::now() < deadline, "read never completed");
        }
        afs.poll();
        assert_eq!(afs.cache().peek("/doc").as_deref(), Some("old bytes"));
        afs.write("/doc", "new bytes");
        assert!(afs.cache().peek("/doc").is_none(), "stale entry dropped");
        let t = afs.submit("/doc");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let done = loop {
            assert!(std::time::Instant::now() < deadline, "read never completed");
            let done = afs.poll();
            if !done.is_empty() {
                break done;
            }
        };
        assert_eq!(done[0].ticket, t);
        assert_eq!(done[0].content.as_deref(), Some("new bytes"));
    }
}
