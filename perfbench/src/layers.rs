//! Single-layer measurements made outside any fleet: the benchmark times
//! its own calls into one public function at a time.

use std::time::{Duration, Instant};

use dsu_core::GeneratedPatch;
use flashed::{AsyncFs, Response, Server};
use vm::LinkMode;

use crate::alloc;
use crate::fixture::{Fixture, SERVE};
use crate::spans::Spans;
use crate::stats::{median, quantile};

/// Compiles every version with `popcorn` and verifies it with `tal`;
/// returns (compile, verify) wall-clock over all versions.
pub fn compile_and_verify(spans: &mut Spans, parent: u64) -> Result<(Duration, Duration), String> {
    let (mut compile, mut verify) = (Duration::ZERO, Duration::ZERO);
    for (name, src) in flashed::versions::all() {
        let t = Instant::now();
        let module = popcorn::compile(&src, "flashed", name, &popcorn::Interface::new())
            .map_err(|e| format!("compile {name}: {e}"))?;
        compile += t.elapsed();
        spans.close("popcorn.compile", parent, t);
        let t = Instant::now();
        tal::verify_module(&module, &tal::NoAmbientTypes)
            .map_err(|e| format!("verify {name}: {e}"))?;
        verify += t.elapsed();
        spans.close("tal.verify", parent, t);
    }
    Ok((compile, verify))
}

/// Median over `reps` batches of the per-call time of `f` over `items`,
/// in nanoseconds.
fn per_call_ns<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for it in items {
                f(it);
            }
            t.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&runs).expect("reps > 0")
}

/// `http.parse_ns` and `http.render_ns`: `parse_request` over the
/// workload's request lines and `Response::render` over its documents.
pub fn http(fx: &Fixture) -> Result<(f64, f64), String> {
    let reqs: Vec<&String> = fx.requests.iter().cycle().take(4096).collect();
    for r in &reqs {
        let parsed = flashed::parse_request(r).ok_or("request does not parse")?;
        fx.paths
            .iter()
            .find(|p| **p == parsed.path())
            .ok_or("parsed path is not a document")?;
    }
    let parse = per_call_ns(&reqs, 9, |r| {
        std::hint::black_box(flashed::parse_request(std::hint::black_box(r)));
    });
    let responses: Vec<Response> = fx
        .contents
        .iter()
        .cycle()
        .take(1024)
        .map(|body| Response {
            status: 200,
            headers: vec![("Content-Length".into(), body.len().to_string())],
            body: body.clone(),
        })
        .collect();
    let render = per_call_ns(&responses, 9, |r| {
        std::hint::black_box(std::hint::black_box(r).render());
    });
    Ok((parse, render))
}

/// `fs.miss_read_us_p50`: `AsyncFs::submit` of a read that misses the
/// cache until `poll` hands back its completion: the helper hand-off, as
/// the fixture has no device latency. The cache holds one entry and
/// reads cycle through the documents, so every read misses.
pub fn miss_read_us(fx: &Fixture, reads: usize) -> Result<f64, String> {
    let afs = AsyncFs::new(fx.fs(), SERVE.helpers, 1);
    let mut lat = Vec::with_capacity(reads);
    for i in 0..reads {
        let path = &fx.paths[i % fx.paths.len()];
        let t = Instant::now();
        let ticket = afs.submit(path);
        loop {
            if let Some(c) = afs.poll().into_iter().find(|c| c.ticket == ticket) {
                if c.content.as_deref() != Some(fx.contents[i % fx.paths.len()].as_str()) {
                    return Err(format!("read of {path} returned other content"));
                }
                break;
            }
            if t.elapsed() > Duration::from_secs(5) {
                return Err(format!("read of {path} never completed"));
            }
            std::thread::yield_now();
        }
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    quantile(&mut lat, 0.5).ok_or_else(|| "no reads".into())
}

/// `vm.guest_us_per_req`: a blocking `Server::serve` over a batch on v4
/// at zero device latency, per request (median of several batches).
pub fn guest_us_per_req(fx: &Fixture, batch: usize) -> Result<f64, String> {
    let (name, src) = &flashed::versions::all()[3];
    let mut server = Server::start(LinkMode::Updateable, src, name, fx.fs())
        .map_err(|e| format!("boot {name}: {e}"))?;
    let mut rng = flashed::Rng::seed_from_u64(0x9e57);
    let mut runs = Vec::new();
    for rep in 0..6 {
        let reqs: Vec<String> = (0..batch)
            .map(|_| fx.requests[fx.draw(&mut rng)].clone())
            .collect();
        server.push_requests(reqs);
        let t = Instant::now();
        server.serve().map_err(|e| format!("serve: {e}"))?;
        let per = t.elapsed().as_secs_f64() * 1e6 / batch as f64;
        let done = server.take_completions();
        if done.len() != batch || done.iter().any(|c| fx.served(&c.response).is_none()) {
            return Err("blocking serve returned wrong responses".into());
        }
        // The first batch fills the guest cache; time the rest.
        if rep > 0 {
            runs.push(per);
        }
    }
    median(&runs).ok_or_else(|| "no batches".into())
}

/// `core.worker_state_bytes` and `alloc.bytes_per_update`: one server
/// walked forward v1→v5, serving between updates; the persisted worker
/// state after the walk, and the bytes each `apply_pending_now` call
/// allocated.
pub fn forward_walk(fx: &Fixture, patches: &[GeneratedPatch]) -> Result<(f64, f64), String> {
    let mut server = Server::start(
        LinkMode::Updateable,
        &flashed::versions::v1(),
        "v1",
        fx.fs(),
    )
    .map_err(|e| format!("boot v1: {e}"))?;
    let mut allocated = 0u64;
    for gp in patches {
        server.push_requests(fx.requests.iter().cloned());
        server.serve().map_err(|e| format!("serve: {e}"))?;
        server.queue_patch(gp.patch.clone());
        let before = alloc::bytes();
        let applied = server
            .apply_pending_now()
            .map_err(|e| format!("apply {}: {e}", gp.patch.to_version))?;
        allocated += alloc::bytes() - before;
        if applied != 1 {
            return Err(format!("{applied} patches applied, expected 1"));
        }
    }
    let state = server.updater.save_worker_state();
    Ok((state.len() as f64, allocated as f64 / patches.len() as f64))
}
