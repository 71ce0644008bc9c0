//! Seeded truncation and mutation of real durable artifacts through the
//! shared JSON parser and both decoders built on it.
//!
//! The inputs are what a FlashEd worker actually persists after walking
//! v1 -> v5: its snapshot ring (`SnapshotRing::save`) and its write-ahead
//! journal (JSONL). Each is cut at seeded points and hit with seeded
//! single-byte mutations, and every variant goes through `json::parse`,
//! `Event::from_json` and `SnapshotRing::load`. The only property checked
//! is that each call returns instead of panicking: a cut that lands on a
//! record boundary still decodes cleanly, and detecting such truncation
//! needs framed, checksummed records (ROADMAP item 4), out of scope here.

use dsu_core::SnapshotRing;
use dsu_obs::{json, Event, Journal};
use flashed::{patch_stream, versions, Rng, Server, SimFs, Workload};
use vm::LinkMode;

const VARIANTS: usize = 256;

/// Bytes a mutation draws from half the time: JSON structure, digits and
/// literal starts, so mutations reach the parser's branches rather than
/// only the insides of strings.
const STRUCTURAL: &[u8] = b"{}[]\",:\\-+.0123456789eEtfnu \t\n";

/// A v5 ring and the journal of the walk that built it.
fn artifacts() -> (String, String) {
    let fs = SimFs::generate_fixed(8, 256, 1);
    let mut wl = Workload::new(fs.paths(), 1.0, 2);
    let mut server = Server::start(LinkMode::Updateable, &versions::v1(), "v1", fs).unwrap();
    let journal = Journal::new();
    server.updater.set_journal(journal.clone(), None);
    for gen in patch_stream().unwrap() {
        server.push_requests(wl.batch(20));
        server.queue_patch(gen.patch);
        server.serve().unwrap();
    }
    // `save_state` frames the ring as `ring <len>\n<ring text>`.
    let state = server.updater.save_state();
    let rest = state.strip_prefix("dsu-updater-state 1\nring ").unwrap();
    let (len, rest) = rest.split_once('\n').unwrap();
    let ring = rest[..len.parse::<usize>().unwrap()].to_string();
    assert_eq!(SnapshotRing::load(&ring).unwrap().len(), 4);
    (ring, journal.to_jsonl())
}

fn exercise(text: &str) {
    let _ = json::parse(text);
    let _ = SnapshotRing::load(text);
    for line in text.lines() {
        let _ = json::parse(line);
        let _ = Event::from_json(line);
    }
}

fn floor_boundary(text: &str, mut i: usize) -> usize {
    while !text.is_char_boundary(i) {
        i -= 1;
    }
    i
}

#[test]
fn truncated_and_mutated_artifacts_never_panic() {
    let (ring, jsonl) = artifacts();
    assert!(jsonl.lines().all(|l| Event::from_json(l).is_ok()));
    let mut rng = Rng::seed_from_u64(0x5eed);
    for input in [&ring, &jsonl] {
        exercise(input);
        for _ in 0..VARIANTS {
            let cut = floor_boundary(input, rng.gen_range_usize(0, input.len()));
            exercise(&input[..cut]);
        }
        for _ in 0..VARIANTS {
            let mut bytes = input.clone().into_bytes();
            let at = rng.gen_range_usize(0, bytes.len() - 1);
            bytes[at] = if rng.gen_bool() {
                *rng.choose(STRUCTURAL)
            } else {
                rng.gen_range_usize(0, 0x7f) as u8
            };
            // A byte swapped into a multi-byte character breaks UTF-8; the
            // lossy decode keeps the rest of the text as it was.
            exercise(&String::from_utf8_lossy(&bytes));
        }
    }
}
