//! Orchestrated staged rollouts across shard fleets: cohort driving,
//! breach-triggered rollback chains, cross-fleet skew bounds, and crash
//! recovery from the write-ahead journal.

use std::time::Duration;

use dsu_obs::journal::validate_lifecycle;
use dsu_obs::{Journal, Stage};
use flashed::{
    patch_stream, versions, BreachAction, FaultPlan, Fleet, FleetConfig, FleetError, HealthBreach,
    Orchestrator, PauseSlo, RolloutOutcome, RolloutPlan, SimFs, WorkerOverride, Workload,
};

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(16, 256, 7);
    let wl = Workload::new(fs.paths(), 1.0, 41);
    (fs, wl)
}

/// Boots `shards` fleets of `per` workers each over one shared journal,
/// worker ids offset so journal tags and metric labels are global.
fn shard_fleets(
    shards: usize,
    per: usize,
    fs: &SimFs,
    journal: &Journal,
    fault: Option<(usize, usize, FaultPlan)>, // (shard, local worker, plan)
) -> Vec<Fleet> {
    (0..shards)
        .map(|s| {
            let mut cfg = FleetConfig::new(per)
                .with_journal(journal.clone())
                .worker_base(s * per);
            if let Some((fs_idx, w, plan)) = &fault {
                if *fs_idx == s {
                    cfg = cfg.override_worker(
                        *w,
                        WorkerOverride {
                            fault: *plan,
                            ..WorkerOverride::default()
                        },
                    );
                }
            }
            Fleet::start_cfg(&cfg, &versions::v1(), "v1", fs).unwrap()
        })
        .collect()
}

#[test]
fn staged_rollout_walks_cohorts_across_fleets() {
    let (fs, mut wl) = fixture();
    let journal = Journal::new();
    let fleets = shard_fleets(3, 4, &fs, &journal, None);
    for f in &fleets {
        f.push_requests(wl.batch(120));
    }

    let gen = &patch_stream().unwrap()[0]; // v1 -> v2
    let plan = RolloutPlan::staged(0, PauseSlo::p99(Duration::from_secs(5)), BreachAction::Hold)
        .with_soak(Duration::from_millis(10));
    let orch = Orchestrator::new(&fleets).skew_bound(1);
    let report = orch.rollout(&gen.patch, &plan).unwrap();

    // 1 worker -> 25% -> 100% over the 12-worker global set.
    assert_eq!(report.cohorts.len(), 3);
    assert_eq!(report.cohorts[0].workers, vec![0]);
    assert_eq!(report.cohorts[1].workers, vec![1, 2]);
    assert_eq!(report.cohorts[2].workers.len(), 9);
    // Soak windows separate cohorts but not the finish line.
    assert!(report.cohorts[0].soaked && report.cohorts[1].soaked);
    assert!(!report.cohorts[2].soaked);

    assert!(matches!(report.card.outcome, RolloutOutcome::Completed));
    assert!(report.card.converged(), "{:?}", report.card.final_versions);
    assert!(report.card.final_versions.iter().all(|v| v == "v2"));
    assert_eq!(report.fleet_report.applied.len(), 12);
    assert!(report.fleet_report.failed.is_empty());
    assert_eq!(report.fleets, 3);
    assert_eq!(report.resumed_from, 0);
    // At most two versions ever served at once, and the exposure window
    // is accounted for.
    assert!(report.max_skew <= 1);
    assert!(report.skew_window > Duration::ZERO);

    // The shared journal reconstructs full cohort progress, and every
    // update's lifecycle obeys the phase laws.
    assert_eq!(
        Orchestrator::completed_cohorts(&journal, &gen.patch, &plan, 12),
        3
    );
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }

    // The machine- and human-readable summaries cover the run.
    let json = report.to_json();
    dsu_obs::json::parse(&json).unwrap();
    assert!(json.contains("\"fleets\":3"), "{json}");
    assert!(json.contains("\"cohorts\":["), "{json}");
    let text = report.render();
    assert!(text.contains("cohort"), "{text}");

    for f in &fleets {
        f.drain(120).unwrap();
    }
    for f in fleets {
        f.shutdown().unwrap();
    }
}

#[test]
fn breach_in_the_quarter_cohort_chain_rolls_back_to_v1() {
    let (fs, mut wl) = fixture();
    let journal = Journal::new();
    // Global worker 1 (fleet 0, local 1) sits in the 25% cohort and
    // pauses 50ms past any reasonable budget. The margin between the
    // fault and the budget is deliberately wide: an unfaulted worker's
    // genuine debug-mode apply pause must never read as the breach.
    let fleets = shard_fleets(
        3,
        4,
        &fs,
        &journal,
        Some((
            0,
            1,
            FaultPlan {
                pause_delay: Some(Duration::from_millis(50)),
                ..FaultPlan::default()
            },
        )),
    );
    for f in &fleets {
        f.push_requests(wl.batch(120));
    }
    let stream = patch_stream().unwrap();
    let orch = Orchestrator::new(&fleets).skew_bound(2);

    // First hop v1 -> v2, ungated (the faulty worker's slow pause is an
    // operator-accepted cost here) — this seeds every ring with one
    // rollback hop.
    let r1 = orch
        .rollout(&stream[0].patch, &RolloutPlan::simultaneous())
        .unwrap();
    assert!(r1.card.final_versions.iter().all(|v| v == "v2"));

    // Second hop v2 -> v3, staged and gated: the canary passes, the 25%
    // cohort breaches, and the reaction walks the whole fleet's rollback
    // chains down to v1 — undoing the *previous* rollout too.
    let plan = RolloutPlan::staged(
        0,
        PauseSlo::p99(Duration::from_millis(20)),
        BreachAction::ChainRollBack {
            to_version: "v1".to_string(),
        },
    );
    for f in &fleets {
        f.push_requests(wl.batch(120));
    }
    let report = orch.rollout(&stream[1].patch, &plan).unwrap();

    match &report.card.outcome {
        RolloutOutcome::RolledBack(HealthBreach::PauseSlo {
            worker, observed, ..
        }) => {
            assert_eq!(*worker, 1);
            assert!(*observed >= Duration::from_millis(50));
        }
        other => panic!("expected a pause-SLO chain rollback, got {other:?}"),
    }
    // The breach stopped the plan inside cohort 1; the 100% cohort never
    // ran.
    assert_eq!(report.cohorts.len(), 2);
    assert_eq!(report.cohorts[1].workers, vec![1, 2]);

    // Chain rollback: the three v3 workers walked two hops each, the
    // nine v2 workers one hop — fifteen restores, all converging on v1.
    assert_eq!(report.card.rollbacks.len(), 15);
    assert!(report.card.converged(), "{:?}", report.card.final_versions);
    assert!(report.card.final_versions.iter().all(|v| v == "v1"));
    assert!(orch.live_versions().iter().all(|v| v == "v1"));

    // Mid-rollback, v1, v2 and v3 all served at once — the skew bound of
    // 2 held exactly.
    assert_eq!(report.max_skew, 2);
    assert!(report.skew_window > Duration::ZERO);

    // Every restore is journaled as a RolledBack lifecycle, and every
    // lifecycle (forward and backward, across both rollouts) validates.
    let rolled_back = journal
        .events()
        .iter()
        .filter(|e| e.stage == Stage::RolledBack)
        .count();
    assert_eq!(rolled_back, 15);
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }

    // Post-rollback traffic is served by v1 everywhere: v2+ responses
    // carry a Content-Type header, v1 responses do not.
    for f in &fleets {
        f.drain(240).unwrap();
        let before = f.completions().len();
        f.push_requests(wl.batch(40));
        f.drain(before + 40).unwrap();
        let done = f.completions();
        assert!(
            done[before..]
                .iter()
                .all(|c| !c.response.contains("Content-Type:")),
            "post-rollback responses must come from v1",
        );
    }
    for f in fleets {
        f.shutdown().unwrap();
    }
}

#[test]
fn orchestrator_resumes_from_the_persisted_journal() {
    let (fs, mut wl) = fixture();
    let dir = std::env::temp_dir().join(format!("dsu-orch-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("journal.jsonl");
    let journal = Journal::with_wal(&wal).unwrap();

    let fleets = shard_fleets(2, 2, &fs, &journal, None);
    for f in &fleets {
        f.push_requests(wl.batch(60));
    }
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2
    let plan = RolloutPlan {
        canary: 0,
        cohorts: vec![
            flashed::CohortSpec::Count(1),
            flashed::CohortSpec::Count(2),
            flashed::CohortSpec::Fraction(1.0),
        ],
        soak: Duration::ZERO,
        gate: Some(PauseSlo::p99(Duration::from_secs(5))),
        latency_slo: None,
        error_budget: None,
        on_breach: BreachAction::Hold,
    };

    // Drive exactly one cohort, then "crash" the orchestrator (drop it;
    // the worker fleets — separate processes in the deployment story —
    // keep serving).
    {
        let orch = Orchestrator::new(&fleets).skew_bound(1);
        let partial = orch.rollout_span(&gen.patch, &plan, 0, Some(1)).unwrap();
        assert_eq!(partial.cohorts.len(), 1);
        assert_eq!(partial.cohorts[0].workers, vec![0]);
    }

    // A fresh coordinator reads the WAL from disk and resumes at the
    // first incomplete cohort.
    let recovered = Journal::recover(&wal).unwrap();
    assert_eq!(
        Orchestrator::completed_cohorts(&recovered, &gen.patch, &plan, 4),
        1
    );
    let orch = Orchestrator::new(&fleets).skew_bound(1);
    let report = orch.resume(&gen.patch, &plan, &recovered).unwrap();
    assert_eq!(report.resumed_from, 1);
    assert_eq!(
        report.cohorts.iter().map(|c| c.index).collect::<Vec<_>>(),
        vec![1, 2]
    );
    assert!(matches!(report.card.outcome, RolloutOutcome::Completed));
    assert!(report.card.final_versions.iter().all(|v| v == "v2"));
    assert!(report.max_skew <= 1);

    // The persisted stream spans the crash: re-recovering from disk sees
    // all three cohorts committed and every lifecycle valid across the
    // restart boundary.
    let after = Journal::recover(&wal).unwrap();
    assert_eq!(
        Orchestrator::completed_cohorts(&after, &gen.patch, &plan, 4),
        3
    );
    assert!(!after.update_ids().is_empty());
    for id in after.update_ids() {
        validate_lifecycle(&after.events_for(id)).unwrap();
    }

    for f in &fleets {
        f.drain(60).unwrap();
    }
    for f in fleets {
        f.shutdown().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn skew_bound_violation_is_a_typed_error() {
    let (fs, mut wl) = fixture();
    let journal = Journal::new();
    let fleets = shard_fleets(2, 1, &fs, &journal, None);
    for f in &fleets {
        f.push_requests(wl.batch(40));
    }
    let gen = &patch_stream().unwrap()[0];

    // A zero bound forbids any version mix at all: the first worker's
    // apply necessarily crosses it.
    let orch = Orchestrator::new(&fleets).skew_bound(0);
    let err = orch
        .rollout(&gen.patch, &RolloutPlan::rolling())
        .unwrap_err();
    assert!(matches!(
        err,
        FleetError::SkewExceeded {
            observed: 1,
            bound: 0
        }
    ));
    assert_eq!(
        err.to_string(),
        "version skew 1 exceeded the configured bound 0"
    );

    for f in &fleets {
        f.drain(40).unwrap();
    }
    for f in fleets {
        f.shutdown().unwrap();
    }
}

/// A canary that names no worker is a caller bug: the rollout refuses it
/// up front instead of silently updating a different worker first.
#[test]
#[should_panic(expected = "canary 2 out of range (2 workers)")]
fn out_of_range_canary_is_refused() {
    let (fs, _) = fixture();
    let fleet = Fleet::start_cfg(&FleetConfig::new(2), &versions::v1(), "v1", &fs).unwrap();
    let plan = RolloutPlan::guarded(2, PauseSlo::p99(Duration::from_secs(5)), BreachAction::Hold);
    let _ = fleet.rollout_plan(&patch_stream().unwrap()[0].patch, &plan);
}
