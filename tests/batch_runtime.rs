//! Acceptance tests for the resilient batch-execution runtime, pinned
//! across the crate boundary:
//!
//! 1. A batch over the whole conformance corpus plus a wedge-pinned
//!    scenario under a 2-second per-job deadline ends with the wedged job
//!    `deadline-exceeded`, every other job completed normally, and a
//!    balanced outcome ledger (`submitted == completed + failed +
//!    cancelled + rejected`).
//! 2. An injected worker panic is contained as a structured failure
//!    without poisoning the pool: the same worker keeps serving jobs and
//!    every spawned worker joins.
//! 3. Deterministic cancellation is bit-identical (property-based): a run
//!    cut at simulated cycle K reports `DeadlineExceeded` on exactly K in
//!    stepped and fast-forward execution with identical partial stats,
//!    and its telemetry windows are a prefix of the full run's.

use std::time::Duration;

mod common;

use common::{check, int};
use scalagraph_suite::algo::algorithms::Bfs;
use scalagraph_suite::conformance::scenario::{
    AlgoSpec, ConfigSpec, Expectation, Family, ModeMatrix,
};
use scalagraph_suite::conformance::{GraphSource, GraphSpec, Scenario};
use scalagraph_suite::graph::{generators, Csr};
use scalagraph_suite::runtime::{BatchRuntime, FailureReason, JobSpec, JobStatus, RuntimeConfig};
use scalagraph_suite::scalagraph::{ScalaGraphConfig, SimError, Simulator};
use scalagraph_suite::telemetry::Recorder;

/// Loads every scenario of the repository's conformance corpus, in
/// deterministic (sorted filename) order.
fn corpus_scenarios() -> Vec<Scenario> {
    common::corpus_files()
        .iter()
        .map(|(path, text)| Scenario::from_json_str(text).unwrap_or_else(|e| panic!("{path}: {e}")))
        .collect()
}

/// A small healthy scenario that converges in milliseconds.
fn healthy(name: &str, seed: u64) -> Scenario {
    Scenario {
        name: name.into(),
        graph: GraphSpec {
            family: Family::Uniform {
                vertices: 64,
                edges: 256,
                seed,
            },
            symmetrize: false,
            max_weight: 0,
            weight_seed: 0,
            source: GraphSource::Generate,
        },
        algo: AlgoSpec::Bfs { root: 0 },
        config: ConfigSpec::small(),
        fault_seed: 0,
        faults: Vec::new(),
        modes: ModeMatrix::sim_only(),
        expect: Expectation::Converge,
        strict_frontier: None,
        synthetic_bug: false,
        mutations: None,
    }
}

#[test]
fn batch_over_corpus_deadline_kills_the_wedge_and_balances() {
    let mut specs = Vec::new();
    let mut wedge_names = Vec::new();
    for mut scenario in corpus_scenarios() {
        if matches!(scenario.expect, Expectation::Wedge { .. }) {
            // Pin the wedge open: disable the watchdog (which would
            // otherwise diagnose the stall as a structured failure) and
            // force the dense reference — the idle skip would leap a
            // watchdog-free wedge straight to the cycle cap — so only the
            // runtime's wall-clock deadline can end the job.
            scenario.config.watchdog_stall_cycles = 0;
            scenario.modes.fast_forward = false;
            wedge_names.push(scenario.name.clone());
        }
        specs.push(JobSpec::new(scenario));
    }
    assert!(
        !wedge_names.is_empty(),
        "corpus must contain a wedge scenario"
    );

    let submitted = specs.len();
    let config = RuntimeConfig {
        workers: 4,
        queue_capacity: submitted,
        default_deadline: Some(Duration::from_secs(2)),
        ..RuntimeConfig::default()
    };
    let report = BatchRuntime::new(config).run(specs);

    assert!(report.balanced(), "{}", report.render());
    assert_eq!(report.workers_spawned, 4);
    assert_eq!(
        report.workers_joined, report.workers_spawned,
        "no leaked workers"
    );
    assert_eq!(report.outcomes.len(), submitted);

    for outcome in &report.outcomes {
        if wedge_names.contains(&outcome.name) {
            match &outcome.status {
                JobStatus::DeadlineExceeded { at_cycle: Some(c) } => {
                    assert!(*c >= 1, "engine observed the expiry mid-run");
                }
                other => panic!("wedge must be deadline-killed, got {other:?}"),
            }
            assert!(
                outcome.wall_ms >= 1000,
                "the wedge should have run until its 2s deadline, ended after {}ms",
                outcome.wall_ms
            );
        } else {
            assert!(
                matches!(outcome.status, JobStatus::Completed { .. }),
                "healthy corpus job {} must complete, got {:?}",
                outcome.name,
                outcome.status
            );
        }
    }

    let wedges = wedge_names.len() as u64;
    let c = &report.counters;
    assert_eq!(c.submitted, submitted as u64);
    assert_eq!(c.completed, submitted as u64 - wedges);
    assert_eq!(
        c.cancelled, wedges,
        "every wedge lands in the cancelled bucket"
    );
    assert_eq!(c.deadline_kills, wedges);
    assert_eq!(c.failed, 0);
    assert_eq!(c.rejected, 0);
    assert_eq!(c.panics_contained, 0);
}

#[test]
fn injected_worker_panic_is_contained_without_poisoning_the_pool() {
    // One worker, a panic bomb in the middle: the SAME thread must survive
    // the panic and complete the job behind it.
    let mut bomb = JobSpec::new(healthy("panic-bomb", 5));
    bomb.inject_panic = true;
    let specs = vec![
        JobSpec::new(healthy("before-bomb", 3)),
        bomb,
        JobSpec::new(healthy("after-bomb", 4)),
    ];
    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 8,
        ..RuntimeConfig::default()
    };
    let report = BatchRuntime::new(config).run(specs);

    assert!(report.balanced(), "{}", report.render());
    assert_eq!(report.workers_spawned, 1);
    assert_eq!(report.workers_joined, 1, "the panicking worker still joins");
    assert_eq!(report.counters.panics_contained, 1);
    assert_eq!(report.counters.completed, 2);
    assert_eq!(report.counters.failed, 1);

    assert!(matches!(
        report.outcomes[0].status,
        JobStatus::Completed { .. }
    ));
    match &report.outcomes[1].status {
        JobStatus::Failed {
            reason: FailureReason::Panicked { message },
        } => assert!(message.contains("injected"), "{message}"),
        other => panic!("bomb must fail as a contained panic, got {other:?}"),
    }
    assert!(
        matches!(report.outcomes[2].status, JobStatus::Completed { .. }),
        "the worker that caught the panic keeps serving jobs"
    );
}

/// Rows of a telemetry table whose window closed strictly before `closed`.
fn closed_prefix<R: Copy>(rows: &[R], closed: u64, window_of: impl Fn(&R) -> u64) -> Vec<R> {
    rows.iter()
        .filter(|r| window_of(r) < closed)
        .copied()
        .collect()
}

#[test]
fn cancellation_at_cycle_k_is_bit_identical_across_modes_and_a_prefix_of_the_full_run() {
    check(10, |rng| {
        let seed = int(rng, 0u64..6);
        let num = int(rng, 1u64..8);

        const WINDOW: u64 = 64;
        let g = Csr::from_edges(300, &generators::uniform(300, 2200, seed));
        let algo = Bfs::from_root(0);
        let cfg = ScalaGraphConfig::with_pes(32);

        // The uninterrupted run, recorded.
        let mut full_rec = Recorder::new(WINDOW);
        let full = Simulator::try_new(&algo, &g, cfg.clone())
            .and_then(|mut s| s.try_run_with(&mut full_rec))
            .expect("full run converges");
        assert!(full.stats.cycles > 8, "graph too small to interrupt");
        let k = (full.stats.cycles * num / 8).max(1);

        // The same run cut at simulated cycle K, stepped and fast-forward.
        let run_limited = |fast_forward: bool| {
            let mut c = cfg.clone();
            c.cycle_limit = Some(k);
            c.fast_forward = fast_forward;
            let mut rec = Recorder::new(WINDOW);
            let err = Simulator::try_new(&algo, &g, c)
                .and_then(|mut s| s.try_run_with(&mut rec))
                .expect_err("cycle limit below convergence must interrupt");
            (err, rec)
        };
        let (err_stepped, rec_stepped) = run_limited(false);
        let (err_ff, rec_ff) = run_limited(true);

        // Typed error on exactly cycle K, identical partial stats in both
        // execution modes.
        match (&err_stepped, &err_ff) {
            (
                SimError::DeadlineExceeded {
                    cycle: c1,
                    partial: p1,
                },
                SimError::DeadlineExceeded {
                    cycle: c2,
                    partial: p2,
                },
            ) => {
                assert_eq!(*c1, k);
                assert_eq!(*c2, k);
                assert_eq!(p1, p2, "partial stats diverge across modes");
            }
            other => panic!("expected DeadlineExceeded twice, got {:?}", other),
        }

        // Telemetry of the interrupted run is bit-identical across modes...
        assert_eq!(rec_stepped.run_cycles(), k);
        assert_eq!(rec_stepped.run_cycles(), rec_ff.run_cycles());
        assert_eq!(rec_stepped.tile_windows(), rec_ff.tile_windows());
        assert_eq!(rec_stepped.hbm_windows(), rec_ff.hbm_windows());
        assert_eq!(rec_stepped.link_windows(), rec_ff.link_windows());

        // ...and every fully-closed window is identical to the same window
        // of the uninterrupted run: cancellation only truncates history, it
        // never rewrites it. (The final window is excluded: it may be
        // partial in the interrupted run.)
        let closed = (k / WINDOW).saturating_sub(1);
        assert_eq!(
            closed_prefix(rec_stepped.tile_windows(), closed, |r| r.window),
            closed_prefix(full_rec.tile_windows(), closed, |r| r.window)
        );
        assert_eq!(
            closed_prefix(rec_stepped.hbm_windows(), closed, |r| r.window),
            closed_prefix(full_rec.hbm_windows(), closed, |r| r.window)
        );
        assert_eq!(
            closed_prefix(rec_stepped.link_windows(), closed, |r| r.window),
            closed_prefix(full_rec.link_windows(), closed, |r| r.window)
        );
    });
}
