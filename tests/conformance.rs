//! Tier-1 conformance: every checked-in corpus scenario replays clean, the
//! fuzzer is deterministic, and the shrinker minimizes a synthetic
//! divergence down to a trivial graph.
//!
//! The corpus is the regression memory of the differential harness: every
//! file in `corpus/` is replayed here on every declared engine/mode
//! combination, and the files themselves are pinned to the canonical
//! serialization so a drive-by edit cannot silently de-canonicalize them.

mod common;

use common::corpus_files;
use scalagraph_suite::conformance::{
    fuzz, json, run_scenario, shrink, signature, AlgoSpec, ConfigSpec, Expectation, Family,
    GraphSource, GraphSpec, ModeMatrix, Outcome, Scenario,
};

#[test]
fn corpus_scenarios_are_canonical_and_pass() {
    for (path, text) in corpus_files() {
        let scenario =
            Scenario::from_json_str(&text).unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
        assert_eq!(
            scenario.to_json_string(),
            text,
            "{path} is not in canonical form — regenerate with \
             `cargo run -p scalagraph-conformance --example gen_corpus`"
        );
        let file_stem = path.rsplit('/').next().unwrap().trim_end_matches(".json");
        assert_eq!(
            scenario.name, file_stem,
            "{path}: name must match file stem"
        );
        let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(report.passed(), "{path} diverged:\n{}", report.render());
    }
}

#[test]
fn corpus_replays_are_byte_identical() {
    // A mismatch report must be reproducible byte for byte, or a corpus
    // repro would be useless as a debugging artifact.
    for (path, text) in corpus_files() {
        let scenario = Scenario::from_json_str(&text).unwrap();
        let a = run_scenario(&scenario).unwrap_or_else(|e| panic!("{path}: {e}"));
        let b = run_scenario(&scenario).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(a, b, "{path}: reports must be identical across replays");
        assert_eq!(a.render(), b.render());
    }
}

/// Regression (empty apply-work waves): a wave that consumes a non-empty
/// frontier but produces nothing to apply — BFS from a zero-out-degree
/// star leaf, or a path's trailing vertex — must be counted as an
/// iteration by every engine, pipelined or not.
#[test]
fn empty_apply_work_waves_count_identically_everywhere() {
    let cases = [
        (Family::Star { vertices: 64 }, 5u32, 1u64),
        (Family::Path { vertices: 12 }, 0, 12),
        (Family::Path { vertices: 3 }, 0, 3),
    ];
    for (family, root, want_iterations) in cases {
        for pipelining in [false, true] {
            let scenario = Scenario {
                name: format!("iteration-identity-{root}-{pipelining}"),
                graph: GraphSpec {
                    family,
                    symmetrize: false,
                    max_weight: 0,
                    weight_seed: 0,
                    source: GraphSource::Generate,
                },
                algo: AlgoSpec::Bfs { root },
                config: ConfigSpec {
                    inter_phase_pipelining: pipelining,
                    ..ConfigSpec::small()
                },
                fault_seed: 0,
                faults: Vec::new(),
                modes: ModeMatrix::full(),
                // Single-vertex waves leave pipelining nothing to legally
                // reorder, so the comparison can stay strict.
                strict_frontier: Some(true),
                expect: Expectation::Converge,
                synthetic_bug: false,
                mutations: None,
            };
            let report = run_scenario(&scenario).unwrap();
            assert!(
                report.passed(),
                "pipelining={pipelining}:\n{}",
                report.render()
            );
            for o in &report.observations {
                match &o.outcome {
                    Outcome::Converged(d) => assert_eq!(
                        d.iterations, want_iterations,
                        "{} reported wrong iteration count (pipelining={pipelining})",
                        o.engine
                    ),
                    Outcome::Errored(e) => panic!("{} errored: {e:?}", o.engine),
                }
            }
        }
    }
}

/// Satellite wedge pin: the corpus wedge scenario must blame the exact
/// faulted unit in its stall snapshot, identically with fast-forward on.
#[test]
fn wedge_corpus_snapshot_names_the_faulted_unit() {
    let (path, text) = corpus_files()
        .into_iter()
        .find(|(p, _)| p.ends_with("wedge-hbm-stall-watchdog.json"))
        .expect("wedge scenario must stay in the corpus");
    let scenario = Scenario::from_json_str(&text).unwrap();
    assert!(
        scenario.modes.fast_forward,
        "{path}: must exercise fast-forward"
    );
    let report = run_scenario(&scenario).unwrap();
    assert!(report.passed(), "{}", report.render());
    let errored: Vec<_> = report
        .observations
        .iter()
        .filter_map(|o| match &o.outcome {
            Outcome::Errored(e) => Some((o.engine, e)),
            Outcome::Converged(_) => None,
        })
        .collect();
    assert_eq!(errored.len(), 3, "stepped, fast-forward and recording");
    for (engine, digest) in errored {
        assert_eq!(
            digest.suspect, "HBM pseudo-channel 0 of tile 0",
            "{engine} must blame the pinned channel"
        );
        assert!(digest.stalled_for >= 2_000, "{engine}: {digest:?}");
    }
}

/// Satellite wedge pin for the event-driven core: a mid-run HBM wedge must
/// trip the watchdog on the identical cycle with the identical stall count
/// on the core (fast-forward), in the dense reference (stepped) and in the
/// recording run — any drift in the core's skip/step decisions moves the
/// firing cycle.
#[test]
fn event_driven_corpus_wedge_fires_identically_across_modes() {
    let (path, text) = corpus_files()
        .into_iter()
        .find(|(p, _)| p.ends_with("wedge-event-driven-hbm-stall.json"))
        .expect("event-driven wedge scenario must stay in the corpus");
    let scenario = Scenario::from_json_str(&text).unwrap();
    assert!(
        scenario.modes.fast_forward,
        "{path}: must exercise the event-driven core"
    );
    let report = run_scenario(&scenario).unwrap();
    assert!(report.passed(), "{}", report.render());
    let errored: Vec<_> = report
        .observations
        .iter()
        .filter_map(|o| match &o.outcome {
            Outcome::Errored(e) => Some((o.engine, e)),
            Outcome::Converged(_) => None,
        })
        .collect();
    assert_eq!(errored.len(), 3, "stepped, fast-forward and recording");
    let (_, first) = errored[0];
    for (engine, digest) in &errored {
        assert_eq!(digest.cycle, first.cycle, "{engine} fired on another cycle");
        assert_eq!(digest.stalled_for, first.stalled_for, "{engine}");
        assert_eq!(digest.suspect, first.suspect, "{engine}");
        assert!(digest.stalled_for >= 1_500, "{engine}: {digest:?}");
    }
}

/// The bench harnesses' `--check` reads its baseline through `json::parse`,
/// so every checked-in report must parse, or CI's gate fails before it
/// measures anything. (`*.ci.json` are local, unversioned CI outputs.)
#[test]
fn checked_in_bench_reports_parse() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut reports = 0;
    for entry in std::fs::read_dir(root).expect("readable repository root") {
        let name = entry.expect("readable entry").file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") && !name.ends_with(".ci.json") {
            let text = std::fs::read_to_string(format!("{root}/{name}")).expect("readable report");
            let report = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                matches!(report, json::Json::Obj(_)),
                "{name} is not an object"
            );
            reports += 1;
        }
    }
    assert!(reports >= 4, "found {reports} BENCH_*.json reports");
}

#[test]
fn fuzz_campaigns_are_deterministic_and_clean() {
    let a = fuzz(25, 42);
    let b = fuzz(25, 42);
    assert_eq!(a.render(), b.render(), "same (budget, seed) must replay");
    assert_eq!(a.rejected, 0, "sampler must only produce valid scenarios");
    assert!(
        a.failures.is_empty(),
        "fuzzing found a real divergence:\n{}",
        a.render()
    );
    assert_eq!(a.passed, 25);
}

#[test]
fn shrinker_reduces_a_synthetic_bug_to_a_trivial_graph() {
    let scenario = Scenario {
        name: "synthetic-divergence".into(),
        graph: GraphSpec {
            family: Family::Rmat {
                vertices: 256,
                edges: 1024,
                seed: 5,
            },
            symmetrize: true,
            max_weight: 64,
            weight_seed: 1,
            source: GraphSource::Generate,
        },
        algo: AlgoSpec::Sssp { root: 200 },
        config: ConfigSpec {
            pes: 128,
            aggregation_registers: 4,
            ..ConfigSpec::small()
        },
        fault_seed: 0,
        faults: Vec::new(),
        modes: ModeMatrix::sim_only(),
        expect: Expectation::Converge,
        strict_frontier: None,
        synthetic_bug: true,
        mutations: None,
    };
    let report = run_scenario(&scenario).unwrap();
    assert!(!report.passed(), "the synthetic bug must surface");
    let sig = signature(&report).unwrap();
    assert_eq!(sig.field, "iterations");

    let out = shrink(&scenario, &report, 200);
    assert!(
        out.scenario.graph.family.vertices() <= 16,
        "shrinker stopped at {} vertices",
        out.scenario.graph.family.vertices()
    );
    assert_eq!(
        signature(&out.report),
        Some(sig),
        "minimization must preserve the divergence signature"
    );
    // The minimized scenario is corpus-ready: canonical JSON that replays
    // to the same failure.
    let text = out.scenario.to_json_string();
    let back = Scenario::from_json_str(&text).unwrap();
    assert_eq!(back, out.scenario);
    let replayed = run_scenario(&back).unwrap();
    assert_eq!(replayed, out.report);
}
