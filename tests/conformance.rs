//! Tier-1 conformance: every checked-in corpus scenario replays clean, the
//! fuzzer is deterministic, the shrinker minimizes a synthetic divergence
//! down to a trivial graph, and mutated scenario files either parse and
//! round-trip or fail with a typed error. Every fingerprint equals the
//! clone-and-print definition it replaced.
//!
//! The corpus is the regression memory of the differential harness: every
//! file in `corpus/` is replayed here on every declared engine/mode
//! combination, and the files themselves are pinned to the canonical
//! serialization so a drive-by edit cannot silently de-canonicalize them.

mod common;

use common::{corpus_files, int, SplitMix64};
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
/// The fingerprint as first defined: FNV-1a over the pretty-printed JSON
/// of a clone whose name is cleared.
fn reference_fingerprint(scenario: &Scenario) -> u64 {
    let mut anonymous = scenario.clone();
    anonymous.name.clear();
    anonymous
        .to_json_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

#[test]
fn fingerprints_equal_the_clone_and_print_definition() {
    for (path, text) in corpus_files() {
        let scenario = Scenario::from_json_str(&text).expect("corpus scenario parses");
        assert_eq!(
            scenario.fingerprint(),
            reference_fingerprint(&scenario),
            "{path}"
        );
    }
    let mut rng = SplitMix64::new(0xf1_9e4);
    for index in 0..1000 {
        let scenario = fuzz::sample_scenario(&mut rng, index);
        assert_eq!(
            scenario.fingerprint(),
            reference_fingerprint(&scenario),
            "sample {index}: {}",
            scenario.to_json_string()
        );
    }
}

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

/// Container levels of `v`: 0 for a scalar, 1 for a flat array or object.
fn depth(v: &json::Json) -> usize {
    match v {
        json::Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        json::Json::Obj(members) => 1 + members.iter().map(|(_, x)| depth(x)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A member: the member and item indexes leading to its object, its own
/// index, and whether its value is a number.
type Member = (Vec<usize>, usize, bool);

/// Every object member of `v`.
fn members(v: &json::Json, path: &mut Vec<usize>, out: &mut Vec<Member>) {
    let children: Vec<&json::Json> = match v {
        json::Json::Obj(members) => {
            out.extend(members.iter().enumerate().map(|(i, (_, x))| {
                let number = matches!(x, json::Json::Int(_) | json::Json::Float(_));
                (path.clone(), i, number)
            }));
            members.iter().map(|(_, x)| x).collect()
        }
        json::Json::Arr(items) => items.iter().collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        members(child, path, out);
        path.pop();
    }
}

/// The object members of the object at `path`.
fn object_at<'a>(v: &'a mut json::Json, path: &[usize]) -> &'a mut Vec<(String, json::Json)> {
    let target = path.iter().fold(v, |v, &i| match v {
        json::Json::Obj(members) => &mut members[i].1,
        json::Json::Arr(items) => &mut items[i],
        _ => unreachable!("paths only lead through containers"),
    });
    match target {
        json::Json::Obj(members) => members,
        _ => unreachable!("paths end at objects"),
    }
}

/// One seeded structural mutation of a scenario document: a member
/// dropped, repeated or retyped, a number replaced by an extreme, or a
/// value nested so the document reaches one level under or over the
/// parser's bound.
fn mutate_scenario(rng: &mut SplitMix64, doc: &mut json::Json) {
    use json::Json;
    let mut pool = Vec::new();
    members(doc, &mut Vec::new(), &mut pool);
    let kind = int(rng, 0..5);
    if kind == 3 {
        pool.retain(|&(_, _, number)| number);
    }
    if pool.is_empty() {
        return;
    }
    let (path, i, _) = &pool[int(rng, 0..pool.len())];
    let level = path.len() + 1;
    let object = object_at(doc, path);
    match kind {
        0 => {
            object.remove(*i);
        }
        1 => {
            let repeat = object[*i].clone();
            object.insert(*i + int(rng, 0..2), repeat);
        }
        2 => {
            object[*i].1 = match int(rng, 0..6) {
                0 => Json::Null,
                1 => Json::Bool(rng.chance(50)),
                2 => Json::Str("7".into()),
                3 => Json::Arr(vec![Json::Int(7)]),
                4 => Json::Obj(vec![("kind".into(), Json::Str("bfs".into()))]),
                _ => Json::Float(7.0),
            }
        }
        3 => {
            object[*i].1 = [
                Json::Int(0),
                Json::Int(u64::from(u32::MAX)),
                Json::Int(1 << 32),
                Json::Int(u64::MAX),
                Json::Float(-1.0),
                Json::Float(2.5),
            ][int(rng, 0..6)]
            .clone()
        }
        _ => {
            let target = [json::MAX_DEPTH - 1, json::MAX_DEPTH + 1][int(rng, 0..2)];
            let value = std::mem::replace(&mut object[*i].1, Json::Null);
            let wraps = target.saturating_sub(level + depth(&value));
            object[*i].1 = (0..wraps).fold(value, |v, _| Json::Arr(vec![v]));
        }
    }
}

/// The scenario fuzz: mutated corpus scenarios, one to three mutations
/// each, either parse and round-trip canonically or fail with a typed
/// error; a scenario that parsed is validated without a panic, and a
/// document nested past the parser's bound never parses. `run` is the case
/// runner the property goes through.
fn scenario_fuzz(run: impl FnOnce(&dyn Fn(&mut SplitMix64))) {
    let corpus: Vec<json::Json> = corpus_files()
        .iter()
        .map(|(path, text)| json::parse(text).unwrap_or_else(|e| panic!("{path}: {e}")))
        .collect();
    run(&|rng| {
        let mut doc = corpus[int(rng, 0..corpus.len())].clone();
        for _ in 0..int(rng, 1..4) {
            mutate_scenario(rng, &mut doc);
        }
        let text = if rng.chance(50) {
            doc.pretty()
        } else {
            doc.compact()
        };
        match Scenario::from_json_str(&text) {
            Ok(scenario) => {
                assert!(depth(&doc) <= json::MAX_DEPTH, "{text}");
                let canonical = scenario.to_json_string();
                let back = Scenario::from_json_str(&canonical).expect("the canonical form parses");
                assert_eq!(back, scenario, "{canonical}");
                assert_eq!(
                    back.to_json_string(),
                    canonical,
                    "the canonical text is stable"
                );
                let _ = scenario.validate();
            }
            Err(message) => assert!(!message.is_empty(), "{text}"),
        }
    });
}

#[test]
fn mutated_scenario_files_round_trip_or_fail_typed() {
    scenario_fuzz(|property| common::check(1000, property));
}

/// The scenario fuzz at the case count and seed of `common::sweep`.
#[test]
#[ignore = "long sweep; tier-1 runs 1,000 cases"]
fn mutated_scenario_files_long_sweep() {
    scenario_fuzz(|property| common::sweep(property));
}
