//! The `scalagraph-sim` run mode reads its numeric flags strictly: a value
//! that does not parse, or a PE count the mesh cannot be built from, is a
//! usage error (exit 2), never a silent run on a default or a panic.

use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scalagraph-sim"))
        .args(args)
        .output()
        .expect("the binary starts")
}

#[test]
fn malformed_run_flags_are_usage_errors() {
    let cases: [&[&str]; 11] = [
        &["--pes", "abc"],
        &["--pes", "48"],
        &["--pes", "0"],
        &["--scale", "zz"],
        &["--scale", "0"],
        &["--seed", "-1"],
        &["--algo", "pagerank", "--iters", "x"],
        &["--agg", "many"],
        &["--sched", "1.5"],
        &["--watchdog", "soon"],
        &["--fast-forward"],
    ];
    for args in cases {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

#[test]
fn a_well_formed_but_invalid_config_is_still_a_config_error() {
    // `--sched 99` parses, so it reaches configuration validation: exit 1.
    let out = sim(&["--scale", "8192", "--pes", "32", "--sched", "99"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("scheduler width"), "{stderr}");
}
