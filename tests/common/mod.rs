//! A seeded case runner for the property tests, and the conformance
//! corpus they and the end-to-end tests start from.
//!
//! Each case draws its inputs from its own [`SplitMix64`] stream, so a run
//! is a pure function of the case count and the runner seed, on any host.
//! A failing case prints its index and seed before the failure propagates,
//! and `replay(seed, property)` reruns exactly that case.
//!
//! [`check`] runs a given count from the fixed [`RUNNER_SEED`];
//! [`sweep`], the `#[ignore]`d long fuzz sweeps' runner, runs
//! [`SWEEP_CASES`] from the runner seed in `SCALAGRAPH_FUZZ_SEED`.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub use scalagraph_suite::graph::SplitMix64;

/// Seed of the stream the per-case seeds are drawn from.
const RUNNER_SEED: u64 = 0x5ca1_ab1e_c0de_5eed;

/// Case count of a [`sweep`].
const SWEEP_CASES: u64 = 1_000_000;

/// Runs `property` on `cases` seeded cases.
pub fn check(cases: u64, property: impl Fn(&mut SplitMix64)) {
    run(cases, RUNNER_SEED, property);
}

/// Runs `property` on [`SWEEP_CASES`] cases drawn from runner seed
/// `SCALAGRAPH_FUZZ_SEED` (decimal; [`check`]'s seed when unset).
///
/// # Panics
///
/// If the variable is set but is not a decimal `u64`.
pub fn sweep(property: impl Fn(&mut SplitMix64)) {
    let runner = match std::env::var("SCALAGRAPH_FUZZ_SEED") {
        Ok(text) => text
            .parse()
            .unwrap_or_else(|_| panic!("SCALAGRAPH_FUZZ_SEED={text:?} is not a decimal u64")),
        Err(_) => RUNNER_SEED,
    };
    eprintln!("sweep: {SWEEP_CASES} cases from runner seed {runner}");
    run(SWEEP_CASES, runner, property);
}

fn run(cases: u64, runner: u64, property: impl Fn(&mut SplitMix64)) {
    let mut seeds = SplitMix64::new(runner);
    for case in 0..cases {
        let seed = seeds.next_u64();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| replay(seed, &property))) {
            eprintln!(
                "property failed on case {case} of {cases} (runner seed {runner}); rerun it \
                 alone with `common::replay({seed:#x}, property)`"
            );
            resume_unwind(payload);
        }
    }
}

/// Runs `property` once, on the case seeded with `seed`.
pub fn replay(seed: u64, property: impl Fn(&mut SplitMix64)) {
    property(&mut SplitMix64::new(seed));
}

/// A uniform draw from the half-open `range`.
pub fn int<T: TryFrom<u64> + TryInto<u64>>(rng: &mut SplitMix64, range: Range<T>) -> T {
    let bounds = (
        TryInto::<u64>::try_into(range.start),
        TryInto::<u64>::try_into(range.end),
    );
    let (Ok(lo), Ok(hi)) = bounds else {
        unreachable!("integer bounds fit in u64")
    };
    assert!(lo < hi, "empty range {lo}..{hi}");
    match T::try_from(rng.range(lo, hi - 1)) {
        Ok(x) => x,
        Err(_) => unreachable!("a draw inside the range fits its type"),
    }
}

/// A vector whose length is drawn from `len` and whose items come from
/// `item`.
pub fn vec<T>(
    rng: &mut SplitMix64,
    len: Range<usize>,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = int(rng, len);
    (0..n).map(|_| item(rng)).collect()
}

/// Every file of the repository's conformance corpus as (path, text), in
/// sorted path order.
pub fn corpus_files() -> Vec<(String, String)> {
    let dir = format!("{}/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus/ directory must exist")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus must not be empty");
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable corpus file");
            (p, text)
        })
        .collect()
}
