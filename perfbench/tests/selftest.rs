//! Self-test of the benchmark: the expected verdicts its workloads assert
//! agree with the explicit-state oracles, inputs are deterministic, and
//! the exact per-layer counts repeat between two runs with one seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build works too, several times slower).

use getafix_boolprog::{explicit_reachable_label, parse_concurrent, parse_program, Cfg};
use getafix_conc::{conc_explicit_reachable, merge, ConcLimits};
use getafix_perfbench::inputs::{Inputs, Pipeline, Program, Rng, Workload};
use getafix_perfbench::report::RoundCounts;
use getafix_perfbench::run::timed_loop;
use getafix_workloads::{driver, DriverSpec};
use std::collections::BTreeSet;

/// The explicit oracle's verdict for `p`.
fn oracle(p: &Program) -> bool {
    match p.pipeline {
        Pipeline::SeqTrace | Pipeline::SeqVerdict => {
            let program = parse_program(&p.source).expect("generated source parses");
            let cfg = Cfg::build(&program).expect("generated program lowers");
            explicit_reachable_label(&cfg, &p.label, 20_000_000)
                .unwrap_or_else(|e| panic!("{}: oracle: {e}", p.name))
                .unwrap_or_else(|| panic!("{}: no label {}", p.name, p.label))
                .reachable
        }
        Pipeline::ConcTrace { switches } => {
            let conc = parse_concurrent(&p.source).expect("generated source parses");
            let merged = merge(&conc).expect("threads merge");
            let pc = merged.cfg.label(&p.label).expect("target label");
            conc_explicit_reachable(&merged, &[pc], switches, ConcLimits::default())
                .unwrap_or_else(|e| panic!("{}: oracle: {e}", p.name))
        }
    }
}

fn assert_oracle_agrees(programs: &[Program]) {
    for p in programs {
        assert_eq!(
            oracle(p),
            p.expect_reachable,
            "{}: expected verdict disagrees with oracle",
            p.name
        );
    }
}

/// Every program of every workload: the pools are fixed, the seed only
/// orders and draws from them.
#[test]
fn expected_verdicts_agree_with_the_explicit_oracles() {
    for w in Workload::ALL {
        assert_oracle_agrees(&Inputs::generate(w, 7).programs);
    }
}

#[test]
fn drivers_from_fresh_seeds_have_the_expected_verdicts() {
    // Seeds the workload crate's own tests never use.
    let mut rng = Rng::new(0xD00D_F00D);
    let shapes = [(6, 3, 8), (8, 5, 10), (6, 8, 8), (7, 12, 12)];
    let mut drivers = Vec::new();
    for (i, (handlers, globals, locals)) in shapes.into_iter().enumerate() {
        for positive in [true, false] {
            let spec =
                DriverSpec { handlers, globals, locals, filler: 4, positive, seed: rng.next_u64() };
            let case = driver(&format!("fresh-{i}-{positive}"), spec);
            drivers.push(Program {
                name: case.name,
                source: case.program.to_string().into(),
                label: case.label,
                pipeline: Pipeline::SeqVerdict,
                expect_reachable: case.expect_reachable,
            });
        }
    }
    assert_oracle_agrees(&drivers);
}

#[test]
fn same_seed_gives_identical_requests() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, 42);
        let b = Inputs::generate(w, 42);
        assert_eq!(a.digest(), b.digest(), "{w}");
        assert_eq!(a.order, b.order, "{w}");
        let c = Inputs::generate(w, 43);
        assert_ne!(a.digest(), c.digest(), "{w}: seeds 42 and 43 gave the same requests");
    }
}

/// Every round names every program once, so the first round's counts
/// cover the whole workload for any seed; `driver-deep` has exactly one
/// round, so no driver repeats in a run.
#[test]
fn every_round_names_every_program_once() {
    for w in Workload::ALL {
        for seed in [1, 2, 3] {
            let inputs = Inputs::generate(w, seed);
            let all: Vec<usize> = (0..inputs.programs.len()).collect();
            assert_eq!(inputs.round_len, all.len(), "{w}");
            assert_eq!(inputs.order.len() % inputs.round_len, 0, "{w}: a partial round");
            for round in inputs.order.chunks(inputs.round_len).take(3) {
                let mut names = round.to_vec();
                names.sort_unstable();
                assert_eq!(names, all, "{w} seed {seed}");
            }
        }
    }
    let deck = Inputs::generate(Workload::DriverDeep, 5);
    assert_eq!(deck.order.len(), deck.round_len, "driver-deep checks each driver once");
}

/// One short round of `w`: the first round's requests that name one of
/// its `keep` smallest programs, so a smoke run stays quick.
fn smoke_inputs(w: Workload, seed: u64, keep: usize) -> Inputs {
    let mut inputs = Inputs::generate(w, seed);
    let first_round = inputs.order[..inputs.round_len].to_vec();
    let round: BTreeSet<usize> = first_round.iter().copied().collect();
    let mut by_size: Vec<usize> = round.into_iter().collect();
    by_size.sort_by_key(|&i| (inputs.programs[i].source.len(), i));
    let kept: BTreeSet<usize> = by_size.into_iter().take(keep).collect();
    let order: Vec<usize> = first_round.into_iter().filter(|i| kept.contains(i)).collect();
    inputs.round_len = order.len();
    inputs.order = order;
    inputs
}

/// The counts the benchmark reports as exact: each must repeat between two
/// runs with one seed.
const EXACT: [&str; 5] = [
    "mucalc.reevaluations",
    "bdd.cache_lookups",
    "core.bdd_vars",
    "witness.trace_steps",
    "conc.search_states",
];

#[test]
fn smoke_runs_are_correct_and_their_counts_repeat() {
    for (w, keep) in [(Workload::CegarStream, 40), (Workload::DriverDeep, 4)] {
        let inputs = smoke_inputs(w, 3, keep);
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let timed = timed_loop(&inputs, 0, false);
                let failures: Vec<_> =
                    timed.samples.iter().filter_map(|s| s.failure.clone()).collect();
                assert!(failures.is_empty(), "{w}: {failures:?}");
                assert_eq!(timed.samples.len(), inputs.round_len, "{w}: one whole round");
                RoundCounts::of_first_round(&inputs, &timed.samples).metrics()
            })
            .collect();
        let mut not_repeating = Vec::new();
        for (a, b) in runs[0].iter().zip(&runs[1]) {
            assert_eq!(a.name, b.name);
            if a.value != b.value {
                not_repeating.push(format!("{}: {} vs {}", a.name, a.value, b.value));
            }
        }
        // Every other count is reported, not asserted: only the exact
        // ones may carry a claim.
        if !not_repeating.is_empty() {
            eprintln!("{w}: counts that do not repeat: {not_repeating:?}");
        }
        for name in EXACT {
            assert!(
                !not_repeating.iter().any(|r| r.starts_with(&format!("{name}:"))),
                "{w}: exact count {name} did not repeat: {not_repeating:?}"
            );
        }
        let exercised = |name: &str| runs[0].iter().any(|m| m.name == name && m.value > 0.0);
        assert!(exercised("mucalc.reevaluations") && exercised("core.bdd_vars"), "{w}");
        match w {
            Workload::CegarStream => {
                assert!(exercised("witness.trace_steps"), "{w}");
                assert!(exercised("conc.search_states"), "{w}: no concurrent witness");
            }
            Workload::DriverDeep => assert!(!exercised("mucalc.provenance_nodes"), "{w}"),
        }
    }
}
