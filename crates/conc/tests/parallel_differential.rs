//! 1-vs-N determinism for the concurrent (§5) engine at the granularity the
//! report binaries parallelise: whole solves. `fig3 --jobs N` and
//! `bench_report --jobs N` run independent bounded context-switch solves on
//! separate threads, each with its own solver and BDD manager. That is only
//! sound if a solve shares no state with its neighbours, so here the same
//! solve runs once on the calling thread and then on several threads at
//! once, and every concurrent run must be observably identical to the
//! sequential one — verdict, `Reach` model set and per-relation
//! re-evaluation counts.

use getafix_boolprog::{parse_concurrent, Pc};
use getafix_conc::{build_conc_solver_with, check_conc_solver, merge, Merged};
use getafix_mucalc::{SolveOptions, Strategy};
use std::collections::BTreeMap;

/// How many solves run at once in the concurrent half of each check.
const THREADS: usize = 4;

/// What one solve lets an observer see.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    verdict: bool,
    reach: Vec<Vec<bool>>,
    reevaluations: BTreeMap<String, usize>,
}

/// Builds and solves `merged` at the switch bound on the current thread.
fn run(merged: &Merged, targets: &[Pc], switches: usize) -> Observed {
    let options = SolveOptions::with_strategy(Strategy::Worklist);
    let mut solver = build_conc_solver_with(merged, targets, switches, options)
        .unwrap_or_else(|e| panic!("k={switches}: {e}"));
    let verdict = check_conc_solver(&mut solver, switches)
        .unwrap_or_else(|e| panic!("k={switches}: {e}"))
        .reachable;
    let interp = solver.evaluate("Reach").unwrap_or_else(|e| panic!("k={switches}: {e}"));
    let nparams = solver.system().relation("Reach").expect("Reach").params.len();
    let mut vars = Vec::new();
    for i in 0..nparams {
        vars.extend(solver.alloc().formal("Reach", i).all_vars());
    }
    let reach = solver.manager().all_models(interp, &vars);
    let reevaluations =
        solver.stats().relations.iter().map(|(n, r)| (n.clone(), r.reevaluations)).collect();
    Observed { verdict, reach, reevaluations }
}

/// Asserts the 1-vs-N contract for one program at switch bounds
/// `1..=max_k`, with `expect` the verdict at `max_k`.
fn threads_agree(src: &str, labels: &[&str], max_k: usize, expect: bool) {
    let conc = parse_concurrent(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let merged = merge(&conc).unwrap_or_else(|e| panic!("merge: {e}"));
    let targets: Vec<Pc> = labels
        .iter()
        .map(|l| merged.cfg.label(l).unwrap_or_else(|| panic!("no label {l}")))
        .collect();
    for k in 1..=max_k {
        let sequential = run(&merged, &targets, k);
        if k == max_k {
            assert_eq!(sequential.verdict, expect, "k={k}: verdict vs expectation\n{src}");
        }
        let concurrent: Vec<Observed> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..THREADS).map(|_| s.spawn(|| run(&merged, &targets, k))).collect();
            handles.into_iter().map(|h| h.join().expect("solve thread panicked")).collect()
        });
        for (t, got) in concurrent.iter().enumerate() {
            assert_eq!(
                got.verdict, sequential.verdict,
                "k={k} thread={t}: verdict diverged\n{src}"
            );
            assert_eq!(got.reach, sequential.reach, "k={k} thread={t}: Reach set diverged\n{src}");
            assert_eq!(
                got.reevaluations, sequential.reevaluations,
                "k={k} thread={t}: per-relation re-evaluation counts diverged\n{src}"
            );
        }
    }
}

#[test]
fn handshake() {
    threads_agree(
        r#"
        shared flag;
        thread
          main() begin
            if (flag) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            flag := T;
          end
        endthread
        "#,
        &["t0__HIT"],
        3,
        true,
    );
}

#[test]
fn ping_pong_threshold() {
    // Reachable only at k >= 3; the sweep crosses the threshold so both
    // full-fixpoint (negative) and early-exit (positive) bounds are
    // compared between the sequential and the concurrent runs.
    threads_agree(
        r#"
        shared a, b, c;
        thread
          main() begin
            if (a) then
              b := T;
            fi;
            if (c) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            a := T;
            if (b) then
              c := T;
            fi;
          end
        endthread
        "#,
        &["t0__HIT"],
        4,
        true,
    );
}

#[test]
fn unreachable_regardless_of_switches() {
    threads_agree(
        r#"
        shared a, b;
        thread
          main() begin
            if (a & !a) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            b := !b;
          end
        endthread
        "#,
        &["t0__HIT"],
        3,
        false,
    );
}
