//! Differential testing of the §5 symbolic engine against the explicit
//! bounded-context-switch oracle, across switch bounds — including the
//! monotonicity invariant (reachable at k ⇒ reachable at k+1).

use getafix_boolprog::parse_concurrent;
use getafix_conc::{check_conc_reachability, conc_explicit_reachable, merge, ConcLimits};

/// Checks the symbolic engine against the oracle at every bound up to
/// `max_k` and returns the verdict at `max_k`, so a test can also pin it.
fn compare(src: &str, label: &str, max_k: usize) -> bool {
    let conc = parse_concurrent(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let merged = merge(&conc).unwrap();
    let pc = merged.cfg.label(label).unwrap_or_else(|| panic!("no label {label}"));
    let mut prev: Option<bool> = None;
    for k in 1..=max_k {
        let oracle =
            conc_explicit_reachable(&merged, &[pc], k, ConcLimits::default()).expect("oracle");
        let got = check_conc_reachability(&conc, label, k)
            .unwrap_or_else(|e| panic!("k={k}: {e}"))
            .reachable;
        assert_eq!(got, oracle, "k={k}: symbolic={got}, oracle={oracle}\n{src}");
        if let Some(p) = prev {
            assert!(!p || got, "monotonicity violated at k={k}");
        }
        prev = Some(got);
    }
    prev.expect("max_k is at least 1")
}

const HANDSHAKE: &str = r#"
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
"#;

#[test]
fn handshake() {
    assert!(compare(HANDSHAKE, "t0__HIT", 3));
}

#[test]
fn ping_pong_threshold() {
    // Requires a := T (T1), b := T (T0), c := T (T1), observe (T0):
    // exactly 3 switches.
    let src = r#"
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
    "#;
    assert!(compare(src, "t0__HIT", 4));
}

#[test]
fn locals_preserved_across_switches() {
    let src = r#"
        shared s;
        thread
          main() begin
            decl x;
            x := T;
            if (s & x) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            s := T;
          end
        endthread
    "#;
    compare(src, "t0__HIT", 3);
}

#[test]
fn procedure_calls_across_contexts() {
    let src = r#"
        shared s;
        thread
          main() begin
            decl r;
            r := get();
            if (r) then HIT: skip; fi;
          end
          get() returns 1 begin
            return s;
          end
        endthread
        thread
          main() begin
            call set();
          end
          set() begin
            s := T;
          end
        endthread
    "#;
    compare(src, "t0__HIT", 3);
}

#[test]
fn switch_inside_a_procedure() {
    // The active thread is suspended mid-procedure; the resumed state must
    // keep the procedure's entry context (the ecs bookkeeping).
    let src = r#"
        shared s, t;
        thread
          main() begin
            call work();
          end
          work() begin
            decl saw;
            saw := s;
            /* switch happens here: other thread sets t */
            if (saw & t) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            s := T;
            t := T;
          end
        endthread
    "#;
    compare(src, "t0__HIT", 4);
}

#[test]
fn three_threads() {
    // Chain: T1 sets a, T2 sets b (only if a), T0 observes a & b.
    let src = r#"
        shared a, b;
        thread
          main() begin
            if (a & b) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            a := T;
          end
        endthread
        thread
          main() begin
            if (a) then b := T; fi;
          end
        endthread
    "#;
    compare(src, "t0__HIT", 3);
}

#[test]
fn three_threads_with_procedures() {
    // The chain of `three_threads`, with the read and the write inside
    // procedures: reachable from two switches on.
    let src = r#"
        shared a, b;
        thread
          main() begin
            decl r;
            r := get();
            if (r & b) then HIT: skip; fi;
          end
          get() returns 1 begin
            return a;
          end
        endthread
        thread
          main() begin
            call set();
          end
          set() begin
            a := T;
          end
        endthread
        thread
          main() begin
            if (a) then b := T; fi;
          end
        endthread
    "#;
    assert!(compare(src, "t0__HIT", 3));
}

#[test]
fn unreachable_regardless_of_switches() {
    let src = r#"
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
    "#;
    assert!(!compare(src, "t0__HIT", 3));
}

#[test]
fn mutual_flags_need_two_visits() {
    // T0 writes x, must see T1's answer y afterwards: T0 runs, switch to
    // T1, switch back — 2 switches, and the resumed T0 keeps its place.
    let src = r#"
        shared x, y;
        thread
          main() begin
            x := T;
            if (y) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            if (x) then y := T; fi;
          end
        endthread
    "#;
    compare(src, "t0__HIT", 3);
}

#[test]
fn recursion_in_thread_symbolic_only() {
    // The symbolic engine handles unbounded recursion where the explicit
    // oracle cannot; sanity-check the verdict directly.
    let src = r#"
        shared s;
        thread
          main() begin
            call rec();
            if (s) then HIT: skip; fi;
          end
          rec() begin
            if (*) then call rec(); fi;
          end
        endthread
        thread
          main() begin
            s := T;
          end
        endthread
    "#;
    let conc = parse_concurrent(src).unwrap();
    let r = check_conc_reachability(&conc, "t0__HIT", 2).unwrap();
    assert!(r.reachable);
}

#[test]
fn reach_tuples_grow_with_k() {
    // Figure 3's "Max reach set size" column grows with the bound.
    let conc = parse_concurrent(HANDSHAKE).unwrap();
    let r1 = check_conc_reachability(&conc, "t1__nonexistent", 1);
    assert!(r1.is_err(), "unknown labels are reported");
    let mut last = 0.0;
    for k in 1..=3 {
        // Use an unreachable label so the fixpoint runs to completion.
        let src_neg = r#"
            shared flag;
            thread
              main() begin
                if (flag & !flag) then HIT: skip; fi;
              end
            endthread
            thread
              main() begin
                flag := T;
              end
            endthread
        "#;
        let conc = parse_concurrent(src_neg).unwrap();
        let r = check_conc_reachability(&conc, "t0__HIT", k).unwrap();
        assert!(!r.reachable);
        assert!(r.reach_tuples >= last, "k={k}: {} < {last}", r.reach_tuples);
        last = r.reach_tuples;
    }
}
