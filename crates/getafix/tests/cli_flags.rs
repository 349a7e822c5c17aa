//! Strict command lines through the actual binary: every verb checks its
//! arguments against a table of the flags it knows, and an unknown flag,
//! a repeated flag, a value flag without a value, or a stray argument is
//! a usage error with exit 2 — never silently ignored.

use std::process::{Command, Output};

fn example(name: &str) -> String {
    format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn getafix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_getafix")).args(args).output().expect("binary runs")
}

/// Runs `args`, asserts exit 2 and that stderr names the problem.
fn rejected(args: &[&str], message: &str) {
    let out = getafix(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2; stderr:\n{stderr}");
    assert!(stderr.contains(message), "{args:?}: expected `{message}` in stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: a rejected command line printed a result");
}

#[test]
fn unknown_flags_are_rejected_by_every_verb() {
    let bp = example("double_lock.bp");
    let cbp = example("handshake.cbp");
    rejected(
        &["check", &bp, "--label", "DOUBLE_LOCK", "--jobs", "4"],
        "unknown flag `--jobs` for `check`",
    );
    rejected(
        &["check", &bp, "--label", "DOUBLE_LOCK", "--slcie"],
        "unknown flag `--slcie` for `check`",
    );
    rejected(
        &["check-conc", &cbp, "--label", "t0__HIT", "--switches", "2", "--jobs", "4"],
        "unknown flag `--jobs` for `check-conc`",
    );
    rejected(&["lint", &bp, "--stats"], "unknown flag `--stats` for `lint`");
    rejected(&["inspect", &bp, "--jobs", "2"], "unknown flag `--jobs` for `inspect`");
    rejected(&["emit-mu", &bp, "--stats"], "unknown flag `--stats` for `emit-mu`");
    // A flag of one verb is not a flag of another.
    rejected(&["emit-mu", &bp, "--label", "DOUBLE_LOCK"], "unknown flag `--label` for `emit-mu`");
}

#[test]
fn repeated_flags_are_rejected() {
    let bp = example("double_lock.bp");
    rejected(
        &["check", &bp, "--label", "A", "--label", "B"],
        "flag `--label` given more than once",
    );
    rejected(&["lint", &bp, "--json", "--json"], "flag `--json` given more than once");
}

#[test]
fn value_flags_need_a_value() {
    let bp = example("double_lock.bp");
    // The next argument is another flag, not a value.
    rejected(
        &["check", &bp, "--label", "DOUBLE_LOCK", "--timeout", "--stats"],
        "flag `--timeout` needs a value",
    );
    // The flag is the last argument.
    rejected(&["check", &bp, "--label"], "flag `--label` needs a value");
    rejected(&["emit-mu", &bp, "--algo"], "flag `--algo` needs a value");
}

#[test]
fn stray_arguments_and_missing_files_are_rejected() {
    let bp = example("double_lock.bp");
    rejected(&["check", &bp, "extra", "--label", "DOUBLE_LOCK"], "unexpected argument `extra`");
    rejected(&["check", "--label", "DOUBLE_LOCK"], "missing input file");
}

#[test]
fn well_formed_command_lines_still_run() {
    let bp = example("double_lock.bp");
    let out = getafix(&["check", &bp, "--label", "DOUBLE_LOCK", "--algo", "simple"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = getafix(&["emit-mu", &bp, "--algo", "ef"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
