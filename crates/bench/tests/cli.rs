//! `repro`'s command line rejects what it does not recognise before it
//! prints or runs anything.

use std::process::Command;

/// Run `repro` with `args` and assert it refused them up front: exit
/// status 1, nothing on stdout, and the offending argument named on
/// stderr.
fn assert_refused(args: &[&str], offending: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert_eq!(output.status.code(), Some(1), "{args:?} exit status");
    assert!(
        output.stdout.is_empty(),
        "{args:?} printed to stdout:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("unexpected argument `{offending}`")),
        "{args:?} stderr: {stderr}"
    );
}

#[test]
fn unknown_flag_is_refused_before_the_run() {
    assert_refused(
        &["--fast", "--bench-json", "x.json", "table1"],
        "--bench-json",
    );
}

#[test]
fn unknown_flag_is_not_swallowed_by_all() {
    assert_refused(&["--fast", "--typo", "all"], "--typo");
}

#[test]
fn unknown_experiment_is_refused_before_earlier_ones_run() {
    assert_refused(&["--fast", "table1", "nope"], "nope");
}

#[test]
fn unknown_serve_flag_is_refused_before_serving() {
    assert_refused(&["serve", "--bogus"], "--bogus");
}

#[test]
fn unknown_chaos_flag_is_refused_before_the_drills() {
    assert_refused(&["chaos", "--bogus"], "--bogus");
}
