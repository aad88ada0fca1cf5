//! `repro`'s command line rejects what it does not recognise, and every
//! flag value it cannot use, before it prints or runs anything; and
//! `repro --help` lists every flag each command parses.

use std::process::Command;

/// Run `repro` with `args` and assert it refused them up front: exit
/// status 1, nothing on stdout, and `message` on stderr.
fn assert_refused(args: &[&str], message: &str) {
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
    assert!(stderr.contains(message), "{args:?} stderr: {stderr}");
}

#[test]
fn unknown_flag_is_refused_before_the_run() {
    assert_refused(
        &["--fast", "--bench-json", "x.json", "table1"],
        "repro: unexpected argument `--bench-json`",
    );
}

#[test]
fn unknown_flag_is_not_swallowed_by_all() {
    assert_refused(
        &["--fast", "--typo", "all"],
        "repro: unexpected argument `--typo`",
    );
}

#[test]
fn unknown_experiment_is_refused_before_earlier_ones_run() {
    assert_refused(
        &["--fast", "table1", "nope"],
        "repro: unexpected argument `nope`",
    );
}

#[test]
fn unknown_serve_flag_is_refused_before_serving() {
    assert_refused(
        &["serve", "--bogus"],
        "serve: unexpected argument `--bogus`",
    );
}

#[test]
fn unknown_chaos_flag_is_refused_before_the_drills() {
    assert_refused(
        &["chaos", "--bogus"],
        "chaos: unexpected argument `--bogus`",
    );
}

#[test]
fn chaos_takes_no_fast_switch() {
    assert_refused(&["chaos", "--fast"], "chaos: unexpected argument `--fast`");
}

#[test]
fn unknown_bundle_report_flag_is_refused_before_reading() {
    assert_refused(
        &["bundle-report", "--bogus"],
        "bundle-report: unexpected argument `--bogus`",
    );
}

#[test]
fn bundle_report_takes_one_bundle() {
    assert_refused(
        &["bundle-report", "first-bundle", "second-bundle"],
        "bundle-report: unexpected argument `second-bundle`",
    );
}

#[test]
fn panic_shard_outside_the_fleet_is_refused() {
    assert_refused(
        &["serve", "--panic-shard", "4", "--shards", "4"],
        "serve: --panic-shard 4 is not one of the 4 shards",
    );
}

#[test]
fn checkpoint_interval_without_a_checkpoint_is_refused() {
    assert_refused(
        &[
            "serve",
            "--scale",
            "0.03",
            "--addr",
            "127.0.0.1:0",
            "--windows",
            "8",
            "--streams",
            "2",
            "--shards",
            "1",
            "--checkpoint-every",
            "5",
        ],
        "serve: --checkpoint-every needs --checkpoint",
    );
}

#[test]
fn flags_without_an_experiment_print_usage_on_stderr() {
    assert_refused(&["--fast"], "usage: repro");
}

/// Every value-taking flag of every command, with a missing value and,
/// where the value has a range, one outside it.
#[test]
fn missing_and_out_of_range_values_are_refused_with_the_flags_message() {
    let scale = "--scale needs a fraction in (0, 1]";
    let threads = "--threads needs a positive integer";
    let every = "--checkpoint-every needs a positive window count";
    let cases: &[(&[&str], &str)] = &[
        (&["--scale"], scale),
        (&["--scale", "0", "table1"], scale),
        (&["--scale", "2", "table1"], scale),
        (&["--scale", "x", "table1"], scale),
        (&["--threads"], threads),
        (&["--threads", "0", "table1"], threads),
        (&["--trace-jsonl"], "--trace-jsonl needs a path"),
        (&["--metrics-json"], "--metrics-json needs a path"),
        (&["serve", "--scale"], scale),
        (&["serve", "--scale", "0"], scale),
        (&["serve", "--scale", "2"], scale),
        (&["serve", "--threads"], threads),
        (&["serve", "--threads", "0"], threads),
        (
            &["serve", "--addr"],
            "--addr needs HOST:PORT (port 0 = ephemeral)",
        ),
        (&["serve", "--windows"], "--windows needs a positive count"),
        (
            &["serve", "--windows", "0"],
            "--windows needs a positive count",
        ),
        (&["serve", "--checkpoint"], "--checkpoint needs a path"),
        (&["serve", "--checkpoint-every"], every),
        (&["serve", "--checkpoint-every", "0"], every),
        (&["serve", "--streams"], "--streams needs a positive count"),
        (
            &["serve", "--streams", "0"],
            "--streams needs a positive count",
        ),
        (&["serve", "--shards"], "--shards needs a positive count"),
        (
            &["serve", "--shards", "0"],
            "--shards needs a positive count",
        ),
        (
            &["serve", "--panic-shard"],
            "--panic-shard needs a shard index",
        ),
        (
            &["serve", "--panic-shard", "-1"],
            "--panic-shard needs a shard index",
        ),
        (
            &["serve", "--record-ring"],
            "--record-ring needs a positive slot count",
        ),
        (
            &["serve", "--record-ring", "0"],
            "--record-ring needs a positive slot count",
        ),
        (
            &["serve", "--bundle-dir"],
            "--bundle-dir needs a directory path",
        ),
        (&["serve", "--source"], "--source needs `sim` or `perf`"),
        (
            &["serve", "--source", "bogus"],
            "unknown counter source `bogus` (expected `sim` or `perf`)",
        ),
        (&["chaos", "--scale"], scale),
        (&["chaos", "--scale", "0"], scale),
        (&["chaos", "--scale", "2"], scale),
        (
            &["chaos", "--windows"],
            "--windows needs a count of at least 64",
        ),
        (
            &["chaos", "--windows", "63"],
            "--windows needs a count of at least 64",
        ),
        (&["chaos", "--checkpoint-every"], every),
        (&["chaos", "--checkpoint-every", "0"], every),
        (&["chaos", "--dir"], "--dir needs a path"),
        (&["trace-report", "--collapsed"], "--collapsed needs a path"),
    ];
    for (args, message) in cases {
        assert_refused(args, message);
    }
}

/// `repro --help` names every flag each command parses. The lists are
/// written out here, not read from the parser, so a flag added to one
/// and not the other fails this test.
#[test]
fn help_names_every_flag_of_every_command() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("repro runs");
    assert_eq!(output.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&output.stdout);
    let commands: &[(&str, &[&str])] = &[
        (
            "repro",
            &[
                "--scale",
                "--paper",
                "--fast",
                "--threads",
                "--trace-jsonl",
                "--metrics-json",
                "--help",
            ],
        ),
        (
            "repro serve",
            &[
                "--scale",
                "--fast",
                "--paper",
                "--threads",
                "--addr",
                "--windows",
                "--checkpoint",
                "--checkpoint-every",
                "--streams",
                "--shards",
                "--panic-shard",
                "--record-ring",
                "--bundle-dir",
                "--source",
            ],
        ),
        (
            "repro chaos",
            &["--scale", "--windows", "--checkpoint-every", "--dir"],
        ),
        ("repro trace-report", &["--collapsed"]),
        ("repro bundle-report", &[]),
    ];
    // Each command's synopsis runs from its name to the next line that
    // starts another command (or the experiment list).
    let lines: Vec<&str> = usage.lines().map(str::trim_start).collect();
    for (name, flags) in commands {
        let start = lines
            .iter()
            .position(|l| {
                l.trim_start_matches("usage: ")
                    .starts_with(&format!("{name} "))
            })
            .unwrap_or_else(|| panic!("usage has no `{name}` synopsis:\n{usage}"));
        let end = lines[start + 1..]
            .iter()
            .position(|l| l.starts_with("repro ") || l.starts_with("experiments:"))
            .map_or(lines.len(), |n| start + 1 + n);
        let synopsis = lines[start..end].join(" ");
        for flag in *flags {
            assert!(
                synopsis.contains(&format!("[{flag}")),
                "`{name}` synopsis lacks {flag}: {synopsis}"
            );
        }
    }
    for experiment in [
        "table1",
        "fig19",
        "ablate-prefetch",
        "predict",
        "emit-hdl",
        "all",
    ] {
        assert!(usage.contains(experiment), "usage lacks {experiment}");
    }
}

/// Without the live backend `serve --source perf` falls back to the
/// simulator, and the run's `build_info` names the source it served.
#[cfg(not(feature = "perf-backend"))]
#[test]
fn serve_source_perf_falls_back_and_build_info_says_sim() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--source",
            "perf",
            "--scale",
            "0.01",
            "--windows",
            "8",
            "--streams",
            "2",
            "--shards",
            "1",
            "--addr",
            "127.0.0.1:0",
        ])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "serve failed: {stderr}");
    assert!(
        stderr.contains("serve: counter source `perf` unavailable")
            && stderr.contains("falling back to sim"),
        "no fallback line: {stderr}"
    );
    let build_info = stderr
        .lines()
        .find(|line| line.trim_start().starts_with("build_info{"))
        .unwrap_or_else(|| panic!("no build_info line in the summary: {stderr}"));
    assert!(build_info.contains("source=sim}"), "{build_info}");
}
