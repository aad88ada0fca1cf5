//! Telemetry roundtrip through the public facade: spans recorded live
//! go out through the JSONL sink, and the trace analyzer rebuilds the
//! *exact* span tree — same shape, same durations — from the log.

use std::sync::Arc;

use hbmd::obs::sink::{JsonlSink, MemorySink};
use hbmd::obs::trace::Trace;
use hbmd::obs::Obs;

/// Emit a small deterministic-shape workload: one `run` root holding
/// two `phase` spans, one of which holds a `step` leaf.
fn emit_workload() {
    let _run = hbmd::obs::span!("run", experiments = 2u64);
    {
        let _phase = hbmd::obs::span!("phase", name = "collect");
        let _step = hbmd::obs::span!("step", sample = 0u64);
    }
    let _phase = hbmd::obs::span!("phase", name = "train");
}

#[test]
fn jsonl_log_and_memory_sink_agree_on_the_exact_tree() {
    let dir = std::env::temp_dir().join(format!("hbmd-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log_path = dir.join("trace.jsonl");

    let memory = Arc::new(MemorySink::new());
    let jsonl = JsonlSink::create(&log_path).expect("create log");
    let guard = hbmd::obs::install(
        Obs::new()
            .with_sink(memory.clone())
            .with_sink(Arc::new(jsonl)),
    );
    emit_workload();
    guard.obs().flush().expect("flush jsonl");
    drop(guard);

    let from_memory = Trace::from_records(&memory.records());
    let text = std::fs::read_to_string(&log_path).expect("read log");
    let from_log = Trace::parse_jsonl(&text).expect("parse log");
    std::fs::remove_dir_all(&dir).ok();

    // The log is a faithful serialization: both paths reconstruct the
    // same forest, including every span's exact duration.
    assert_eq!(from_log, from_memory);
    assert_eq!(from_log.len(), 4);
    assert_eq!(from_log.roots.len(), 1);
    let root = &from_log.spans[from_log.roots[0]];
    assert_eq!(root.record.name, "run");
    assert_eq!(root.children.len(), 2, "two phases under the root");
    assert_eq!(from_log.total_ns(), root.record.duration_ns);

    // Self times partition the total exactly.
    let self_sum: u64 = (0..from_log.len()).map(|i| from_log.self_ns(i)).sum();
    assert_eq!(self_sum, from_log.total_ns());

    // The aggregate table and critical path see the same data.
    let aggregate = from_log.aggregate();
    let phases = aggregate
        .iter()
        .find(|row| row.name == "phase")
        .expect("phase row");
    assert_eq!(phases.count, 2);
    let path = from_log.critical_path();
    assert_eq!(path[0].name, "run");
    assert!(path.len() >= 2, "the path descends below the root");

    // Collapsed stacks cover exactly the recorded self time.
    let folded_total: u64 = from_log
        .collapsed()
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(folded_total, from_log.total_ns());
}

#[test]
fn hostile_span_names_survive_the_jsonl_roundtrip() {
    let dir = std::env::temp_dir().join(format!("hbmd-telemetry-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log_path = dir.join("trace.jsonl");

    let hostile = "collect\n\"sample\"\u{1}\u{7f}\u{2028};end";
    let guard = hbmd::obs::install(
        Obs::new().with_sink(Arc::new(JsonlSink::create(&log_path).expect("create log"))),
    );
    {
        let _span = hbmd::obs::span!(hostile, note = "quote\" and \\backslash");
    }
    guard.obs().flush().expect("flush");
    drop(guard);

    let text = std::fs::read_to_string(&log_path).expect("read log");
    std::fs::remove_dir_all(&dir).ok();
    // One span, one line: the escaping kept the log line-oriented.
    assert_eq!(
        text.lines().count(),
        1,
        "escaping must keep one line per span"
    );
    let trace = Trace::parse_jsonl(&text).expect("hostile log parses");
    assert_eq!(trace.spans[0].record.name, hostile);
    assert_eq!(
        trace.spans[0].record.fields[0].1.to_string(),
        "quote\" and \\backslash"
    );
}
