//! `benchmark` — the hbmd serving benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--out <runs.jsonl>]
//! benchmark compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! A run sets up (collect + train: five times untraced, once traced),
//! synthesizes the window corpus from `--seed`, serves it for
//! `--seconds`, checks the verdicts, and prints every metric as
//! `name value unit`, then one JSON summary as the last line of standard
//! output. It exits nonzero when a check fails. `--trace` swaps the
//! end-to-end metrics for the per-layer ones and writes the run's spans
//! to `.bench_out/<workload>-seed<n>/trace.jsonl`. `--out` appends the
//! run to a JSON-lines file; a set of such runs is what `compare` reads.
//! See `README.md` beside this file.

mod compare;
mod corpus;
mod layers;
mod paced;
mod replay;
mod setup;
mod spec;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbmd_obs::{MemorySink, Obs, Registry};
use hbmd_perf::FaultPlan;

use corpus::Corpus;
use replay::Length;
use setup::Model;

/// The workloads, as named in `BENCHMARK.json`. The open-loop paced
/// load and the simulator-fed fleet are not among them: they run in
/// every traced run instead, because on a shared 2-vCPU host their
/// throughput spreads too widely from run to run for a bounded metric
/// (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReplayJ48,
    ReplayForestFaulty,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::ReplayJ48, Workload::ReplayForestFaulty];

    fn name(self) -> &'static str {
        match self {
            Workload::ReplayJ48 => "replay-j48",
            Workload::ReplayForestFaulty => "replay-forest-faulty",
        }
    }

    fn model(self) -> Model {
        match self {
            Workload::ReplayJ48 => Model::J48,
            Workload::ReplayForestFaulty => Model::Forest,
        }
    }
}

/// Lowest acceptable `detection_rate`. Baseline runs read 0.89 to 0.95
/// on every seed and workload (see `README.md`), so only a broken corpus
/// or model trips it.
const DETECTION_FLOOR: f64 = 0.85;

/// Warm-up before a closed-loop replay is measured.
const WARMUP: Duration = Duration::from_secs(1);

/// The collection fault plan of the faulty workload: every fault mode
/// at 10 %, no worker panics (there is no collector worker to crash).
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        worker_panic: 0.0,
        ..FaultPlan::uniform(0.10, seed)
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25u64;
    let mut trace = false;
    let mut out = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_owned())?,
                )
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|&s| (1..=60).contains(&s))
                    .ok_or_else(|| "--seconds needs a whole number in 1..=60".to_owned())?
            }
            "--trace" => {
                trace = match iter.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        iter.next();
                        false
                    }
                    Some("1") => {
                        iter.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!(
                "benchmark: {e}\nusage: benchmark --workload <{}> --seed <n> [--seconds <s>] \
                 [--trace [0|1]] [--out <runs.jsonl>]\n       benchmark compare <parent.jsonl> <change.jsonl>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// What a run measured and checked.
#[derive(Default)]
struct Run {
    metrics: Vec<(&'static str, f64)>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
    /// Digest of a timed replay's verdicts over the checked cursors.
    digest: Option<u64>,
}

impl Run {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

fn run(options: &Options) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = options.workload;
    let sink = Arc::new(MemorySink::new());
    let obs = if options.trace {
        Obs::new().with_sink(sink.clone())
    } else {
        Obs::new()
    };
    let guard = hbmd_obs::install(obs);
    eprintln!(
        "benchmark: {} seed {} on {threads} threads{}",
        workload.name(),
        options.seed,
        if options.trace { ", traced" } else { "" }
    );

    // A traced run reports no set-up time, so it sets up once.
    let repeats = if options.trace { 1 } else { setup::REPEATS };
    let setup = setup::run(workload.model(), threads, repeats)?;
    let corpus_started = Instant::now();
    let clean = Corpus::synthesize(
        options.seed,
        corpus::SOURCES,
        &setup.config.collector.sampler,
        threads,
    );
    let faulty = clean.faulted(&fault_plan(options.seed));
    eprintln!(
        "benchmark: set-up {:.2} s (median of {repeats}), corpus {:016x} in {:.2} s",
        setup.setup_s,
        clean.digest(),
        corpus_started.elapsed().as_secs_f64()
    );
    let corpus = if workload == Workload::ReplayForestFaulty {
        &faulty
    } else {
        &clean
    };

    let mut result = if options.trace {
        let trace_path = Path::new(".bench_out")
            .join(format!("{}-seed{}", workload.name(), options.seed))
            .join("trace.jsonl");
        traced(
            &setup,
            corpus,
            &faulty,
            threads,
            &sink,
            guard.registry(),
            &trace_path,
        )?
    } else {
        let mut result = replayed(workload, &setup, corpus, threads, options.seconds);
        // Verdicts over the first cursors of every stream, replayed once
        // more after the timed run: the detection rate, and the reference
        // the timed run's verdicts must repeat.
        let verify = replay::run(
            &setup.detector,
            &setup.pristine,
            corpus,
            threads,
            Length::Cursors(replay::CHECKED as u64),
        );
        if let Some(digest) = result.digest {
            result.check(
                format!("verdict digest {digest:016x} repeats across same-seed runs"),
                digest == verify.digest(),
            );
        }
        let detection = verify.rates(corpus).0;
        result.check(
            format!("detection_rate {detection:.4} >= floor {DETECTION_FLOOR}"),
            detection >= DETECTION_FLOOR,
        );
        result.metrics.push(("setup_s", setup.setup_s));
        result.metrics.push(("detection_rate", detection));
        result
    };
    drop(guard);
    result.metrics.sort_by_key(|&(name, _)| name);
    report(options, threads, &result)
}

/// The closed-loop workloads.
fn replayed(
    workload: Workload,
    setup: &setup::Setup,
    corpus: &Corpus,
    threads: usize,
    seconds: u64,
) -> Run {
    let mut result = Run::default();
    let timed = replay::run(
        &setup.detector,
        &setup.pristine,
        corpus,
        threads,
        Length::Timed {
            warmup: WARMUP,
            measure: Duration::from_secs(seconds),
        },
    );
    eprintln!(
        "benchmark: slice rates {:.0?}; observe p50 {:.3} us, p99 {:.3} us",
        timed.slices.iter().map(|s| s.rate).collect::<Vec<_>>(),
        timed.latency_ns(50.0) / 1e3,
        timed.latency_ns(99.0) / 1e3
    );
    result.metrics.push(("windows_per_sec", timed.rate()));
    result.attempted = timed.windows;
    result.failed = timed.refused();
    let digest = timed.digest();
    result.digest = Some(digest);
    if workload == Workload::ReplayJ48 {
        let one = replay::run(
            &setup.detector,
            &setup.pristine,
            corpus,
            1,
            Length::Cursors(replay::CHECKED as u64),
        )
        .digest();
        result.check(
            format!("verdict digest {one:016x} at 1 worker equals {threads} workers"),
            one == digest,
        );
    }
    result
}

/// The traced run: per-layer metrics, and the spans in `trace_path`.
fn traced(
    setup: &setup::Setup,
    corpus: &Corpus,
    faulty: &Corpus,
    threads: usize,
    sink: &MemorySink,
    registry: &Arc<Registry>,
    trace_path: &Path,
) -> Result<Run, String> {
    let mut result = layers::run(setup, corpus, faulty, threads, sink, registry);
    result.metrics.push(("peak_rss_mb", peak_rss_mb()));
    let records = sink.records();
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
    std::fs::write(trace_path, &text)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let reread = hbmd_obs::trace::Trace::parse_jsonl(&text).map_err(|e| e.to_string())?;
    eprintln!(
        "benchmark: {} spans written to {}",
        records.len(),
        trace_path.display()
    );
    result.check(
        format!("trace.jsonl holds all {} spans", records.len()),
        reread.len() == records.len(),
    );
    result.attempted = records.len() as u64;
    Ok(result)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print the metrics and checks, append the run to `--out`, and print
/// the JSON summary last. Returns whether every check passed.
fn report(options: &Options, threads: usize, result: &Run) -> Result<bool, String> {
    let spec = spec::Spec::load();
    let declared = if options.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let emitted: Vec<&str> = result.metrics.iter().map(|&(n, _)| n).collect();
    let mut names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    if names != emitted {
        return Err(format!(
            "metrics {emitted:?} do not match those BENCHMARK.json declares: {names:?}"
        ));
    }
    for &(name, value) in &result.metrics {
        let unit = &spec.metric(name).expect("matched above").unit;
        println!("{name} {value} {unit}");
    }
    let correct = result.checks.iter().all(|&(_, ok)| ok);
    for (name, ok) in &result.checks {
        println!("check {} {name}", if *ok { "ok" } else { "FAILED" });
    }
    if let Some(path) = &options.out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record_line(options, threads, result).as_bytes()))
            .map_err(|e| format!("append to {}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics_json(spec, &result.metrics, true)
    );
    Ok(correct)
}

/// The metrics as JSON members, `"name": value` or, `with_units`,
/// `"name": {"value": v, "unit": "u"}`.
fn metrics_json(spec: &spec::Spec, metrics: &[(&str, f64)], with_units: bool) -> String {
    metrics
        .iter()
        .map(|&(name, value)| {
            let value = hbmd_obs::json::float(value);
            match spec.metric(name) {
                Some(m) if with_units => format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    hbmd_obs::json::string(name),
                    hbmd_obs::json::string(&m.unit)
                ),
                _ => format!("{}: {value}", hbmd_obs::json::string(name)),
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// One run as the `--out` file records it: a JSON object on one line.
fn record_line(options: &Options, threads: usize, result: &Run) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {threads}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        result.checks.iter().all(|&(_, ok)| ok),
        result.attempted,
        result.failed,
        metrics_json(spec::Spec::load(), &result.metrics, false)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_record_parses_and_names_every_declared_metric() {
        let spec = spec::Spec::load();
        for (trace, declared) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let options = Options {
                workload: Workload::ReplayJ48,
                seed: 7,
                seconds: 8,
                trace,
                out: None,
            };
            let result = Run {
                metrics: declared.iter().map(|m| (m.name.as_str(), 1.5)).collect(),
                checks: vec![("ok".to_owned(), true)],
                attempted: 10,
                failed: 0,
                digest: None,
            };
            let line = record_line(&options, 2, &result);
            assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
            let value = hbmd_obs::json::parse(&line).expect("the record is JSON");
            let metrics = value
                .get("metrics")
                .and_then(hbmd_obs::json::Value::as_object)
                .expect("a metrics object");
            let named: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let wanted: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(named, wanted);
            assert_eq!(
                value.get("trace").and_then(|t| t.as_u64()),
                Some(u64::from(trace))
            );
        }
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let base = ["--workload", "replay-forest-faulty", "--seed", "3"];
        let plain = parse(&args(&base)).expect("valid");
        assert!(!plain.trace);
        let bare = parse(&args(&[&base[..], &["--trace"]].concat())).expect("valid");
        assert!(bare.trace);
        let zero = parse(&args(
            &[&base[..], &["--trace", "0", "--seconds", "5"]].concat(),
        ))
        .expect("valid");
        assert!(!zero.trace && zero.seconds == 5);
        assert!(parse(&args(&["--workload", "nope", "--seed", "1"])).is_err());
    }
}
