//! `repro` — regenerate every table and figure of the reference
//! evaluation.
//!
//! `repro [flags] <experiment>...` runs the named experiments in order.
//! `repro --help` lists every subcommand with the flags it accepts, and
//! every experiment name; it is rendered from the same flag tables the
//! parser reads.
//!
//! `--scale F` shrinks the catalog to a fraction `F` (default 0.2);
//! `--paper` runs the full 3,070-sample catalog; `--fast` is shorthand
//! for `--scale 0.05` (CI smoke runs). `--threads N` sets both the
//! collector's and the experiment layer's worker count — results are
//! byte-identical at any value. All randomness is seeded, so repeated
//! runs at the same scale are identical. `all` runs every experiment
//! from `table1` through `robustness`; `predict`, `adversarial` and
//! `emit-hdl` run only when named. An unknown flag or experiment name
//! exits nonzero before anything is printed to stdout.
//!
//! A run ends with one stderr line, `N collections for M lookups, T ms
//! total`. Collection is memoized in a run-local [`CollectCache`], so
//! `N` equals the number of *distinct* collector configurations the run
//! touched. Performance is measured by the separate `perfbench`
//! package, not by `repro`.
//!
//! Observability (all off by default; stdout is byte-identical without
//! these flags):
//!
//! * `--trace-jsonl PATH` — stream every span (collection, training,
//!   per-experiment phases) as JSON lines to `PATH`;
//! * `--metrics-json PATH` — write the run's [`RunManifest`] plus the
//!   full metrics snapshot (counters, gauges, histograms) to `PATH`.
//!
//! Either flag also prints a metrics summary table to stderr at the
//! end of the run.
//!
//! Subcommands (dispatched on the first positional; the default
//! experiment mode and its byte-identical stdout are untouched):
//!
//! * `repro serve` — train one shared J48 detector, then monitor a
//!   fleet of independent synthetic streams (default 2,000)
//!   hash-sharded across supervised worker shards, exposing `/metrics`
//!   (Prometheus text format 0.0.4), `/healthz`, per-shard `/readyz`
//!   and `/manifest` over HTTP until killed (or after `--windows N` per
//!   stream);
//! * `repro chaos` — seeded fault drills against that same supervised
//!   fleet (shard kill, snapshot corruption, NaN burst, quarantine,
//!   breaker-trip bundle); exits nonzero unless every invariant holds;
//! * `repro trace-report <trace.jsonl>` — span-tree analysis of a
//!   `--trace-jsonl` log: per-name aggregates ranked by self time, the
//!   critical path, and optional folded stacks for flamegraph
//!   renderers;
//! * `repro bundle-report <bundle-dir>` — verify a diagnostic bundle's
//!   checksums and print its incident timeline.

use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbmd_bench::{config_at_scale, config_digest, fleet, pct, TextTable};
use hbmd_core::experiments::{
    self, adversarial, binary, ensemble, hardware, latency, multiclass, pca, robustness, roc,
    ExperimentConfig,
};
use hbmd_core::snapshot::{self, SnapshotError};
use hbmd_core::{
    to_binary_dataset, ClassifierKind, CollectCache, DetectorBuilder, FeaturePlan, FeatureSet,
    OnlineDetector, StreamStanding, StreamState,
};
use hbmd_fpga::SynthConfig;
use hbmd_malware::AppClass;
use hbmd_ml::{Classifier, Evaluation};
use hbmd_obs::health::FleetHealth;
use hbmd_obs::manifest::RunManifest;
use hbmd_obs::recorder::{read_bundle, RecorderHub, Trigger};
use hbmd_obs::trace::Trace;
use hbmd_obs::{json, serve, JsonlSink, Obs};
use hbmd_perf::{PerfError, PmuConfig, SourceSelect};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands dispatch on the first positional before flag parsing,
    // so the default experiment mode — and its byte-identical stdout —
    // is untouched.
    match args.first().map(String::as_str) {
        Some("serve") => return serve_mode(&args[1..]),
        Some("chaos") => return chaos_mode(&args[1..]),
        Some("trace-report") => return trace_report(&args[1..]),
        Some("bundle-report") => return bundle_report(&args[1..]),
        _ => {}
    }
    let defaults = Options {
        scale: 0.2,
        ..Options::default()
    };
    let Some(options) = REPRO.parse(&args, defaults) else {
        return ExitCode::FAILURE;
    };
    if options.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let experiments: Vec<&(&str, Experiment)> = if options.operands.iter().any(|o| o == "all") {
        ALL.iter().collect()
    } else {
        options
            .operands
            .iter()
            .filter_map(|o| experiment(o))
            .collect()
    };
    if experiments.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    let config = options.config();
    println!(
        "# hbmd repro — catalog scale {} ({} samples), {} windows x {} instructions, {} threads\n",
        options.scale,
        config.catalog().len(),
        config.collector.sampler.windows_per_sample,
        config.collector.sampler.instructions_per_window,
        config.threads,
    );

    // A fresh obs context scopes this run's metrics and spans away from
    // whatever the default registry accumulated. Installed only when an
    // observability flag asks for output, so the default run pays no
    // sink dispatch and prints byte-identical stdout.
    let observing = options.trace_jsonl.is_some() || options.metrics_json.is_some();
    let obs_guard = if observing {
        let mut obs = Obs::new();
        if let Some(path) = &options.trace_jsonl {
            match JsonlSink::create(path) {
                Ok(sink) => obs = obs.with_sink(Arc::new(sink)),
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some(hbmd_obs::install(obs))
    } else {
        None
    };

    // Run-local cache: its miss counter is exactly the number of
    // distinct collector configurations this invocation collected.
    let cache = CollectCache::new();
    let started = Instant::now();
    for (name, experiment) in &experiments {
        let span = hbmd_obs::span!("experiment", name = *name);
        let result = experiment(&config, &cache);
        drop(span);
        if let Err(e) = result {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
    }
    let stats = cache.stats();
    eprintln!(
        "{} collections for {} lookups, {} ms total",
        stats.misses,
        stats.lookups(),
        started.elapsed().as_millis()
    );

    if let Some(guard) = obs_guard {
        let snapshot = guard.registry().snapshot();
        if let Some(path) = &options.metrics_json {
            let names: Vec<String> = experiments.iter().map(|(n, _)| (*n).to_owned()).collect();
            let mut manifest = build_manifest(options.scale, &config, &names);
            manifest.wall.total_ms = started.elapsed().as_millis();

            let body = snapshot.to_json();
            let combined = format!(
                "{{\n  \"manifest\": {},\n{}",
                manifest.to_json(),
                body.strip_prefix("{\n").unwrap_or(&body)
            );
            if let Err(e) = std::fs::write(path, combined) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        if let Err(e) = guard.obs().flush() {
            let path = options.trace_jsonl.as_deref().unwrap_or("trace sink");
            eprintln!("cannot flush {path}: {e}");
            return ExitCode::FAILURE;
        }
        if options.trace_jsonl.is_some() {
            eprintln!(
                "wrote {}",
                options.trace_jsonl.as_deref().unwrap_or_default()
            );
        }
        eprint!("\n{}", snapshot.summary());
    }
    ExitCode::SUCCESS
}

/// Every command's synopsis and the experiment names, rendered from the
/// tables the parser and the dispatcher read.
fn usage() -> String {
    let mut lines = Vec::new();
    for command in [&REPRO, &SERVE, &CHAOS, &TRACE_REPORT, &BUNDLE_REPORT] {
        let name = match command.name {
            "repro" => "repro".to_owned(),
            name => format!("repro {name}"),
        };
        let flags = command
            .flags
            .iter()
            .map(|Flag(name, meta, _, kind)| match kind {
                Kind::Switch(_) => format!("[{name}]"),
                _ => format!("[{name} {meta}]"),
            });
        let operands = (!command.operands.is_empty()).then(|| command.operands.to_owned());
        wrap(&mut lines, name, flags.chain(operands));
    }
    let names = ALL.iter().chain(BY_NAME).map(|(name, _)| *name);
    wrap(
        &mut lines,
        "experiments:".to_owned(),
        names.chain(["all"]).map(str::to_owned),
    );
    format!("usage: {}", lines.join("\n       "))
}

/// Append `head` and `words` to `lines`, wrapped at 72 columns with
/// continuation lines indented under `head`.
fn wrap(lines: &mut Vec<String>, head: String, words: impl Iterator<Item = String>) {
    let mut line = head;
    for word in words {
        if line.len() + 1 + word.len() > 72 {
            lines.push(std::mem::replace(&mut line, "   ".to_owned()));
        }
        line.push(' ');
        line.push_str(&word);
    }
    lines.push(line);
}

/// Everything a `repro` command line sets. Each command starts from
/// its own defaults and accepts only the flags in its table.
#[derive(Default)]
struct Options {
    /// Fraction of the paper catalog (`--scale`, `--fast`, `--paper`).
    scale: f64,
    /// Collector and experiment-layer worker threads.
    threads: Option<usize>,
    trace_jsonl: Option<String>,
    metrics_json: Option<String>,
    help: bool,
    /// `serve`'s HTTP address.
    addr: String,
    /// Windows *per stream*; for `serve`, 0 = run until killed.
    windows: u64,
    checkpoint: Option<PathBuf>,
    /// `--checkpoint-every`, when given.
    checkpoint_every: Option<u64>,
    /// Monitored endpoint streams in the fleet.
    streams: u64,
    /// Worker shards the streams are hashed across.
    shards: usize,
    /// Chaos: shards given a single injected worker panic.
    panic_shards: Vec<usize>,
    /// Flight-recorder ring capacity per shard; 0 = recorder off.
    record_ring: usize,
    /// Where anomaly-triggered diagnostic bundles land.
    bundle_dir: Option<PathBuf>,
    /// The counter source `serve` collects from.
    source: SourceSelect,
    /// `chaos`'s working directory.
    dir: Option<PathBuf>,
    /// Where `trace-report` writes folded stacks.
    collapsed: Option<String>,
    /// Experiment names, or `trace-report`'s log.
    operands: Vec<String>,
}

impl Options {
    /// The experiment configuration `--scale` and `--threads` select.
    fn config(&self) -> ExperimentConfig {
        let mut config = config_at_scale(self.scale);
        if let Some(n) = self.threads {
            config.threads = n;
            config.collector.threads = n;
        }
        config
    }
}

/// How a flag's value is read, and the setter it is stored with.
#[derive(Clone, Copy)]
enum Kind {
    /// No value.
    Switch(fn(&mut Options)),
    /// A fraction in (0, 1].
    Fraction(fn(&mut Options, f64)),
    /// An integer of at least `.0`.
    Count(u64, fn(&mut Options, u64)),
    /// A path or `HOST:PORT`, taken as given.
    Text(fn(&mut Options, String)),
    /// A counter source: `sim` or `perf`.
    Source(fn(&mut Options, SourceSelect)),
}

/// One row of a command's flag table: the flag, what usage shows for
/// its value, what a missing or bad value is refused with (`<flag>
/// needs <needs>`), and how the value is read.
struct Flag(&'static str, &'static str, &'static str, Kind);

/// A flag that takes no value.
const fn switch(name: &'static str, set: fn(&mut Options)) -> Flag {
    Flag(name, "", "", Kind::Switch(set))
}

/// A flag whose value is a count of at least `min`.
const fn count(
    name: &'static str,
    min: u64,
    needs: &'static str,
    set: fn(&mut Options, u64),
) -> Flag {
    Flag(name, "N", needs, Kind::Count(min, set))
}

/// A flag whose value is a path.
const fn path(name: &'static str, set: fn(&mut Options, String)) -> Flag {
    Flag(name, "PATH", "a path", Kind::Text(set))
}

const SCALE: Flag = Flag(
    "--scale",
    "F",
    "a fraction in (0, 1]",
    Kind::Fraction(|o, f| o.scale = f),
);
const FAST: Flag = switch("--fast", |o| o.scale = 0.05);
const PAPER: Flag = switch("--paper", |o| o.scale = 1.0);
const THREADS: Flag = count("--threads", 1, "a positive integer", |o, n| {
    o.threads = Some(n as usize)
});
const CHECKPOINT_EVERY: Flag = count(
    "--checkpoint-every",
    1,
    "a positive window count",
    |o, n| o.checkpoint_every = Some(n),
);

/// A command's flag table and the operands it takes.
struct Command {
    /// Its subcommand word, and the prefix of its refusals.
    name: &'static str,
    flags: &'static [Flag],
    /// The operands usage shows after the flags.
    operands: &'static str,
    /// Whether an argument that is no flag of the table is an operand.
    operand: fn(&Options, &str) -> bool,
}

impl Command {
    /// Parse `args` over `defaults`. A refusal says why on stderr and
    /// returns `None`.
    fn parse(&self, args: &[String], defaults: Options) -> Option<Options> {
        let mut options = defaults;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(Flag(name, _, needs, kind)) = self.flags.iter().find(|f| f.0 == arg) else {
                if !(self.operand)(&options, arg) {
                    eprintln!("{}: unexpected argument `{arg}`", self.name);
                    return None;
                }
                options.operands.push(arg.clone());
                continue;
            };
            let accepted = match *kind {
                Kind::Switch(set) => {
                    set(&mut options);
                    true
                }
                Kind::Fraction(set) => iter
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|&f| f > 0.0 && f <= 1.0)
                    .map(|f| set(&mut options, f))
                    .is_some(),
                Kind::Count(min, set) => iter
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|&n| n >= min)
                    .map(|n| set(&mut options, n))
                    .is_some(),
                Kind::Text(set) => iter.next().map(|s| set(&mut options, s.clone())).is_some(),
                Kind::Source(set) => match iter.next().map(|s| s.parse::<SourceSelect>()) {
                    Some(Ok(source)) => {
                        set(&mut options, source);
                        true
                    }
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        return None;
                    }
                    None => false,
                },
            };
            if !accepted {
                eprintln!("{name} needs {needs}");
                return None;
            }
            if options.help {
                break;
            }
        }
        Some(options)
    }
}

/// The experiment named `name`, whether `all` runs it or not.
fn experiment(name: &str) -> Option<&'static (&'static str, Experiment)> {
    ALL.iter().chain(BY_NAME).find(|(n, _)| *n == name)
}

const REPRO: Command = Command {
    name: "repro",
    flags: &[
        SCALE,
        PAPER,
        FAST,
        THREADS,
        path("--trace-jsonl", |o, s| o.trace_jsonl = Some(s)),
        path("--metrics-json", |o, s| o.metrics_json = Some(s)),
        switch("--help", |o| o.help = true),
        switch("-h", |o| o.help = true),
    ],
    operands: "<experiment>...",
    operand: |_, arg| arg == "all" || experiment(arg).is_some(),
};

const SERVE: Command = Command {
    name: "serve",
    flags: &[
        SCALE,
        FAST,
        PAPER,
        THREADS,
        Flag(
            "--addr",
            "HOST:PORT",
            "HOST:PORT (port 0 = ephemeral)",
            Kind::Text(|o, s| o.addr = s),
        ),
        count("--windows", 1, "a positive count", |o, n| o.windows = n),
        path("--checkpoint", |o, s| o.checkpoint = Some(s.into())),
        CHECKPOINT_EVERY,
        count("--streams", 1, "a positive count", |o, n| o.streams = n),
        count("--shards", 1, "a positive count", |o, n| {
            o.shards = n as usize
        }),
        Flag(
            "--panic-shard",
            "S",
            "a shard index",
            Kind::Count(0, |o, n| o.panic_shards.push(n as usize)),
        ),
        count("--record-ring", 1, "a positive slot count", |o, n| {
            o.record_ring = n as usize
        }),
        Flag(
            "--bundle-dir",
            "PATH",
            "a directory path",
            Kind::Text(|o, s| o.bundle_dir = Some(s.into())),
        ),
        Flag(
            "--source",
            "sim|perf",
            "`sim` or `perf`",
            Kind::Source(|o, source| o.source = source),
        ),
    ],
    operands: "",
    operand: |_, _| false,
};

const CHAOS: Command = Command {
    name: "chaos",
    flags: &[
        SCALE,
        count("--windows", 64, "a count of at least 64", |o, n| {
            o.windows = n
        }),
        CHECKPOINT_EVERY,
        path("--dir", |o, s| o.dir = Some(s.into())),
    ],
    operands: "",
    operand: |_, _| false,
};

const TRACE_REPORT: Command = Command {
    name: "trace-report",
    flags: &[path("--collapsed", |o, s| o.collapsed = Some(s))],
    operands: "<trace.jsonl>",
    operand: |o, arg| o.operands.is_empty() && !arg.starts_with("--"),
};

/// `bundle-report` takes one operand and no flags; it is not parsed
/// with a table and is listed here for usage only.
const BUNDLE_REPORT: Command = Command {
    name: "bundle-report",
    flags: &[],
    operands: "<bundle-dir>",
    operand: |_, _| false,
};

/// The run's identity card, shared by `--metrics-json` and the
/// `/manifest` endpoint of `repro serve`.
fn build_manifest(scale: f64, config: &ExperimentConfig, experiments: &[String]) -> RunManifest {
    let mut manifest = RunManifest::new("repro", env!("CARGO_PKG_VERSION"));
    manifest.scale = scale;
    manifest.source = config.collector.source.name().to_owned();
    manifest.threads = config.threads;
    manifest.collector_threads = config.collector.threads;
    manifest.seeds = vec![
        ("catalog".to_owned(), config.catalog_seed),
        ("split".to_owned(), config.split_seed),
    ];
    // Thread-normalized, so runs that differ only in `--threads` match.
    manifest.config_digest =
        u64::from_str_radix(&config_digest(config), 16).expect("digest is 16 hex digits");
    // The workspace shares one version across the hbmd crates.
    manifest.crates = [
        "hbmd-events",
        "hbmd-uarch",
        "hbmd-malware",
        "hbmd-perf",
        "hbmd-ml",
        "hbmd-fpga",
        "hbmd-core",
        "hbmd-obs",
        "hbmd-bench",
    ]
    .iter()
    .map(|name| ((*name).to_owned(), env!("CARGO_PKG_VERSION").to_owned()))
    .collect();
    manifest.experiments = experiments.to_vec();
    manifest
}

/// Cooperative SIGINT flag: the handler only raises it; the fleet
/// polls it as its stop flag, flushes a final checkpoint, and exits
/// cleanly.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGINT = 2 everywhere we build; no libc crate needed.
    unsafe {
        signal(2, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Train the serve/chaos detector: J48 on the top-8 features with the
/// 4-window vote the serve endpoint has always used.
fn train_monitor(
    config: &ExperimentConfig,
    label: &str,
) -> Result<OnlineDetector, Box<dyn std::error::Error>> {
    let cache = CollectCache::new();
    let collection = cache.collect(config)?;
    let detector = DetectorBuilder::new()
        .classifier(ClassifierKind::J48)
        .feature_set(FeatureSet::Top(8))
        .train_binary(&collection.dataset)?;
    eprintln!(
        "{label}: {:.1}% held-out accuracy; monitoring with a 4-window vote, threshold 3",
        detector.evaluation().accuracy() * 100.0
    );
    Ok(OnlineDetector::builder(detector)
        .window(4)
        .threshold(3)
        .build()?)
}

/// `repro serve` — train one shared detector, then run a *fleet* of
/// independently-voting monitored streams (default 2,000), hash-sharded
/// across supervised worker shards, while exposing `/metrics`,
/// `/healthz`, per-shard `/readyz` and `/manifest` over HTTP. With
/// `--windows N` every stream stops after N windows (integration
/// tests, smoke runs); without it the fleet paces at the paper's 10 ms
/// window cadence and sheds load under backpressure until killed. With
/// `--checkpoint PATH` all stream cursors are checkpointed into one
/// multiplexed snapshot and a restart resumes from the last good
/// sections instead of retraining.
fn serve_mode(args: &[String]) -> ExitCode {
    let defaults = Options {
        scale: 0.05,
        addr: "127.0.0.1:9185".to_owned(),
        streams: 2_000,
        shards: 8,
        ..Options::default()
    };
    let Some(mut options) = SERVE.parse(args, defaults) else {
        return ExitCode::FAILURE;
    };
    if options.checkpoint_every.is_some() && options.checkpoint.is_none() {
        eprintln!("serve: --checkpoint-every needs --checkpoint");
        return ExitCode::FAILURE;
    }
    if let Some(shard) = options.panic_shards.iter().find(|&&s| s >= options.shards) {
        eprintln!(
            "serve: --panic-shard {shard} is not one of the {} shards",
            options.shards
        );
        return ExitCode::FAILURE;
    }
    // Live counters are best-effort: an unprivileged or perf-less host
    // degrades gracefully to the simulator instead of refusing to
    // serve (the manifest records which source actually ran).
    if let Err(PerfError::BackendUnavailable { reason }) = options.source.probe() {
        eprintln!(
            "serve: counter source `{}` unavailable ({reason}); falling back to sim",
            options.source
        );
        options.source = SourceSelect::Sim;
    }
    let mut config = options.config();
    config.collector.source = options.source;
    // A bundle directory implies recording: default the ring to 256
    // slots per shard so `--bundle-dir` alone produces useful bundles.
    if options.bundle_dir.is_some() && options.record_ring == 0 {
        options.record_ring = 256;
    }
    match run_monitor(&config, &options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_monitor(
    config: &ExperimentConfig,
    options: &Options,
) -> Result<(), Box<dyn std::error::Error>> {
    // Fresh context so the endpoint exports only this fleet's counters;
    // the guard lives for the whole serve session.
    let guard = hbmd_obs::install(Obs::new());
    install_sigint_handler();
    let checkpoint_every = options.checkpoint_every.unwrap_or(64);

    let config_digest_u64 =
        u64::from_str_radix(&config_digest(config), 16).expect("digest is 16 hex digits");
    // A good multiplexed checkpoint for this exact configuration
    // carries the trained detector, so a restart resumes the whole
    // fleet without retraining; anything refused falls back to a fresh
    // training run (and says why). Per-stream cursor restore happens
    // inside the fleet pipeline from the same file.
    let resumed = match &options.checkpoint {
        Some(path) if path.exists() => match snapshot::load_fleet(path, config_digest_u64) {
            Ok(restore) => {
                let high_water = restore.streams.iter().map(|s| s.cursor).max().unwrap_or(0);
                eprintln!(
                        "serve: resumed from {} at window {high_water} ({} stream sections, {} lost, training skipped)",
                        path.display(),
                        restore.streams.len(),
                        restore.lost_sections,
                    );
                Some(Arc::new(restore.detector))
            }
            Err(e) => {
                eprintln!("serve: checkpoint refused ({e}); retraining");
                None
            }
        },
        _ => None,
    };
    let (detector, template) = match resumed {
        Some(detector) => (detector, StreamState::new(4, 3, 1, 1)?),
        None => {
            eprintln!(
                "serve: training J48 detector at scale {} ({} samples)...",
                options.scale,
                config.catalog().len()
            );
            train_monitor(config, "serve")?.into_parts()
        }
    };

    let manifest = build_manifest(options.scale, config, &["serve".to_owned()]);
    // `hbmd_build_info`: the Prometheus idiom for joining run identity
    // onto any other series — a constant-1 gauge whose labels carry the
    // version, config digest, and counter source.
    let source_name = config.collector.source.to_string();
    guard
        .registry()
        .gauge_with(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("config_digest", &config_digest(config)),
                ("source", &source_name),
            ],
        )
        .set(1);

    // Flight recorder: per-shard rings shared between the fleet's hot
    // path (writer) and the debug endpoints (trigger/drain).
    let recorder = if options.record_ring > 0 {
        let mut hub = RecorderHub::new(options.shards, options.record_ring)
            .with_manifest_json(manifest.to_json())
            .with_families(AppClass::ALL.iter().map(|c| c.name().to_owned()).collect());
        if let Some(dir) = &options.bundle_dir {
            hub = hub.with_bundle_dir(dir);
        }
        Some(Arc::new(hub))
    } else {
        None
    };
    let debug: Option<serve::DebugHandler> = recorder.as_ref().map(|hub| {
        let hub = Arc::clone(hub);
        let handler = move |path: &str| match path {
            "/debug/recorder" => Some(serve::DebugReply {
                status: 200,
                body: hub.stats_json(),
            }),
            "/debug/bundle" => {
                let mut trigger = Trigger::new("http_request");
                trigger.details = "on-demand bundle via /debug/bundle".to_owned();
                Some(match hub.trigger(&trigger) {
                    Ok(Some(outcome)) => serve::DebugReply {
                        status: 200,
                        body: format!(
                            "{{\"bundle\": {}, \"events\": {}}}\n",
                            json::string(&outcome.path.display().to_string()),
                            outcome.events
                        ),
                    },
                    Ok(None) => serve::DebugReply {
                        status: 503,
                        body: "{\"error\": \"no bundle directory configured or bundle cap reached\"}\n"
                            .to_owned(),
                    },
                    Err(e) => serve::DebugReply {
                        status: 500,
                        body: format!("{{\"error\": {}}}\n", json::string(&e.to_string())),
                    },
                })
            }
            _ => None,
        };
        Arc::new(handler) as serve::DebugHandler
    });
    let server = serve::serve(
        &options.addr,
        serve::ServeContext {
            registry: Arc::clone(guard.registry()),
            manifest_json: manifest.to_json(),
            fleet: Some(Arc::new(FleetHealth::new(guard.registry(), options.shards))),
            debug,
        },
    )?;
    eprintln!(
        "serve: http://{} — /metrics (Prometheus 0.0.4), /healthz, /readyz, /manifest",
        server.local_addr()
    );
    if let Some(hub) = &recorder {
        eprintln!(
            "serve: flight recorder on — {} slots x {} shards, bundles to {} (/debug/recorder, /debug/bundle)",
            options.record_ring,
            hub.shards(),
            options
                .bundle_dir
                .as_ref()
                .map_or("(disabled)".to_owned(), |d| d.display().to_string()),
        );
    }
    eprintln!(
        "serve: fleet of {} streams across {} shards",
        options.streams, options.shards
    );
    if let Some(path) = &options.checkpoint {
        eprintln!(
            "serve: checkpointing to {} every {} windows per shard",
            path.display(),
            checkpoint_every
        );
    }
    if !options.panic_shards.is_empty() {
        // Injected panics are expected: one stderr line each instead of
        // a full backtrace per restart.
        std::panic::set_hook(Box::new(|info| {
            eprintln!("serve: worker panic: {info}");
        }));
    }

    // Injected shard panics land a third of the way into bounded runs
    // (48 windows in for unbounded ones), leaving room to observe both
    // the fault and the recovery.
    let panic_cursor = if options.windows > 0 {
        (options.windows / 3).max(8)
    } else {
        48
    };
    let fleet_config = fleet::FleetConfig {
        checkpoint: options.checkpoint.clone().map(|path| fleet::Checkpoint {
            path,
            every: NonZeroU64::new(checkpoint_every).expect("--checkpoint-every is positive"),
            config_digest: config_digest_u64,
        }),
        pristine_stream: template,
        // Pace at the paper's 10 ms sampling period when running as a
        // long-lived monitor, which sheds load under backpressure (hot
        // streams last); bounded runs stream at full speed and stay
        // lossless so window counts are exact.
        pace: (options.windows == 0).then(|| Duration::from_millis(10)),
        max_restarts: 16,
        backoff_ms: (100, 5_000),
        sleep_on_backoff: true,
        breaker: (16, 8, 64),
        panic_at: options
            .panic_shards
            .iter()
            .map(|&shard| (shard, panic_cursor))
            .collect(),
        stop: Some(&STOP),
        capture_verdicts: false,
        verbose: true,
        recorder: recorder.clone(),
        ..fleet::FleetConfig::lossless(options.streams, options.shards, options.windows)
    };
    let report = fleet::run_fleet(&detector, &config.collector.sampler, &fleet_config)?;
    if report.interrupted {
        eprintln!("serve: interrupted — final checkpoint flushed");
    }
    for shard in &report.shards {
        eprintln!(
            "serve: shard {}: {} streams, {} windows, {} restarts, {} trips, {} quarantines{}",
            shard.shard,
            shard.streams,
            shard.processed,
            shard.restarts,
            shard.trips,
            shard.quarantines,
            if shard.gave_up { " — GAVE UP" } else { "" },
        );
    }
    eprintln!(
        "serve: {} windows observed across the fleet ({:.0} windows/sec); final scrape state:",
        report.processed, report.windows_per_sec
    );
    eprint!("{}", guard.registry().snapshot().summary());
    server.shutdown()?;
    Ok(())
}

/// `repro chaos` — drive the supervised fleet that `repro serve` runs
/// through a shard kill, a corrupted snapshot header and detector
/// frame, a corrupted stream section, a NaN burst on one shard, a
/// persistently faulty stream, and a recorder-attached breaker trip —
/// asserting the recovery and bulkhead invariants the fleet promises.
/// `--windows` sizes every drill's per-stream run (the quarantine drill
/// keeps its fixed 256 windows); `--checkpoint-every` spaces the
/// checkpoints. Exits 0 only when every drill passes.
fn chaos_mode(args: &[String]) -> ExitCode {
    let defaults = Options {
        scale: 0.05,
        windows: 320,
        ..Options::default()
    };
    let Some(options) = CHAOS.parse(args, defaults) else {
        return ExitCode::FAILURE;
    };
    match run_chaos(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("chaos: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_chaos(options: &Options) -> Result<bool, Box<dyn std::error::Error>> {
    let guard = hbmd_obs::install(Obs::new());
    let (windows, checkpoint_every) = (options.windows, options.checkpoint_every.unwrap_or(32));
    let dir = match &options.dir {
        Some(d) => d.clone(),
        None => std::env::temp_dir().join(format!("hbmd-chaos-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir)?;
    let checkpoint = dir.join("fleet.snap");
    let _ = std::fs::remove_file(&checkpoint);

    let config = options.config();
    eprintln!(
        "chaos: training J48 detector at scale {} ({} samples)...",
        options.scale,
        config.catalog().len()
    );
    let (detector, template) = train_monitor(&config, "chaos")?.into_parts();
    let digest = u64::from_str_radix(&config_digest(&config), 16).expect("digest is 16 hex digits");
    let sampler = &config.collector.sampler;

    // Injected panics are expected: keep them to one stderr line
    // instead of a full backtrace per restart drill.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("chaos: worker panic: {info}");
    }));

    let mut passed = true;
    let mut check = |ok: bool, what: &str| {
        println!("chaos: {} — {what}", if ok { "ok  " } else { "FAIL" });
        passed &= ok;
    };

    // Drill 1: the unfaulted baseline — every window of every stream
    // classified, no restarts.
    let (streams, shards) = (8u64, 4usize);
    let base = fleet::FleetConfig {
        pristine_stream: template.clone(),
        ..fleet::FleetConfig::lossless(streams, shards, windows)
    };
    let checkpointed = fleet::FleetConfig {
        checkpoint: Some(fleet::Checkpoint {
            path: checkpoint.clone(),
            every: NonZeroU64::new(checkpoint_every).expect("--checkpoint-every is positive"),
            config_digest: digest,
        }),
        ..base.clone()
    };
    let baseline = fleet::run_fleet(&detector, sampler, &base)?;
    check(
        baseline.restarts == 0
            && baseline.verdicts.len() == streams as usize
            && baseline
                .verdicts
                .values()
                .all(|v| v.iter().all(Option::is_some)),
        "fleet baseline classifies every window of every stream without restarts",
    );

    // Drill 2: kill one shard mid-run, twice. Only the victim restarts
    // and replays from the last checkpoint; every other shard never
    // misses a window, and the whole fleet's verdict streams come out
    // byte-identical to the baseline. The shard that owns stream 0 is
    // guaranteed non-empty.
    let victim = hbmd_core::shard_of(0, shards);
    let killed = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            panic_at: vec![(victim, windows / 3), (victim, 2 * windows / 3)],
            ..checkpointed.clone()
        },
    )?;
    check(
        killed.restarts == 2 && killed.shards[victim].restarts == 2,
        "only the victim shard's supervisor restarted, once per injected panic",
    );
    check(
        killed
            .shards
            .iter()
            .filter(|s| s.shard != victim)
            .all(|s| s.restarts == 0 && s.max_missed_gap == 0),
        "bulkhead holds: no other shard restarted or missed a window",
    );
    check(
        killed.verdicts == baseline.verdicts,
        "post-restore verdicts are byte-identical to the unfaulted run",
    );
    check(
        killed.max_missed_gap <= checkpoint_every + fleet::QUEUE_CAPACITY as u64,
        "replay gap is bounded by checkpoint spacing + queue depth",
    );
    check(
        checkpoint.exists(),
        "multiplexed fleet checkpoint flushed on clean shutdown",
    );

    // Drill 3: corrupt the load-bearing part of the snapshot — the
    // header, then the shared detector frame. Both must be refused with
    // a typed checksum error, and a fleet started over the corrupt file
    // must fall back to pristine streams and still match the baseline.
    let clean = std::fs::read(&checkpoint)?;
    // Everything before the first stream frame is header + detector
    // frame; its midpoint lands inside the model payload.
    let detector_end = snapshot::fleet_stream_section_spans(&clean)?
        .first()
        .map_or(clean.len(), |span| span.start - 8);
    let mut refusals_typed = true;
    for at in [12, detector_end / 2] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x01;
        std::fs::write(&checkpoint, &bytes)?;
        let refusal = snapshot::load_fleet(&checkpoint, digest);
        if let Err(e) = &refusal {
            eprintln!("chaos: refusal at byte {at} was: {e}");
        }
        refusals_typed &= matches!(refusal, Err(SnapshotError::ChecksumMismatch { .. }));
    }
    check(
        refusals_typed,
        "corrupted checkpoint refused with a typed checksum error",
    );
    let recovered = fleet::run_fleet(&detector, sampler, &checkpointed)?;
    check(
        recovered.refusals >= 1 && recovered.verdicts == baseline.verdicts,
        "corrupt-checkpoint start falls back to pristine streams and matches the baseline",
    );

    // Drill 4: corrupt exactly one stream section. The fleet-wide
    // restore must still succeed — only the corrupted stream falls back
    // pristine and replays, reconverging on the baseline while every
    // other stream resumes untouched.
    let mut bytes = std::fs::read(&checkpoint)?;
    let spans = snapshot::fleet_stream_section_spans(&bytes)?;
    bytes[spans[spans.len() / 2].start] ^= 0x01;
    std::fs::write(&checkpoint, &bytes)?;
    let partial = snapshot::load_fleet(&checkpoint, digest)?;
    let lost: Vec<u64> = (0..streams)
        .filter(|s| partial.streams.iter().all(|sec| sec.stream != *s))
        .collect();
    check(
        partial.lost_sections == 1 && lost.len() == 1,
        "one corrupt stream section lost alone; every other stream restored",
    );
    let lost_stream = lost.first().copied().unwrap_or(0);
    let resumed = fleet::run_fleet(&detector, sampler, &checkpointed)?;
    check(
        resumed.refusals == 0 && resumed.lost_sections >= 1,
        "fleet-wide restore succeeded with per-stream fallback, no whole-file refusal",
    );
    check(
        resumed.processed == windows
            && resumed.verdicts.get(&lost_stream) == baseline.verdicts.get(&lost_stream),
        "only the corrupted stream replayed, reconverging on the baseline",
    );

    // Drill 5: a hostile NaN burst on every stream of one shard. The
    // sanitizer abstains on all of the shard's traffic at once, so the
    // shard breaker trips (before any one stream's health score can
    // quarantine it), degraded windows are counted, and classification
    // resumes once the burst clears — all without a restart. The burst
    // ends by two thirds of the run, leaving room to recover.
    let burst = (windows / 4, windows / 4 + (windows / 3).min(64));
    let stormy = fleet::FleetConfig {
        nan_streams: (0..streams)
            .filter(|&s| hbmd_core::shard_of(s, shards) == victim)
            .map(|s| (s, burst.0, burst.1))
            .collect(),
        ..base.clone()
    };
    let storm = fleet::run_fleet(&detector, sampler, &stormy)?;
    check(
        storm.trips >= 1 && storm.degraded > 0 && storm.restarts == 0,
        "NaN burst trips the shard breaker into degraded operation",
    );
    check(
        storm
            .verdicts
            .values()
            .all(|v| v.last().is_some_and(Option::is_some)),
        "classification resumes after the burst clears",
    );

    // Drill 6: a persistently faulty endpoint. Its stream health must
    // quarantine it (protecting the shard's breaker), then readmit it
    // through probation once the fault clears — while its healthy
    // neighbors' verdicts stay untouched.
    let (q_streams, q_windows) = (4u64, 256u64);
    let q_base = fleet::FleetConfig {
        pristine_stream: template,
        // A breaker that cannot trip on one stream's faults: the drill
        // isolates the quarantine mechanism.
        breaker: (16, 16, 64),
        ..fleet::FleetConfig::lossless(q_streams, 1, q_windows)
    };
    let quiet = fleet::run_fleet(&detector, sampler, &q_base)?;
    let faulty_stream = 2u64;
    let quarantined = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            nan_streams: vec![(faulty_stream, 64, 128)],
            ..q_base.clone()
        },
    )?;
    let (standing, stream_quarantines, stream_readmissions) = quarantined
        .stream_health
        .get(&faulty_stream)
        .copied()
        .unwrap_or((StreamStanding::Active, 0, 0));
    check(
        stream_quarantines >= 1 && quarantined.quarantine_skipped >= 32,
        "persistently faulty stream was quarantined and its windows skipped",
    );
    check(
        stream_readmissions >= 1 && standing == StreamStanding::Active,
        "quarantined stream readmitted through probation once clean",
    );
    check(
        quarantined.trips == 0,
        "quarantine absorbed the faulty stream before the shard breaker tripped",
    );
    check(
        quarantined
            .verdicts
            .iter()
            .filter(|(s, _)| **s != faulty_stream)
            .all(|(s, v)| quiet.verdicts.get(s) == Some(v)),
        "healthy neighbors' verdicts are untouched by the quarantine",
    );

    // Drill 7: the flight recorder under fire. Re-run the NaN burst
    // with a recorder attached: the breaker trip must freeze the rings
    // into a checksummed bundle whose last window recorded on the
    // tripping shard is exactly the window that tripped the breaker.
    let bundle_root = dir.join("bundles");
    let _ = std::fs::remove_dir_all(&bundle_root);
    let hub = Arc::new(
        RecorderHub::new(shards, 512)
            .with_bundle_dir(&bundle_root)
            .with_deterministic(true)
            .with_families(AppClass::ALL.iter().map(|c| c.name().to_owned()).collect()),
    );
    let recorded = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            recorder: Some(Arc::clone(&hub)),
            ..stormy
        },
    )?;
    check(
        recorded.trips >= 1 && hub.bundles_written() >= 1,
        "breaker trip froze the flight rings into a diagnostic bundle",
    );
    let bundle_path = bundle_root.join("bundle-000001-breaker_trip");
    match read_bundle(&bundle_path) {
        Ok(bundle) => {
            let trigger_meta = json::parse(bundle.text("trigger.json")?)?;
            let field = |name: &str| trigger_meta.get(name).and_then(json::Value::as_u64);
            let trip = (field("shard"), field("stream"), field("cursor"));
            check(
                trigger_meta.get("reason").and_then(json::Value::as_str) == Some("breaker_trip")
                    && trip.2.is_some(),
                "bundle trigger metadata names the breaker trip and its window",
            );
            let mut last_window = None;
            for line in bundle.text("events.jsonl")?.lines() {
                let event = json::parse(line)?;
                let field = |name: &str| event.get(name).and_then(json::Value::as_u64);
                if event.get("kind").and_then(json::Value::as_str) == Some("window")
                    && field("shard") == trip.0
                {
                    last_window = Some((field("shard"), field("stream"), field("cursor")));
                }
            }
            check(
                last_window == Some(trip),
                "bundle's last recorded window is the one that tripped the breaker",
            );
        }
        Err(e) => {
            eprintln!("chaos: bundle refused: {e}");
            check(
                false,
                "bundle trigger metadata names the breaker trip and its window",
            );
            check(
                false,
                "bundle's last recorded window is the one that tripped the breaker",
            );
        }
    }
    let _ = std::fs::remove_dir_all(&bundle_root);

    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_dir(&dir);
    let _ = guard;
    println!("chaos: restarts {}", killed.restarts);
    println!("chaos: {}", if passed { "PASS" } else { "FAIL" });
    Ok(passed)
}

/// `repro trace-report` — load a `--trace-jsonl` log and print where
/// the time went: per-name aggregates, the critical path, and
/// optionally a flamegraph collapsed-stack file.
fn trace_report(args: &[String]) -> ExitCode {
    let Some(options) = TRACE_REPORT.parse(args, Options::default()) else {
        return ExitCode::FAILURE;
    };
    let Some(file) = options.operands.first() else {
        eprintln!("usage: repro trace-report <trace.jsonl> [--collapsed PATH]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::parse_jsonl(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);

    println!(
        "# trace report — {} spans in {} trees, {} ms covered\n",
        trace.len(),
        trace.roots.len(),
        ms(trace.total_ns())
    );
    let mut table = TextTable::new(vec!["span", "count", "total ms", "self ms", "max ms"]);
    for row in trace.aggregate() {
        table.row(vec![
            row.name,
            row.count.to_string(),
            ms(row.total_ns),
            ms(row.self_ns),
            ms(row.max_ns),
        ]);
    }
    print!("{}", table.render());

    println!("\ncritical path (heaviest child at each level):");
    for (depth, hop) in trace.critical_path().iter().enumerate() {
        println!(
            "{}{} — {} ms ({:.0}% of parent, {} ms self)",
            "  ".repeat(depth),
            hop.name,
            ms(hop.duration_ns),
            hop.share_of_parent * 100.0,
            ms(hop.self_ns),
        );
    }

    if let Some(path) = &options.collapsed {
        if let Err(e) = std::fs::write(path, trace.collapsed()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (folded stacks; feed to a flamegraph renderer)");
    }
    ExitCode::SUCCESS
}

/// `repro bundle-report` — verify a diagnostic bundle's checksums,
/// then reconstruct the incident timeline on stdout: trigger metadata,
/// per-ring seqno ranges, event counts by kind, and the recorded tail
/// of window verdicts, faults, health transitions, and restart
/// markers. A corrupted bundle is refused with the typed error on
/// stderr and a nonzero exit.
fn bundle_report(args: &[String]) -> ExitCode {
    let [dir] = args else {
        eprintln!("usage: repro bundle-report <bundle-dir>");
        return ExitCode::FAILURE;
    };
    let dir = PathBuf::from(dir);
    let bundle = match read_bundle(&dir) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("bundle-report: {} refused: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    match render_bundle_report(&dir, &bundle) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bundle-report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The verified-bundle timeline as one printable string. Errors only
/// on malformed JSON inside an already checksum-verified bundle.
fn render_bundle_report(
    dir: &std::path::Path,
    bundle: &hbmd_obs::recorder::Bundle,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Diagnostic bundle {}", dir.display());
    let _ = writeln!(out, "\n## Verified files");
    for entry in &bundle.entries {
        let _ = writeln!(
            out,
            "  {:<14} {:>8} bytes  fnv1a64={:016x}",
            entry.name, entry.size, entry.digest
        );
    }

    let trigger = json::parse(bundle.text("trigger.json").map_err(|e| e.to_string())?)
        .map_err(|e| format!("trigger.json: {e}"))?;
    let opt = |value: Option<&json::Value>| -> String {
        value
            .and_then(json::Value::as_u64)
            .map_or("-".to_owned(), |v| v.to_string())
    };
    let _ = writeln!(out, "\n## Trigger");
    let _ = writeln!(
        out,
        "  reason={} shard={} stream={} cursor={}",
        trigger
            .get("reason")
            .and_then(json::Value::as_str)
            .unwrap_or("?"),
        opt(trigger.get("shard")),
        opt(trigger.get("stream")),
        opt(trigger.get("cursor")),
    );
    if let Some(details) = trigger.get("details").and_then(json::Value::as_str) {
        if !details.is_empty() {
            let _ = writeln!(out, "  details: {details}");
        }
    }
    if let Some(rings) = trigger.get("rings").and_then(json::Value::as_array) {
        for ring in rings {
            let _ = writeln!(
                out,
                "  ring shard={}: {} events, seq {}..{}, {} dropped",
                opt(ring.get("shard")),
                opt(ring.get("events")),
                opt(ring.get("first_seq")),
                opt(ring.get("last_seq")),
                opt(ring.get("dropped")),
            );
        }
    }

    if let Ok(manifest_text) = bundle.text("manifest.json") {
        if let Ok(manifest) = json::parse(manifest_text) {
            let digest = manifest
                .get("config_digest")
                .and_then(json::Value::as_u64)
                .map_or("?".to_owned(), |d| format!("{d:016x}"));
            let _ = writeln!(
                out,
                "\n## Run\n  version={} config_digest={}",
                manifest
                    .get("version")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                digest,
            );
        }
    }

    let events_text = bundle.text("events.jsonl").map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    for (lineno, line) in events_text.lines().enumerate() {
        events
            .push(json::parse(line).map_err(|e| format!("events.jsonl line {}: {e}", lineno + 1))?);
    }
    let mut counts: Vec<(String, usize)> = Vec::new();
    for event in &events {
        let kind = event
            .get("kind")
            .and_then(json::Value::as_str)
            .unwrap_or("?");
        match counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind.to_owned(), 1)),
        }
    }
    let _ = writeln!(out, "\n## Events ({} recorded)", events.len());
    for (kind, n) in &counts {
        let _ = writeln!(out, "  {kind:<12} {n}");
    }

    // The incident tail: every non-window marker, then the last 16
    // recorded windows — enough to see what the verdict stream was
    // doing when the trigger fired.
    let _ = writeln!(out, "\n## Timeline tail");
    let describe = |event: &json::Value| -> String {
        let kind = event
            .get("kind")
            .and_then(json::Value::as_str)
            .unwrap_or("?");
        let head = format!(
            "  seq={:>6} shard={} {kind:<10}",
            opt(event.get("seq")),
            opt(event.get("shard")),
        );
        match kind {
            "window" => format!(
                "{head} stream={} cursor={} verdict={} family={} votes={}/{} abstained={}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("verdict")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                event
                    .get("family")
                    .and_then(json::Value::as_str)
                    .unwrap_or("-"),
                opt(event.get("votes")),
                opt(event.get("of")),
                event
                    .get("abstained")
                    .and_then(json::Value::as_bool)
                    .unwrap_or(false),
            ),
            "health" => format!(
                "{head} stream={} cursor={} {} -> {}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("from")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                event.get("to").and_then(json::Value::as_str).unwrap_or("?"),
            ),
            "fault" => format!(
                "{head} stream={} cursor={} fault={}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("fault")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
            ),
            "breaker" => format!(
                "{head} stream={} cursor={} breaker opened",
                opt(event.get("stream")),
                opt(event.get("cursor")),
            ),
            "checkpoint" => format!("{head} cursor={}", opt(event.get("cursor"))),
            "restart" => format!("{head} attempt={}", opt(event.get("attempt"))),
            _ => head,
        }
    };
    let markers: Vec<&json::Value> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) != Some("window"))
        .collect();
    for marker in &markers {
        let _ = writeln!(out, "{}", describe(marker));
    }
    let windows: Vec<&json::Value> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) == Some("window"))
        .collect();
    let tail = windows.len().saturating_sub(16);
    if tail > 0 {
        let _ = writeln!(out, "  ... {tail} earlier window events elided ...");
    }
    for window in &windows[tail..] {
        let _ = writeln!(out, "{}", describe(window));
    }
    if let (Some(cursor), Some(last)) = (
        trigger.get("cursor").and_then(json::Value::as_u64),
        windows.last(),
    ) {
        if last.get("cursor").and_then(json::Value::as_u64) == Some(cursor) {
            let _ = writeln!(
                out,
                "\ntriggering window: cursor={cursor} is the last recorded window"
            );
        }
    }
    Ok(out)
}

/// An experiment: print its tables to stdout, given the run's
/// configuration and collection cache.
type Experiment = fn(&ExperimentConfig, &CollectCache) -> Result<(), Box<dyn std::error::Error>>;

/// What `repro all` runs, in order.
const ALL: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("fig6", fig6),
    ("fig8", fig8),
    ("table2", table2),
    ("fig9", |c, k| scatter(c, k, AppClass::Rootkit, "Figure 9")),
    ("fig10", |c, k| scatter(c, k, AppClass::Trojan, "Figure 10")),
    ("fig11", |c, k| scatter(c, k, AppClass::Virus, "Figure 11")),
    ("fig12", |c, k| scatter(c, k, AppClass::Worm, "Figure 12")),
    ("fig13", fig13),
    ("fig14", |c, k| hardware_figures(c, k, "fig14")),
    ("fig15", |c, k| hardware_figures(c, k, "fig15")),
    ("fig16", |c, k| hardware_figures(c, k, "fig16")),
    ("fig17", |c, k| multiclass_figures(c, k, "fig17")),
    ("fig18", |c, k| multiclass_figures(c, k, "fig18")),
    ("fig19", fig19),
    ("ablate-ensemble", ablate_ensemble),
    ("ablate-mux", ablate_mux),
    ("ablate-noise", ablate_noise),
    ("ablate-features", ablate_features),
    ("ablate-mlp", ablate_mlp),
    ("ablate-prefetch", ablate_prefetch),
    ("roc", roc_analysis),
    ("detect-latency", detect_latency),
    ("robustness", robustness_sweep),
];

/// Experiments that run only when named.
const BY_NAME: &[(&str, Experiment)] = &[
    ("predict", predict_phase),
    ("adversarial", adversarial_phase),
    ("emit-hdl", emit_hdl),
];

/// The `predict` experiment: fit every compilable scheme, lower it
/// through the compilation pass, and report the compiled evaluator's
/// footprint (deterministic: stdout) plus its batched columnar
/// throughput (machine-dependent: stderr only).
fn predict_phase(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Predict: compiled evaluator footprint and batched throughput");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let (train, test) = (to_binary_dataset(&train_hpc), to_binary_dataset(&test_hpc));
    if test.is_empty() {
        return Err("predict phase needs a non-empty test split".into());
    }

    let kinds = [
        ClassifierKind::OneR,
        ClassifierKind::JRip,
        ClassifierKind::J48,
        ClassifierKind::RepTree,
        ClassifierKind::AdaBoost,
        ClassifierKind::Bagging,
        ClassifierKind::RandomForest,
    ];
    let mut table = TextTable::new(vec!["scheme", "accuracy %", "nodes", "bytes"]);
    for kind in kinds {
        let mut model = kind.instantiate();
        model.fit(&train)?;
        let accuracy = Evaluation::of(&model, &test).accuracy();
        let compiled = model
            .compile()
            .ok_or_else(|| format!("{kind} did not compile"))?;
        table.row(vec![
            kind.name().to_owned(),
            format!("{:.2}", accuracy * 100.0),
            compiled.node_count().to_string(),
            compiled.byte_size().to_string(),
        ]);

        // A fixed window budget (not a fixed duration), so the phase
        // does the same work at any machine speed.
        let rows = test.rows();
        let target = 200_000usize;
        let mut predicted = 0usize;
        let started = Instant::now();
        while predicted < target {
            predicted += compiled.predict_batch(rows).len();
        }
        let rate = predicted as f64 / started.elapsed().as_secs_f64();
        eprintln!(
            "predict: {} {:.3e} windows/sec compiled batch ({predicted} windows)",
            kind.name(),
            rate,
        );
    }
    print!("{}", table.render());
    Ok(())
}

/// The `adversarial` experiment: craft plausibility-constrained
/// evasion attacks against each trained detector, score the same
/// crafted windows under every defense (clean / retrained /
/// ensemble-disagreement), and measure end-to-end detection against
/// behaviour-level camouflage catalogs. All tables and the per-scheme
/// summary lines are deterministic (stdout); the attack throughput
/// goes to stderr only.
fn adversarial_phase(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Adversarial: accuracy under attack, clean vs defended");
    println!("(gradient-free evasion inside a benign plausibility envelope; arXiv:2005.03644 threat model)");
    let schemes = [ClassifierKind::J48, ClassifierKind::RandomForest];
    let budgets = [0.05, 0.1, 0.2, 0.4];
    let started = Instant::now();
    let rows = adversarial::accuracy_under_attack(cache, config, &schemes, &budgets)?;
    let elapsed = started.elapsed().as_secs_f64();

    let mut table = TextTable::new(vec![
        "budget",
        "classifier",
        "defense",
        "baseline",
        "detection",
        "evasion",
        "mean L1",
        "iters",
        "windows",
        "susp trips",
    ]);
    for row in &rows {
        table.row(vec![
            pct(row.budget),
            row.scheme.to_string(),
            row.defense.to_string(),
            pct(row.baseline_detection),
            pct(row.detection_rate),
            pct(row.evasion_rate),
            format!("{:.1}", row.mean_l1),
            format!("{:.1}", row.mean_iterations),
            row.windows.to_string(),
            row.suspicion_trips.to_string(),
        ]);
    }
    print!("{}", table.render());

    // One machine-parseable verdict line per scheme at the heaviest
    // budget — the CI smoke gate asserts on these.
    let top_budget = budgets[budgets.len() - 1];
    for scheme in schemes {
        let at_top: Vec<&adversarial::AdversarialRow> = rows
            .iter()
            .filter(|r| r.scheme == scheme && r.budget == top_budget)
            .collect();
        let clean = at_top
            .iter()
            .find(|r| r.defense == adversarial::DefenseKind::Clean)
            .ok_or("missing clean defense row")?;
        let defended = at_top
            .iter()
            .filter(|r| r.defense != adversarial::DefenseKind::Clean)
            .map(|r| r.evasion_rate)
            .fold(f64::INFINITY, f64::min);
        println!(
            "adversarial: scheme={scheme} budget={top_budget} clean_evasion={:.4} defended_evasion={defended:.4}",
            clean.evasion_rate,
        );
    }

    println!();
    println!("### Behaviour-level camouflage (evasive catalog variants)");
    let tactic_rows = adversarial::camouflage_sweep(cache, config, &schemes)?;
    let mut camo = TextTable::new(vec!["tactic", "classifier", "detection", "windows"]);
    for row in &tactic_rows {
        camo.row(vec![
            row.tactic.clone(),
            row.scheme.to_string(),
            pct(row.detection_rate),
            row.windows.to_string(),
        ]);
    }
    print!("{}", camo.render());

    let attacked: usize = rows
        .iter()
        .filter(|r| r.defense == adversarial::DefenseKind::Clean)
        .map(|r| r.windows)
        .sum();
    let rate = attacked as f64 / elapsed.max(1e-9);
    eprintln!(
        "adversarial: {rate:.0} attacked windows/sec over {} sweep cells ({attacked} windows)",
        rows.len() / adversarial::DefenseKind::ALL.len(),
    );
    Ok(())
}

fn table1(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Table 1: samples per application class");
    println!("paper: backdoor 452, rootkit 324, trojan 1169, virus 650, worm 149, benign 326 (3,070 total)");
    let rows = experiments::census(cache, config);
    let mut table = TextTable::new(vec!["class", "samples", "share", "dataset rows"]);
    let mut total = 0usize;
    for row in &rows {
        total += row.samples;
        table.row(vec![
            row.class.to_string(),
            row.samples.to_string(),
            pct(row.share),
            row.dataset_rows.to_string(),
        ]);
    }
    table.row(vec![
        "total".to_owned(),
        total.to_string(),
        String::new(),
        String::new(),
    ]);
    print!("{}", table.render());
    Ok(())
}

fn fig6(config: &ExperimentConfig, cache: &CollectCache) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 6: class distribution of the database");
    println!("paper: trojan-dominated, mirroring the in-the-wild distribution (Figure 3)");
    let rows = experiments::census(cache, config);
    let mut table = TextTable::new(vec!["class", "share", "bar"]);
    for row in &rows {
        let bar = "#".repeat((row.share * 60.0).round() as usize);
        table.row(vec![row.class.to_string(), pct(row.share), bar]);
    }
    print!("{}", table.render());
    Ok(())
}

fn table2(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Table 2: PCA-reduced features per class");
    println!("paper: 4 common features + custom 8 per malware class");
    let result = pca::table2(cache, config)?;
    println!("common features: {}", result.common.join(", "));
    let mut table = TextTable::new(vec!["class", "custom top-8 features"]);
    for (class, features) in &result.per_class {
        table.row(vec![class.to_string(), features.join(", ")]);
    }
    print!("{}", table.render());
    Ok(())
}

fn fig8(config: &ExperimentConfig, cache: &CollectCache) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 8: PCA eigen summary (WEKA PrincipalComponents -R 0.95)");
    let summary = pca::eigen_summary(cache, config)?;
    println!(
        "components for 95% variance: {} of 16",
        summary.components_for_95
    );
    let mut table = TextTable::new(vec![
        "rank",
        "attribute",
        "score",
        "eigenvalue",
        "explained",
    ]);
    for (i, (name, score)) in summary.ranking.iter().enumerate() {
        table.row(vec![
            (i + 1).to_string(),
            name.clone(),
            format!("{score:.4}"),
            format!("{:.4}", summary.eigenvalues[i]),
            pct(summary.explained[i]),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn scatter(
    config: &ExperimentConfig,
    cache: &CollectCache,
    class: AppClass,
    figure: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## {figure}: PCA plot for {class} (top-2 components, class vs benign)");
    let points = pca::scatter(cache, config, class)?;
    // Render as a coarse ASCII density plot: 'b' benign, 'm' malware,
    // '*' both.
    let (width, height) = (64usize, 20usize);
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in &points {
        min_x = min_x.min(p.pc1);
        max_x = max_x.max(p.pc1);
        min_y = min_y.min(p.pc2);
        max_y = max_y.max(p.pc2);
    }
    let mut grid = vec![vec![' '; width]; height];
    for p in &points {
        let x = ((p.pc1 - min_x) / (max_x - min_x).max(1e-12) * (width - 1) as f64) as usize;
        let y = ((p.pc2 - min_y) / (max_y - min_y).max(1e-12) * (height - 1) as f64) as usize;
        let cell = &mut grid[height - 1 - y][x];
        let mark = if p.malware { 'm' } else { 'b' };
        *cell = match (*cell, mark) {
            (' ', m) => m,
            (existing, m) if existing == m => m,
            _ => '*',
        };
    }
    let malware_mean: f64 = points
        .iter()
        .filter(|p| p.malware)
        .map(|p| p.pc1)
        .sum::<f64>()
        / points.iter().filter(|p| p.malware).count().max(1) as f64;
    let benign_mean: f64 = points
        .iter()
        .filter(|p| !p.malware)
        .map(|p| p.pc1)
        .sum::<f64>()
        / points.iter().filter(|p| !p.malware).count().max(1) as f64;
    for line in grid {
        println!("|{}|", line.into_iter().collect::<String>());
    }
    println!(
        "PC1 centroid separation: {:.2} ({} points; b=benign, m={}, *=overlap)",
        (malware_mean - benign_mean).abs(),
        points.len(),
        class
    );
    Ok(())
}

fn fig13(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 13: binary accuracy, 16 vs PCA top-8 vs top-4 features");
    println!("paper: most classifiers dip slightly at 4 features; J48/OneR barely move");
    let rows = binary::accuracy_comparison(cache, config)?;
    let mut table = TextTable::new(vec![
        "classifier",
        "16 features",
        "8 features",
        "4 features",
        "8->4 cost",
    ]);
    for row in &rows {
        table.row(vec![
            row.scheme.to_string(),
            pct(row.accuracy_full),
            pct(row.accuracy_top8),
            pct(row.accuracy_top4),
            format!("{:+.1}pp", row.reduction_cost() * 100.0),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn hardware_figures(
    config: &ExperimentConfig,
    cache: &CollectCache,
    which: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let rows = hardware::comparison(cache, config, &SynthConfig::default())?;
    match which {
        "fig14" => {
            println!("## Figure 14: FPGA area comparison (8 vs 4 features)");
            println!("paper: OneR/JRip tiny; MLP an order of magnitude larger");
            let mut table = TextTable::new(vec![
                "classifier",
                "area (8f)",
                "area (4f)",
                "LUT/FF/DSP/BRAM (8f)",
            ]);
            for row in &rows {
                let r = &row.top8.report.resources;
                table.row(vec![
                    row.scheme.to_string(),
                    format!("{:.0}", row.top8.report.area_units()),
                    format!("{:.0}", row.top4.report.area_units()),
                    format!("{}/{}/{}/{}", r.luts, r.ffs, r.dsps, r.brams),
                ]);
            }
            print!("{}", table.render());
        }
        "fig15" => {
            println!("## Figure 15: FPGA latency comparison (8 vs 4 features)");
            println!("paper: rule learners in a couple of cycles; networks slower");
            let mut table = TextTable::new(vec![
                "classifier",
                "cycles (8f)",
                "latency ns (8f)",
                "cycles (4f)",
                "power mW (8f)",
            ]);
            for row in &rows {
                table.row(vec![
                    row.scheme.to_string(),
                    row.top8.report.latency_cycles.to_string(),
                    format!("{:.0}", row.top8.report.latency_ns()),
                    row.top4.report.latency_cycles.to_string(),
                    format!("{:.1}", row.top8.report.power_mw),
                ]);
            }
            print!("{}", table.render());
        }
        _ => {
            println!("## Figure 16: accuracy/area comparison (8 vs 4 features)");
            println!("paper: JRip and OneR dominate the figure of merit");
            let mut table = TextTable::new(vec![
                "classifier",
                "acc (8f)",
                "acc/area (8f)",
                "acc (4f)",
                "acc/area (4f)",
            ]);
            for row in &rows {
                table.row(vec![
                    row.scheme.to_string(),
                    pct(row.top8.accuracy),
                    format!("{:.3}", row.top8.accuracy_per_area()),
                    pct(row.top4.accuracy),
                    format!("{:.3}", row.top4.accuracy_per_area()),
                ]);
            }
            print!("{}", table.render());
        }
    }
    Ok(())
}

fn multiclass_figures(
    config: &ExperimentConfig,
    cache: &CollectCache,
    which: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let rows = multiclass::accuracy_comparison(cache, config)?;
    if which == "fig17" {
        println!("## Figure 17: average multiclass accuracy (MLR / MLP / SVM)");
        println!("paper: the neural network (MLP) leads the multiclass comparison");
        let mut table = TextTable::new(vec!["classifier", "average accuracy"]);
        for row in &rows {
            table.row(vec![row.scheme.to_string(), pct(row.average_accuracy)]);
        }
        print!("{}", table.render());
    } else {
        println!("## Figure 18: per-class accuracy for the multiclass classifiers");
        let mut headers = vec!["class"];
        let names: Vec<String> = rows.iter().map(|r| r.scheme.to_string()).collect();
        headers.extend(names.iter().map(String::as_str));
        let mut table = TextTable::new(headers);
        for class in AppClass::ALL {
            let mut cells = vec![class.to_string()];
            for row in &rows {
                cells.push(pct(row.per_class[class.index()]));
            }
            table.row(cells);
        }
        print!("{}", table.render());
    }
    Ok(())
}

fn fig19(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 19: PCA-assisted MLR vs normal MLR");
    println!("paper: custom per-class 8-feature sets gain ~7pp over non-custom features");
    let result = multiclass::pca_assisted_comparison(cache, config)?;
    let mut table = TextTable::new(vec!["variant", "accuracy"]);
    table.row(vec![
        "MLR, all 16 features (context)".to_owned(),
        pct(result.plain_full_accuracy),
    ]);
    table.row(vec![
        "normal MLR, generic top-8".to_owned(),
        pct(result.plain_accuracy),
    ]);
    table.row(vec![
        "PCA-assisted MLR, custom-8 per class".to_owned(),
        pct(result.assisted_accuracy),
    ]);
    print!("{}", table.render());
    println!(
        "improvement over non-custom reduction: {:+.1}pp overall, {:+.1}pp mean per-class",
        result.improvement() * 100.0,
        result.macro_improvement() * 100.0
    );
    let mut per_class = TextTable::new(vec!["class", "normal recall", "assisted recall"]);
    for class in AppClass::ALL {
        per_class.row(vec![
            class.to_string(),
            pct(result.plain_per_class[class.index()]),
            pct(result.assisted_per_class[class.index()]),
        ]);
    }
    print!("{}", per_class.render());
    Ok(())
}

fn detect_latency(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: run-time detection latency (windows to alarm)");
    println!("(J48 detector, 4-window vote, 3-vote threshold, unseen specimens)");
    let rows = latency::windows_to_alarm(cache, config, 8, 32)?;
    let mut table = TextTable::new(vec![
        "family",
        "detected",
        "mean windows",
        "mean ms (10ms/window)",
    ]);
    for row in &rows {
        table.row(vec![
            row.class.to_string(),
            format!("{}/{}", row.detected, row.observed),
            if row.detected > 0 {
                format!("{:.1}", row.mean_windows_to_alarm)
            } else {
                "-".to_owned()
            },
            if row.detected > 0 {
                format!("{:.0}", row.mean_ms_to_alarm())
            } else {
                "-".to_owned()
            },
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn robustness_sweep(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: graceful degradation under collection faults");
    println!("(detectors trained clean, evaluated through a fault-injected pipeline)");
    let schemes = [
        ClassifierKind::J48,
        ClassifierKind::JRip,
        ClassifierKind::Logistic,
        ClassifierKind::NaiveBayes,
    ];
    let rates = [0.0, 0.02, 0.05, 0.1, 0.2];
    let rows = robustness::degradation_sweep(cache, config, &schemes, &rates)?;
    let mut table = TextTable::new(vec![
        "fault rate",
        "classifier",
        "accuracy (decided)",
        "abstained",
        "windows",
        "quarantined",
        "retries",
    ]);
    for row in &rows {
        table.row(vec![
            pct(row.fault_rate),
            row.scheme.to_string(),
            if row.accuracy.is_nan() {
                "-".to_owned()
            } else {
                pct(row.accuracy)
            },
            pct(row.abstain_rate),
            row.windows.to_string(),
            row.quarantined.to_string(),
            row.retries.to_string(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn roc_analysis(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: ROC analysis of the score-producing detectors");
    println!("(a deployed monitor is tuned to a false-positive budget, not peak accuracy)");
    let rows = roc::comparison(cache, config)?;
    let mut table = TextTable::new(vec!["scheme", "AUC", "TPR @ 1% FPR", "TPR @ 5% FPR"]);
    for row in &rows {
        table.row(vec![
            row.scheme.clone(),
            format!("{:.4}", row.auc),
            pct(row.at_1pct_fpr.tpr),
            pct(row.at_5pct_fpr.tpr),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn emit_hdl(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## SystemVerilog skeletons for the trained rule learners");
    let collection = cache.collect(config)?;
    let (train_hpc, _) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let indices = plan.resolve(FeatureSet::Top(8))?;
    let train = to_binary_dataset(&train_hpc).select_features(&indices)?;
    for kind in [ClassifierKind::OneR, ClassifierKind::JRip] {
        let mut model = kind.instantiate();
        hbmd_ml::fit_timed(&mut model, &train)?;
        let rtl = hbmd_fpga::emit_system_verilog(&model.datapath()?, &SynthConfig::default());
        println!("{rtl}");
    }
    Ok(())
}

fn ablate_ensemble(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: ensemble learning (RAID'15 / DAC'18 follow-ups)");
    println!("(single learners vs boosting, bagging and random forests, top-8 features)");
    let rows = ensemble::comparison(cache, config)?;
    let mut table = TextTable::new(vec![
        "scheme",
        "accuracy",
        "area",
        "latency cyc",
        "acc/area",
    ]);
    for row in &rows {
        table.row(vec![
            row.scheme.to_string(),
            pct(row.accuracy),
            format!("{:.0}", row.area_units),
            row.latency_cycles.to_string(),
            format!("{:.3}", row.accuracy_per_area()),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_prefetch(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: L1D next-line prefetcher vs counter signal");
    println!("(prefetching shifts traffic from demand misses to prefetch references)");
    let variant = |label: &str, cpu| {
        let mut variant = config.clone();
        variant.collector.sampler.cpu = cpu;
        (label.to_owned(), variant)
    };
    ablation(
        cache,
        "cpu model",
        &[ClassifierKind::J48, ClassifierKind::Logistic],
        vec![
            variant(
                "no prefetcher (paper model)",
                hbmd_uarch::CpuConfig::haswell(),
            ),
            variant(
                "next-line L1D prefetcher",
                hbmd_uarch::CpuConfig::haswell_prefetch(),
            ),
        ],
    )
}

fn ablate_mux(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: PMU multiplexing pressure vs detection accuracy");
    println!("(design note: counter scaling noise is part of the measured signal)");
    let variant = |label: &str, pmu| {
        let mut variant = config.clone();
        variant.collector.sampler.pmu = pmu;
        (label.to_owned(), variant)
    };
    ablation(
        cache,
        "pmu mode",
        &[ClassifierKind::J48, ClassifierKind::Logistic],
        vec![
            variant("exact counting (no PMU sharing)", None),
            variant(
                "16 events on 8 counters (paper)",
                Some(PmuConfig::haswell_collected()),
            ),
            variant(
                "52 events on 8 counters (full catalog)",
                Some(PmuConfig::haswell_full()),
            ),
        ],
    )
}

fn ablate_noise(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: container isolation vs shared-host noise");
    println!("(the LXC containers' purpose: keep host activity out of the counters)");
    let variants = [0.0, 0.5, 1.0, 2.0].map(|noise| {
        let mut variant = config.clone();
        variant.collector.sampler.host_noise = noise;
        (format!("{noise:.1}"), variant)
    });
    ablation(
        cache,
        "host noise ratio",
        &[ClassifierKind::J48],
        variants.into(),
    )
}

/// One table row per `(label, config)` variant: collect the variant,
/// split it by specimen, and print each scheme's held-out accuracy.
fn ablation(
    cache: &CollectCache,
    column: &str,
    schemes: &[ClassifierKind],
    variants: Vec<(String, ExperimentConfig)>,
) -> Result<(), Box<dyn std::error::Error>> {
    let headers: Vec<String> = schemes.iter().map(|s| format!("{s} accuracy")).collect();
    let mut table = TextTable::new(
        std::iter::once(column)
            .chain(headers.iter().map(String::as_str))
            .collect(),
    );
    for (label, variant) in variants {
        let collection = cache.collect(&variant)?;
        let (train_hpc, test_hpc) = collection.dataset.split(0.7, variant.split_seed);
        let train = to_binary_dataset(&train_hpc);
        let test = to_binary_dataset(&test_hpc);
        let mut row = vec![label];
        for kind in schemes {
            let mut model = kind.instantiate();
            hbmd_ml::fit_timed(&mut model, &train)?;
            row.push(pct(Evaluation::of(&model, &test).accuracy()));
        }
        table.row(row);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_features(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: feature-count sweep (beyond the paper's 8 and 4)");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let train_full = to_binary_dataset(&train_hpc);
    let test_full = to_binary_dataset(&test_hpc);
    let mut table = TextTable::new(vec![
        "features",
        "J48 accuracy",
        "Logistic accuracy",
        "Logistic area",
    ]);
    for k in [2usize, 4, 8, 12, 16] {
        let indices = plan.resolve(FeatureSet::Top(k))?;
        let train = train_full.select_features(&indices)?;
        let test = test_full.select_features(&indices)?;
        let mut j48 = ClassifierKind::J48.instantiate();
        hbmd_ml::fit_timed(&mut j48, &train)?;
        let mut logistic = ClassifierKind::Logistic.instantiate();
        hbmd_ml::fit_timed(&mut logistic, &train)?;
        let area =
            hbmd_fpga::synthesize(&logistic.datapath()?, &SynthConfig::default()).area_units();
        table.row(vec![
            k.to_string(),
            pct(Evaluation::of(&j48, &test).accuracy()),
            pct(Evaluation::of(&logistic, &test).accuracy()),
            format!("{area:.0}"),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_mlp(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: MLP hidden width vs accuracy and area");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let train = to_binary_dataset(&train_hpc);
    let test = to_binary_dataset(&test_hpc);
    let mut table = TextTable::new(vec!["hidden units", "accuracy", "area", "latency cycles"]);
    for hidden in [2usize, 4, 9, 16, 32] {
        let mut mlp = hbmd_ml::Mlp::with_hidden(hidden);
        hbmd_ml::fit_timed(&mut mlp, &train)?;
        let evaluation = Evaluation::of(&mlp, &test);
        let report = hbmd_fpga::synthesize(
            &hbmd_fpga::ToDatapath::datapath(&mlp)?,
            &SynthConfig::default(),
        );
        table.row(vec![
            hidden.to_string(),
            pct(evaluation.accuracy()),
            format!("{:.0}", report.area_units()),
            report.latency_cycles.to_string(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}
