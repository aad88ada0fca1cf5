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
//!
//! This file holds the dispatch, the flag tables every command is
//! parsed with, usage and the run manifest. Each command runs from its
//! own module: [`serve`], [`chaos`], [`report`] (`trace-report` and
//! `bundle-report`) and [`experiments`] (the runners, and the tables
//! `all` and named runs read).

mod chaos;
mod experiments;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use hbmd_bench::{config_at_scale, config_digest};
use hbmd_core::experiments::ExperimentConfig;
use hbmd_core::CollectCache;
use hbmd_obs::manifest::RunManifest;
use hbmd_obs::{JsonlSink, Obs};
use hbmd_perf::SourceSelect;

use experiments::{experiment, Experiment, ALL, BY_NAME};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands dispatch on the first positional before flag parsing,
    // so the default experiment mode — and its byte-identical stdout —
    // is untouched.
    match args.first().map(String::as_str) {
        Some("serve") => return serve::serve_mode(&args[1..]),
        Some("chaos") => return chaos::chaos_mode(&args[1..]),
        Some("trace-report") => return report::trace_report(&args[1..]),
        Some("bundle-report") => return report::bundle_report(&args[1..]),
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

const BUNDLE_REPORT: Command = Command {
    name: "bundle-report",
    flags: &[],
    operands: "<bundle-dir>",
    operand: |o, arg| o.operands.is_empty() && !arg.starts_with("--"),
};

/// The run's identity card, shared by `--metrics-json` and the
/// `/manifest` endpoint of `repro serve`.
fn build_manifest(scale: f64, config: &ExperimentConfig, experiments: &[String]) -> RunManifest {
    let mut manifest = RunManifest::new("repro", env!("CARGO_PKG_VERSION"));
    manifest.scale = scale;
    manifest.source = config.collector.sampler.source.name().to_owned();
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
