//! `repro serve`: one shared detector monitoring a supervised fleet
//! over HTTP.

use std::num::NonZeroU64;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hbmd_bench::{config_digest, fleet};
use hbmd_core::experiments::ExperimentConfig;
use hbmd_core::snapshot;
use hbmd_core::{
    ClassifierKind, CollectCache, CoreError, Detector, DetectorBuilder, FeatureSet,
    OnlineDetectorBuilder, StreamState,
};
use hbmd_malware::AppClass;
use hbmd_obs::health::FleetHealth;
use hbmd_obs::recorder::{RecorderHub, Trigger};
use hbmd_obs::{json, serve, Obs};
use hbmd_perf::{PerfError, SourceSelect};

use crate::{build_manifest, Options, SERVE};

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
    // SAFETY: `signal` is the C library's, called with a valid signal
    // number and an `extern "C" fn(i32)` handler that only stores to an
    // atomic, which is async-signal-safe.
    unsafe {
        signal(2, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Train the serve/chaos detector: J48 on the top-8 features, shared by
/// every stream, and the pristine stream state of the 4-window vote the
/// serve endpoint has always used.
pub(crate) fn train_monitor(
    config: &ExperimentConfig,
    label: &str,
) -> Result<(Arc<Detector>, StreamState), Box<dyn std::error::Error>> {
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
    let detector = Arc::new(detector);
    let template = monitor_stream(&detector)?;
    Ok((detector, template))
}

/// The pristine state every monitored stream starts from: a 4-window
/// vote that alarms at 3 malicious verdicts.
fn monitor_stream(detector: &Arc<Detector>) -> Result<StreamState, CoreError> {
    OnlineDetectorBuilder::shared(Arc::clone(detector))
        .window(4)
        .threshold(3)
        .build_stream()
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
pub(crate) fn serve_mode(args: &[String]) -> ExitCode {
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
    // serve. Training, the fleet's windows, the manifest and
    // `build_info{source}` all read the one source set here.
    if let Err(PerfError::BackendUnavailable { reason }) = options.source.probe() {
        eprintln!(
            "serve: counter source `{}` unavailable ({reason}); falling back to sim",
            options.source
        );
        options.source = SourceSelect::Sim;
    }
    let mut config = options.config();
    config.collector.sampler.source = options.source;
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
        Some(detector) => {
            let template = monitor_stream(&detector)?;
            (detector, template)
        }
        None => {
            eprintln!(
                "serve: training J48 detector at scale {} ({} samples)...",
                options.scale,
                config.catalog().len()
            );
            train_monitor(config, "serve")?
        }
    };

    let manifest = build_manifest(options.scale, config, &["serve".to_owned()]);
    // `hbmd_build_info`: the Prometheus idiom for joining run identity
    // onto any other series — a constant-1 gauge whose labels carry the
    // version, config digest, and counter source.
    let source_name = config.collector.sampler.source.to_string();
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
