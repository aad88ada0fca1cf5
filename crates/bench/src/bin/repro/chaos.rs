//! `repro chaos`: seeded fault drills against the supervised fleet.

use std::num::NonZeroU64;
use std::process::ExitCode;
use std::sync::Arc;

use hbmd_bench::{config_digest, fleet};
use hbmd_core::snapshot::{self, SnapshotError};
use hbmd_core::StreamStanding;
use hbmd_malware::AppClass;
use hbmd_obs::recorder::{read_bundle, RecorderHub};
use hbmd_obs::{json, Obs};

use crate::serve::train_monitor;
use crate::{Options, CHAOS};

/// `repro chaos` — drive the supervised fleet that `repro serve` runs
/// through a shard kill, a corrupted snapshot header and detector
/// frame, a corrupted stream section, a NaN burst on one shard, a
/// persistently faulty stream, and a recorder-attached breaker trip —
/// asserting the recovery and bulkhead invariants the fleet promises.
/// `--windows` sizes every drill's per-stream run (the quarantine drill
/// keeps its fixed 256 windows); `--checkpoint-every` spaces the
/// checkpoints. Exits 0 only when every drill passes.
pub(crate) fn chaos_mode(args: &[String]) -> ExitCode {
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
    let (detector, template) = train_monitor(&config, "chaos")?;
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
