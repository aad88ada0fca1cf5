//! Integration tests for the sharded fleet pipeline: per-stream
//! verdict streams must be byte-identical at any shard count, a shard
//! kill must stay invisible behind its bulkhead, the multiplexed
//! checkpoint must resume instead of replaying (and be refused under a
//! different run config), a faulty stream must be quarantined without
//! touching its neighbors, and a NaN burst across a whole shard must
//! degrade — not kill — that shard.

use std::num::NonZeroU64;
use std::path::{Path, PathBuf};

use hbmd_bench::fleet::{run_fleet, Checkpoint, FleetConfig, QUEUE_CAPACITY};
use hbmd_core::{shard_of, ClassifierKind, Detector, DetectorBuilder, FeatureSet, StreamState};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleCatalog, SampleId};
use hbmd_perf::{Collector, CollectorConfig, DataRow, HpcDataset, SamplerConfig};
use std::sync::Arc;

fn features(level: f64) -> FeatureVector {
    FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
}

/// A detector trained on a perfectly separable synthetic dataset, so
/// tests spend no time on collection. Its sanitizer abstains on many
/// real sampled windows, which exercises the stream-health path — the
/// breaker is parked out of reach in these tests so abstention patterns
/// stay stream-local and shard-count independent.
fn detector() -> Arc<Detector> {
    let mut rows = Vec::new();
    for i in 0..40 {
        let class = AppClass::ALL[i % AppClass::COUNT];
        let level = if class == AppClass::Benign {
            1.0
        } else {
            100.0
        };
        rows.push(DataRow {
            sample: SampleId(i as u32),
            class,
            features: features(level),
        });
    }
    Arc::new(
        DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .feature_set(FeatureSet::Top(8))
            .train_binary(&HpcDataset::from_rows(rows))
            .expect("train on separable data"),
    )
}

/// Lossless fleet config with the shard breaker parked out of reach:
/// the toy-trained sanitizer abstains freely, and an open breaker is a
/// *shard-level* state that would couple streams across the shard.
fn config(streams: u64, shards: usize, windows: u64) -> FleetConfig {
    FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
        breaker: (257, usize::MAX, 32),
        ..FleetConfig::lossless(streams, shards, windows)
    }
}

/// A checkpoint at `path`, committed every `every` windows per shard.
fn snapshot_at(path: &Path, every: u64, config_digest: u64) -> Option<Checkpoint> {
    Some(Checkpoint {
        path: path.to_owned(),
        every: NonZeroU64::new(every).expect("a positive interval"),
        config_digest,
    })
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hbmd-fleet-{}-{name}", std::process::id()))
}

#[test]
fn verdict_streams_are_byte_identical_at_any_shard_count() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let single = run_fleet(&detector, &sampler, &config(8, 1, 32)).expect("1 shard");
    assert_eq!(single.verdicts.len(), 8, "every stream captured");
    for shards in [2usize, 8] {
        let multi = run_fleet(&detector, &sampler, &config(8, shards, 32)).expect("sharded run");
        assert_eq!(
            multi.verdicts, single.verdicts,
            "verdicts diverged between 1 and {shards} shards"
        );
        assert_eq!(
            multi.stream_health, single.stream_health,
            "stream health diverged between 1 and {shards} shards"
        );
    }
}

#[test]
fn shard_kill_is_invisible_behind_the_bulkhead() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let (streams, shards, windows) = (8u64, 4usize, 48u64);
    let baseline =
        run_fleet(&detector, &sampler, &config(streams, shards, windows)).expect("baseline run");
    assert_eq!(baseline.restarts, 0);

    let checkpoint = scratch("kill.snap");
    let _ = std::fs::remove_file(&checkpoint);
    let victim = shard_of(0, shards);
    let faulted = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            checkpoint: snapshot_at(&checkpoint, 16, 0xBEEF),
            panic_at: vec![(victim, windows / 2)],
            ..config(streams, shards, windows)
        },
    )
    .expect("faulted run");
    assert_eq!(faulted.restarts, 1, "one restart for the injected panic");
    assert_eq!(
        faulted.shards[victim].restarts, 1,
        "the restart happened on the victim shard"
    );
    for shard in faulted.shards.iter().filter(|s| s.shard != victim) {
        assert_eq!(shard.restarts, 0, "shard {} restarted", shard.shard);
        assert_eq!(
            shard.max_missed_gap, 0,
            "shard {} replayed windows",
            shard.shard
        );
    }
    assert_eq!(
        faulted.verdicts, baseline.verdicts,
        "post-recovery verdicts must match the unfaulted fleet exactly"
    );
    let queue = QUEUE_CAPACITY as u64;
    assert!(
        faulted.max_missed_gap <= 16 + queue,
        "replay gap {} exceeds checkpoint spacing + queue depth",
        faulted.max_missed_gap
    );
    assert!(
        checkpoint.exists(),
        "clean shutdown must flush a checkpoint"
    );
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn multiplexed_checkpoint_resumes_every_stream() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let checkpoint = scratch("resume.snap");
    let _ = std::fs::remove_file(&checkpoint);
    let first = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            checkpoint: snapshot_at(&checkpoint, 8, 0xBEEF),
            ..config(4, 2, 32)
        },
    )
    .expect("first run");
    assert_eq!(first.processed, 4 * 32);

    let second = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            checkpoint: snapshot_at(&checkpoint, 8, 0xBEEF),
            ..config(4, 2, 48)
        },
    )
    .expect("resumed run");
    assert_eq!(
        second.processed,
        4 * 16,
        "a resumed fleet picks up every stream at its checkpoint cursor"
    );
    assert_eq!(second.refusals, 0);
    assert_eq!(second.lost_sections, 0);
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn faulty_stream_is_quarantined_without_touching_neighbors() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let quiet = run_fleet(&detector, &sampler, &config(4, 1, 64)).expect("quiet run");
    let faulty = 1u64;
    let stormy = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            nan_streams: vec![(faulty, 8, 48)],
            ..config(4, 1, 64)
        },
    )
    .expect("stormy run");
    let (_, quarantines, _) = stormy.stream_health[&faulty];
    assert!(
        quarantines >= 1,
        "a 40-window NaN burst must quarantine the stream"
    );
    assert!(stormy.quarantine_skipped >= 1);
    for (stream, verdicts) in stormy.verdicts.iter().filter(|(s, _)| **s != faulty) {
        assert_eq!(
            Some(verdicts),
            quiet.verdicts.get(stream),
            "stream {stream}'s verdicts changed because a neighbor was quarantined"
        );
    }
}

#[test]
fn mismatched_digest_forces_a_pristine_start() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let checkpoint = scratch("digest.snap");
    let _ = std::fs::remove_file(&checkpoint);
    let checkpointed = |digest: u64| FleetConfig {
        checkpoint: snapshot_at(&checkpoint, 16, digest),
        ..config(4, 2, 64)
    };
    run_fleet(&detector, &sampler, &checkpointed(0xBEEF)).expect("first run");

    // Same snapshot, different run configuration: the checkpoint must
    // be refused and every stream restarted from scratch, not resumed
    // into a detector trained under different assumptions.
    let other = run_fleet(&detector, &sampler, &checkpointed(0xF00D)).expect("mismatched run");
    assert_eq!(other.refusals, 1, "config-digest mismatch must be refused");
    assert_eq!(other.processed, 4 * 64, "refusal falls back to a full run");
    let _ = std::fs::remove_file(&checkpoint);
}

/// A J48 trained on a small real collection: its sanitizer accepts
/// real sampled windows, so it classifies (and alarms on) what the
/// simulator serves.
fn collected_detector() -> Arc<Detector> {
    let catalog = SampleCatalog::scaled(0.03, 17);
    let dataset = Collector::new(CollectorConfig::fast())
        .expect("collector config")
        .collect(&catalog)
        .expect("collect")
        .dataset;
    Arc::new(
        DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .train_binary(&dataset)
            .expect("train"),
    )
}

#[test]
fn nan_burst_degrades_and_recovers() {
    // The collected detector leaves the breaker within reach, so only
    // the burst can trip it.
    let detector = collected_detector();
    let sampler = SamplerConfig::fast();
    let (streams, shards) = (4u64, 2usize);
    // Every stream of one shard goes NaN at once, so the shard breaker
    // sees only faults and trips before any stream's health score can
    // quarantine it.
    let victim = shard_of(0, shards);
    let report = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
            nan_streams: (0..streams)
                .filter(|&s| shard_of(s, shards) == victim)
                .map(|s| (s, 32, 96))
                .collect(),
            ..FleetConfig::lossless(streams, shards, 160)
        },
    )
    .expect("stormy run");
    assert!(
        report.shards[victim].trips >= 1,
        "a sustained NaN burst must trip the shard breaker"
    );
    assert_eq!(
        report.trips, report.shards[victim].trips,
        "the burst stays behind its shard's bulkhead"
    );
    assert!(report.degraded > 0, "an open breaker must skip windows");
    assert_eq!(report.restarts, 0, "degradation is not a crash");
    for (stream, verdicts) in &report.verdicts {
        assert!(
            verdicts.last().expect("capture enabled").is_some(),
            "stream {stream}'s classification must resume after the burst clears"
        );
    }
}

/// The fleet serves the source the sampler selects. Without the
/// `perf-backend` feature the live source cannot open, so every window
/// it serves is absent: nothing alarms, every observed window abstains
/// and the supervisor trips or quarantines. The same fleet over the
/// simulator alarms.
#[cfg(not(feature = "perf-backend"))]
#[test]
fn the_fleet_serves_the_selected_source() {
    use hbmd_core::OnlineVerdict;
    use hbmd_obs::Obs;
    use hbmd_perf::SourceSelect;

    // The detector's telemetry handles resolve into the context
    // installed when it is built.
    let guard = hbmd_obs::install(Obs::new());
    let detector = collected_detector();
    let run = |source: SourceSelect| {
        let sampler = SamplerConfig {
            source,
            ..SamplerConfig::fast()
        };
        let config = FleetConfig {
            pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
            ..FleetConfig::lossless(4, 2, 64)
        };
        let report = run_fleet(&detector, &sampler, &config).expect("fleet runs");
        let alarms = report
            .verdicts
            .values()
            .flatten()
            .filter(|v| matches!(v, Some(OnlineVerdict::Alarm { .. })))
            .count();
        (report, alarms)
    };

    let (perf, alarms) = run(SourceSelect::Perf);
    let snapshot = guard.registry().snapshot();
    let abstained: u64 = snapshot
        .counters
        .iter()
        .filter(|c| {
            c.name == "verdict" && c.labels == vec![("verdict".to_owned(), "abstain".to_owned())]
        })
        .map(|c| c.value)
        .sum();
    let observed = snapshot.counter("online.windows_observed");
    assert_eq!(alarms, 0, "absent windows must never alarm");
    assert!(observed > 0, "the fleet observed nothing");
    assert_eq!(abstained, observed, "every observed window must abstain");
    assert!(
        perf.trips + perf.quarantines > 0,
        "an all-absent fleet must trip or quarantine"
    );

    let (_, alarms) = run(SourceSelect::Sim);
    assert!(alarms > 0, "the simulated fleet must raise alarms");
    drop(guard);
}
