//! The flight recorder's determinism contract: two same-seed fleet
//! runs, each recording into its own hub, must freeze into
//! byte-identical diagnostic bundles — every file, the checksummed
//! `MANIFEST` included. This is what makes a bundle attached to a bug
//! report reproducible evidence rather than a one-off artifact.
//!
//! The served fleet also records the ensemble-disagreement alarm: a
//! committee detector with an armed suspicion threshold leaves
//! `disagreement` events in the rings.
//!
//! Every test here installs its own obs context for its whole run:
//! each bundle snapshots that registry into `metrics.json`, and the
//! fleet's threads inherit the context, so no concurrently-running
//! test can count into a bundle's registry and break byte-identity.

use std::path::PathBuf;
use std::sync::Arc;

use hbmd_bench::fleet::{run_fleet, FleetConfig};
use hbmd_core::{ClassifierKind, Detector, DetectorBuilder, FeatureSet, StreamState};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleId};
use hbmd_obs::recorder::{read_bundle, Event, RecorderHub, Trigger, MANIFEST_FILE};
use hbmd_obs::Obs;
use hbmd_perf::{DataRow, HpcDataset, SamplerConfig};

fn features(level: f64) -> FeatureVector {
    FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
}

/// A detector trained on a perfectly separable synthetic dataset —
/// training is deterministic, so same-seed runs share identical weights.
fn trained(kind: ClassifierKind) -> Arc<Detector> {
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
            .classifier(kind)
            .feature_set(FeatureSet::Top(8))
            .train_binary(&HpcDataset::from_rows(rows))
            .expect("train on separable data"),
    )
}

/// One full recorded run: fleet over the recorder hub, then an
/// explicit trigger freezing the rings into a bundle. Returns the
/// bundle directory.
fn run_once(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hbmd-recorder-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let guard = hbmd_obs::install(Obs::new());
    let hub = Arc::new(
        RecorderHub::new(4, 64)
            .with_bundle_dir(&root)
            .with_deterministic(true)
            .with_manifest_json("{\"tool\": \"flight-recorder-test\"}")
            .with_families(AppClass::ALL.iter().map(|c| c.name().to_owned()).collect()),
    );
    let config = FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
        // Park the breaker out of reach: abstention patterns stay
        // stream-local, so the recorded event stream is seed-pure.
        breaker: (257, usize::MAX, 32),
        recorder: Some(Arc::clone(&hub)),
        ..FleetConfig::lossless(8, 4, 32)
    };
    run_fleet(
        &trained(ClassifierKind::J48),
        &SamplerConfig::fast(),
        &config,
    )
    .expect("fleet run");
    let mut trigger = Trigger::new("http_request");
    trigger.details = "determinism probe".to_owned();
    let outcome = hub
        .trigger(&trigger)
        .expect("bundle written")
        .expect("not suppressed");
    assert!(outcome.events > 0, "fleet run recorded no events");
    drop(guard);
    outcome.path
}

#[test]
fn same_seed_fleet_runs_freeze_into_byte_identical_bundles() {
    let first = run_once("a");
    let second = run_once("b");
    let bundle_a = read_bundle(&first).expect("first bundle verifies");
    let bundle_b = read_bundle(&second).expect("second bundle verifies");
    assert_eq!(
        bundle_a.entries, bundle_b.entries,
        "bundle manifests diverged between same-seed runs"
    );
    for name in [
        "events.jsonl",
        "metrics.json",
        "manifest.json",
        "trigger.json",
        MANIFEST_FILE,
    ] {
        let a = std::fs::read(first.join(name)).expect("first file");
        let b = std::fs::read(second.join(name)).expect("second file");
        assert_eq!(a, b, "{name} differs between same-seed runs");
    }
    for root in [first, second] {
        let parent = root.parent().expect("bundle parent").to_path_buf();
        let _ = std::fs::remove_dir_all(parent);
    }
}

#[test]
fn armed_committee_fleet_records_disagreement_events() {
    let guard = hbmd_obs::install(Obs::new());
    let shards = 2;
    let hub = Arc::new(RecorderHub::new(shards, 4096));
    let config = FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1)
            .and_then(|state| state.with_suspicion_threshold(0.05))
            .expect("valid shape and threshold"),
        breaker: (257, usize::MAX, 32),
        recorder: Some(Arc::clone(&hub)),
        ..FleetConfig::lossless(4, shards, 32)
    };
    run_fleet(
        &trained(ClassifierKind::RandomForest),
        &SamplerConfig::fast(),
        &config,
    )
    .expect("fleet run");
    let disagreements = (0..shards as u32)
        .flat_map(|shard| hub.ring(shard).drain())
        .filter(|(_, event)| matches!(event, Event::Disagreement { .. }))
        .count();
    drop(guard);
    assert!(
        disagreements >= 1,
        "an armed RandomForest fleet recorded no disagreement events"
    );
}
