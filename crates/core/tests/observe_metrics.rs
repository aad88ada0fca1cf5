//! The online monitor's telemetry lands in the context its detector was
//! trained under: the per-window handles are resolved once, at
//! training, and a context installed afterwards sees none of it.

use hbmd_core::{ClassifierKind, DetectorBuilder, FeatureSet, OnlineDetector, OnlineVerdict};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleId};
use hbmd_obs::{install, Obs};
use hbmd_perf::{DataRow, HpcDataset};

fn features(level: f64) -> FeatureVector {
    FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
}

/// A perfectly separable training set: benign at 1.0, malware at 100.0
/// on every feature.
fn separable() -> HpcDataset {
    let rows = (0..40)
        .map(|i| {
            let class = AppClass::ALL[i % AppClass::COUNT];
            let level = if class == AppClass::Benign {
                1.0
            } else {
                100.0
            };
            DataRow {
                sample: SampleId(i as u32),
                class,
                features: features(level),
            }
        })
        .collect();
    HpcDataset::from_rows(rows)
}

#[test]
fn observe_counts_into_the_context_the_detector_was_trained_under() {
    let guard = install(Obs::new());
    let trained_under = std::sync::Arc::clone(guard.registry());
    let detector = DetectorBuilder::new()
        .classifier(ClassifierKind::J48)
        .feature_set(FeatureSet::Full16)
        .train_binary(&separable())
        .expect("train on separable data");
    drop(guard);

    let later = install(Obs::new());
    let mut monitor = OnlineDetector::builder(detector)
        .window(4)
        .threshold(3)
        .build()
        .expect("valid monitor config");
    // Malware, then benign, then malware again: alarms raise, clear and
    // raise, so some decisions are alarms and some are not.
    let levels = [100.0; 20].into_iter().chain([1.0; 20]).chain([100.0; 10]);
    let mut observed = 0u64;
    let mut alarms = 0u64;
    for level in levels {
        observed += 1;
        if matches!(
            monitor.observe(&features(level)),
            OnlineVerdict::Alarm { .. }
        ) {
            alarms += 1;
        }
    }
    assert!(alarms > 0 && alarms < observed, "{alarms} of {observed}");

    let snapshot = trained_under.snapshot();
    assert_eq!(snapshot.counter("online.windows_observed"), observed);
    let votes = snapshot
        .histogram("online.alarm_votes", &[])
        .expect("alarm votes histogram");
    assert_eq!(votes.count, alarms);
    assert_eq!(snapshot.counter("online.alarms_raised"), 2);
    assert_eq!(snapshot.counter("online.alarms_cleared"), 1);
    let latency = snapshot
        .histogram("online.observe_ns", &[])
        .expect("observe latency histogram");
    assert_eq!(latency.count, observed);

    let elsewhere = later.registry().snapshot();
    assert_eq!(elsewhere.counter("online.windows_observed"), 0);
    assert!(elsewhere.histogram("online.alarm_votes", &[]).is_none());
    drop(later);
}
