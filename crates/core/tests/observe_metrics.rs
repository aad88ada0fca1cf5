//! The online monitor's telemetry lands in the context its detector was
//! trained under: the per-window handles are resolved once, at
//! training, and a context installed afterwards sees none of it.

use hbmd_core::{ClassifierKind, DetectorBuilder, FeatureSet, OnlineDetector, OnlineVerdict};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleId};
use hbmd_obs::{install, Obs, SampleSchedule};
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
    // Served on a fresh thread, so its sampled `online.observe_ns` count
    // is the documented schedule's.
    let levels = [100.0; 20].into_iter().chain([1.0; 20]).chain([100.0; 10]);
    let (observed, alarms) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let (mut observed, mut alarms) = (0u64, 0u64);
                for level in levels {
                    observed += 1;
                    if matches!(
                        monitor.observe(&features(level)),
                        OnlineVerdict::Alarm { .. }
                    ) {
                        alarms += 1;
                    }
                }
                (observed, alarms)
            })
            .join()
            .expect("serving thread")
    });
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
    // A sample, not a census: the windows the fresh thread's
    // `SampleSchedule` marks, the first among them. `windows_observed`
    // above is the exact count.
    let sampled = SampleSchedule::new()
        .take(observed as usize)
        .filter(|&timed| timed)
        .count() as u64;
    assert!(sampled > 0 && sampled < observed, "{sampled} of {observed}");
    assert_eq!(latency.count, sampled);
    // A sampled window is timed whole: the classify inside it records
    // nothing into `classify_ns{scheme}`, which times every direct call.
    let scheme = [("scheme", "J48")];
    let served = snapshot.histogram("classify_ns", &scheme);
    assert_eq!(served.map_or(0, |h| h.count), 0);
    monitor.detector().classify(&features(1.0));
    let classified = trained_under.snapshot();
    let direct = classified
        .histogram("classify_ns", &scheme)
        .expect("classify latency histogram");
    assert_eq!(direct.count, 1);

    let elsewhere = later.registry().snapshot();
    assert_eq!(elsewhere.counter("online.windows_observed"), 0);
    assert!(elsewhere.histogram("online.alarm_votes", &[]).is_none());
    drop(later);
}
