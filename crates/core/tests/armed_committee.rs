//! An armed committee serves each window with one walk, and that walk
//! changes nothing anyone can observe.
//!
//! The reference below is the two-call sequence the online monitor is
//! defined by: the dispersion of the raw window
//! (`Detector::suspicion`), then the sanitized verdict
//! (`Detector::classify_sanitized`). An armed RandomForest stream fed
//! clean, repaired and unusable windows — repaired both inside and
//! outside the model's columns — must give the same per-window
//! verdicts and disagreement trips, and record the same counts into its
//! telemetry, as that reference does into its own context.

use std::sync::Arc;

use hbmd_core::{
    ClassifierKind, Detector, DetectorBuilder, FeatureSet, OnlineDetectorBuilder, OnlineVerdict,
    SanitizeOutcome, Verdict,
};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::SampleCatalog;
use hbmd_ml::snap::{Snap, SnapReader, SnapWriter};
use hbmd_obs::{install, MetricsSnapshot, Obs, SampleSchedule};
use hbmd_perf::{Collector, CollectorConfig, FaultPlan, HpcDataset};

/// Low enough that some windows trip and others do not.
const SUSPICION: f64 = 0.1;

fn collect(config: CollectorConfig, catalog: &SampleCatalog) -> HpcDataset {
    Collector::new(config)
        .expect("valid config")
        .collect(catalog)
        .expect("collection under threshold")
        .dataset
}

/// Clean windows, a fault-injected collection of the same catalog, and
/// windows with one and with every counter destroyed, so each
/// sanitizer outcome occurs.
fn windows(catalog: &SampleCatalog, clean: &HpcDataset) -> Vec<FeatureVector> {
    let faulted = collect(
        CollectorConfig::faulted(FaultPlan::uniform(0.1, 5)),
        catalog,
    );
    let mut windows: Vec<FeatureVector> = clean
        .rows()
        .iter()
        .chain(faulted.rows())
        .map(|row| row.features.clone())
        .collect();
    for row in clean.rows().iter().step_by(3) {
        let mut one_lost = row.features.clone();
        one_lost[HpcEvent::CacheMisses] = f64::NAN;
        windows.push(one_lost);
    }
    let garbage = FeatureVector::from_slice(&[f64::NAN; HpcEvent::COUNT]).expect("16");
    windows.extend(std::iter::repeat_n(garbage, 5));
    windows
}

/// The detector decoded from `detector`'s snapshot under the caller's
/// context, so it reports there.
fn restored(detector: &Detector) -> Detector {
    let mut w = SnapWriter::new();
    detector.snap(&mut w);
    let bytes = w.into_bytes();
    Detector::unsnap(&mut SnapReader::new(&bytes)).expect("snapshot roundtrip")
}

fn labelled(snapshot: &MetricsSnapshot, name: &str, label: (&str, &str)) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name == name && c.labels == [(label.0.to_owned(), label.1.to_owned())])
        .map(|c| c.value)
        .sum()
}

fn timed(snapshot: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snapshot.histogram(name, labels).map_or(0, |h| h.count)
}

#[test]
fn one_walk_serving_matches_suspicion_then_classify() {
    let catalog = SampleCatalog::scaled(0.02, 17);
    let clean = collect(CollectorConfig::fast(), &catalog);
    let windows = windows(&catalog, &clean);

    let served_ctx = install(Obs::new());
    let detector = Arc::new(
        DetectorBuilder::new()
            .classifier(ClassifierKind::RandomForest)
            .feature_set(FeatureSet::Top(8))
            .train_binary(&clean)
            .expect("train"),
    );
    let served_registry = Arc::clone(served_ctx.registry());
    drop(served_ctx);
    let reference_ctx = install(Obs::new());
    let reference = restored(&detector);
    let reference_registry = Arc::clone(reference_ctx.registry());
    drop(reference_ctx);

    let outcomes = windows
        .iter()
        .map(|w| detector.sanitizer().sanitize(w))
        .collect::<Vec<_>>();
    let clean_count = outcomes
        .iter()
        .filter(|o| matches!(o, SanitizeOutcome::Clean(_)))
        .count();
    let repaired: Vec<usize> = (0..windows.len())
        .filter(|&i| matches!(outcomes[i], SanitizeOutcome::Repaired { .. }))
        .collect();
    let unusable = outcomes
        .iter()
        .filter(|o| matches!(o, SanitizeOutcome::Unusable { .. }))
        .count();
    assert!(clean_count > 0 && unusable > 0);
    // Repairs land both inside the model's columns, where the raw row
    // differs from the classified one, and only outside them, where the
    // two rows are the same.
    let model_row_repaired = |i: usize| {
        let repaired = outcomes[i].features().expect("repaired");
        detector
            .feature_indices()
            .iter()
            .any(|&c| windows[i].as_slice()[c].to_bits() != repaired.as_slice()[c].to_bits())
    };
    assert!(repaired.iter().any(|&i| model_row_repaired(i)));
    assert!(repaired.iter().any(|&i| !model_row_repaired(i)));
    // The raw window's dispersion is what the alarm reads: on some
    // repaired window it differs from the repaired window's.
    assert!(repaired.iter().any(|&i| {
        let repaired = outcomes[i].features().expect("repaired");
        reference.suspicion(&windows[i]) != reference.suspicion(repaired)
    }));

    // A one-window vote, so each decision is that window's verdict.
    let mut stream = OnlineDetectorBuilder::shared(Arc::clone(&detector))
        .window(1)
        .threshold(1)
        .suspicion_threshold(SUSPICION)
        .build_stream()
        .expect("stream state");
    // Served on a fresh thread, so its sampled `online.observe_ns` count
    // is the documented schedule's.
    let trips = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut trips = 0u64;
                for window in &windows {
                    let dispersion = reference.suspicion(window);
                    let expected = reference.classify_sanitized(window);
                    let decision = stream.observe(&detector, window);
                    let verdict = if stream.last_window_abstained() {
                        Verdict::Abstain
                    } else if let OnlineVerdict::Alarm { family, .. } = decision {
                        Verdict::Malware(family)
                    } else {
                        Verdict::Benign
                    };
                    assert_eq!(verdict, expected, "verdict on {window:?}");
                    assert_eq!(
                        stream.last_window_dispersion().map(f64::to_bits),
                        dispersion.map(f64::to_bits),
                        "dispersion on {window:?}"
                    );
                    let suspicious = dispersion.is_some_and(|d| d >= SUSPICION);
                    assert_eq!(stream.last_window_suspicious(), suspicious);
                    trips += u64::from(suspicious);
                }
                trips
            })
            .join()
            .expect("serving thread")
    });
    let n = windows.len() as u64;
    assert!(trips > 0 && trips < n, "{trips} of {n} windows tripped");

    let served = served_registry.snapshot();
    let expected = reference_registry.snapshot();
    assert_eq!(served.counter("online.disagreement_trips"), trips);
    for verdict in ["benign", "malware", "abstain"] {
        assert_eq!(
            labelled(&served, "verdict", ("verdict", verdict)),
            labelled(&expected, "verdict", ("verdict", verdict)),
            "verdict{{{verdict}}}"
        );
    }
    assert_eq!(
        labelled(&served, "verdict", ("verdict", "abstain")),
        unusable as u64
    );
    assert_eq!(served.counter("online.windows_observed"), n);
    // `online.observe_ns` is a sample, not a census: a fresh thread
    // times the windows its `SampleSchedule` marks, the first among them.
    let sampled = SampleSchedule::new()
        .take(windows.len())
        .filter(|&t| t)
        .count() as u64;
    assert!(sampled > 0 && sampled < n, "{sampled} of {n} windows timed");
    assert_eq!(timed(&served, "online.observe_ns", &[]), sampled);
    // One classify walk per classified window, abstentions none: each
    // walk counts one benign or malware verdict, and a walk for the
    // dispersion alone counts none.
    assert_eq!(
        labelled(&served, "verdict", ("verdict", "benign"))
            + labelled(&served, "verdict", ("verdict", "malware")),
        n - unusable as u64
    );
    // A sampled window is timed whole; nothing inside it is timed on its
    // own. The reference's direct calls are timed.
    let scheme = [("scheme", "RandomForest")];
    assert_eq!(timed(&served, "classify_ns", &scheme), 0);
    assert_eq!(
        timed(&expected, "classify_ns", &scheme),
        n - unusable as u64
    );
}
