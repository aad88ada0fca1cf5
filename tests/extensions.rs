//! Integration coverage for the suite's extension features: ROC
//! analysis, detection latency, HDL emission, and folded synthesis —
//! all through the public facade.

use hbmd::core::experiments::{latency, roc, ExperimentConfig};
use hbmd::core::{ClassifierKind, CollectCache};
use hbmd::fpga::{emit_system_verilog, synthesize, SynthConfig};
use hbmd::malware::SampleCatalog;
use hbmd::ml::{Classifier, RocCurve};
use hbmd::perf::{Collector, CollectorConfig, HpcDataset};
use std::sync::OnceLock;

/// One cache for the whole test binary, so each configuration is
/// collected once.
fn cache() -> &'static CollectCache {
    static CACHE: OnceLock<CollectCache> = OnceLock::new();
    CACHE.get_or_init(CollectCache::new)
}

fn collected() -> HpcDataset {
    let catalog = SampleCatalog::scaled(0.03, 71);
    Collector::new(CollectorConfig::fast())
        .expect("config")
        .collect(&catalog)
        .expect("collect")
        .dataset
}

#[test]
fn roc_of_a_real_detector_beats_chance_strongly() {
    let rows = roc::comparison(cache(), &ExperimentConfig::fast()).expect("roc");
    let logistic = rows.iter().find(|r| r.scheme == "Logistic").expect("row");
    assert!(logistic.auc > 0.7, "auc {}", logistic.auc);
    // Relaxing the FPR budget never loses recall.
    assert!(logistic.at_5pct_fpr.tpr >= logistic.at_1pct_fpr.tpr);
}

#[test]
fn roc_curve_matches_manual_counts() {
    // Cross-check the curve against a hand-counted threshold.
    let scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4];
    let labels = [true, true, false, true, false, false];
    let curve = RocCurve::from_scores(&scores, &labels).expect("roc");
    // At threshold 0.6: flagged = {0.9, 0.8, 0.7, 0.6} -> TP 3, FP 1.
    let point = curve
        .points()
        .iter()
        .find(|p| (p.threshold - 0.6).abs() < 1e-12)
        .expect("threshold present");
    assert!((point.tpr - 1.0).abs() < 1e-12);
    assert!((point.fpr - 1.0 / 3.0).abs() < 1e-12);
}

#[test]
fn detection_latency_has_warmup_floor() {
    let rows =
        latency::windows_to_alarm(cache(), &ExperimentConfig::fast(), 3, 12).expect("latency");
    for row in &rows {
        if row.detected > 0 {
            // A 4-window/3-vote monitor cannot alarm before window 3.
            assert!(
                row.mean_windows_to_alarm >= 3.0,
                "{}: {}",
                row.class,
                row.mean_windows_to_alarm
            );
        }
        assert!(row.detection_rate() <= 1.0);
    }
}

#[test]
fn hdl_emission_for_every_binary_suite_member() {
    let dataset = collected();
    let (train_hpc, _) = dataset.split(0.7, 42);
    let train = hbmd::core::to_binary_dataset(&train_hpc);
    for kind in ClassifierKind::binary_suite() {
        let mut model = kind.instantiate();
        model.fit(&train).expect("fit");
        let rtl = emit_system_verilog(
            &model.datapath().expect("datapath"),
            &SynthConfig::default(),
        );
        assert!(rtl.contains("module hbmd_"), "{kind}: missing module");
        assert!(rtl.contains("endmodule"), "{kind}: missing endmodule");
        assert!(rtl.contains("out_valid"), "{kind}: missing interface");
    }
}

#[test]
fn folding_sweep_is_monotone_on_a_real_model() {
    let dataset = collected();
    let (train_hpc, _) = dataset.split(0.7, 42);
    let train = hbmd::core::to_binary_dataset(&train_hpc);
    let mut mlp = ClassifierKind::Mlp.instantiate();
    mlp.fit(&train).expect("fit");
    let spec = mlp.datapath().expect("datapath");

    let mut last_area = f64::INFINITY;
    let mut last_latency = 0u64;
    for fold in [1u64, 2, 4, 8] {
        let report = synthesize(&spec, &SynthConfig::folded(fold));
        assert!(report.area_units() <= last_area, "fold {fold} grew area");
        assert!(
            report.latency_cycles >= last_latency,
            "fold {fold} shrank latency"
        );
        last_area = report.area_units();
        last_latency = report.latency_cycles;
    }
}
