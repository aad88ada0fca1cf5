//! The paper's headline claims, asserted as shapes (who wins, in what
//! direction) at test scale. EXPERIMENTS.md records the full-scale
//! numbers.

use hbmd::core::experiments::{binary, hardware, multiclass, pca, ExperimentConfig};
use hbmd::core::{ClassifierKind, CollectCache};
use hbmd::fpga::SynthConfig;
use hbmd::malware::AppClass;
use std::sync::OnceLock;

fn config() -> ExperimentConfig {
    ExperimentConfig::fast()
}

/// One cache for the whole test binary, so each configuration is
/// collected once.
fn cache() -> &'static CollectCache {
    static CACHE: OnceLock<CollectCache> = OnceLock::new();
    CACHE.get_or_init(CollectCache::new)
}

#[test]
fn figure_13_reduction_hurts_little() {
    let rows = binary::accuracy_comparison(cache(), &config()).expect("fig13");
    // Every classifier usefully detects with 8 features...
    for row in &rows {
        assert!(
            row.accuracy_top8 > 0.6,
            "{}: {}",
            row.scheme,
            row.accuracy_top8
        );
    }
    // ...and the average 8->4 cost is a dip, not a collapse.
    let mean_cost: f64 = rows.iter().map(|r| r.reduction_cost()).sum::<f64>() / rows.len() as f64;
    assert!(mean_cost < 0.15, "mean 8->4 cost {mean_cost}");
}

#[test]
fn figures_14_to_16_hardware_story() {
    let rows = hardware::comparison(cache(), &config(), &SynthConfig::default()).expect("hw");
    let get = |kind: ClassifierKind| rows.iter().find(|r| r.scheme == kind).expect("row");

    // Figure 14: the MLP is the area hog.
    let mlp_area = get(ClassifierKind::Mlp).top8.report.area_units();
    for light in [
        ClassifierKind::OneR,
        ClassifierKind::JRip,
        ClassifierKind::J48,
    ] {
        assert!(get(light).top8.report.area_units() < mlp_area);
    }

    // Figure 15: rule learners answer in a couple of cycles.
    assert!(get(ClassifierKind::OneR).top8.report.latency_cycles <= 4);
    assert!(
        get(ClassifierKind::Mlp).top8.report.latency_cycles
            > get(ClassifierKind::OneR).top8.report.latency_cycles
    );

    // Figure 16: a comparator-only scheme holds the accuracy/area
    // crown (JRip/OneR in the paper; at test scale the pruned trees
    // can be equally tiny), and every multiplier-based model loses to
    // the best rule learner.
    let crown = rows
        .iter()
        .max_by(|a, b| {
            a.top8
                .accuracy_per_area()
                .partial_cmp(&b.top8.accuracy_per_area())
                .expect("finite")
        })
        .expect("rows")
        .scheme;
    let comparator_only = [
        ClassifierKind::OneR,
        ClassifierKind::JRip,
        ClassifierKind::J48,
        ClassifierKind::RepTree,
    ];
    assert!(
        comparator_only.contains(&crown),
        "accuracy/area crown went to {crown}"
    );
    let best_rule = comparator_only[..2]
        .iter()
        .map(|&k| get(k).top8.accuracy_per_area())
        .fold(0.0, f64::max);
    for heavy in [
        ClassifierKind::Logistic,
        ClassifierKind::Svm,
        ClassifierKind::NaiveBayes,
        ClassifierKind::Mlp,
    ] {
        assert!(
            best_rule > get(heavy).top8.accuracy_per_area(),
            "{heavy} beat the rule learners on accuracy/area"
        );
    }
}

#[test]
fn figure_17_mlp_leads_multiclass() {
    let rows = multiclass::accuracy_comparison(cache(), &config()).expect("fig17");
    let accuracy = |kind: ClassifierKind| {
        rows.iter()
            .find(|r| r.scheme == kind)
            .expect("row")
            .average_accuracy
    };
    let mlp = accuracy(ClassifierKind::Mlp);
    assert!(
        mlp + 0.05 >= accuracy(ClassifierKind::Logistic),
        "MLP ({mlp}) should be at or near the top vs MLR"
    );
    assert!(
        mlp + 0.05 >= accuracy(ClassifierKind::Svm),
        "MLP ({mlp}) should be at or near the top vs SVM"
    );
}

#[test]
fn figure_19_custom_features_do_not_lose() {
    let result = multiclass::pca_assisted_comparison(cache(), &config()).expect("fig19");
    assert!(
        result.improvement() >= 0.0,
        "custom-8 {} vs generic-8 {}",
        result.assisted_accuracy,
        result.plain_accuracy
    );
}

#[test]
fn table_2_shape_common_plus_custom() {
    let table = pca::table2(cache(), &config()).expect("table2");
    assert_eq!(table.common.len(), 4, "4 common features");
    assert_eq!(table.per_class.len(), 5, "5 malware classes");
    for (class, features) in &table.per_class {
        assert_eq!(features.len(), 8, "{class}: custom 8");
    }
}

#[test]
fn figures_9_to_12_scatters_show_structure() {
    for class in [
        AppClass::Rootkit,
        AppClass::Trojan,
        AppClass::Virus,
        AppClass::Worm,
    ] {
        let points = pca::scatter(cache(), &config(), class).expect("scatter");
        let malware = points.iter().filter(|p| p.malware).count();
        let benign = points.len() - malware;
        assert!(
            malware > 0 && benign > 0,
            "{class}: both populations plotted"
        );
    }
}
