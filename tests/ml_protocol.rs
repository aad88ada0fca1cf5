//! WEKA-protocol integration: filters, ensembles and label noise on
//! real collected data.

use std::collections::HashMap;

use hbmd::core::{to_binary_dataset, to_multiclass_dataset};
use hbmd::malware::{AppClass, MultiEngineLabeler, SampleCatalog, SampleId};
use hbmd::ml::{
    AdaBoostM1, Bagging, Classifier, DecisionStump, Evaluation, MinMaxNormalize, OneR,
    RandomForest, Standardize, J48,
};
use hbmd::perf::{Collector, CollectorConfig, DataRow, HpcDataset};

fn collected() -> HpcDataset {
    let catalog = SampleCatalog::scaled(0.03, 41);
    Collector::new(CollectorConfig::fast())
        .expect("config")
        .collect(&catalog)
        .expect("collect")
        .dataset
}

#[test]
fn filters_do_not_change_threshold_learners() {
    // Standardisation is monotonic per feature, so threshold learners
    // reach the same decisions on transformed data.
    let data = to_binary_dataset(&collected());
    let (train, test) = data.split(0.7, 3);

    let mut raw = OneR::new();
    raw.fit(&train).expect("fit");
    let raw_accuracy = Evaluation::of(&raw, &test).accuracy();

    let filter = Standardize::fit(&train);
    let mut filtered = OneR::new();
    filtered.fit(&filter.transform(&train)).expect("fit");
    let filtered_accuracy = Evaluation::of(&filtered, &filter.transform(&test)).accuracy();
    assert!((raw_accuracy - filtered_accuracy).abs() < 1e-9);

    let minmax = MinMaxNormalize::fit(&train);
    let mut normalized = OneR::new();
    normalized.fit(&minmax.transform(&train)).expect("fit");
    // Min-max clamps test outliers, so allow a small delta.
    let normalized_accuracy = Evaluation::of(&normalized, &minmax.transform(&test)).accuracy();
    assert!((raw_accuracy - normalized_accuracy).abs() < 0.05);
}

#[test]
fn ensembles_work_on_real_multiclass_data() {
    let data = to_multiclass_dataset(&collected());
    let (train, test) = data.split(0.7, 11);

    let mut forest = RandomForest::new(15);
    forest.fit(&train).expect("fit");
    let forest_eval = Evaluation::of(&forest, &test);
    assert!(
        forest_eval.accuracy() > 0.5,
        "forest multiclass accuracy {}",
        forest_eval.accuracy()
    );

    let mut bagger = Bagging::new(J48::new(), 8);
    bagger.fit(&train).expect("fit");
    assert!(Evaluation::of(&bagger, &test).accuracy() > 0.5);

    let mut booster = AdaBoostM1::new(DecisionStump::new(), 15);
    booster.fit(&train).expect("fit");
    // Boosted stumps on 6 classes are weak but must beat uniform.
    assert!(Evaluation::of(&booster, &test).accuracy() > 1.0 / 6.0);
}

#[test]
fn label_noise_degrades_but_does_not_destroy_detection() {
    let catalog = SampleCatalog::scaled(0.03, 43);
    let clean = Collector::new(CollectorConfig::fast())
        .expect("config")
        .collect(&catalog)
        .expect("collect")
        .dataset;
    // A sloppy multi-engine labeller relabels every row of a sample
    // with its one verdict for that sample.
    let labeler = MultiEngineLabeler::new(20, 0.6, 0.05, 9);
    let labels: HashMap<SampleId, AppClass> = catalog
        .samples()
        .iter()
        .map(|sample| (sample.id(), labeler.label(sample).label))
        .collect();
    let noisy: HpcDataset = clean
        .rows()
        .iter()
        .map(|row| DataRow {
            class: labels[&row.sample],
            ..row.clone()
        })
        .collect();

    let accuracy_of = |dataset: &HpcDataset| {
        let data = to_binary_dataset(dataset);
        let (train, test) = data.split(0.7, 5);
        let mut tree = J48::new();
        tree.fit(&train).expect("fit");
        Evaluation::of(&tree, &test).accuracy()
    };
    let clean_accuracy = accuracy_of(&clean);
    let noisy_accuracy = accuracy_of(&noisy);
    assert!(clean_accuracy > 0.7);
    assert!(
        noisy_accuracy > 0.55,
        "noisy labels should degrade gracefully: {noisy_accuracy}"
    );
}

#[test]
fn kappa_tracks_accuracy_above_chance() {
    let data = to_binary_dataset(&collected());
    let (train, test) = data.split(0.7, 19);
    let mut tree = J48::new();
    tree.fit(&train).expect("fit");
    let evaluation = Evaluation::of(&tree, &test);
    // With ~90% malware base rate, raw accuracy flatters; kappa must
    // still show genuine skill.
    assert!(evaluation.kappa() > 0.3, "kappa {}", evaluation.kappa());
}
