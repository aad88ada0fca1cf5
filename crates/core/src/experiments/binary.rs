//! Figure 13: binary detection accuracy across the classifier suite
//! with PCA-reduced 8- and 4-feature inputs.

use hbmd_ml::Evaluation;
use hbmd_obs::par::try_par_map;

use crate::convert::to_binary_dataset;
use crate::error::CoreError;
use crate::experiments::cache::CollectCache;
use crate::experiments::ExperimentConfig;
use crate::features::{FeaturePlan, FeatureSet};
use crate::suite::ClassifierKind;

/// One classifier's row of the Figure 13 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryAccuracyRow {
    /// Classifier scheme.
    pub scheme: ClassifierKind,
    /// Test accuracy with the PCA top-8 features.
    pub accuracy_top8: f64,
    /// Test accuracy with the PCA top-4 features.
    pub accuracy_top4: f64,
    /// Test accuracy with all 16 features (context column).
    pub accuracy_full: f64,
}

impl BinaryAccuracyRow {
    /// Accuracy lost by halving the features from 8 to 4 (negative
    /// means 4 features did better).
    pub fn reduction_cost(&self) -> f64 {
        self.accuracy_top8 - self.accuracy_top4
    }
}

/// Run the Figure 13 experiment: train/test every scheme of the binary
/// suite with 16, top-8 and top-4 features over the same 70/30 split.
///
/// The three feature-reduced train/test pairs are materialized once,
/// outside the scheme loop, and the eight schemes train in parallel on
/// `config.threads` workers (byte-identical results at any count).
///
/// # Errors
///
/// Propagates collection, feature-plan, and training errors.
pub fn accuracy_comparison(
    cache: &CollectCache,
    config: &ExperimentConfig,
) -> Result<Vec<BinaryAccuracyRow>, CoreError> {
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let train_full = to_binary_dataset(&train_hpc);
    let test_full = to_binary_dataset(&test_hpc);

    // Feature selection depends only on the plan, not on the scheme:
    // project each set once instead of once per scheme.
    let mut splits = Vec::with_capacity(3);
    for set in [FeatureSet::Full16, FeatureSet::Top(8), FeatureSet::Top(4)] {
        let indices = plan.resolve(set)?;
        splits.push((
            train_full.select_features(&indices)?,
            test_full.select_features(&indices)?,
        ));
    }

    let schemes = ClassifierKind::binary_suite();
    try_par_map(&schemes, config.threads, |_, &scheme| {
        let mut accuracies = [0.0f64; 3];
        for (slot, (train, test)) in splits.iter().enumerate() {
            let mut model = scheme.instantiate();
            hbmd_ml::fit_timed(&mut model, train)?;
            accuracies[slot] = Evaluation::of(&model, test).accuracy();
        }
        Ok::<BinaryAccuracyRow, CoreError>(BinaryAccuracyRow {
            scheme,
            accuracy_full: accuracies[0],
            accuracy_top8: accuracies[1],
            accuracy_top4: accuracies[2],
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_cache;

    #[test]
    fn all_schemes_report_and_beat_chance() {
        let rows =
            accuracy_comparison(test_cache(), &ExperimentConfig::fast()).expect("experiment");
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(
                row.accuracy_top8 > 0.55,
                "{}: top-8 accuracy {}",
                row.scheme,
                row.accuracy_top8
            );
            assert!((0.0..=1.0).contains(&row.accuracy_top4));
            assert!((0.0..=1.0).contains(&row.accuracy_full));
        }
    }

    #[test]
    fn feature_reduction_cost_is_bounded() {
        // The paper's observation: most classifiers lose a little going
        // from 8 to 4 features; none should fall apart.
        let rows =
            accuracy_comparison(test_cache(), &ExperimentConfig::fast()).expect("experiment");
        for row in &rows {
            assert!(
                row.reduction_cost() < 0.30,
                "{} collapsed: {} -> {}",
                row.scheme,
                row.accuracy_top8,
                row.accuracy_top4
            );
        }
    }
}
