//! Ensemble-learning extension: the related-work comparison
//! (Khasawneh et al. RAID'15; Sayadi et al. DAC'18) of single learners
//! against boosting, bagging and random forests on the binary HPC
//! detection task.

use hbmd_fpga::{synthesize, SynthConfig};
use hbmd_ml::Evaluation;
use hbmd_obs::par::try_par_map;

use crate::convert::to_binary_dataset;
use crate::error::CoreError;
use crate::experiments::cache::CollectCache;
use crate::experiments::ExperimentConfig;
use crate::features::{FeaturePlan, FeatureSet};
use crate::suite::ClassifierKind;

/// One scheme's row of the ensemble comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleRow {
    /// Scheme.
    pub scheme: ClassifierKind,
    /// Held-out accuracy with the PCA top-8 features.
    pub accuracy: f64,
    /// Hardware area of the trained model.
    pub area_units: f64,
    /// Hardware latency in cycles.
    pub latency_cycles: u64,
}

impl EnsembleRow {
    /// The accuracy-per-area figure of merit.
    pub fn accuracy_per_area(&self) -> f64 {
        if self.area_units <= 0.0 {
            0.0
        } else {
            self.accuracy / (self.area_units / 1000.0)
        }
    }
}

/// Compare single learners against their ensemble counterparts:
/// DecisionStump vs AdaBoostM1(stumps), J48 vs Bagging(J48) vs
/// RandomForest.
///
/// # Errors
///
/// Propagates collection, training, and synthesis errors.
pub fn comparison(config: &ExperimentConfig) -> Result<Vec<EnsembleRow>, CoreError> {
    comparison_with(CollectCache::global(), config)
}

/// [`comparison`] against an explicit [`CollectCache`]; the five
/// schemes train, evaluate and synthesise in parallel on
/// `config.threads` workers.
///
/// # Errors
///
/// Propagates collection, training, and synthesis errors.
pub fn comparison_with(
    cache: &CollectCache,
    config: &ExperimentConfig,
) -> Result<Vec<EnsembleRow>, CoreError> {
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let indices = plan.resolve(FeatureSet::Top(8))?;
    let train = to_binary_dataset(&train_hpc).select_features(&indices)?;
    let test = to_binary_dataset(&test_hpc).select_features(&indices)?;

    let schemes = [
        ClassifierKind::DecisionStump,
        ClassifierKind::AdaBoost,
        ClassifierKind::J48,
        ClassifierKind::Bagging,
        ClassifierKind::RandomForest,
    ];
    let synth = SynthConfig::default();
    try_par_map(&schemes, config.threads, |_, &scheme| {
        let mut model = scheme.instantiate();
        hbmd_ml::fit_timed(&mut model, &train)?;
        let accuracy = Evaluation::of(&model, &test).accuracy();
        let report = synthesize(&model.datapath()?, &synth);
        Ok::<EnsembleRow, CoreError>(EnsembleRow {
            scheme,
            accuracy,
            area_units: report.area_units(),
            latency_cycles: report.latency_cycles,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_schemes_report() {
        let rows = comparison(&ExperimentConfig::fast()).expect("experiment");
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.accuracy > 0.5, "{}: {}", row.scheme, row.accuracy);
            assert!(row.area_units > 0.0);
            assert!(row.accuracy_per_area() > 0.0);
        }
    }

    #[test]
    fn ensembles_do_not_lose_to_their_base_learners() {
        let rows = comparison(&ExperimentConfig::fast()).expect("experiment");
        let accuracy = |kind: ClassifierKind| {
            rows.iter()
                .find(|r| r.scheme == kind)
                .expect("row")
                .accuracy
        };
        // Boosted stumps at least match a single stump. Bagging is
        // allowed a wider small-sample slack: at the fast test scale a
        // bootstrap discards ~37% of an already-tiny training set per
        // member, which a 10-member vote cannot fully recover (the gap
        // closes at the repro scales recorded in EXPERIMENTS.md).
        assert!(
            accuracy(ClassifierKind::AdaBoost) >= accuracy(ClassifierKind::DecisionStump) - 0.03
        );
        assert!(accuracy(ClassifierKind::Bagging) >= accuracy(ClassifierKind::J48) - 0.10);
    }

    #[test]
    fn ensembles_cost_more_silicon() {
        let rows = comparison(&ExperimentConfig::fast()).expect("experiment");
        let area = |kind: ClassifierKind| {
            rows.iter()
                .find(|r| r.scheme == kind)
                .expect("row")
                .area_units
        };
        assert!(area(ClassifierKind::AdaBoost) > area(ClassifierKind::DecisionStump));
        assert!(area(ClassifierKind::RandomForest) > area(ClassifierKind::J48));
    }
}
