//! Figures 14–16: FPGA area, latency and accuracy-per-area of the
//! classifier suite, with 8- and 4-feature PCA-reduced inputs.

use hbmd_fpga::{synthesize, HwReport, SynthConfig};
use hbmd_ml::Evaluation;
use hbmd_obs::par::try_par_map;

use crate::convert::to_binary_dataset;
use crate::error::CoreError;
use crate::experiments::cache::CollectCache;
use crate::experiments::ExperimentConfig;
use crate::features::{FeaturePlan, FeatureSet};
use crate::suite::ClassifierKind;

/// One classifier's hardware-vs-accuracy result at one feature count.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwarePoint {
    /// Feature count the model was trained with.
    pub features: usize,
    /// Held-out accuracy.
    pub accuracy: f64,
    /// Synthesis report.
    pub report: HwReport,
}

impl HardwarePoint {
    /// Figure 16's figure of merit.
    pub fn accuracy_per_area(&self) -> f64 {
        self.report.accuracy_per_area(self.accuracy)
    }
}

/// One classifier's row across the 8- and 4-feature design points.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareRow {
    /// Classifier scheme.
    pub scheme: ClassifierKind,
    /// PCA top-8 design point.
    pub top8: HardwarePoint,
    /// PCA top-4 design point.
    pub top4: HardwarePoint,
}

/// Run the Figures 14–16 experiment: for every scheme of the binary
/// suite, train with top-8 and top-4 features, evaluate, and synthesise
/// both trained models.
///
/// # Errors
///
/// Propagates collection, training, and synthesis errors.
pub fn comparison(
    config: &ExperimentConfig,
    synth: &SynthConfig,
) -> Result<Vec<HardwareRow>, CoreError> {
    comparison_with(CollectCache::global(), config, synth)
}

/// [`comparison`] against an explicit [`CollectCache`]; the two
/// feature-reduced train/test pairs are materialized once and the
/// eight schemes run in parallel on `config.threads` workers.
///
/// # Errors
///
/// Propagates collection, training, and synthesis errors.
pub fn comparison_with(
    cache: &CollectCache,
    config: &ExperimentConfig,
    synth: &SynthConfig,
) -> Result<Vec<HardwareRow>, CoreError> {
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let train_full = to_binary_dataset(&train_hpc);
    let test_full = to_binary_dataset(&test_hpc);

    let mut splits = Vec::with_capacity(2);
    for k in [8usize, 4] {
        let indices = plan.resolve(FeatureSet::Top(k))?;
        splits.push((
            k,
            train_full.select_features(&indices)?,
            test_full.select_features(&indices)?,
        ));
    }

    let schemes = ClassifierKind::binary_suite();
    try_par_map(&schemes, config.threads, |_, &scheme| {
        let point = |slot: usize| -> Result<HardwarePoint, CoreError> {
            let (k, train, test) = &splits[slot];
            let mut model = scheme.instantiate();
            hbmd_ml::fit_timed(&mut model, train)?;
            let accuracy = Evaluation::of(&model, test).accuracy();
            let report = synthesize(&model.datapath()?, synth);
            Ok(HardwarePoint {
                features: *k,
                accuracy,
                report,
            })
        };
        Ok::<HardwareRow, CoreError>(HardwareRow {
            scheme,
            top8: point(0)?,
            top4: point(1)?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<HardwareRow> {
        comparison(&ExperimentConfig::fast(), &SynthConfig::default()).expect("experiment")
    }

    fn find(rows: &[HardwareRow], scheme: ClassifierKind) -> &HardwareRow {
        rows.iter().find(|r| r.scheme == scheme).expect("present")
    }

    #[test]
    fn every_scheme_synthesises_both_points() {
        let rows = rows();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.top8.report.area_units() > 0.0, "{}", row.scheme);
            assert!(row.top4.report.area_units() > 0.0, "{}", row.scheme);
            assert_eq!(row.top8.features, 8);
            assert_eq!(row.top4.features, 4);
        }
    }

    #[test]
    fn figure_14_shape_rules_are_smaller_than_networks() {
        let rows = rows();
        let one_r = find(&rows, ClassifierKind::OneR);
        let jrip = find(&rows, ClassifierKind::JRip);
        let mlp = find(&rows, ClassifierKind::Mlp);
        assert!(one_r.top8.report.area_units() < mlp.top8.report.area_units() / 5.0);
        assert!(jrip.top8.report.area_units() < mlp.top8.report.area_units() / 5.0);
    }

    #[test]
    fn figure_15_shape_rules_are_faster_than_networks() {
        let rows = rows();
        let one_r = find(&rows, ClassifierKind::OneR);
        let mlp = find(&rows, ClassifierKind::Mlp);
        assert!(one_r.top8.report.latency_cycles < mlp.top8.report.latency_cycles);
    }

    #[test]
    fn figure_16_shape_one_r_and_jrip_win_accuracy_per_area() {
        let rows = rows();
        let champions = [
            find(&rows, ClassifierKind::OneR).top8.accuracy_per_area(),
            find(&rows, ClassifierKind::JRip).top8.accuracy_per_area(),
        ];
        let best_champion = champions.iter().cloned().fold(0.0, f64::max);
        for heavy in [
            ClassifierKind::Mlp,
            ClassifierKind::Logistic,
            ClassifierKind::Svm,
            ClassifierKind::NaiveBayes,
        ] {
            let contender = find(&rows, heavy).top8.accuracy_per_area();
            assert!(
                best_champion > contender,
                "{heavy} should lose accuracy/area: {contender} vs {best_champion}"
            );
        }
    }

    #[test]
    fn fewer_features_shrink_multiplier_heavy_designs() {
        let rows = rows();
        for scheme in [
            ClassifierKind::Logistic,
            ClassifierKind::Svm,
            ClassifierKind::Mlp,
            ClassifierKind::NaiveBayes,
        ] {
            let row = find(&rows, scheme);
            assert!(
                row.top4.report.area_units() < row.top8.report.area_units(),
                "{scheme}: 4-feature design should be smaller"
            );
        }
    }
}
