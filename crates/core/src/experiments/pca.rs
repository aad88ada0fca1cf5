//! Table 2, Figure 8 and Figures 9–12: the PCA artefacts — per-class
//! reduced feature sets, the eigen summary, and the top-2-component
//! scatter data.

use hbmd_malware::AppClass;
use hbmd_ml::Pca;

use crate::convert::to_binary_dataset;
use crate::error::CoreError;
use crate::experiments::cache::CollectCache;
use crate::experiments::ExperimentConfig;
use crate::features::{FeaturePlan, VARIANCE_RETAINED};

/// Table 2 as data: the common features plus the per-class custom 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Features common to every class' top-8, ordered by average rank.
    pub common: Vec<&'static str>,
    /// `(class, top-8 feature names)` per malware family.
    pub per_class: Vec<(AppClass, Vec<&'static str>)>,
}

/// Run the Table 2 experiment: fit the feature plan on the training
/// split and report the common and per-class reduced sets.
///
/// # Errors
///
/// Propagates collection and feature-plan errors.
pub fn table2(cache: &CollectCache, config: &ExperimentConfig) -> Result<Table2, CoreError> {
    let collection = cache.collect(config)?;
    let (train_hpc, _) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let common = plan
        .common_features(4)
        .into_iter()
        .map(|f| {
            hbmd_events::HpcEvent::from_index(f)
                .expect("valid column")
                .name()
        })
        .collect();
    Ok(Table2 {
        common,
        per_class: plan.table2(),
    })
}

/// Figure 8's content: the eigen summary of the full binary dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenSummary {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Fraction of variance each component explains.
    pub explained: Vec<f64>,
    /// Components needed to retain 95 % variance (`-R 0.95`).
    pub components_for_95: usize,
    /// The ranked attribute names, best first, with scores.
    pub ranking: Vec<(String, f64)>,
}

/// Run the Figure 8 experiment.
///
/// # Errors
///
/// Propagates collection and PCA errors.
pub fn eigen_summary(
    cache: &CollectCache,
    config: &ExperimentConfig,
) -> Result<EigenSummary, CoreError> {
    let collection = cache.collect(config)?;
    let (train_hpc, _) = collection.dataset.split(0.7, config.split_seed);
    let data = to_binary_dataset(&train_hpc);
    let pca = Pca::fit(&data)?;
    let ranking = pca
        .rank_attributes(VARIANCE_RETAINED)
        .into_iter()
        .map(|r| (r.name, r.score))
        .collect();
    Ok(EigenSummary {
        eigenvalues: pca.eigenvalues().to_vec(),
        explained: pca.explained_variance_ratio(),
        components_for_95: pca.components_for_variance(VARIANCE_RETAINED),
        ranking,
    })
}

/// One point of a Figures 9–12 scatter plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Projection onto the first principal component.
    pub pc1: f64,
    /// Projection onto the second principal component.
    pub pc2: f64,
    /// `true` for the malware class, `false` for benign.
    pub malware: bool,
}

/// Run one of the Figures 9–12 experiments: project the
/// class-vs-benign dataset onto its top two principal components.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for `AppClass::Benign` and propagates
/// collection/PCA errors.
pub fn scatter(
    cache: &CollectCache,
    config: &ExperimentConfig,
    class: AppClass,
) -> Result<Vec<ScatterPoint>, CoreError> {
    if !class.is_malware() {
        return Err(CoreError::Config(
            "scatter plots compare a malware class against benign".to_owned(),
        ));
    }
    let collection = cache.collect(config)?;
    let subset = collection
        .dataset
        .filtered(|c| c == class || c == AppClass::Benign);
    let data = to_binary_dataset(&subset);
    let pca = Pca::fit(&data)?;
    Ok(data
        .iter()
        .map(|(row, label)| {
            let projected = pca.transform_row_k(row, 2);
            ScatterPoint {
                pc1: projected[0],
                pc2: projected[1],
                malware: label == 1,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_cache;

    #[test]
    fn table2_has_the_paper_shape() {
        let table = table2(test_cache(), &ExperimentConfig::fast()).expect("experiment");
        assert_eq!(table.common.len(), 4);
        assert_eq!(table.per_class.len(), 5);
        for (_, features) in &table.per_class {
            assert_eq!(features.len(), 8);
        }
    }

    #[test]
    fn eigen_summary_is_consistent() {
        let summary = eigen_summary(test_cache(), &ExperimentConfig::fast()).expect("experiment");
        assert_eq!(summary.eigenvalues.len(), 16);
        assert_eq!(summary.ranking.len(), 16);
        assert!((summary.explained.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(summary.components_for_95 >= 1);
        assert!(summary.components_for_95 <= 16);
        // Eigenvalues descend.
        for pair in summary.eigenvalues.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9);
        }
    }

    #[test]
    fn scatter_separates_a_strong_class() {
        // Worms are behaviourally far from benign: their PC1 centroid
        // must be displaced.
        let points =
            scatter(test_cache(), &ExperimentConfig::fast(), AppClass::Worm).expect("experiment");
        assert!(points.len() > 10);
        let mean = |malware: bool| {
            let values: Vec<f64> = points
                .iter()
                .filter(|p| p.malware == malware)
                .map(|p| p.pc1)
                .collect();
            values.iter().sum::<f64>() / values.len() as f64
        };
        assert!((mean(true) - mean(false)).abs() > 0.5);
    }

    #[test]
    fn benign_scatter_is_rejected() {
        assert!(scatter(test_cache(), &ExperimentConfig::fast(), AppClass::Benign).is_err());
    }
}
