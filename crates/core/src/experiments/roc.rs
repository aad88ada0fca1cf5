//! ROC extension: threshold analysis of the score-producing binary
//! detectors.
//!
//! The paper reports point accuracies; a deployed HPC monitor is tuned
//! to a false-positive budget instead. This experiment computes full
//! ROC curves (and the 1 % / 5 % FPR operating points) for the two
//! score-producing schemes, MLR and SVM.

use hbmd_ml::{Dataset, LinearSvm, Mlr, RocCurve, RocPoint};
use hbmd_obs::par::try_par_map;

use crate::convert::to_binary_dataset;
use crate::error::CoreError;
use crate::experiments::cache::CollectCache;
use crate::experiments::ExperimentConfig;
use crate::features::{FeaturePlan, FeatureSet};

/// One scheme's ROC summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RocRow {
    /// Scheme name.
    pub scheme: String,
    /// Area under the ROC curve.
    pub auc: f64,
    /// Best operating point with FPR ≤ 1 %.
    pub at_1pct_fpr: RocPoint,
    /// Best operating point with FPR ≤ 5 %.
    pub at_5pct_fpr: RocPoint,
}

/// Compute ROC rows for MLR and SVM on the top-8 binary task. The two
/// schemes train and score in parallel on `config.threads` workers.
///
/// # Errors
///
/// Propagates collection, feature-plan, training, and curve errors.
pub fn comparison(
    cache: &CollectCache,
    config: &ExperimentConfig,
) -> Result<Vec<RocRow>, CoreError> {
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let indices = plan.resolve(FeatureSet::Top(8))?;
    let train = to_binary_dataset(&train_hpc).select_features(&indices)?;
    let test = to_binary_dataset(&test_hpc).select_features(&indices)?;
    let labels: Vec<bool> = test.labels().iter().map(|&l| l == 1).collect();

    let schemes: [(&str, ScoreFn); 2] = [("Logistic", mlr_scores), ("SVM", svm_scores)];
    try_par_map(&schemes, config.threads, |_, &(scheme, score)| {
        row(scheme, &score(&train, &test)?, &labels)
    })
}

/// A train-and-score routine for one score-producing scheme.
type ScoreFn = fn(&Dataset, &Dataset) -> Result<Vec<f64>, CoreError>;

fn mlr_scores(train: &Dataset, test: &Dataset) -> Result<Vec<f64>, CoreError> {
    let mut mlr = Mlr::new();
    hbmd_ml::fit_timed(&mut mlr, train)?;
    Ok(test
        .rows()
        .iter()
        .map(|r| mlr.predict_proba(r)[1])
        .collect())
}

fn svm_scores(train: &Dataset, test: &Dataset) -> Result<Vec<f64>, CoreError> {
    let mut svm = LinearSvm::new();
    hbmd_ml::fit_timed(&mut svm, train)?;
    Ok(test
        .rows()
        .iter()
        .map(|r| {
            let margins = svm.decision_values(r);
            margins[1] - margins[0]
        })
        .collect())
}

fn row(scheme: &str, scores: &[f64], labels: &[bool]) -> Result<RocRow, CoreError> {
    let curve = RocCurve::from_scores(scores, labels)?;
    Ok(RocRow {
        scheme: scheme.to_owned(),
        auc: curve.auc(),
        at_1pct_fpr: curve.operating_point(0.01),
        at_5pct_fpr: curve.operating_point(0.05),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_cache;

    #[test]
    fn both_schemes_produce_useful_curves() {
        let rows = comparison(test_cache(), &ExperimentConfig::fast()).expect("roc");
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.auc > 0.6, "{}: auc {}", r.scheme, r.auc);
            assert!(r.at_1pct_fpr.fpr <= 0.011);
            assert!(r.at_5pct_fpr.fpr <= 0.051);
            assert!(r.at_5pct_fpr.tpr >= r.at_1pct_fpr.tpr);
        }
    }
}
