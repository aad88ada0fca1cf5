//! Feature-set policies: the paper's PCA-driven feature reduction.
//!
//! The thesis runs WEKA's `PrincipalComponents` evaluator per malware
//! class (that class vs. benign) and keeps the top-ranked original
//! counters: **4 features are common to every class** and each class
//! additionally gets a **custom set of 8** (Table 2). Binary detection
//! is evaluated with the top 8 and the top 4 (Figure 13).

use hbmd_events::HpcEvent;
use hbmd_malware::AppClass;
use hbmd_ml::Pca;

use crate::convert::to_binary_dataset;
use crate::error::CoreError;
use hbmd_perf::HpcDataset;

/// Which feature columns a detector consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// All 16 collected counters.
    Full16,
    /// The `k` top-PCA-ranked counters of the training dataset.
    Top(usize),
    /// The 4 counters common to every per-class ranking (Table 2's
    /// common block).
    Common4,
    /// The 8 counters custom to one malware class (Table 2's per-class
    /// columns).
    Custom8(AppClass),
}

impl FeatureSet {
    /// Number of features this policy selects.
    pub fn len(&self) -> usize {
        match self {
            FeatureSet::Full16 => HpcEvent::COUNT,
            FeatureSet::Top(k) => *k,
            FeatureSet::Common4 => 4,
            FeatureSet::Custom8(_) => 8,
        }
    }

    /// `true` for a policy selecting zero features (only a degenerate
    /// `Top(0)`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The fitted feature-reduction plan: per-class PCA rankings computed
/// on training data, resolvable to concrete column indices for any
/// [`FeatureSet`].
///
/// # Examples
///
/// ```
/// use hbmd_core::{FeaturePlan, FeatureSet};
/// use hbmd_malware::{AppClass, SampleCatalog};
/// use hbmd_perf::{Collector, CollectorConfig};
///
/// let catalog = SampleCatalog::scaled(0.02, 3);
/// let dataset = Collector::new(CollectorConfig::fast())?.collect(&catalog)?.dataset;
/// let plan = FeaturePlan::fit(&dataset)?;
///
/// let custom = plan.resolve(FeatureSet::Custom8(AppClass::Worm))?;
/// assert_eq!(custom.len(), 8);
/// let common = plan.resolve(FeatureSet::Common4)?;
/// assert_eq!(common.len(), 4);
/// # Ok::<(), hbmd_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturePlan {
    /// Top-ranked column indices on the full (binary) dataset, best
    /// first.
    global_ranking: Vec<usize>,
    /// Per-malware-class ranking (class vs benign), best first, indexed
    /// by `AppClass::index() - 1`.
    class_rankings: Vec<Vec<usize>>,
}

/// The variance fraction the reference WEKA run retained
/// (`PrincipalComponents -R 0.95`).
pub const VARIANCE_RETAINED: f64 = 0.95;

impl FeaturePlan {
    /// Fit the plan on a (training) collection.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] when the dataset is empty, and
    /// [`CoreError::Config`] when a malware class has no benign
    /// counterpart to rank against.
    pub fn fit(train: &HpcDataset) -> Result<FeaturePlan, CoreError> {
        let binary = to_binary_dataset(train);
        let global = Pca::fit(&binary)?;
        let global_ranking = global.top_features(HpcEvent::COUNT, VARIANCE_RETAINED);

        let mut class_rankings = Vec::with_capacity(AppClass::MALWARE.len());
        for class in AppClass::MALWARE {
            let subset = train.filtered(|c| c == class || c == AppClass::Benign);
            if subset.is_empty() {
                return Err(CoreError::Config(format!(
                    "no rows for class {class} or benign in the training data"
                )));
            }
            let data = to_binary_dataset(&subset);
            let pca = Pca::fit(&data)?;
            class_rankings.push(pca.top_features(HpcEvent::COUNT, VARIANCE_RETAINED));
        }
        Ok(FeaturePlan {
            global_ranking,
            class_rankings,
        })
    }

    /// The global (binary-dataset) ranking, best first.
    pub fn global_ranking(&self) -> &[usize] {
        &self.global_ranking
    }

    /// The ranking for one malware class, best first.
    ///
    /// # Panics
    ///
    /// Panics when `class` is `Benign` (benign has no vs-benign
    /// ranking).
    pub fn class_ranking(&self, class: AppClass) -> &[usize] {
        assert!(class.is_malware(), "benign has no per-class ranking");
        &self.class_rankings[class.index() - 1]
    }

    /// The counters common to every per-class top-8, ordered by average
    /// rank — Table 2's common block (4 on the reference data).
    pub fn common_features(&self, take: usize) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = (0..HpcEvent::COUNT)
            .filter_map(|feature| {
                let mut total_rank = 0usize;
                for ranking in &self.class_rankings {
                    let rank = ranking.iter().position(|&f| f == feature)?;
                    if rank >= 8 {
                        return None; // not in this class' top-8
                    }
                    total_rank += rank;
                }
                Some((
                    feature,
                    total_rank as f64 / self.class_rankings.len() as f64,
                ))
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut out: Vec<usize> = scored.into_iter().map(|(f, _)| f).collect();
        // Fall back to the global ranking when fewer than `take`
        // features are common to every class (possible on small or
        // noisy collections).
        for &feature in &self.global_ranking {
            if out.len() >= take {
                break;
            }
            if !out.contains(&feature) {
                out.push(feature);
            }
        }
        out.truncate(take);
        out
    }

    /// Resolve a policy to concrete column indices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for `Top(0)` or `Top(k)` with
    /// `k > 16`.
    pub fn resolve(&self, set: FeatureSet) -> Result<Vec<usize>, CoreError> {
        match set {
            FeatureSet::Full16 => Ok((0..HpcEvent::COUNT).collect()),
            FeatureSet::Top(k) => {
                if k == 0 || k > HpcEvent::COUNT {
                    return Err(CoreError::Config(format!("Top({k}) is outside 1..=16")));
                }
                Ok(self.global_ranking.iter().take(k).copied().collect())
            }
            FeatureSet::Common4 => Ok(self.common_features(4)),
            FeatureSet::Custom8(class) => {
                if !class.is_malware() {
                    return Err(CoreError::Config(
                        "Custom8 requires a malware class".to_owned(),
                    ));
                }
                Ok(self.class_ranking(class).iter().take(8).copied().collect())
            }
        }
    }

    /// Table 2 as data: for each malware class, the top-8 counter
    /// names.
    pub fn table2(&self) -> Vec<(AppClass, Vec<&'static str>)> {
        AppClass::MALWARE
            .iter()
            .map(|&class| {
                let names = self
                    .class_ranking(class)
                    .iter()
                    .take(8)
                    .map(|&f| HpcEvent::from_index(f).expect("valid column").name())
                    .collect();
                (class, names)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_malware::SampleCatalog;
    use hbmd_perf::{Collector, CollectorConfig};

    fn plan() -> (HpcDataset, FeaturePlan) {
        let catalog = SampleCatalog::scaled(0.03, 5);
        let dataset = Collector::new(CollectorConfig::fast())
            .expect("config")
            .collect(&catalog)
            .expect("collect")
            .dataset;
        let plan = FeaturePlan::fit(&dataset).expect("fit");
        (dataset, plan)
    }

    #[test]
    fn rankings_are_permutations() {
        let (_, plan) = plan();
        let mut global = plan.global_ranking().to_vec();
        global.sort_unstable();
        assert_eq!(global, (0..16).collect::<Vec<_>>());
        for class in AppClass::MALWARE {
            let mut ranking = plan.class_ranking(class).to_vec();
            ranking.sort_unstable();
            assert_eq!(ranking, (0..16).collect::<Vec<_>>(), "{class}");
        }
    }

    #[test]
    fn resolve_honours_sizes() {
        let (_, plan) = plan();
        assert_eq!(plan.resolve(FeatureSet::Full16).expect("full").len(), 16);
        assert_eq!(plan.resolve(FeatureSet::Top(8)).expect("top8").len(), 8);
        assert_eq!(plan.resolve(FeatureSet::Top(4)).expect("top4").len(), 4);
        assert_eq!(plan.resolve(FeatureSet::Common4).expect("common").len(), 4);
        for class in AppClass::MALWARE {
            assert_eq!(
                plan.resolve(FeatureSet::Custom8(class))
                    .expect("custom")
                    .len(),
                8,
                "{class}"
            );
        }
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let (_, plan) = plan();
        assert!(plan.resolve(FeatureSet::Top(0)).is_err());
        assert!(plan.resolve(FeatureSet::Top(17)).is_err());
        assert!(plan.resolve(FeatureSet::Custom8(AppClass::Benign)).is_err());
    }

    #[test]
    fn top_sets_nest() {
        let (_, plan) = plan();
        let top8 = plan.resolve(FeatureSet::Top(8)).expect("top8");
        let top4 = plan.resolve(FeatureSet::Top(4)).expect("top4");
        assert_eq!(&top8[..4], top4.as_slice());
    }

    #[test]
    fn table2_names_every_malware_class() {
        let (_, plan) = plan();
        let table = plan.table2();
        assert_eq!(table.len(), 5);
        for (class, names) in table {
            assert!(class.is_malware());
            assert_eq!(names.len(), 8);
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 8, "{class} has duplicate features");
        }
    }

    #[test]
    fn common_features_appear_in_every_custom_set_when_available() {
        let (_, plan) = plan();
        let common = plan.common_features(2);
        assert_eq!(common.len(), 2);
    }

    #[test]
    #[should_panic(expected = "benign")]
    fn benign_class_ranking_panics() {
        let (_, plan) = plan();
        let _ = plan.class_ranking(AppClass::Benign);
    }

    #[test]
    fn feature_set_len() {
        assert_eq!(FeatureSet::Full16.len(), 16);
        assert_eq!(FeatureSet::Top(5).len(), 5);
        assert_eq!(FeatureSet::Common4.len(), 4);
        assert_eq!(FeatureSet::Custom8(AppClass::Virus).len(), 8);
        assert!(FeatureSet::Top(0).is_empty());
    }
}
