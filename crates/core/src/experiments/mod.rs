//! Experiment presets — one per table/figure of the reference
//! evaluation.
//!
//! Every experiment takes an [`ExperimentConfig`]:
//! [`ExperimentConfig::paper`] runs the full 3,070-sample catalog with
//! the 16-window sampler (minutes, release build);
//! [`ExperimentConfig::fast`] shrinks the catalog for tests and smoke
//! runs (seconds). The `repro` binary in `hbmd-bench` prints each
//! experiment in the paper's row/series layout.
//!
//! | artifact | function |
//! |---|---|
//! | Table 1 / Fig 6 | [`census`] |
//! | Table 2 / Fig 8 | [`pca::table2`], [`pca::eigen_summary`] |
//! | Figs 9–12 | [`pca::scatter`] |
//! | Fig 13 | [`binary::accuracy_comparison`] |
//! | Figs 14–16 | [`hardware::comparison`] |
//! | Figs 17–18 | [`multiclass::accuracy_comparison`] |
//! | Fig 19 | [`multiclass::pca_assisted_comparison`] |
//! | ensemble extension | [`ensemble::comparison`] |
//! | ROC extension | [`roc::comparison`] |
//! | detection-latency extension | [`latency::windows_to_alarm`] |
//! | robustness extension | [`robustness::degradation_sweep`] |
//! | adversarial extension | [`adversarial::accuracy_under_attack`], [`adversarial::camouflage_sweep`] |

pub mod adversarial;
pub mod binary;
pub mod cache;
pub mod ensemble;
pub mod hardware;
pub mod latency;
pub mod multiclass;
pub mod pca;
pub mod robustness;
pub mod roc;

use hbmd_malware::{AppClass, SampleCatalog};
use hbmd_perf::{CollectorConfig, HpcDataset, PerfError};

use cache::{CollectCache, Collection};
use std::sync::Arc;

/// Shared experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Fraction of the paper catalog to generate (1.0 = all 3,070
    /// samples).
    pub catalog_fraction: f64,
    /// Catalog generation seed.
    pub catalog_seed: u64,
    /// Collection pipeline configuration.
    pub collector: CollectorConfig,
    /// Train/test split seed.
    pub split_seed: u64,
    /// Worker threads for the experiment layer's training/evaluation
    /// fan-out (1 = sequential). Results are byte-identical at any
    /// thread count — see [`crate::par::par_map`] — so this is a
    /// throughput knob, never part of a cache key.
    pub threads: usize,
}

impl ExperimentConfig {
    /// The full reference setup: whole catalog, 16 windows of 20,000
    /// instructions on the Haswell model, 70/30 split.
    pub fn paper() -> ExperimentConfig {
        ExperimentConfig {
            catalog_fraction: 1.0,
            catalog_seed: 2018,
            collector: CollectorConfig::paper(),
            split_seed: 42,
            threads: crate::par::default_threads(),
        }
    }

    /// A shrunk setup for tests and smoke runs.
    pub fn fast() -> ExperimentConfig {
        ExperimentConfig {
            catalog_fraction: 0.03,
            catalog_seed: 2018,
            collector: CollectorConfig::fast(),
            split_seed: 42,
            threads: 1,
        }
    }

    /// Generate the catalog this configuration describes.
    pub fn catalog(&self) -> SampleCatalog {
        if (self.catalog_fraction - 1.0).abs() < 1e-12 {
            SampleCatalog::paper(self.catalog_seed)
        } else {
            SampleCatalog::scaled(self.catalog_fraction, self.catalog_seed)
        }
    }

    /// Run the collection pipeline over the catalog.
    ///
    /// Collection is deterministic, so results are memoized in the
    /// process-wide [`CollectCache`]: running several experiments
    /// against the same config (as the `repro all` harness does)
    /// collects once.
    ///
    /// # Panics
    ///
    /// Panics when the pipeline degrades past its failure threshold;
    /// use [`ExperimentConfig::try_collect_with`] to handle that.
    pub fn collect(&self) -> HpcDataset {
        self.try_collect_with(CollectCache::global())
            .expect("collection failed")
            .dataset
            .clone()
    }

    /// Run (or recall) the collection through an explicit cache,
    /// surfacing the [`CollectionReport`](hbmd_perf::CollectionReport)
    /// alongside the dataset.
    ///
    /// # Errors
    ///
    /// Propagates collector-configuration errors and
    /// [`PerfError::DegradedCollection`].
    pub fn try_collect_with(&self, cache: &CollectCache) -> Result<Arc<Collection>, PerfError> {
        cache.collect(self)
    }
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig::paper()
    }
}

/// One row of the Table 1 / Figure 6 census.
#[derive(Debug, Clone, PartialEq)]
pub struct CensusRow {
    /// Application class.
    pub class: AppClass,
    /// Samples in the catalog.
    pub samples: usize,
    /// Share of the catalog.
    pub share: f64,
    /// Rows contributed to the collected dataset.
    pub dataset_rows: usize,
}

/// Table 1 and Figure 6: the sample census and class distribution.
pub fn census(config: &ExperimentConfig) -> Vec<CensusRow> {
    census_with(CollectCache::global(), config)
}

/// [`census`] against an explicit [`CollectCache`].
///
/// # Panics
///
/// Panics when the collection pipeline degrades past its failure
/// threshold.
pub fn census_with(cache: &CollectCache, config: &ExperimentConfig) -> Vec<CensusRow> {
    let catalog = config.catalog();
    let collection = cache.collect(config).expect("collection failed");
    let counts = collection.dataset.class_counts();
    catalog
        .census()
        .into_iter()
        .map(|(class, samples, share)| CensusRow {
            class,
            samples,
            share,
            dataset_rows: counts[class.index()],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_config_collects_quickly() {
        let config = ExperimentConfig::fast();
        let dataset = config.collect();
        assert!(!dataset.is_empty());
        assert_eq!(
            dataset.len(),
            config.catalog().len() * config.collector.sampler.windows_per_sample
        );
    }

    #[test]
    fn census_covers_every_class() {
        let rows = census(&ExperimentConfig::fast());
        assert_eq!(rows.len(), AppClass::COUNT);
        let share: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share - 1.0).abs() < 1e-9);
        assert!(rows.iter().all(|r| r.dataset_rows > 0));
    }

    #[test]
    fn paper_config_names_the_full_catalog() {
        let config = ExperimentConfig::paper();
        assert_eq!(config.catalog().len(), 3_070);
    }
}
