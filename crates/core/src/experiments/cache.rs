//! Content-addressed memoization for the collection pipeline.
//!
//! Collection is by far the most expensive phase of every experiment
//! and is fully deterministic given its configuration, so running the
//! suite (as `repro all` does) used to re-collect the same catalog once
//! per experiment. [`CollectCache`] collapses that to **one collection
//! per distinct collector configuration**: entries are keyed by the
//! semantic content of the configuration — sampler (counter source
//! included), fault plan, and catalog recipe (fraction + seed) — and
//! shared via [`Arc`].
//!
//! Thread counts are deliberately *excluded* from the key: collection
//! returns results in catalog order regardless of worker count, so two
//! configs that differ only in parallelism produce byte-identical
//! datasets and may share an entry.
//!
//! The cache keeps the full [`Collection`] — dataset *and*
//! [`CollectionReport`](hbmd_perf::CollectionReport) — so callers can
//! surface degradation telemetry
//! (quarantined samples, retries, fault counts) instead of discarding
//! it. Failed collections are never cached; a config whose collection
//! degrades past the failure threshold errors on every call.
//!
//! Every experiment takes the cache it collects through as its first
//! argument; there is no process-wide cache. A caller that runs several
//! experiments shares one cache between them (the `repro` binary keeps
//! one per run, so its hit/miss counters count that run alone), and
//! hits, misses and collected windows are counted into the caller's
//! metrics context.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hbmd_malware::SampleCatalog;
use hbmd_perf::{Collection, Collector, CollectorConfig, DataRow, PerfError};

use crate::experiments::ExperimentConfig;

/// Cache counters, for perf harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: usize,
    /// Lookups that ran the collection pipeline.
    pub misses: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }
}

/// A content-addressed cache of collection runs.
///
/// Cheap to share by reference; all methods take `&self` and are safe
/// to call from [`par_map`](crate::par::par_map) workers.
#[derive(Debug, Default)]
pub struct CollectCache {
    entries: Mutex<HashMap<String, Arc<Collection>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CollectCache {
    /// An empty cache.
    pub fn new() -> CollectCache {
        CollectCache::default()
    }

    /// Collect (or recall) the dataset an [`ExperimentConfig`]
    /// describes.
    ///
    /// # Errors
    ///
    /// Propagates collector-configuration errors and
    /// [`PerfError::DegradedCollection`] when the pipeline fails its
    /// failure threshold. Failures are not cached.
    pub fn collect(&self, config: &ExperimentConfig) -> Result<Arc<Collection>, PerfError> {
        let recipe = catalog_recipe(config.catalog_fraction, config.catalog_seed);
        self.collect_catalog(&config.collector, &recipe, || config.catalog())
    }

    /// Collect (or recall) `collector` over an arbitrary catalog.
    ///
    /// `catalog_recipe` must uniquely describe how `make_catalog`
    /// builds its catalog (e.g. via [`catalog_recipe`]); it is part of
    /// the cache key. `make_catalog` runs only on a miss.
    ///
    /// # Errors
    ///
    /// Propagates collector-configuration errors and
    /// [`PerfError::DegradedCollection`]. Failures are not cached.
    pub fn collect_catalog(
        &self,
        collector: &CollectorConfig,
        catalog_recipe: &str,
        make_catalog: impl FnOnce() -> SampleCatalog,
    ) -> Result<Arc<Collection>, PerfError> {
        let key = cache_key(collector, catalog_recipe);
        if let Some(entry) = self
            .entries
            .lock()
            .expect("collect cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hbmd_obs::incr("cache.hits");
            return Ok(Arc::clone(entry));
        }

        // Collect outside the lock: a miss takes seconds-to-minutes
        // and concurrent lookups for *other* keys must not serialize
        // behind it. Two racing misses for the same key both collect
        // (deterministically, to identical results); first insert wins.
        self.misses.fetch_add(1, Ordering::Relaxed);
        hbmd_obs::incr("cache.misses");
        let collector = Collector::new(collector.clone())?;
        let entry = Arc::new(collector.collect(&make_catalog())?);
        hbmd_obs::add(
            "cache.bytes_cached",
            (entry.dataset.len() * std::mem::size_of::<DataRow>()) as u64,
        );
        Ok(Arc::clone(
            self.entries
                .lock()
                .expect("collect cache poisoned")
                .entry(key)
                .or_insert(entry),
        ))
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The canonical recipe string for a scaled catalog.
pub fn catalog_recipe(fraction: f64, seed: u64) -> String {
    format!("catalog(fraction={fraction},seed={seed})")
}

/// The cache key: catalog recipe plus the collector config with its
/// thread count neutralized (parallelism does not change results).
fn cache_key(collector: &CollectorConfig, catalog_recipe: &str) -> String {
    let neutral = CollectorConfig {
        threads: 1,
        ..collector.clone()
    };
    format!("{catalog_recipe}|{neutral:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_allocation() {
        let cache = CollectCache::new();
        let config = ExperimentConfig::fast();
        let first = cache.collect(&config).expect("collect");
        let second = cache.collect(&config).expect("collect");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_configs_miss_separately() {
        let cache = CollectCache::new();
        let a = ExperimentConfig::fast();
        let mut b = ExperimentConfig::fast();
        b.catalog_seed ^= 1;
        cache.collect(&a).expect("collect");
        cache.collect(&b).expect("collect");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn thread_count_does_not_change_the_key_or_the_data() {
        let cache = CollectCache::new();
        let mut a = ExperimentConfig::fast();
        a.collector.threads = 1;
        let mut b = a.clone();
        b.collector.threads = 8;
        b.threads = 8;
        let first = cache.collect(&a).expect("collect");
        let second = cache.collect(&b).expect("collect");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn report_is_surfaced_not_discarded() {
        let cache = CollectCache::new();
        let collection = cache.collect(&ExperimentConfig::fast()).expect("collect");
        assert_eq!(collection.report.rows, collection.dataset.len());
        assert!(collection.report.is_clean());
    }
}
