//! The experiment layer's parallel fan-out must be a pure throughput
//! knob: every experiment returns **byte-identical** results at any
//! thread count, and the collection cache guarantees one collection
//! per distinct collector configuration no matter how many experiments
//! share it.

use hbmd_core::experiments::{binary, ensemble, multiclass, robustness, roc, ExperimentConfig};
use hbmd_core::{ClassifierKind, CollectCache};

/// The thread counts the acceptance criteria pin down.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn config_with_threads(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        threads,
        ..ExperimentConfig::fast()
    }
}

#[test]
fn binary_suite_is_thread_count_invariant() {
    let cache = CollectCache::new();
    let baseline = binary::accuracy_comparison(&cache, &config_with_threads(1)).expect("suite");
    for threads in THREAD_COUNTS {
        let rows =
            binary::accuracy_comparison(&cache, &config_with_threads(threads)).expect("suite");
        assert_eq!(rows, baseline, "threads = {threads}");
    }
}

#[test]
fn multiclass_suite_is_thread_count_invariant() {
    let cache = CollectCache::new();
    let baseline = multiclass::accuracy_comparison(&cache, &config_with_threads(1)).expect("suite");
    for threads in THREAD_COUNTS {
        let rows =
            multiclass::accuracy_comparison(&cache, &config_with_threads(threads)).expect("suite");
        assert_eq!(rows, baseline, "threads = {threads}");
    }
}

#[test]
fn ensemble_comparison_is_thread_count_invariant() {
    let cache = CollectCache::new();
    let baseline = ensemble::comparison(&cache, &config_with_threads(1)).expect("suite");
    for threads in THREAD_COUNTS {
        let rows = ensemble::comparison(&cache, &config_with_threads(threads)).expect("suite");
        assert_eq!(rows, baseline, "threads = {threads}");
    }
}

#[test]
fn roc_comparison_is_thread_count_invariant() {
    let cache = CollectCache::new();
    let baseline = roc::comparison(&cache, &config_with_threads(1)).expect("roc");
    for threads in THREAD_COUNTS {
        let rows = roc::comparison(&cache, &config_with_threads(threads)).expect("roc");
        assert_eq!(rows, baseline, "threads = {threads}");
    }
}

#[test]
fn robustness_sweep_is_thread_count_invariant() {
    let cache = CollectCache::new();
    let schemes = [ClassifierKind::J48, ClassifierKind::Logistic];
    let rates = [0.0, 0.1];
    let baseline = robustness::degradation_sweep(&cache, &config_with_threads(1), &schemes, &rates)
        .expect("sweep");
    for threads in THREAD_COUNTS {
        let rows =
            robustness::degradation_sweep(&cache, &config_with_threads(threads), &schemes, &rates)
                .expect("sweep");
        assert_eq!(rows, baseline, "threads = {threads}");
    }
}

#[test]
fn cache_collects_each_distinct_config_exactly_once() {
    let cache = CollectCache::new();
    let config = config_with_threads(2);

    // Five experiments over the same config: one training collection.
    binary::accuracy_comparison(&cache, &config).expect("binary");
    multiclass::accuracy_comparison(&cache, &config).expect("multiclass");
    ensemble::comparison(&cache, &config).expect("ensemble");
    roc::comparison(&cache, &config).expect("roc");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "shared config must collect once");
    assert_eq!(stats.hits, 3);

    // The robustness sweep adds one eval collection per fault rate
    // (each rate's fault plan is a distinct collector config) but
    // reuses the training collection.
    let rates = [0.0, 0.1];
    robustness::degradation_sweep(&cache, &config, &[ClassifierKind::J48], &rates).expect("sweep");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1 + rates.len());

    // Re-running the sweep is all hits: experiment-layer thread counts
    // are not part of the key.
    let rerun_config = config_with_threads(8);
    robustness::degradation_sweep(&cache, &rerun_config, &[ClassifierKind::J48], &rates)
        .expect("sweep");
    assert_eq!(cache.stats().misses, 1 + rates.len());
}
