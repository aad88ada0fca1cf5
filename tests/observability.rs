//! Observability integration: span capture, exact counters, the
//! determinism contract, and context isolation, driven through the
//! public facade.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use hbmd::malware::SampleCatalog;
use hbmd::obs::{MemorySink, Obs};
use hbmd::perf::{Collection, Collector, CollectorConfig, FaultPlan};

/// A fault plan hot enough to exercise every counter on a tiny catalog,
/// but below the failure threshold.
fn faulted_config() -> CollectorConfig {
    CollectorConfig::faulted(FaultPlan::uniform(0.05, 11))
}

fn collect(config: CollectorConfig, catalog: &SampleCatalog) -> Collection {
    Collector::new(config)
        .expect("valid config")
        .collect(catalog)
        .expect("collection under threshold")
}

#[test]
fn spans_nest_and_counters_match_the_report_exactly() {
    let sink = Arc::new(MemorySink::new());
    let guard = hbmd::obs::install(Obs::new().with_sink(sink.clone()));

    let catalog = SampleCatalog::scaled(0.02, 7);
    let collection = collect(faulted_config(), &catalog);
    let report = &collection.report;

    // One root `collect` span; with the sequential (threads = 1) fast
    // config every per-sample span nests under it.
    let roots = sink.named("collect");
    assert_eq!(roots.len(), 1);
    let samples = sink.named("collect.sample");
    assert_eq!(samples.len(), report.samples_total);
    for span in &samples {
        assert_eq!(span.parent, Some(roots[0].id), "sequential spans nest");
    }

    // Counters are exact mirrors of the collection report.
    let snapshot = guard.registry().snapshot();
    assert_eq!(snapshot.counter("collect.samples"), catalog.len() as u64);
    assert_eq!(snapshot.counter("windows_collected"), report.rows as u64);
    assert_eq!(
        snapshot.counter("windows_collected"),
        collection.dataset.len() as u64
    );
    assert_eq!(snapshot.counter("collect.retries"), report.retries as u64);
    assert_eq!(
        snapshot.counter("collect.quarantined"),
        report.quarantined.len() as u64
    );
    let faults_total: usize = report.faults.per_kind().iter().map(|&(_, n)| n).sum();
    assert!(faults_total > 0, "the uniform plan must inject something");
    assert_eq!(snapshot.counter("faults_injected"), faults_total as u64);

    drop(guard);
}

#[test]
fn per_kind_fault_counters_carry_labels() {
    let guard = hbmd::obs::install(Obs::new());
    let catalog = SampleCatalog::scaled(0.02, 13);
    let collection = collect(faulted_config(), &catalog);

    let snapshot = guard.registry().snapshot();
    for (kind, count) in collection.report.faults.per_kind() {
        let recorded: u64 = snapshot
            .counters
            .iter()
            .filter(|c| {
                c.name == "faults_injected"
                    && c.labels == vec![("kind".to_owned(), kind.to_owned())]
            })
            .map(|c| c.value)
            .sum();
        assert_eq!(recorded, count as u64, "kind {kind}");
    }
    drop(guard);
}

#[test]
fn deterministic_metrics_are_identical_across_thread_counts() {
    let fingerprint = |threads: usize| {
        let guard = hbmd::obs::install(Obs::new());
        let mut config = faulted_config();
        config.threads = threads;
        let catalog = SampleCatalog::scaled(0.02, 29);
        let _faulted = collect(config.clone(), &catalog);
        // Exercise the training side too, so classifier counters are
        // part of the fingerprint. Train on a clean collection — raw
        // faulted windows carry NaNs that only the detector's sanitizer
        // screens out.
        let clean = collect(
            CollectorConfig {
                fault: FaultPlan::none(),
                ..config
            },
            &catalog,
        );
        let dataset = hbmd::core::to_binary_dataset(&clean.dataset);
        let mut tree = hbmd::ml::J48::new();
        hbmd::ml::fit_timed(&mut tree, &dataset).expect("fit");
        let json = guard.registry().snapshot().deterministic().to_json();
        drop(guard);
        json
    };
    let sequential = fingerprint(1);
    assert_eq!(sequential, fingerprint(2));
    assert_eq!(sequential, fingerprint(8));
    // The fingerprint is non-trivial and wall-clock-free.
    assert!(sequential.contains("windows_collected"));
    assert!(!sequential.contains("train_ns"));
}

#[test]
fn default_context_collects_without_sinks() {
    // No install, no sinks: the pipeline must run exactly as before,
    // metrics landing silently in the default registry.
    let catalog = SampleCatalog::scaled(0.01, 3);
    let collection = collect(CollectorConfig::fast(), &catalog);
    assert_eq!(collection.dataset.len(), collection.report.rows);
    assert!(!hbmd::obs::has_sinks());
}

#[test]
fn summary_table_renders_counters_and_histograms() {
    let guard = hbmd::obs::install(Obs::new());
    let catalog = SampleCatalog::scaled(0.01, 3);
    let _ = collect(CollectorConfig::fast(), &catalog);
    let summary = guard.registry().snapshot().summary();
    assert!(summary.contains("counters"));
    assert!(summary.contains("windows_collected"));
    drop(guard);
}

#[test]
fn per_source_window_counter_labels_the_active_backend() {
    let guard = hbmd::obs::install(Obs::new());
    let catalog = SampleCatalog::scaled(0.01, 5);
    let collection = collect(CollectorConfig::fast(), &catalog);

    let snapshot = guard.registry().snapshot();
    let by_source: u64 = snapshot
        .counters
        .iter()
        .filter(|c| {
            c.name == "collect.windows_by_source"
                && c.labels == vec![("source".to_owned(), "sim".to_owned())]
        })
        .map(|c| c.value)
        .sum();
    assert_eq!(by_source, collection.dataset.len() as u64);
    assert_eq!(snapshot.counter("collect.starved_windows"), 0);
    drop(guard);
}

#[test]
fn an_installed_context_is_isolated_from_a_concurrent_default_workload() {
    // Collect on four workers under a fresh context; the workers must
    // count into it too.
    let installed_run = || {
        let guard = hbmd::obs::install(Obs::new());
        let mut config = faulted_config();
        config.threads = 4;
        let _ = collect(config, &SampleCatalog::scaled(0.02, 29));
        hbmd::obs::incr("isolation.installed_only");
        let json = guard.registry().snapshot().deterministic().to_json();
        drop(guard);
        json
    };
    let alone = installed_run();

    let barrier = Barrier::new(2);
    let done = AtomicBool::new(false);
    let together = std::thread::scope(|scope| {
        let installing = scope.spawn(|| {
            barrier.wait();
            let json = installed_run();
            done.store(true, Ordering::SeqCst);
            json
        });
        // The same workload with nothing installed, repeated until the
        // installing thread is done so the two overlap.
        scope.spawn(|| {
            barrier.wait();
            loop {
                let _ = collect(faulted_config(), &SampleCatalog::scaled(0.02, 29));
                hbmd::obs::incr("isolation.default_only");
                if done.load(Ordering::SeqCst) {
                    break;
                }
            }
            let default = hbmd::obs::current().registry().snapshot();
            assert_eq!(default.counter("isolation.installed_only"), 0);
            assert!(default.counter("isolation.default_only") > 0);
        });
        installing.join().expect("installing thread")
    });
    assert_eq!(together, alone);
    assert!(!alone.contains("isolation.default_only"));
}

#[test]
fn nested_installs_restore_the_outer_context() {
    let outer = hbmd::obs::install(Obs::new());
    hbmd::obs::incr("nesting.outer");
    let inner = hbmd::obs::install(Obs::new());
    hbmd::obs::incr("nesting.inner");
    let _ = collect(CollectorConfig::fast(), &SampleCatalog::scaled(0.01, 3));
    let inner_snapshot = inner.registry().snapshot();
    drop(inner);
    hbmd::obs::incr("nesting.outer");

    assert_eq!(inner_snapshot.counter("nesting.inner"), 1);
    assert_eq!(inner_snapshot.counter("nesting.outer"), 0);
    assert!(inner_snapshot.counter("windows_collected") > 0);
    let outer_snapshot = outer.registry().snapshot();
    assert_eq!(outer_snapshot.counter("nesting.outer"), 2);
    assert_eq!(outer_snapshot.counter("nesting.inner"), 0);
    assert_eq!(outer_snapshot.counter("windows_collected"), 0);
    drop(outer);
}

#[test]
fn library_spawned_threads_inherit_the_spawners_context() {
    let guard = hbmd::obs::install(Obs::new());
    hbmd::obs::spawn("inherit-test", || hbmd::obs::incr("spawn.inherited"))
        .expect("spawn")
        .join()
        .expect("join");
    std::thread::spawn(|| hbmd::obs::incr("spawn.plain"))
        .join()
        .expect("join");
    let snapshot = guard.registry().snapshot();
    assert_eq!(snapshot.counter("spawn.inherited"), 1);
    assert_eq!(snapshot.counter("spawn.plain"), 0);
    drop(guard);
}
