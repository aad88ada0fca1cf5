//! Steady-state serving allocates nothing: once a stream is warm,
//! `StreamState::observe` — sanitize, feature gather, compiled predict,
//! the disagreement alarm, vote and hysteresis, and the telemetry
//! handles — runs without touching the heap.
//!
//! A counting global allocator tallies allocations per thread, so other
//! tests running in this process cannot add to a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hbmd_core::{
    ClassifierKind, Detector, DetectorBuilder, FeatureSet, OnlineDetectorBuilder, StreamState,
};
use hbmd_events::FeatureVector;
use hbmd_malware::SampleCatalog;
use hbmd_perf::{Collector, CollectorConfig, FaultPlan, HpcDataset};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // The slot is a const-initialised `Cell` with no destructor, so
    // touching it never allocates; during thread teardown it may be
    // gone, and those allocations are not the serving path's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting only
// bumps a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn collect(config: CollectorConfig, catalog: &SampleCatalog) -> HpcDataset {
    Collector::new(config)
        .expect("valid config")
        .collect(catalog)
        .expect("collection under threshold")
        .dataset
}

/// Train `kind` on a clean collection and return it with a corpus of
/// faulted windows from the same catalog, so the sanitizer's repair and
/// abstain paths run too.
fn trained(kind: ClassifierKind) -> (Arc<Detector>, Vec<FeatureVector>) {
    let catalog = SampleCatalog::scaled(0.02, 17);
    let detector = DetectorBuilder::new()
        .classifier(kind)
        .feature_set(FeatureSet::Top(8))
        .train_binary(&collect(CollectorConfig::fast(), &catalog))
        .expect("train");
    let faulted = collect(
        CollectorConfig::faulted(FaultPlan::uniform(0.1, 5)),
        &catalog,
    );
    let corpus = faulted
        .rows()
        .iter()
        .map(|row| row.features.clone())
        .collect();
    (Arc::new(detector), corpus)
}

/// Allocations made by ten passes of `state` over `corpus`, after one
/// warm-up pass.
fn steady_state_allocations(
    detector: &Detector,
    mut state: StreamState,
    corpus: &[FeatureVector],
) -> u64 {
    let pass = |state: &mut StreamState| {
        for window in corpus {
            std::hint::black_box(state.observe(detector, window));
        }
    };
    pass(&mut state);
    let before = allocations();
    for _ in 0..10 {
        pass(&mut state);
    }
    allocations() - before
}

#[test]
fn j48_observe_allocates_nothing_after_warm_up() {
    let (detector, corpus) = trained(ClassifierKind::J48);
    let state = OnlineDetectorBuilder::shared(Arc::clone(&detector))
        .window(4)
        .threshold(3)
        .build_stream()
        .expect("stream state");
    assert!(!corpus.is_empty());
    assert_eq!(steady_state_allocations(&detector, state, &corpus), 0);
}

#[test]
fn armed_forest_observe_allocates_nothing_after_warm_up() {
    let (detector, corpus) = trained(ClassifierKind::RandomForest);
    let state = OnlineDetectorBuilder::shared(Arc::clone(&detector))
        .window(4)
        .threshold(3)
        .suspicion_threshold(0.3)
        .build_stream()
        .expect("stream state");
    assert!(detector.compiled().is_some(), "the forest serves compiled");
    assert_eq!(steady_state_allocations(&detector, state, &corpus), 0);
}

#[test]
fn the_counter_sees_allocations_on_this_thread() {
    let before = allocations();
    std::hint::black_box(vec![0u8; 64]);
    assert_eq!(allocations() - before, 1);
}
