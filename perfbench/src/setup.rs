//! Set-up: collect the training catalog and train the served model,
//! exactly as `repro serve` does, repeated so `setup_s` is a median.

use std::sync::Arc;
use std::time::Instant;

use hbmd_core::experiments::ExperimentConfig;
use hbmd_core::{
    ClassifierKind, Detector, DetectorBuilder, FeatureSet, OnlineDetectorBuilder, StreamState,
};
use hbmd_perf::{Collector, HpcDataset};

use crate::stats::median;

/// The model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// J48 — the `repro serve` model: prediction is a few percent of a
    /// window's cost.
    J48,
    /// RandomForest(20) with the disagreement alarm armed at 0.3:
    /// prediction and dispersion dominate each window.
    Forest,
}

/// Catalog scale of the training collection.
pub const SCALE: f64 = 0.05;

/// Set-ups per untraced run; `setup_s` is their median. One set-up
/// varies by up to ±15% within a run on a shared host, as much as the
/// host drifts between runs, so the median needs several.
pub const REPEATS: usize = 5;

/// A trained, ready-to-serve model plus what set-up cost.
pub struct Setup {
    /// The model served.
    pub model: Model,
    /// The experiment configuration (paper sampler, `nproc` threads).
    pub config: ExperimentConfig,
    /// The collected training dataset (kept for the traced train).
    pub dataset: HpcDataset,
    /// The shared detector.
    pub detector: Arc<Detector>,
    /// The pristine per-stream vote state (window 4, threshold 3).
    pub pristine: StreamState,
    /// Median seconds of collect plus train.
    pub setup_s: f64,
    /// Median seconds of the collect step alone.
    pub collect_s: f64,
}

impl Model {
    fn kind(self) -> ClassifierKind {
        match self {
            Model::J48 => ClassifierKind::J48,
            Model::Forest => ClassifierKind::RandomForest,
        }
    }

    /// Train this model on the paper's top-8 features.
    pub fn train(self, dataset: &HpcDataset) -> Result<Detector, String> {
        DetectorBuilder::new()
            .classifier(self.kind())
            .feature_set(FeatureSet::Top(8))
            .train_binary(dataset)
            .map_err(|e| format!("train: {e}"))
    }

    /// The pristine stream state this model is served with.
    pub fn pristine(self, detector: &Arc<Detector>) -> Result<StreamState, String> {
        let online = OnlineDetectorBuilder::shared(Arc::clone(detector))
            .window(4)
            .threshold(3);
        let online = match self {
            Model::J48 => online,
            Model::Forest => online.suspicion_threshold(0.3),
        };
        online
            .build_stream()
            .map_err(|e| format!("stream state: {e}"))
    }
}

/// Collect and train `repeats` times on `threads` threads; keep the
/// last model and report median timings.
pub fn run(model: Model, threads: usize, repeats: usize) -> Result<Setup, String> {
    let mut config = hbmd_bench::config_at_scale(SCALE);
    config.threads = threads;
    config.collector.threads = threads;
    let mut totals = Vec::with_capacity(repeats);
    let mut collects = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        let dataset = Collector::new(config.collector.clone())
            .and_then(|c| c.collect(&config.catalog()))
            .map_err(|e| format!("collect: {e}"))?
            .dataset;
        let collected = started.elapsed().as_secs_f64();
        let detector = model.train(&dataset)?;
        let total = started.elapsed().as_secs_f64();
        totals.push(total);
        collects.push(collected);
        last = Some((dataset, detector));
    }
    let (dataset, detector) = last.expect("at least one set-up ran");
    let detector = Arc::new(detector);
    Ok(Setup {
        model,
        pristine: model.pristine(&detector)?,
        config,
        dataset,
        detector,
        setup_s: median(&totals),
        collect_s: median(&collects),
    })
}
