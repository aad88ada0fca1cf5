//! The hardware-based malware detection pipeline — the paper's primary
//! contribution, assembled from the suite's substrates.
//!
//! `hbmd-core` connects the synthetic platform (`hbmd-uarch` +
//! `hbmd-malware`), the collection pipeline (`hbmd-perf`), the
//! machine-learning toolbox (`hbmd-ml`) and the hardware cost model
//! (`hbmd-fpga`) into the workflows the reference evaluation reports:
//!
//! * [`ClassifierKind`] / [`TrainedModel`] — the WEKA classifier suite
//!   as a closed enum, trainable and synthesisable,
//! * [`FeatureSet`] / [`FeaturePlan`] — the paper's feature policies:
//!   all 16 counters, PCA top-8 / top-4, the 4 common features, and the
//!   per-malware-class custom 8 of Table 2,
//! * [`Detector`] / [`DetectorBuilder`] — end-to-end training of a
//!   binary (benign/malware) or multiclass (family) detector,
//! * [`OnlineDetector`] — sliding-window majority voting over per-10ms
//!   verdicts for run-time monitoring, with abstention on corrupted
//!   windows and optional alarm hysteresis,
//! * [`Sanitizer`] — training-statistics screening of incoming windows
//!   (median imputation of repairable corruption, abstention on
//!   garbage) for graceful degradation under collection faults,
//! * [`experiments`] — one preset per table/figure of the evaluation
//!   (accuracy sweeps, hardware cost comparisons, PCA-assisted
//!   multiclass), shared by the `repro` binary and the benches.
//!
//! # Examples
//!
//! ```
//! use hbmd_core::{ClassifierKind, DetectorBuilder, FeatureSet};
//! use hbmd_malware::SampleCatalog;
//! use hbmd_perf::{Collector, CollectorConfig};
//!
//! let catalog = SampleCatalog::scaled(0.02, 7);
//! let dataset = Collector::new(CollectorConfig::fast())
//!     .expect("static config")
//!     .collect(&catalog)
//!     .expect("pristine pipeline")
//!     .dataset;
//!
//! let detector = DetectorBuilder::new()
//!     .classifier(ClassifierKind::J48)
//!     .feature_set(FeatureSet::Top(8))
//!     .train_binary(&dataset)?;
//! assert!(detector.evaluation().accuracy() > 0.7);
//! # Ok::<(), hbmd_core::CoreError>(())
//! ```

pub mod experiments;
pub mod fleet;
pub mod snapshot;
pub mod supervisor;

mod convert;
mod detector;
mod error;
mod features;
mod online;
mod sanitize;
mod suite;

pub use convert::{to_binary_dataset, to_multiclass_dataset, BINARY_CLASS_NAMES};
pub use detector::{Detector, DetectorBuilder, DetectorMode, Verdict};
pub use error::CoreError;
pub use experiments::cache::{CacheStats, CollectCache};
pub use features::{FeaturePlan, FeatureSet};
pub use fleet::{shard_of, StreamHealth, StreamHealthConfig, StreamStanding};
pub use hbmd_obs::par;
pub use online::{OnlineDetector, OnlineDetectorBuilder, OnlineVerdict, StreamState};
pub use sanitize::{SanitizeOutcome, Sanitizer};
pub use snapshot::{FleetRestore, SnapshotError, StreamSection};
pub use suite::{ClassifierKind, TrainedModel};
pub use supervisor::{Backoff, BreakerState, CircuitBreaker};
