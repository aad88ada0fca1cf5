//! The `perf`-tool substrate: everything between the simulated silicon
//! and the machine-learning layer.
//!
//! The reference evaluation read hardware performance counters with the
//! Linux `perf` tool at a 10 ms sampling period, executing each malware
//! sample inside an LXC container, writing per-sample text traces, then
//! combining them into CSV files and converting those to WEKA ARFF. This
//! crate rebuilds that pipeline:
//!
//! * [`Pmu`] — 8 programmable counter registers with time-sliced event
//!   multiplexing and `perf`-style `raw × enabled/running` scaling,
//! * [`Sampler`] — fixed-budget sampling windows (the simulated 10 ms),
//! * [`SimSource`] — per-sample isolation: every sample launches on a
//!   fresh simulated core, optionally interleaved with benign host work
//!   ([`SamplerConfig::host_noise`]) for the container ablation,
//! * [`trace`] — perf-stat-style text traces (writer and parser),
//! * [`csv`] / [`arff`] — dataset interchange (CSV and WEKA ARFF),
//! * [`HpcDataset`] — the assembled labelled dataset with stratified
//!   70/30 train/test splitting,
//! * [`Collector`] — end-to-end, optionally multi-threaded collection
//!   over a whole [`SampleCatalog`](hbmd_malware::SampleCatalog),
//! * [`CounterSource`] — the pluggable backend contract behind every
//!   window reader: the deterministic simulator ([`SourceSelect::Sim`],
//!   the default) or live Linux `perf_event_open(2)` counters
//!   ([`SourceSelect::Perf`], behind the `perf-backend` feature). The
//!   one choice of backend is [`SamplerConfig::source`]: the
//!   [`Collector`], [`Sampler`] and the serving fleet all read it
//!   there.
//!
//! # Time scaling
//!
//! A real 10 ms window at 3.3 GHz is ~33 M cycles — needlessly slow to
//! simulate thousands of times. A window here is a fixed instruction
//! budget (default 20,000); all counter *ratios* (the signal classifiers
//! consume) are budget-invariant, so the scaling preserves behaviour
//! shape while making full-catalog collection take seconds.
//!
//! # Examples
//!
//! ```
//! use hbmd_malware::SampleCatalog;
//! use hbmd_perf::{Collector, CollectorConfig};
//!
//! let catalog = SampleCatalog::scaled(0.01, 7);
//! let collector = Collector::new(CollectorConfig::fast()).expect("static config");
//! let collection = collector.collect(&catalog).expect("pristine pipeline");
//! assert_eq!(collection.dataset.len(), catalog.len() * 4); // 4 windows per sample
//! ```

pub mod arff;
pub mod csv;
pub mod trace;
pub mod trace_dir;

mod collect;
mod container;
mod dataset;
mod error;
mod fault;
mod pmu;
mod sampler;
mod source;
#[cfg(feature = "perf-backend")]
pub mod sys;

pub use collect::{Collection, CollectionReport, Collector, CollectorConfig};
pub use dataset::{DataRow, HpcDataset};
pub use error::PerfError;
pub use fault::{FaultCounts, FaultInjector, FaultPlan, SATURATION_CEILING};
pub use pmu::{Pmu, PmuConfig};
pub use sampler::{Sampler, SamplerConfig};
pub use source::{
    open_source, CounterSource, CounterWindow, EventSel, SimSource, SourceCaps, SourceSelect,
};
