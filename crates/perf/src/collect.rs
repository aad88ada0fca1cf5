use std::panic::{self, AssertUnwindSafe};
use std::time::Duration;

use hbmd_malware::{MultiEngineLabeler, Sample, SampleCatalog, SampleId};

use crate::dataset::{DataRow, HpcDataset};
use crate::error::PerfError;
use crate::fault::{FaultCounts, FaultInjector, FaultPlan};
use crate::sampler::{Sampler, SamplerConfig};
use crate::source::SourceSelect;

/// Configuration for whole-catalog collection.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorConfig {
    /// Per-sample observation setup.
    pub sampler: SamplerConfig,
    /// Which counter backend windows are read from. The default
    /// [`SourceSelect::Sim`] is the deterministic simulator;
    /// [`SourceSelect::Perf`] reads live hardware counters when the
    /// crate is built with the `perf-backend` feature (probed at
    /// [`Collector::new`] time).
    pub source: SourceSelect,
    /// Worker threads (1 = sequential). Collection is embarrassingly
    /// parallel across samples; results are returned in catalog order
    /// regardless of thread count.
    pub threads: usize,
    /// Label rows with a multi-engine labeller instead of ground truth,
    /// introducing realistic label noise.
    pub labeler: Option<MultiEngineLabeler>,
    /// Inject collection-path faults (`None` = pristine pipeline).
    pub fault: Option<FaultPlan>,
    /// Extra attempts per sample after a failed (panicked) collection.
    pub max_retries: u32,
    /// Base of the deterministic exponential backoff between retry
    /// attempts, in milliseconds (attempt `n` sleeps `base << (n-1)`).
    /// Zero (the default) retries immediately — the simulator has no
    /// transient hardware to wait out, but real deployments do.
    pub retry_backoff_ms: u64,
    /// Abort with [`PerfError::DegradedCollection`] when more than this
    /// fraction of samples is quarantined after retries.
    pub failure_threshold: f64,
}

impl CollectorConfig {
    /// The reference setup on all available parallelism.
    pub fn paper() -> CollectorConfig {
        CollectorConfig {
            sampler: SamplerConfig::paper(),
            source: SourceSelect::Sim,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            labeler: None,
            fault: None,
            max_retries: 2,
            retry_backoff_ms: 0,
            failure_threshold: 0.5,
        }
    }

    /// A reduced setup for tests: tiny machine, 4 short windows,
    /// sequential.
    pub fn fast() -> CollectorConfig {
        CollectorConfig {
            sampler: SamplerConfig::fast(),
            source: SourceSelect::Sim,
            threads: 1,
            labeler: None,
            fault: None,
            max_retries: 2,
            retry_backoff_ms: 0,
            failure_threshold: 0.5,
        }
    }

    /// `fast()` with a fault plan attached.
    pub fn faulted(plan: FaultPlan) -> CollectorConfig {
        CollectorConfig {
            fault: Some(plan),
            ..CollectorConfig::fast()
        }
    }

    /// Start building a configuration from the [`paper`
    /// preset](CollectorConfig::paper) — the counterpart of the
    /// `OnlineDetectorBuilder` idiom for the collection side.
    pub fn builder() -> CollectorConfigBuilder {
        CollectorConfigBuilder {
            config: CollectorConfig::paper(),
        }
    }

    /// Check the configuration is usable (what [`Collector::new`]
    /// enforces, minus the backend probe).
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] when the sampler configuration or
    /// fault plan is invalid, `threads` is zero, or the failure
    /// threshold is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), PerfError> {
        self.sampler.validate()?;
        if self.threads == 0 {
            return Err(PerfError::Config("threads must be non-zero".to_owned()));
        }
        if let Some(plan) = &self.fault {
            plan.validate()?;
        }
        if !(self.failure_threshold.is_finite() && (0.0..=1.0).contains(&self.failure_threshold)) {
            return Err(PerfError::Config(format!(
                "failure_threshold {} is outside [0, 1]",
                self.failure_threshold
            )));
        }
        Ok(())
    }
}

/// Builder for [`CollectorConfig`]: source, scale, fault plan, and
/// retry policy, validated at [`build`](CollectorConfigBuilder::build)
/// time. Starts from the [`paper`](CollectorConfig::paper) preset.
///
/// # Examples
///
/// ```
/// use hbmd_perf::{CollectorConfig, SamplerConfig, SourceSelect};
///
/// let config = CollectorConfig::builder()
///     .sampler(SamplerConfig::fast())
///     .source(SourceSelect::Sim)
///     .threads(2)
///     .retries(1, 0)
///     .build()?;
/// assert_eq!(config.max_retries, 1);
/// # Ok::<(), hbmd_perf::PerfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CollectorConfigBuilder {
    config: CollectorConfig,
}

impl CollectorConfigBuilder {
    /// Replace the whole per-sample observation setup.
    pub fn sampler(mut self, sampler: SamplerConfig) -> CollectorConfigBuilder {
        self.config.sampler = sampler;
        self
    }

    /// Select the counter backend windows are read from.
    pub fn source(mut self, source: SourceSelect) -> CollectorConfigBuilder {
        self.config.source = source;
        self
    }

    /// Worker threads (1 = sequential).
    pub fn threads(mut self, threads: usize) -> CollectorConfigBuilder {
        self.config.threads = threads;
        self
    }

    /// Label rows with a multi-engine labeller instead of ground truth.
    pub fn labeler(mut self, labeler: MultiEngineLabeler) -> CollectorConfigBuilder {
        self.config.labeler = Some(labeler);
        self
    }

    /// Inject collection-path faults.
    pub fn fault(mut self, plan: FaultPlan) -> CollectorConfigBuilder {
        self.config.fault = Some(plan);
        self
    }

    /// Retry policy: extra attempts per failed sample and the base of
    /// the deterministic exponential backoff between them.
    pub fn retries(mut self, max_retries: u32, backoff_ms: u64) -> CollectorConfigBuilder {
        self.config.max_retries = max_retries;
        self.config.retry_backoff_ms = backoff_ms;
        self
    }

    /// Quarantine-rate ceiling before collection aborts with
    /// [`PerfError::DegradedCollection`].
    pub fn failure_threshold(mut self, threshold: f64) -> CollectorConfigBuilder {
        self.config.failure_threshold = threshold;
        self
    }

    /// Sampling windows recorded per sample.
    pub fn windows_per_sample(mut self, windows: usize) -> CollectorConfigBuilder {
        self.config.sampler.windows_per_sample = windows;
        self
    }

    /// Instruction budget per sampling window.
    pub fn instructions_per_window(mut self, budget: u64) -> CollectorConfigBuilder {
        self.config.sampler.instructions_per_window = budget;
        self
    }

    /// Validate and return the configuration.
    ///
    /// # Errors
    ///
    /// See [`CollectorConfig::validate`].
    pub fn build(self) -> Result<CollectorConfig, PerfError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig::paper()
    }
}

/// What happened during one catalog collection: how much data survived,
/// which samples had to be quarantined, and the injected-fault tally.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionReport {
    /// Samples in the catalog.
    pub samples_total: usize,
    /// Rows that made it into the dataset.
    pub rows: usize,
    /// Samples that failed every attempt and contributed no rows.
    pub quarantined: Vec<SampleId>,
    /// Retry attempts spent across all samples.
    pub retries: usize,
    /// Faults observed/injected across all samples (final attempts plus
    /// the panics of failed ones).
    pub faults: FaultCounts,
    /// Windows whose counter source reported incomplete scheduling
    /// (some events never got counter time; their features are `NaN`).
    /// Always zero on the simulator source; on live hardware this is
    /// the multiplexing-starvation tally `perf stat` would print as
    /// `<not counted>`.
    pub starved_windows: usize,
}

impl CollectionReport {
    /// Fraction of the catalog that was quarantined.
    pub fn failure_rate(&self) -> f64 {
        if self.samples_total == 0 {
            0.0
        } else {
            self.quarantined.len() as f64 / self.samples_total as f64
        }
    }

    /// `true` when nothing was quarantined, retried, corrupted, or
    /// starved of counter time.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.retries == 0
            && self.faults.total() == 0
            && self.starved_windows == 0
    }
}

/// One collection run: the dataset plus the pipeline telemetry that
/// produced it.
///
/// This is what [`Collector::collect`] returns and what the
/// experiment-layer collect cache memoizes — dataset and report travel
/// together so degradation telemetry (quarantined samples, retries,
/// fault tallies) is never silently discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct Collection {
    /// The collected dataset, rows in catalog order.
    pub dataset: HpcDataset,
    /// Pipeline telemetry for the run that produced `dataset`.
    pub report: CollectionReport,
}

impl Collection {
    /// Split into `(dataset, report)` — the shape of the deprecated
    /// tuple-returning API.
    pub fn into_parts(self) -> (HpcDataset, CollectionReport) {
        (self.dataset, self.report)
    }
}

/// Message prefix of injected worker panics; the quiet panic hook keys
/// on it so genuine bugs still report normally.
const INJECTED_PANIC_PREFIX: &str = "injected worker fault";

/// Installs (once, process-wide) a panic hook that is silent for
/// injected worker faults and delegates to the previous hook for
/// everything else. Injected panics are expected control flow under
/// `catch_unwind`; their default backtraces would drown real
/// diagnostics in faulted collections.
fn install_quiet_injection_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Per-sample result of the resilient collection path.
struct SampleOutcome {
    rows: Vec<DataRow>,
    retries: usize,
    faults: FaultCounts,
    starved_windows: usize,
    quarantined: Option<SampleId>,
}

/// Runs the full collection pipeline over a [`SampleCatalog`]: every
/// sample is launched in its container, sampled for the configured
/// number of windows, and its windows appended as dataset rows.
///
/// Collection is fault-tolerant: a sample whose worker panics is
/// retried up to [`CollectorConfig::max_retries`] times and quarantined
/// (not fatal) if it keeps failing; the [`Collection`] returned by
/// [`Collector::collect`] carries the full telemetry.
///
/// # Examples
///
/// ```
/// use hbmd_malware::SampleCatalog;
/// use hbmd_perf::{Collector, CollectorConfig};
///
/// let catalog = SampleCatalog::scaled(0.01, 3);
/// let collector = Collector::new(CollectorConfig::fast()).expect("static config");
/// let collection = collector.collect(&catalog).expect("pristine pipeline");
/// assert_eq!(collection.dataset.len(), catalog.len() * 4);
/// assert!(collection.report.is_clean());
/// ```
#[derive(Debug, Clone)]
pub struct Collector {
    config: CollectorConfig,
}

impl Collector {
    /// Build a collector, validating the configuration and probing the
    /// selected counter backend.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] when the sampler configuration,
    /// fault plan, or failure threshold is invalid or `threads` is
    /// zero; [`PerfError::BackendUnavailable`] when the selected
    /// source cannot run on this host/build (callers can degrade to
    /// [`SourceSelect::Sim`] on that variant).
    pub fn new(config: CollectorConfig) -> Result<Collector, PerfError> {
        config.validate()?;
        config.source.probe()?;
        Ok(Collector { config })
    }

    /// The configuration this collector runs with.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// Collect the whole catalog into a [`Collection`]: the labelled
    /// dataset (rows in catalog order) together with the pipeline
    /// report — quarantined samples, retry spend, and fault tallies.
    ///
    /// Each sample is collected under `catch_unwind`; a panicking
    /// worker loses only that sample's attempt. Failed attempts are
    /// retried with deterministic exponential backoff, then the sample
    /// is quarantined. Rows come back in catalog order regardless of
    /// thread count, and fault injection is keyed on
    /// `(plan.seed, sample id, attempt)`, so the result is
    /// byte-identical across runs and thread counts.
    ///
    /// The run is observable: it opens a `collect` span (one
    /// `collect.sample` child per sample) and records exact
    /// `windows_collected`, `collect.*`, and `faults_injected{kind}`
    /// counters into the calling thread's [`hbmd_obs`] context, which
    /// its worker threads inherit.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::DegradedCollection`] when the quarantine
    /// rate exceeds [`CollectorConfig::failure_threshold`].
    pub fn collect(&self, catalog: &SampleCatalog) -> Result<Collection, PerfError> {
        let mut span = hbmd_obs::span!(
            "collect",
            samples = catalog.len(),
            threads = self.config.threads,
            faulted = self.config.fault.as_ref().is_some_and(|p| !p.is_none()),
        );
        if self
            .config
            .fault
            .as_ref()
            .is_some_and(|plan| plan.worker_panic > 0.0)
        {
            install_quiet_injection_hook();
        }
        let samples = catalog.samples();
        // Per-sample panics are caught inside collect_resilient, so a
        // worker panic reaching par_map is a harness bug, not a
        // collection fault.
        let outcomes = hbmd_obs::par::par_map(samples, self.config.threads, |_, s| {
            self.collect_resilient(s)
        });

        let mut report = CollectionReport {
            samples_total: samples.len(),
            rows: 0,
            quarantined: Vec::new(),
            retries: 0,
            faults: FaultCounts::default(),
            starved_windows: 0,
        };
        let mut rows = Vec::new();
        for outcome in outcomes {
            report.rows += outcome.rows.len();
            report.retries += outcome.retries;
            report.faults.merge(&outcome.faults);
            report.starved_windows += outcome.starved_windows;
            if let Some(id) = outcome.quarantined {
                report.quarantined.push(id);
            }
            rows.extend(outcome.rows);
        }

        record_report_metrics(&report, self.config.source);
        span.record("rows", report.rows);
        span.record("quarantined", report.quarantined.len());

        if report.failure_rate() > self.config.failure_threshold {
            hbmd_obs::incr("collect.degraded");
            return Err(PerfError::DegradedCollection {
                failed: report.quarantined.len(),
                total: report.samples_total,
                threshold: self.config.failure_threshold,
            });
        }
        Ok(Collection {
            dataset: rows.into_iter().collect(),
            report,
        })
    }

    /// Collect one sample's rows through the single-attempt path (no
    /// retry) — the building block the resilient path wraps.
    ///
    /// # Errors
    ///
    /// Propagates counter-source failures (e.g. [`PerfError::Backend`]
    /// when a live read fails); the simulator source never errors.
    pub fn collect_one(&self, sample: &Sample) -> Result<Vec<DataRow>, PerfError> {
        self.collect_attempt(sample, 0).map(|outcome| outcome.0)
    }

    /// One attempt: inject faults (if configured) keyed on the sample
    /// and attempt number, then read the sample's windows from the
    /// configured counter source and label them. Returns the attempt's
    /// fault tally and starved-window count alongside the rows.
    fn collect_attempt(
        &self,
        sample: &Sample,
        attempt: u32,
    ) -> Result<(Vec<DataRow>, FaultCounts, usize), PerfError> {
        let mut injector = self
            .config
            .fault
            .as_ref()
            .filter(|plan| !plan.is_none())
            .map(|plan| FaultInjector::for_sample(plan, sample.id(), attempt));
        if let Some(inj) = injector.as_mut() {
            if inj.rolls_worker_panic() {
                panic!("{INJECTED_PANIC_PREFIX} while collecting {:?}", sample.id());
            }
        }

        let sampler = Sampler::new(self.config.sampler.clone()).expect("validated");
        let class = match &self.config.labeler {
            Some(labeler) => labeler.label(sample).label,
            None => sample.class(),
        };
        let counter_windows = sampler.collect_windows(self.config.source, sample)?;
        let starved = counter_windows
            .iter()
            .filter(|w| !w.fully_scheduled())
            .count();
        let mut windows: Vec<_> = counter_windows.into_iter().map(|w| w.features).collect();
        let mut counts = FaultCounts::default();
        if let Some(inj) = injector.as_mut() {
            windows = inj.apply(windows);
            counts = *inj.counts();
        }
        let rows = windows
            .into_iter()
            .map(|features| DataRow {
                sample: sample.id(),
                class,
                features,
            })
            .collect();
        Ok((rows, counts, starved))
    }

    /// Attempt-with-retry loop for one sample; never panics. Opens a
    /// `collect.sample` span (parentless on `par_map` worker
    /// threads — the logical parent lives on the coordinating thread).
    fn collect_resilient(&self, sample: &Sample) -> SampleOutcome {
        let mut span = hbmd_obs::span!("collect.sample", sample = sample.id().0);
        let outcome = self.collect_resilient_inner(sample);
        span.record("rows", outcome.rows.len());
        span.record("retries", outcome.retries);
        span.record("quarantined", outcome.quarantined.is_some());
        outcome
    }

    fn collect_resilient_inner(&self, sample: &Sample) -> SampleOutcome {
        let attempts = self.config.max_retries + 1;
        let mut retries = 0;
        let mut faults = FaultCounts::default();
        for attempt in 0..attempts {
            if attempt > 0 {
                retries += 1;
                if self.config.retry_backoff_ms > 0 {
                    let backoff = self.config.retry_backoff_ms << (attempt - 1);
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| self.collect_attempt(sample, attempt)));
            match outcome {
                Ok(Ok((rows, attempt_faults, starved_windows))) => {
                    faults.merge(&attempt_faults);
                    return SampleOutcome {
                        rows,
                        retries,
                        faults,
                        starved_windows,
                        quarantined: None,
                    };
                }
                // A failing counter source (a live read/ioctl error)
                // is retried exactly like a panicking worker and feeds
                // the same quarantine machinery on exhaustion.
                Ok(Err(_backend_error)) => {
                    hbmd_obs::incr("collect.source_errors");
                }
                // A panicking attempt rolls the worker-panic fault
                // before touching the PMU, so its only fault IS the
                // panic; the injector's own tally dies with the stack.
                Err(_) => {
                    faults.worker_panics += 1;
                }
            }
        }
        SampleOutcome {
            rows: Vec::new(),
            retries,
            faults,
            starved_windows: 0,
            quarantined: Some(sample.id()),
        }
    }
}

/// Record one collection run's exact, deterministic-domain metrics into
/// the installed observability context. Every value derives from the
/// report (itself thread-count-independent), so the counters are too.
fn record_report_metrics(report: &CollectionReport, source: SourceSelect) {
    hbmd_obs::add("collect.samples", report.samples_total as u64);
    hbmd_obs::add("windows_collected", report.rows as u64);
    hbmd_obs::counter_with("collect.windows_by_source", &[("source", source.name())])
        .add(report.rows as u64);
    hbmd_obs::add("collect.retries", report.retries as u64);
    hbmd_obs::add("collect.quarantined", report.quarantined.len() as u64);
    hbmd_obs::add("collect.starved_windows", report.starved_windows as u64);
    for (kind, count) in report.faults.per_kind() {
        if count > 0 {
            hbmd_obs::counter_with("faults_injected", &[("kind", kind)]).add(count as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_malware::AppClass;

    /// Build + run a collector, panicking on any failure — the shape
    /// most tests want.
    fn collect(config: CollectorConfig, catalog: &SampleCatalog) -> Collection {
        Collector::new(config)
            .expect("valid config")
            .collect(catalog)
            .expect("collection under threshold")
    }

    #[test]
    fn collects_rows_for_every_sample() {
        let catalog = SampleCatalog::scaled(0.01, 5);
        let dataset = collect(CollectorConfig::fast(), &catalog).dataset;
        assert_eq!(dataset.len(), catalog.len() * 4);
        // Every class present.
        let counts = dataset.class_counts();
        for class in AppClass::ALL {
            assert!(counts[class.index()] > 0, "{class} missing");
        }
    }

    #[test]
    fn parallel_collection_matches_sequential() {
        let catalog = SampleCatalog::scaled(0.01, 5);
        let sequential = collect(CollectorConfig::fast(), &catalog);
        let parallel = collect(
            CollectorConfig {
                threads: 4,
                ..CollectorConfig::fast()
            },
            &catalog,
        );
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn labeler_can_introduce_label_noise() {
        let catalog = SampleCatalog::scaled(0.02, 5);
        let truth = collect(CollectorConfig::fast(), &catalog).dataset;
        let labelled = collect(
            CollectorConfig {
                labeler: Some(MultiEngineLabeler::new(10, 0.5, 0.05, 1)),
                ..CollectorConfig::fast()
            },
            &catalog,
        )
        .dataset;
        assert_eq!(truth.len(), labelled.len());
        let disagreements = truth
            .rows()
            .iter()
            .zip(labelled.rows())
            .filter(|(a, b)| a.class != b.class)
            .count();
        assert!(disagreements > 0, "a sloppy labeller should disagree");
    }

    #[test]
    fn new_rejects_bad_configs() {
        let mut config = CollectorConfig::fast();
        config.threads = 0;
        assert!(Collector::new(config).is_err());

        let mut config = CollectorConfig::fast();
        config.sampler.windows_per_sample = 0;
        assert!(Collector::new(config).is_err());

        let mut config = CollectorConfig::fast();
        config.failure_threshold = 1.5;
        assert!(Collector::new(config).is_err());

        let mut plan = FaultPlan::none();
        plan.drop_window = 2.0;
        let config = CollectorConfig::faulted(plan);
        assert!(Collector::new(config).is_err());
    }

    #[test]
    fn builder_matches_presets_and_validates() {
        let built = CollectorConfig::builder()
            .sampler(SamplerConfig::fast())
            .threads(1)
            .build()
            .expect("valid");
        assert_eq!(built, CollectorConfig::fast());

        let faulted = CollectorConfig::builder()
            .sampler(SamplerConfig::fast())
            .threads(1)
            .fault(FaultPlan::uniform(0.1, 21))
            .build()
            .expect("valid");
        assert_eq!(
            faulted,
            CollectorConfig::faulted(FaultPlan::uniform(0.1, 21))
        );

        assert!(CollectorConfig::builder().threads(0).build().is_err());
        assert!(CollectorConfig::builder()
            .windows_per_sample(0)
            .build()
            .is_err());
        assert!(CollectorConfig::builder()
            .failure_threshold(2.0)
            .build()
            .is_err());
        let scaled = CollectorConfig::builder()
            .windows_per_sample(7)
            .instructions_per_window(9_000)
            .build()
            .expect("valid");
        assert_eq!(scaled.sampler.windows_per_sample, 7);
        assert_eq!(scaled.sampler.instructions_per_window, 9_000);
    }

    #[test]
    fn collect_one_returns_rows_fallibly() {
        use hbmd_malware::SampleId;
        let collector = Collector::new(CollectorConfig::fast()).expect("valid config");
        let sample = Sample::generate(SampleId(3), AppClass::Virus, 5);
        let rows = collector.collect_one(&sample).expect("sim never fails");
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.sample == sample.id()));
    }

    #[test]
    fn explicit_sim_source_matches_the_default() {
        let catalog = SampleCatalog::scaled(0.01, 5);
        let default = collect(CollectorConfig::fast(), &catalog);
        let explicit = collect(
            CollectorConfig::builder()
                .sampler(SamplerConfig::fast())
                .threads(1)
                .source(crate::SourceSelect::Sim)
                .build()
                .expect("valid"),
            &catalog,
        );
        assert_eq!(default, explicit);
        assert_eq!(default.report.starved_windows, 0);
    }

    #[cfg(not(feature = "perf-backend"))]
    #[test]
    fn perf_source_without_the_feature_is_typed_unavailable() {
        let config = CollectorConfig {
            source: crate::SourceSelect::Perf,
            ..CollectorConfig::fast()
        };
        match Collector::new(config) {
            Err(PerfError::BackendUnavailable { reason }) => {
                assert!(reason.contains("perf-backend"), "{reason}");
            }
            other => panic!("expected BackendUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn different_classes_produce_separable_rows() {
        // The whole premise of the paper: class signatures must be
        // visible in the collected features. Check the class-mean
        // store counts differ strongly between worm and backdoor.
        use hbmd_events::HpcEvent;
        let catalog =
            SampleCatalog::with_counts(&[(AppClass::Worm, 6), (AppClass::Backdoor, 6)], 11);
        let dataset = collect(CollectorConfig::fast(), &catalog).dataset;
        let mean = |class: AppClass| {
            let rows: Vec<f64> = dataset
                .of_class(class)
                .map(|r| r.features[HpcEvent::L1DcacheStores])
                .collect();
            rows.iter().sum::<f64>() / rows.len() as f64
        };
        let worm = mean(AppClass::Worm);
        let backdoor = mean(AppClass::Backdoor);
        assert!(
            worm > 2.0 * backdoor,
            "worm stores {worm} vs backdoor {backdoor}"
        );
    }

    #[test]
    fn clean_collection_reports_clean() {
        let catalog = SampleCatalog::scaled(0.01, 5);
        let Collection { dataset, report } = collect(CollectorConfig::fast(), &catalog);
        assert_eq!(report.rows, dataset.len());
        assert_eq!(report.samples_total, catalog.len());
        assert!(report.is_clean());
        assert_eq!(report.failure_rate(), 0.0);
    }

    #[test]
    fn faulted_collection_completes_and_reports() {
        let catalog = SampleCatalog::scaled(0.02, 5);
        let plan = FaultPlan::uniform(0.1, 21);
        let Collection { dataset, report } = collect(CollectorConfig::faulted(plan), &catalog);
        assert!(!dataset.is_empty());
        assert!(report.faults.total() > 0, "faults should have fired");
        // Quarantined samples contributed no rows.
        for id in &report.quarantined {
            assert!(dataset.rows().iter().all(|r| r.sample != *id));
        }
    }

    #[test]
    fn worker_panics_are_retried_not_fatal() {
        let catalog = SampleCatalog::scaled(0.02, 5);
        // Panic-prone but retried: each attempt re-rolls, so most
        // samples survive within 3 attempts.
        let plan = FaultPlan::panics_only(0.3, 13);
        let Collection { dataset, report } = collect(
            CollectorConfig {
                threads: 4,
                ..CollectorConfig::faulted(plan)
            },
            &catalog,
        );
        assert!(report.faults.worker_panics > 0, "panics should have fired");
        assert!(report.retries > 0, "panicked samples should be retried");
        assert!(!dataset.is_empty());
        assert!(report.failure_rate() < 0.5);
    }

    #[test]
    fn faulted_collection_is_deterministic_across_thread_counts() {
        let catalog = SampleCatalog::scaled(0.02, 5);
        let plan = FaultPlan::uniform(0.15, 77);
        let run = |threads: usize| {
            collect(
                CollectorConfig {
                    threads,
                    ..CollectorConfig::faulted(plan.clone())
                },
                &catalog,
            )
        };
        let sequential = run(1);
        let parallel = run(4);
        // Debug-compare the datasets: starved readings are NaN, and
        // NaN != NaN under `PartialEq` (f64 Debug round-trips bits).
        assert_eq!(
            format!("{:?}", sequential.dataset),
            format!("{:?}", parallel.dataset)
        );
        assert_eq!(sequential.report, parallel.report);
    }

    #[test]
    fn hopeless_collection_degrades_with_typed_error() {
        let catalog = SampleCatalog::scaled(0.01, 5);
        let plan = FaultPlan::panics_only(1.0, 3); // every attempt dies
        let result = Collector::new(CollectorConfig::faulted(plan))
            .expect("valid config")
            .collect(&catalog);
        match result {
            Err(PerfError::DegradedCollection { failed, total, .. }) => {
                assert_eq!(failed, total);
            }
            other => panic!("expected DegradedCollection, got {other:?}"),
        }
    }
}
