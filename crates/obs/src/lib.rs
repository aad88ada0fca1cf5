//! Observability substrate for the hbmd suite: hierarchical spans,
//! deterministic metrics, pluggable sinks, and run manifests.
//!
//! The DAC'17 detector is meant to run *continuously* on live HPC
//! streams; attributing a result to an exact configuration — which
//! events, windows, classifiers, and how long each phase took —
//! requires more than ad-hoc `eprintln!`. `hbmd-obs` provides that
//! visibility without disturbing the suite's determinism contract:
//!
//! * [`span!`] — hierarchical spans with monotonic timings
//!   (`span!("collect", samples = 42)`), nested through a thread-local
//!   stack and emitted to sinks on drop,
//! * [`metrics::Registry`] — typed [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s that aggregate with atomic integer arithmetic into
//!   per-thread stripes, so recording takes no shared lock and totals
//!   are **exact and thread-count-independent** no matter how
//!   [`par::par_map`] shards the work. Exact histograms report exact rank
//!   percentiles; wall-clock (latency) histograms use fixed log-linear
//!   buckets, so their memory is bounded and their percentiles are
//!   within [`WALL_CLOCK_RELATIVE_ERROR`](metrics::WALL_CLOCK_RELATIVE_ERROR)
//!   (1/64, about 1.6 %) of the exact ones,
//! * [`sink::SpanSink`] — pluggable span consumers: none installed (the
//!   default, near-zero overhead), [`MemorySink`] for tests,
//!   [`JsonlSink`] for machine-readable event logs,
//! * [`manifest::RunManifest`] — a run's identity card: config digests,
//!   seeds, thread counts and crate versions, with wall-clock fields
//!   segregated so byte-identical-output tests can mask them,
//! * [`prom`] — Prometheus text-format (0.0.4) exposition over a
//!   metrics snapshot, and [`serve`] — a std-only HTTP server putting
//!   `/metrics`, `/healthz` and `/manifest` on a TCP port for
//!   long-running monitors,
//! * [`trace`] — post-hoc analysis of `JsonlSink` logs: span-tree
//!   reconstruction, per-span self time, aggregate-by-name tables,
//!   critical paths, and flamegraph collapsed-stack export,
//! * [`recorder`] — an always-on per-shard flight recorder
//!   ([`recorder::FlightRecorder`]): a lock-free fixed-capacity ring
//!   of compact window/health/fault events, drained into atomic
//!   FNV-checksummed diagnostic bundles by a [`recorder::RecorderHub`]
//!   when an anomaly (breaker trip, alarm latch, restart-budget
//!   exhaustion, snapshot refusal, `/debug/bundle`) triggers,
//! * [`par`] — the suite's one fan-out: a deterministic,
//!   order-preserving parallel map whose workers report into the
//!   caller's context.
//!
//! # Determinism contract
//!
//! Counters and exact histograms record integer quantities derived only
//! from the workload (windows collected, faults injected, verdicts), so
//! their totals are identical at any thread count. Wall-clock data —
//! span durations and histograms registered via
//! [`timing`](metrics::Registry::timing) — is segregated:
//! [`MetricsSnapshot::deterministic`](metrics::MetricsSnapshot::deterministic)
//! strips it, leaving a fingerprint that byte-compares across runs and
//! thread counts.
//!
//! # Installing a context
//!
//! Instrumented code reports into the calling thread's [`Obs`]
//! context. [`install`] sets it and returns a guard that restores the
//! thread's previous context on drop, so installs nest and two threads
//! that each install never count into each other's registry. A thread
//! with nothing installed reports into one process default (a live
//! [`Registry`], no sinks) that is never swapped. [`par::par_map`]
//! workers and threads started with [`spawn`] inherit their spawner's
//! context; a plain [`std::thread::spawn`] starts in the default.
//!
//! # Examples
//!
//! ```
//! use hbmd_obs::{install, sink::MemorySink, span, Obs};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let obs = Obs::new().with_sink(sink.clone());
//! let guard = install(obs);
//!
//! {
//!     let _outer = span!("collect", samples = 3);
//!     let _inner = span!("collect.sample", sample = 0);
//!     hbmd_obs::add("windows_collected", 3);
//! }
//!
//! let spans = sink.records();
//! assert_eq!(spans.len(), 2);
//! // Inner spans close first and carry their parent's id.
//! assert_eq!(spans[0].name, "collect.sample");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! assert_eq!(guard.registry().snapshot().counter("windows_collected"), 3);
//! # drop(guard);
//! ```

pub mod health;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod par;
pub mod prom;
pub mod recorder;
pub mod serve;
pub mod sink;
pub mod span;
pub mod trace;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

pub use metrics::{
    Counter, Gauge, Histogram, MetricsSnapshot, Registry, SampleSchedule, SAMPLE_EVERY,
};
pub use sink::{JsonlSink, MemorySink, SpanSink};
pub use span::{SpanGuard, SpanRecord};

/// An observability context: one metrics [`Registry`] plus the span
/// sinks events are dispatched to.
#[derive(Clone)]
pub struct Obs {
    registry: Arc<Registry>,
    sinks: Vec<Arc<dyn SpanSink>>,
}

impl Obs {
    /// A fresh context: empty registry, no sinks.
    pub fn new() -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            sinks: Vec::new(),
        }
    }

    /// Attach a span sink (builder-style; a context can fan out to
    /// several).
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn SpanSink>) -> Obs {
        self.sinks.push(sink);
        self
    }

    /// The context's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// `true` when at least one span sink is attached.
    pub fn has_sinks(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Flush every attached sink (buffered sinks write through).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error any sink reports.
    pub fn flush(&self) -> std::io::Result<()> {
        for sink in &self.sinks {
            sink.flush()?;
        }
        Ok(())
    }

    fn dispatch(&self, record: &SpanRecord) {
        for sink in &self.sinks {
            sink.record(record);
        }
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

/// The context of every thread with nothing installed. It is built
/// once and never swapped.
fn process_default() -> &'static Arc<Obs> {
    static DEFAULT: OnceLock<Arc<Obs>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(Obs::new()))
}

thread_local! {
    /// This thread's installed context; `None` reports into the
    /// process default.
    static CURRENT: RefCell<Option<Arc<Obs>>> = const { RefCell::new(None) };
}

/// The context instrumented code on the calling thread reports into:
/// the one most recently [installed](install) on this thread, else the
/// process default.
pub fn current() -> Arc<Obs> {
    CURRENT
        .try_with(|cell| cell.borrow().clone())
        .ok()
        .flatten()
        .unwrap_or_else(|| Arc::clone(process_default()))
}

/// Guard returned by [`install`]; dropping it restores the context the
/// calling thread had before. It is neither `Send` nor `Sync`: it
/// restores a slot that belongs to the thread that installed it.
#[must_use = "dropping the guard immediately would uninstall the context"]
pub struct ObsGuard {
    installed: Arc<Obs>,
    previous: Option<Arc<Obs>>,
    _thread_bound: PhantomData<*const ()>,
}

impl ObsGuard {
    /// The context this guard installed.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.installed
    }

    /// The installed context's registry — shorthand for test
    /// assertions.
    pub fn registry(&self) -> &Arc<Registry> {
        self.installed.registry()
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        // During thread teardown the slot may already be gone, and then
        // there is nothing left to restore.
        let _ = CURRENT.try_with(|cell| *cell.borrow_mut() = previous);
    }
}

impl std::fmt::Debug for ObsGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsGuard").finish_non_exhaustive()
    }
}

/// Install `obs` as the calling thread's context, returning a guard
/// that restores the thread's previous context on drop.
///
/// Other threads are unaffected: a thread with nothing installed keeps
/// reporting into the process default. Installs nest; drop the guards
/// in reverse order. Threads spawned through [`spawn`] or
/// [`par::par_map`] inherit the spawner's context.
pub fn install(obs: impl Into<Arc<Obs>>) -> ObsGuard {
    let installed = obs.into();
    let previous = CURRENT.with(|cell| cell.replace(Some(Arc::clone(&installed))));
    ObsGuard {
        installed,
        previous,
        _thread_bound: PhantomData,
    }
}

/// Spawn a named thread that runs `f` under the caller's context.
///
/// # Errors
///
/// Returns the OS error when the thread cannot be created.
pub fn spawn<F, T>(name: impl Into<String>, f: F) -> std::io::Result<JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let obs = current();
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let _context = install(obs);
            f()
        })
}

/// `true` when the current context has at least one span sink.
pub fn has_sinks() -> bool {
    current().has_sinks()
}

pub(crate) fn dispatch(record: &SpanRecord) {
    current().dispatch(record);
}

/// Handle to the named counter in the current context's registry.
pub fn counter(name: &str) -> Arc<Counter> {
    current().registry.counter(name)
}

/// Handle to the named, labelled counter in the current context.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    current().registry.counter_with(name, labels)
}

/// Add `n` to the named counter in the current context.
pub fn add(name: &str, n: u64) {
    counter(name).add(n);
}

/// Add one to the named counter in the current context.
pub fn incr(name: &str) {
    counter(name).add(1);
}

/// Set the named gauge in the current context.
pub fn gauge_set(name: &str, value: i64) {
    current().registry.gauge(name).set(value);
}

/// Record one exact (deterministic-domain) observation into the named
/// histogram of the current context.
pub fn observe(name: &str, value: u64) {
    current().registry.histogram(name).record(value);
}

/// Start a wall-clock timer that records its elapsed nanoseconds into
/// the named timing histogram when dropped (or [stopped](Timer::stop)).
///
/// Each call looks the histogram up by name. A hot path resolves it
/// once with [`Registry::timing`] and times against the handle with
/// [`Histogram::record_since`].
pub fn timer(name: &str) -> Timer {
    Timer {
        histogram: current().registry.timing(name),
        started: std::time::Instant::now(),
        armed: true,
    }
}

/// [`timer`] with metric labels (e.g. `("scheme", "J48")`).
pub fn timer_with(name: &str, labels: &[(&str, &str)]) -> Timer {
    Timer {
        histogram: current().registry.timing_with(name, labels),
        started: std::time::Instant::now(),
        armed: true,
    }
}

/// A live wall-clock measurement; see [`timer`].
#[derive(Debug)]
pub struct Timer {
    histogram: Arc<Histogram>,
    started: std::time::Instant,
    armed: bool,
}

impl Timer {
    /// Record the elapsed time now instead of at drop.
    pub fn stop(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.armed {
            self.armed = false;
            self.histogram.record_since(self.started);
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.record();
    }
}

/// Open a hierarchical span: `span!("name")` or
/// `span!("name", key = value, other = value)`.
///
/// Expands to a [`SpanGuard`] that must be bound
/// (`let _span = span!(...);`) — the span closes, and is emitted to the
/// installed sinks, when the guard drops. Field values may be integers,
/// floats, booleans, or anything `Into<String>`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span::enter(
            $name,
            ::std::vec![$((stringify!($key), $crate::span::FieldValue::from($value))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_counts_without_sinks() {
        let guard = install(Obs::new());
        assert!(!has_sinks());
        incr("lib.test.counter");
        add("lib.test.counter", 4);
        assert_eq!(guard.registry().snapshot().counter("lib.test.counter"), 5);
        drop(guard);
    }

    #[test]
    fn install_restores_previous_context() {
        let outer = install(Obs::new());
        incr("lib.outer");
        drop(outer);
        let second = install(Obs::new());
        assert_eq!(second.registry().snapshot().counter("lib.outer"), 0);
        drop(second);
    }

    #[test]
    fn timer_records_into_wall_clock_histogram() {
        let guard = install(Obs::new());
        {
            let _t = timer("lib.test.latency_ns");
        }
        let snapshot = guard.registry().snapshot();
        let histogram = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "lib.test.latency_ns")
            .expect("timer histogram");
        assert!(histogram.wall_clock);
        assert_eq!(histogram.count, 1);
        // Wall-clock data is stripped from the deterministic view.
        assert!(snapshot
            .deterministic()
            .histograms
            .iter()
            .all(|h| h.name != "lib.test.latency_ns"));
        drop(guard);
    }
}
