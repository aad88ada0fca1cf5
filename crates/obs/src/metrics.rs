//! Typed metrics: counters, gauges, and histograms in a thread-safe
//! [`Registry`].
//!
//! All aggregation is atomic **integer** arithmetic — adds commute, so
//! a total is exact and identical no matter how many `par_map` workers
//! contributed or in what order they ran.
//!
//! Recording never takes a registry-wide lock. Counters and histograms
//! keep one cache-line-padded stripe per available CPU (rounded up to a
//! power of two); a thread picks its stripe once, from a `const`
//! thread-local, and `get`/snapshot sum the stripes. Concurrent
//! recorders therefore write their own cache lines instead of bouncing
//! one between cores.
//!
//! There are two kinds of histogram:
//!
//! * **Exact** histograms ([`Registry::histogram`]) hold the full value
//!   multiset, so their percentiles are exact rank statistics. Values
//!   below 128 are counted in a dense per-stripe array, so recording one
//!   is a single relaxed atomic add; larger ones go to a locked value →
//!   count map. The multiset is all they keep: a snapshot derives the
//!   count, sum, minimum and maximum from it, so they always agree with
//!   its buckets, even mid-recording.
//! * **Wall-clock** histograms ([`Registry::timing`]) hold latencies,
//!   which are almost all distinct, so a multiset would grow without
//!   bound. They count into fixed HDR-style log-linear buckets instead
//!   (each power of two split into 32), and their percentiles are the
//!   midpoint of the bucket holding the rank — within
//!   [`WALL_CLOCK_RELATIVE_ERROR`] (1/64, about 1.6 %) of the exact
//!   rank statistic. Each stripe also keeps its exact count, sum,
//!   minimum and maximum. Memory is fixed: one bucket array per stripe,
//!   allocated on that stripe's first record. They also carry a
//!   `wall_clock` marker so [`MetricsSnapshot::deterministic`] can
//!   strip them from byte-comparison fingerprints.
//!
//! Both kinds derive the power-of-two bit-length buckets of the
//! Prometheus exposition exactly, since every log-linear bucket lies
//! within one power of two.
//!
//! A hot path can time a sample of its calls instead of every one:
//! [`Histogram::sampled_start`] reads the clock on about one call in
//! [`SAMPLE_EVERY`] per thread, following a fixed [`SampleSchedule`].

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::json;

/// Number of power-of-two histogram buckets (bit lengths 0..=64).
const BUCKETS: usize = 65;

/// Exact histograms count values below this in a dense per-stripe
/// array; values at or above it go to the histogram's locked map.
const DENSE: u64 = 128;

/// Log2 of the log-linear sub-buckets per power of two.
const SUB_BITS: u32 = 5;

/// Wall-clock buckets: one per value below `2^SUB_BITS`, then
/// `2^SUB_BITS` per power of two up to `2^64`.
const LOG_LINEAR_BUCKETS: usize = (65 - SUB_BITS as usize) << SUB_BITS;

/// Largest relative error of a wall-clock percentile against the exact
/// rank statistic: the reported bucket midpoint is at most half a
/// bucket width, `2^-(SUB_BITS + 1)` of the bucket's lower bound, from
/// any value in that bucket. Values below 32 are exact.
pub const WALL_CLOCK_RELATIVE_ERROR: f64 = 1.0 / (2u64 << SUB_BITS) as f64;

/// Most stripes a metric keeps, whatever the CPU count.
const MAX_STRIPES: usize = 64;

/// Stripes per metric: the available parallelism rounded up to a power
/// of two, so the stripe index is a mask.
fn stripe_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .next_power_of_two()
            .min(MAX_STRIPES)
    })
}

/// This thread's stripe in `stripes` (whose length is a power of two).
/// Threads are numbered in the order they first record, so threads that
/// run at the same time land on different stripes until there are more
/// of them than stripes.
fn stripe_of<T>(stripes: &[T]) -> &T {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    let slot = SLOT.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT.fetch_add(1, Ordering::Relaxed) % MAX_STRIPES);
        }
        slot.get()
    });
    &stripes[slot & (stripes.len() - 1)]
}

/// Calls to [`Histogram::sampled_start`] per timed one, on average, on
/// each thread.
pub const SAMPLE_EVERY: u32 = 16;

/// Seed of every thread's [`SampleSchedule`].
const SAMPLE_SEED: u64 = 0x5A3D_1E0F_C0FF_EE16;

/// SplitMix64's output mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sequence of timed (`true`) and untimed calls that
/// [`Histogram::sampled_start`] follows on every thread.
///
/// The first call is timed. After each timed call, the gap to the next
/// one is drawn uniformly from `1..=2 * SAMPLE_EVERY - 1` (mean
/// [`SAMPLE_EVERY`]) by a SplitMix64 generator with a fixed seed, so
/// which of a fresh thread's calls are timed depends only on how many
/// it has made. The gap is not fixed because a fixed period aliases
/// with round-robin serving: a thread serving 1,000 streams in turn and
/// timing every 16th window would time only streams ≡ 0 or 8 (mod 16).
#[derive(Debug, Clone, Copy)]
pub struct SampleSchedule {
    /// Untimed calls left before the next timed one.
    left: u32,
    /// SplitMix64 state.
    state: u64,
}

impl SampleSchedule {
    /// The schedule of a thread that has made no call yet.
    pub const fn new() -> SampleSchedule {
        SampleSchedule {
            left: 0,
            state: SAMPLE_SEED,
        }
    }

    /// Advance by one call; `true` when that call is timed.
    fn advance(&mut self) -> bool {
        if self.left > 0 {
            self.left -= 1;
            return false;
        }
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let gap = 1 + splitmix64(self.state) % u64::from(2 * SAMPLE_EVERY - 1);
        self.left = gap as u32 - 1;
        true
    }
}

impl Default for SampleSchedule {
    fn default() -> SampleSchedule {
        SampleSchedule::new()
    }
}

impl Iterator for SampleSchedule {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        Some(self.advance())
    }
}

thread_local! {
    /// This thread's place in its [`SampleSchedule`], shared by every
    /// histogram it samples into.
    static SCHEDULE: Cell<SampleSchedule> = const { Cell::new(SampleSchedule::new()) };
}

/// Aligns its content to its own pair of cache lines (adjacent-line
/// prefetch pairs 64-byte lines), so stripes never share one.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    stripes: Box<[Padded<AtomicU64>]>,
}

impl Default for Counter {
    fn default() -> Counter {
        Counter {
            stripes: (0..stripe_count()).map(|_| Padded::default()).collect(),
        }
    }
}

impl Counter {
    /// Add `n` occurrences.
    pub fn add(&self, n: u64) {
        stripe_of(&self.stripes).0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one occurrence.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.stripes.iter().fold(0, |total, s| {
            total.wrapping_add(s.0.load(Ordering::Relaxed))
        })
    }
}

/// A last-write-wins instantaneous value (thread counts, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Record the current value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// The last recorded value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The log-linear bucket of `value`: the value itself below
/// `2^SUB_BITS`, otherwise its power of two and its top `SUB_BITS`
/// bits below the leading one.
fn log_linear_index(value: u64) -> usize {
    if value < 1 << SUB_BITS {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    ((shift as usize) << SUB_BITS) + (value >> shift) as usize
}

/// The value a wall-clock percentile reports for bucket `index`: the
/// midpoint of the values that land in it.
fn log_linear_midpoint(index: usize) -> u64 {
    let octave = index >> SUB_BITS;
    if octave == 0 {
        return index as u64;
    }
    let shift = octave - 1;
    let low = ((1u64 << SUB_BITS) | (index as u64 & ((1 << SUB_BITS) - 1))) << shift;
    low + ((1u64 << shift) - 1) / 2
}

/// One recorder's share of a [`Histogram`]. `count`, `sum`, `min` and
/// `max` are kept for wall-clock histograms only; an exact histogram
/// derives them from its buckets.
#[derive(Debug)]
#[repr(align(128))]
struct Stripe {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Counts by dense value (exact) or log-linear bucket (wall-clock),
    /// allocated on the stripe's first record.
    buckets: OnceLock<Box<[AtomicU64]>>,
}

impl Default for Stripe {
    fn default() -> Stripe {
        Stripe {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: OnceLock::new(),
        }
    }
}

/// A distribution of unsigned integer observations, recorded into
/// per-thread stripes and merged at snapshot time.
///
/// Exact histograms keep the full value multiset and nothing else (a
/// dense count array per stripe for small values, one locked map for
/// the rest): recording a value below 128 is one relaxed atomic add,
/// and a snapshot derives the count, sum, minimum and maximum from the
/// merged multiset, so they always match its buckets. Counts, sums and
/// **percentiles are exact** and independent of recording order and
/// thread interleaving. Wall-clock histograms keep fixed log-linear
/// buckets plus a per-stripe count, sum, minimum and maximum: those and
/// the power-of-two buckets are exact, percentiles are within
/// [`WALL_CLOCK_RELATIVE_ERROR`], and memory does not grow with the
/// number of distinct values recorded.
#[derive(Debug)]
pub struct Histogram {
    wall_clock: bool,
    stripes: Box<[Stripe]>,
    /// Exact histograms only: value → occurrences for values at or
    /// above [`DENSE`].
    overflow: Mutex<BTreeMap<u64, u64>>,
}

impl Histogram {
    fn new(wall_clock: bool) -> Histogram {
        Histogram {
            wall_clock,
            stripes: (0..stripe_count()).map(|_| Stripe::default()).collect(),
            overflow: Mutex::new(BTreeMap::new()),
        }
    }

    fn bucket_len(&self) -> usize {
        if self.wall_clock {
            LOG_LINEAR_BUCKETS
        } else {
            DENSE as usize
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let stripe = stripe_of(&self.stripes);
        if !self.wall_clock {
            if value < DENSE {
                self.buckets(stripe)[value as usize].fetch_add(1, Ordering::Relaxed);
            } else {
                *self
                    .overflow
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(value)
                    .or_insert(0) += 1;
            }
            return;
        }
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(value, Ordering::Relaxed);
        if value < stripe.min.load(Ordering::Relaxed) {
            stripe.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > stripe.max.load(Ordering::Relaxed) {
            stripe.max.fetch_max(value, Ordering::Relaxed);
        }
        self.buckets(stripe)[log_linear_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// `stripe`'s bucket array, allocated on its first record.
    fn buckets<'a>(&self, stripe: &'a Stripe) -> &'a [AtomicU64] {
        stripe
            .buckets
            .get_or_init(|| (0..self.bucket_len()).map(|_| AtomicU64::new(0)).collect())
    }

    /// Record the nanoseconds elapsed since `started`.
    pub fn record_since(&self, started: Instant) {
        let nanos = started.elapsed().as_nanos();
        self.record(u64::try_from(nanos).unwrap_or(u64::MAX));
    }

    /// The current time on about one call in [`SAMPLE_EVERY`] on this
    /// thread, following its [`SampleSchedule`], and `None` on the
    /// rest: a hot path times the calls this returns `Some` for, with
    /// [`record_since`](Self::record_since), and skips the clock on the
    /// others. The histogram then holds a sample of the calls, not all
    /// of them, so its count is not a call count.
    pub fn sampled_start(&self) -> Option<Instant> {
        let timed = SCHEDULE.with(|cell| {
            let mut schedule = cell.get();
            let timed = schedule.advance();
            cell.set(schedule);
            timed
        });
        timed.then(Instant::now)
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        if self.wall_clock {
            self.stripes
                .iter()
                .map(|s| s.count.load(Ordering::Relaxed))
                .sum()
        } else {
            self.exact_values().iter().map(|&(_, n)| n).sum()
        }
    }

    /// Heap bytes held for recorded values: the allocated stripe bucket
    /// arrays plus the exact histogram's overflow entries.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let arrays = self.stripes.iter().filter(|s| s.buckets.get().is_some());
        arrays.count() * self.bucket_len() * std::mem::size_of::<AtomicU64>()
            + self
                .overflow
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
                * std::mem::size_of::<(u64, u64)>()
    }

    /// An exact histogram's multiset: (value, occurrences) in ascending
    /// value order.
    fn exact_values(&self) -> Vec<(u64, u64)> {
        let mut merged = [0u64; DENSE as usize];
        for buckets in self.stripes.iter().filter_map(|s| s.buckets.get()) {
            for (total, bucket) in merged.iter_mut().zip(buckets.iter()) {
                *total += bucket.load(Ordering::Relaxed);
            }
        }
        let mut values: Vec<(u64, u64)> = (0..).zip(merged).filter(|&(_, n)| n > 0).collect();
        let overflow = self.overflow.lock().unwrap_or_else(PoisonError::into_inner);
        values.extend(overflow.iter().map(|(&v, &n)| (v, n)));
        values
    }

    /// A wall-clock histogram's stripe-kept count, sum, minimum and
    /// maximum (`u64::MAX` when empty), and its non-empty log-linear
    /// buckets as (midpoint kept inside the observed range, occurrences)
    /// in ascending order.
    fn wall_clock_values(&self) -> (u64, u64, u64, u64, Vec<(u64, u64)>) {
        let (mut count, mut sum, mut min, mut max) = (0u64, 0u64, u64::MAX, 0u64);
        for stripe in self.stripes.iter() {
            count += stripe.count.load(Ordering::Relaxed);
            sum = sum.wrapping_add(stripe.sum.load(Ordering::Relaxed));
            min = min.min(stripe.min.load(Ordering::Relaxed));
            max = max.max(stripe.max.load(Ordering::Relaxed));
        }
        // Only the buckets between the extremes can be non-empty: merge
        // just those, so a scrape costs the spread of the data, not the
        // size of the layout.
        let (low, high) = (log_linear_index(min.min(max)), log_linear_index(max));
        let mut merged = vec![0u64; high + 1 - low];
        for buckets in self.stripes.iter().filter_map(|s| s.buckets.get()) {
            for (total, bucket) in merged.iter_mut().zip(&buckets[low..=high]) {
                *total += bucket.load(Ordering::Relaxed);
            }
        }
        let values = merged
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(offset, &n)| {
                let midpoint = log_linear_midpoint(low + offset);
                (midpoint.clamp(min.min(max), max), n)
            })
            .collect();
        (count, sum, min, max, values)
    }

    fn snapshot(&self, name: &str, labels: &[(String, String)]) -> HistogramSnapshot {
        // (value, occurrences) in ascending value order: the multiset
        // itself for exact histograms, bucket midpoints for wall-clock
        // ones.
        let (count, sum, min, max, values) = if self.wall_clock {
            self.wall_clock_values()
        } else {
            let values = self.exact_values();
            let count = values.iter().map(|&(_, n)| n).sum();
            let sum = values
                .iter()
                .fold(0u64, |sum, &(v, n)| sum.wrapping_add(v.wrapping_mul(n)));
            let min = values.first().map_or(0, |&(v, _)| v);
            let max = values.last().map_or(0, |&(v, _)| v);
            (count, sum, min, max, values)
        };
        // A wall-clock count is read apart from the buckets, so values
        // recorded meanwhile can set it off from their total; quantiles
        // rank against the merged total, so the percentiles stay
        // internally consistent.
        let total: u64 = values.iter().map(|&(_, n)| n).sum();
        // Percentile by rank: the smallest value whose cumulative count
        // reaches ceil(total * q). No interpolation — for exact
        // histograms the returned number was actually observed.
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = (((total as f64) * q).ceil()).clamp(1.0, total as f64) as u64;
            let mut seen = 0u64;
            for &(value, n) in &values {
                seen += n;
                if seen >= rank {
                    return value;
                }
            }
            values.last().map_or(0, |&(v, _)| v)
        };
        let mut buckets = vec![0u64; BUCKETS];
        for &(value, n) in &values {
            buckets[(u64::BITS - value.leading_zeros()) as usize] += n;
        }
        HistogramSnapshot {
            name: name.to_owned(),
            labels: labels.to_vec(),
            wall_clock: self.wall_clock,
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            p999: quantile(0.999),
            buckets,
        }
    }
}

type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    (
        name.to_owned(),
        labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect(),
    )
}

/// A thread-safe collection of named, optionally labelled metrics.
///
/// Handles returned by the accessors are `Arc`s; hot paths may cache
/// them to skip the registry lookup. Iteration order in snapshots is
/// the key order (`BTreeMap`), so renderings are stable.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<Key, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Key, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The named counter (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The named, labelled counter (created on first use).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key(name, labels))
                .or_default(),
        )
    }

    /// The named gauge (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The named, labelled gauge (created on first use).
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key(name, labels))
                .or_default(),
        )
    }

    /// The named exact (deterministic-domain) histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_inner(name, &[], false)
    }

    /// The named wall-clock histogram (latencies; excluded from
    /// deterministic fingerprints).
    pub fn timing(&self, name: &str) -> Arc<Histogram> {
        self.histogram_inner(name, &[], true)
    }

    /// The named, labelled wall-clock histogram.
    pub fn timing_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_inner(name, labels, true)
    }

    fn histogram_inner(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        wall_clock: bool,
    ) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key(name, labels))
                .or_insert_with(|| Arc::new(Histogram::new(wall_clock))),
        )
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|((name, labels), c)| CounterSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|((name, labels), g)| GaugeSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|((name, labels), h)| h.snapshot(name, labels))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter's state in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Metric labels, in registration order.
    pub labels: Vec<(String, String)>,
    /// Total at snapshot time.
    pub value: u64,
}

/// One gauge's state in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Metric labels, in registration order.
    pub labels: Vec<(String, String)>,
    /// Last recorded value.
    pub value: i64,
}

/// One histogram's state in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Metric labels, in registration order.
    pub labels: Vec<(String, String)>,
    /// `true` for wall-clock (latency) data.
    pub wall_clock: bool,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median by rank: exact over the recorded multiset for exact
    /// histograms, within [`WALL_CLOCK_RELATIVE_ERROR`] of it for
    /// wall-clock ones.
    pub p50: u64,
    /// 95th percentile, exact as [`p50`](Self::p50) is.
    pub p95: u64,
    /// 99th percentile, exact as [`p50`](Self::p50) is.
    pub p99: u64,
    /// 99.9th percentile, exact as [`p50`](Self::p50) is — fleet tail
    /// latency is invisible at p99 with thousands of streams.
    pub p999: u64,
    /// Power-of-two bucket counts by bit length (65 entries), feeding
    /// the Prometheus `_bucket` series.
    pub buckets: Vec<u64>,
}

/// A point-in-time copy of a [`Registry`], renderable as JSON or a
/// summary table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters, in stable key order.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, in stable key order.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, in stable key order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sum of every counter with this name, across all label sets
    /// (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The last recorded value of the named, unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels.is_empty())
            .map(|g| g.value)
    }

    /// The named histogram with exactly these labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && eq_labels(&h.labels, labels))
    }

    /// The deterministic subset: counters and exact histograms only.
    ///
    /// Gauges (often set to environment-dependent values like thread
    /// counts) and wall-clock histograms are stripped; what remains is
    /// byte-identical across runs and thread counts for a deterministic
    /// workload.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: Vec::new(),
            histograms: self
                .histograms
                .iter()
                .filter(|h| !h.wall_clock)
                .cloned()
                .collect(),
        }
    }

    /// Render as a JSON object with `counters`, `gauges` and
    /// `histograms` arrays.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        push_entries(&mut out, &self.counters, |c| {
            format!(
                "{{\"name\": {}, {}\"value\": {}}}",
                json::string(&c.name),
                labels_json(&c.labels),
                c.value
            )
        });
        out.push_str("],\n  \"gauges\": [");
        push_entries(&mut out, &self.gauges, |g| {
            format!(
                "{{\"name\": {}, {}\"value\": {}}}",
                json::string(&g.name),
                labels_json(&g.labels),
                g.value
            )
        });
        out.push_str("],\n  \"histograms\": [");
        push_entries(&mut out, &self.histograms, |h| {
            format!(
                "{{\"name\": {}, {}\"wall_clock\": {}, \"count\": {}, \"sum\": {}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
                 \"p999\": {}}}",
                json::string(&h.name),
                labels_json(&h.labels),
                h.wall_clock,
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99,
                h.p999
            )
        });
        out.push_str("]\n}");
        out
    }

    /// Render as a human-readable summary table (the `repro` binary's
    /// end-of-run report): counters first, then gauges, then histograms
    /// with their quantile estimates. Wall-clock histograms are marked
    /// `[wall]`.
    pub fn summary(&self) -> String {
        fn key(name: &str, labels: &[(String, String)]) -> String {
            if labels.is_empty() {
                return name.to_owned();
            }
            let rendered: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{name}{{{}}}", rendered.join(","))
        }
        let width = self
            .counters
            .iter()
            .map(|c| key(&c.name, &c.labels).len())
            .chain(self.gauges.iter().map(|g| key(&g.name, &g.labels).len()))
            .chain(
                self.histograms
                    .iter()
                    .map(|h| key(&h.name, &h.labels).len()),
            )
            .max()
            .unwrap_or(0)
            .max(8);
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "  {:<width$}  {}\n",
                    key(&c.name, &c.labels),
                    c.value
                ));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for g in &self.gauges {
                out.push_str(&format!(
                    "  {:<width$}  {}\n",
                    key(&g.name, &g.labels),
                    g.value
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<width$}  count={} p50={} p95={} p99={} p999={} max={}{}\n",
                    key(&h.name, &h.labels),
                    h.count,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.p999,
                    h.max,
                    if h.wall_clock { " [wall]" } else { "" }
                ));
            }
        }
        out
    }
}

fn eq_labels(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

fn labels_json(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), json::string(v)))
        .collect();
    format!("\"labels\": {{{}}}, ", body.join(", "))
}

fn push_entries<T>(out: &mut String, entries: &[T], render: impl Fn(&T) -> String) {
    for (i, entry) in entries.iter().enumerate() {
        out.push_str("\n    ");
        out.push_str(&render(entry));
        if i + 1 < entries.len() {
            out.push(',');
        }
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sum_across_labels() {
        let registry = Registry::new();
        registry.counter("verdict").add(2);
        registry
            .counter_with("verdict", &[("kind", "malware")])
            .add(3);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("verdict"), 5);
        assert_eq!(snapshot.counter("missing"), 0);
    }

    #[test]
    fn same_name_and_labels_share_one_counter() {
        let registry = Registry::new();
        let a = registry.counter_with("x", &[("k", "v")]);
        let b = registry.counter_with("x", &[("k", "v")]);
        a.add(1);
        b.add(1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn histogram_statistics_are_exact_and_order_independent() {
        let forward = Registry::new();
        let backward = Registry::new();
        let values = [1u64, 2, 3, 100, 1000, 0, 7];
        for &v in &values {
            forward.histogram("h").record(v);
        }
        for &v in values.iter().rev() {
            backward.histogram("h").record(v);
        }
        let f = forward.snapshot();
        let b = backward.snapshot();
        assert_eq!(f, b);
        let h = f.histogram("h", &[]).expect("histogram");
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1113);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!(!h.wall_clock);
        assert!(h.p50 >= 2 && h.p50 <= 7, "p50 {}", h.p50);
        assert!(h.p99 >= 1000, "p99 {}", h.p99);
    }

    #[test]
    fn deterministic_view_strips_wall_clock_and_gauges() {
        let registry = Registry::new();
        registry.counter("c").incr();
        registry.gauge("g").set(8);
        registry.histogram("exact").record(5);
        registry.timing("latency").record(123);
        let det = registry.snapshot().deterministic();
        assert_eq!(det.counters.len(), 1);
        assert!(det.gauges.is_empty());
        assert_eq!(det.histograms.len(), 1);
        assert_eq!(det.histograms[0].name, "exact");
    }

    #[test]
    fn snapshot_renders_json_with_balanced_braces() {
        let registry = Registry::new();
        registry.counter_with("c", &[("k", "v\"q")]).add(1);
        registry.gauge("g").set(-3);
        registry.timing("t").record(10);
        let json = registry.snapshot().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"v\\\"q\""));
        assert!(json.contains("\"wall_clock\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn percentiles_are_exact_rank_statistics() {
        let registry = Registry::new();
        let h = registry.histogram("latency");
        // 100 observations: 1..=100. Exact p50 = 50, p95 = 95, p99 = 99
        // — the bucket upper bounds (63, 127) must NOT leak through.
        for v in 1..=100u64 {
            h.record(v);
        }
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("latency", &[]).expect("histogram");
        assert_eq!((h.p50, h.p95, h.p99), (50, 95, 99));
        // ceil(100 * 0.999) = 100 — the tail rank reaches the largest
        // observation.
        assert_eq!(h.p999, 100);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets.iter().sum::<u64>(), 100);
    }

    #[test]
    fn percentiles_respect_duplicate_mass() {
        let registry = Registry::new();
        let h = registry.histogram("dup");
        for _ in 0..99 {
            h.record(7);
        }
        h.record(1_000_000);
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("dup", &[]).expect("histogram");
        assert_eq!((h.p50, h.p95), (7, 7));
        assert_eq!(h.p99, 7); // rank 99 of 100 still lands on the mass
        assert_eq!(h.p999, 1_000_000); // rank 100 of 100 is the outlier
        assert_eq!(h.max, 1_000_000);
    }

    #[test]
    fn parallel_recording_is_thread_count_independent() {
        // Exact values straddle the dense-array bound; wall-clock values
        // spread over many powers of two.
        let exact = |i: u64| i % 200;
        let wall = |i: u64| (i * 7919) % 3_000_017;
        let record = |registry: &Registry, i: u64| {
            registry.counter("n").incr();
            registry.counter_with("n", &[("k", "v")]).add(i);
            registry.histogram("exact").record(exact(i));
            registry.timing("wall").record(wall(i));
        };
        let snapshots: Vec<MetricsSnapshot> = [1u64, 8]
            .iter()
            .map(|&threads| {
                let registry = Registry::new();
                let start = std::sync::Barrier::new(threads as usize);
                std::thread::scope(|scope| {
                    for worker in 0..threads {
                        let (registry, start) = (&registry, &start);
                        scope.spawn(move || {
                            start.wait();
                            for i in (worker..20_000).step_by(threads as usize) {
                                record(registry, i);
                            }
                        });
                    }
                });
                registry.snapshot()
            })
            .collect();
        assert_eq!(snapshots[0], snapshots[1]);
        let one = &snapshots[0];
        assert_eq!(one.counter("n"), 20_000 + (0..20_000u64).sum::<u64>());
        let h = one.histogram("exact", &[]).expect("exact histogram");
        assert_eq!((h.count, h.min, h.max), (20_000, 0, 199));
        assert_eq!(h.sum, (0..20_000u64).map(exact).sum::<u64>());
        assert_eq!(h.buckets.iter().sum::<u64>(), 20_000);
        let w = one.histogram("wall", &[]).expect("wall histogram");
        assert_eq!(w.count, 20_000);
        assert_eq!(w.sum, (0..20_000u64).map(wall).sum::<u64>());
        assert_eq!(w.min, (0..20_000u64).map(wall).min().expect("values"));
        assert_eq!(w.max, (0..20_000u64).map(wall).max().expect("values"));
        let mut bits = vec![0u64; BUCKETS];
        for v in (0..20_000u64).map(wall) {
            bits[(u64::BITS - v.leading_zeros()) as usize] += 1;
        }
        assert_eq!(w.buckets, bits);
    }

    #[test]
    fn timing_memory_is_flat_and_quantiles_within_the_stated_error() {
        let registry = Registry::new();
        let h = registry.timing("latency_ns");
        // Strictly increasing, so every value is distinct and the
        // sequence is its own sorted order.
        let value = |i: u64| 200 + i + i * i / 1_000;
        let n = 1_000_000u64;
        h.record(value(0));
        let before = h.heap_bytes();
        for i in 1..n {
            h.record(value(i));
        }
        assert_eq!(h.heap_bytes(), before, "memory grew with distinct values");
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("latency_ns", &[]).expect("histogram");
        assert_eq!((h.count, h.min, h.max), (n, value(0), value(n - 1)));
        for (q, got) in [(0.50, h.p50), (0.99, h.p99), (0.999, h.p999)] {
            let rank = ((n as f64) * q).ceil() as u64;
            let exact = value(rank - 1);
            let error = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(
                error <= WALL_CLOCK_RELATIVE_ERROR,
                "q{q}: {got} vs exact {exact} ({error:.4} relative)"
            );
        }
    }

    #[test]
    fn log_linear_buckets_cover_u64_within_the_stated_error() {
        assert_eq!(log_linear_index(u64::MAX), LOG_LINEAR_BUCKETS - 1);
        let mut previous = 0;
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) | 1, u64::MAX >> (63 - shift)] {
                let index = log_linear_index(v);
                assert!(index >= previous, "index of {v} went backwards");
                previous = index;
                assert_eq!(log_linear_index(log_linear_midpoint(index)), index);
                let error = log_linear_midpoint(index).abs_diff(v) as f64 / v as f64;
                assert!(error <= WALL_CLOCK_RELATIVE_ERROR, "{v}: {error}");
            }
        }
        for v in 0..32 {
            assert_eq!(log_linear_midpoint(log_linear_index(v)), v);
        }
    }

    /// Indices of the timed calls among a fresh thread's first `calls`.
    fn timed_calls(calls: usize) -> Vec<usize> {
        SampleSchedule::new()
            .take(calls)
            .enumerate()
            .filter_map(|(i, timed)| timed.then_some(i))
            .collect()
    }

    #[test]
    fn sampled_gaps_average_sample_every() {
        let calls = 1_000_000;
        let timed = timed_calls(calls);
        let mean_gap = calls as f64 / timed.len() as f64;
        let error = (mean_gap - f64::from(SAMPLE_EVERY)).abs() / f64::from(SAMPLE_EVERY);
        assert!(error <= 0.02, "mean gap {mean_gap:.3}");
        let gaps = || timed.windows(2).map(|pair| pair[1] - pair[0]);
        assert_eq!(gaps().min(), Some(1));
        assert_eq!(gaps().max(), Some(2 * SAMPLE_EVERY as usize - 1));
    }

    #[test]
    fn a_threads_first_call_is_timed_and_follows_the_schedule() {
        let registry = Registry::new();
        let h = registry.timing("sampled_ns");
        let starts = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    (0..1_000)
                        .map(|_| {
                            let started = h.sampled_start();
                            if let Some(started) = started {
                                h.record_since(started);
                            }
                            started.is_some()
                        })
                        .collect::<Vec<bool>>()
                })
                .join()
                .expect("sampling thread")
        });
        assert!(starts[0], "the first call is timed");
        assert_eq!(
            starts,
            SampleSchedule::new().take(1_000).collect::<Vec<_>>()
        );
        let timed = starts.iter().filter(|&&t| t).count() as u64;
        assert_eq!(h.count(), timed);
    }

    #[test]
    fn round_robin_serving_times_every_stream() {
        // Stream `i % streams` takes call `i`. A fixed period of
        // `SAMPLE_EVERY` would time only the streams that are multiples
        // of gcd(streams, SAMPLE_EVERY), however many rounds ran.
        const ROUNDS: usize = 400;
        for streams in [16, 1_000, 2_000] {
            let mut timed = vec![false; streams];
            for call in timed_calls(streams * ROUNDS) {
                timed[call % streams] = true;
            }
            let missed = timed.iter().filter(|&&t| !t).count();
            assert_eq!(missed, 0, "{missed} of {streams} streams never timed");
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let registry = Registry::new();
        let _ = registry.histogram("h");
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("h", &[]).expect("histogram");
        assert_eq!((h.count, h.sum, h.min, h.max, h.p50), (0, 0, 0, 0, 0));
        assert_eq!((h.p95, h.p99, h.p999), (0, 0, 0));
    }
}
