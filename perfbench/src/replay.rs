//! The closed-loop replay: `workers` threads, each owning the
//! streams [`shard_of`] places on it, feed the corpus through
//! `StreamState::observe` as fast as they can, with the per-stream
//! health and per-worker breaker policy of a fleet shard.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use hbmd_core::fleet::{shard_of, StreamHealth, StreamHealthConfig, StreamStanding};
use hbmd_core::supervisor::{BreakerState, CircuitBreaker};
use hbmd_core::{Detector, OnlineVerdict, StreamState};

use crate::corpus::Corpus;
use crate::stats::{median, Histogram};

/// Streams replayed, as in `repro serve`.
pub const STREAMS: u64 = 2_000;

/// Cursors per stream that the correctness checks record.
pub const CHECKED: usize = 64;

/// One observe call in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Length of the slices a timed replay is measured in. Rates and
/// latencies are the median over slices, so a spell in which the host
/// runs the process slower spoils a few slices instead of the run.
pub const SLICE: Duration = Duration::from_millis(500);

/// The serve breaker shape: window, trip threshold, cooldown.
const BREAKER: (usize, usize, u64) = (16, 8, 64);

/// How long a replay runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Exactly this many cursors per stream, untimed.
    Cursors(u64),
    /// Warm up, then measure in [`SLICE`]-long slices until `measure`
    /// ends.
    Timed { warmup: Duration, measure: Duration },
}

/// One measured slice of one worker, or of all workers merged.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Windows per second (summed over workers once merged).
    pub rate: f64,
    /// Sampled `observe` latencies, ns.
    pub latency: Histogram,
}

/// What a replay served. Counts cover the measured part only.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Windows attempted.
    pub windows: u64,
    /// The measured slices, in time order (one for an untimed replay).
    pub slices: Vec<Slice>,
    /// Windows that abstained.
    pub abstained: u64,
    /// Windows skipped because their stream was quarantined.
    pub quarantine_skipped: u64,
    /// Windows skipped because the worker's breaker was open.
    pub breaker_skipped: u64,
    /// Quarantine entries.
    pub quarantines: u64,
    /// Breaker trips.
    pub breaker_trips: u64,
    /// Per stream, the verdict code of each of the first [`CHECKED`]
    /// cursors (see [`code`]).
    pub first: Vec<[u8; CHECKED]>,
}

impl Outcome {
    /// Windows per second: the median of the slices' rates.
    pub fn rate(&self) -> f64 {
        median(&self.slices.iter().map(|s| s.rate).collect::<Vec<_>>())
    }

    /// Percentile `p` of `observe` latency: the median over slices of
    /// each slice's percentile, ns.
    pub fn latency_ns(&self, p: f64) -> f64 {
        median(
            &self
                .slices
                .iter()
                .map(|s| s.latency.percentile(p))
                .collect::<Vec<_>>(),
        )
    }

    /// Windows that got no verdict: abstained on, or refused.
    pub fn failed(&self) -> u64 {
        self.abstained + self.refused()
    }

    /// Windows refused service by quarantine or an open breaker. An
    /// abstention is not a refusal: it is the verdict on a window the
    /// sanitizer could not use.
    pub fn refused(&self) -> u64 {
        self.quarantine_skipped + self.breaker_skipped
    }

    /// FNV-1a over every stream's first-cursor verdict codes, in stream
    /// order.
    pub fn digest(&self) -> u64 {
        hbmd_obs::manifest::fnv1a_64(&self.first.concat())
    }

    /// `(detection rate, false-alarm rate)` of the recorded verdicts
    /// against the corpus ground truth: the share of decided windows of
    /// malicious (benign) sources that alarmed.
    pub fn rates(&self, corpus: &Corpus) -> (f64, f64) {
        let (mut hits, mut malicious, mut alarms, mut benign) = (0u64, 0u64, 0u64, 0u64);
        for (stream, codes) in self.first.iter().enumerate() {
            for (cursor, &c) in codes.iter().enumerate() {
                if c < CLEAN {
                    continue;
                }
                let alarmed = u64::from(c >= ALARM);
                if corpus.at(stream as u64, cursor as u64).1.is_malware() {
                    malicious += 1;
                    hits += alarmed;
                } else {
                    benign += 1;
                    alarms += alarmed;
                }
            }
        }
        let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        (share(hits, malicious), share(alarms, benign))
    }

    fn absorb(&mut self, other: Outcome) {
        self.windows += other.windows;
        if self.slices.len() < other.slices.len() {
            self.slices.resize_with(other.slices.len(), Slice::default);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.rate += theirs.rate;
            mine.latency.merge(&theirs.latency);
        }
        self.abstained += other.abstained;
        self.quarantine_skipped += other.quarantine_skipped;
        self.breaker_skipped += other.breaker_skipped;
        self.quarantines += other.quarantines;
        self.breaker_trips += other.breaker_trips;
    }
}

const SKIPPED: u8 = 0;
const WARMUP: u8 = 1;
const CLEAN: u8 = 2;
const ALARM: u8 = 16;

/// One byte per verdict: skipped 0, warm-up 1, clean 2, alarm
/// `16 + 8·family + votes`.
pub fn code(verdict: Option<OnlineVerdict>) -> u8 {
    match verdict {
        None => SKIPPED,
        Some(OnlineVerdict::Warmup) => WARMUP,
        Some(OnlineVerdict::Clean) => CLEAN,
        Some(OnlineVerdict::Alarm { family, votes, .. }) => {
            ALARM + 8 * family.index() as u8 + votes.min(7) as u8
        }
    }
}

/// The serving state of one stream.
struct Cell {
    stream: u64,
    state: StreamState,
    health: StreamHealth,
}

/// One worker's serving loop state: its streams and its breaker.
pub struct Shard<'a> {
    detector: &'a Detector,
    cells: Vec<Cell>,
    breaker: CircuitBreaker,
    /// Breaker trips before the measured part began.
    trips_before: u64,
    out: Outcome,
}

impl<'a> Shard<'a> {
    /// The streams of `0..streams` that [`shard_of`] puts on `shard`.
    pub fn new(
        detector: &'a Detector,
        pristine: &StreamState,
        streams: u64,
        shard: usize,
        shards: usize,
    ) -> Shard<'a> {
        let cells = (0..streams)
            .filter(|&s| shard_of(s, shards) == shard)
            .map(|stream| Cell {
                stream,
                state: pristine.clone(),
                health: StreamHealth::new(StreamHealthConfig::default()),
            })
            .collect();
        Shard {
            detector,
            cells,
            breaker: CircuitBreaker::new(BREAKER.0, BREAKER.1, BREAKER.2),
            trips_before: 0,
            out: Outcome::default(),
        }
    }

    /// Streams on this shard.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Stream ids on this shard, by slot.
    pub fn streams(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.stream).collect()
    }

    /// Forget every count so far: measurement starts now.
    pub fn restart_counts(&mut self) {
        self.out = Outcome::default();
        self.trips_before = self.breaker.trips();
    }

    /// The counts since the last restart.
    pub fn take(&mut self) -> Outcome {
        self.out.breaker_trips = self.breaker.trips() - self.trips_before;
        self.trips_before = self.breaker.trips();
        std::mem::take(&mut self.out)
    }

    /// Serve window `cursor` of the stream in `slot`, timing the
    /// observe call into `latency` when given. Returns the verdict,
    /// `None` when skipped.
    pub fn serve(
        &mut self,
        corpus: &Corpus,
        slot: usize,
        cursor: u64,
        latency: Option<&mut Histogram>,
    ) -> Option<OnlineVerdict> {
        let cell = &mut self.cells[slot];
        let out = &mut self.out;
        out.windows += 1;
        if self.breaker.state() == BreakerState::Open {
            out.breaker_skipped += 1;
            self.breaker.record(false);
            return None;
        }
        if cell.health.is_quarantined() {
            out.quarantine_skipped += 1;
            cell.health.record(false);
            return None;
        }
        let (window, _) = corpus.at(cell.stream, cursor);
        let verdict = match latency {
            Some(latency) => {
                let started = Instant::now();
                let verdict = cell.state.observe(self.detector, window);
                latency.record(started.elapsed().as_nanos() as u64);
                verdict
            }
            None => cell.state.observe(self.detector, window),
        };
        let faulted = cell.state.last_window_abstained();
        out.abstained += u64::from(faulted);
        let before = cell.health.standing();
        if cell.health.record(faulted) == StreamStanding::Quarantined
            && before != StreamStanding::Quarantined
        {
            out.quarantines += 1;
        }
        self.breaker.record(faulted);
        Some(verdict)
    }
}

/// Each stream a worker served, with the verdict codes of its first
/// [`CHECKED`] cursors.
type FirstCodes = Vec<(u64, [u8; CHECKED])>;

/// Replay `corpus` on `workers` threads.
pub fn run(
    detector: &Detector,
    pristine: &StreamState,
    corpus: &Corpus,
    workers: usize,
    length: Length,
) -> Outcome {
    let workers = workers.max(1);
    let barrier = Barrier::new(workers);
    let parts: Vec<(Outcome, FirstCodes)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut shard = Shard::new(detector, pristine, STREAMS, w, workers);
                    barrier.wait();
                    worker(&mut shard, corpus, length)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let mut outcome = Outcome::default();
    let mut first: FirstCodes = Vec::with_capacity(STREAMS as usize);
    for (part, codes) in parts {
        outcome.absorb(part);
        first.extend(codes);
    }
    first.sort_by_key(|&(stream, _)| stream);
    outcome.first = first.into_iter().map(|(_, codes)| codes).collect();
    outcome
}

fn worker(shard: &mut Shard<'_>, corpus: &Corpus, length: Length) -> (Outcome, FirstCodes) {
    let mut codes = vec![[SKIPPED; CHECKED]; shard.len()];
    let (warmup, slice_len, slice_count, limit) = match length {
        Length::Cursors(limit) => (Duration::ZERO, None, 1, limit),
        Length::Timed { warmup, measure } => {
            let count = (measure.as_nanos() / SLICE.as_nanos()).max(1) as u32;
            (warmup, Some(SLICE), count, u64::MAX)
        }
    };
    let mut slices: Vec<Slice> = Vec::new();
    // The open slice: its index, when it began, and windows before it.
    let mut open: Option<(u32, Instant, u64)> = None;
    let started = Instant::now();
    let mut sampled = 0u64;
    let mut cursor = 0u64;
    while cursor < limit {
        let now = Instant::now();
        let index = match slice_len {
            None => Some(0),
            Some(len) => now
                .duration_since(started)
                .checked_sub(warmup)
                .map(|t| (t.as_nanos() / len.as_nanos()) as u32),
        };
        if index.is_some() && index != open.map(|o| o.0) {
            match open.take() {
                Some((_, began, before)) => close(&mut slices, shard, now - began, before),
                None => shard.restart_counts(),
            }
            if index.is_some_and(|i| i >= slice_count) {
                break;
            }
            slices.push(Slice::default());
            open = index.map(|i| (i, now, shard.out.windows));
        }
        let mut latency = open.map(|_| &mut slices.last_mut().expect("a slice is open").latency);
        for (slot, first) in codes.iter_mut().enumerate() {
            sampled += 1;
            let timed = latency.is_some() && sampled.is_multiple_of(SAMPLE_EVERY);
            let verdict = shard.serve(
                corpus,
                slot,
                cursor,
                if timed { latency.as_deref_mut() } else { None },
            );
            if let Some(entry) = first.get_mut(cursor as usize) {
                *entry = code(verdict);
            }
        }
        cursor += 1;
    }
    if let Some((_, began, before)) = open {
        close(&mut slices, shard, began.elapsed(), before);
    }
    let mut out = shard.take();
    out.slices = slices;
    (out, shard.streams().into_iter().zip(codes).collect())
}

/// Close the last slice: the windows served since `before`, over
/// `elapsed`.
fn close(slices: &mut [Slice], shard: &Shard<'_>, elapsed: Duration, before: u64) {
    let slice = slices.last_mut().expect("a slice is open");
    slice.rate = (shard.out.windows - before) as f64 / elapsed.as_secs_f64().max(1e-9);
}
