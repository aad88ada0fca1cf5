//! Always-on flight recorder with anomaly-triggered diagnostic
//! bundles.
//!
//! Fleet metrics say *that* something happened; by the time an alarm
//! latches or a breaker trips, the windows, votes, and sanitizer
//! decisions that led there are gone. The [`FlightRecorder`] is a
//! fixed-capacity per-shard ring of compact structured [`Event`]s
//! written lock-free from the hot path: slots are preallocated at
//! construction, a monotone seqno overwrites the oldest slot, and a
//! `record` call performs no allocation — just an atomic seqno claim,
//! a fixed-size word encode, and two stamp stores (a per-slot seqlock,
//! so a concurrent drain skips torn slots instead of blocking the
//! writer).
//!
//! On trigger (circuit-breaker trip, restart-budget exhaustion,
//! snapshot refusal, or an explicit `/debug/bundle` request) the
//! [`RecorderHub`] freezes every ring and emits an atomic
//! **diagnostic bundle**: a directory holding the drained events as
//! JSONL, the live metrics snapshot, the run manifest, trigger
//! metadata, and a `MANIFEST` file that checksums all of them with the
//! same FNV-1a-64 framing idiom as the snapshot codec — any flipped
//! byte anywhere in the bundle yields a typed [`BundleError`], never a
//! partial parse.
//!
//! Everything here is deterministic given a deterministic event
//! stream: seqnos are assigned in record order (one writer per ring),
//! the JSONL rendering is byte-stable, and bundle directories are
//! named by a bundle sequence number — so two same-seed runs produce
//! byte-identical bundles, which the integration tests pin.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::json;
use crate::manifest::fnv1a_64;

/// Maximum feature values carried by a [`Event::Window`] record (the
/// paper's 16-counter selection).
pub const MAX_FEATURES: usize = 16;

/// `u64` words per ring slot: a tag word, stream, cursor, a packed
/// small-field word, and [`MAX_FEATURES`] feature bit-patterns.
const SLOT_WORDS: usize = 4 + MAX_FEATURES;

/// Family code meaning "no family" in a [`Event::Window`] record.
pub const NO_FAMILY: u8 = u8::MAX;

/// Verdict of one observed window, as recorded in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// The vote ring has not filled yet.
    Warmup,
    /// No alarm this window.
    Clean,
    /// The hysteresis alarm is latched (family in
    /// [`Event::Window::family`]).
    Alarm,
}

impl VerdictKind {
    fn code(self) -> u64 {
        match self {
            VerdictKind::Warmup => 0,
            VerdictKind::Clean => 1,
            VerdictKind::Alarm => 2,
        }
    }

    fn from_code(code: u64) -> Option<VerdictKind> {
        match code {
            0 => Some(VerdictKind::Warmup),
            1 => Some(VerdictKind::Clean),
            2 => Some(VerdictKind::Alarm),
            _ => None,
        }
    }

    /// Stable lowercase name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            VerdictKind::Warmup => "warmup",
            VerdictKind::Clean => "clean",
            VerdictKind::Alarm => "alarm",
        }
    }
}

/// Stream-health standing, as recorded in [`Event::Health`]
/// transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandingKind {
    /// Healthy and classified.
    Active,
    /// Windows skipped while the health score drains.
    Quarantined,
    /// Classified again, but one fault re-quarantines.
    Probation,
}

impl StandingKind {
    fn code(self) -> u64 {
        match self {
            StandingKind::Active => 0,
            StandingKind::Quarantined => 1,
            StandingKind::Probation => 2,
        }
    }

    fn from_code(code: u64) -> Option<StandingKind> {
        match code {
            0 => Some(StandingKind::Active),
            1 => Some(StandingKind::Quarantined),
            2 => Some(StandingKind::Probation),
            _ => None,
        }
    }

    /// Stable lowercase name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            StandingKind::Active => "active",
            StandingKind::Quarantined => "quarantined",
            StandingKind::Probation => "probation",
        }
    }
}

/// Fault-injector or recovery fault kinds recorded in
/// [`Event::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An all-NaN (or NaN-substituted) window reached the detector.
    Nan,
    /// A worker panic was injected or observed at this cursor.
    Panic,
    /// A checkpoint (or checkpoint section) was refused at restore.
    Refusal,
}

impl FaultKind {
    fn code(self) -> u64 {
        match self {
            FaultKind::Nan => 0,
            FaultKind::Panic => 1,
            FaultKind::Refusal => 2,
        }
    }

    fn from_code(code: u64) -> Option<FaultKind> {
        match code {
            0 => Some(FaultKind::Nan),
            1 => Some(FaultKind::Panic),
            2 => Some(FaultKind::Refusal),
            _ => None,
        }
    }

    /// Stable lowercase name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Nan => "nan",
            FaultKind::Panic => "panic",
            FaultKind::Refusal => "refusal",
        }
    }
}

/// A fixed-capacity copy of one window's (post-sanitize) feature
/// values. `Copy`, stack-only — recording a window never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureFrame {
    len: u8,
    values: [f64; MAX_FEATURES],
}

impl FeatureFrame {
    /// An empty frame (no feature values recorded).
    pub const fn empty() -> FeatureFrame {
        FeatureFrame {
            len: 0,
            values: [0.0; MAX_FEATURES],
        }
    }

    /// Copies up to [`MAX_FEATURES`] values from `values`.
    pub fn from_slice(values: &[f64]) -> FeatureFrame {
        let mut frame = FeatureFrame::empty();
        let len = values.len().min(MAX_FEATURES);
        frame.values[..len].copy_from_slice(&values[..len]);
        frame.len = len as u8;
        frame
    }

    /// The recorded values.
    pub fn as_slice(&self) -> &[f64] {
        &self.values[..self.len as usize]
    }
}

/// One compact structured flight-recorder event. All variants are
/// `Copy` and encode into a fixed-size slot of `SLOT_WORDS` words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// One observed window: verdict, vote margin, abstention, and the
    /// post-sanitize feature values.
    Window {
        /// Monitored stream id.
        stream: u64,
        /// Window cursor within the stream.
        cursor: u64,
        /// Verdict for this window.
        verdict: VerdictKind,
        /// Alarmed family code ([`NO_FAMILY`] when not alarmed).
        family: u8,
        /// Alarm votes in the ring.
        votes: u16,
        /// Vote-ring size.
        of: u16,
        /// Whether the sanitizer abstained on this window.
        abstained: bool,
        /// Post-sanitize feature values (NaN renders as `null`).
        features: FeatureFrame,
    },
    /// A stream-health standing transition.
    Health {
        /// Monitored stream id.
        stream: u64,
        /// Window cursor at the transition.
        cursor: u64,
        /// Standing before the transition.
        from: StandingKind,
        /// Standing after the transition.
        to: StandingKind,
    },
    /// A fault-injector hit or recovery fault.
    Fault {
        /// Monitored stream id (0 when not stream-scoped).
        stream: u64,
        /// Window cursor at the fault.
        cursor: u64,
        /// What kind of fault.
        kind: FaultKind,
    },
    /// The shard's circuit breaker tripped open at this cursor.
    Breaker {
        /// Stream whose abstention tipped the breaker.
        stream: u64,
        /// Window cursor at the trip.
        cursor: u64,
    },
    /// A checkpoint was committed through this cursor.
    Checkpoint {
        /// Cursor covered by the checkpoint.
        cursor: u64,
    },
    /// The supervisor restarted this ring's worker.
    Restart {
        /// Restart attempt number (1-based).
        attempt: u32,
    },
    /// The ensemble-disagreement alarm tripped: committee vote
    /// dispersion on this window crossed the configured threshold
    /// (a possible adversarial-evasion attempt).
    Disagreement {
        /// Monitored stream id.
        stream: u64,
        /// Window cursor at the trip.
        cursor: u64,
        /// Observed vote dispersion, in permille (0..=1000).
        dispersion_permille: u16,
        /// Configured alarm threshold, in permille (0..=1000).
        threshold_permille: u16,
    },
}

const TAG_WINDOW: u64 = 1;
const TAG_HEALTH: u64 = 2;
const TAG_FAULT: u64 = 3;
const TAG_BREAKER: u64 = 4;
const TAG_CHECKPOINT: u64 = 5;
const TAG_RESTART: u64 = 6;
const TAG_DISAGREEMENT: u64 = 7;

impl Event {
    /// Encodes the event into a fixed word slot. Feature values are
    /// stored as raw `f64` bit patterns, so NaN payloads round-trip.
    fn encode(&self, words: &mut [u64; SLOT_WORDS]) {
        *words = [0; SLOT_WORDS];
        match *self {
            Event::Window {
                stream,
                cursor,
                verdict,
                family,
                votes,
                of,
                abstained,
                features,
            } => {
                words[0] = TAG_WINDOW;
                words[1] = stream;
                words[2] = cursor;
                words[3] = u64::from(votes)
                    | (u64::from(of) << 16)
                    | (u64::from(family) << 32)
                    | (u64::from(abstained) << 40)
                    | (verdict.code() << 48)
                    | ((features.len as u64) << 56);
                for (slot, value) in words[4..].iter_mut().zip(features.values.iter()) {
                    *slot = value.to_bits();
                }
            }
            Event::Health {
                stream,
                cursor,
                from,
                to,
            } => {
                words[0] = TAG_HEALTH;
                words[1] = stream;
                words[2] = cursor;
                words[3] = from.code() | (to.code() << 8);
            }
            Event::Fault {
                stream,
                cursor,
                kind,
            } => {
                words[0] = TAG_FAULT;
                words[1] = stream;
                words[2] = cursor;
                words[3] = kind.code();
            }
            Event::Breaker { stream, cursor } => {
                words[0] = TAG_BREAKER;
                words[1] = stream;
                words[2] = cursor;
            }
            Event::Checkpoint { cursor } => {
                words[0] = TAG_CHECKPOINT;
                words[2] = cursor;
            }
            Event::Restart { attempt } => {
                words[0] = TAG_RESTART;
                words[3] = u64::from(attempt);
            }
            Event::Disagreement {
                stream,
                cursor,
                dispersion_permille,
                threshold_permille,
            } => {
                words[0] = TAG_DISAGREEMENT;
                words[1] = stream;
                words[2] = cursor;
                words[3] = u64::from(dispersion_permille) | (u64::from(threshold_permille) << 16);
            }
        }
    }

    /// Decodes a word slot; `None` for an unknown tag or field code
    /// (a torn or corrupt slot is skipped, not trusted).
    fn decode(words: &[u64; SLOT_WORDS]) -> Option<Event> {
        match words[0] {
            TAG_WINDOW => {
                let packed = words[3];
                let len = ((packed >> 56) & 0xff) as usize;
                if len > MAX_FEATURES {
                    return None;
                }
                let mut features = FeatureFrame::empty();
                features.len = len as u8;
                for (value, slot) in features.values.iter_mut().zip(words[4..].iter()) {
                    *value = f64::from_bits(*slot);
                }
                Some(Event::Window {
                    stream: words[1],
                    cursor: words[2],
                    verdict: VerdictKind::from_code((packed >> 48) & 0xff)?,
                    family: ((packed >> 32) & 0xff) as u8,
                    votes: (packed & 0xffff) as u16,
                    of: ((packed >> 16) & 0xffff) as u16,
                    abstained: (packed >> 40) & 0xff != 0,
                    features,
                })
            }
            TAG_HEALTH => Some(Event::Health {
                stream: words[1],
                cursor: words[2],
                from: StandingKind::from_code(words[3] & 0xff)?,
                to: StandingKind::from_code((words[3] >> 8) & 0xff)?,
            }),
            TAG_FAULT => Some(Event::Fault {
                stream: words[1],
                cursor: words[2],
                kind: FaultKind::from_code(words[3])?,
            }),
            TAG_BREAKER => Some(Event::Breaker {
                stream: words[1],
                cursor: words[2],
            }),
            TAG_CHECKPOINT => Some(Event::Checkpoint { cursor: words[2] }),
            TAG_RESTART => Some(Event::Restart {
                attempt: words[3] as u32,
            }),
            TAG_DISAGREEMENT => Some(Event::Disagreement {
                stream: words[1],
                cursor: words[2],
                dispersion_permille: (words[3] & 0xffff) as u16,
                threshold_permille: ((words[3] >> 16) & 0xffff) as u16,
            }),
            _ => None,
        }
    }

    /// Renders one JSONL object (no trailing newline). `families`
    /// maps window family codes to labels; unknown codes render as
    /// numbers and [`NO_FAMILY`] as `null`.
    pub fn to_jsonl(&self, seq: u64, shard: u32, families: &[String]) -> String {
        let head = format!("{{\"seq\": {seq}, \"shard\": {shard}");
        match *self {
            Event::Window {
                stream,
                cursor,
                verdict,
                family,
                votes,
                of,
                abstained,
                features,
            } => {
                let family_json = if family == NO_FAMILY {
                    "null".to_owned()
                } else if let Some(label) = families.get(family as usize) {
                    json::string(label)
                } else {
                    format!("{family}")
                };
                let values: Vec<String> = features
                    .as_slice()
                    .iter()
                    .map(|v| json::float(*v))
                    .collect();
                format!(
                    "{head}, \"kind\": \"window\", \"stream\": {stream}, \
                     \"cursor\": {cursor}, \"verdict\": {}, \"family\": {family_json}, \
                     \"votes\": {votes}, \"of\": {of}, \"abstained\": {abstained}, \
                     \"features\": [{}]}}",
                    json::string(verdict.name()),
                    values.join(", "),
                )
            }
            Event::Health {
                stream,
                cursor,
                from,
                to,
            } => format!(
                "{head}, \"kind\": \"health\", \"stream\": {stream}, \"cursor\": {cursor}, \
                 \"from\": {}, \"to\": {}}}",
                json::string(from.name()),
                json::string(to.name()),
            ),
            Event::Fault {
                stream,
                cursor,
                kind,
            } => format!(
                "{head}, \"kind\": \"fault\", \"stream\": {stream}, \"cursor\": {cursor}, \
                 \"fault\": {}}}",
                json::string(kind.name()),
            ),
            Event::Breaker { stream, cursor } => format!(
                "{head}, \"kind\": \"breaker\", \"stream\": {stream}, \"cursor\": {cursor}}}"
            ),
            Event::Checkpoint { cursor } => {
                format!("{head}, \"kind\": \"checkpoint\", \"cursor\": {cursor}}}")
            }
            Event::Restart { attempt } => {
                format!("{head}, \"kind\": \"restart\", \"attempt\": {attempt}}}")
            }
            Event::Disagreement {
                stream,
                cursor,
                dispersion_permille,
                threshold_permille,
            } => format!(
                "{head}, \"kind\": \"disagreement\", \"stream\": {stream}, \
                 \"cursor\": {cursor}, \"dispersion_permille\": {dispersion_permille}, \
                 \"threshold_permille\": {threshold_permille}}}"
            ),
        }
    }
}

/// A fixed-capacity lock-free ring of flight-recorder events.
///
/// One writer per ring (a shard worker); any thread may drain. The
/// ring is built from preallocated atomics: `record` claims a seqno,
/// stamps the slot odd (mid-write), stores the encoded words, and
/// stamps it even — a per-slot seqlock, so a concurrent reader skips
/// torn slots rather than blocking the hot path. While frozen (bundle
/// emission in progress) events are counted as dropped instead of
/// written, keeping the drained snapshot stable.
pub struct FlightRecorder {
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    frozen: AtomicBool,
    stamps: Vec<AtomicU64>,
    words: Vec<AtomicU64>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a ring holding the last `capacity` events (minimum 1).
    /// All slots are allocated up front; `record` never allocates.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            frozen: AtomicBool::new(false),
            stamps: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            words: (0..capacity * SLOT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Records an event, overwriting the oldest slot once the ring is
    /// full. Returns the assigned seqno, or `None` (counted as a
    /// drop) while the ring is frozen for bundle emission.
    pub fn record(&self, event: &Event) -> Option<u64> {
        if self.frozen.load(Ordering::Acquire) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = (seq as usize) % self.capacity;
        let base = slot * SLOT_WORDS;
        // Seqlock stamp protocol: 0 = never written, odd = mid-write,
        // 2*seq + 2 = slot holds the event with that seqno.
        self.stamps[slot].store(2 * seq + 1, Ordering::Release);
        let mut buf = [0u64; SLOT_WORDS];
        event.encode(&mut buf);
        for (offset, value) in buf.iter().enumerate() {
            self.words[base + offset].store(*value, Ordering::Relaxed);
        }
        self.stamps[slot].store(2 * seq + 2, Ordering::Release);
        Some(seq)
    }

    /// Stops recording (new events are counted as dropped) so a drain
    /// sees a stable snapshot.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    /// Resumes recording after a freeze.
    pub fn thaw(&self) {
        self.frozen.store(false, Ordering::Release);
    }

    /// Whether the ring is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (the next seqno to be assigned).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Events dropped while the ring was frozen.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Drains the ring's current contents: the last
    /// `min(recorded, capacity)` events in ascending seqno order.
    /// Torn slots (a write racing this drain on an unfrozen ring) are
    /// skipped, never misread — freeze first for a complete snapshot.
    pub fn drain(&self) -> Vec<(u64, Event)> {
        let total = self.recorded();
        let first = total.saturating_sub(self.capacity as u64);
        let mut out = Vec::with_capacity((total - first) as usize);
        for seq in first..total {
            let slot = (seq as usize) % self.capacity;
            if self.stamps[slot].load(Ordering::Acquire) != 2 * seq + 2 {
                continue;
            }
            let base = slot * SLOT_WORDS;
            let mut buf = [0u64; SLOT_WORDS];
            for (offset, word) in buf.iter_mut().enumerate() {
                *word = self.words[base + offset].load(Ordering::Relaxed);
            }
            // Re-check the stamp: if a writer claimed the slot while
            // we copied, the words may be torn — skip, don't trust.
            if self.stamps[slot].load(Ordering::Acquire) != 2 * seq + 2 {
                continue;
            }
            if let Some(event) = Event::decode(&buf) {
                out.push((seq, event));
            }
        }
        out
    }
}

/// Metadata describing why a bundle was triggered.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Stable trigger reason (`"breaker_trip"`, `"restart_budget"`,
    /// `"snapshot_refusal"`, `"http_request"`).
    pub reason: String,
    /// Shard that triggered, when known.
    pub shard: Option<u32>,
    /// Stream that triggered, when known.
    pub stream: Option<u64>,
    /// Window cursor at the trigger, when known.
    pub cursor: Option<u64>,
    /// Free-form human detail line.
    pub details: String,
}

impl Trigger {
    /// A trigger with the given reason and no location metadata.
    pub fn new(reason: &str) -> Trigger {
        Trigger {
            reason: reason.to_owned(),
            shard: None,
            stream: None,
            cursor: None,
            details: String::new(),
        }
    }
}

/// Where a written bundle landed.
#[derive(Debug, Clone)]
pub struct BundleOutcome {
    /// The bundle directory.
    pub path: PathBuf,
    /// Events drained into `events.jsonl`.
    pub events: usize,
}

/// Per-shard flight recorders plus the bundle-emission policy.
///
/// The hub owns one [`FlightRecorder`] per shard and, when a bundle
/// directory is configured, turns [`RecorderHub::trigger`] calls into
/// atomic on-disk diagnostic bundles. Without a bundle directory,
/// triggers are counted and suppressed — recording stays cheap and
/// bundles stay opt-in.
pub struct RecorderHub {
    rings: Vec<Arc<FlightRecorder>>,
    bundle_dir: Option<PathBuf>,
    manifest_json: String,
    families: Vec<String>,
    deterministic: bool,
    max_bundles: u64,
    bundle_seq: AtomicU64,
    suppressed: AtomicU64,
}

impl fmt::Debug for RecorderHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecorderHub")
            .field("shards", &self.rings.len())
            .field("bundle_dir", &self.bundle_dir)
            .field("bundles_written", &self.bundles_written())
            .finish()
    }
}

impl RecorderHub {
    /// A hub with `shards` rings of `capacity` events each, no bundle
    /// directory (triggers suppressed), and a cap of 16 bundles per run.
    pub fn new(shards: usize, capacity: usize) -> RecorderHub {
        let shards = shards.max(1);
        RecorderHub {
            rings: (0..shards)
                .map(|_| Arc::new(FlightRecorder::new(capacity)))
                .collect(),
            bundle_dir: None,
            manifest_json: "{}".to_owned(),
            families: Vec::new(),
            deterministic: false,
            max_bundles: 16,
            bundle_seq: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Enables bundle emission into `dir` (created on first trigger).
    #[must_use]
    pub fn with_bundle_dir(mut self, dir: impl Into<PathBuf>) -> RecorderHub {
        self.bundle_dir = Some(dir.into());
        self
    }

    /// Sets the run-manifest JSON embedded in every bundle.
    #[must_use]
    pub fn with_manifest_json(mut self, manifest_json: impl Into<String>) -> RecorderHub {
        self.manifest_json = manifest_json.into();
        self
    }

    /// Sets the family-code → label table used when rendering window
    /// events to JSONL.
    #[must_use]
    pub fn with_families(mut self, families: Vec<String>) -> RecorderHub {
        self.families = families;
        self
    }

    /// When set, bundle metrics use
    /// [`MetricsSnapshot::deterministic`](crate::MetricsSnapshot::deterministic)
    /// (wall-clock stripped) so same-seed bundles are byte-identical.
    #[must_use]
    pub fn with_deterministic(mut self, deterministic: bool) -> RecorderHub {
        self.deterministic = deterministic;
        self
    }

    /// Rings owned by the hub.
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// The ring for `shard` (clamped into range).
    pub fn ring(&self, shard: u32) -> &Arc<FlightRecorder> {
        &self.rings[(shard as usize).min(self.rings.len() - 1)]
    }

    /// Records an event into `shard`'s ring.
    pub fn record(&self, shard: u32, event: &Event) {
        self.ring(shard).record(event);
    }

    /// Bundles written so far.
    pub fn bundles_written(&self) -> u64 {
        self.bundle_seq
            .load(Ordering::Acquire)
            .min(self.max_bundles)
    }

    /// Triggers suppressed (no bundle directory, or cap reached).
    pub fn bundles_suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Acquire)
    }

    /// Freezes every ring, drains them, writes an atomic checksummed
    /// bundle directory, and thaws. Returns `Ok(None)` when emission
    /// is suppressed (no bundle directory configured, or the
    /// per-run bundle cap was reached).
    pub fn trigger(&self, trigger: &Trigger) -> Result<Option<BundleOutcome>, BundleError> {
        let Some(root) = &self.bundle_dir else {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        let seq = self.bundle_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if seq > self.max_bundles {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            crate::incr("recorder.bundles_suppressed");
            return Ok(None);
        }

        for ring in &self.rings {
            ring.freeze();
        }
        let drained: Vec<Vec<(u64, Event)>> = self.rings.iter().map(|r| r.drain()).collect();
        for ring in &self.rings {
            ring.thaw();
        }

        let mut events = String::new();
        let mut total = 0usize;
        for (shard, ring_events) in drained.iter().enumerate() {
            for (event_seq, event) in ring_events {
                events.push_str(&event.to_jsonl(*event_seq, shard as u32, &self.families));
                events.push('\n');
                total += 1;
            }
        }

        let snapshot = crate::current().registry().snapshot();
        let metrics = if self.deterministic {
            snapshot.deterministic().to_json()
        } else {
            snapshot.to_json()
        };
        let trigger_json = self.trigger_json(trigger, seq, &drained);

        let reason: String = trigger
            .reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let dir = root.join(format!("bundle-{seq:06}-{reason}"));
        write_bundle(
            &dir,
            &[
                ("events.jsonl", events.as_bytes()),
                ("metrics.json", metrics.as_bytes()),
                ("manifest.json", self.manifest_json.as_bytes()),
                ("trigger.json", trigger_json.as_bytes()),
            ],
        )?;

        crate::incr("recorder.bundles_written");
        crate::add("recorder.bundle_events", total as u64);
        Ok(Some(BundleOutcome {
            path: dir,
            events: total,
        }))
    }

    /// Live ring statistics as a JSON object, for `/debug/recorder`.
    pub fn stats_json(&self) -> String {
        let rings: Vec<String> = self
            .rings
            .iter()
            .enumerate()
            .map(|(shard, ring)| {
                format!(
                    "{{\"shard\": {shard}, \"capacity\": {}, \"recorded\": {}, \
                     \"dropped\": {}, \"frozen\": {}}}",
                    ring.capacity(),
                    ring.recorded(),
                    ring.dropped(),
                    ring.is_frozen(),
                )
            })
            .collect();
        format!(
            "{{\"shards\": {}, \"bundles_written\": {}, \"bundles_suppressed\": {}, \
             \"bundle_dir\": {}, \"rings\": [{}]}}",
            self.rings.len(),
            self.bundles_written(),
            self.bundles_suppressed(),
            match &self.bundle_dir {
                Some(dir) => json::string(&dir.display().to_string()),
                None => "null".to_owned(),
            },
            rings.join(", "),
        )
    }

    fn trigger_json(&self, trigger: &Trigger, seq: u64, drained: &[Vec<(u64, Event)>]) -> String {
        fn opt_u64<T: fmt::Display>(v: &Option<T>) -> String {
            match v {
                Some(v) => format!("{v}"),
                None => "null".to_owned(),
            }
        }
        let rings: Vec<String> = drained
            .iter()
            .enumerate()
            .map(|(shard, events)| {
                let (first, last) = match (events.first(), events.last()) {
                    (Some((first, _)), Some((last, _))) => (format!("{first}"), format!("{last}")),
                    _ => ("null".to_owned(), "null".to_owned()),
                };
                format!(
                    "{{\"shard\": {shard}, \"events\": {}, \"first_seq\": {first}, \
                     \"last_seq\": {last}, \"dropped\": {}}}",
                    events.len(),
                    self.rings[shard].dropped(),
                )
            })
            .collect();
        format!(
            "{{\"reason\": {}, \"bundle_seq\": {seq}, \"shard\": {}, \"stream\": {}, \
             \"cursor\": {}, \"details\": {}, \"rings\": [{}]}}",
            json::string(&trigger.reason),
            opt_u64(&trigger.shard),
            opt_u64(&trigger.stream),
            opt_u64(&trigger.cursor),
            json::string(&trigger.details),
            rings.join(", "),
        )
    }
}

/// Magic bytes opening a bundle `MANIFEST` file.
pub const BUNDLE_MAGIC: [u8; 8] = *b"HBMDBNDL";

/// Current bundle `MANIFEST` format version.
pub const BUNDLE_VERSION: u32 = 1;

/// Name of the checksummed bundle manifest file.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// One file recorded in a bundle `MANIFEST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleEntry {
    /// File name within the bundle directory.
    pub name: String,
    /// Exact byte length.
    pub size: u64,
    /// FNV-1a-64 digest of the file's bytes.
    pub digest: u64,
}

/// A verified, fully-read diagnostic bundle.
#[derive(Debug)]
pub struct Bundle {
    /// The bundle directory this was read from.
    pub dir: PathBuf,
    /// Manifest entries, in manifest order.
    pub entries: Vec<BundleEntry>,
    files: Vec<(String, Vec<u8>)>,
}

impl Bundle {
    /// The verified bytes of `name`, if the manifest lists it.
    pub fn file(&self, name: &str) -> Option<&[u8]> {
        self.files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bytes)| bytes.as_slice())
    }

    /// The verified bytes of `name` as UTF-8 text.
    pub fn text(&self, name: &str) -> Result<&str, BundleError> {
        let bytes = self
            .file(name)
            .ok_or_else(|| BundleError::MissingFile(name.to_owned()))?;
        std::str::from_utf8(bytes)
            .map_err(|e| BundleError::Decode(format!("{name} is not UTF-8: {e}")))
    }
}

/// Typed refusal reasons for a corrupt, truncated, or unreadable
/// bundle. Every byte of a bundle is covered by a digest, so any
/// single-byte corruption surfaces as one of these — never a panic or
/// a partial parse.
#[derive(Debug)]
#[non_exhaustive]
pub enum BundleError {
    /// Filesystem error reading or writing the bundle.
    Io(std::io::Error),
    /// The `MANIFEST` does not open with [`BUNDLE_MAGIC`].
    BadMagic,
    /// The `MANIFEST` version is not [`BUNDLE_VERSION`].
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The `MANIFEST` is shorter than its framing requires.
    Truncated,
    /// The `MANIFEST` trailer checksum does not match its contents.
    ChecksumMismatch {
        /// Digest recorded in the trailer.
        expected: u64,
        /// Digest computed over the file.
        found: u64,
    },
    /// A manifest-listed file is missing from the directory.
    MissingFile(String),
    /// A bundle file's length differs from its manifest entry.
    FileLength {
        /// File name.
        name: String,
        /// Length recorded in the manifest.
        expected: u64,
        /// Length on disk.
        found: u64,
    },
    /// A bundle file's digest differs from its manifest entry.
    FileChecksum {
        /// File name.
        name: String,
        /// Digest recorded in the manifest.
        expected: u64,
        /// Digest of the bytes on disk.
        found: u64,
    },
    /// The manifest payload or a bundle file failed to decode.
    Decode(String),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle io error: {e}"),
            BundleError::BadMagic => write!(f, "bundle MANIFEST magic mismatch"),
            BundleError::UnsupportedVersion { found } => {
                write!(f, "unsupported bundle MANIFEST version {found}")
            }
            BundleError::Truncated => write!(f, "bundle MANIFEST truncated"),
            BundleError::ChecksumMismatch { expected, found } => write!(
                f,
                "bundle MANIFEST checksum mismatch (expected {expected:#018x}, found {found:#018x})"
            ),
            BundleError::MissingFile(name) => write!(f, "bundle file `{name}` missing"),
            BundleError::FileLength {
                name,
                expected,
                found,
            } => write!(
                f,
                "bundle file `{name}` length mismatch (manifest says {expected}, disk has {found})"
            ),
            BundleError::FileChecksum {
                name,
                expected,
                found,
            } => write!(
                f,
                "bundle file `{name}` checksum mismatch (expected {expected:#018x}, \
                 found {found:#018x})"
            ),
            BundleError::Decode(what) => write!(f, "bundle decode error: {what}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> BundleError {
        BundleError::Io(e)
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, BundleError> {
    let end = at.checked_add(4).ok_or(BundleError::Truncated)?;
    let slice = bytes.get(*at..end).ok_or(BundleError::Truncated)?;
    *at = end;
    Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, BundleError> {
    let end = at.checked_add(8).ok_or(BundleError::Truncated)?;
    let slice = bytes.get(*at..end).ok_or(BundleError::Truncated)?;
    *at = end;
    Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

/// Encodes a bundle `MANIFEST`:
///
/// ```text
/// magic "HBMDBNDL" (8) │ version u32 LE │ entry count u32 LE
/// │ entry × N: name len u16 LE │ name bytes │ size u64 LE │ digest u64 LE
/// │ FNV-1a-64 over everything after the magic (8)
/// ```
fn encode_manifest(entries: &[BundleEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&BUNDLE_MAGIC);
    push_u32(&mut out, BUNDLE_VERSION);
    push_u32(&mut out, entries.len() as u32);
    for entry in entries {
        let name = entry.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        push_u64(&mut out, entry.size);
        push_u64(&mut out, entry.digest);
    }
    let checksum = fnv1a_64(&out[BUNDLE_MAGIC.len()..]);
    push_u64(&mut out, checksum);
    out
}

/// Decodes and verifies a bundle `MANIFEST`, refusing bad magic,
/// unknown versions, truncation, trailing garbage, and checksum
/// mismatches with a typed [`BundleError`].
fn decode_manifest(bytes: &[u8]) -> Result<Vec<BundleEntry>, BundleError> {
    if bytes.len() < BUNDLE_MAGIC.len() + 4 + 4 + 8 {
        return Err(BundleError::Truncated);
    }
    if bytes[..BUNDLE_MAGIC.len()] != BUNDLE_MAGIC {
        return Err(BundleError::BadMagic);
    }
    let body_end = bytes.len() - 8;
    let expected = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let found = fnv1a_64(&bytes[BUNDLE_MAGIC.len()..body_end]);
    if expected != found {
        return Err(BundleError::ChecksumMismatch { expected, found });
    }
    let body = &bytes[..body_end];
    let mut at = BUNDLE_MAGIC.len();
    let version = take_u32(body, &mut at)?;
    if version != BUNDLE_VERSION {
        return Err(BundleError::UnsupportedVersion { found: version });
    }
    let count = take_u32(body, &mut at)?;
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name_end = at.checked_add(2).ok_or(BundleError::Truncated)?;
        let name_len = body
            .get(at..name_end)
            .map(|s| u16::from_le_bytes(s.try_into().expect("2 bytes")) as usize)
            .ok_or(BundleError::Truncated)?;
        at = name_end;
        let name_bytes = body.get(at..at + name_len).ok_or(BundleError::Truncated)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|e| BundleError::Decode(format!("manifest entry name: {e}")))?
            .to_owned();
        at += name_len;
        let size = take_u64(body, &mut at)?;
        let digest = take_u64(body, &mut at)?;
        entries.push(BundleEntry { name, size, digest });
    }
    if at != body.len() {
        return Err(BundleError::Decode(format!(
            "manifest has {} trailing bytes after {} entries",
            body.len() - at,
            count,
        )));
    }
    Ok(entries)
}

/// Writes `bytes` to `path` crash-safely: `<file name>.tmp` in the
/// same directory, fsync, then an atomic rename over `path`. The tmp
/// file is removed when the rename fails, and whatever was at `path`
/// before survives any failure.
///
/// # Errors
///
/// Returns the filesystem error of the create, write, fsync or rename.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes an atomic bundle directory: every data file plus the
/// checksummed `MANIFEST` land in a sibling `.tmp` directory (the
/// `MANIFEST` written last), which is then renamed into place — a
/// crash mid-write leaves no half-bundle at the final path.
fn write_bundle(dir: &Path, files: &[(&str, &[u8])]) -> Result<(), BundleError> {
    if let Some(parent) = dir.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let staging = dir.with_extension("tmp");
    if staging.exists() {
        std::fs::remove_dir_all(&staging)?;
    }
    std::fs::create_dir_all(&staging)?;
    let mut entries = Vec::with_capacity(files.len());
    for (name, bytes) in files {
        write_file_atomic(&staging.join(name), bytes)?;
        entries.push(BundleEntry {
            name: (*name).to_owned(),
            size: bytes.len() as u64,
            digest: fnv1a_64(bytes),
        });
    }
    write_file_atomic(&staging.join(MANIFEST_FILE), &encode_manifest(&entries))?;
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::rename(&staging, dir)?;
    Ok(())
}

/// Reads and fully verifies a bundle directory: the `MANIFEST`
/// checksum first, then every listed file's exact length and
/// FNV-1a-64 digest. Corrupting any byte of any bundle file yields a
/// typed [`BundleError`], never a panic.
pub fn read_bundle(dir: &Path) -> Result<Bundle, BundleError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest_bytes = std::fs::read(&manifest_path)
        .map_err(|_| BundleError::MissingFile(MANIFEST_FILE.to_owned()))?;
    let entries = decode_manifest(&manifest_bytes)?;
    let mut files = Vec::with_capacity(entries.len());
    for entry in &entries {
        let bytes = std::fs::read(dir.join(&entry.name))
            .map_err(|_| BundleError::MissingFile(entry.name.clone()))?;
        if bytes.len() as u64 != entry.size {
            return Err(BundleError::FileLength {
                name: entry.name.clone(),
                expected: entry.size,
                found: bytes.len() as u64,
            });
        }
        let digest = fnv1a_64(&bytes);
        if digest != entry.digest {
            return Err(BundleError::FileChecksum {
                name: entry.name.clone(),
                expected: entry.digest,
                found: digest,
            });
        }
        files.push((entry.name.clone(), bytes));
    }
    Ok(Bundle {
        dir: dir.to_owned(),
        entries,
        files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Window {
                stream: 3,
                cursor: 17,
                verdict: VerdictKind::Alarm,
                family: 2,
                votes: 3,
                of: 4,
                abstained: false,
                features: FeatureFrame::from_slice(&[1.5, f64::NAN, -0.25]),
            },
            Event::Health {
                stream: 3,
                cursor: 18,
                from: StandingKind::Active,
                to: StandingKind::Quarantined,
            },
            Event::Fault {
                stream: 3,
                cursor: 19,
                kind: FaultKind::Nan,
            },
            Event::Breaker {
                stream: 3,
                cursor: 20,
            },
            Event::Checkpoint { cursor: 20 },
            Event::Restart { attempt: 2 },
            Event::Disagreement {
                stream: 3,
                cursor: 21,
                dispersion_permille: 437,
                threshold_permille: 400,
            },
        ]
    }

    #[test]
    fn every_event_variant_roundtrips_through_the_slot_codec() {
        for event in sample_events() {
            let mut words = [0u64; SLOT_WORDS];
            event.encode(&mut words);
            let decoded = Event::decode(&words).expect("decode");
            match (event, decoded) {
                (
                    Event::Window {
                        features: a,
                        verdict: va,
                        ..
                    },
                    Event::Window {
                        features: b,
                        verdict: vb,
                        ..
                    },
                ) => {
                    assert_eq!(va, vb);
                    assert_eq!(a.as_slice().len(), b.as_slice().len());
                    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "NaN payload must round-trip");
                    }
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn unknown_tags_and_codes_decode_to_none() {
        let mut words = [0u64; SLOT_WORDS];
        assert_eq!(Event::decode(&words), None, "empty slot");
        words[0] = 99;
        assert_eq!(Event::decode(&words), None, "unknown tag");
        words[0] = TAG_HEALTH;
        words[3] = 0xffff;
        assert_eq!(Event::decode(&words), None, "unknown standing code");
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_seqno_order() {
        let ring = FlightRecorder::new(4);
        for cursor in 0..10u64 {
            ring.record(&Event::Checkpoint { cursor });
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 4);
        let seqs: Vec<u64> = drained.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        for (seq, event) in drained {
            assert_eq!(event, Event::Checkpoint { cursor: seq });
        }
    }

    #[test]
    fn frozen_ring_counts_drops_and_keeps_contents_stable() {
        let ring = FlightRecorder::new(8);
        ring.record(&Event::Checkpoint { cursor: 1 });
        ring.freeze();
        assert!(ring.is_frozen());
        assert_eq!(ring.record(&Event::Checkpoint { cursor: 2 }), None);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.drain().len(), 1);
        ring.thaw();
        assert!(ring.record(&Event::Checkpoint { cursor: 3 }).is_some());
        assert_eq!(ring.drain().len(), 2);
    }

    #[test]
    fn jsonl_rendering_parses_and_maps_family_labels() {
        let families = vec!["rootkit".to_owned(), "trojan".to_owned(), "worm".to_owned()];
        for (seq, event) in sample_events().into_iter().enumerate() {
            let line = event.to_jsonl(seq as u64, 1, &families);
            let value = json::parse(&line).expect("JSONL line parses");
            assert_eq!(value.get("shard").and_then(|v| v.as_u64()), Some(1));
            assert_eq!(value.get("seq").and_then(|v| v.as_u64()), Some(seq as u64));
        }
        let alarm = sample_events()[0].to_jsonl(0, 0, &families);
        assert!(alarm.contains("\"family\": \"worm\""), "{alarm}");
        assert!(
            alarm.contains("null"),
            "NaN feature renders as null: {alarm}"
        );
    }

    #[test]
    fn bundle_roundtrips_and_verifies() {
        let dir = std::env::temp_dir().join(format!("hbmd-bundle-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_bundle(
            &dir,
            &[
                ("events.jsonl", b"{}\n".as_slice()),
                ("trigger.json", b"{}".as_slice()),
            ],
        )
        .expect("write");
        let bundle = read_bundle(&dir).expect("read back");
        assert_eq!(bundle.entries.len(), 2);
        assert_eq!(bundle.file("events.jsonl"), Some(b"{}\n".as_slice()));
        assert_eq!(bundle.text("trigger.json").expect("utf8"), "{}");
        assert!(bundle.file("absent").is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupting_any_manifest_byte_is_a_typed_refusal() {
        let entries = vec![BundleEntry {
            name: "events.jsonl".to_owned(),
            size: 3,
            digest: fnv1a_64(b"abc"),
        }];
        let encoded = encode_manifest(&entries);
        assert_eq!(decode_manifest(&encoded).expect("clean decode"), entries);
        for at in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[at] ^= 0x01;
            assert!(
                decode_manifest(&bad).is_err(),
                "flipping byte {at} must refuse"
            );
        }
        for len in 0..encoded.len() {
            assert!(
                decode_manifest(&encoded[..len]).is_err(),
                "truncation to {len} must refuse"
            );
        }
    }

    #[test]
    fn hub_without_bundle_dir_suppresses_triggers() {
        let hub = RecorderHub::new(2, 8);
        hub.record(0, &Event::Checkpoint { cursor: 7 });
        let outcome = hub.trigger(&Trigger::new("breaker_trip")).expect("no io");
        assert!(outcome.is_none());
        assert_eq!(hub.bundles_suppressed(), 1);
        assert!(
            !hub.ring(0).is_frozen(),
            "suppressed trigger must not freeze"
        );
        let stats = json::parse(&hub.stats_json()).expect("stats parse");
        assert_eq!(stats.get("shards").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn hub_trigger_writes_a_verifiable_bundle_and_caps_emission() {
        let root = std::env::temp_dir().join(format!("hbmd-bundle-hub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut hub = RecorderHub::new(1, 8)
            .with_bundle_dir(&root)
            .with_deterministic(true);
        hub.max_bundles = 1;
        hub.record(0, &Event::Checkpoint { cursor: 1 });
        hub.record(
            0,
            &Event::Breaker {
                stream: 0,
                cursor: 2,
            },
        );
        let mut trigger = Trigger::new("breaker_trip");
        trigger.shard = Some(0);
        trigger.cursor = Some(2);
        let outcome = hub
            .trigger(&trigger)
            .expect("bundle written")
            .expect("not suppressed");
        assert_eq!(outcome.events, 2);
        let bundle = read_bundle(&outcome.path).expect("bundle verifies");
        let trigger_meta = json::parse(bundle.text("trigger.json").expect("utf8")).expect("json");
        assert_eq!(
            trigger_meta.get("reason").and_then(|v| v.as_str()),
            Some("breaker_trip")
        );
        assert_eq!(
            bundle.text("events.jsonl").expect("utf8").lines().count(),
            2
        );
        assert!(!hub.ring(0).is_frozen(), "ring thawed after emission");
        // The cap: a second trigger is suppressed, not written.
        assert!(hub.trigger(&trigger).expect("no io").is_none());
        assert_eq!(hub.bundles_suppressed(), 1);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
