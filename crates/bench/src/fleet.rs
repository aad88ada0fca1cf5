//! The fleet monitor behind `repro serve`: N independent monitored
//! endpoint streams hash-sharded across supervised worker threads,
//! every stream voting against one shared trained model.
//!
//! The robustness design is **bulkhead isolation**:
//!
//! * Streams are placed with [`shard_of`] — every window of a stream
//!   lands on the same shard, in cursor order, so each stream's
//!   verdict sequence is a pure function of its own windows and is
//!   byte-identical at any shard count.
//! * Each shard runs under its *own* supervisor (`catch_unwind`,
//!   [`Backoff::with_jitter`] seeded by the shard id so co-faulting
//!   shards restart out of lockstep) with its own abstention-driven
//!   [`CircuitBreaker`]. A panicking or NaN-bursting shard degrades
//!   alone; the rest of the fleet keeps serving.
//! * Each stream carries a [`StreamHealth`] score: persistently faulty
//!   streams are quarantined (skipped, not classified), then readmitted
//!   through probation once clean — one hostile endpoint cannot poison
//!   its shard's breaker forever.
//! * Each shard's ingest queue is bounded. Under overload the producer
//!   sheds windows with counted priority: streams that are alarmed or
//!   on probation ("hot") are retried before being dropped, cold
//!   benign streams are shed first.
//!
//! Checkpointing is multiplexed: all stream cursors and states go into
//! one crash-safe [`snapshot::save_fleet`] file with per-section
//! checksums. A corrupt stream section falls back to a pristine start
//! for that stream only; every other stream resumes exactly.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hbmd_core::fleet::{shard_of, StreamHealth, StreamHealthConfig, StreamStanding};
use hbmd_core::snapshot::{self, StreamSection};
use hbmd_core::supervisor::{Backoff, BreakerState, CircuitBreaker};
use hbmd_core::{CoreError, Detector, OnlineVerdict, StreamState};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, Sample, SampleId};
use hbmd_obs::health::{FleetHealth, ServiceState};
use hbmd_obs::recorder::{
    BundleError, BundleOutcome, Event as RecorderEvent, FaultKind, FeatureFrame, RecorderHub,
    StandingKind, Trigger, VerdictKind, NO_FAMILY,
};
use hbmd_perf::{PerfError, Sampler, SamplerConfig};

/// Windows per synthetic sample on the serve timeline.
pub const WINDOWS_PER_SAMPLE: u64 = 16;

/// The repeating phase schedule: benign background with each malware
/// family injected in turn.
pub const PHASES: [AppClass; 10] = [
    AppClass::Benign,
    AppClass::Worm,
    AppClass::Benign,
    AppClass::Virus,
    AppClass::Benign,
    AppClass::Trojan,
    AppClass::Benign,
    AppClass::Rootkit,
    AppClass::Benign,
    AppClass::Backdoor,
];

/// The deterministic per-stream synthetic workload: window `k` of
/// stream `s` is a pure function of `(s, k)` — each stream follows the
/// [`PHASES`] schedule at its own phase offset, with sample content
/// seeded from the stream id and sample index. Any window can be
/// regenerated at any time, on any shard layout, which is what makes
/// both checkpoint replay and the shard-count determinism proof exact.
pub struct FleetTimeline {
    sampler: Sampler,
    /// stream → (sample index, its 16 windows); one live sample per
    /// stream keeps sequential sweeps cheap.
    cache: BTreeMap<u64, (u64, Vec<FeatureVector>)>,
}

impl FleetTimeline {
    /// A timeline over the collector's sampler settings (forced to
    /// [`WINDOWS_PER_SAMPLE`] windows per sample).
    ///
    /// # Errors
    ///
    /// Propagates sampler-configuration errors.
    pub fn new(sampler_config: &SamplerConfig) -> Result<FleetTimeline, PerfError> {
        let sampler = Sampler::new(SamplerConfig {
            windows_per_sample: WINDOWS_PER_SAMPLE as usize,
            ..sampler_config.clone()
        })?;
        Ok(FleetTimeline {
            sampler,
            cache: BTreeMap::new(),
        })
    }

    /// The ground-truth class of stream `stream` at window `cursor`.
    pub fn class_at(stream: u64, cursor: u64) -> AppClass {
        let sample_index = cursor / WINDOWS_PER_SAMPLE;
        PHASES[((sample_index + stream) % PHASES.len() as u64) as usize]
    }

    /// Regenerate window `cursor` of stream `stream`.
    pub fn window(&mut self, stream: u64, cursor: u64) -> FeatureVector {
        let sample_index = cursor / WINDOWS_PER_SAMPLE;
        let offset = (cursor % WINDOWS_PER_SAMPLE) as usize;
        let fresh = self.cache.get(&stream).map(|(i, _)| *i) != Some(sample_index);
        if fresh {
            let class = FleetTimeline::class_at(stream, cursor);
            let mut keyed = [0u8; 16];
            keyed[..8].copy_from_slice(&stream.to_le_bytes());
            keyed[8..].copy_from_slice(&sample_index.to_le_bytes());
            let seed = hbmd_obs::manifest::fnv1a_64(&keyed);
            let id = SampleId(30_000u32.wrapping_add(seed as u32));
            let sample = Sample::generate(id, class, seed);
            self.cache
                .insert(stream, (sample_index, self.sampler.collect_sample(&sample)));
        }
        self.cache.get(&stream).expect("cache just filled").1[offset].clone()
    }
}

/// How [`run_fleet`] should behave — shared by the live fleet monitor
/// (paced, shedding) and the chaos/determinism harness (unpaced,
/// lossless, with injected faults).
#[derive(Clone)]
pub struct FleetConfig {
    /// Monitored endpoint streams (ids `0..streams`).
    pub streams: u64,
    /// Worker shards the streams are hashed across.
    pub shards: usize,
    /// Stop after this many windows *per stream*; 0 = run until `stop`.
    pub windows_limit: u64,
    /// The pristine per-stream vote/hysteresis state, cloned for every
    /// stream that starts (or falls back) fresh.
    pub pristine_stream: StreamState,
    /// Per-stream health policy (quarantine/probation shape).
    pub health_policy: StreamHealthConfig,
    /// Checkpoint when a shard has processed this many windows since
    /// its last commit; 0 disables checkpointing.
    pub checkpoint_every: u64,
    /// Where the multiplexed snapshot lives; `None` disables it.
    pub checkpoint_path: Option<PathBuf>,
    /// Run-config digest stamped into (and demanded from) snapshots.
    pub config_digest: u64,
    /// Bounded producer→worker queue depth per shard.
    pub queue_capacity: usize,
    /// Producer pacing per timeline sweep (one window of every stream
    /// in the shard), or `None` to stream at full speed.
    pub pace: Option<Duration>,
    /// `true`: a full queue sheds windows with counted priority (live
    /// mode). `false`: the producer blocks — lossless, required for
    /// replay/determinism.
    pub shed_when_full: bool,
    /// Give up on a shard after this many worker restarts.
    pub max_restarts: u32,
    /// Exponential backoff (base ms, max ms) between restarts; jittered
    /// deterministically per shard.
    pub backoff_ms: (u64, u64),
    /// `true`: really sleep the backoff delay (live mode). `false`:
    /// account for it without sleeping (chaos replay).
    pub sleep_on_backoff: bool,
    /// Per-shard circuit breaker (window, trip threshold, cooldown).
    pub breaker: (usize, usize, u64),
    /// Chaos: panic shard `.0`'s worker when it reaches a window with
    /// cursor `.1`. Single-shot per entry.
    pub panic_at: Vec<(usize, u64)>,
    /// Chaos: replace stream `.0`'s windows in `[.1, .2)` with all-NaN
    /// vectors (a persistently faulty endpoint).
    pub nan_streams: Vec<(u64, u64, u64)>,
    /// Cooperative shutdown flag (SIGINT).
    pub stop: Option<Arc<AtomicBool>>,
    /// Shared per-shard health mirrored to `/readyz`.
    pub fleet_health: Option<Arc<FleetHealth>>,
    /// Record every stream's per-cursor verdict sequence in the report
    /// (determinism/chaos invariants). Requires a finite limit; keep
    /// `streams × windows_limit` small.
    pub capture_verdicts: bool,
    /// Print alarm lines for stream 0 to stderr (live mode).
    pub verbose: bool,
    /// Per-shard flight recorders plus the bundle-emission policy;
    /// `None` (the default) records nothing and triggers nothing, so
    /// the hot path stays byte-identical to the pre-recorder fleet.
    pub recorder: Option<Arc<RecorderHub>>,
}

impl FleetConfig {
    /// Lossless, unpaced defaults suitable for tests and chaos runs.
    pub fn lossless(streams: u64, shards: usize, windows_limit: u64) -> FleetConfig {
        FleetConfig {
            streams: streams.max(1),
            shards: shards.max(1),
            windows_limit,
            pristine_stream: StreamState::new(4, 3, 1, 1).expect("static default shape"),
            health_policy: StreamHealthConfig::default(),
            checkpoint_every: 0,
            checkpoint_path: None,
            config_digest: 0,
            queue_capacity: 64,
            pace: None,
            shed_when_full: false,
            max_restarts: 8,
            backoff_ms: (50, 800),
            sleep_on_backoff: false,
            breaker: (16, 8, 32),
            panic_at: Vec::new(),
            nan_streams: Vec::new(),
            stop: None,
            fleet_health: None,
            capture_verdicts: true,
            verbose: false,
            recorder: None,
        }
    }
}

/// What one shard did — the bulkhead-local counters the chaos harness
/// asserts isolation on.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Streams placed on this shard.
    pub streams: u64,
    /// Windows fed to this shard's worker, including replay.
    pub processed: u64,
    /// Worker restarts performed by this shard's supervisor.
    pub restarts: u64,
    /// Circuit-breaker trips on this shard.
    pub trips: u64,
    /// Windows skipped while this shard's breaker was open.
    pub degraded: u64,
    /// Cold (benign, inactive) windows shed under overload.
    pub shed_low: u64,
    /// Hot (alarmed/probation) windows shed after retry exhaustion.
    pub shed_high: u64,
    /// Stream quarantine entries on this shard.
    pub quarantines: u64,
    /// Stream readmissions after probation on this shard.
    pub readmissions: u64,
    /// Windows skipped because their stream was quarantined.
    pub quarantine_skipped: u64,
    /// Checkpoint refusals (whole-file) during this shard's recoveries.
    pub refusals: u64,
    /// Stream sections individually lost to corruption during this
    /// shard's restores (those streams fell back pristine).
    pub lost_sections: u64,
    /// Largest replay gap (windows between a restored cursor and the
    /// crash point) across this shard's restarts.
    pub max_missed_gap: u64,
    /// `true` when the supervisor exhausted `max_restarts` and parked
    /// the shard — its streams stop, the rest of the fleet continues.
    pub gave_up: bool,
    /// `true` when this shard ended on the `stop` flag.
    pub interrupted: bool,
}

/// What a fleet run did: per-shard bulkhead reports plus fleet-wide
/// aggregates and (in capture mode) every stream's verdict sequence.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One report per shard, in shard order.
    pub shards: Vec<ShardReport>,
    /// Total windows processed across the fleet.
    pub processed: u64,
    /// Total worker restarts.
    pub restarts: u64,
    /// Total breaker trips.
    pub trips: u64,
    /// Total breaker-degraded windows.
    pub degraded: u64,
    /// Total cold windows shed.
    pub shed_low: u64,
    /// Total hot windows shed.
    pub shed_high: u64,
    /// Total quarantine entries.
    pub quarantines: u64,
    /// Total readmissions.
    pub readmissions: u64,
    /// Total quarantine-skipped windows.
    pub quarantine_skipped: u64,
    /// Total checkpoint refusals.
    pub refusals: u64,
    /// Total stream sections lost to per-section corruption.
    pub lost_sections: u64,
    /// Shards that exhausted their restart budget.
    pub gave_up: u64,
    /// Largest replay gap across all shards.
    pub max_missed_gap: u64,
    /// `true` when the run ended on the `stop` flag.
    pub interrupted: bool,
    /// Wall time of the run in milliseconds.
    pub wall_ms: u64,
    /// Aggregate throughput: processed windows per wall second.
    pub windows_per_sec: f64,
    /// Per-stream verdict sequences when `capture_verdicts` was set
    /// (index = cursor; `None` = never classified: shed, degraded, or
    /// quarantined).
    pub verdicts: BTreeMap<u64, Vec<Option<OnlineVerdict>>>,
    /// Final standing and (quarantines, readmissions) per stream.
    pub stream_health: BTreeMap<u64, (StreamStanding, u64, u64)>,
}

/// One stream's live state inside a shard worker.
#[derive(Clone)]
struct StreamCell {
    stream: u64,
    state: StreamState,
    health: StreamHealth,
    /// Next window index this stream expects (replayed windows below
    /// it are skipped).
    cursor: u64,
}

/// The shared multiplexed checkpoint: every shard commits its own
/// sections; the file is always rewritten whole (atomic rename) with
/// the latest committed view of every stream.
struct Checkpointer {
    path: PathBuf,
    config_digest: u64,
    shards: u32,
    detector: Arc<Detector>,
    sections: Mutex<BTreeMap<u64, StreamSection>>,
}

impl Checkpointer {
    fn commit(&self, updates: Vec<StreamSection>) {
        // The lock is held across the write: every shard renames through
        // the same tmp path, so concurrent writers would interleave.
        let mut sections = self
            .sections
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for section in updates {
            sections.insert(section.stream, section);
        }
        let all: Vec<StreamSection> = sections.values().cloned().collect();
        match snapshot::save_fleet(
            &self.detector,
            self.shards,
            self.config_digest,
            &all,
            &self.path,
        ) {
            Ok(()) => hbmd_obs::incr("snapshot.saved"),
            Err(e) => {
                // A failed checkpoint degrades recovery, not liveness.
                hbmd_obs::incr("snapshot.save_failed");
                eprintln!("fleet: checkpoint write failed: {e}");
            }
        }
    }
}

/// Mutable state a shard worker shares with its supervisor across the
/// `catch_unwind` boundary (survives worker panics).
struct ShardShared {
    breaker: CircuitBreaker,
    panic_at: std::collections::BTreeSet<u64>,
    /// slot → per-cursor verdicts (capture mode).
    verdicts: Vec<Vec<Option<OnlineVerdict>>>,
    /// slot → highest cursor processed + 1 (crash-gap bookkeeping).
    cursors: Vec<u64>,
    processed: u64,
    degraded: u64,
    quarantines: u64,
    readmissions: u64,
    quarantine_skipped: u64,
    since_checkpoint: u64,
}

struct ShardCtx {
    shard: usize,
    cfg: FleetConfig,
    detector: Arc<Detector>,
    sampler_config: SamplerConfig,
    /// (slot → stream id); slot order is the producer's sweep order.
    streams: Vec<u64>,
    checkpointer: Option<Arc<Checkpointer>>,
    /// slot → "hot" flag (alarmed/probation) for shedding priority.
    hot: Vec<Arc<AtomicBool>>,
    shed_low: Arc<AtomicU64>,
    shed_high: Arc<AtomicU64>,
    /// Fleet-wide processed counter feeding the throughput gauge.
    fleet_processed: Arc<AtomicU64>,
    started: Instant,
}

struct WorkerExit {
    cells: Vec<StreamCell>,
    interrupted: bool,
}

/// Run the fleet to completion (or interruption).
///
/// `detector` is the one shared trained model; every stream votes
/// against it through its own [`StreamState`].
///
/// # Errors
///
/// Returns an error when the timeline cannot be built. A shard
/// exhausting its restart budget does *not* fail the fleet — that is
/// the bulkhead contract — it is reported via
/// [`ShardReport::gave_up`].
pub fn run_fleet(
    detector: &Arc<Detector>,
    sampler_config: &SamplerConfig,
    cfg: &FleetConfig,
) -> Result<FleetReport, CoreError> {
    let started = Instant::now();
    let shards = cfg.shards.max(1);
    let streams: Vec<u64> = (0..cfg.streams.max(1)).collect();

    // Placement: stream → shard, stable under any shard count.
    let mut shard_streams: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for &stream in &streams {
        shard_streams[shard_of(stream, shards)].push(stream);
    }

    // Initial restore: one multiplexed load for the whole fleet.
    let mut restored: BTreeMap<u64, StreamSection> = BTreeMap::new();
    let mut initial_refusals = 0u64;
    let mut initial_lost = 0u64;
    if let Some(path) = &cfg.checkpoint_path {
        if path.exists() {
            match snapshot::load_fleet(path, cfg.config_digest) {
                Ok(fleet) => {
                    initial_lost = fleet.lost_sections as u64;
                    for section in fleet.streams {
                        restored.insert(section.stream, section);
                    }
                }
                Err(refusal) => {
                    eprintln!("fleet: existing checkpoint refused ({refusal}); starting pristine");
                    hbmd_obs::incr("snapshot.refused");
                    initial_refusals += 1;
                    if let Some(hub) = &cfg.recorder {
                        hub.record(
                            0,
                            &RecorderEvent::Fault {
                                stream: 0,
                                cursor: 0,
                                kind: FaultKind::Refusal,
                            },
                        );
                        let mut trigger = Trigger::new("snapshot_refusal");
                        trigger.details = format!("{refusal}");
                        report_bundle(hub.trigger(&trigger));
                    }
                }
            }
        }
    }

    let cell_for = |stream: u64| -> StreamCell {
        match restored.get(&stream) {
            Some(section) => StreamCell {
                stream,
                state: section.state.clone(),
                health: section.health.clone(),
                cursor: section.cursor,
            },
            None => StreamCell {
                stream,
                state: cfg.pristine_stream.clone(),
                health: StreamHealth::new(cfg.health_policy),
                cursor: 0,
            },
        }
    };

    let checkpointer = cfg.checkpoint_path.as_ref().map(|path| {
        let sections: BTreeMap<u64, StreamSection> = streams
            .iter()
            .map(|&stream| {
                let cell = cell_for(stream);
                (
                    stream,
                    StreamSection {
                        stream,
                        cursor: cell.cursor,
                        state: cell.state,
                        health: cell.health,
                    },
                )
            })
            .collect();
        Arc::new(Checkpointer {
            path: path.clone(),
            config_digest: cfg.config_digest,
            shards: shards as u32,
            detector: Arc::clone(detector),
            sections: Mutex::new(sections),
        })
    });

    let fleet_processed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(shards);
    for (shard, owned) in shard_streams.into_iter().enumerate() {
        let cells: Vec<StreamCell> = owned.iter().map(|&s| cell_for(s)).collect();
        let ctx = ShardCtx {
            shard,
            cfg: cfg.clone(),
            detector: Arc::clone(detector),
            sampler_config: sampler_config.clone(),
            streams: owned,
            checkpointer: checkpointer.clone(),
            hot: cells
                .iter()
                .map(|_| Arc::new(AtomicBool::new(false)))
                .collect(),
            shed_low: Arc::new(AtomicU64::new(0)),
            shed_high: Arc::new(AtomicU64::new(0)),
            fleet_processed: Arc::clone(&fleet_processed),
            started,
        };
        handles.push(
            hbmd_obs::spawn(format!("hbmd-shard-{shard}"), move || {
                shard_supervisor(ctx, cells)
            })
            .map_err(|e| CoreError::Config(format!("spawn shard supervisor: {e}")))?,
        );
    }

    let mut shard_reports = Vec::with_capacity(shards);
    let mut verdicts = BTreeMap::new();
    let mut stream_health = BTreeMap::new();
    for handle in handles {
        let (report, cells, captured) = handle
            .join()
            .map_err(|_| CoreError::Config("shard supervisor panicked".to_owned()))??;
        for (slot, cell) in cells.iter().enumerate() {
            stream_health.insert(
                cell.stream,
                (
                    cell.health.standing(),
                    cell.health.quarantines(),
                    cell.health.readmissions(),
                ),
            );
            if cfg.capture_verdicts {
                if let Some(seq) = captured.get(slot) {
                    verdicts.insert(cell.stream, seq.clone());
                }
            }
        }
        shard_reports.push(report);
    }
    shard_reports.sort_by_key(|r| r.shard);
    if let Some(first) = shard_reports.first_mut() {
        first.refusals += initial_refusals;
        first.lost_sections += initial_lost;
    }

    // Final flush: the graceful-shutdown contract — the next start
    // resumes every stream instead of retraining.
    if let Some(checkpointer) = &checkpointer {
        if cfg.checkpoint_every > 0 {
            checkpointer.commit(Vec::new());
        }
    }

    let wall = started.elapsed();
    let processed: u64 = shard_reports.iter().map(|r| r.processed).sum();
    let windows_per_sec = if wall.as_secs_f64() > 0.0 {
        processed as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    hbmd_obs::gauge_set("fleet.windows_per_sec", windows_per_sec as i64);

    let interrupted = shard_reports.iter().any(|r| r.interrupted)
        || cfg
            .stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst));
    Ok(FleetReport {
        processed,
        restarts: shard_reports.iter().map(|r| r.restarts).sum(),
        trips: shard_reports.iter().map(|r| r.trips).sum(),
        degraded: shard_reports.iter().map(|r| r.degraded).sum(),
        shed_low: shard_reports.iter().map(|r| r.shed_low).sum(),
        shed_high: shard_reports.iter().map(|r| r.shed_high).sum(),
        quarantines: shard_reports.iter().map(|r| r.quarantines).sum(),
        readmissions: shard_reports.iter().map(|r| r.readmissions).sum(),
        quarantine_skipped: shard_reports.iter().map(|r| r.quarantine_skipped).sum(),
        refusals: shard_reports.iter().map(|r| r.refusals).sum(),
        lost_sections: shard_reports.iter().map(|r| r.lost_sections).sum(),
        gave_up: shard_reports.iter().filter(|r| r.gave_up).count() as u64,
        max_missed_gap: shard_reports
            .iter()
            .map(|r| r.max_missed_gap)
            .max()
            .unwrap_or(0),
        interrupted,
        wall_ms: wall.as_millis() as u64,
        windows_per_sec,
        verdicts,
        stream_health,
        shards: shard_reports,
    })
}

type ShardOutcome = Result<
    (
        ShardReport,
        Vec<StreamCell>,
        Vec<Vec<Option<OnlineVerdict>>>,
    ),
    CoreError,
>;

fn set_shard_state(ctx: &ShardCtx, state: ServiceState) {
    if let Some(fleet) = &ctx.cfg.fleet_health {
        fleet.shard(ctx.shard).set_state(state);
    }
    let registry = hbmd_obs::current().registry().clone();
    let tag = match state {
        ServiceState::Starting => 0,
        ServiceState::Ready => 1,
        ServiceState::Degraded => 2,
        ServiceState::Restarting => 3,
    };
    registry
        .gauge_with("fleet.shard_state", &[("shard", &ctx.shard.to_string())])
        .set(tag);
}

fn shard_supervisor(ctx: ShardCtx, mut cells: Vec<StreamCell>) -> ShardOutcome {
    let mut backoff =
        Backoff::with_jitter(ctx.cfg.backoff_ms.0, ctx.cfg.backoff_ms.1, ctx.shard as u64);
    let mut report = ShardReport {
        shard: ctx.shard,
        streams: ctx.streams.len() as u64,
        processed: 0,
        restarts: 0,
        trips: 0,
        degraded: 0,
        shed_low: 0,
        shed_high: 0,
        quarantines: 0,
        readmissions: 0,
        quarantine_skipped: 0,
        refusals: 0,
        lost_sections: 0,
        max_missed_gap: 0,
        gave_up: false,
        interrupted: false,
    };

    let capture_len = if ctx.cfg.capture_verdicts {
        usize::try_from(ctx.cfg.windows_limit).unwrap_or(0)
    } else {
        0
    };
    let mut shared = ShardShared {
        breaker: CircuitBreaker::new(ctx.cfg.breaker.0, ctx.cfg.breaker.1, ctx.cfg.breaker.2),
        panic_at: ctx
            .cfg
            .panic_at
            .iter()
            .filter(|(shard, _)| *shard == ctx.shard)
            .map(|(_, cursor)| *cursor)
            .collect(),
        verdicts: vec![vec![None; capture_len]; cells.len()],
        cursors: cells.iter().map(|c| c.cursor).collect(),
        processed: 0,
        degraded: 0,
        quarantines: 0,
        readmissions: 0,
        quarantine_skipped: 0,
        since_checkpoint: 0,
    };

    set_shard_state(&ctx, ServiceState::Ready);
    let interrupted = loop {
        let timeline = FleetTimeline::new(&ctx.sampler_config).map_err(CoreError::from)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(ctx.cfg.queue_capacity.max(1));
        let starts: Vec<u64> = cells.iter().map(|c| c.cursor).collect();
        let producer = spawn_shard_producer(&ctx, timeline, tx, starts);

        let taken = std::mem::take(&mut cells);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shard_worker(&ctx, taken, rx, &mut shared)
        }));
        let _ = producer.join();

        match outcome {
            Ok(exit) => {
                cells = exit.cells;
                break exit.interrupted;
            }
            Err(_) => {
                set_shard_state(&ctx, ServiceState::Restarting);
                if let Some(fleet) = &ctx.cfg.fleet_health {
                    fleet.shard(ctx.shard).record_restart();
                }
                hbmd_obs::incr("supervisor.restarts");
                hbmd_obs::counter_with(
                    "fleet.shard_restarts",
                    &[("shard", &ctx.shard.to_string())],
                )
                .incr();
                report.restarts += 1;
                if let Some(hub) = &ctx.cfg.recorder {
                    hub.record(
                        ctx.shard as u32,
                        &RecorderEvent::Restart {
                            attempt: report.restarts as u32,
                        },
                    );
                }
                if report.restarts > u64::from(ctx.cfg.max_restarts) {
                    // Bulkhead: this shard parks, the fleet lives on.
                    eprintln!(
                        "fleet: shard {} gave up after {} restarts; its {} streams stop",
                        ctx.shard,
                        report.restarts,
                        ctx.streams.len()
                    );
                    report.gave_up = true;
                    cells = Vec::new();
                    set_shard_state(&ctx, ServiceState::Degraded);
                    if let Some(hub) = &ctx.cfg.recorder {
                        let mut trigger = Trigger::new("restart_budget");
                        trigger.shard = Some(ctx.shard as u32);
                        trigger.details =
                            format!("shard gave up after {} restarts", report.restarts);
                        report_bundle(hub.trigger(&trigger));
                    }
                    break false;
                }
                let delay = backoff.next_delay_ms();
                if ctx.cfg.sleep_on_backoff {
                    std::thread::sleep(Duration::from_millis(delay));
                }
                cells = recover_cells(&ctx, &shared, &mut report);
                set_shard_state(&ctx, ServiceState::Ready);
            }
        }
    };

    // Graceful shard exit: commit final sections so a restart resumes.
    if let Some(checkpointer) = &ctx.checkpointer {
        if ctx.cfg.checkpoint_every > 0 && !cells.is_empty() {
            checkpointer.commit(sections_of(&cells));
        }
    }
    if !report.gave_up {
        set_shard_state(&ctx, ServiceState::Ready);
    }

    report.processed = shared.processed;
    report.trips = shared.breaker.trips();
    report.degraded = shared.degraded;
    report.quarantines = shared.quarantines;
    report.readmissions = shared.readmissions;
    report.quarantine_skipped = shared.quarantine_skipped;
    report.shed_low = ctx.shed_low.load(Ordering::SeqCst);
    report.shed_high = ctx.shed_high.load(Ordering::SeqCst);
    report.interrupted = interrupted;
    Ok((report, cells, std::mem::take(&mut shared.verdicts)))
}

fn sections_of(cells: &[StreamCell]) -> Vec<StreamSection> {
    cells
        .iter()
        .map(|cell| StreamSection {
            stream: cell.stream,
            cursor: cell.cursor,
            state: cell.state.clone(),
            health: cell.health.clone(),
        })
        .collect()
}

/// Rebuild a crashed shard's cells from the multiplexed checkpoint:
/// cleanly restored streams resume at their cursor, individually lost
/// sections (and whole-file refusals) fall back pristine.
fn recover_cells(
    ctx: &ShardCtx,
    shared: &ShardShared,
    report: &mut ShardReport,
) -> Vec<StreamCell> {
    let mut restored: BTreeMap<u64, StreamSection> = BTreeMap::new();
    if let Some(path) = &ctx.cfg.checkpoint_path {
        if path.exists() {
            match snapshot::load_fleet(path, ctx.cfg.config_digest) {
                Ok(fleet) => {
                    report.lost_sections += fleet.lost_sections as u64;
                    for section in fleet.streams {
                        restored.insert(section.stream, section);
                    }
                }
                Err(refusal) => {
                    eprintln!(
                        "fleet: shard {} checkpoint refused ({refusal}); streams restart pristine",
                        ctx.shard
                    );
                    hbmd_obs::incr("snapshot.refused");
                    report.refusals += 1;
                    if let Some(hub) = &ctx.cfg.recorder {
                        hub.record(
                            ctx.shard as u32,
                            &RecorderEvent::Fault {
                                stream: 0,
                                cursor: 0,
                                kind: FaultKind::Refusal,
                            },
                        );
                        let mut trigger = Trigger::new("snapshot_refusal");
                        trigger.shard = Some(ctx.shard as u32);
                        trigger.details = format!("{refusal}");
                        report_bundle(hub.trigger(&trigger));
                    }
                }
            }
        }
    }
    ctx.streams
        .iter()
        .enumerate()
        .map(|(slot, &stream)| {
            let cell = match restored.remove(&stream) {
                Some(section) => StreamCell {
                    stream,
                    state: section.state,
                    health: section.health,
                    cursor: section.cursor,
                },
                None => StreamCell {
                    stream,
                    state: ctx.cfg.pristine_stream.clone(),
                    health: StreamHealth::new(ctx.cfg.health_policy),
                    cursor: 0,
                },
            };
            // Crash gap: how far this stream replays to reach where it was.
            let crash_point = shared.cursors[slot];
            report.max_missed_gap = report
                .max_missed_gap
                .max(crash_point.saturating_sub(cell.cursor));
            cell
        })
        .collect()
}

fn spawn_shard_producer(
    ctx: &ShardCtx,
    mut timeline: FleetTimeline,
    tx: SyncSender<(usize, u64, FeatureVector)>,
    starts: Vec<u64>,
) -> std::thread::JoinHandle<()> {
    let streams = ctx.streams.clone();
    let limit = ctx.cfg.windows_limit;
    let pace = ctx.cfg.pace;
    let shed_when_full = ctx.cfg.shed_when_full;
    let stop = ctx.cfg.stop.clone();
    let hot = ctx.hot.clone();
    let shed_low = Arc::clone(&ctx.shed_low);
    let shed_high = Arc::clone(&ctx.shed_high);
    let fleet_health = ctx.cfg.fleet_health.clone();
    let shard = ctx.shard;
    let start_min = starts.iter().copied().min().unwrap_or(0);
    hbmd_obs::spawn(format!("hbmd-timeline-{shard}"), move || {
        let mut cursor = start_min;
        'sweep: while limit == 0 || cursor < limit {
            for (slot, &stream) in streams.iter().enumerate() {
                if stop
                    .as_ref()
                    .is_some_and(|flag| flag.load(Ordering::SeqCst))
                {
                    break 'sweep;
                }
                if cursor < starts[slot] {
                    // This stream resumed further ahead; its replay
                    // starts at its own checkpoint cursor.
                    continue;
                }
                let window = timeline.window(stream, cursor);
                if shed_when_full {
                    match tx.try_send((slot, cursor, window)) {
                        Ok(()) => {}
                        Err(TrySendError::Full(message)) => {
                            if shed_with_priority(
                                &tx,
                                message,
                                hot[slot].load(Ordering::Relaxed),
                                &shed_low,
                                &shed_high,
                            ) {
                                if let Some(fleet) = &fleet_health {
                                    fleet.record_shed(1);
                                }
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => break 'sweep,
                    }
                } else if tx.send((slot, cursor, window)).is_err() {
                    break 'sweep;
                }
            }
            cursor += 1;
            if let Some(pace) = pace {
                std::thread::sleep(pace);
            }
        }
    })
    .expect("spawn fleet timeline producer")
}

/// Counted, prioritized shedding: hot streams (alarmed or on
/// probation) get a bounded retry before their window is dropped; cold
/// streams are shed immediately. Returns `true` when the window was
/// ultimately shed.
fn shed_with_priority(
    tx: &SyncSender<(usize, u64, FeatureVector)>,
    mut message: (usize, u64, FeatureVector),
    hot: bool,
    shed_low: &AtomicU64,
    shed_high: &AtomicU64,
) -> bool {
    if !hot {
        shed_low.fetch_add(1, Ordering::SeqCst);
        hbmd_obs::counter_with("fleet.shed", &[("priority", "low")]).incr();
        return true;
    }
    for _ in 0..10 {
        std::thread::sleep(Duration::from_micros(100));
        match tx.try_send(message) {
            Ok(()) => return false,
            Err(TrySendError::Full(back)) => message = back,
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
    shed_high.fetch_add(1, Ordering::SeqCst);
    hbmd_obs::counter_with("fleet.shed", &[("priority", "high")]).incr();
    true
}

/// Maps a stream standing onto the recorder's self-contained code.
fn standing_kind(standing: StreamStanding) -> StandingKind {
    match standing {
        StreamStanding::Active => StandingKind::Active,
        StreamStanding::Quarantined => StandingKind::Quarantined,
        StreamStanding::Probation => StandingKind::Probation,
    }
}

/// Logs the outcome of a trigger-driven bundle emission. A failed
/// bundle write degrades diagnosability, not liveness.
fn report_bundle(outcome: Result<Option<BundleOutcome>, BundleError>) {
    match outcome {
        Ok(Some(bundle)) => eprintln!(
            "recorder: wrote diagnostic bundle {} ({} events)",
            bundle.path.display(),
            bundle.events
        ),
        Ok(None) => {}
        Err(e) => eprintln!("recorder: bundle write failed: {e}"),
    }
}

/// Builds the flight-recorder record for one observed window: the
/// verdict, vote margin, abstention flag, and the post-sanitize
/// feature values (a fixed-size stack copy — no allocation).
fn window_event(
    stream: u64,
    cursor: u64,
    verdict: OnlineVerdict,
    abstained: bool,
    window: &FeatureVector,
) -> RecorderEvent {
    let (kind, family, votes, of) = match verdict {
        OnlineVerdict::Warmup => (VerdictKind::Warmup, NO_FAMILY, 0, 0),
        OnlineVerdict::Clean => (VerdictKind::Clean, NO_FAMILY, 0, 0),
        OnlineVerdict::Alarm { family, votes, of } => (
            VerdictKind::Alarm,
            family.index() as u8,
            votes as u16,
            of as u16,
        ),
    };
    RecorderEvent::Window {
        stream,
        cursor,
        verdict: kind,
        family,
        votes,
        of,
        abstained,
        features: FeatureFrame::from_slice(window.as_slice()),
    }
}

/// Most messages a worker drains from its queue per blocking receive:
/// one `recv` park/unpark then up to this many windows classified
/// back-to-back while the producer refills, instead of a channel
/// round-trip per window.
const DRAIN_BATCH: usize = 32;

fn shard_worker(
    ctx: &ShardCtx,
    mut cells: Vec<StreamCell>,
    rx: Receiver<(usize, u64, FeatureVector)>,
    shared: &mut ShardShared,
) -> WorkerExit {
    // The per-window counters, resolved once per worker start instead
    // of by name on every window.
    let obs = hbmd_obs::current();
    let windows_counter = obs.registry().counter("fleet.windows");
    let quarantines_counter = obs.registry().counter("fleet.quarantines");
    let readmissions_counter = obs.registry().counter("fleet.readmissions");
    let trips_counter = obs.registry().counter("breaker.trips");
    let mut interrupted = false;
    let mut batch: Vec<(usize, u64, FeatureVector)> = Vec::with_capacity(DRAIN_BATCH);
    'drain: while let Ok(first) = rx.recv() {
        batch.clear();
        batch.push(first);
        while batch.len() < DRAIN_BATCH {
            match rx.try_recv() {
                Ok(message) => batch.push(message),
                Err(_) => break,
            }
        }
        for (slot, cursor, window) in batch.drain(..) {
            if ctx
                .cfg
                .stop
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::SeqCst))
            {
                interrupted = true;
                break 'drain;
            }
            // Injected fault: panic exactly once per scheduled cursor, so
            // the post-restart replay of the same cursor runs clean.
            if shared.panic_at.remove(&cursor) {
                if let Some(hub) = &ctx.cfg.recorder {
                    hub.record(
                        ctx.shard as u32,
                        &RecorderEvent::Fault {
                            stream: cells[slot].stream,
                            cursor,
                            kind: FaultKind::Panic,
                        },
                    );
                }
                panic!(
                    "chaos: injected worker panic on shard {} at window {cursor}",
                    ctx.shard
                );
            }
            let cell = &mut cells[slot];
            if cursor < cell.cursor {
                // Replay below this stream's resume point (another stream
                // on the shard restarted further behind).
                continue;
            }
            let window = if ctx
                .cfg
                .nan_streams
                .iter()
                .any(|&(s, from, to)| s == cell.stream && cursor >= from && cursor < to)
            {
                if let Some(hub) = &ctx.cfg.recorder {
                    hub.record(
                        ctx.shard as u32,
                        &RecorderEvent::Fault {
                            stream: cell.stream,
                            cursor,
                            kind: FaultKind::Nan,
                        },
                    );
                }
                FeatureVector::from_slice(&[f64::NAN; HpcEvent::COUNT])
                    .expect("full-width NaN vector")
            } else {
                window
            };

            if shared.breaker.state() == BreakerState::Open {
                // Shard-degraded: don't feed any vote ring, burn a
                // cooldown tick, account the skipped window.
                shared.degraded += 1;
                let before = shared.breaker.state();
                let after = shared.breaker.record(false);
                if before == BreakerState::Open && after == BreakerState::HalfOpen {
                    set_shard_state(ctx, ServiceState::Ready);
                }
            } else if cell.health.is_quarantined() {
                // Quarantined stream: skip classification, burn one
                // quarantine tick; the shard's breaker never sees it.
                shared.quarantine_skipped += 1;
                let before_standing = cell.health.standing();
                let after_standing = cell.health.record(false);
                if let Some(hub) = &ctx.cfg.recorder {
                    if before_standing != after_standing {
                        hub.record(
                            ctx.shard as u32,
                            &RecorderEvent::Health {
                                stream: cell.stream,
                                cursor,
                                from: standing_kind(before_standing),
                                to: standing_kind(after_standing),
                            },
                        );
                    }
                }
                ctx.hot[slot].store(
                    cell.health.standing() != StreamStanding::Active,
                    Ordering::Relaxed,
                );
            } else {
                let verdict = cell.state.observe(&ctx.detector, &window);
                let faulted = cell.state.last_window_abstained();
                if let Some(hub) = &ctx.cfg.recorder {
                    hub.record(
                        ctx.shard as u32,
                        &window_event(cell.stream, cursor, verdict, faulted, &window),
                    );
                    if cell.state.last_window_suspicious() {
                        // The ensemble-disagreement alarm: the committee
                        // split past the armed threshold (a possible
                        // evasion attempt).
                        let permille = |v: f64| (v.clamp(0.0, 1.0) * 1000.0).round() as u16;
                        hub.record(
                            ctx.shard as u32,
                            &RecorderEvent::Disagreement {
                                stream: cell.stream,
                                cursor,
                                dispersion_permille: permille(
                                    ctx.detector.suspicion(&window).unwrap_or(0.0),
                                ),
                                threshold_permille: permille(
                                    cell.state.suspicion_threshold().unwrap_or(0.0),
                                ),
                            },
                        );
                    }
                }
                let before_standing = cell.health.standing();
                let after_standing = cell.health.record(faulted);
                if let Some(hub) = &ctx.cfg.recorder {
                    if before_standing != after_standing {
                        hub.record(
                            ctx.shard as u32,
                            &RecorderEvent::Health {
                                stream: cell.stream,
                                cursor,
                                from: standing_kind(before_standing),
                                to: standing_kind(after_standing),
                            },
                        );
                    }
                }
                if after_standing == StreamStanding::Quarantined
                    && before_standing != StreamStanding::Quarantined
                {
                    shared.quarantines += 1;
                    quarantines_counter.incr();
                    if let Some(fleet) = &ctx.cfg.fleet_health {
                        fleet.record_quarantine();
                    }
                } else if before_standing == StreamStanding::Probation
                    && after_standing == StreamStanding::Active
                {
                    shared.readmissions += 1;
                    readmissions_counter.incr();
                    if let Some(fleet) = &ctx.cfg.fleet_health {
                        fleet.record_readmission();
                    }
                }
                let before = shared.breaker.state();
                let after = shared.breaker.record(faulted);
                if after == BreakerState::Open && before != BreakerState::Open {
                    if let Some(fleet) = &ctx.cfg.fleet_health {
                        fleet.shard(ctx.shard).record_trip();
                    }
                    trips_counter.incr();
                    set_shard_state(ctx, ServiceState::Degraded);
                    if let Some(hub) = &ctx.cfg.recorder {
                        hub.record(
                            ctx.shard as u32,
                            &RecorderEvent::Breaker {
                                stream: cell.stream,
                                cursor,
                            },
                        );
                        let mut trigger = Trigger::new("breaker_trip");
                        trigger.shard = Some(ctx.shard as u32);
                        trigger.stream = Some(cell.stream);
                        trigger.cursor = Some(cursor);
                        report_bundle(hub.trigger(&trigger));
                    }
                }
                let alarmed = matches!(verdict, OnlineVerdict::Alarm { .. });
                ctx.hot[slot].store(
                    alarmed || after_standing != StreamStanding::Active,
                    Ordering::Relaxed,
                );
                if let Some(sequence) = shared.verdicts.get_mut(slot) {
                    if let Some(entry) =
                        sequence.get_mut(usize::try_from(cursor).unwrap_or(usize::MAX))
                    {
                        *entry = Some(verdict);
                    }
                }
                if ctx.cfg.verbose && slot == 0 {
                    if let OnlineVerdict::Alarm { family, votes, of } = verdict {
                        if cursor.is_multiple_of(16) {
                            eprintln!(
                            "serve: shard {} stream {} ALARM ({family}, {votes}/{of}) at window {cursor}",
                            ctx.shard, cell.stream
                        );
                        }
                    }
                }
            }

            cell.cursor = cursor + 1;
            shared.cursors[slot] = shared.cursors[slot].max(cursor + 1);
            shared.processed += 1;
            shared.since_checkpoint += 1;
            windows_counter.incr();
            let total = ctx.fleet_processed.fetch_add(1, Ordering::Relaxed) + 1;
            if total.is_multiple_of(4096) {
                let elapsed = ctx.started.elapsed().as_secs_f64();
                if elapsed > 0.0 {
                    hbmd_obs::gauge_set("fleet.windows_per_sec", (total as f64 / elapsed) as i64);
                }
            }
            if ctx.cfg.checkpoint_every > 0 && shared.since_checkpoint >= ctx.cfg.checkpoint_every {
                shared.since_checkpoint = 0;
                if let Some(checkpointer) = &ctx.checkpointer {
                    checkpointer.commit(sections_of(&cells));
                    if let Some(hub) = &ctx.cfg.recorder {
                        hub.record(ctx.shard as u32, &RecorderEvent::Checkpoint { cursor });
                    }
                }
            }
        }
    }
    WorkerExit { cells, interrupted }
}
