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
//!
//! Supervision is counted once, into the calling thread's metrics
//! registry through [`FleetHealth`]: shard states, restarts, breaker
//! trips, quarantines, readmissions and shed windows. The per-run
//! [`FleetReport`] is what the chaos drills and tests assert on.

use std::collections::BTreeMap;
use std::num::NonZeroU64;
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
use hbmd_obs::health::{FleetHealth, Health, ServiceState};
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

/// The per-stream synthetic workload: each stream follows the
/// [`PHASES`] schedule at its own phase offset, with sample content
/// seeded from the stream id and sample index, and each window is read
/// from the sampler's counter source ([`SamplerConfig::source`]). On
/// the simulator source window `k` of stream `s` is a pure function of
/// `(s, k)`: any window can be regenerated at any time, on any shard
/// layout, which is what makes both checkpoint replay and the
/// shard-count determinism proof exact. A window the source cannot
/// read is served all-`NaN`, and the sanitizer abstains on it.
pub struct FleetTimeline {
    sampler: Sampler,
    /// stream → (sample index, its 16 windows); one live sample per
    /// stream keeps sequential sweeps cheap.
    cache: BTreeMap<u64, (u64, Vec<FeatureVector>)>,
}

impl FleetTimeline {
    /// A timeline over the collector's sampler settings, counter
    /// source included (forced to [`WINDOWS_PER_SAMPLE`] windows per
    /// sample).
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

/// Bounded producer→worker queue depth per shard.
pub const QUEUE_CAPACITY: usize = 64;

/// Where and how often a fleet checkpoints.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The multiplexed snapshot, restored from at start-up and on every
    /// shard restart when it exists.
    pub path: PathBuf,
    /// Commit a shard's sections once it has processed this many
    /// windows since its last commit.
    pub every: NonZeroU64,
    /// Run-config digest stamped into (and demanded from) snapshots.
    pub config_digest: u64,
}

/// How [`run_fleet`] should behave — shared by the live fleet monitor
/// (paced, shedding) and the chaos/determinism harness (unpaced,
/// lossless, with injected faults).
///
/// The fleet's health — shard states, restarts, breaker trips,
/// quarantines, readmissions and shed windows — is counted into the
/// calling thread's metrics registry through a
/// [`FleetHealth`]; a `/readyz` view built over the same registry reads
/// it live.
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
    /// The multiplexed checkpoint; `None` neither restores nor writes.
    pub checkpoint: Option<Checkpoint>,
    /// Producer pacing per timeline sweep (one window of every stream
    /// in the shard), or `None` to stream at full speed. A paced (live)
    /// fleet sheds windows with counted priority when a shard's queue
    /// is full; an unpaced one blocks the producer instead — lossless,
    /// as replay and determinism require.
    pub pace: Option<Duration>,
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
    /// Cooperative shutdown flag, such as the one a SIGINT handler
    /// raises.
    pub stop: Option<&'static AtomicBool>,
    /// Record every stream's per-cursor verdict sequence in the report
    /// (determinism/chaos invariants). Requires a finite limit; keep
    /// `streams × windows_limit` small.
    pub capture_verdicts: bool,
    /// Print alarm lines for stream 0 to stderr (live mode).
    pub verbose: bool,
    /// Per-shard flight recorders plus the bundle-emission policy;
    /// `None` (the default) records nothing and triggers nothing.
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
            checkpoint: None,
            pace: None,
            max_restarts: 8,
            backoff_ms: (50, 800),
            sleep_on_backoff: false,
            breaker: (16, 8, 32),
            panic_at: Vec::new(),
            nan_streams: Vec::new(),
            stop: None,
            capture_verdicts: true,
            verbose: false,
            recorder: None,
        }
    }
}

/// What one shard did in this run — the bulkhead-local counters the
/// chaos harness asserts isolation on.
#[derive(Debug, Clone, Default)]
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
    /// Checkpoint refusals (whole-file) during this shard's recoveries;
    /// shard 0 also counts the fleet's start-up restore.
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

/// The shared multiplexed checkpoint: every shard commits its own
/// sections; the file is always rewritten whole (atomic rename) with
/// the latest committed view of every stream.
struct Checkpointer {
    checkpoint: Checkpoint,
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
            self.checkpoint.config_digest,
            &all,
            &self.checkpoint.path,
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
    health: Arc<FleetHealth>,
    /// slot → "hot" flag (alarmed/probation) for shedding priority.
    hot: Vec<Arc<AtomicBool>>,
    /// Fleet-wide processed counter feeding the throughput gauge.
    fleet_processed: Arc<AtomicU64>,
    started: Instant,
}

impl ShardCtx {
    /// This shard's health series.
    fn shard_health(&self) -> &Health {
        self.health.shard(self.shard)
    }
}

/// What a worker hands back when its queue closes. Each stream's live
/// state is the section it checkpoints.
struct WorkerExit {
    cells: Vec<StreamSection>,
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
    let health = Arc::new(FleetHealth::new(hbmd_obs::current().registry(), shards));
    let mut reports: Vec<ShardReport> = (0..shards)
        .map(|shard| ShardReport {
            shard,
            ..ShardReport::default()
        })
        .collect();

    // Start-up restore: one multiplexed load for the whole fleet.
    let cells = restore(cfg, None, &streams, &mut reports[0]);
    let checkpointer = cfg.checkpoint.as_ref().map(|checkpoint| {
        Arc::new(Checkpointer {
            checkpoint: checkpoint.clone(),
            shards: shards as u32,
            detector: Arc::clone(detector),
            sections: Mutex::new(cells.iter().map(|c| (c.stream, c.clone())).collect()),
        })
    });

    // Placement: stream → shard, stable under any shard count.
    let mut shard_cells: Vec<Vec<StreamSection>> = vec![Vec::new(); shards];
    for cell in cells {
        shard_cells[shard_of(cell.stream, shards)].push(cell);
    }

    let fleet_processed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(shards);
    for ((shard, cells), mut report) in shard_cells.into_iter().enumerate().zip(reports) {
        report.streams = cells.len() as u64;
        let ctx = ShardCtx {
            shard,
            cfg: cfg.clone(),
            detector: Arc::clone(detector),
            sampler_config: sampler_config.clone(),
            streams: cells.iter().map(|c| c.stream).collect(),
            checkpointer: checkpointer.clone(),
            health: Arc::clone(&health),
            hot: cells
                .iter()
                .map(|_| Arc::new(AtomicBool::new(false)))
                .collect(),
            fleet_processed: Arc::clone(&fleet_processed),
            started,
        };
        handles.push(
            hbmd_obs::spawn(format!("hbmd-shard-{shard}"), move || {
                shard_supervisor(ctx, cells, report)
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

    // Final flush: the graceful-shutdown contract — the next start
    // resumes every stream instead of retraining.
    if let Some(checkpointer) = &checkpointer {
        checkpointer.commit(Vec::new());
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
        || cfg.stop.is_some_and(|flag| flag.load(Ordering::SeqCst));
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
        Vec<StreamSection>,
        Vec<Vec<Option<OnlineVerdict>>>,
    ),
    CoreError,
>;

fn shard_supervisor(
    ctx: ShardCtx,
    mut cells: Vec<StreamSection>,
    mut report: ShardReport,
) -> ShardOutcome {
    let mut backoff =
        Backoff::with_jitter(ctx.cfg.backoff_ms.0, ctx.cfg.backoff_ms.1, ctx.shard as u64);
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
        since_checkpoint: 0,
    };

    let health = ctx.shard_health();
    health.set_quarantined(out_of_service(&cells));
    health.set_state(ServiceState::Ready);
    let interrupted = loop {
        let timeline = FleetTimeline::new(&ctx.sampler_config).map_err(CoreError::from)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(QUEUE_CAPACITY);
        let starts: Vec<u64> = cells.iter().map(|c| c.cursor).collect();
        let producer = spawn_shard_producer(&ctx, timeline, tx, starts);

        let taken = std::mem::take(&mut cells);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shard_worker(&ctx, taken, rx, &mut shared, &mut report)
        }));
        if let Ok([low, high]) = producer.join() {
            report.shed_low += low;
            report.shed_high += high;
        }

        match outcome {
            Ok(exit) => {
                cells = exit.cells;
                break exit.interrupted;
            }
            Err(_) => {
                health.set_state(ServiceState::Restarting);
                health.record_restart();
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
                    health.set_state(ServiceState::Degraded);
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
                cells = restore(&ctx.cfg, Some(ctx.shard), &ctx.streams, &mut report);
                // Crash gap: how far each stream replays to reach where
                // it was.
                for (cell, &crash_point) in cells.iter().zip(&shared.cursors) {
                    report.max_missed_gap = report
                        .max_missed_gap
                        .max(crash_point.saturating_sub(cell.cursor));
                }
                health.set_quarantined(out_of_service(&cells));
                health.set_state(ServiceState::Ready);
            }
        }
    };

    // Graceful shard exit: commit final sections so a restart resumes.
    if let Some(checkpointer) = &ctx.checkpointer {
        if !cells.is_empty() {
            checkpointer.commit(cells.clone());
        }
    }
    if !report.gave_up {
        health.set_state(ServiceState::Ready);
    }
    report.trips = shared.breaker.trips();
    report.interrupted = interrupted;
    Ok((report, cells, std::mem::take(&mut shared.verdicts)))
}

/// The sections of `streams` as the checkpoint holds them: a stream
/// whose section loads resumes at its cursor; a lost section, a refused
/// file or no file at all start it pristine. `shard` is the restarting
/// shard, or `None` for the whole fleet at start-up. Refusals and lost
/// sections count into `report`.
fn restore(
    cfg: &FleetConfig,
    shard: Option<usize>,
    streams: &[u64],
    report: &mut ShardReport,
) -> Vec<StreamSection> {
    let mut restored: BTreeMap<u64, StreamSection> = BTreeMap::new();
    if let Some(checkpoint) = cfg.checkpoint.as_ref().filter(|c| c.path.exists()) {
        match snapshot::load_fleet(&checkpoint.path, checkpoint.config_digest) {
            Ok(fleet) => {
                report.lost_sections += fleet.lost_sections as u64;
                restored.extend(fleet.streams.into_iter().map(|s| (s.stream, s)));
            }
            Err(refusal) => {
                let whose = shard.map_or("the fleet's".to_owned(), |s| format!("shard {s}'s"));
                eprintln!("fleet: checkpoint refused ({refusal}); {whose} streams start pristine");
                hbmd_obs::incr("snapshot.refused");
                report.refusals += 1;
                if let Some(hub) = &cfg.recorder {
                    hub.record(
                        shard.unwrap_or(0) as u32,
                        &RecorderEvent::Fault {
                            stream: 0,
                            cursor: 0,
                            kind: FaultKind::Refusal,
                        },
                    );
                    let mut trigger = Trigger::new("snapshot_refusal");
                    trigger.shard = shard.map(|s| s as u32);
                    trigger.details = refusal.to_string();
                    report_bundle(hub.trigger(&trigger));
                }
            }
        }
    }
    streams
        .iter()
        .map(|&stream| {
            restored.remove(&stream).unwrap_or_else(|| StreamSection {
                stream,
                cursor: 0,
                state: cfg.pristine_stream.clone(),
                health: StreamHealth::new(StreamHealthConfig::default()),
            })
        })
        .collect()
}

/// Streams quarantined or on probation among `cells`.
fn out_of_service(cells: &[StreamSection]) -> u64 {
    cells
        .iter()
        .filter(|c| c.health.standing() != StreamStanding::Active)
        .count() as u64
}

/// Feeds a shard's queue from the timeline until the limit, the stop
/// flag or a closed queue; returns the windows it shed, `[cold, hot]`.
fn spawn_shard_producer(
    ctx: &ShardCtx,
    mut timeline: FleetTimeline,
    tx: SyncSender<(usize, u64, FeatureVector)>,
    starts: Vec<u64>,
) -> std::thread::JoinHandle<[u64; 2]> {
    let streams = ctx.streams.clone();
    let limit = ctx.cfg.windows_limit;
    let pace = ctx.cfg.pace;
    let shed_when_full = pace.is_some();
    let stop = ctx.cfg.stop;
    let hot = ctx.hot.clone();
    let health = Arc::clone(&ctx.health);
    let shard = ctx.shard;
    let start_min = starts.iter().copied().min().unwrap_or(0);
    hbmd_obs::spawn(format!("hbmd-timeline-{shard}"), move || {
        let mut shed = [0u64; 2];
        let mut cursor = start_min;
        'sweep: while limit == 0 || cursor < limit {
            for (slot, &stream) in streams.iter().enumerate() {
                if stop.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
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
                            let hot = hot[slot].load(Ordering::Relaxed);
                            if shed_with_priority(&tx, message, hot) {
                                shed[usize::from(hot)] += 1;
                                health.record_shed(hot);
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
        shed
    })
    .expect("spawn fleet timeline producer")
}

/// Prioritized shedding: hot streams (alarmed or on probation) get a
/// bounded retry before their window is dropped; cold streams are shed
/// immediately. Returns `true` when the window was ultimately shed.
fn shed_with_priority(
    tx: &SyncSender<(usize, u64, FeatureVector)>,
    mut message: (usize, u64, FeatureVector),
    hot: bool,
) -> bool {
    if !hot {
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

/// Accounts one window's move of a stream's standing, if it moved: the
/// flight recorder, the shard's report, and the fleet's health, whose
/// out-of-service count is recounted from `cells`' standings.
fn standing_changed(
    ctx: &ShardCtx,
    report: &mut ShardReport,
    cells: &[StreamSection],
    stream: u64,
    cursor: u64,
    before: StreamStanding,
    after: StreamStanding,
) {
    if before == after {
        return;
    }
    if let Some(hub) = &ctx.cfg.recorder {
        hub.record(
            ctx.shard as u32,
            &RecorderEvent::Health {
                stream,
                cursor,
                from: standing_kind(before),
                to: standing_kind(after),
            },
        );
    }
    match (before, after) {
        (_, StreamStanding::Quarantined) => {
            report.quarantines += 1;
            ctx.health.record_quarantine();
        }
        (StreamStanding::Probation, StreamStanding::Active) => {
            report.readmissions += 1;
            ctx.health.record_readmission();
        }
        _ => {}
    }
    ctx.shard_health().set_quarantined(out_of_service(cells));
}

/// Most messages a worker drains from its queue per blocking receive:
/// one `recv` park/unpark then up to this many windows classified
/// back-to-back while the producer refills, instead of a channel
/// round-trip per window.
const DRAIN_BATCH: usize = 32;

fn shard_worker(
    ctx: &ShardCtx,
    mut cells: Vec<StreamSection>,
    rx: Receiver<(usize, u64, FeatureVector)>,
    shared: &mut ShardShared,
    report: &mut ShardReport,
) -> WorkerExit {
    // Resolved once per worker start instead of by name on every window.
    let windows_counter = hbmd_obs::current().registry().counter("fleet.windows");
    let health = ctx.shard_health();
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
            if ctx.cfg.stop.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                interrupted = true;
                break 'drain;
            }
            let stream = cells[slot].stream;
            // Injected fault: panic exactly once per scheduled cursor, so
            // the post-restart replay of the same cursor runs clean.
            if shared.panic_at.remove(&cursor) {
                if let Some(hub) = &ctx.cfg.recorder {
                    hub.record(
                        ctx.shard as u32,
                        &RecorderEvent::Fault {
                            stream,
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
                .any(|&(s, from, to)| s == stream && cursor >= from && cursor < to)
            {
                if let Some(hub) = &ctx.cfg.recorder {
                    hub.record(
                        ctx.shard as u32,
                        &RecorderEvent::Fault {
                            stream,
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

            cell.cursor = cursor + 1;
            let before = cell.health.standing();
            if shared.breaker.state() == BreakerState::Open {
                // Shard-degraded: don't feed any vote ring, burn a
                // cooldown tick, account the skipped window.
                report.degraded += 1;
                if shared.breaker.record(false) == BreakerState::HalfOpen {
                    health.set_state(ServiceState::Ready);
                }
            } else if cell.health.is_quarantined() {
                // Quarantined stream: skip classification, burn one
                // quarantine tick; the shard's breaker never sees it.
                report.quarantine_skipped += 1;
                let after = cell.health.record(false);
                standing_changed(ctx, report, &cells, stream, cursor, before, after);
                ctx.hot[slot].store(after != StreamStanding::Active, Ordering::Relaxed);
            } else {
                let verdict = cell.state.observe(&ctx.detector, &window);
                let faulted = cell.state.last_window_abstained();
                if let Some(hub) = &ctx.cfg.recorder {
                    hub.record(
                        ctx.shard as u32,
                        &window_event(stream, cursor, verdict, faulted, &window),
                    );
                    if cell.state.last_window_suspicious() {
                        // The ensemble-disagreement alarm: the committee
                        // split past the armed threshold (a possible
                        // evasion attempt). `observe` kept the split, so
                        // the forest is not walked again here.
                        let permille = |v: f64| (v.clamp(0.0, 1.0) * 1000.0).round() as u16;
                        hub.record(
                            ctx.shard as u32,
                            &RecorderEvent::Disagreement {
                                stream,
                                cursor,
                                dispersion_permille: permille(
                                    cell.state.last_window_dispersion().unwrap_or(0.0),
                                ),
                                threshold_permille: permille(
                                    cell.state.suspicion_threshold().unwrap_or(0.0),
                                ),
                            },
                        );
                    }
                }
                let after = cell.health.record(faulted);
                standing_changed(ctx, report, &cells, stream, cursor, before, after);
                // The breaker is not open here, so an open one just tripped.
                if shared.breaker.record(faulted) == BreakerState::Open {
                    health.record_trip();
                    health.set_state(ServiceState::Degraded);
                    if let Some(hub) = &ctx.cfg.recorder {
                        hub.record(ctx.shard as u32, &RecorderEvent::Breaker { stream, cursor });
                        let mut trigger = Trigger::new("breaker_trip");
                        trigger.shard = Some(ctx.shard as u32);
                        trigger.stream = Some(stream);
                        trigger.cursor = Some(cursor);
                        report_bundle(hub.trigger(&trigger));
                    }
                }
                let alarmed = matches!(verdict, OnlineVerdict::Alarm { .. });
                ctx.hot[slot].store(
                    alarmed || after != StreamStanding::Active,
                    Ordering::Relaxed,
                );
                if let Some(sequence) = shared.verdicts.get_mut(slot) {
                    if let Some(entry) =
                        sequence.get_mut(usize::try_from(cursor).unwrap_or(usize::MAX))
                    {
                        *entry = Some(verdict);
                    }
                }
                if ctx.cfg.verbose && stream == 0 && cursor.is_multiple_of(16) {
                    if let OnlineVerdict::Alarm { family, votes, of } = verdict {
                        eprintln!(
                            "serve: shard {} stream 0 ALARM ({family}, {votes}/{of}) at window {cursor}",
                            ctx.shard
                        );
                    }
                }
            }

            shared.cursors[slot] = shared.cursors[slot].max(cursor + 1);
            report.processed += 1;
            windows_counter.incr();
            let total = ctx.fleet_processed.fetch_add(1, Ordering::Relaxed) + 1;
            if total.is_multiple_of(4096) {
                let elapsed = ctx.started.elapsed().as_secs_f64();
                if elapsed > 0.0 {
                    hbmd_obs::gauge_set("fleet.windows_per_sec", (total as f64 / elapsed) as i64);
                }
            }
            if let Some(checkpointer) = &ctx.checkpointer {
                shared.since_checkpoint += 1;
                if shared.since_checkpoint >= checkpointer.checkpoint.every.get() {
                    shared.since_checkpoint = 0;
                    checkpointer.commit(cells.clone());
                    if let Some(hub) = &ctx.cfg.recorder {
                        hub.record(ctx.shard as u32, &RecorderEvent::Checkpoint { cursor });
                    }
                }
            }
        }
    }
    WorkerExit { cells, interrupted }
}
