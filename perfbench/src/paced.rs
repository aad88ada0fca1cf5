//! The open-loop paced load: every stream sends one window every
//! 10 ms whatever the workers are doing, and each window's lateness is
//! timed from when it was due, so a stall shows up in every window it
//! delays, not only in the one it hit.
//!
//! Each worker is its own generator: it walks the due times of the
//! streams [`shard_of`] places on it and serves each window as soon as
//! it is due, or at once when it is already late. No queue or thread
//! hand-off sits between schedule and service, so what is timed is the
//! serving path; the calling thread only scrapes the registry.

use std::time::{Duration, Instant};

use hbmd_core::fleet::shard_of;

use crate::stats::Histogram;

/// The sampling period each stream sends at.
pub const PERIOD_NS: u64 = 10_000_000;

/// Stream counts tried, lowest first.
pub const LADDER: [u64; 8] = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000];

/// A rung fails when p99 lateness exceeds this.
pub const LATENESS_LIMIT_NS: f64 = 1_000_000.0;

/// A rung fails when the last window finishes more than this late.
pub const BACKLOG_LIMIT_NS: u64 = 10_000_000;

/// How often the calling thread scrapes the metrics registry.
pub const SCRAPE_EVERY: Duration = Duration::from_secs(1);

/// A monotonic nanosecond clock.
pub trait Clock: Sync {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// The wall clock.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What one rung measured.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// Streams sending.
    pub streams: u64,
    /// Windows scheduled.
    pub scheduled: u64,
    /// Windows served.
    pub served: u64,
    /// Lateness (due → verdict) of every window served, ns.
    pub lateness: Histogram,
    /// 99th-percentile lateness over the whole rung, ns.
    pub lateness_p99_ns: f64,
    /// Lateness of the last window each worker served, worst worker, ns.
    pub backlog_ns: u64,
    /// How late, at worst, a window was picked up for service, ns.
    pub generator_late_max_ns: u64,
}

impl Rung {
    /// `true` when the rung met the lateness limit without a backlog.
    pub fn passes(&self) -> bool {
        self.served == self.scheduled
            && self.lateness_p99_ns <= LATENESS_LIMIT_NS
            && self.backlog_ns <= BACKLOG_LIMIT_NS
    }
}

/// Due time of window `cursor` of stream `stream` among `streams`:
/// streams are phase-shifted evenly across the period.
pub fn due_ns(stream: u64, cursor: u64, streams: u64) -> u64 {
    cursor * PERIOD_NS + stream * PERIOD_NS / streams
}

/// What one worker served.
#[derive(Default)]
struct Served {
    /// Lateness of every window, ns.
    lateness: Histogram,
    /// Lateness of the last window, ns.
    last_late: u64,
    /// Worst pick-up delay, ns.
    picked_late_max: u64,
}

/// Run one rung: `streams` streams for `cursors` periods on `workers`
/// workers. `make_worker(w)` builds worker `w`'s serve function, which
/// takes `(slot, cursor)` for the streams [`shard_of`] places on it,
/// slot `i` being its `i`-th stream in stream order. The calling thread
/// calls `scrape` every [`SCRAPE_EVERY`] until the workers finish.
pub fn run_rung<C, F, S>(
    clock: &C,
    streams: u64,
    cursors: u64,
    workers: usize,
    make_worker: F,
    mut scrape: impl FnMut(),
) -> Rung
where
    C: Clock,
    F: Fn(usize) -> S + Sync,
    S: FnMut(usize, u64),
{
    let workers = workers.max(1);
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); workers];
    for stream in 0..streams {
        owned[shard_of(stream, workers)].push(stream);
    }
    let mut rung = Rung {
        streams,
        scheduled: streams * cursors,
        ..Rung::default()
    };
    let origin = clock.now_ns();
    let results: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .iter()
            .enumerate()
            .map(|(w, mine)| {
                let make_worker = &make_worker;
                scope.spawn(move || {
                    let mut serve = make_worker(w);
                    let mut served = Served::default();
                    for cursor in 0..cursors {
                        for (slot, &stream) in mine.iter().enumerate() {
                            let due = origin + due_ns(stream, cursor, streams);
                            let mut started = clock.now_ns();
                            while started < due {
                                std::hint::spin_loop();
                                started = clock.now_ns();
                            }
                            serve(slot, cursor);
                            let done = clock.now_ns();
                            served.picked_late_max = served.picked_late_max.max(started - due);
                            served.last_late = done - due;
                            served.lateness.record(served.last_late);
                        }
                    }
                    served
                })
            })
            .collect();
        let started = Instant::now();
        let mut next_scrape = SCRAPE_EVERY;
        while !handles.iter().all(|h| h.is_finished()) {
            let elapsed = started.elapsed();
            if elapsed >= next_scrape {
                scrape();
                next_scrape += SCRAPE_EVERY;
            } else {
                std::thread::sleep((next_scrape - elapsed).min(Duration::from_millis(5)));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("paced worker panicked"))
            .collect()
    });
    for served in results {
        rung.served += served.lateness.count();
        rung.backlog_ns = rung.backlog_ns.max(served.last_late);
        rung.generator_late_max_ns = rung.generator_late_max_ns.max(served.picked_late_max);
        rung.lateness.merge(&served.lateness);
    }
    rung.lateness_p99_ns = rung.lateness.percentile(99.0);
    rung
}

/// Climb [`LADDER`], running each rung with `run`, and stop after the
/// first rung that fails. Returns every rung run, in order.
pub fn climb(mut run: impl FnMut(u64) -> Rung) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for streams in LADDER {
        let rung = run(streams);
        let passed = rung.passes();
        rungs.push(rung);
        if !passed {
            break;
        }
    }
    rungs
}

/// The highest rung that passed, if any.
pub fn sustained(rungs: &[Rung]) -> Option<&Rung> {
    rungs.iter().take_while(|r| r.passes()).last()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A clock that advances `step` ns per read, and jumps `stall` ns
    /// once, at read number `stall_at`.
    struct Stalling {
        reads: AtomicU64,
        step: u64,
        stall_at: u64,
        stall: u64,
    }

    impl Clock for Stalling {
        fn now_ns(&self) -> u64 {
            let n = self.reads.fetch_add(1, Ordering::SeqCst);
            n * self.step + if n >= self.stall_at { self.stall } else { 0 }
        }
    }

    #[test]
    fn lateness_counts_from_the_due_time_through_a_stall() {
        // Two streams on one worker, due every 5 ms; each clock read
        // advances 100 µs, so a window is picked up on its due time and
        // finishes one read later. Read 500, at 50 ms, jumps to 100 ms:
        // the eleven windows due from 50 to 100 ms are served in a row
        // once the clock resumes, each late by the time it waited.
        let clock = Stalling {
            reads: AtomicU64::new(0),
            step: 100_000,
            stall_at: 500,
            stall: 50_000_000,
        };
        let rung = run_rung(&clock, 2, 20, 1, |_| |_: usize, _: u64| {}, || {});
        assert_eq!(rung.served, 40);
        let near = |value: f64, want: f64| (value - want).abs() <= want / 1024.0;
        // 28 windows one read late; the first, two reads late (the origin
        // took a read); then the 11 the stall delayed, by 2.1 to 50.1 ms.
        assert!(near(rung.lateness.percentile(70.0), 100_000.0), "{rung:?}");
        assert!(near(rung.lateness.percentile(72.5), 200_000.0), "{rung:?}");
        assert!(
            near(rung.lateness.percentile(75.0), 2_100_000.0),
            "{rung:?}"
        );
        assert!(near(rung.lateness_p99_ns, 50_100_000.0), "{rung:?}");
        assert_eq!(rung.generator_late_max_ns, 50_000_000);
        assert!(!rung.passes());
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let fake = |streams: u64| Rung {
            streams,
            scheduled: 1,
            served: 1,
            lateness_p99_ns: if streams >= 4_000 { 2e6 } else { 1e3 },
            ..Rung::default()
        };
        let rungs = climb(fake);
        let tried: Vec<u64> = rungs.iter().map(|r| r.streams).collect();
        assert_eq!(tried, [1_000, 2_000, 4_000]);
        assert_eq!(sustained(&rungs).map(|r| r.streams), Some(2_000));
    }

    #[test]
    fn streams_are_spread_across_the_period() {
        assert_eq!(due_ns(0, 0, 4), 0);
        assert_eq!(due_ns(1, 0, 4), PERIOD_NS / 4);
        assert_eq!(due_ns(3, 2, 4), 2 * PERIOD_NS + 3 * PERIOD_NS / 4);
    }
}
