//! The traced run: time each public call a window passes through, one
//! layer at a time and single-threaded, over the workload's corpus.
//!
//! Each layer is a loop of batches; a span named after the layer wraps
//! every batch and records how many calls it made. A layer's per-call
//! cost is its spans' time from [`Trace::aggregate`] over its call
//! count, so the cost of a span is spread over thousands of calls. The
//! share a compound call adds on top of the calls it makes is derived
//! by subtraction: `classify − predict`, `observe − sanitize −
//! classify`, and multiplexed minus exact counter reads.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbmd_bench::fleet::{run_fleet, FleetConfig};
use hbmd_core::fleet::{StreamHealth, StreamHealthConfig};
use hbmd_core::supervisor::CircuitBreaker;
use hbmd_core::{Detector, SanitizeOutcome, StreamState};
use hbmd_malware::{AppClass, Sample, SampleId};
use hbmd_ml::RowsView;
use hbmd_obs::span::FieldValue;
use hbmd_obs::trace::Trace;
use hbmd_obs::{MemorySink, Registry};
use hbmd_perf::{CounterSource, EventSel, Sampler, SamplerConfig, SimSource};

use crate::corpus::{mix, Corpus, WINDOWS};
use crate::replay::{self, Length};
use crate::setup::Setup;
use crate::stats::percentile;
use crate::{paced, Run};

/// Batches per corpus layer.
const BATCHES: usize = 48;

/// Samples synthesized by the synthesis layers.
const SYNTH_SAMPLES: u32 = 8;

/// Streams and windows per stream of the fleet probe.
const FLEET_PROBE: (u64, u64) = (16, 32);

/// Periods per ladder rung (3 s).
const RUNG_CURSORS: u64 = 300;

/// Run every layer and return its metrics, with the checks that the
/// fleet probe and every paced rung served all their windows. Spans
/// land in `sink`; `registry` is the one the paced ladder scrapes.
pub fn run(
    setup: &Setup,
    corpus: &Corpus,
    faulty: &Corpus,
    threads: usize,
    sink: &MemorySink,
    registry: &Arc<Registry>,
) -> Run {
    let detector = &*setup.detector;
    let mut untraced_observe = (Duration::ZERO, 0u64);
    {
        let _root = hbmd_obs::span!("layers", model = format!("{:?}", setup.model));
        synthesis(&setup.config.collector.sampler);
        {
            let _span = hbmd_obs::span!("ml.train", calls = 1u64);
            black_box(
                setup
                    .model
                    .train(&setup.dataset)
                    .expect("the set-up dataset trains"),
            );
        }

        let width = detector.feature_indices().len();
        let rows: Vec<f64> = corpus
            .windows()
            .iter()
            .flat_map(|w| detector.feature_indices().iter().map(|&i| w.as_slice()[i]))
            .collect();
        let compiled = detector.compiled().expect("J48 and RandomForest compile");
        batches("ml.predict", 4, rows.len() / width, || {
            for row in rows.chunks_exact(width) {
                black_box(compiled.predict(black_box(row)));
            }
        });
        batches("ml.predict_batch", 4, rows.len() / width, || {
            black_box(compiled.predict_batch(RowsView::new(black_box(&rows), width)));
        });
        let windows = corpus.windows();
        batches("core.suspicion", 1, windows.len(), || {
            for w in windows {
                black_box(detector.suspicion(black_box(w)));
            }
        });
        batches("core.sanitize", 1, windows.len(), || {
            for w in windows {
                black_box(detector.sanitizer().sanitize(black_box(w)));
            }
        });
        batches("core.sanitize_faulty", 1, faulty.windows().len(), || {
            for w in faulty.windows() {
                black_box(detector.sanitizer().sanitize(black_box(w)));
            }
        });
        batches("core.classify", 1, windows.len(), || {
            for w in windows {
                black_box(detector.classify(black_box(w)));
            }
        });

        // Observe in replay order; odd rounds run without a span, so the
        // two rates give the cost of tracing.
        let mut states = vec![setup.pristine.clone(); replay::STREAMS as usize];
        let round = |cursor: u64, states: &mut [StreamState]| {
            for (stream, state) in states.iter_mut().enumerate() {
                let (window, _) = corpus.at(stream as u64, cursor);
                black_box(state.observe(detector, window));
            }
        };
        for cursor in 0..(2 * BATCHES) as u64 {
            if cursor % 2 == 0 {
                let _span = hbmd_obs::span!("core.observe", calls = replay::STREAMS);
                round(cursor, &mut states);
            } else {
                let started = Instant::now();
                round(cursor, &mut states);
                untraced_observe.0 += started.elapsed();
                untraced_observe.1 += replay::STREAMS;
            }
        }

        let faults: Vec<bool> = faulty
            .windows()
            .iter()
            .map(|w| {
                matches!(
                    detector.sanitizer().sanitize(w),
                    SanitizeOutcome::Unusable { .. }
                )
            })
            .collect();
        let mut health = StreamHealth::new(StreamHealthConfig::default());
        batches("core.health", 4, faults.len(), || {
            for &f in &faults {
                black_box(health.record(black_box(f)));
            }
        });
        let mut breaker = CircuitBreaker::new(16, 8, 64);
        batches("core.breaker", 4, faults.len(), || {
            for &f in &faults {
                black_box(breaker.record(black_box(f)));
            }
        });

        let n = windows.len();
        batches("obs.incr", 1, n, || {
            for _ in 0..n {
                hbmd_obs::incr("perfbench.incr");
            }
        });
        batches("obs.timer", 1, n, || {
            for _ in 0..n {
                drop(hbmd_obs::timer("perfbench.timer_ns"));
            }
        });
        let counter = registry.counter("perfbench.counter");
        batches("obs.counter", 16, n, || {
            for _ in 0..n {
                counter.incr();
            }
        });
        let histogram = registry.timing("perfbench.histogram_ns");
        batches("obs.histogram_record", 1, n, || {
            for i in 0..n {
                histogram.record(black_box(600 + (i % 256) as u64));
            }
        });
    }

    // Counts: one pass of the checked cursors over the faulted corpus.
    let faulted = replay::run(
        detector,
        &setup.pristine,
        faulty,
        1,
        Length::Cursors(replay::CHECKED as u64),
    );
    let clean = replay::run(
        detector,
        &setup.pristine,
        corpus,
        threads,
        Length::Cursors(replay::CHECKED as u64),
    );

    // Scaling: the same closed loop on one worker and on all of them.
    let timed = Length::Timed {
        warmup: Duration::from_millis(200),
        measure: Duration::from_secs(2),
    };
    let one = replay::run(detector, &setup.pristine, corpus, 1, timed).rate();
    let all = replay::run(detector, &setup.pristine, corpus, threads, timed);

    // The fleet as `repro serve --windows N` runs it: windows
    // synthesized on the spot by each shard's producer, lossless and
    // unpaced, one shard per CPU.
    let shards = threads;
    let fleet = run_fleet(
        &setup.detector,
        &setup.config.collector.sampler,
        &FleetConfig {
            pristine_stream: setup.pristine.clone(),
            max_restarts: 16,
            backoff_ms: (100, 5_000),
            sleep_on_backoff: true,
            breaker: (16, 8, 64),
            capture_verdicts: false,
            ..FleetConfig::lossless(FLEET_PROBE.0, shards, FLEET_PROBE.1)
        },
    )
    .expect("the fleet probe runs");

    let rungs = paced::climb(|streams| {
        paced_rung(
            detector,
            &setup.pristine,
            corpus,
            streams,
            threads,
            registry,
        )
    });
    let sustained = paced::sustained(&rungs);
    // Lateness is read at the highest rung that passed (the first rung
    // when none did): past capacity it only measures the overload.
    let at_sustained = sustained.unwrap_or(&rungs[0]);

    // Per-call costs from the trace.
    let trace = Trace::from_records(&sink.records());
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    for span in &trace.spans {
        if let Some(FieldValue::Uint(n)) = span.record.field("calls") {
            *calls.entry(span.record.name.as_str()).or_insert(0) += n;
        }
    }
    let aggregate = trace.aggregate();
    let per_call = |name: &str| -> f64 {
        let row = aggregate
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no `{name}` spans in the trace"));
        row.total_ns as f64 / calls.get(name).copied().unwrap_or(1).max(1) as f64
    };
    let mut scrapes: Vec<f64> = trace
        .spans
        .iter()
        .filter(|s| s.record.name == "obs.scrape")
        .map(|s| s.record.duration_ns as f64)
        .collect();
    scrapes.sort_by(f64::total_cmp);

    let generate_us = per_call("malware.generate") / 1e3;
    let sample_ms = per_call("perf.sample") / 1e6;
    let read_us = per_call("perf.read_window") / 1e3;
    let exact_us = per_call("perf.read_window_exact") / 1e3;
    let predict = per_call("ml.predict");
    let sanitize = per_call("core.sanitize");
    let classify = per_call("core.classify");
    let observe = per_call("core.observe");
    let untraced = untraced_observe.0.as_nanos() as f64 / untraced_observe.1.max(1) as f64;
    let synth_per_window_us = (generate_us + sample_ms * 1e3) / WINDOWS as f64;
    let (repaired, unusable) = outcome_shares(detector, faulty);

    let metrics = vec![
        ("malware.generate_us", generate_us),
        ("perf.sample_ms", sample_ms),
        ("perf.read_window_us", read_us),
        ("perf.read_window_exact_us", exact_us),
        ("perf.mux_self_us", read_us - exact_us),
        (
            "perf.collect_samples_per_sec",
            setup.config.catalog().len() as f64 / setup.collect_s,
        ),
        (
            "fleet.synth_share",
            fleet.processed as f64 * synth_per_window_us
                / (fleet.wall_ms.max(1) as f64 * 1e3 * shards as f64),
        ),
        ("fleet.processed", fleet.processed as f64),
        ("fleet.restarts", fleet.restarts as f64),
        ("fleet.shed", (fleet.shed_low + fleet.shed_high) as f64),
        ("fleet.wall_ms", fleet.wall_ms as f64),
        ("ml.train_ms", per_call("ml.train") / 1e6),
        ("ml.predict_ns", predict),
        ("ml.predict_batch_ns", per_call("ml.predict_batch")),
        ("core.suspicion_ns", per_call("core.suspicion")),
        ("core.sanitize_ns", sanitize),
        ("core.sanitize_faulty_ns", per_call("core.sanitize_faulty")),
        ("core.repaired_share", repaired),
        ("core.unusable_share", unusable),
        ("core.classify_ns", classify),
        ("core.classify_self_ns", classify - predict),
        ("core.observe_ns", observe),
        ("core.vote_self_ns", observe - sanitize - classify),
        ("core.observe_scaling", all.rate() / (threads as f64 * one)),
        ("core.replay_window_ns", 1e9 / one),
        ("core.replay_p50_us", all.latency_ns(50.0) / 1e3),
        ("core.replay_p99_us", all.latency_ns(99.0) / 1e3),
        ("core.health_ns", per_call("core.health")),
        ("core.breaker_ns", per_call("core.breaker")),
        ("core.abstained", faulted.abstained as f64),
        ("core.quarantine_skipped", faulted.quarantine_skipped as f64),
        ("core.breaker_skipped", faulted.breaker_skipped as f64),
        ("core.quarantines", faulted.quarantines as f64),
        ("core.breaker_trips", faulted.breaker_trips as f64),
        (
            "core.failed_share",
            faulted.failed() as f64 / faulted.windows.max(1) as f64,
        ),
        ("core.false_alarm_rate", clean.rates(corpus).1),
        ("obs.incr_ns", per_call("obs.incr")),
        ("obs.timer_ns", per_call("obs.timer")),
        ("obs.counter_ns", per_call("obs.counter")),
        ("obs.histogram_record_ns", per_call("obs.histogram_record")),
        ("obs.scrape_p50_us", percentile(&scrapes, 50.0) / 1e3),
        ("obs.scrape_max_us", scrapes[scrapes.len() - 1] / 1e3),
        (
            "paced.sustained_streams",
            sustained.map_or(0.0, |r| r.streams as f64),
        ),
        (
            "paced.lateness_p50_us",
            at_sustained.lateness.percentile(50.0) / 1e3,
        ),
        ("paced.lateness_p99_us", at_sustained.lateness_p99_ns / 1e3),
        (
            "paced.generator_late_max_ms",
            at_sustained.generator_late_max_ns as f64 / 1e6,
        ),
        (
            "trace.overhead_pct",
            (observe - untraced) / untraced * 100.0,
        ),
    ];
    let mut result = Run {
        metrics,
        ..Run::default()
    };
    let probe = FLEET_PROBE.0 * FLEET_PROBE.1;
    let shed = fleet.shed_low + fleet.shed_high;
    result.check(
        format!(
            "fleet processed {} of {probe}, restarts {}, shed {shed}, parked shards {}",
            fleet.processed, fleet.restarts, fleet.gave_up
        ),
        fleet.processed == probe && fleet.restarts == 0 && shed == 0 && fleet.gave_up == 0,
    );
    for rung in &rungs {
        result.check(
            format!(
                "{} paced streams: served {} of {} scheduled windows",
                rung.streams, rung.served, rung.scheduled
            ),
            rung.served == rung.scheduled,
        );
    }
    result
}

/// One paced rung over `corpus` on `max(1, threads − 1)` workers, the
/// calling thread scraping `registry` once a second as a `/metrics`
/// scrape would.
fn paced_rung(
    detector: &Detector,
    pristine: &StreamState,
    corpus: &Corpus,
    streams: u64,
    threads: usize,
    registry: &Arc<Registry>,
) -> paced::Rung {
    let workers = threads.saturating_sub(1).max(1);
    let clock = paced::Wall(Instant::now());
    let rung = paced::run_rung(
        &clock,
        streams,
        RUNG_CURSORS,
        workers,
        |w| {
            let mut shard = replay::Shard::new(detector, pristine, streams, w, workers);
            move |slot: usize, cursor: u64| {
                shard.serve(corpus, slot, cursor, None);
            }
        },
        || {
            let _span = hbmd_obs::span!("obs.scrape", calls = 1u64);
            black_box(registry.snapshot());
        },
    );
    let tail = rung.lateness.tail().map_or(String::new(), |(p, ns)| {
        format!(", p{p} {:.1} us", ns / 1e3)
    });
    eprintln!(
        "benchmark: {} streams: {} windows, p50 {:.1} us, p99 {:.1} us{tail}, \
         backlog {:.3} ms, generator late {:.3} ms, {}",
        rung.streams,
        rung.served,
        rung.lateness.percentile(50.0) / 1e3,
        rung.lateness_p99_ns / 1e3,
        rung.backlog_ns as f64 / 1e6,
        rung.generator_late_max_ns as f64 / 1e6,
        if rung.passes() {
            "within limits"
        } else {
            "over limits"
        }
    );
    rung
}

/// Open a span around each of [`BATCHES`] calls of `body`, each making
/// `reps × per_body` calls of the layer.
fn batches(name: &'static str, reps: usize, per_body: usize, mut body: impl FnMut()) {
    for _ in 0..BATCHES {
        let _span = hbmd_obs::span!(name, calls = (reps * per_body) as u64);
        for _ in 0..reps {
            body();
        }
    }
}

/// The synthesis layers: sample generation, whole-sample collection,
/// and single multiplexed and exact counter reads, alternated sample by
/// sample so both see the same host.
fn synthesis(sampler: &SamplerConfig) {
    let samples: Vec<Sample> = (0..SYNTH_SAMPLES)
        .map(|i| {
            let class = AppClass::ALL[i as usize % AppClass::COUNT];
            Sample::generate(SampleId(60_000 + i), class, mix(u64::from(i)))
        })
        .collect();
    for chunk in samples.chunks(2) {
        let _span = hbmd_obs::span!("malware.generate", calls = chunk.len() as u64);
        for s in chunk {
            black_box(Sample::generate(s.id(), s.class(), s.seed()));
        }
    }
    let collector = Sampler::new(sampler.clone()).expect("the paper sampler is valid");
    for chunk in samples.chunks(2) {
        let _span = hbmd_obs::span!("perf.sample", calls = chunk.len() as u64);
        for s in chunk {
            black_box(collector.collect_sample(s));
        }
    }
    let exact = SamplerConfig {
        pmu: None,
        ..sampler.clone()
    };
    for s in &samples {
        for (name, config) in [
            ("perf.read_window", sampler),
            ("perf.read_window_exact", &exact),
        ] {
            let mut source = SimSource::new(config, s).expect("valid sampler");
            source
                .program(&EventSel::paper_set())
                .expect("the paper set programs");
            let _span = hbmd_obs::span!(name, calls = WINDOWS as u64);
            for _ in 0..WINDOWS {
                black_box(source.read_window().expect("the simulator never fails"));
            }
        }
    }
}

/// Shares of the faulted corpus the sanitizer repaired and rejected.
fn outcome_shares(detector: &hbmd_core::Detector, faulty: &Corpus) -> (f64, f64) {
    let (mut repaired, mut unusable) = (0usize, 0usize);
    for w in faulty.windows() {
        match detector.sanitizer().sanitize(w) {
            SanitizeOutcome::Repaired { .. } => repaired += 1,
            SanitizeOutcome::Unusable { .. } => unusable += 1,
            SanitizeOutcome::Clean(_) => {}
        }
    }
    let n = faulty.windows().len().max(1) as f64;
    (repaired as f64 / n, unusable as f64 / n)
}
