//! Backend-conformance suite for the [`CounterSource`] contract: the
//! same assertions run against every backend — the deterministic
//! simulator unconditionally, and (with `--features perf-backend`) the
//! live `perf_event_open` backend behind a runtime probe-and-skip so
//! the suite passes on unprivileged CI runners.

use hbmd::events::HpcEvent;
use hbmd::malware::{AppClass, Sample, SampleId};
use hbmd::perf::{open_source, CounterSource, EventSel, PerfError, SamplerConfig, SourceSelect};

fn sample() -> Sample {
    Sample::generate(SampleId(11), AppClass::Worm, 7)
}

/// The fast sampler reading live counters.
fn perf_config() -> SamplerConfig {
    SamplerConfig {
        source: SourceSelect::Perf,
        ..SamplerConfig::fast()
    }
}

/// The shared contract: every backend must refuse reads before
/// programming, refuse partial event selections, and then produce
/// `windows_per_sample`-independent 16-wide windows with coherent
/// scheduling telemetry.
fn assert_source_conformance(mut source: Box<dyn CounterSource>, backend: &str) {
    let caps = source.caps();
    assert_eq!(caps.backend, backend);
    assert!(caps.counters > 0, "{backend}: no counter registers");

    // Reading before programming is a typed configuration error.
    assert!(
        matches!(source.read_window(), Err(PerfError::Config(_))),
        "{backend}: read before program must fail"
    );

    // Partial selections are rejected — the dataset schema is 16 wide.
    let set = EventSel::paper_set();
    assert!(
        source.program(&set[..4]).is_err(),
        "{backend}: partial selection accepted"
    );
    assert!(
        source.program(&[]).is_err(),
        "{backend}: empty selection accepted"
    );

    source.program(&set).expect("paper set programs");
    for w in 0..4 {
        let window = source.read_window().expect("programmed read succeeds");
        assert_eq!(
            window.features.as_slice().len(),
            HpcEvent::COUNT,
            "{backend}: window {w} is not 16 wide"
        );
        // Starved events are NaN and counted; everything else must be
        // a finite non-negative estimate.
        let nan_count = window
            .features
            .as_slice()
            .iter()
            .filter(|v| v.is_nan())
            .count();
        assert!(
            nan_count <= window.starved_events,
            "{backend}: window {w} has {nan_count} NaNs but reports \
             {} starved events",
            window.starved_events
        );
        for (i, value) in window.features.as_slice().iter().enumerate() {
            assert!(
                value.is_nan() || (value.is_finite() && *value >= 0.0),
                "{backend}: window {w} column {i} = {value}"
            );
        }
        assert!(
            window.time_enabled >= window.time_running,
            "{backend}: enabled {} < running {}",
            window.time_enabled,
            window.time_running
        );
        if window.fully_scheduled() {
            assert!(
                window.scaling() >= 1.0,
                "{backend}: scaling {} < 1",
                window.scaling()
            );
        }
    }
}

#[test]
fn sim_source_conforms() {
    let source = open_source(&SamplerConfig::fast(), &sample()).expect("sim opens");
    assert_source_conformance(source, "sim");
}

#[test]
fn sim_source_is_deterministic_and_simulated() {
    let config = SamplerConfig::fast();
    let collect = || {
        let mut source = open_source(&config, &sample()).expect("sim opens");
        source.program(&EventSel::paper_set()).expect("paper set");
        (0..config.windows_per_sample)
            .map(|_| source.read_window().expect("sim never fails"))
            .collect::<Vec<_>>()
    };
    let first = collect();
    assert_eq!(first, collect(), "sim windows must be byte-identical");
    let caps = open_source(&config, &sample()).expect("sim opens").caps();
    assert!(!caps.live);
    for window in &first {
        assert_eq!(window.starved_events, 0, "the model never starves events");
    }
}

#[test]
fn probe_reports_sim_always_available() {
    assert!(SourceSelect::Sim.probe().is_ok());
}

#[cfg(not(feature = "perf-backend"))]
#[test]
fn perf_source_unavailable_without_the_feature() {
    assert!(matches!(
        SourceSelect::Perf.probe(),
        Err(PerfError::BackendUnavailable { .. })
    ));
    assert!(matches!(
        open_source(&perf_config(), &sample()),
        Err(PerfError::BackendUnavailable { .. })
    ));
}

/// Live-backend conformance: identical assertions, gated on the
/// compile-time feature AND a runtime probe. On hosts where
/// `perf_event_open` is forbidden (unprivileged CI, containers without
/// CAP_PERFMON) the probe fails with a typed error and the test
/// passes as a documented skip.
#[cfg(feature = "perf-backend")]
#[test]
fn perf_source_conforms_or_probe_skips() {
    match SourceSelect::Perf.probe() {
        Ok(()) => {
            let source =
                open_source(&perf_config(), &sample()).expect("probe passed, backend opens");
            assert_source_conformance(source, "perf");
        }
        Err(PerfError::BackendUnavailable { reason }) => {
            eprintln!("perf backend probe failed, skipping live assertions: {reason}");
        }
        Err(other) => panic!("probe must fail typed, got {other:?}"),
    }
}

/// Live counts are real: with the probe passing, a window over the
/// fixed instruction budget must count a plausible number of branch
/// instructions (the workload driver executes tens of thousands of
/// simulated instructions, which costs far more host instructions).
#[cfg(feature = "perf-backend")]
#[test]
fn perf_windows_measure_real_work_or_probe_skips() {
    if let Err(PerfError::BackendUnavailable { reason }) = SourceSelect::Perf.probe() {
        eprintln!("perf backend probe failed, skipping live assertions: {reason}");
        return;
    }
    let mut source = open_source(&perf_config(), &sample()).expect("probe passed, backend opens");
    source.program(&EventSel::paper_set()).expect("paper set");
    let window = source.read_window().expect("live read");
    let branches = window.features[HpcEvent::BranchInstructions];
    if branches.is_nan() {
        eprintln!("branch-instructions starved on this PMU, skipping magnitude check");
        return;
    }
    assert!(
        branches > 1_000.0,
        "driving a 4,000-instruction simulated window should retire \
         well over 1k host branches, measured {branches}"
    );
}

/// Faults compose over any source: the injector sits above the
/// backend, so a faulted collection built on an explicitly-selected
/// simulator source still injects and reports.
#[test]
fn faults_compose_over_source_selection() {
    use hbmd::malware::SampleCatalog;
    use hbmd::perf::{Collector, CollectorConfig, FaultPlan};

    let catalog = SampleCatalog::scaled(0.02, 5);
    let config = CollectorConfig {
        sampler: SamplerConfig {
            source: SourceSelect::Sim,
            ..SamplerConfig::fast()
        },
        threads: 1,
        fault: FaultPlan::uniform(0.1, 21),
    };
    let collection = Collector::new(config)
        .expect("valid config")
        .collect(&catalog)
        .expect("under threshold");
    assert!(
        collection.report.faults.total() > 0,
        "faults must fire over an explicit source"
    );
    let default_path = Collector::new(CollectorConfig::faulted(FaultPlan::uniform(0.1, 21)))
        .expect("valid config")
        .collect(&catalog)
        .expect("under threshold");
    // Debug-compare the datasets: starvation faults leave NaNs, and
    // NaN != NaN under `PartialEq` (f64 Debug round-trips bits).
    assert_eq!(
        format!("{:?}", collection.dataset),
        format!("{:?}", default_path.dataset),
        "explicit sim source must match the default faulted path"
    );
    assert_eq!(collection.report, default_path.report);
}
