//! What a fleet's metrics registry tells an operator must agree with
//! what the fleet did: every Prometheus family renders once, and
//! `/readyz` — served over the registry the fleet counted into — reads
//! the run's restarts, trips, shed windows and out-of-service streams.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};

use hbmd_bench::fleet::{run_fleet, FleetConfig, FleetReport};
use hbmd_core::{shard_of, ClassifierKind, Detector, DetectorBuilder, StreamStanding, StreamState};
use hbmd_malware::SampleCatalog;
use hbmd_obs::health::FleetHealth;
use hbmd_obs::{prom, serve, Obs, Registry};
use hbmd_perf::{Collector, CollectorConfig, SamplerConfig};

/// A detector trained on a small real collection: its sanitizer
/// accepts real sampled windows, so only injected NaN windows fault.
fn detector() -> Arc<Detector> {
    static DETECTOR: OnceLock<Arc<Detector>> = OnceLock::new();
    Arc::clone(DETECTOR.get_or_init(|| {
        let dataset = Collector::new(CollectorConfig::fast())
            .expect("collector config")
            .collect(&SampleCatalog::scaled(0.03, 17))
            .expect("collect")
            .dataset;
        Arc::new(
            DetectorBuilder::new()
                .classifier(ClassifierKind::J48)
                .train_binary(&dataset)
                .expect("train"),
        )
    }))
}

/// Run `cfg` under a fresh metrics context; returns the report and the
/// registry the fleet counted into.
fn run_observed(cfg: &FleetConfig) -> (FleetReport, Arc<Registry>) {
    let guard = hbmd_obs::install(Obs::new());
    let report = run_fleet(&detector(), &SamplerConfig::fast(), cfg).expect("fleet runs");
    (report, Arc::clone(guard.registry()))
}

/// The `/readyz` body served over `registry`, as `key value` pairs.
fn readyz(registry: &Arc<Registry>, shards: usize) -> BTreeMap<String, u64> {
    let server = serve::serve(
        "127.0.0.1:0",
        serve::ServeContext {
            registry: Arc::clone(registry),
            manifest_json: "{}".to_owned(),
            fleet: Some(Arc::new(FleetHealth::new(registry, shards))),
            debug: None,
        },
    )
    .expect("bind an ephemeral port");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"GET /readyz HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    server.shutdown().expect("clean shutdown");
    let (_, body) = response.split_once("\r\n\r\n").expect("a body");
    body.lines()
        .filter_map(|line| {
            let (key, value) = line.split_once(' ')?;
            Some((key.to_owned(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn a_faulted_fleet_renders_each_family_once_and_readyz_matches_its_report() {
    let (streams, shards, windows) = (4u64, 2usize, 160u64);
    let victim = shard_of(0, shards);
    let (report, registry) = run_observed(&FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
        panic_at: vec![(1 - victim, windows / 3)],
        nan_streams: (0..streams)
            .filter(|&s| shard_of(s, shards) == victim)
            .map(|s| (s, 32, 96))
            .collect(),
        ..FleetConfig::lossless(streams, shards, windows)
    });
    assert_eq!(report.restarts, 1, "the injected panic restarted a worker");
    assert!(report.trips >= 1, "the NaN burst tripped the breaker");

    let text = prom::render(&registry.snapshot());
    let mut typed = BTreeSet::new();
    let mut series = BTreeSet::new();
    let mut family = "";
    for line in text.lines() {
        if let Some(head) = line.strip_prefix("# TYPE ") {
            family = head.split(' ').next().expect("a family name");
            assert!(typed.insert(family), "family {family} typed twice:\n{text}");
        } else if !line.starts_with('#') {
            let (name, _) = line.rsplit_once(' ').expect("a sample value");
            assert!(
                name.starts_with(family),
                "{name} sits outside its family block (under {family}):\n{text}"
            );
            assert!(series.insert(name), "series {name} repeats:\n{text}");
        }
    }

    let ready = readyz(&registry, shards);
    assert_eq!(ready["restarts"], report.restarts);
    assert_eq!(ready["trips"], report.trips);
    assert_eq!(ready["shed"], report.shed_low + report.shed_high);
}

#[test]
fn readyz_quarantined_counts_streams_out_of_service_not_events() {
    // Stream 1 faults from window 8 to 90: quarantined at window 15,
    // on probation from 80, where the burst quarantines it again; it is
    // readmitted after 16 clean probation windows.
    let (report, registry) = run_observed(&FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
        breaker: (257, usize::MAX, 32),
        nan_streams: vec![(1, 8, 90)],
        ..FleetConfig::lossless(4, 1, 192)
    });
    assert_eq!(
        report.stream_health[&1],
        (StreamStanding::Active, 2, 1),
        "quarantined twice, readmitted once, active at the end"
    );
    let out_of_service = report
        .stream_health
        .values()
        .filter(|(standing, _, _)| *standing != StreamStanding::Active)
        .count() as u64;
    assert_eq!(readyz(&registry, 1)["quarantined"], out_of_service);
}
