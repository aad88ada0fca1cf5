//! Exposition-layer integration: the Prometheus encoder against a
//! committed golden file, and the HTTP server scraped over a real TCP
//! connection with line-by-line format validation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use hbmd_obs::serve::{serve, ServeContext};
use hbmd_obs::{prom, Registry};

/// A registry whose contents are pure workload facts — no wall-clock —
/// so its rendering is identical on every machine and thread count.
fn deterministic_registry() -> Registry {
    let registry = Registry::new();
    registry.counter("windows_collected").add(2512);
    registry
        .counter_with("verdict", &[("verdict", "benign")])
        .add(37);
    registry
        .counter_with("verdict", &[("verdict", "malware")])
        .add(59);
    registry.gauge("collector.threads").set(4);
    registry
        .gauge_with(
            "build_info",
            &[
                ("version", "0.1.0"),
                ("config_digest", "00c0ffee00c0ffee"),
                ("source", "sim"),
            ],
        )
        .set(1);
    let votes = registry.histogram("online.alarm_votes");
    for value in [3, 3, 4, 4, 4, 0] {
        votes.record(value);
    }
    registry.counter("adversarial.attacks").add(512);
    registry.counter("adversarial.evasions").add(291);
    registry
        .counter("adversarial.attack_iterations")
        .add(61_844);
    registry.counter("adversarial.suspicion_trips").add(138);
    registry.counter("online.disagreement_trips").add(17);
    let spent = registry.histogram("adversarial.l1_permille");
    for value in [1000, 982, 760, 445, 998, 0, 213] {
        spent.record(value);
    }
    registry
}

/// The committed golden exposition. Regenerate deliberately with
/// `HBMD_REGEN_GOLDEN=1 cargo test -p hbmd-obs --test exposition`
/// and review the diff — a change here is a change to the scrape
/// contract every dashboard depends on.
#[test]
fn renders_the_committed_golden_exposition() {
    let text = prom::render(&deterministic_registry().snapshot());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.prom");
    if std::env::var_os("HBMD_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file committed");
    assert_eq!(
        text, golden,
        "exposition drifted from tests/golden_metrics.prom; if intended, \
         regenerate with HBMD_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn debug_endpoints_route_through_the_installed_handler() {
    use hbmd_obs::serve::{DebugHandler, DebugReply};
    let handler: DebugHandler = Arc::new(|path: &str| match path {
        "/debug/ping" => Some(DebugReply {
            status: 200,
            body: "{\"pong\": true}\n".to_owned(),
        }),
        "/debug/busy" => Some(DebugReply {
            status: 503,
            body: "{\"error\": \"not ready\"}\n".to_owned(),
        }),
        _ => None,
    });
    let server = serve(
        "127.0.0.1:0",
        ServeContext {
            registry: Arc::new(deterministic_registry()),
            manifest_json: "{}".to_owned(),
            fleet: None,
            debug: Some(handler),
        },
    )
    .expect("bind ephemeral port");

    let get = |path: &str| -> String {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    let ok = get("/debug/ping");
    assert!(ok.starts_with("HTTP/1.0 200 OK"), "{ok}");
    assert!(
        ok.contains("Content-Type: application/json; charset=utf-8"),
        "{ok}"
    );
    assert!(ok.ends_with("{\"pong\": true}\n"), "{ok}");

    let busy = get("/debug/busy");
    assert!(
        busy.starts_with("HTTP/1.0 503 Service Unavailable"),
        "{busy}"
    );

    // A /debug path the handler declines falls through to 404.
    let missing = get("/debug/unknown");
    assert!(missing.starts_with("HTTP/1.0 404 Not Found"), "{missing}");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn metrics_endpoint_parses_line_by_line_over_tcp() {
    let server = serve(
        "127.0.0.1:0",
        ServeContext {
            registry: Arc::new(deterministic_registry()),
            manifest_json: "{\"tool\": \"exposition-test\"}".to_owned(),
            fleet: None,
            debug: None,
        },
    )
    .expect("bind ephemeral port");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");

    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{head}"
    );
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .expect("numeric length");
    assert_eq!(content_length, body.len(), "length must match the body");

    // Every line must be a well-formed comment or sample line.
    let mut families_typed = std::collections::HashSet::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().expect("family");
            let kind = parts.next().expect("kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE `{kind}`"
            );
            assert!(families_typed.insert(family.to_owned()), "duplicate TYPE");
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("sample value `{value}` is not a number in `{line}`"));
        let name = name_and_labels
            .split('{')
            .next()
            .expect("metric name before labels");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "name `{name}` outside the Prometheus charset"
        );
        assert!(name.starts_with("hbmd_"), "unprefixed metric `{name}`");
        // Every sample's family was declared with a TYPE line first.
        let family = name
            .trim_end_matches("_sum")
            .trim_end_matches("_count")
            .trim_end_matches("_bucket");
        assert!(
            families_typed.contains(family) || families_typed.contains(name),
            "sample `{name}` has no preceding TYPE"
        );
    }

    // Histogram invariants: cumulative buckets are non-decreasing and
    // the +Inf bucket equals _count.
    let buckets: Vec<u64> = body
        .lines()
        .filter(|l| l.starts_with("hbmd_online_alarm_votes_bucket"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "alarm_votes histogram not exported");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    let count: u64 = body
        .lines()
        .find(|l| l.starts_with("hbmd_online_alarm_votes_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("_count sample");
    assert_eq!(*buckets.last().expect("+Inf bucket"), count);
    assert_eq!(count, 6);

    server.shutdown().expect("clean shutdown");
}
