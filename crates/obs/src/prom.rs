//! Prometheus text exposition format (version 0.0.4) over a
//! [`MetricsSnapshot`] — zero dependencies, suitable for a `/metrics`
//! endpoint scraped by any Prometheus-compatible collector.
//!
//! Mapping rules:
//!
//! * every metric is prefixed `hbmd_`; **wall-clock histograms** keep
//!   the suite's determinism segregation visible as a `hbmd_wall_`
//!   prefix instead, so dashboards can tell exact workload counts from
//!   machine-dependent latencies at a glance,
//! * counters gain the conventional `_total` suffix,
//! * metric and label names are sanitised to the Prometheus charset
//!   (`[a-zA-Z0-9_]`, no leading digit after the prefix); label
//!   *values* are escaped per the format spec (`\\`, `\"`, `\n`),
//! * histograms render cumulative `_bucket{le="..."}` series over the
//!   registry's power-of-two buckets (upper bound `2^k - 1` for bit
//!   length `k`), then `_sum` and `_count`; empty trailing buckets are
//!   elided, `le="+Inf"` always closes the series; each histogram also
//!   exports a sibling `_quantile{quantile="..."}` gauge family with
//!   its p50/p95/p99/p999 — exact rank statistics (observed values,
//!   not bucket-boundary estimates) for exact histograms, log-linear
//!   bucket midpoints within [`WALL_CLOCK_RELATIVE_ERROR`]
//!   of them for wall-clock histograms, whose `# HELP` line says so.
//!
//! The output is a pure function of the snapshot: stable ordering
//! (the registry's `BTreeMap` key order), no timestamps.

use std::collections::BTreeSet;

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, WALL_CLOCK_RELATIVE_ERROR};

/// Content-Type value a `/metrics` response should carry.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Render a snapshot in Prometheus text format (0.0.4).
///
/// Counters come first, then gauges, then histograms, each group in
/// the snapshot's stable order. Every family gets one `# HELP` and
/// `# TYPE` header; the text always ends with a newline.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    let mut headed: BTreeSet<String> = BTreeSet::new();

    for counter in &snapshot.counters {
        let family = format!("hbmd_{}_total", sanitize_name(&counter.name));
        head(&mut out, &mut headed, &family, &counter.name, "", "counter");
        out.push_str(&family);
        out.push_str(&render_labels(&counter.labels, None));
        out.push_str(&format!(" {}\n", counter.value));
    }

    for gauge in &snapshot.gauges {
        let family = format!("hbmd_{}", sanitize_name(&gauge.name));
        head(&mut out, &mut headed, &family, &gauge.name, "", "gauge");
        out.push_str(&family);
        out.push_str(&render_labels(&gauge.labels, None));
        out.push_str(&format!(" {}\n", gauge.value));
    }

    for histogram in &snapshot.histograms {
        render_histogram(&mut out, &mut headed, histogram);
    }
    out
}

fn render_histogram(out: &mut String, headed: &mut BTreeSet<String>, h: &HistogramSnapshot) {
    let prefix = if h.wall_clock { "hbmd_wall_" } else { "hbmd_" };
    let family = format!("{prefix}{}", sanitize_name(&h.name));
    head(out, headed, &family, &h.name, "", "histogram");
    // Cumulative buckets up to the last non-empty one; `+Inf` closes.
    let last = h.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (bits, &n) in h.buckets.iter().take(last).enumerate() {
        cumulative += n;
        out.push_str(&family);
        out.push_str("_bucket");
        out.push_str(&render_labels(&h.labels, Some(("le", &le_bound(bits)))));
        out.push_str(&format!(" {cumulative}\n"));
    }
    out.push_str(&family);
    out.push_str("_bucket");
    out.push_str(&render_labels(&h.labels, Some(("le", "+Inf"))));
    out.push_str(&format!(" {}\n", h.count));
    out.push_str(&format!(
        "{family}_sum{} {}\n",
        render_labels(&h.labels, None),
        h.sum
    ));
    out.push_str(&format!(
        "{family}_count{} {}\n",
        render_labels(&h.labels, None),
        h.count
    ));
    // Rank-statistic quantiles as a sibling gauge family — the
    // histogram TYPE cannot carry `quantile` labels. Exact histograms
    // report values that were actually observed; wall-clock ones report
    // bucket midpoints, and say how far off those can be.
    let quantiles = format!("{family}_quantile");
    let note = if h.wall_clock {
        format!(
            " (log-linear bucket midpoints, within {}% of the exact rank statistic)",
            WALL_CLOCK_RELATIVE_ERROR * 100.0
        )
    } else {
        String::new()
    };
    head(out, headed, &quantiles, &h.name, &note, "gauge");
    for (q, value) in [
        ("0.5", h.p50),
        ("0.95", h.p95),
        ("0.99", h.p99),
        ("0.999", h.p999),
    ] {
        out.push_str(&quantiles);
        out.push_str(&render_labels(&h.labels, Some(("quantile", q))));
        out.push_str(&format!(" {value}\n"));
    }
}

/// Upper bound of the bit-length bucket `bits`, as a decimal string.
fn le_bound(bits: usize) -> String {
    match bits {
        0 => "0".to_owned(),
        64 => u64::MAX.to_string(),
        b => ((1u64 << b) - 1).to_string(),
    }
}

/// One `# HELP` and `# TYPE` header per family; `note` is appended to
/// the help text.
fn head(
    out: &mut String,
    headed: &mut BTreeSet<String>,
    family: &str,
    raw: &str,
    note: &str,
    kind: &str,
) {
    if headed.insert(family.to_owned()) {
        out.push_str(&format!(
            "# HELP {family} hbmd metric `{}`{note}\n# TYPE {family} {kind}\n",
            escape_help(raw)
        ));
    }
}

/// Render a label set, optionally with a trailing synthetic label
/// (`le` for buckets, `quantile` for the rank-statistic series).
/// Empty sets with no extra label render as nothing (bare name).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(v)))
        .collect();
    if let Some((name, value)) = extra {
        parts.push(format!("{name}=\"{value}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Map a raw metric name onto the Prometheus charset; anything outside
/// `[a-zA-Z0-9_]` (dots, dashes, spaces, unicode) becomes `_`.
fn sanitize_name(raw: &str) -> String {
    let mut out: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("unnamed");
    }
    out
}

/// Label names additionally must not start with a digit.
fn sanitize_label_name(raw: &str) -> String {
    let out = sanitize_name(raw);
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        format!("_{out}")
    } else {
        out
    }
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed.
fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a HELP line payload: backslash and line feed.
fn escape_help(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn counters_render_with_prefix_total_and_type_line() {
        let registry = Registry::new();
        registry.counter("collect.samples").add(42);
        registry
            .counter_with("verdict", &[("verdict", "malware")])
            .add(7);
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE hbmd_collect_samples_total counter\n"));
        assert!(text.contains("hbmd_collect_samples_total 42\n"));
        assert!(text.contains("hbmd_verdict_total{verdict=\"malware\"} 7\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn one_type_line_per_family_across_label_sets() {
        let registry = Registry::new();
        registry
            .counter_with("verdict", &[("verdict", "benign")])
            .add(1);
        registry
            .counter_with("verdict", &[("verdict", "malware")])
            .add(2);
        let text = render(&registry.snapshot());
        assert_eq!(text.matches("# TYPE hbmd_verdict_total counter").count(), 1);
    }

    #[test]
    fn gauges_keep_sign_and_plain_prefix() {
        let registry = Registry::new();
        registry.gauge("threads").set(-3);
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE hbmd_threads gauge\n"));
        assert!(text.contains("hbmd_threads -3\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets_sum_count() {
        let registry = Registry::new();
        let h = registry.histogram("window.bytes");
        h.record(0); // bucket 0, le="0"
        h.record(1); // bucket 1, le="1"
        h.record(5); // bucket 3, le="7"
        h.record(5);
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE hbmd_window_bytes histogram\n"));
        assert!(text.contains("hbmd_window_bytes_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("hbmd_window_bytes_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("hbmd_window_bytes_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("hbmd_window_bytes_bucket{le=\"7\"} 4\n"));
        assert!(text.contains("hbmd_window_bytes_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("hbmd_window_bytes_sum 11\n"));
        assert!(text.contains("hbmd_window_bytes_count 4\n"));
        // Buckets past the largest observation are elided.
        assert!(!text.contains("le=\"15\""));
    }

    #[test]
    fn histograms_export_exact_rank_quantiles_as_a_gauge_family() {
        let registry = Registry::new();
        let h = registry.histogram("latency");
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE hbmd_latency_quantile gauge\n"));
        assert!(text.contains("hbmd_latency_quantile{quantile=\"0.5\"} 50\n"));
        assert!(text.contains("hbmd_latency_quantile{quantile=\"0.95\"} 95\n"));
        assert!(text.contains("hbmd_latency_quantile{quantile=\"0.99\"} 99\n"));
        assert!(text.contains("hbmd_latency_quantile{quantile=\"0.999\"} 100\n"));
    }

    #[test]
    fn build_info_gauge_renders_with_manifest_labels() {
        let registry = Registry::new();
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
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE hbmd_build_info gauge\n"));
        assert!(text.contains(
            "hbmd_build_info{version=\"0.1.0\",\
             config_digest=\"00c0ffee00c0ffee\",source=\"sim\"} 1\n"
        ));
    }

    #[test]
    fn wall_clock_histograms_carry_the_wall_prefix() {
        let registry = Registry::new();
        registry.timing("classify_ns").record(1000);
        registry.histogram("votes").record(3);
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE hbmd_wall_classify_ns histogram\n"));
        assert!(text.contains("hbmd_wall_classify_ns_count 1\n"));
        assert!(text.contains("# TYPE hbmd_votes histogram\n"));
        assert!(!text.contains("hbmd_wall_votes"));
        // Only the bucketed quantiles carry the error statement.
        assert!(text.contains(
            "# HELP hbmd_wall_classify_ns_quantile hbmd metric `classify_ns` \
             (log-linear bucket midpoints, within 1.5625% of the exact rank statistic)\n"
        ));
        assert!(text.contains("# HELP hbmd_votes_quantile hbmd metric `votes`\n"));
    }

    #[test]
    fn hostile_names_and_label_values_are_sanitised() {
        let registry = Registry::new();
        registry
            .counter_with("weird metric-name.x", &[("1bad key", "a\"b\\c\nd")])
            .add(1);
        let text = render(&registry.snapshot());
        assert!(text.contains("hbmd_weird_metric_name_x_total"));
        assert!(text.contains("_1bad_key=\"a\\\"b\\\\c\\nd\""));
        // Every rendered line is a comment or `name{...} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_whitespace()
                        .nth(1)
                        .is_some_and(|v| v.parse::<f64>().is_ok()),
                "unparseable line: {line}"
            );
        }
    }

    #[test]
    fn empty_histogram_renders_inf_bucket_only() {
        let registry = Registry::new();
        let _ = registry.histogram("empty");
        let text = render(&registry.snapshot());
        assert!(text.contains("hbmd_empty_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("hbmd_empty_sum 0\n"));
        assert!(!text.contains("le=\"0\""));
    }
}
