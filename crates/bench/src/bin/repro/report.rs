//! `repro trace-report` and `repro bundle-report`: offline reports
//! over a span log and a diagnostic bundle.

use std::path::PathBuf;
use std::process::ExitCode;

use hbmd_bench::TextTable;
use hbmd_obs::json;
use hbmd_obs::recorder::read_bundle;
use hbmd_obs::trace::Trace;

use crate::{Options, BUNDLE_REPORT, TRACE_REPORT};

/// `repro trace-report` — load a `--trace-jsonl` log and print where
/// the time went: per-name aggregates, the critical path, and
/// optionally a flamegraph collapsed-stack file.
pub(crate) fn trace_report(args: &[String]) -> ExitCode {
    let Some(options) = TRACE_REPORT.parse(args, Options::default()) else {
        return ExitCode::FAILURE;
    };
    let Some(file) = options.operands.first() else {
        eprintln!("usage: repro trace-report <trace.jsonl> [--collapsed PATH]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::parse_jsonl(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);

    println!(
        "# trace report — {} spans in {} trees, {} ms covered\n",
        trace.len(),
        trace.roots.len(),
        ms(trace.total_ns())
    );
    let mut table = TextTable::new(vec!["span", "count", "total ms", "self ms", "max ms"]);
    for row in trace.aggregate() {
        table.row(vec![
            row.name,
            row.count.to_string(),
            ms(row.total_ns),
            ms(row.self_ns),
            ms(row.max_ns),
        ]);
    }
    print!("{}", table.render());

    println!("\ncritical path (heaviest child at each level):");
    for (depth, hop) in trace.critical_path().iter().enumerate() {
        println!(
            "{}{} — {} ms ({:.0}% of parent, {} ms self)",
            "  ".repeat(depth),
            hop.name,
            ms(hop.duration_ns),
            hop.share_of_parent * 100.0,
            ms(hop.self_ns),
        );
    }

    if let Some(path) = &options.collapsed {
        if let Err(e) = std::fs::write(path, trace.collapsed()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (folded stacks; feed to a flamegraph renderer)");
    }
    ExitCode::SUCCESS
}

/// `repro bundle-report` — verify a diagnostic bundle's checksums,
/// then reconstruct the incident timeline on stdout: trigger metadata,
/// per-ring seqno ranges, event counts by kind, and the recorded tail
/// of window verdicts, faults, health transitions, and restart
/// markers. A corrupted bundle is refused with the typed error on
/// stderr and a nonzero exit.
pub(crate) fn bundle_report(args: &[String]) -> ExitCode {
    let Some(options) = BUNDLE_REPORT.parse(args, Options::default()) else {
        return ExitCode::FAILURE;
    };
    let Some(dir) = options.operands.first() else {
        eprintln!("usage: repro bundle-report <bundle-dir>");
        return ExitCode::FAILURE;
    };
    let dir = PathBuf::from(dir);
    let bundle = match read_bundle(&dir) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("bundle-report: {} refused: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    match render_bundle_report(&dir, &bundle) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bundle-report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The verified-bundle timeline as one printable string. Errors only
/// on malformed JSON inside an already checksum-verified bundle.
fn render_bundle_report(
    dir: &std::path::Path,
    bundle: &hbmd_obs::recorder::Bundle,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Diagnostic bundle {}", dir.display());
    let _ = writeln!(out, "\n## Verified files");
    for entry in &bundle.entries {
        let _ = writeln!(
            out,
            "  {:<14} {:>8} bytes  fnv1a64={:016x}",
            entry.name, entry.size, entry.digest
        );
    }

    let trigger = json::parse(bundle.text("trigger.json").map_err(|e| e.to_string())?)
        .map_err(|e| format!("trigger.json: {e}"))?;
    let opt = |value: Option<&json::Value>| -> String {
        value
            .and_then(json::Value::as_u64)
            .map_or("-".to_owned(), |v| v.to_string())
    };
    let _ = writeln!(out, "\n## Trigger");
    let _ = writeln!(
        out,
        "  reason={} shard={} stream={} cursor={}",
        trigger
            .get("reason")
            .and_then(json::Value::as_str)
            .unwrap_or("?"),
        opt(trigger.get("shard")),
        opt(trigger.get("stream")),
        opt(trigger.get("cursor")),
    );
    if let Some(details) = trigger.get("details").and_then(json::Value::as_str) {
        if !details.is_empty() {
            let _ = writeln!(out, "  details: {details}");
        }
    }
    if let Some(rings) = trigger.get("rings").and_then(json::Value::as_array) {
        for ring in rings {
            let _ = writeln!(
                out,
                "  ring shard={}: {} events, seq {}..{}, {} dropped",
                opt(ring.get("shard")),
                opt(ring.get("events")),
                opt(ring.get("first_seq")),
                opt(ring.get("last_seq")),
                opt(ring.get("dropped")),
            );
        }
    }

    if let Ok(manifest_text) = bundle.text("manifest.json") {
        if let Ok(manifest) = json::parse(manifest_text) {
            let digest = manifest
                .get("config_digest")
                .and_then(json::Value::as_u64)
                .map_or("?".to_owned(), |d| format!("{d:016x}"));
            let _ = writeln!(
                out,
                "\n## Run\n  version={} config_digest={}",
                manifest
                    .get("version")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                digest,
            );
        }
    }

    let events_text = bundle.text("events.jsonl").map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    for (lineno, line) in events_text.lines().enumerate() {
        events
            .push(json::parse(line).map_err(|e| format!("events.jsonl line {}: {e}", lineno + 1))?);
    }
    let mut counts: Vec<(String, usize)> = Vec::new();
    for event in &events {
        let kind = event
            .get("kind")
            .and_then(json::Value::as_str)
            .unwrap_or("?");
        match counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind.to_owned(), 1)),
        }
    }
    let _ = writeln!(out, "\n## Events ({} recorded)", events.len());
    for (kind, n) in &counts {
        let _ = writeln!(out, "  {kind:<12} {n}");
    }

    // The incident tail: every non-window marker, then the last 16
    // recorded windows — enough to see what the verdict stream was
    // doing when the trigger fired.
    let _ = writeln!(out, "\n## Timeline tail");
    let describe = |event: &json::Value| -> String {
        let kind = event
            .get("kind")
            .and_then(json::Value::as_str)
            .unwrap_or("?");
        let head = format!(
            "  seq={:>6} shard={} {kind:<10}",
            opt(event.get("seq")),
            opt(event.get("shard")),
        );
        match kind {
            "window" => format!(
                "{head} stream={} cursor={} verdict={} family={} votes={}/{} abstained={}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("verdict")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                event
                    .get("family")
                    .and_then(json::Value::as_str)
                    .unwrap_or("-"),
                opt(event.get("votes")),
                opt(event.get("of")),
                event
                    .get("abstained")
                    .and_then(json::Value::as_bool)
                    .unwrap_or(false),
            ),
            "health" => format!(
                "{head} stream={} cursor={} {} -> {}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("from")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                event.get("to").and_then(json::Value::as_str).unwrap_or("?"),
            ),
            "fault" => format!(
                "{head} stream={} cursor={} fault={}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("fault")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
            ),
            "breaker" => format!(
                "{head} stream={} cursor={} breaker opened",
                opt(event.get("stream")),
                opt(event.get("cursor")),
            ),
            "checkpoint" => format!("{head} cursor={}", opt(event.get("cursor"))),
            "restart" => format!("{head} attempt={}", opt(event.get("attempt"))),
            _ => head,
        }
    };
    let markers: Vec<&json::Value> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) != Some("window"))
        .collect();
    for marker in &markers {
        let _ = writeln!(out, "{}", describe(marker));
    }
    let windows: Vec<&json::Value> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) == Some("window"))
        .collect();
    let tail = windows.len().saturating_sub(16);
    if tail > 0 {
        let _ = writeln!(out, "  ... {tail} earlier window events elided ...");
    }
    for window in &windows[tail..] {
        let _ = writeln!(out, "{}", describe(window));
    }
    if let (Some(cursor), Some(last)) = (
        trigger.get("cursor").and_then(json::Value::as_u64),
        windows.last(),
    ) {
        if last.get("cursor").and_then(json::Value::as_u64) == Some(cursor) {
            let _ = writeln!(
                out,
                "\ntriggering window: cursor={cursor} is the last recorded window"
            );
        }
    }
    Ok(out)
}
