//! `benchmark compare`: judge a change's runs against its parent's.
//!
//! Each side is a JSON-lines file of runs appended by `--out`. Runs are
//! paired in seed order, so both sides should be run on the same seeds.
//! Every workload × metric row gets a label:
//!
//! * `unresolved` — either side's spread (interquartile range over its
//!   median) is wider than the metric's bound, and not every change run
//!   beats every parent run;
//! * `worse` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `improved` — the change wins at least nine tenths of the pairs, the
//!   medians differ by more than the parent's interquartile range, and
//!   the change's runs failed no larger share of their windows;
//! * `unchanged` — otherwise.
//!
//! Per-layer metrics have no bound: they are `improved` or `worse` by
//! the pair rule alone, else `unchanged`.

use std::collections::BTreeMap;

use hbmd_obs::json::{self, Value};

use crate::spec::{Metric, Spec};
use crate::stats::quartiles;

/// One recorded run.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    nproc: u64,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let value = json::parse(line).map_err(|e| at(&e.to_string()))?;
        if value.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(at("run failed its correctness checks"));
        }
        let metrics = value
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| at("no metrics object"))?
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        records.push(Record {
            workload: value
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| at("no workload"))?
                .to_owned(),
            seed: value
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| at("no seed"))?,
            trace: value.get("trace").and_then(Value::as_u64) == Some(1),
            nproc: value.get("nproc").and_then(Value::as_u64).unwrap_or(0),
            attempted: value.get("attempted").and_then(Value::as_u64).unwrap_or(0),
            failed: value.get("failed").and_then(Value::as_u64).unwrap_or(0),
            metrics,
        });
    }
    Ok(records)
}

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Label {
    fn as_str(self) -> &'static str {
        match self {
            Label::Improved => "improved",
            Label::Unchanged => "unchanged",
            Label::Worse => "worse",
            Label::Unresolved => "unresolved",
        }
    }
}

/// Label one metric from seed-paired runs of parent and change.
/// `more_failures` is set when the change's runs failed a larger share
/// of their windows, which voids any gain.
pub fn label(parent: &[f64], change: &[f64], metric: &Metric, more_failures: bool) -> Label {
    let better = |a: f64, b: f64| {
        if metric.lower_is_better {
            a < b
        } else {
            a > b
        }
    };
    let (q1, median, q3) = quartiles(parent);
    let (c1, change_median, c3) = quartiles(change);
    let scale = median.abs().max(f64::MIN_POSITIVE);
    let spread = ((q3 - q1) / scale).max((c3 - c1) / change_median.abs().max(f64::MIN_POSITIVE));
    let worse_by = if metric.lower_is_better {
        change_median - median
    } else {
        median - change_median
    } / scale;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(p, c))
        .count();
    let clear = (change_median - median).abs() > q3 - q1;
    let improved = pairs > 0 && wins * 10 >= pairs * 9 && clear && worse_by < 0.0 && !more_failures;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    match metric.bound {
        Some(bound) if spread > bound && !all_better => Label::Unresolved,
        Some(bound) if worse_by > bound => Label::Worse,
        None if pairs > 0 && losses * 10 >= pairs * 9 && clear => Label::Worse,
        _ if improved => Label::Improved,
        _ => Label::Unchanged,
    }
}

/// `benchmark compare <parent.jsonl> <change.jsonl>`.
pub fn run(args: &[String]) -> Result<(), String> {
    let [parent, change] = args else {
        return Err("usage: benchmark compare <parent.jsonl> <change.jsonl>".to_owned());
    };
    let (parent, change) = (load(parent)?, load(change)?);
    let spec = Spec::load();
    let nprocs: std::collections::BTreeSet<u64> =
        parent.iter().chain(&change).map(|r| r.nproc).collect();
    if nprocs.len() > 1 {
        println!("warning: runs come from hosts with different nproc {nprocs:?}");
    }
    println!(
        "{:<22} {:<30} {:>38} {:>38} {:>9}  label",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    );
    let mut worse = 0;
    for workload in &spec.workloads {
        for (trace, metrics) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let failed_share = |runs: &[Record]| {
                let picked = runs
                    .iter()
                    .filter(|r| &r.workload == workload && r.trace == trace);
                let (failed, attempted) =
                    picked.fold((0u64, 0u64), |(f, a), r| (f + r.failed, a + r.attempted));
                failed as f64 / attempted.max(1) as f64
            };
            let more_failures = failed_share(&change) > failed_share(&parent);
            for metric in metrics {
                let values = |runs: &[Record]| {
                    let mut picked: Vec<(u64, f64)> = runs
                        .iter()
                        .filter(|r| &r.workload == workload && r.trace == trace)
                        .filter_map(|r| r.metrics.get(&metric.name).map(|&v| (r.seed, v)))
                        .collect();
                    picked.sort_by_key(|&(seed, _)| seed);
                    picked.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
                };
                let (p, c) = (values(&parent), values(&change));
                if p.is_empty() || c.is_empty() {
                    continue;
                }
                let verdict = label(&p, &c, metric, more_failures);
                worse += usize::from(verdict == Label::Worse);
                let side = |v: &[f64]| {
                    let (q1, m, q3) = quartiles(v);
                    format!("{} [{}, {}] {}", num(m), num(q1), num(q3), metric.unit)
                };
                let (_, pm, _) = quartiles(&p);
                let (_, cm, _) = quartiles(&c);
                println!(
                    "{workload:<22} {:<30} {:>38} {:>38} {:>+8.2}%  {}",
                    metric.name,
                    side(&p),
                    side(&c),
                    (cm - pm) / pm.abs().max(f64::MIN_POSITIVE) * 100.0,
                    verdict.as_str()
                );
            }
        }
    }
    println!("{worse} row(s) worse");
    Ok(())
}

/// A value with four decimals, or none from a thousand up.
fn num(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: Option<f64>) -> Metric {
        Metric {
            name: "m".to_owned(),
            unit: "u".to_owned(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn labels_follow_bounds_and_pair_wins() {
        let rate = metric(false, Some(0.10));
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            label(&parent, &[100.2, 100.9, 99.1, 100.4, 99.8], &rate, false),
            Label::Unchanged
        );
        assert_eq!(
            label(&parent, &[80.0, 81.0, 79.0, 80.5, 79.5], &rate, false),
            Label::Worse
        );
        let faster = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(label(&parent, &faster, &rate, false), Label::Improved);
        // A gain bought with more failed windows does not count.
        assert_eq!(label(&parent, &faster, &rate, true), Label::Unchanged);
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(label(&noisy, &noisy, &rate, false), Label::Unresolved);
        // Lower is better for times.
        let time = metric(true, Some(0.10));
        assert_eq!(
            label(&parent, &[80.0, 81.0, 79.0, 80.5, 79.5], &time, false),
            Label::Improved
        );
        // Per-layer metrics have no bound.
        let layer = metric(true, None);
        assert_eq!(
            label(&parent, &[120.0, 121.0, 119.0, 120.5, 119.5], &layer, false),
            Label::Worse
        );
    }
}
