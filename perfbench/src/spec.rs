//! The metric declarations of `BENCHMARK.json`, compiled in so a run
//! can check it emits exactly what the benchmark declares.

use std::sync::OnceLock;

use hbmd_obs::json::{self, Value};

/// The repository's benchmark declaration.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// Every declared metric and workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics printed by an untraced run.
    pub end_to_end: Vec<Metric>,
    /// Metrics printed by a traced run.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`, parsed once.
    ///
    /// # Panics
    ///
    /// Panics when the file is malformed — a bug in the repository, not
    /// a runtime condition.
    pub fn load() -> &'static Spec {
        static SPEC: OnceLock<Spec> = OnceLock::new();
        SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[Value], String> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("`{key}` is not an array"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field)
                            .and_then(Value::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("a `{key}` metric lacks `{field}`"))
                    };
                    Ok(Metric {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declaration of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_names_the_workloads_and_a_bounded_setup_time() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            crate::Workload::ALL.map(crate::Workload::name)
        );
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        assert!(setup.lower_is_better && setup.bound.is_some());
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
