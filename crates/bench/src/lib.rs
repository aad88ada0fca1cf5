//! Shared plumbing for the `repro` binary and the `perfbench` package: experiment-scale handling, the run
//! configuration digest, plain-text table rendering, and the
//! supervised, sharded [`fleet`] pipeline that `repro serve`,
//! `repro chaos` and `perfbench` run.

pub mod fleet;

use hbmd_core::experiments::ExperimentConfig;
use hbmd_perf::CollectorConfig;

/// Thread-normalized FNV-1a digest of an experiment configuration, as
/// the 16-hex-digit string stamped into the run manifest, the
/// `hbmd_build_info` gauge and fleet checkpoints.
///
/// Thread counts are forced to 1 before digesting: results are
/// byte-identical at any worker count, so two runs that differ only in
/// `--threads` are the *same* workload and get the same digest, on
/// machines with any core count.
pub fn config_digest(config: &ExperimentConfig) -> String {
    let mut normalized = config.clone();
    normalized.threads = 1;
    normalized.collector.threads = 1;
    let digest = hbmd_obs::manifest::fnv1a_64(format!("{normalized:?}").as_bytes());
    format!("{digest:016x}")
}

/// Build an experiment configuration at a catalog scale.
///
/// `scale = 1.0` is the paper setup (3,070 samples × 16 windows of
/// 20,000 instructions on the Haswell model); smaller scales shrink the
/// catalog proportionally while keeping the paper sampler, so results
/// stay comparable in shape.
///
/// # Panics
///
/// Panics when `scale` is not within `(0, 1]`.
pub fn config_at_scale(scale: f64) -> ExperimentConfig {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    ExperimentConfig {
        catalog_fraction: scale,
        catalog_seed: 2018,
        collector: CollectorConfig::paper(),
        split_seed: 42,
        threads: hbmd_core::par::default_threads(),
    }
}

/// A fixed-width text table renderer for experiment output.
///
/// # Examples
///
/// ```
/// use hbmd_bench::TextTable;
///
/// let mut table = TextTable::new(vec!["scheme", "accuracy"]);
/// table.row(vec!["J48".to_owned(), "0.91".to_owned()]);
/// let text = table.render();
/// assert!(text.contains("J48"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(headers: Vec<&str>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to an aligned plain-text block.
    pub fn render(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String]| {
            let mut rendered = String::new();
            for i in 0..columns {
                if i > 0 {
                    rendered.push_str("  ");
                }
                rendered.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            rendered.trim_end().to_owned()
        };
        out.push_str(&line(&self.headers));
        out.push('\n');
        let divider: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
        out.push_str(&"-".repeat(divider));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxxxx".to_owned(), "1".to_owned()]);
        t.row(vec!["y".to_owned(), "2".to_owned()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[2].starts_with("xxxxxxxx"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".to_owned()]);
    }

    #[test]
    fn config_scales() {
        let c = config_at_scale(0.5);
        assert!((c.catalog_fraction - 0.5).abs() < 1e-12);
        assert_eq!(c.collector.sampler.windows_per_sample, 16);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        let _ = config_at_scale(0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.8571), "85.7%");
    }

    #[test]
    fn config_digest_ignores_thread_counts_but_not_scale() {
        let base = config_at_scale(0.05);
        let mut threaded = config_at_scale(0.05);
        threaded.threads = 32;
        threaded.collector.threads = 16;
        assert_eq!(config_digest(&base), config_digest(&threaded));
        assert_ne!(config_digest(&base), config_digest(&config_at_scale(0.1)));
        assert_eq!(config_digest(&base).len(), 16);
    }
}
