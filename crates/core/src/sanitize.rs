//! Window sanitisation: the detector's first line of defence against a
//! degraded collection pipeline.
//!
//! A faulted counter stream hands the classifier NaNs (multiplexing
//! starvation), absurd magnitudes (saturated counters), and negative
//! garbage — inputs the trained models were never shown and on which
//! their verdicts are meaningless. The [`Sanitizer`] is fitted on the
//! training split and screens every incoming window:
//!
//! * values that are non-finite, negative, or far beyond the training
//!   range are *invalid*,
//! * a window with few invalid values is **repaired** by median
//!   imputation (the training median of each bad column),
//! * a window that is mostly garbage is **unusable** — the detector
//!   [abstains](crate::Verdict::Abstain) instead of guessing,
//! * a window whose values are individually plausible but *jointly*
//!   absurd — grossly displaced from the training distribution by a
//!   Mahalanobis-style RMS z-score margin — is also **unusable**: an
//!   adversarially shifted window should abstain, not classify.
//!
//! The joint screen runs bound-first. Its exact test sums the squared
//! z-scores `((v − mean) / std)²` in column order, one division per
//! column in one serial chain. Nearly every served window sits well
//! inside the margin, so the screen first sums `((v − mean) · (1/std))²`
//! with the reciprocals precomputed, in four independent accumulators,
//! and accepts the window when that sum is below
//! `margin² · spread_columns · (1 − 1e-9)`. Only a window at or past
//! that bound takes the exact test, unchanged. The shortcut is exact:
//! both sums are within about 40 ulp (≈1e-14 relative) of the real
//! value, five orders inside the 1e-9 slack, so a window the bound
//! accepts is one the exact test accepts too. A bound that is not a
//! normal positive number (the margin's square overflows or underflows,
//! or no column has spread) is never used, and a sum that overflows or
//! turns NaN fails the bound and takes the exact test.

use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_perf::HpcDataset;

/// Slack factor over the training maximum before a value counts as
/// out-of-range: legitimate unseen workloads run somewhat hotter than
/// the training set, saturated counters run *orders of magnitude*
/// hotter.
const RANGE_SLACK: f64 = 8.0;

/// Default Mahalanobis-style outlier margin: a window whose RMS
/// z-score against the per-column training `(mean, std)` reaches this
/// is abstained on even though every value is individually in range.
/// Deliberately generous — legitimate unseen workloads sit within a
/// few σ of training; a window this far out is either a saturating
/// fault the per-column ceilings missed or an adversarial shift.
const OUTLIER_MARGIN: f64 = 16.0;

/// Relative slack of the joint screen's fast bound under `margin²` per
/// spread column: five orders wider than the rounding error of either
/// sum of squared z-scores, so the fast test never accepts a window the
/// exact one refuses.
const BOUND_SLACK: f64 = 1e-9;

/// What screening one window produced. A clean window is borrowed, not
/// copied: the serving path classifies it where it lies.
#[derive(Debug, Clone, PartialEq)]
pub enum SanitizeOutcome<'w> {
    /// Every value was plausible; the window is untouched.
    Clean(&'w FeatureVector),
    /// Some values were corrupt and have been imputed from training
    /// medians.
    Repaired {
        /// The window with corrupt columns replaced.
        features: FeatureVector,
        /// How many columns were imputed.
        repaired: usize,
    },
    /// Too much of the window was corrupt to trust a repair.
    Unusable {
        /// How many columns were invalid.
        invalid: usize,
    },
}

impl SanitizeOutcome<'_> {
    /// The usable window, if any.
    pub fn features(&self) -> Option<&FeatureVector> {
        match self {
            SanitizeOutcome::Clean(features) => Some(features),
            SanitizeOutcome::Repaired { features, .. } => Some(features),
            SanitizeOutcome::Unusable { .. } => None,
        }
    }
}

/// Screens sampling windows against statistics of the training split;
/// the module-level docs describe the imputation/abstention policy.
///
/// # Examples
///
/// ```
/// use hbmd_core::{SanitizeOutcome, Sanitizer};
/// use hbmd_malware::SampleCatalog;
/// use hbmd_perf::{Collector, CollectorConfig};
///
/// let catalog = SampleCatalog::scaled(0.02, 3);
/// let dataset = Collector::new(CollectorConfig::fast())
///     .expect("static config")
///     .collect(&catalog)
///     .expect("pristine pipeline")
///     .dataset;
/// let sanitizer = Sanitizer::fit(&dataset);
///
/// let clean = &dataset.rows()[0].features;
/// assert!(matches!(sanitizer.sanitize(clean), SanitizeOutcome::Clean(_)));
///
/// let mut corrupt = clean.clone();
/// corrupt[hbmd_events::HpcEvent::CacheMisses] = f64::NAN;
/// assert!(matches!(
///     sanitizer.sanitize(&corrupt),
///     SanitizeOutcome::Repaired { repaired: 1, .. }
/// ));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sanitizer {
    /// Per-column training median (imputation value).
    medians: Column,
    /// Per-column ceiling: training max × [`RANGE_SLACK`]; infinite for
    /// columns with no finite training data.
    ceilings: Column,
    /// `ceilings` with `+inf` lowered to `f64::MAX`, so that one
    /// comparison refuses an infinite value as well as a high one.
    limits: Column,
    /// Per-column training mean (outlier screening).
    means: Column,
    /// Per-column training standard deviation; non-finite or zero
    /// excludes the column from outlier screening.
    stds: Column,
    /// Bit `j` set when column `j` has usable spread (`std` finite and
    /// positive): the columns the outlier screen sums over.
    spread: u32,
    /// Columns set in `spread`.
    spread_count: u32,
    /// `1 / std` on the columns in `spread`, `0` elsewhere: the fast
    /// joint screen's multipliers.
    inv_stds: Column,
    /// The fast joint screen accepts a window whose summed squared
    /// z-scores fall below this (see the module docs); `0` when the
    /// bound is unusable, so that no sum falls below it.
    inside_bound: f64,
    /// Invalid columns tolerated before the window is unusable.
    max_repair: usize,
    /// RMS z-score at which a finite, in-range window still abstains
    /// ([`OUTLIER_MARGIN`] by default; `+inf` disables).
    outlier_margin: f64,
}

/// One value per feature column.
type Column = [f64; HpcEvent::COUNT];

// Column masks are `u32` bit sets.
const _: () = assert!(HpcEvent::COUNT <= 32);

/// `true` when bit `j` of `mask` is set.
fn has(mask: u32, j: usize) -> bool {
    mask >> j & 1 == 1
}

impl Sanitizer {
    /// Fit medians and ceilings per feature column on `dataset`
    /// (normally the training split). Never panics: an empty dataset
    /// yields a sanitizer that accepts any finite non-negative window.
    pub fn fit(dataset: &HpcDataset) -> Sanitizer {
        let mut medians = [0.0; HpcEvent::COUNT];
        let mut ceilings = [f64::INFINITY; HpcEvent::COUNT];
        let mut means = [0.0; HpcEvent::COUNT];
        let mut stds = [f64::INFINITY; HpcEvent::COUNT];
        for j in 0..HpcEvent::COUNT {
            let mut finite: Vec<f64> = dataset
                .rows()
                .iter()
                .map(|r| r.features.as_slice()[j])
                .filter(|v| v.is_finite() && *v >= 0.0)
                .collect();
            if finite.is_empty() {
                continue;
            }
            finite.sort_by(|a, b| a.total_cmp(b));
            let mid = finite.len() / 2;
            medians[j] = if finite.len() % 2 == 1 {
                finite[mid]
            } else {
                (finite[mid - 1] + finite[mid]) / 2.0
            };
            ceilings[j] = finite[finite.len() - 1] * RANGE_SLACK;
            let n = finite.len() as f64;
            let mean = finite.iter().sum::<f64>() / n;
            let var = finite.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            means[j] = mean;
            stds[j] = var.sqrt();
        }
        Sanitizer::from_columns(
            medians,
            ceilings,
            means,
            stds,
            HpcEvent::COUNT / 4,
            OUTLIER_MARGIN,
        )
    }

    /// Assemble a sanitizer and precompute its spread mask — the single
    /// funnel of fitting and snapshot restore.
    fn from_columns(
        medians: Column,
        ceilings: Column,
        means: Column,
        stds: Column,
        max_repair: usize,
        outlier_margin: f64,
    ) -> Sanitizer {
        let spread = (0..HpcEvent::COUNT)
            .filter(|&j| stds[j] > 0.0 && stds[j].is_finite())
            .fold(0u32, |mask, j| mask | 1 << j);
        let spread_count = spread.count_ones();
        Sanitizer {
            medians,
            ceilings,
            limits: ceilings.map(|c| if c == f64::INFINITY { f64::MAX } else { c }),
            means,
            stds,
            spread,
            spread_count,
            inv_stds: std::array::from_fn(|j| if has(spread, j) { 1.0 / stds[j] } else { 0.0 }),
            inside_bound: inside_bound(outlier_margin, spread_count),
            max_repair,
            outlier_margin,
        }
    }

    /// Override how many invalid columns a repair may impute (default:
    /// a quarter of the feature vector — a window needing more than
    /// that is mostly synthetic after imputation, and an imputed
    /// majority would let the medians, not the workload, cast the
    /// vote). Windows with more become [`SanitizeOutcome::Unusable`].
    pub fn with_max_repair(mut self, max_repair: usize) -> Sanitizer {
        self.max_repair = max_repair.min(HpcEvent::COUNT);
        self
    }

    /// Override the Mahalanobis-style outlier margin (RMS z-score;
    /// `f64::INFINITY` disables the screen entirely). Non-finite or
    /// non-positive margins other than `+inf` also disable it.
    pub fn with_outlier_margin(mut self, margin: f64) -> Sanitizer {
        self.outlier_margin = if margin > 0.0 { margin } else { f64::INFINITY };
        self.inside_bound = inside_bound(self.outlier_margin, self.spread_count);
        self
    }

    /// The armed outlier margin (`+inf` when disabled).
    pub fn outlier_margin(&self) -> f64 {
        self.outlier_margin
    }

    /// RMS z-score of a window against the training distribution, over
    /// the columns with usable spread. `0.0` when no column qualifies.
    /// Values past the last feature column are ignored.
    pub fn rms_z(&self, values: &[f64]) -> f64 {
        let width = values.len().min(HpcEvent::COUNT);
        let mut padded = [0.0; HpcEvent::COUNT];
        padded[..width].copy_from_slice(&values[..width]);
        let spread = self.spread & !(u32::MAX << width);
        self.rms(&padded, spread, spread.count_ones())
    }

    /// RMS z-score over the columns in `spread` (`count` of them),
    /// summed in ascending column order.
    fn rms(&self, values: &Column, spread: u32, count: u32) -> f64 {
        let mut sum = 0.0f64;
        let stats = self.means.iter().zip(&self.stds);
        for (j, (&v, (&mean, &std))) in values.iter().zip(stats).enumerate() {
            let z = (v - mean) / std;
            // Adding +0.0 leaves the sum's bits as they are: it is never
            // -0.0, since it starts at +0.0 and only gains squares.
            sum += if has(spread, j) { z * z } else { 0.0 };
        }
        if count == 0 {
            0.0
        } else {
            (sum / f64::from(count)).sqrt()
        }
    }

    /// The per-column imputation medians.
    pub fn medians(&self) -> &[f64] {
        &self.medians
    }

    /// Screen one window. Never panics, whatever the input holds.
    pub fn sanitize<'w>(&self, window: &'w FeatureVector) -> SanitizeOutcome<'w> {
        let values: &Column = window
            .as_slice()
            .try_into()
            .expect("a feature vector holds one value per column");
        let invalid = self.invalid_columns(values);
        if invalid == 0 {
            return match self.joint_outliers(values) {
                Some(invalid) => SanitizeOutcome::Unusable { invalid },
                None => SanitizeOutcome::Clean(window),
            };
        }
        let repaired = invalid.count_ones() as usize;
        if repaired > self.max_repair {
            return SanitizeOutcome::Unusable { invalid: repaired };
        }
        let features: Column = std::array::from_fn(|j| {
            if has(invalid, j) {
                self.medians[j]
            } else {
                values[j]
            }
        });
        match self.joint_outliers(&features) {
            Some(outliers) => SanitizeOutcome::Unusable {
                invalid: repaired.max(outliers),
            },
            None => SanitizeOutcome::Repaired {
                features: FeatureVector::from_slice(&features).expect("same width"),
                repaired,
            },
        }
    }

    /// Bit `j` set when `values[j]` is non-finite, negative, or above
    /// its column's ceiling.
    fn invalid_columns(&self, values: &Column) -> u32 {
        let mut invalid = 0u32;
        for (j, (&v, &limit)) in values.iter().zip(&self.limits).enumerate() {
            // Finite, non-negative and under the ceiling, in two
            // comparisons that a NaN fails.
            let valid = (v >= 0.0) & (v <= limit);
            invalid |= u32::from(!valid) << j;
        }
        invalid
    }

    /// When the window's RMS z-score reaches the outlier margin,
    /// returns how many columns individually exceed it (at least one:
    /// the RMS is bounded by the max |z|). `None` below the margin.
    fn joint_outliers(&self, values: &Column) -> Option<usize> {
        if !self.outlier_margin.is_finite()
            || self.fast_z2_sum(values) < self.inside_bound
            || self.rms(values, self.spread, self.spread_count) < self.outlier_margin
        {
            return None;
        }
        let count = (0..HpcEvent::COUNT)
            .filter(|&j| {
                has(self.spread, j)
                    && ((values[j] - self.means[j]) / self.stds[j]).abs() >= self.outlier_margin
            })
            .count();
        Some(count.max(1))
    }

    /// The fast joint screen's sum of squared z-scores, off the
    /// precomputed reciprocals and in four independent accumulators
    /// (columns without spread add `0`).
    fn fast_z2_sum(&self, values: &Column) -> f64 {
        let mut acc = [0.0f64; 4];
        for (j, (&v, (&mean, &inv_std))) in values
            .iter()
            .zip(self.means.iter().zip(&self.inv_stds))
            .enumerate()
        {
            let z = (v - mean) * inv_std;
            acc[j % 4] += z * z;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }
}

/// The fast joint screen's bound for `margin` over `spread_count`
/// columns, `margin² · spread_count · (1 − BOUND_SLACK)`; `0`, which no
/// sum falls below, unless that is a normal positive number.
fn inside_bound(margin: f64, spread_count: u32) -> f64 {
    let bound = margin * margin * f64::from(spread_count) * (1.0 - BOUND_SLACK);
    if bound.is_normal() && bound > 0.0 {
        bound
    } else {
        0.0
    }
}

use hbmd_ml::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Encoded as a `Vec<f64>`, so the bytes match a variable-width column.
fn snap_column(column: &Column, w: &mut SnapWriter) {
    w.put_usize(column.len());
    for v in column {
        v.snap(w);
    }
}

/// Decode a column, refusing any width but one value per feature.
fn unsnap_column(r: &mut SnapReader<'_>, name: &str) -> Result<Column, SnapError> {
    let column: Vec<f64> = Snap::unsnap(r)?;
    column.try_into().map_err(|column: Vec<f64>| {
        SnapError::Invalid(format!(
            "sanitizer {name} hold {} columns, expected {}",
            column.len(),
            HpcEvent::COUNT
        ))
    })
}

impl Snap for Sanitizer {
    fn snap(&self, w: &mut SnapWriter) {
        snap_column(&self.medians, w);
        snap_column(&self.ceilings, w);
        self.max_repair.snap(w);
        // v2 tail: the outlier screen's training stats and margin.
        snap_column(&self.means, w);
        snap_column(&self.stds, w);
        self.outlier_margin.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let medians = unsnap_column(r, "medians")?;
        let ceilings = unsnap_column(r, "ceilings")?;
        let max_repair = Snap::unsnap(r)?;
        let means = unsnap_column(r, "means")?;
        let stds = unsnap_column(r, "stds")?;
        let outlier_margin: f64 = Snap::unsnap(r)?;
        if outlier_margin.is_nan() || outlier_margin <= 0.0 {
            return Err(SnapError::Invalid(format!(
                "sanitizer outlier margin {outlier_margin} must be positive"
            )));
        }
        Ok(Sanitizer::from_columns(
            medians,
            ceilings,
            means,
            stds,
            max_repair,
            outlier_margin,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_malware::SampleCatalog;
    use hbmd_perf::{Collector, CollectorConfig};

    fn fitted() -> (HpcDataset, Sanitizer) {
        let catalog = SampleCatalog::scaled(0.02, 5);
        let dataset = Collector::new(CollectorConfig::fast())
            .expect("config")
            .collect(&catalog)
            .expect("collect")
            .dataset;
        let sanitizer = Sanitizer::fit(&dataset);
        (dataset, sanitizer)
    }

    #[test]
    fn training_windows_pass_clean() {
        let (dataset, sanitizer) = fitted();
        for row in dataset.rows() {
            assert!(matches!(
                sanitizer.sanitize(&row.features),
                SanitizeOutcome::Clean(_)
            ));
        }
    }

    #[test]
    fn light_corruption_is_repaired_with_medians() {
        let (dataset, sanitizer) = fitted();
        let mut window = dataset.rows()[0].features.clone();
        window[HpcEvent::BranchInstructions] = f64::NAN;
        window[HpcEvent::BranchMisses] = -4.0;
        match sanitizer.sanitize(&window) {
            SanitizeOutcome::Repaired { features, repaired } => {
                assert_eq!(repaired, 2);
                let j = HpcEvent::BranchInstructions.index();
                assert_eq!(features.as_slice()[j], sanitizer.medians()[j]);
                assert!(features.as_slice().iter().all(|v| v.is_finite()));
            }
            other => panic!("expected repair, got {other:?}"),
        }
    }

    #[test]
    fn saturated_counters_are_out_of_range() {
        let (dataset, sanitizer) = fitted();
        let mut window = dataset.rows()[0].features.clone();
        window[HpcEvent::CacheReferences] = hbmd_perf::SATURATION_CEILING;
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Repaired { repaired: 1, .. }
        ));
    }

    #[test]
    fn garbage_windows_are_unusable() {
        let (_, sanitizer) = fitted();
        let values = vec![f64::NAN; HpcEvent::COUNT];
        let window = FeatureVector::from_slice(&values).expect("16");
        match sanitizer.sanitize(&window) {
            SanitizeOutcome::Unusable { invalid } => {
                assert_eq!(invalid, HpcEvent::COUNT);
            }
            other => panic!("expected unusable, got {other:?}"),
        }
        assert!(sanitizer.sanitize(&window).features().is_none());
    }

    #[test]
    fn empty_fit_accepts_any_finite_window() {
        let sanitizer = Sanitizer::fit(&HpcDataset::default());
        let window = FeatureVector::from_slice(&[1e12; HpcEvent::COUNT]).expect("16");
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Clean(_)
        ));
    }

    #[test]
    fn adversarially_shifted_windows_abstain() {
        let (dataset, sanitizer) = fitted();
        // Every column pushed to 7× its training maximum: individually
        // below the RANGE_SLACK ceilings (8× max), jointly absurd.
        let values: Vec<f64> = (0..HpcEvent::COUNT)
            .map(|j| {
                dataset
                    .rows()
                    .iter()
                    .map(|r| r.features.as_slice()[j])
                    .fold(0.0, f64::max)
                    * 7.0
            })
            .collect();
        let window = FeatureVector::from_slice(&values).expect("16");
        assert!(
            sanitizer.rms_z(&values) >= sanitizer.outlier_margin(),
            "rms z {} under margin {}",
            sanitizer.rms_z(&values),
            sanitizer.outlier_margin()
        );
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Unusable { .. }
        ));
        // Disabling the margin restores the pre-screen behaviour.
        let relaxed = sanitizer.clone().with_outlier_margin(f64::INFINITY);
        assert!(matches!(
            relaxed.sanitize(&window),
            SanitizeOutcome::Clean(_)
        ));
    }

    #[test]
    fn outlier_stats_survive_a_snapshot_roundtrip() {
        use hbmd_ml::snap::{Snap, SnapReader, SnapWriter};
        let (_, sanitizer) = fitted();
        let sanitizer = sanitizer.with_outlier_margin(9.5);
        let mut w = SnapWriter::new();
        sanitizer.snap(&mut w);
        let bytes = w.into_bytes();
        let restored = Sanitizer::unsnap(&mut SnapReader::new(&bytes)).expect("roundtrip");
        assert_eq!(restored, sanitizer);
        assert_eq!(restored.outlier_margin(), 9.5);
    }

    #[test]
    fn a_snapshot_of_the_wrong_width_is_refused() {
        use hbmd_ml::snap::{Snap, SnapError, SnapReader, SnapWriter};
        // Columns of equal but wrong width: restoring a short one would
        // index past its end at the first sanitized window.
        for width in [HpcEvent::COUNT - 1, HpcEvent::COUNT + 1, 0] {
            let column = vec![1.0f64; width];
            let mut w = SnapWriter::new();
            column.snap(&mut w);
            column.snap(&mut w);
            4usize.snap(&mut w);
            column.snap(&mut w);
            column.snap(&mut w);
            OUTLIER_MARGIN.snap(&mut w);
            let bytes = w.into_bytes();
            assert!(
                matches!(
                    Sanitizer::unsnap(&mut SnapReader::new(&bytes)),
                    Err(SnapError::Invalid(_))
                ),
                "width {width} restored"
            );
        }
    }

    #[test]
    fn max_repair_override_tightens_the_policy() {
        let (dataset, sanitizer) = fitted();
        let sanitizer = sanitizer.with_max_repair(0);
        let mut window = dataset.rows()[0].features.clone();
        window[HpcEvent::BranchInstructions] = f64::NAN;
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Unusable { invalid: 1 }
        ));
    }
}
