//! Differential tests: [`Sanitizer::sanitize`] against a reference model.
//!
//! The reference below is the straightforward screen the sanitizer used
//! to run: it tests each column's validity one by one into a list of
//! invalid columns, and re-tests every column's spread while it sums
//! the outlier screen's z-scores. The production screen precomputes the
//! spread mask, builds the invalid-column mask in one pass and accepts
//! most windows off a fast bound before any exact z-score, but must
//! reach exactly the same outcome: the same variant, the same
//! `repaired` / `invalid` counts and the same feature bits. The
//! reference reads its statistics out of the sanitizer's snapshot, so
//! it shares nothing with the production screen but the bytes.

use std::sync::OnceLock;

use hbmd_core::{SanitizeOutcome, Sanitizer};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleCatalog, SampleId};
use hbmd_ml::snap::{Snap, SnapReader, SnapWriter};
use hbmd_perf::{Collector, CollectorConfig, DataRow, HpcDataset};
use proptest::prelude::*;

/// Reference model, kept only as a test oracle.
mod reference {
    use hbmd_core::{SanitizeOutcome, Sanitizer};
    use hbmd_events::{FeatureVector, HpcEvent};
    use hbmd_ml::snap::{Snap, SnapReader, SnapWriter};

    pub struct RefSanitizer {
        pub medians: Vec<f64>,
        pub ceilings: Vec<f64>,
        pub means: Vec<f64>,
        pub stds: Vec<f64>,
        max_repair: usize,
        outlier_margin: f64,
    }

    impl RefSanitizer {
        /// The statistics `sanitizer` snapshots, in its field order.
        pub fn of(sanitizer: &Sanitizer) -> RefSanitizer {
            let mut w = SnapWriter::new();
            sanitizer.snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let medians = Vec::<f64>::unsnap(&mut r).expect("medians");
            let ceilings = Vec::<f64>::unsnap(&mut r).expect("ceilings");
            let max_repair = usize::unsnap(&mut r).expect("max_repair");
            let means = Vec::<f64>::unsnap(&mut r).expect("means");
            let stds = Vec::<f64>::unsnap(&mut r).expect("stds");
            let outlier_margin = f64::unsnap(&mut r).expect("margin");
            assert_eq!(r.remaining(), 0, "trailing sanitizer bytes");
            RefSanitizer {
                medians,
                ceilings,
                means,
                stds,
                max_repair,
                outlier_margin,
            }
        }

        pub fn rms_z(&self, values: &[f64]) -> f64 {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for (j, &v) in values.iter().enumerate().take(self.stds.len()) {
                let std = self.stds[j];
                if std > 0.0 && std.is_finite() {
                    let z = (v - self.means[j]) / std;
                    sum += z * z;
                    n += 1;
                }
            }
            if n == 0 {
                0.0
            } else {
                (sum / n as f64).sqrt()
            }
        }

        pub fn sanitize<'w>(&self, window: &'w FeatureVector) -> SanitizeOutcome<'w> {
            let values = window.as_slice();
            let mut columns = [0usize; HpcEvent::COUNT];
            let mut found = 0;
            for (j, &v) in values.iter().enumerate() {
                if !self.is_valid(j, v) {
                    columns[found] = j;
                    found += 1;
                }
            }
            let invalid = &columns[..found];
            if invalid.is_empty() {
                if let Some(outliers) = self.joint_outliers(values) {
                    return SanitizeOutcome::Unusable { invalid: outliers };
                }
                return SanitizeOutcome::Clean(window);
            }
            if invalid.len() > self.max_repair {
                return SanitizeOutcome::Unusable {
                    invalid: invalid.len(),
                };
            }
            let mut repaired = [0.0f64; HpcEvent::COUNT];
            repaired.copy_from_slice(values);
            for &j in invalid {
                repaired[j] = self.medians[j];
            }
            if let Some(outliers) = self.joint_outliers(&repaired) {
                return SanitizeOutcome::Unusable {
                    invalid: invalid.len().max(outliers),
                };
            }
            SanitizeOutcome::Repaired {
                features: FeatureVector::from_slice(&repaired).expect("same width"),
                repaired: invalid.len(),
            }
        }

        fn is_valid(&self, column: usize, value: f64) -> bool {
            value.is_finite() && value >= 0.0 && value <= self.ceilings[column]
        }

        fn joint_outliers(&self, values: &[f64]) -> Option<usize> {
            if !self.outlier_margin.is_finite() || self.rms_z(values) < self.outlier_margin {
                return None;
            }
            let count = values
                .iter()
                .enumerate()
                .take(self.stds.len())
                .filter(|&(j, &v)| {
                    let std = self.stds[j];
                    std > 0.0
                        && std.is_finite()
                        && ((v - self.means[j]) / std).abs() >= self.outlier_margin
                })
                .count();
            Some(count.max(1))
        }
    }
}

use reference::RefSanitizer;

/// An outcome as comparable data: variant, count, feature bits (NaN
/// features compare by their bits, not by `==`).
fn key(outcome: &SanitizeOutcome) -> (&'static str, usize, Vec<u64>) {
    let bits = |f: &FeatureVector| f.as_slice().iter().map(|v| v.to_bits()).collect();
    match outcome {
        SanitizeOutcome::Clean(features) => ("clean", 0, bits(features)),
        SanitizeOutcome::Repaired { features, repaired } => ("repaired", *repaired, bits(features)),
        SanitizeOutcome::Unusable { invalid } => ("unusable", *invalid, Vec::new()),
    }
}

/// A small real collection, shared by every case.
fn collected() -> &'static HpcDataset {
    static DATASET: OnceLock<HpcDataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        Collector::new(CollectorConfig::fast())
            .expect("config")
            .collect(&SampleCatalog::scaled(0.02, 5))
            .expect("collect")
            .dataset
    })
}

/// The collection with four columns held constant (one of them at 0,
/// so its ceiling is 0 too): their spread is 0, and the outlier screen
/// skips them.
fn zero_spread() -> Sanitizer {
    let rows = collected()
        .rows()
        .iter()
        .map(|row| {
            let mut features = row.features.clone();
            features[HpcEvent::CacheMisses] = 0.0;
            features[HpcEvent::BranchMisses] = 7.5;
            features[HpcEvent::DtlbLoadMisses] = 1e6;
            features[HpcEvent::NodeLoads] = 3.0;
            DataRow {
                features,
                ..row.clone()
            }
        })
        .collect();
    Sanitizer::fit(&HpcDataset::from_rows(rows))
}

/// Every sanitizer configuration the screen must agree on.
fn sanitizers() -> &'static [Sanitizer] {
    static SANITIZERS: OnceLock<Vec<Sanitizer>> = OnceLock::new();
    SANITIZERS.get_or_init(|| {
        let fitted = Sanitizer::fit(collected());
        let one_row = Sanitizer::fit(&HpcDataset::from_rows(vec![DataRow {
            sample: SampleId(0),
            class: AppClass::Benign,
            features: FeatureVector::from_slice(&[4.0; HpcEvent::COUNT]).expect("16"),
        }]));
        vec![
            fitted.clone(),
            Sanitizer::fit(&HpcDataset::default()),
            zero_spread(),
            one_row,
            fitted.clone().with_max_repair(0),
            fitted.clone().with_max_repair(16),
            fitted.clone().with_outlier_margin(f64::INFINITY),
            fitted.with_outlier_margin(9.5),
        ]
    })
}

/// How one column of a generated window is filled in, relative to the
/// sanitizer's own statistics.
#[derive(Debug, Clone, Copy)]
enum Value {
    Nan,
    PosInf,
    NegInf,
    Negative(f64),
    Zero,
    NegZero,
    AtCeiling,
    AboveCeiling,
    /// `f64::MAX`: finite, so in range under an infinite ceiling.
    Largest,
    Median,
    /// Within a few standard deviations of the training mean.
    Near(f64),
    /// A fraction of the ceiling: in range, anywhere.
    InRange(f64),
    /// The window's joint shift, in standard deviations.
    Shifted,
    Raw(f64),
}

/// One column's [`Value`] from a uniform `kind` in `0..31`.
fn value(kind: u8, f: f64, bits: u64) -> Value {
    match kind {
        0 => Value::Nan,
        1 => Value::PosInf,
        2 => Value::NegInf,
        3 => Value::Negative(-(f * 1e9) - 1e-9),
        4 => Value::Zero,
        5 => Value::NegZero,
        6 => Value::AtCeiling,
        7 => Value::AboveCeiling,
        8 => Value::Median,
        9..=14 => Value::Near(f * 6.0 - 3.0),
        15..=16 => Value::InRange(f),
        17..=28 => Value::Shifted,
        29 => Value::Largest,
        _ => Value::Raw(f64::from_bits(bits)),
    }
}

/// A window recipe: one [`Value`] per column and a joint shift, within
/// the margins, around them, or far past them. One window in four
/// draws only from the values that are valid on a fitted sanitizer
/// (unless shifted past a ceiling), so clean windows are common too.
fn arb_window() -> impl Strategy<Value = (Vec<Value>, f64)> {
    (
        prop::collection::vec((0u8..31, 0.0f64..1.0, 0u64..=u64::MAX), HpcEvent::COUNT),
        0u8..4,
        (0u8..3, 0.0f64..1.0),
    )
        .prop_map(|(columns, faults, (band, f))| {
            let recipe = columns
                .into_iter()
                .map(|(kind, f, bits)| {
                    let kind = if faults == 0 { 8 + kind % 21 } else { kind };
                    value(kind, f, bits)
                })
                .collect();
            let shift = match band {
                0 => f * 4.0,
                1 => 4.0 + f * 36.0,
                _ => 1e3 * 1e9f64.powf(f),
            };
            (recipe, shift)
        })
}

fn materialize(oracle: &RefSanitizer, recipe: &[Value], shift: f64) -> FeatureVector {
    let values: Vec<f64> = recipe
        .iter()
        .enumerate()
        .map(|(j, value)| {
            let (mean, std, ceiling) = (oracle.means[j], oracle.stds[j], oracle.ceilings[j]);
            match *value {
                Value::Nan => f64::NAN,
                Value::PosInf => f64::INFINITY,
                Value::NegInf => f64::NEG_INFINITY,
                Value::Negative(v) | Value::Raw(v) => v,
                Value::Zero => 0.0,
                Value::NegZero => -0.0,
                Value::AtCeiling => ceiling,
                Value::AboveCeiling => ceiling.next_up(),
                Value::Largest => f64::MAX,
                Value::Median => oracle.medians[j],
                Value::Near(z) => mean + z * std,
                Value::InRange(f) if ceiling.is_finite() => f * ceiling,
                Value::InRange(f) => f * 1e12,
                Value::Shifted => mean + shift * std,
            }
        })
        .collect();
    FeatureVector::from_slice(&values).expect("one value per column")
}

/// A sanitizer restored from arbitrary statistics: NaN, infinite, zero
/// and negative means, stds, medians and ceilings included.
fn arb_sanitizer() -> impl Strategy<Value = Sanitizer> {
    let stat = (0u8..9, 0.0f64..1.0, 0u64..=u64::MAX).prop_map(|(kind, f, bits)| match kind {
        0..=3 => f * 1e6,
        4 => 0.0,
        5 => f64::NAN,
        6 => f64::INFINITY,
        7 => -(f * 1e3),
        _ => f64::from_bits(bits),
    });
    let column = || prop::collection::vec(stat.clone(), HpcEvent::COUNT);
    (
        column(),
        column(),
        column(),
        column(),
        0usize..=20,
        (0u8..2, 0.25f64..30.0).prop_map(
            |(armed, margin)| {
                if armed == 0 {
                    f64::INFINITY
                } else {
                    margin
                }
            },
        ),
    )
        .prop_map(|(medians, ceilings, means, stds, max_repair, margin)| {
            let mut w = SnapWriter::new();
            medians.snap(&mut w);
            ceilings.snap(&mut w);
            max_repair.snap(&mut w);
            means.snap(&mut w);
            stds.snap(&mut w);
            margin.snap(&mut w);
            let bytes = w.into_bytes();
            Sanitizer::unsnap(&mut SnapReader::new(&bytes)).expect("well-formed snapshot")
        })
}

fn assert_agrees(sanitizer: &Sanitizer, recipe: &[Value], shift: f64) {
    let oracle = RefSanitizer::of(sanitizer);
    let window = materialize(&oracle, recipe, shift);
    prop_assert_eq!(
        key(&sanitizer.sanitize(&window)),
        key(&oracle.sanitize(&window)),
        "window {:?}",
        window.as_slice()
    );
    assert_same_rms(sanitizer, &oracle, window.as_slice());
}

/// The same RMS z-score, bit for bit. Any NaN matches any NaN: IEEE
/// arithmetic leaves a NaN's sign and payload unspecified, and the
/// screen only ever compares the score.
fn assert_same_rms(sanitizer: &Sanitizer, oracle: &RefSanitizer, values: &[f64]) {
    let (rms, expected) = (sanitizer.rms_z(values), oracle.rms_z(values));
    prop_assert!(
        rms.to_bits() == expected.to_bits() || (rms.is_nan() && expected.is_nan()),
        "rms {rms} vs {expected} on {values:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn screen_matches_reference_on_every_configuration(window in arb_window()) {
        let (recipe, shift) = window;
        for sanitizer in sanitizers() {
            assert_agrees(sanitizer, &recipe, shift);
        }
    }

    #[test]
    fn screen_matches_reference_on_arbitrary_statistics(
        sanitizer in arb_sanitizer(),
        window in arb_window(),
    ) {
        let (recipe, shift) = window;
        assert_agrees(&sanitizer, &recipe, shift);
    }

    #[test]
    fn rms_z_matches_reference_at_any_width(
        values in prop::collection::vec(
            (0u8..2, 0.0f64..1e9, 0u64..=u64::MAX)
                .prop_map(|(raw, v, bits)| if raw == 0 { v } else { f64::from_bits(bits) }),
            0..24,
        ),
    ) {
        for sanitizer in sanitizers() {
            assert_same_rms(sanitizer, &RefSanitizer::of(sanitizer), &values);
        }
    }
}

/// The generated windows reach every outcome, the outlier screen's
/// abstentions included, so the agreement above is not vacuous.
#[test]
fn the_generated_windows_reach_every_outcome() {
    let fitted = &sanitizers()[0];
    let oracle = RefSanitizer::of(fitted);
    let mut rng = TestRng::for_test("the_generated_windows_reach_every_outcome");
    let (mut clean, mut repaired, mut too_many, mut outliers) = (0, 0, 0, 0);
    for _ in 0..2048 {
        let (recipe, shift) = arb_window().new_value(&mut rng);
        let window = materialize(&oracle, &recipe, shift);
        let invalid = window
            .as_slice()
            .iter()
            .zip(&oracle.ceilings)
            .filter(|&(&v, &ceiling)| !(v.is_finite() && v >= 0.0 && v <= ceiling))
            .count();
        match fitted.sanitize(&window) {
            SanitizeOutcome::Clean(_) => clean += 1,
            SanitizeOutcome::Repaired { .. } => repaired += 1,
            SanitizeOutcome::Unusable { .. } if invalid > HpcEvent::COUNT / 4 => too_many += 1,
            SanitizeOutcome::Unusable { .. } => outliers += 1,
        }
    }
    for (outcome, count) in [
        ("clean", clean),
        ("repaired", repaired),
        ("unusable: too many invalid", too_many),
        ("unusable: outlier", outliers),
    ] {
        assert!(count >= 20, "{outcome}: {count} of 2048 windows");
    }
}

/// The sanitizers the outlier margin's boundary is probed on: the
/// fitted one, the fitted one re-armed at other margins, and the fitted
/// statistics restored from a snapshot with their ceilings lifted to
/// `+inf`, so a window far out in z is still in range and the joint
/// screen alone decides it, at the same margins.
fn boundary_sanitizers() -> Vec<Sanitizer> {
    let fitted = Sanitizer::fit(collected());
    let oracle = RefSanitizer::of(&fitted);
    let mut w = SnapWriter::new();
    oracle.medians.snap(&mut w);
    vec![f64::INFINITY; HpcEvent::COUNT].snap(&mut w);
    (HpcEvent::COUNT / 4).snap(&mut w);
    oracle.means.snap(&mut w);
    oracle.stds.snap(&mut w);
    fitted.outlier_margin().snap(&mut w);
    let bytes = w.into_bytes();
    let restored = Sanitizer::unsnap(&mut SnapReader::new(&bytes)).expect("well-formed snapshot");
    let mut sanitizers = vec![fitted.clone(), restored.clone()];
    for margin in [0.5, 3.0, 16.0, 1e150] {
        sanitizers.push(fitted.clone().with_outlier_margin(margin));
        sanitizers.push(restored.clone().with_outlier_margin(margin));
    }
    sanitizers
}

/// The window `mean + t · direction · std` on the columns with spread,
/// the mean elsewhere.
fn along(oracle: &RefSanitizer, direction: &[f64], t: f64) -> FeatureVector {
    let values: Vec<f64> = (0..HpcEvent::COUNT)
        .map(|j| {
            let (mean, std) = (oracle.means[j], oracle.stds[j]);
            if std > 0.0 && std.is_finite() {
                mean + t * direction[j] * std
            } else {
                mean
            }
        })
        .collect();
    FeatureVector::from_slice(&values).expect("one value per column")
}

/// Adjacent `(below, at)` scales along `direction`: the window at
/// `below` scores under `target` and the one at `at` reaches it, by
/// the exact RMS z-score.
fn straddle(oracle: &RefSanitizer, direction: &[f64], target: f64) -> (f64, f64) {
    let rms = |t: f64| oracle.rms_z(along(oracle, direction, t).as_slice());
    let (mut below, mut at) = (0.0f64, 1.0f64);
    while rms(at) < target {
        below = at;
        at *= 2.0;
    }
    while below.next_up() < at {
        let mid = below + (at - below) / 2.0;
        if mid <= below || mid >= at {
            break;
        }
        if rms(mid) < target {
            below = mid;
        } else {
            at = mid;
        }
    }
    (below, at)
}

/// Windows whose exact RMS z-score sits at the outlier margin × (1 + d)
/// for relative offsets d down to one ulp either side, and at the
/// margin itself, on both sides of each target: the screen must reach
/// the reference's outcome on every one. The screen's fast bound
/// decides almost all served windows, so these are where a bound too
/// loose, not refreshed with the margin, or compared the wrong way
/// would show.
#[test]
fn the_outlier_margin_boundary_matches_reference() {
    let directions: [[f64; HpcEvent::COUNT]; 4] = [
        [1.0; HpcEvent::COUNT],
        std::array::from_fn(|j| (j + 1) as f64),
        std::array::from_fn(|j| if j % 5 == 2 { 1.0 } else { 0.0 }),
        std::array::from_fn(|j| ((j * 7919) % 13) as f64 / 13.0 + 0.05),
    ];
    for sanitizer in boundary_sanitizers() {
        let oracle = RefSanitizer::of(&sanitizer);
        let margin = sanitizer.outlier_margin();
        let targets = [
            margin * (1.0 - 1e-6),
            margin * (1.0 - 1e-9),
            margin * (1.0 - 1e-12),
            margin.next_down(),
            margin,
            margin.next_up(),
            margin * (1.0 + 1e-12),
            margin * (1.0 + 1e-9),
        ];
        let (mut probed, mut in_range) = (0, 0);
        for direction in &directions {
            for target in targets {
                let (below, at) = straddle(&oracle, direction, target);
                for t in [below, at] {
                    let window = along(&oracle, direction, t);
                    assert_eq!(
                        key(&sanitizer.sanitize(&window)),
                        key(&oracle.sanitize(&window)),
                        "margin {margin}, target {target}, window {:?}",
                        window.as_slice()
                    );
                    probed += 1;
                    in_range += usize::from(
                        window
                            .as_slice()
                            .iter()
                            .zip(&oracle.ceilings)
                            .all(|(&v, &ceiling)| v <= ceiling),
                    );
                }
            }
        }
        // The lifted-ceiling sanitizers keep every probe in range, so
        // the joint screen decides each one.
        if oracle.ceilings.iter().all(|c| c.is_infinite()) {
            assert_eq!(in_range, probed, "margin {margin}");
        }
    }
}
