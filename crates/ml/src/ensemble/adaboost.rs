use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::classifier::Classifier;
use crate::data::{Dataset, MlError};

/// WEKA `AdaBoostM1`: adaptive boosting by resampling.
///
/// Each round trains a fresh clone of the base learner on a sample
/// drawn proportionally to the current instance weights, then
/// up-weights the instances the round misclassified. Prediction is the
/// `ln((1-e)/e)`-weighted vote of the rounds. Training stops early when
/// a round's weighted error hits 0 (perfect) or ≥ 0.5 (no better than
/// chance).
///
/// # Examples
///
/// ```
/// use hbmd_ml::{AdaBoostM1, Classifier, Dataset, DecisionStump};
///
/// let mut data = Dataset::new(
///     vec!["x".into(), "y".into()],
///     vec!["a".into(), "b".into()],
/// )?;
/// for i in 0..64 {
///     let x = (i % 8) as f64;
///     let y = (i / 8) as f64;
///     // A conjunction no single stump can express.
///     data.push(vec![x, y], usize::from(x >= 4.0 && y >= 4.0))?;
/// }
/// let mut booster = AdaBoostM1::new(DecisionStump::new(), 20);
/// booster.fit(&data)?;
/// assert_eq!(booster.predict(&[7.0, 7.0]), 1);
/// assert_eq!(booster.predict(&[7.0, 1.0]), 0);
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaBoostM1<B: Classifier + Clone> {
    prototype: B,
    iterations: usize,
    seed: u64,
    members: Vec<(B, f64)>,
    num_classes: usize,
}

impl<B: Classifier + Clone> AdaBoostM1<B> {
    /// A booster over clones of `prototype`, running at most
    /// `iterations` rounds.
    ///
    /// # Panics
    ///
    /// Panics when `iterations` is zero.
    pub fn new(prototype: B, iterations: usize) -> AdaBoostM1<B> {
        assert!(iterations > 0, "iterations must be non-zero");
        AdaBoostM1 {
            prototype,
            iterations,
            seed: 1,
            members: Vec::new(),
            num_classes: 0,
        }
    }

    /// Deterministic resampling seed.
    pub fn with_seed(mut self, seed: u64) -> AdaBoostM1<B> {
        self.seed = seed;
        self
    }

    /// Number of committee members after fitting (0 before).
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// The weighted committee plus class count, for the flat compiler
    /// in [`crate::compiled`].
    pub(crate) fn parts(&self) -> (&[(B, f64)], usize) {
        (&self.members, self.num_classes)
    }
}

impl<B: Classifier + Clone> Classifier for AdaBoostM1<B> {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        data.check_trainable()?;
        let n = data.len();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut weights = vec![1.0f64 / n as f64; n];
        self.members.clear();
        self.num_classes = data.num_classes();

        for _round in 0..self.iterations {
            // Resample by weight.
            let index = WeightedIndex::new(&weights)
                .map_err(|_| MlError::Config("degenerate boosting weights".to_owned()))?;
            let sample: Vec<usize> = (0..n).map(|_| index.sample(&mut rng)).collect();
            let round_data = data.subset(&sample);
            if round_data.distinct_classes() < 2 {
                break; // the weight mass collapsed onto one class
            }
            let mut member = self.prototype.clone();
            member.fit(&round_data)?;

            // Weighted training error of this member.
            let mut error = 0.0f64;
            let predictions: Vec<usize> = data.rows().iter().map(|r| member.predict(r)).collect();
            for (i, (&prediction, &label)) in predictions.iter().zip(data.labels()).enumerate() {
                if prediction != label {
                    error += weights[i];
                }
            }
            if error >= 0.5 {
                break; // no better than chance: stop boosting
            }
            let raw_error = error;
            let error = error.max(1e-10);
            let alpha = ((1.0 - error) / error).ln();
            self.members.push((member, alpha));
            if raw_error <= 0.0 {
                break; // perfect member: nothing left to boost
            }

            // Re-weight: misclassified instances gain, the rest decay.
            for (i, (&prediction, &label)) in predictions.iter().zip(data.labels()).enumerate() {
                if prediction != label {
                    weights[i] *= (1.0 - error) / error;
                }
            }
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
        }

        if self.members.is_empty() {
            // Even one chance-level round is a usable (if weak) model:
            // fall back to a single unweighted member.
            let mut member = self.prototype.clone();
            member.fit(data)?;
            self.members.push((member, 1.0));
        }
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> usize {
        assert!(
            !self.members.is_empty(),
            "AdaBoostM1::predict called before fit"
        );
        let mut votes = vec![0.0f64; self.num_classes.max(2)];
        for (member, alpha) in &self.members {
            let prediction = member.predict(features);
            if prediction < votes.len() {
                votes[prediction] += alpha;
            }
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> &str {
        "AdaBoostM1"
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl<B: Classifier + Clone + Snap> Snap for AdaBoostM1<B> {
    fn snap(&self, w: &mut SnapWriter) {
        self.prototype.snap(w);
        self.iterations.snap(w);
        self.seed.snap(w);
        self.members.snap(w);
        self.num_classes.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let prototype = B::unsnap(r)?;
        let iterations: usize = Snap::unsnap(r)?;
        if iterations == 0 {
            return Err(SnapError::Invalid(
                "AdaBoostM1 iterations must be non-zero".to_owned(),
            ));
        }
        Ok(AdaBoostM1 {
            prototype,
            iterations,
            seed: Snap::unsnap(r)?,
            members: Snap::unsnap(r)?,
            num_classes: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifiers::stump::DecisionStump;
    use crate::eval::Evaluation;

    fn staircase() -> Dataset {
        // Three alternating bands: a stump gets ~2/3, boosting should
        // push past it.
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        for i in 0..120 {
            let label = (i / 40) % 2; // bands 0 | 1 | 0
            d.push(vec![i as f64], label).expect("row");
        }
        d
    }

    #[test]
    fn boosting_beats_its_base_learner() {
        let data = staircase();
        let mut stump = DecisionStump::new();
        stump.fit(&data).expect("fit");
        let stump_accuracy = Evaluation::of(&stump, &data).accuracy();

        let mut booster = AdaBoostM1::new(DecisionStump::new(), 25);
        booster.fit(&data).expect("fit");
        let boosted_accuracy = Evaluation::of(&booster, &data).accuracy();
        assert!(
            boosted_accuracy > stump_accuracy,
            "boosted {boosted_accuracy} vs stump {stump_accuracy}"
        );
        assert!(booster.num_members() > 1);
    }

    #[test]
    fn perfect_base_learner_stops_after_one_round() {
        // Two well-separated point masses: any bootstrap that sees both
        // classes yields a perfect stump, so boosting stops immediately.
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        for _ in 0..20 {
            d.push(vec![0.0], 0).expect("row");
            d.push(vec![100.0], 1).expect("row");
        }
        let mut booster = AdaBoostM1::new(DecisionStump::new(), 50);
        booster.fit(&d).expect("fit");
        assert_eq!(
            booster.num_members(),
            1,
            "a perfect stump needs no boosting"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = staircase();
        let run = |seed| {
            let mut booster = AdaBoostM1::new(DecisionStump::new(), 10).with_seed(seed);
            booster.fit(&data).expect("fit");
            (0..120)
                .map(|i| booster.predict(&[i as f64]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "iterations")]
    fn zero_iterations_panics() {
        let _ = AdaBoostM1::new(DecisionStump::new(), 0);
    }

    #[test]
    fn rejects_untrainable() {
        let d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        assert!(AdaBoostM1::new(DecisionStump::new(), 5).fit(&d).is_err());
    }
}
