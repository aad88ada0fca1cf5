use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::classifier::Classifier;
use crate::data::{Dataset, MlError};
use crate::filter::Standardize;

/// A linear support vector machine trained with the Pegasos
/// (stochastic sub-gradient) algorithm — the role WEKA's `SMO` plays in
/// the reference evaluation.
///
/// Multiclass problems are handled one-vs-rest: one hyperplane per
/// class, highest margin wins. Features are standardised internally.
///
/// # Examples
///
/// ```
/// use hbmd_ml::{Classifier, Dataset, LinearSvm};
///
/// let mut data = Dataset::new(vec!["x".into()], vec!["neg".into(), "pos".into()])?;
/// for i in 0..40 {
///     data.push(vec![i as f64], usize::from(i >= 20))?;
/// }
/// let mut svm = LinearSvm::new();
/// svm.fit(&data)?;
/// assert_eq!(svm.predict(&[36.0]), 1);
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinearSvm {
    lambda: f64,
    epochs: usize,
    seed: u64,
    model: Option<SvmModel>,
}

#[derive(Debug, Clone)]
struct SvmModel {
    standardize: Standardize,
    /// One hyperplane per class: `[class][feature]` plus trailing bias.
    planes: Vec<Vec<f64>>,
}

impl LinearSvm {
    /// Defaults: λ = 1e-4, 40 epochs.
    pub fn new() -> LinearSvm {
        LinearSvm {
            lambda: 1e-4,
            epochs: 40,
            seed: 1,
            model: None,
        }
    }

    /// Deterministic sampling seed.
    pub fn with_seed(mut self, seed: u64) -> LinearSvm {
        self.seed = seed;
        self
    }

    /// `(num_features, num_classes)` of the fitted model.
    pub fn dims(&self) -> Option<(usize, usize)> {
        self.model
            .as_ref()
            .map(|m| (m.planes[0].len() - 1, m.planes.len()))
    }

    /// Per-class margins for one instance.
    ///
    /// # Panics
    ///
    /// Panics when called before a successful fit.
    pub fn decision_values(&self, features: &[f64]) -> Vec<f64> {
        let m = self
            .model
            .as_ref()
            .expect("LinearSvm::predict called before fit");
        let x = m.standardize.transform_row(features);
        m.planes.iter().map(|w| margin(w, &x)).collect()
    }

    /// Pegasos on one binary task: `+1` for `class`, `-1` otherwise.
    fn train_plane(
        &self,
        rows: &[Vec<f64>],
        labels: &[usize],
        class: usize,
        rng: &mut SmallRng,
    ) -> Vec<f64> {
        let features = rows[0].len();
        let mut w = vec![0.0f64; features + 1];
        let n = rows.len();
        let mut t = 0usize;
        for _epoch in 0..self.epochs {
            for _ in 0..n {
                t += 1;
                let i = rng.gen_range(0..n);
                let y = if labels[i] == class { 1.0 } else { -1.0 };
                let eta = 1.0 / (self.lambda * t as f64);
                let m = y * margin(&w, &rows[i]);
                // Weight decay on the non-bias coordinates.
                for wj in w[..features].iter_mut() {
                    *wj *= 1.0 - eta * self.lambda;
                }
                if m < 1.0 {
                    for (wj, xj) in w[..features].iter_mut().zip(&rows[i]) {
                        *wj += eta * y * xj;
                    }
                    w[features] += eta * y;
                }
            }
        }
        w
    }
}

fn margin(w: &[f64], x: &[f64]) -> f64 {
    let bias = w[w.len() - 1];
    w[..w.len() - 1]
        .iter()
        .zip(x)
        .map(|(wi, xi)| wi * xi)
        .sum::<f64>()
        + bias
}

impl Default for LinearSvm {
    fn default() -> LinearSvm {
        LinearSvm::new()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        data.check_trainable()?;
        let standardize = Standardize::fit(data);
        let rows: Vec<Vec<f64>> = data
            .rows()
            .iter()
            .map(|r| standardize.transform_row(r))
            .collect();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let counts = data.class_counts();
        let planes: Vec<Vec<f64>> = (0..data.num_classes())
            .map(|class| {
                if counts[class] == 0 {
                    // Absent class: a plane that never wins.
                    let mut w = vec![0.0; data.num_features() + 1];
                    w[data.num_features()] = f64::NEG_INFINITY;
                    w
                } else {
                    self.train_plane(&rows, data.labels(), class, &mut rng)
                }
            })
            .collect();
        self.model = Some(SvmModel {
            standardize,
            planes,
        });
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> usize {
        self.decision_values(features)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> &str {
        "SVM"
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for LinearSvm {
    fn snap(&self, w: &mut SnapWriter) {
        self.lambda.snap(w);
        self.epochs.snap(w);
        self.seed.snap(w);
        self.model.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(LinearSvm {
            lambda: Snap::unsnap(r)?,
            epochs: Snap::unsnap(r)?,
            seed: Snap::unsnap(r)?,
            model: Snap::unsnap(r)?,
        })
    }
}

impl Snap for SvmModel {
    fn snap(&self, w: &mut SnapWriter) {
        self.standardize.snap(w);
        self.planes.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SvmModel {
            standardize: Snap::unsnap(r)?,
            planes: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_boundary_is_learned() {
        let mut d =
            Dataset::new(vec!["x".into()], vec!["neg".into(), "pos".into()]).expect("schema");
        for i in 0..80 {
            d.push(vec![i as f64], usize::from(i >= 40)).expect("row");
        }
        let mut svm = LinearSvm::new();
        svm.fit(&d).expect("fit");
        assert_eq!(svm.predict(&[3.0]), 0);
        assert_eq!(svm.predict(&[77.0]), 1);
        let margins = svm.decision_values(&[77.0]);
        assert!(margins[1] > margins[0]);
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let mut d = Dataset::new(
            vec!["x".into(), "y".into()],
            vec!["a".into(), "b".into(), "c".into()],
        )
        .expect("schema");
        for i in 0..60 {
            let wiggle = (i % 5) as f64 * 0.1;
            d.push(vec![0.0 + wiggle, 0.0], 0).expect("row");
            d.push(vec![10.0 + wiggle, 0.0], 1).expect("row");
            d.push(vec![5.0 + wiggle, 10.0], 2).expect("row");
        }
        let mut svm = LinearSvm::new();
        svm.fit(&d).expect("fit");
        assert_eq!(svm.predict(&[0.2, 0.0]), 0);
        assert_eq!(svm.predict(&[10.2, 0.0]), 1);
        assert_eq!(svm.predict(&[5.2, 10.0]), 2);
        assert_eq!(svm.dims(), Some((2, 3)));
    }

    #[test]
    fn absent_class_never_wins() {
        let mut d = Dataset::new(
            vec!["x".into()],
            vec!["a".into(), "ghost".into(), "b".into()],
        )
        .expect("schema");
        for i in 0..40 {
            d.push(vec![i as f64], if i >= 20 { 2 } else { 0 })
                .expect("row");
        }
        let mut svm = LinearSvm::new();
        svm.fit(&d).expect("fit");
        for x in 0..40 {
            assert_ne!(svm.predict(&[x as f64]), 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        for i in 0..50 {
            d.push(vec![i as f64], usize::from(i >= 25)).expect("row");
        }
        let run = |seed| {
            let mut svm = LinearSvm::new().with_seed(seed);
            svm.fit(&d).expect("fit");
            svm.decision_values(&[10.0])
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn rejects_untrainable() {
        let d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        assert!(LinearSvm::new().fit(&d).is_err());
    }
}
