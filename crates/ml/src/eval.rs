//! Classifier evaluation: confusion matrices, accuracy and per-class
//! metrics — the WEKA `Evaluation` module.

use std::fmt;

use crate::classifier::Classifier;
use crate::data::Dataset;

/// A square confusion matrix: `counts[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    class_names: Vec<String>,
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// An all-zero matrix over the given classes.
    pub fn new(class_names: Vec<String>) -> ConfusionMatrix {
        let n = class_names.len();
        ConfusionMatrix {
            class_names,
            counts: vec![vec![0; n]; n],
        }
    }

    /// Record one `(actual, predicted)` outcome.
    ///
    /// # Panics
    ///
    /// Panics when either label is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        self.counts[actual][predicted] += 1;
    }

    /// The raw counts.
    pub fn counts(&self) -> &[Vec<usize>] {
        &self.counts
    }

    /// Class names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Total instances recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Correctly classified instances.
    pub fn correct(&self) -> usize {
        (0..self.counts.len()).map(|i| self.counts[i][i]).sum()
    }

    /// Overall accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.correct() as f64 / total as f64
        }
    }

    /// Recall of one class (true-positive rate); 0 when the class never
    /// occurs.
    pub fn recall(&self, class: usize) -> f64 {
        let row: usize = self.counts[class].iter().sum();
        if row == 0 {
            0.0
        } else {
            self.counts[class][class] as f64 / row as f64
        }
    }

    /// Cohen's kappa (chance-corrected agreement).
    pub fn kappa(&self) -> f64 {
        let total = self.total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let po = self.accuracy();
        let pe: f64 = (0..self.counts.len())
            .map(|c| {
                let row: usize = self.counts[c].iter().sum();
                let col: usize = self.counts.iter().map(|r| r[c]).sum();
                (row as f64 / total) * (col as f64 / total)
            })
            .sum();
        if (1.0 - pe).abs() < 1e-12 {
            0.0
        } else {
            (po - pe) / (1.0 - pe)
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12}", "actual\\pred")?;
        for name in &self.class_names {
            write!(f, " {name:>10}")?;
        }
        writeln!(f)?;
        for (i, row) in self.counts.iter().enumerate() {
            write!(f, "{:>12}", self.class_names[i])?;
            for &c in row {
                write!(f, " {c:>10}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The result of evaluating a trained classifier on a test set.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    scheme: String,
    confusion: ConfusionMatrix,
}

impl Evaluation {
    /// Evaluate `classifier` (already trained) on `test`.
    ///
    /// Predictions run through [`Classifier::predict_batch`] over the
    /// dataset's columnar row view, so schemes with a compiled flat
    /// form ([`crate::compiled`]) classify the whole test set in one
    /// batched pass.
    pub fn of<C: Classifier + ?Sized>(classifier: &C, test: &Dataset) -> Evaluation {
        let latency = hbmd_obs::timer_with("predict_ns", &[("scheme", classifier.name())]);
        hbmd_obs::add("eval.instances", test.len() as u64);
        let mut confusion = ConfusionMatrix::new(test.class_names().to_vec());
        let predictions = classifier.predict_batch(test.rows());
        for (&label, prediction) in test.labels().iter().zip(predictions) {
            confusion.record(label, prediction);
        }
        latency.stop();
        Evaluation {
            scheme: classifier.name().to_owned(),
            confusion,
        }
    }

    /// The classifier scheme name.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The confusion matrix.
    pub fn confusion(&self) -> &ConfusionMatrix {
        &self.confusion
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// Cohen's kappa.
    pub fn kappa(&self) -> f64 {
        self.confusion.kappa()
    }

    /// Per-class recall, indexed by label — the "per-class accuracy" of
    /// the paper's Figure 18.
    pub fn per_class_recall(&self) -> Vec<f64> {
        (0..self.confusion.class_names().len())
            .map(|c| self.confusion.recall(c))
            .collect()
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for ConfusionMatrix {
    fn snap(&self, w: &mut SnapWriter) {
        self.class_names.snap(w);
        self.counts.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let class_names: Vec<String> = Snap::unsnap(r)?;
        let counts: Vec<Vec<usize>> = Snap::unsnap(r)?;
        let n = class_names.len();
        if counts.len() != n || counts.iter().any(|row| row.len() != n) {
            return Err(SnapError::Invalid(format!("confusion matrix not {n}x{n}")));
        }
        Ok(ConfusionMatrix {
            class_names,
            counts,
        })
    }
}

impl Snap for Evaluation {
    fn snap(&self, w: &mut SnapWriter) {
        self.scheme.snap(w);
        self.confusion.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Evaluation {
            scheme: Snap::unsnap(r)?,
            confusion: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifiers::one_r::OneR;
    use crate::classifiers::zero_r::ZeroR;

    fn separable(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        for i in 0..n {
            d.push(vec![i as f64], usize::from(i >= n / 2))
                .expect("row");
        }
        d
    }

    #[test]
    fn confusion_metrics_on_a_known_matrix() {
        let mut cm = ConfusionMatrix::new(vec!["a".into(), "b".into()]);
        // 8 a-correct, 2 a-as-b, 1 b-as-a, 9 b-correct.
        for _ in 0..8 {
            cm.record(0, 0);
        }
        for _ in 0..2 {
            cm.record(0, 1);
        }
        cm.record(1, 0);
        for _ in 0..9 {
            cm.record(1, 1);
        }
        assert_eq!(cm.total(), 20);
        assert_eq!(cm.correct(), 17);
        assert!((cm.accuracy() - 0.85).abs() < 1e-12);
        assert!((cm.recall(0) - 0.8).abs() < 1e-12);
        assert!(cm.kappa() > 0.5);
    }

    #[test]
    fn kappa_is_zero_for_constant_predictions() {
        let mut cm = ConfusionMatrix::new(vec!["a".into(), "b".into()]);
        for _ in 0..10 {
            cm.record(0, 0);
        }
        for _ in 0..10 {
            cm.record(1, 0);
        }
        assert!((cm.accuracy() - 0.5).abs() < 1e-12);
        assert!(cm.kappa().abs() < 1e-12);
    }

    #[test]
    fn evaluation_of_a_fitted_classifier_on_the_held_out_split() {
        let data = separable(100);
        let (train, test) = data.split(0.7, 1);
        let mut one_r = OneR::new();
        one_r.fit(&train).expect("train");
        let eval = Evaluation::of(&one_r, &test);
        assert!(eval.accuracy() > 0.85);
        assert_eq!(eval.scheme(), "OneR");
        assert_eq!(eval.per_class_recall().len(), 2);
    }

    #[test]
    fn zero_r_accuracy_matches_class_balance() {
        let data = separable(100);
        let mut zr = ZeroR::new();
        zr.fit(&data).expect("train");
        let eval = Evaluation::of(&zr, &data);
        assert!((eval.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_renders_all_classes() {
        let mut cm = ConfusionMatrix::new(vec!["benign".into(), "malware".into()]);
        cm.record(0, 1);
        let text = cm.to_string();
        assert!(text.contains("benign"));
        assert!(text.contains("malware"));
    }
}
