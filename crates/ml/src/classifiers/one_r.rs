use crate::classifier::Classifier;
use crate::data::{Dataset, MlError, RowsView};

/// WEKA `OneR`: a one-attribute rule learner.
///
/// For each attribute, the values are sorted and partitioned into
/// buckets of at least `min_bucket` instances with a shared majority
/// class; the attribute whose bucket rule misclassifies the fewest
/// training instances wins. Famously competitive on many problems while
/// being almost free to evaluate — the reason the paper's
/// accuracy-per-area analysis crowns it (with JRip).
///
/// # Examples
///
/// ```
/// use hbmd_ml::{Classifier, Dataset, OneR};
///
/// let mut data = Dataset::new(
///     vec!["noise".into(), "signal".into()],
///     vec!["neg".into(), "pos".into()],
/// )?;
/// for i in 0..20 {
///     data.push(vec![(i % 4) as f64, i as f64], usize::from(i >= 10))?;
/// }
/// let mut one_r = OneR::new();
/// one_r.fit(&data)?;
/// // The rule tests the signal: no noise value changes a prediction.
/// for noise in 0..4 {
///     assert_eq!(one_r.predict(&[noise as f64, 0.0]), 0);
///     assert_eq!(one_r.predict(&[noise as f64, 19.0]), 1);
/// }
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OneR {
    min_bucket: usize,
    model: Option<OneRModel>,
}

#[derive(Debug, Clone)]
pub(crate) struct OneRModel {
    pub(crate) feature: usize,
    /// Ascending bucket upper bounds with the class each bucket
    /// predicts; the final entry is `(f64::INFINITY, class)`.
    pub(crate) buckets: Vec<(f64, usize)>,
}

impl OneR {
    /// The fitted rule, for the flat compiler in [`crate::compiled`].
    pub(crate) fn model(&self) -> Option<&OneRModel> {
        self.model.as_ref()
    }

    /// OneR with WEKA's default minimum bucket size (6).
    pub fn new() -> OneR {
        OneR {
            min_bucket: 6,
            model: None,
        }
    }

    /// Number of rule buckets (after a successful fit).
    pub fn num_buckets(&self) -> Option<usize> {
        self.model.as_ref().map(|m| m.buckets.len())
    }

    fn build_buckets(&self, data: &Dataset, feature: usize) -> (Vec<(f64, usize)>, usize) {
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.sort_by(|&a, &b| {
            data.rows()[a][feature]
                .partial_cmp(&data.rows()[b][feature])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let num_classes = data.num_classes();
        let mut buckets: Vec<(f64, usize)> = Vec::new();
        let mut errors = 0usize;
        let mut counts = vec![0usize; num_classes];
        let mut bucket_len = 0usize;
        let mut k = 0usize;

        while k < order.len() {
            let i = order[k];
            counts[data.labels()[i]] += 1;
            bucket_len += 1;
            k += 1;

            let (class, class_count) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(ci, &c)| (c, usize::MAX - ci))
                .map(|(ci, &c)| (ci, c))
                .expect("classes exist");
            // Holte's rule: a bucket closes once its majority class has
            // `min_bucket` members, but only at a value boundary
            // (identical values must share a bucket) and only where the
            // class actually changes — so bucket edges align with class
            // boundaries on clean data.
            let majority_full = class_count >= self.min_bucket;
            let at_boundary =
                k == order.len() || data.rows()[order[k]][feature] > data.rows()[i][feature];
            let class_changes = k == order.len() || data.labels()[order[k]] != class;
            if majority_full && at_boundary && class_changes {
                errors += bucket_len - class_count;
                let upper = if k == order.len() {
                    f64::INFINITY
                } else {
                    (data.rows()[i][feature] + data.rows()[order[k]][feature]) / 2.0
                };
                buckets.push((upper, class));
                counts.fill(0);
                bucket_len = 0;
            }
        }
        if bucket_len > 0 {
            // Leftover tail shorter than min_bucket: merge into a final
            // bucket of its own majority.
            let (class, class_count) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(ci, &c)| (c, usize::MAX - ci))
                .map(|(ci, &c)| (ci, c))
                .expect("classes exist");
            errors += bucket_len - class_count;
            buckets.push((f64::INFINITY, class));
        }
        if let Some(last) = buckets.last_mut() {
            last.0 = f64::INFINITY;
        }
        // Merge adjacent buckets that predict the same class.
        buckets.dedup_by(|next, prev| {
            if prev.1 == next.1 {
                prev.0 = next.0;
                true
            } else {
                false
            }
        });
        (buckets, errors)
    }
}

impl Default for OneR {
    fn default() -> OneR {
        OneR::new()
    }
}

/// `(feature, buckets, errors)` candidate during OneR's search.
type OneRCandidate = (usize, Vec<(f64, usize)>, usize);

impl Classifier for OneR {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        data.check_trainable()?;
        let mut best: Option<OneRCandidate> = None;
        for feature in 0..data.num_features() {
            let (buckets, errors) = self.build_buckets(data, feature);
            let better = match &best {
                None => true,
                Some((_, _, best_errors)) => errors < *best_errors,
            };
            if better {
                best = Some((feature, buckets, errors));
            }
        }
        let (feature, buckets, _) = best.expect("at least one feature");
        self.model = Some(OneRModel { feature, buckets });
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> usize {
        let model = self
            .model
            .as_ref()
            .expect("OneR::predict called before fit");
        let value = features[model.feature];
        for &(upper, class) in &model.buckets {
            if value <= upper {
                return class;
            }
        }
        model.buckets.last().expect("buckets exist").1
    }

    fn name(&self) -> &str {
        "OneR"
    }

    fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        match self.compile() {
            Some(compiled) => compiled.predict_batch(rows),
            None => rows.iter().map(|r| self.predict(r)).collect(),
        }
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for OneR {
    fn snap(&self, w: &mut SnapWriter) {
        self.min_bucket.snap(w);
        self.model.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(OneR {
            min_bucket: Snap::unsnap(r)?,
            model: Snap::unsnap(r)?,
        })
    }
}

impl Snap for OneRModel {
    fn snap(&self, w: &mut SnapWriter) {
        self.feature.snap(w);
        self.buckets.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(OneRModel {
            feature: Snap::unsnap(r)?,
            buckets: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Dataset {
        let mut d = Dataset::new(
            vec!["noise".into(), "signal".into()],
            vec!["neg".into(), "pos".into()],
        )
        .expect("schema");
        for i in 0..30 {
            d.push(vec![(i % 5) as f64, i as f64], usize::from(i >= 15))
                .expect("row");
        }
        d
    }

    #[test]
    fn picks_the_informative_feature() {
        let mut one_r = OneR::new();
        one_r.fit(&separable()).expect("fit");
        assert_eq!(one_r.model().map(|m| m.feature), Some(1));
        assert_eq!(one_r.predict(&[0.0, 0.0]), 0);
        assert_eq!(one_r.predict(&[0.0, 29.0]), 1);
    }

    #[test]
    fn training_accuracy_is_high_on_separable_data() {
        let data = separable();
        let mut one_r = OneR::new();
        one_r.fit(&data).expect("fit");
        let correct = data
            .iter()
            .filter(|(row, label)| one_r.predict(row) == *label)
            .count();
        // The boundary bucket straddles the class change, costing a
        // few instances: 0.85 is the right bar for min_bucket = 6.
        assert!(correct as f64 / data.len() as f64 > 0.85);
    }

    #[test]
    fn identical_values_share_a_bucket() {
        // All values equal: a single bucket predicting the majority.
        let mut d = Dataset::new(vec!["f".into()], vec!["a".into(), "b".into()]).expect("schema");
        for i in 0..12 {
            d.push(vec![5.0], usize::from(i < 4)).expect("row");
        }
        let mut one_r = OneR::new();
        one_r.fit(&d).expect("fit");
        assert_eq!(one_r.num_buckets(), Some(1));
        assert_eq!(one_r.predict(&[5.0]), 0);
    }

    #[test]
    fn untrainable_data_is_rejected() {
        let empty = Dataset::new(vec!["f".into()], vec!["a".into(), "b".into()]).expect("schema");
        assert!(OneR::new().fit(&empty).is_err());
    }
}
