use std::fmt;
use std::ops::Index;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Errors produced by dataset construction and classifier training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Training requires at least one instance.
    EmptyDataset,
    /// A row's width, a label, or a feature index was out of range.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        found: usize,
    },
    /// Training data contains only one class where at least two are
    /// needed.
    SingleClass,
    /// A configuration value is unusable.
    Config(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "dataset has no instances"),
            MlError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MlError::SingleClass => write!(f, "training data contains a single class"),
            MlError::Config(message) => write!(f, "invalid configuration: {message}"),
        }
    }
}

impl std::error::Error for MlError {}

/// A labelled dataset: numeric feature rows plus a nominal class — the
/// in-memory equivalent of a WEKA ARFF relation.
///
/// Feature values are stored as one contiguous row-major `Vec<f64>`
/// (stride = feature count) rather than a `Vec<Vec<f64>>`: rows are
/// exposed as `&[f64]` views into the single allocation, so training
/// loops that scan rows stay cache-friendly and projections like
/// [`Dataset::select_features`] or [`Dataset::split`] are single
/// allocations instead of one per row.
///
/// # Examples
///
/// ```
/// use hbmd_ml::Dataset;
///
/// let mut data = Dataset::new(
///     vec!["loads".into(), "misses".into()],
///     vec!["benign".into(), "malware".into()],
/// )?;
/// data.push(vec![10.0, 1.0], 0)?;
/// data.push(vec![500.0, 90.0], 1)?;
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.num_features(), 2);
/// assert_eq!(&data.rows()[1], &[500.0, 90.0][..]);
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    feature_names: Vec<String>,
    class_names: Vec<String>,
    /// Row-major feature matrix: `labels.len() * feature_names.len()`
    /// values in one allocation.
    values: Vec<f64>,
    labels: Vec<usize>,
}

/// A borrowed, indexable view of a dataset's rows: each row is a
/// `&[f64]` slice into the dataset's contiguous storage.
///
/// Supports indexing (`rows[i][j]`), iteration (`for row in rows` /
/// `rows.iter()`), and conversion back to the nested-vector layout
/// ([`RowsView::to_vec`]).
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    values: &'a [f64],
    width: usize,
}

impl<'a> RowsView<'a> {
    /// A view over `values` interpreted as consecutive rows of
    /// `width` features each.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero or `values.len()` is not a
    /// multiple of `width`.
    pub fn new(values: &'a [f64], width: usize) -> RowsView<'a> {
        assert!(width > 0, "RowsView width must be non-zero");
        assert_eq!(
            values.len() % width,
            0,
            "RowsView values must be a whole number of rows"
        );
        RowsView { values, width }
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.values.len() / self.width
    }

    /// Number of features per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `true` when the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate rows as `&[f64]` slices.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, f64> {
        self.values.chunks_exact(self.width)
    }

    /// The row at `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<&'a [f64]> {
        let start = index.checked_mul(self.width)?;
        self.values.get(start..start + self.width)
    }

    /// Copy the view out into the nested-vector layout.
    pub fn to_vec(&self) -> Vec<Vec<f64>> {
        self.iter().map(<[f64]>::to_vec).collect()
    }
}

impl Index<usize> for RowsView<'_> {
    type Output = [f64];

    fn index(&self, index: usize) -> &[f64] {
        &self.values[index * self.width..(index + 1) * self.width]
    }
}

impl<'a> IntoIterator for RowsView<'a> {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.chunks_exact(self.width)
    }
}

impl<'a> IntoIterator for &RowsView<'a> {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Dataset {
    /// An empty dataset with the given schema.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Config`] when there are no features or fewer
    /// than two classes.
    pub fn new(feature_names: Vec<String>, class_names: Vec<String>) -> Result<Dataset, MlError> {
        if feature_names.is_empty() {
            return Err(MlError::Config("at least one feature required".to_owned()));
        }
        if class_names.len() < 2 {
            return Err(MlError::Config("at least two classes required".to_owned()));
        }
        Ok(Dataset {
            feature_names,
            class_names,
            values: Vec::new(),
            labels: Vec::new(),
        })
    }

    /// Dataset from parallel row/label vectors.
    ///
    /// # Errors
    ///
    /// As [`Dataset::new`], plus [`MlError::DimensionMismatch`] for any
    /// malformed row or out-of-range label.
    pub fn from_rows(
        feature_names: Vec<String>,
        class_names: Vec<String>,
        rows: Vec<Vec<f64>>,
        labels: Vec<usize>,
    ) -> Result<Dataset, MlError> {
        let mut dataset = Dataset::new(feature_names, class_names)?;
        if rows.len() != labels.len() {
            return Err(MlError::DimensionMismatch {
                expected: rows.len(),
                found: labels.len(),
            });
        }
        dataset.values.reserve(rows.len() * dataset.num_features());
        for (row, label) in rows.into_iter().zip(labels) {
            dataset.push(row, label)?;
        }
        Ok(dataset)
    }

    /// Dataset directly from the contiguous row-major layout: `values`
    /// holds `labels.len()` rows of `feature_names.len()` features
    /// each. The zero-copy counterpart of [`Dataset::from_rows`].
    ///
    /// # Errors
    ///
    /// As [`Dataset::new`], plus [`MlError::DimensionMismatch`] when
    /// `values` is not `labels.len() * feature_names.len()` long or a
    /// label is out of range.
    pub fn from_flat(
        feature_names: Vec<String>,
        class_names: Vec<String>,
        values: Vec<f64>,
        labels: Vec<usize>,
    ) -> Result<Dataset, MlError> {
        let dataset = Dataset::new(feature_names, class_names)?;
        if values.len() != labels.len() * dataset.num_features() {
            return Err(MlError::DimensionMismatch {
                expected: labels.len() * dataset.num_features(),
                found: values.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= dataset.num_classes()) {
            return Err(MlError::DimensionMismatch {
                expected: dataset.num_classes(),
                found: bad,
            });
        }
        Ok(Dataset {
            values,
            labels,
            ..dataset
        })
    }

    /// Append one instance.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the row width does
    /// not match the schema or the label is out of range.
    pub fn push(&mut self, row: Vec<f64>, label: usize) -> Result<(), MlError> {
        if row.len() != self.feature_names.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.feature_names.len(),
                found: row.len(),
            });
        }
        if label >= self.class_names.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.class_names.len(),
                found: label,
            });
        }
        self.values.extend_from_slice(&row);
        self.labels.push(label);
        Ok(())
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no instances.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of classes in the schema.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Feature column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Class names, indexed by label.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Feature rows, as an indexable/iterable view of `&[f64]` slices
    /// into the contiguous storage.
    pub fn rows(&self) -> RowsView<'_> {
        RowsView {
            values: &self.values,
            width: self.feature_names.len(),
        }
    }

    /// The row at `index` as a slice into the contiguous storage.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn row(&self, index: usize) -> &[f64] {
        let width = self.feature_names.len();
        &self.values[index * width..(index + 1) * width]
    }

    /// Labels, parallel to [`rows`](Dataset::rows).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Instances per class, indexed by label.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes()];
        for &label in &self.labels {
            counts[label] += 1;
        }
        counts
    }

    /// The most frequent label (ties to the lower index; 0 when empty).
    pub fn majority_class(&self) -> usize {
        let counts = self.class_counts();
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, usize::MAX - i))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of distinct labels actually present.
    pub fn distinct_classes(&self) -> usize {
        self.class_counts().iter().filter(|&&c| c > 0).count()
    }

    /// A dataset keeping only the listed feature columns, in the given
    /// order. The projected matrix is built in a single allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for an out-of-range index
    /// and [`MlError::Config`] for an empty selection.
    pub fn select_features(&self, indices: &[usize]) -> Result<Dataset, MlError> {
        if indices.is_empty() {
            return Err(MlError::Config("feature selection is empty".to_owned()));
        }
        for &i in indices {
            if i >= self.num_features() {
                return Err(MlError::DimensionMismatch {
                    expected: self.num_features(),
                    found: i,
                });
            }
        }
        let feature_names = indices
            .iter()
            .map(|&i| self.feature_names[i].clone())
            .collect();
        let mut values = Vec::with_capacity(self.len() * indices.len());
        for row in self.rows() {
            values.extend(indices.iter().map(|&i| row[i]));
        }
        Ok(Dataset {
            feature_names,
            class_names: self.class_names.clone(),
            values,
            labels: self.labels.clone(),
        })
    }

    /// A dataset with labels remapped to a binary scheme:
    /// `positive_classes` become 1, everything else 0. Class names
    /// become `["rest", name]`.
    pub fn binarized(&self, positive_classes: &[usize], positive_name: &str) -> Dataset {
        let labels = self
            .labels
            .iter()
            .map(|l| usize::from(positive_classes.contains(l)))
            .collect();
        Dataset {
            feature_names: self.feature_names.clone(),
            class_names: vec!["rest".to_owned(), positive_name.to_owned()],
            values: self.values.clone(),
            labels,
        }
    }

    /// Shuffle-split into train/test partitions (row granularity).
    ///
    /// # Panics
    ///
    /// Panics when `train_fraction` is not within `(0, 1)`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train_fraction must be in (0, 1)"
        );
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed));
        let take = ((self.len() as f64) * train_fraction).round() as usize;
        let (train_idx, test_idx) = order.split_at(take.min(order.len()));
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// An empty dataset with this dataset's schema.
    pub fn empty_like(&self) -> Dataset {
        Dataset {
            feature_names: self.feature_names.clone(),
            class_names: self.class_names.clone(),
            values: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// A dataset holding the instances at `indices` (copied in a single
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let width = self.num_features();
        let mut out = self.empty_like();
        out.values.reserve(indices.len() * width);
        out.labels.reserve(indices.len());
        for &i in indices {
            out.values
                .extend_from_slice(&self.values[i * width..(i + 1) * width]);
            out.labels.push(self.labels[i]);
        }
        out
    }

    /// Iterate `(row, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> {
        self.rows().iter().zip(self.labels.iter().copied())
    }

    /// Per-feature mean and (population) standard deviation.
    ///
    /// Two column-strided passes over the contiguous storage: the
    /// shifted-data one-pass formula (`E[x²] − E[x]²`) cancels
    /// catastrophically on counter-sized magnitudes and perturbs
    /// downstream near-ties (PCA rankings, standardized models), so
    /// the mean is computed first and deviations second — the same
    /// summation order as the nested-row layout used.
    pub fn feature_stats(&self) -> Vec<(f64, f64)> {
        let width = self.num_features();
        let n = self.len().max(1) as f64;
        (0..width)
            .map(|j| {
                let column = || self.values.iter().skip(j).step_by(width.max(1));
                let mean = column().sum::<f64>() / n;
                let var = column().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                (mean, var.sqrt())
            })
            .collect()
    }

    /// Validate a dataset is trainable: non-empty with at least two
    /// distinct classes present.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyDataset`] or [`MlError::SingleClass`].
    pub fn check_trainable(&self) -> Result<(), MlError> {
        if self.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if self.distinct_classes() < 2 {
            return Err(MlError::SingleClass);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec!["x".into(), "y".into()],
        )
        .expect("schema");
        for i in 0..10 {
            d.push(vec![i as f64, (i * 2) as f64, 1.0], usize::from(i >= 5))
                .expect("row");
        }
        d
    }

    #[test]
    fn schema_validation() {
        assert!(Dataset::new(vec![], vec!["a".into(), "b".into()]).is_err());
        assert!(Dataset::new(vec!["f".into()], vec!["only".into()]).is_err());
    }

    #[test]
    fn push_validates_width_and_label() {
        let mut d = toy();
        assert!(d.push(vec![1.0], 0).is_err());
        assert!(d.push(vec![1.0, 2.0, 3.0], 9).is_err());
        assert!(d.push(vec![1.0, 2.0, 3.0], 1).is_ok());
    }

    #[test]
    fn counts_and_majority() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![5, 5]);
        assert_eq!(d.majority_class(), 0, "tie goes to lower index");
        assert_eq!(d.distinct_classes(), 2);
        assert!(d.check_trainable().is_ok());
    }

    #[test]
    fn single_class_is_untrainable() {
        let mut d = Dataset::new(vec!["f".into()], vec!["x".into(), "y".into()]).expect("schema");
        d.push(vec![1.0], 0).expect("row");
        assert_eq!(d.check_trainable(), Err(MlError::SingleClass));
        assert_eq!(
            Dataset::new(vec!["f".into()], vec!["x".into(), "y".into()])
                .expect("schema")
                .check_trainable(),
            Err(MlError::EmptyDataset)
        );
    }

    #[test]
    fn select_features_projects_and_reorders() {
        let d = toy();
        let p = d.select_features(&[2, 0]).expect("select");
        assert_eq!(p.feature_names(), &["c".to_owned(), "a".to_owned()]);
        assert_eq!(&p.rows()[3], &[1.0, 3.0][..]);
        assert!(d.select_features(&[7]).is_err());
        assert!(d.select_features(&[]).is_err());
    }

    #[test]
    fn binarized_remaps_labels() {
        let d = toy();
        let b = d.binarized(&[1], "malware");
        assert_eq!(b.class_names(), &["rest".to_owned(), "malware".to_owned()]);
        assert_eq!(b.class_counts(), vec![5, 5]);
        let all_negative = d.binarized(&[], "none");
        assert_eq!(all_negative.class_counts(), vec![10, 0]);
    }

    #[test]
    fn split_partitions_everything() {
        let d = toy();
        let (train, test) = d.split(0.7, 3);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        let (t2, _) = d.split(0.7, 3);
        assert_eq!(train, t2, "deterministic per seed");
    }

    #[test]
    fn feature_stats_are_correct() {
        let d = toy();
        let stats = d.feature_stats();
        assert!((stats[0].0 - 4.5).abs() < 1e-9);
        assert!((stats[2].0 - 1.0).abs() < 1e-9);
        assert!(stats[2].1 < 1e-9, "constant feature has zero deviation");
    }

    #[test]
    fn subset_clones_selected() {
        let d = toy();
        let s = d.subset(&[0, 9]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[0, 1]);
    }

    #[test]
    fn from_rows_round_trip() {
        let d = toy();
        let rebuilt = Dataset::from_rows(
            d.feature_names().to_vec(),
            d.class_names().to_vec(),
            d.rows().to_vec(),
            d.labels().to_vec(),
        )
        .expect("rebuild");
        assert_eq!(d, rebuilt);
    }

    #[test]
    fn from_flat_matches_from_rows() {
        let d = toy();
        let flat = Dataset::from_flat(
            d.feature_names().to_vec(),
            d.class_names().to_vec(),
            (0..d.len()).flat_map(|i| d.row(i).to_vec()).collect(),
            d.labels().to_vec(),
        )
        .expect("rebuild");
        assert_eq!(d, flat);
        assert!(Dataset::from_flat(
            d.feature_names().to_vec(),
            d.class_names().to_vec(),
            vec![1.0; 4],
            vec![0, 1],
        )
        .is_err());
        assert!(Dataset::from_flat(
            d.feature_names().to_vec(),
            d.class_names().to_vec(),
            vec![1.0; 6],
            vec![0, 7],
        )
        .is_err());
    }

    #[test]
    fn rows_view_indexes_iterates_and_bounds_checks() {
        let d = toy();
        let rows = d.rows();
        assert_eq!(rows.len(), 10);
        assert!(!rows.is_empty());
        assert_eq!(rows[4], [4.0, 8.0, 1.0]);
        assert_eq!(rows.get(4), Some(&[4.0, 8.0, 1.0][..]));
        assert_eq!(rows.get(10), None);
        let collected: Vec<&[f64]> = rows.iter().collect();
        assert_eq!(collected.len(), 10);
        assert_eq!(collected[0], d.row(0));
        let mut count = 0;
        for row in d.rows() {
            assert_eq!(row.len(), 3);
            count += 1;
        }
        assert_eq!(count, 10);
    }

    #[test]
    fn error_display_is_informative() {
        let e = MlError::DimensionMismatch {
            expected: 16,
            found: 4,
        };
        assert!(e.to_string().contains("16"));
        assert!(MlError::SingleClass.to_string().contains("single class"));
    }
}
