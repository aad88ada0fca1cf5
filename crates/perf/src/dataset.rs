use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One dataset row: a sampling window of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct DataRow {
    /// Which sample the window came from.
    pub sample: SampleId,
    /// Ground-truth (labeller-assigned) class.
    pub class: AppClass,
    /// Scaled per-event feature values.
    pub features: FeatureVector,
}

/// The assembled labelled HPC dataset: rows of 16 features plus a class
/// column, 70/30 splittable — the in-memory form of the reference
/// pipeline's combined CSV file.
///
/// # Examples
///
/// ```
/// use hbmd_events::FeatureVector;
/// use hbmd_malware::{AppClass, SampleId};
/// use hbmd_perf::{DataRow, HpcDataset};
///
/// let mut dataset = HpcDataset::new();
/// dataset.push(DataRow {
///     sample: SampleId(0),
///     class: AppClass::Benign,
///     features: FeatureVector::zeroed(),
/// });
/// assert_eq!(dataset.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HpcDataset {
    rows: Vec<DataRow>,
}

impl HpcDataset {
    /// An empty dataset.
    pub fn new() -> HpcDataset {
        HpcDataset::default()
    }

    /// A dataset over the given rows.
    pub fn from_rows(rows: Vec<DataRow>) -> HpcDataset {
        HpcDataset { rows }
    }

    /// Append one row.
    pub fn push(&mut self, row: DataRow) {
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[DataRow] {
        &self.rows
    }

    /// Iterate rows of one class.
    pub fn of_class(&self, class: AppClass) -> impl Iterator<Item = &DataRow> {
        self.rows.iter().filter(move |r| r.class == class)
    }

    /// Rows per class, indexed by [`AppClass::index`].
    pub fn class_counts(&self) -> [usize; AppClass::COUNT] {
        let mut counts = [0usize; AppClass::COUNT];
        for row in &self.rows {
            counts[row.class.index()] += 1;
        }
        counts
    }

    /// A dataset keeping only rows whose class satisfies `keep`.
    pub fn filtered<F: Fn(AppClass) -> bool>(&self, keep: F) -> HpcDataset {
        HpcDataset {
            rows: self
                .rows
                .iter()
                .filter(|r| keep(r.class))
                .cloned()
                .collect(),
        }
    }

    /// Relabel rows (e.g. collapsing five malware families to a single
    /// `malware` class for binary detection happens in the ML layer;
    /// this keeps the class but lets callers remap).
    pub fn mapped<F: Fn(AppClass) -> AppClass>(&self, map: F) -> HpcDataset {
        HpcDataset {
            rows: self
                .rows
                .iter()
                .map(|r| DataRow {
                    sample: r.sample,
                    class: map(r.class),
                    features: r.features.clone(),
                })
                .collect(),
        }
    }

    /// Split into train and test partitions — 70/30 in the reference
    /// evaluation — **at sample granularity**, stratified by class.
    ///
    /// Splitting whole samples (rather than individual windows) keeps
    /// all windows of one specimen on the same side, preventing the
    /// train/test leakage that window-level splitting of the same binary
    /// would cause.
    ///
    /// # Panics
    ///
    /// Panics when `train_fraction` is not within `(0, 1)`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (HpcDataset, HpcDataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train_fraction must be in (0, 1), got {train_fraction}"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut train_ids: Vec<SampleId> = Vec::new();
        for class in AppClass::ALL {
            let mut ids: Vec<SampleId> = {
                let mut seen = std::collections::BTreeSet::new();
                self.of_class(class)
                    .filter(|r| seen.insert(r.sample))
                    .map(|r| r.sample)
                    .collect()
            };
            ids.shuffle(&mut rng);
            let take = ((ids.len() as f64) * train_fraction).round() as usize;
            train_ids.extend(ids.into_iter().take(take));
        }
        let train_set: std::collections::BTreeSet<SampleId> = train_ids.into_iter().collect();
        let (train, test): (Vec<DataRow>, Vec<DataRow>) = self
            .rows
            .iter()
            .cloned()
            .partition(|r| train_set.contains(&r.sample));
        (HpcDataset { rows: train }, HpcDataset { rows: test })
    }

    /// Feature column names in order (the 16 perf event names).
    pub fn feature_names() -> Vec<&'static str> {
        HpcEvent::ALL.iter().map(|e| e.name()).collect()
    }
}

impl FromIterator<DataRow> for HpcDataset {
    fn from_iter<I: IntoIterator<Item = DataRow>>(iter: I) -> HpcDataset {
        HpcDataset {
            rows: iter.into_iter().collect(),
        }
    }
}

impl Extend<DataRow> for HpcDataset {
    fn extend<I: IntoIterator<Item = DataRow>>(&mut self, iter: I) {
        self.rows.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(windows_per_sample: usize, samples_per_class: usize) -> HpcDataset {
        let mut rows = Vec::new();
        let mut id = 0u32;
        for class in AppClass::ALL {
            for _ in 0..samples_per_class {
                for w in 0..windows_per_sample {
                    let mut values = vec![0.0; HpcEvent::COUNT];
                    values[0] = (id as f64) * 100.0 + w as f64;
                    rows.push(DataRow {
                        sample: SampleId(id),
                        class,
                        features: FeatureVector::from_slice(&values).expect("16"),
                    });
                }
                id += 1;
            }
        }
        HpcDataset::from_rows(rows)
    }

    #[test]
    fn counts_and_filters() {
        let d = toy(3, 4);
        assert_eq!(d.len(), 6 * 4 * 3);
        assert_eq!(d.class_counts()[AppClass::Worm.index()], 12);
        let malware_only = d.filtered(|c| c.is_malware());
        assert_eq!(malware_only.len(), 5 * 4 * 3);
    }

    #[test]
    fn mapped_relabels() {
        let d = toy(1, 2);
        let binary = d.mapped(|c| {
            if c.is_malware() {
                AppClass::Trojan
            } else {
                AppClass::Benign
            }
        });
        let counts = binary.class_counts();
        assert_eq!(counts[AppClass::Trojan.index()], 10);
        assert_eq!(counts[AppClass::Benign.index()], 2);
        assert_eq!(counts[AppClass::Worm.index()], 0);
    }

    #[test]
    fn split_is_stratified_and_leak_free() {
        let d = toy(4, 10);
        let (train, test) = d.split(0.7, 42);
        assert_eq!(train.len() + test.len(), d.len());

        // Stratification: each class roughly 70/30 by rows (windows per
        // sample are constant, so row ratios match sample ratios).
        for class in AppClass::ALL {
            let tr = train.class_counts()[class.index()];
            let te = test.class_counts()[class.index()];
            assert_eq!(tr + te, 40);
            assert_eq!(tr, 28, "{class}: 7 of 10 samples in train");
        }

        // No sample straddles the boundary.
        let train_ids: std::collections::BTreeSet<SampleId> =
            train.rows().iter().map(|r| r.sample).collect();
        for row in test.rows() {
            assert!(!train_ids.contains(&row.sample), "leaked {}", row.sample);
        }
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy(2, 8);
        let (a_train, _) = d.split(0.7, 1);
        let (b_train, _) = d.split(0.7, 1);
        assert_eq!(a_train, b_train);
        let (c_train, _) = d.split(0.7, 2);
        assert_ne!(a_train, c_train);
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn bad_fraction_panics() {
        let _ = toy(1, 2).split(1.0, 1);
    }

    #[test]
    fn feature_names_are_the_events() {
        let names = HpcDataset::feature_names();
        assert_eq!(names.len(), 16);
        assert_eq!(names[0], "branch-instructions");
        assert_eq!(names[15], "node-stores");
    }

    #[test]
    fn collect_and_extend() {
        let d = toy(1, 1);
        let mut collected: HpcDataset = d.rows().iter().cloned().collect();
        collected.extend(d.rows().iter().cloned());
        assert_eq!(collected.len(), d.len() * 2);
    }
}
