use std::fmt;
use std::ops::{Index, IndexMut};

use crate::counters::CounterSet;
use crate::event::HpcEvent;

/// Scaled per-sample feature values handed to the machine-learning layer.
///
/// Raw PMU counts are integers, but multiplexing scales them by
/// `time_enabled / time_running`, producing fractional estimates — exactly
/// what `perf stat` prints. One `FeatureVector` corresponds to one dataset
/// row (one 10 ms sampling window of one application).
///
/// # Examples
///
/// ```
/// use hbmd_events::{CounterSet, FeatureVector, HpcEvent};
///
/// let mut raw = CounterSet::new();
/// raw[HpcEvent::CacheMisses] = 100;
/// // Event ran for half the window: perf reports a 2x-scaled estimate.
/// let fv = FeatureVector::from_scaled(&raw, |_event| 2.0);
/// assert_eq!(fv[HpcEvent::CacheMisses], 200.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [f64; HpcEvent::COUNT],
}

impl FeatureVector {
    /// All-zero feature vector.
    pub fn zeroed() -> FeatureVector {
        FeatureVector {
            values: [0.0; HpcEvent::COUNT],
        }
    }

    /// Feature vector from exact (unscaled) raw counts.
    pub fn from_counts(counts: &CounterSet) -> FeatureVector {
        FeatureVector::from_scaled(counts, |_| 1.0)
    }

    /// Feature vector from raw counts with a per-event scale factor
    /// (the `time_enabled / time_running` multiplexing correction).
    pub fn from_scaled<F>(counts: &CounterSet, scale: F) -> FeatureVector
    where
        F: Fn(HpcEvent) -> f64,
    {
        hbmd_obs::incr("events.feature_vectors_built");
        let mut values = [0.0; HpcEvent::COUNT];
        for event in HpcEvent::ALL {
            values[event.index()] = counts[event] as f64 * scale(event);
        }
        FeatureVector { values }
    }

    /// Feature vector from a column-ordered slice.
    ///
    /// Returns `None` unless `values.len() == HpcEvent::COUNT`.
    pub fn from_slice(values: &[f64]) -> Option<FeatureVector> {
        let values: [f64; HpcEvent::COUNT] = values.try_into().ok()?;
        Some(FeatureVector { values })
    }

    /// Values in feature-column order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Project onto a subset of events, preserving the given order.
    pub fn project(&self, events: &[HpcEvent]) -> Vec<f64> {
        events.iter().map(|&e| self.values[e.index()]).collect()
    }

    /// Iterate `(event, value)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (HpcEvent, f64)> + '_ {
        HpcEvent::ALL
            .iter()
            .map(move |&event| (event, self.values[event.index()]))
    }
}

impl Default for FeatureVector {
    fn default() -> FeatureVector {
        FeatureVector::zeroed()
    }
}

impl Index<HpcEvent> for FeatureVector {
    type Output = f64;

    fn index(&self, event: HpcEvent) -> &f64 {
        &self.values[event.index()]
    }
}

impl IndexMut<HpcEvent> for FeatureVector {
    fn index_mut(&mut self, event: HpcEvent) -> &mut f64 {
        &mut self.values[event.index()]
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (event, value)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{:>18.2}  {}", value, event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_preserves_values() {
        let mut c = CounterSet::new();
        c[HpcEvent::BranchLoads] = 42;
        let fv = FeatureVector::from_counts(&c);
        assert_eq!(fv[HpcEvent::BranchLoads], 42.0);
        assert_eq!(fv[HpcEvent::NodeStores], 0.0);
    }

    #[test]
    fn scaling_applies_per_event() {
        let mut c = CounterSet::new();
        c[HpcEvent::LlcLoads] = 10;
        c[HpcEvent::NodeLoads] = 10;
        let fv =
            FeatureVector::from_scaled(&c, |e| if e == HpcEvent::LlcLoads { 1.5 } else { 1.0 });
        assert_eq!(fv[HpcEvent::LlcLoads], 15.0);
        assert_eq!(fv[HpcEvent::NodeLoads], 10.0);
    }

    #[test]
    fn slice_round_trip() {
        let values: Vec<f64> = (0..HpcEvent::COUNT).map(|i| i as f64).collect();
        let fv = FeatureVector::from_slice(&values).expect("16 values");
        assert_eq!(fv.as_slice(), values.as_slice());
        assert!(FeatureVector::from_slice(&values[..5]).is_none());
    }

    #[test]
    fn project_preserves_order() {
        let values: Vec<f64> = (0..HpcEvent::COUNT).map(|i| i as f64 * 2.0).collect();
        let fv = FeatureVector::from_slice(&values).expect("16 values");
        let picked = fv.project(&[HpcEvent::NodeStores, HpcEvent::BranchInstructions]);
        assert_eq!(picked, vec![30.0, 0.0]);
    }
}
