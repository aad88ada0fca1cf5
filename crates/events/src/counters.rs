use std::fmt;
use std::ops::{Index, IndexMut};

use crate::event::HpcEvent;

/// A full set of raw 64-bit counts, one per collected [`HpcEvent`].
///
/// `CounterSet` is the unit of exchange between the microarchitecture
/// simulator (which increments counts) and the PMU model (which snapshots
/// and differences them at sampling boundaries).
///
/// # Examples
///
/// ```
/// use hbmd_events::{CounterSet, HpcEvent};
///
/// let mut c = CounterSet::new();
/// c.record(HpcEvent::CacheMisses, 3);
/// assert_eq!(c[HpcEvent::CacheMisses], 3);
/// assert_eq!(c.total(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CounterSet {
    counts: [u64; HpcEvent::COUNT],
}

impl CounterSet {
    /// An all-zero counter set.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Counter set from a raw column-ordered array.
    pub fn from_array(counts: [u64; HpcEvent::COUNT]) -> CounterSet {
        CounterSet { counts }
    }

    /// Raw counts in feature-column order.
    pub fn as_array(&self) -> &[u64; HpcEvent::COUNT] {
        &self.counts
    }

    /// Add `n` occurrences of `event`, saturating at `u64::MAX`.
    #[inline]
    pub fn record(&mut self, event: HpcEvent, n: u64) {
        let slot = &mut self.counts[event.index()];
        *slot = slot.saturating_add(n);
    }

    /// Per-event difference `self - earlier`, saturating at zero.
    ///
    /// Counters are monotonically increasing in a well-behaved run, so the
    /// saturation only matters when comparing snapshots from different
    /// runs — a caller bug we degrade gracefully on rather than panic.
    pub fn delta(&self, earlier: &CounterSet) -> CounterSet {
        let mut out = CounterSet::new();
        for event in HpcEvent::ALL {
            out.counts[event.index()] =
                self.counts[event.index()].saturating_sub(earlier.counts[event.index()]);
        }
        out
    }

    /// Element-wise sum, saturating at `u64::MAX`.
    pub fn merged(&self, other: &CounterSet) -> CounterSet {
        let mut out = *self;
        for event in HpcEvent::ALL {
            out.record(event, other.counts[event.index()]);
        }
        out
    }

    /// Sum of all event counts (saturating).
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// `true` when every count is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Iterate `(event, count)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (HpcEvent, u64)> + '_ {
        HpcEvent::ALL
            .iter()
            .map(move |&event| (event, self.counts[event.index()]))
    }
}

impl Index<HpcEvent> for CounterSet {
    type Output = u64;

    fn index(&self, event: HpcEvent) -> &u64 {
        &self.counts[event.index()]
    }
}

impl IndexMut<HpcEvent> for CounterSet {
    fn index_mut(&mut self, event: HpcEvent) -> &mut u64 {
        &mut self.counts[event.index()]
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (event, count)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{:>16}  {}", count, event)?;
        }
        Ok(())
    }
}

impl FromIterator<(HpcEvent, u64)> for CounterSet {
    fn from_iter<I: IntoIterator<Item = (HpcEvent, u64)>>(iter: I) -> CounterSet {
        let mut set = CounterSet::new();
        for (event, n) in iter {
            set.record(event, n);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSet {
        HpcEvent::ALL
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, (i as u64 + 1) * 10))
            .collect()
    }

    #[test]
    fn record_and_index() {
        let mut c = CounterSet::new();
        assert!(c.is_zero());
        c.record(HpcEvent::NodeStores, 7);
        c[HpcEvent::NodeLoads] = 2;
        assert_eq!(c[HpcEvent::NodeStores], 7);
        assert_eq!(c[HpcEvent::NodeLoads], 2);
        assert_eq!(c.total(), 9);
        assert!(!c.is_zero());
    }

    #[test]
    fn record_saturates() {
        let mut c = CounterSet::new();
        c[HpcEvent::CacheMisses] = u64::MAX - 1;
        c.record(HpcEvent::CacheMisses, 5);
        assert_eq!(c[HpcEvent::CacheMisses], u64::MAX);
    }

    #[test]
    fn delta_is_pairwise_and_saturating() {
        let early = sample();
        let mut late = early;
        late.record(HpcEvent::BranchMisses, 5);
        let d = late.delta(&early);
        assert_eq!(d[HpcEvent::BranchMisses], 5);
        assert_eq!(d[HpcEvent::CacheMisses], 0);

        // Reversed order saturates to zero instead of wrapping.
        let reversed = early.delta(&late);
        assert!(reversed.is_zero());
    }

    #[test]
    fn merged_adds_counts() {
        let a = sample();
        let b = sample();
        let m = a.merged(&b);
        for event in HpcEvent::ALL {
            assert_eq!(m[event], a[event] * 2);
        }
    }

    #[test]
    fn iter_is_in_column_order() {
        let c = sample();
        let events: Vec<HpcEvent> = c.iter().map(|(e, _)| e).collect();
        assert_eq!(events, HpcEvent::ALL.to_vec());
    }

    #[test]
    fn display_lists_every_event() {
        let text = sample().to_string();
        for event in HpcEvent::ALL {
            assert!(text.contains(event.name()), "missing {}", event.name());
        }
    }
}
