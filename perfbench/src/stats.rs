//! Order statistics over timing samples.

/// Percentiles the tail helper may report, lowest first.
const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Value at percentile `p` (0–100) of an ascending-sorted slice, by
/// nearest rank: the smallest sample with at least `p`% of the samples
/// at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact buckets below this; above it, each power of two is split into
/// `SUB / 2` buckets, so a recorded value is off by under 1/1024.
const SUB: u64 = 2048;

/// Bucket count: values up to 2^40 ns (18 minutes).
const BUCKETS: usize = SUB as usize + (40 - 11) * (SUB as usize / 2);

/// A fixed-size log-linear histogram of nanosecond durations: memory
/// does not grow with the number of samples, so a run's footprint does
/// not depend on how fast it served.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.percentile(100.0))
            .finish()
    }
}

impl Histogram {
    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let exponent = 63 - u64::from(value.leading_zeros()); // >= 11
        let shift = exponent - 10;
        let index = SUB + (exponent - 11) * (SUB / 2) + ((value >> shift) - SUB / 2);
        (index as usize).min(BUCKETS - 1)
    }

    /// The smallest value that lands in bucket `index`.
    fn floor(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            return index;
        }
        let exponent = (index - SUB) / (SUB / 2) + 11;
        let offset = (index - SUB) % (SUB / 2) + SUB / 2;
        offset << (exponent - 10)
    }

    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        let slot = &mut self.counts[Histogram::bucket(ns)];
        *slot = slot.saturating_add(1);
        self.total += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `p` (0–100), as the floor of the bucket
    /// holding that rank; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return Histogram::floor(index) as f64;
            }
        }
        Histogram::floor(BUCKETS - 1) as f64
    }

    /// The highest candidate percentile with at least [`TAIL_SUPPORT`]
    /// samples beyond it, and its value; `None` for fewer than
    /// `2 × TAIL_SUPPORT` samples, where not even the median qualifies.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.total as f64;
        TAIL_CANDIDATES
            .iter()
            .rev()
            .find(|&&p| n * (1.0 - p / 100.0) >= TAIL_SUPPORT as f64 - 1e-9)
            .map(|&p| (p, self.percentile(p)))
    }
}

/// Median of unsorted values, by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// First quartile, median and third quartile by the exclusive method
/// (`statistics.quantiles(values, n=4)` in Python), so a comparison
/// reads the same spread the benchmark contract is judged by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.len() == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let n = sorted.len() as f64;
    let at = |q: f64| {
        let m = q * (n + 1.0);
        let j = (m.floor() as usize).clamp(1, sorted.len() - 1);
        let delta = m - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    fn histogram(values: &[f64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.record(v as u64);
        }
        h
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1,000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(histogram(&ramp(1_000)).tail(), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9.99 beyond, so p90 is the answer.
        assert_eq!(histogram(&ramp(999)).tail().map(|t| t.0), Some(90.0));
        assert_eq!(histogram(&ramp(10_000)).tail().map(|t| t.0), Some(99.9));
        assert_eq!(histogram(&ramp(100)).tail().map(|t| t.0), Some(90.0));
        assert_eq!(histogram(&ramp(20)).tail().map(|t| t.0), Some(50.0));
        assert_eq!(histogram(&ramp(19)).tail(), None);
    }

    #[test]
    fn histogram_buckets_are_exact_then_within_a_thousandth() {
        for v in [
            0u64,
            1,
            2047,
            2048,
            2049,
            4095,
            4096,
            1_000_000,
            123_456_789,
            1 << 39,
        ] {
            let floor = Histogram::floor(Histogram::bucket(v));
            assert!(floor <= v && v - floor <= v / 1024, "{v} -> {floor}");
        }
        let mut a = histogram(&ramp(500));
        a.merge(&histogram(&[1_000_000.0; 500]));
        assert_eq!(a.count(), 1_000);
        assert_eq!(a.percentile(50.0), 500.0);
        assert!((a.percentile(99.0) - 1e6).abs() <= 1e6 / 1024.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values = ramp(10);
        assert_eq!(percentile(&values, 50.0), 5.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 10.0);
        let shuffled = [4.0, 8.0, 1.0, 6.0, 2.0, 7.0, 3.0, 5.0];
        assert_eq!(median(&shuffled), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
