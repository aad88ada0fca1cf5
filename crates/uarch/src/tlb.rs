/// Sizing of a translation lookaside buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Number of page-translation entries.
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// Haswell instruction TLB: 64 entries, 4 KiB pages.
    pub fn haswell_itlb() -> TlbConfig {
        TlbConfig {
            entries: 64,
            page_bytes: 4096,
        }
    }

    /// Haswell data TLB: 128 entries, 4 KiB pages.
    pub fn haswell_dtlb() -> TlbConfig {
        TlbConfig {
            entries: 128,
            page_bytes: 4096,
        }
    }
}

/// A fully-associative, LRU translation lookaside buffer.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{Tlb, TlbConfig};
///
/// let mut dtlb = Tlb::new(TlbConfig::haswell_dtlb());
/// assert!(!dtlb.access(0x1234)); // cold miss, entry installed
/// assert!(dtlb.access(0x1fff)); // same 4 KiB page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `(page_number, lru_stamp)` per entry; `u64::MAX` page = invalid.
    entries: Vec<(u64, u64)>,
    page_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Build a TLB with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is zero or `page_bytes` is not a power of
    /// two.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.entries > 0, "TLB needs at least one entry");
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            config,
            entries: vec![(u64::MAX, 0); config.entries],
            page_shift: config.page_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Sizing this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Translate `addr`; returns `true` on a hit. A miss installs the
    /// translation, evicting the LRU entry.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr >> self.page_shift;
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.0 == page {
                entry.1 = self.clock;
                self.hits += 1;
                return true;
            }
            if entry.1 < oldest {
                oldest = entry.1;
                victim = i;
            }
        }
        self.misses += 1;
        self.entries[victim] = (page, self.clock);
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Invalidate all entries and zero statistics.
    pub fn reset(&mut self) {
        self.entries.fill((u64::MAX, 0));
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 4096,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = tiny();
        assert!(!t.access(0x0));
        assert!(t.access(0xfff));
        assert!(!t.access(0x1000));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let mut t = tiny();
        for page in 0..4u64 {
            t.access(page * 4096);
        }
        t.access(0); // refresh page 0
        t.access(4 * 4096); // evicts page 1 (LRU)
        assert!(t.access(0), "page 0 survived");
        assert!(!t.access(4096), "page 1 evicted");
    }

    #[test]
    fn spread_accesses_thrash_small_tlb() {
        let mut t = tiny();
        for i in 0..10_000u64 {
            t.access((i % 64) * 4096);
        }
        assert!(t.miss_ratio() > 0.9);
    }

    #[test]
    fn reset_clears() {
        let mut t = tiny();
        t.access(0);
        t.reset();
        assert_eq!(t.misses(), 0);
        assert!(!t.access(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_pages_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 3000,
        });
    }
}
