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

    /// Check the sizing is usable.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: no
    /// entries, or a page size that is not a power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries == 0 {
            return Err("TLB needs at least one entry".to_owned());
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(format!(
                "page size {} is not a power of two",
                self.page_bytes
            ));
        }
        Ok(())
    }
}

/// A fully-associative, LRU translation lookaside buffer.
///
/// Entries fill from index 0 upward and are only ever replaced, never
/// invalidated one by one, so the valid entries are always the first
/// `len`. A lookup probes the most recently used entry, then an
/// open-addressed index from page to entry: linear probing over a
/// power-of-two table of at least twice `entries` slots, homed by a
/// Fibonacci hash of the page, with backward-shift deletion so no
/// tombstones build up. Recency is a doubly linked list through the
/// entries, so a hit moves its entry to the front and a miss in a full
/// TLB evicts the back without searching. The victim is the lowest-index
/// invalid entry, else the least recently used one.
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
    /// Page number per entry; only `pages[..len]` are valid.
    pages: Vec<u64>,
    /// The next more recently used entry, toward `mru`.
    newer: Vec<usize>,
    /// The next less recently used entry, toward `lru`.
    older: Vec<usize>,
    len: usize,
    /// Most recently used valid entry (meaningless while `len == 0`).
    mru: usize,
    /// Least recently used valid entry (meaningless while `len == 0`).
    lru: usize,
    /// Open-addressed index: the entry holding each valid page, or `NIL`.
    index: Vec<usize>,
    /// `64 - log2(index.len())`: shifts a hashed page to its home slot.
    index_shift: u32,
    page_shift: u32,
    hits: u64,
    misses: u64,
}

/// End of the recency list, and an empty index slot.
const NIL: usize = usize::MAX;

/// Fibonacci hashing multiplier: 2^64 divided by the golden ratio.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

impl Tlb {
    /// Build a TLB with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`TlbConfig::validate`].
    pub fn new(config: TlbConfig) -> Tlb {
        if let Err(msg) = config.validate() {
            panic!("invalid TLB config: {msg}");
        }
        let slots = (config.entries * 2).next_power_of_two();
        Tlb {
            config,
            pages: vec![0; config.entries],
            newer: vec![NIL; config.entries],
            older: vec![NIL; config.entries],
            len: 0,
            mru: 0,
            lru: 0,
            index: vec![NIL; slots],
            index_shift: 64 - slots.trailing_zeros(),
            page_shift: config.page_bytes.trailing_zeros(),
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
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if self.len != 0 && self.pages[self.mru] == page {
            self.hits += 1;
            return true;
        }
        self.search(page)
    }

    /// Look `page` up past the most recently used entry.
    #[inline(never)]
    fn search(&mut self, page: u64) -> bool {
        match self.probe(page) {
            Ok(entry) => {
                self.hits += 1;
                self.touch(entry);
                true
            }
            Err(empty) => {
                self.fill(page, empty);
                false
            }
        }
    }

    /// Probe the index for `page`: `Ok` with the entry holding it, or
    /// `Err` with the empty slot that ends its probe run.
    #[inline]
    fn probe(&self, page: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(page);
        // At most half the slots are ever full, so a probe run ends
        // well within one lap of the table.
        for _ in 0..self.index.len() {
            let entry = self.index[slot];
            if entry == NIL {
                return Err(slot);
            }
            if self.pages[entry] == page {
                return Ok(entry);
            }
            slot = (slot + 1) & mask;
        }
        panic!("TLB index has no empty slot");
    }

    /// Home slot of `page` in the index.
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(FIBONACCI) >> self.index_shift) as usize
    }

    /// Install `page`, which is not present; `empty` is the index slot
    /// its probe ended on.
    fn fill(&mut self, page: u64, empty: usize) {
        self.misses += 1;
        if self.len < self.pages.len() {
            self.len += 1;
            let entry = self.len - 1;
            if entry == 0 {
                self.newer[0] = NIL;
                self.older[0] = NIL;
                self.mru = 0;
                self.lru = 0;
            } else {
                self.push_front(entry);
            }
            self.pages[entry] = page;
            self.index[empty] = entry;
        } else {
            let victim = self.lru;
            self.unindex(self.pages[victim]);
            self.touch(victim);
            // The deletion may have shifted entries back over `empty`.
            let Err(slot) = self.probe(page) else {
                unreachable!("a missed page is not indexed");
            };
            self.pages[victim] = page;
            self.index[slot] = victim;
        }
    }

    /// Remove valid `page` from the index, shifting later members of
    /// its probe run back so every remaining page stays reachable from
    /// its home slot.
    fn unindex(&mut self, page: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(page);
        while self.pages[self.index[hole]] != page {
            hole = (hole + 1) & mask;
        }
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let entry = self.index[slot];
            if entry == NIL {
                break;
            }
            // Move the entry into the hole unless its home lies
            // cyclically after the hole, where the move would strand it.
            let home = self.home(self.pages[entry]);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = entry;
                hole = slot;
            }
        }
        self.index[hole] = NIL;
    }

    /// Move valid `entry` to the front of the recency list.
    fn touch(&mut self, entry: usize) {
        if entry == self.mru {
            return;
        }
        // Not the front, so it has a newer neighbour.
        let (newer, older) = (self.newer[entry], self.older[entry]);
        self.older[newer] = older;
        if older == NIL {
            self.lru = newer;
        } else {
            self.newer[older] = newer;
        }
        self.push_front(entry);
    }

    /// Link `entry`, not currently in the list, in front of `mru`.
    fn push_front(&mut self, entry: usize) {
        self.newer[entry] = NIL;
        self.older[entry] = self.mru;
        self.newer[self.mru] = entry;
        self.mru = entry;
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
        self.len = 0;
        self.index.fill(NIL);
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
    fn one_byte_pages_do_not_alias_the_top_page() {
        // Page `u64::MAX` is a real page here; a cold TLB must miss it.
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 1,
        });
        assert!(!t.access(u64::MAX), "cold TLB reported a hit");
        assert!(t.access(u64::MAX), "installed page missed");
        assert!(!t.access(u64::MAX - 1));
        assert_eq!((t.hits(), t.misses()), (1, 2));
    }

    #[test]
    fn zero_entries_rejected() {
        let config = TlbConfig {
            entries: 0,
            page_bytes: 4096,
        };
        assert!(config.validate().is_err());
        assert!(TlbConfig::haswell_dtlb().validate().is_ok());
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
