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
        // Entries are linked by `u32` index, with `u32::MAX` as the end.
        if self.entries >= u32::MAX as usize {
            return Err(format!("{} entries do not fit u32 links", self.entries));
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
/// `len`. A lookup compares the most recently used page, kept beside
/// the entry, then probes an open-addressed index of `(page, entry)`
/// pairs: linear probing over a power-of-two table of at least four
/// times `entries` slots, homed by a Fibonacci hash of the page, with
/// backward-shift deletion so no tombstones build up. A probe reads
/// only the index. Recency is a doubly linked list of `u32` links
/// through the entries, so a hit moves its entry to the front and a
/// miss in a full TLB evicts the back without searching. The victim is
/// the lowest-index invalid entry, else the least recently used one.
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
    newer: Vec<u32>,
    /// The next less recently used entry, toward `lru`.
    older: Vec<u32>,
    len: usize,
    /// Most recently used valid entry (meaningless while `len == 0`).
    mru: u32,
    /// `pages[mru]` (meaningless while `len == 0`).
    mru_page: u64,
    /// Least recently used valid entry (meaningless while `len == 0`).
    lru: u32,
    /// Open-addressed index: each valid page and its entry; empty slots
    /// hold entry `NIL`.
    index: Vec<Slot>,
    /// `64 - log2(index.len())`: shifts a hashed page to its home slot.
    index_shift: u32,
    page_shift: u32,
    hits: u64,
    misses: u64,
}

/// One index slot: a valid page and the entry holding it, or `NIL`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    entry: u32,
}

/// End of the recency list, and an empty index slot.
const NIL: u32 = u32::MAX;

const EMPTY: Slot = Slot {
    page: 0,
    entry: NIL,
};

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
        let slots = (config.entries * 4).next_power_of_two();
        Tlb {
            config,
            pages: vec![0; config.entries],
            newer: vec![NIL; config.entries],
            older: vec![NIL; config.entries],
            len: 0,
            mru: 0,
            mru_page: 0,
            lru: 0,
            index: vec![EMPTY; slots],
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
        if self.mru_page == page && self.len != 0 {
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
                self.mru_page = page;
                true
            }
            Err(empty) => {
                self.fill(page, empty);
                self.mru_page = page;
                false
            }
        }
    }

    /// Probe the index for `page`: `Ok` with the entry holding it, or
    /// `Err` with the empty slot that ends its probe run.
    #[inline]
    fn probe(&self, page: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(page);
        // At most a quarter of the slots are ever full, so a probe run
        // ends well within one lap of the table.
        for _ in 0..self.index.len() {
            let Slot { page: held, entry } = self.index[slot];
            if entry == NIL {
                return Err(slot);
            }
            if held == page {
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
            let entry = self.len as u32;
            self.len += 1;
            if entry == 0 {
                self.newer[0] = NIL;
                self.older[0] = NIL;
                self.mru = 0;
                self.lru = 0;
            } else {
                self.push_front(entry);
            }
            self.pages[entry as usize] = page;
            self.index[empty] = Slot { page, entry };
        } else {
            let victim = self.lru;
            self.unindex(self.pages[victim as usize]);
            self.touch(victim);
            // The deletion may have shifted entries back over `empty`.
            let Err(slot) = self.probe(page) else {
                unreachable!("a missed page is not indexed");
            };
            self.pages[victim as usize] = page;
            self.index[slot] = Slot {
                page,
                entry: victim,
            };
        }
    }

    /// Remove valid `page` from the index, shifting later members of
    /// its probe run back so every remaining page stays reachable from
    /// its home slot.
    fn unindex(&mut self, page: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(page);
        // No empty slot lies between a valid page's home and its slot.
        while self.index[hole].page != page {
            hole = (hole + 1) & mask;
        }
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let held = self.index[slot];
            if held.entry == NIL {
                break;
            }
            // Move the slot into the hole unless its home lies
            // cyclically after the hole, where the move would strand it.
            let home = self.home(held.page);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = held;
                hole = slot;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Move valid `entry` to the front of the recency list.
    fn touch(&mut self, entry: u32) {
        if entry == self.mru {
            return;
        }
        // Not the front, so it has a newer neighbour.
        let e = entry as usize;
        let (newer, older) = (self.newer[e], self.older[e]);
        self.older[newer as usize] = older;
        if older == NIL {
            self.lru = newer;
        } else {
            self.newer[older as usize] = newer;
        }
        self.push_front(entry);
    }

    /// Link `entry`, not currently in the list, in front of `mru`.
    fn push_front(&mut self, entry: u32) {
        self.newer[entry as usize] = NIL;
        self.older[entry as usize] = self.mru;
        self.newer[self.mru as usize] = entry;
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

    /// Invalidate all entries and zero statistics.
    pub fn reset(&mut self) {
        self.len = 0;
        self.index.fill(EMPTY);
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
        let misses = (0..10_000u64)
            .filter(|i| !t.access((i % 64) * 4096))
            .count();
        assert!(misses as f64 / 10_000.0 > 0.9);
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
