/// Geometry of one cache level.
///
/// Sizes are in bytes; `line_bytes` and the derived set count must be
/// powers of two (validated by [`CacheConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Haswell 32 KiB 8-way L1 (instruction or data).
    pub fn haswell_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            associativity: 8,
            line_bytes: 64,
        }
    }

    /// Haswell 6 MiB 12-way shared last-level cache.
    pub fn haswell_llc() -> CacheConfig {
        CacheConfig {
            size_bytes: 6 * 1024 * 1024,
            associativity: 12,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.associativity * self.line_bytes)
    }

    /// Check the geometry is usable.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: zero
    /// fields, a non-power-of-two line size or set count, or a size not
    /// divisible by `associativity * line_bytes`.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err("cache geometry fields must be non-zero".to_owned());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} is not a power of two",
                self.line_bytes
            ));
        }
        if !self
            .size_bytes
            .is_multiple_of(self.associativity * self.line_bytes)
        {
            return Err(format!(
                "size {} is not divisible by associativity {} x line {}",
                self.size_bytes, self.associativity, self.line_bytes
            ));
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} is not a power of two"));
        }
        Ok(())
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Line was present.
    Hit,
    /// Line was absent; it has been filled. `writeback` is `true` when
    /// the victim line was dirty and had to be drained downstream.
    Miss {
        /// A dirty victim was evicted.
        writeback: bool,
    },
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// Each set's tags are contiguous and kept in recency order, most
/// recently used first, so a lookup scans one dense run of `u64`s and
/// the first hit is usually near the front. A hit at way `w` shifts the
/// tags before it down by one and moves its own to way 0; a miss shifts
/// every valid way down by one, drops the last valid way when the set
/// is full, and fills way 0. Ways fill from 0 upward and are only ever
/// replaced, never invalidated one by one, so a set's valid ways are
/// always its first `filled[set]`, and the last of them is the least
/// recently used line: exactly the victim of a stamped LRU.
///
/// Another access to the line accessed last is answered before the set
/// is searched. That line is way 0 of its set, so nothing moves.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{Access, Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::haswell_l1());
/// assert_eq!(l1.access(0x1000, false), Access::Miss { writeback: false }); // cold
/// assert_eq!(l1.access(0x1000, false), Access::Hit); // now resident
/// assert_eq!(l1.misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Tag per line, `associativity` consecutive lines per set, most
    /// recently used first.
    tags: Vec<u64>,
    /// Dirty bit per line, moved with its tag.
    dirty: Vec<bool>,
    /// Valid ways per set: ways `0..filled[set]` hold lines.
    filled: Vec<usize>,
    /// Line address and set base of the previous access, which hit or
    /// filled that line into way 0 of its set.
    last: Option<(u64, usize)>,
    set_mask: u64,
    line_shift: u32,
    tag_shift: u32,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Build a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CacheConfig::validate`]; cache geometry
    /// is a construction-time programming decision, not runtime input.
    pub fn new(config: CacheConfig) -> Cache {
        if let Err(msg) = config.validate() {
            panic!("invalid cache config: {msg}");
        }
        let sets = config.sets();
        let lines = sets * config.associativity;
        Cache {
            config,
            tags: vec![0; lines],
            dirty: vec![false; lines],
            filled: vec![0; sets],
            last: None,
            set_mask: (sets - 1) as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            tag_shift: sets.trailing_zeros(),
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access the line containing `addr`; `write` marks the line dirty.
    ///
    /// On a miss the line is filled (write-allocate) and the LRU victim
    /// evicted; a dirty victim reports `writeback: true`.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        let line_addr = addr >> self.line_shift;
        if let Some((last_addr, base)) = self.last {
            if last_addr == line_addr {
                self.dirty[base] |= write;
                self.hits += 1;
                return Access::Hit;
            }
        }
        self.search(line_addr, write)
    }

    /// Look `line_addr` up in its set, filling it on a miss; either way
    /// the line ends up in way 0.
    #[inline(never)]
    fn search(&mut self, line_addr: u64, write: bool) -> Access {
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.tag_shift;
        let base = set * self.config.associativity;
        let filled = self.filled[set];
        self.last = Some((line_addr, base));
        let tags = &mut self.tags[base..base + self.config.associativity];
        let dirty = &mut self.dirty[base..base + self.config.associativity];
        if let Some(way) = tags[..filled].iter().position(|&t| t == tag) {
            let was_dirty = dirty[way];
            shift_down(tags, dirty, way);
            tags[0] = tag;
            dirty[0] = was_dirty | write;
            self.hits += 1;
            return Access::Hit;
        }
        self.misses += 1;
        // The way the shift overwrites: the first invalid way while the
        // set is filling, else the least recently used line, evicted.
        let dropped = if filled < tags.len() {
            self.filled[set] += 1;
            filled
        } else {
            filled - 1
        };
        let evicted_dirty = filled == tags.len() && dirty[dropped];
        if evicted_dirty {
            self.writebacks += 1;
        }
        shift_down(tags, dirty, dropped);
        tags[0] = tag;
        dirty[0] = write;
        Access::Miss {
            writeback: evicted_dirty,
        }
    }

    /// Hits since construction or the last [`reset`](Cache::reset).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction or the last reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions since construction or the last reset.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Invalidate all lines and zero the statistics.
    pub fn reset(&mut self) {
        self.filled.fill(0);
        self.last = None;
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

/// Move ways `0..way` of one set down by one, overwriting `way` and
/// leaving way 0 to be rewritten.
#[inline]
fn shift_down(tags: &mut [u64], dirty: &mut [bool], way: usize) {
    for i in (1..=way).rev() {
        tags[i] = tags[i - 1];
        dirty[i] = dirty[i - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn haswell_geometries_validate() {
        assert!(CacheConfig::haswell_l1().validate().is_ok());
        assert!(CacheConfig::haswell_llc().validate().is_ok());
        assert_eq!(CacheConfig::haswell_l1().sets(), 64);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let bad_line = CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 48,
        };
        assert!(bad_line.validate().is_err());
        let bad_sets = CacheConfig {
            size_bytes: 3 * 64 * 2,
            associativity: 2,
            line_bytes: 64,
        };
        assert!(bad_sets.validate().is_err());
        let zero = CacheConfig {
            size_bytes: 0,
            associativity: 2,
            line_bytes: 64,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn constructing_with_bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 0,
            associativity: 1,
            line_bytes: 64,
        });
    }

    const COLD: Access = Access::Miss { writeback: false };

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x0, false), COLD);
        assert_eq!(c.access(0x0, false), Access::Hit);
        assert_eq!(c.access(0x3f, false), Access::Hit, "same 64-byte line");
        assert_eq!(c.access(0x40, false), COLD, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with set index 0: addresses k * 64 * 4.
        let stride = 64 * 4;
        c.access(0, false); // A
        c.access(stride, false); // B: set full
        c.access(0, false); // touch A -> B is LRU
        c.access(2 * stride, false); // C evicts B
        assert_eq!(c.access(0, false), Access::Hit, "A survived");
        assert_eq!(c.access(stride, false), COLD, "B was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        let stride = 64 * 4;
        c.access(0, true); // dirty A
        c.access(stride, false); // B
        c.access(2 * stride, false); // evicts dirty A (LRU)
        assert_eq!(c.writebacks(), 1);
        // Re-filling A and evicting clean B must not write back.
        match c.access(3 * stride, false) {
            Access::Miss { writeback } => assert!(!writeback),
            Access::Hit => panic!("expected a miss"),
        }
    }

    #[test]
    fn counts_and_reset() {
        let mut c = tiny();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.access(0, false);
        c.access(0, false);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.access(0, false), COLD, "reset invalidates lines");
    }

    #[test]
    fn one_byte_lines_in_one_set_do_not_alias_the_top_line() {
        // With 1-byte lines and one set the tag is the whole address,
        // so `u64::MAX` is a real tag; a cold cache must miss it.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 2,
            associativity: 2,
            line_bytes: 1,
        });
        assert_eq!(
            c.access(u64::MAX, true),
            Access::Miss { writeback: false },
            "cold cache reported a hit"
        );
        assert_eq!(c.access(u64::MAX, false), Access::Hit);
        c.access(0, false);
        // Evicting the dirty top line writes it back.
        assert_eq!(c.access(1, false), Access::Miss { writeback: true });
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // 1024 distinct lines cycled twice through a 8-line cache.
        let mut misses = 0;
        for pass in 0..2 {
            for i in 0..1024u64 {
                let access = c.access(i * 64, false);
                if pass == 0 {
                    assert_eq!(access, COLD);
                }
                misses += usize::from(access != Access::Hit);
            }
        }
        assert!(misses as f64 / 2048.0 > 0.99);
    }
}
