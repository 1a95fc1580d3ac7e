//! The LRU set-associative cache model.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line-granular accesses presented to this level.
    pub accesses: u64,
    /// Misses (fills) at this level.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in 0..=1 (0 for an untouched cache).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One LRU set-associative cache level.
///
/// Tags are whole line numbers. All sets live in one flat
/// `sets × ways` array: set `s` owns `slots[s * ways..][..ways]`, of
/// which the first `lens[s]` slots are resident, most recently used
/// first — exact LRU, with a hit or fill rotating the slots ahead of
/// the touched one back by a single position.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: byte address to line number is a shift.
    line_shift: u32,
    /// Resident line numbers, `ways` slots per set, MRU first.
    slots: Vec<u64>,
    /// Resident lines per set (`<= ways`).
    lens: Vec<usize>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_bytes` are powers of two and
    /// `ways` is positive.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "associativity must be positive");
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            slots: vec![0; config.sets * config.ways],
            lens: vec![0; config.sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The line number containing byte address `addr`.
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Presents the line containing `addr`; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(self.line_of(addr))
    }

    /// Presents a whole line number; returns `true` on a hit.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let ways = self.config.ways;
        let set = (line as usize) & (self.config.sets - 1);
        let len = &mut self.lens[set];
        let slots = &mut self.slots[set * ways..][..ways];
        if let Some(pos) = slots[..*len].iter().position(|&l| l == line) {
            // Move to MRU position.
            slots[..=pos].rotate_right(1);
            true
        } else {
            self.stats.misses += 1;
            // A full set recycles its LRU slot; otherwise the set grows.
            *len = (*len + 1).min(ways);
            slots[..*len].rotate_right(1);
            slots[0] = line;
            false
        }
    }
}

/// Per-level statistics of a [`Hierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters (accessed only on L1 misses).
    pub l2: CacheStats,
}

/// A two-level inclusive-enough hierarchy: L2 is consulted on L1
/// misses (no back-invalidation modeled — adequate for layout
/// comparisons).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
}

impl Hierarchy {
    /// Creates a hierarchy from two level geometries.
    ///
    /// # Panics
    ///
    /// Panics if the levels disagree on line size (keeps line-number
    /// spaces aligned).
    #[must_use]
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert_eq!(
            l1.line_bytes, l2.line_bytes,
            "levels must share a line size"
        );
        Hierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
        }
    }

    /// Presents one byte-addressed access of `size` bytes, touching
    /// every line the range covers.
    pub fn access_range(&mut self, addr: u64, size: u64) {
        let first = self.l1.line_of(addr);
        let last = self.l1.line_of(addr + size.max(1) - 1);
        for line in first..=last {
            if !self.l1.access_line(line) {
                self.l2.access_line(line);
            }
        }
    }

    /// Per-level counters.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 16,
        })
    }

    #[test]
    fn hits_within_a_line() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x10F));
        assert!(!c.access(0x110), "next line misses");
        assert_eq!(
            c.stats(),
            CacheStats {
                accesses: 3,
                misses: 2
            }
        );
    }

    #[test]
    fn lru_evicts_the_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line & 1 == 0).
        assert!(!c.access_line(0));
        assert!(!c.access_line(2));
        assert!(c.access_line(0), "0 is MRU now");
        assert!(!c.access_line(4), "fills set, evicting 2");
        assert!(c.access_line(0), "0 survived");
        assert!(!c.access_line(2), "2 was evicted");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access_line(0); // set 0
        c.access_line(1); // set 1
        c.access_line(2); // set 0
        c.access_line(3); // set 1
        assert!(c.access_line(0), "set 0 holds 0 and 2");
        assert!(c.access_line(1), "set 1 holds 1 and 3");
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // 8 distinct lines round-robin over 4 line slots: all misses.
        for round in 0..3 {
            for line in 0..8 {
                let hit = c.access_line(line);
                if round > 0 {
                    assert!(!hit, "capacity thrash must keep missing");
                }
            }
        }
    }

    #[test]
    fn hierarchy_l2_catches_l1_evictions() {
        // L1: 1 set x 1 way; L2: 1 set x 4 ways.
        let mut h = Hierarchy::new(
            CacheConfig {
                sets: 1,
                ways: 1,
                line_bytes: 16,
            },
            CacheConfig {
                sets: 1,
                ways: 4,
                line_bytes: 16,
            },
        );
        h.access_range(0x00, 8); // line 0: L1 miss, L2 miss
        h.access_range(0x10, 8); // line 1: evicts 0 from L1, fills L2
        h.access_range(0x00, 8); // line 0: L1 miss, L2 hit
        let stats = h.stats();
        assert_eq!(stats.l1.misses, 3);
        assert_eq!(stats.l2.accesses, 3);
        assert_eq!(stats.l2.misses, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 64,
        });
    }

    #[test]
    fn capacity_math() {
        let cfg = CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
        };
        assert_eq!(cfg.capacity(), 32 * 1024);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
