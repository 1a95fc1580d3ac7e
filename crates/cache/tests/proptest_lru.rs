//! Property test: the set-associative cache and the two-level
//! hierarchy agree with a naive reference model (one recency list per
//! set, line numbers by division) on arbitrary access sequences and
//! geometries up to 16 ways.

use orp_cache::{Cache, CacheConfig, CacheStats, Hierarchy, HierarchyStats};
use proptest::prelude::*;

/// Reference model: exact LRU per set, implemented independently.
struct Model {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
    stats: CacheStats,
}

impl Model {
    fn new(cfg: CacheConfig) -> Self {
        Model {
            sets: vec![Vec::new(); cfg.sets],
            ways: cfg.ways,
            line_bytes: cfg.line_bytes,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr / self.line_bytes)
    }

    fn access_line(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let n_sets = self.sets.len();
        let set = &mut self.sets[(line as usize) % n_sets];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.insert(0, line);
            true
        } else {
            self.stats.misses += 1;
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, line);
            false
        }
    }
}

/// Reference two-level hierarchy: L2 sees exactly the L1 misses of
/// every line an access range covers.
struct HierarchyModel {
    l1: Model,
    l2: Model,
}

impl HierarchyModel {
    fn access_range(&mut self, addr: u64, size: u64) {
        let line_bytes = self.l1.line_bytes;
        for line in addr / line_bytes..=(addr + size.max(1) - 1) / line_bytes {
            if !self.l1.access_line(line) {
                self.l2.access_line(line);
            }
        }
    }

    fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats,
            l2: self.l2.stats,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_reference_model(
        addrs in proptest::collection::vec(0u64..8192, 0..600),
        sets_log in 0u32..5,
        ways in 1usize..17,
        line_log in 4u32..7,
    ) {
        let cfg = CacheConfig {
            sets: 1 << sets_log,
            ways,
            line_bytes: 1 << line_log,
        };
        let mut cache = Cache::new(cfg);
        let mut model = Model::new(cfg);
        let mut hits = 0u64;
        for &addr in &addrs {
            let got = cache.access(addr);
            let want = model.access(addr);
            prop_assert_eq!(got, want, "divergence at {:#x}", addr);
            hits += u64::from(got);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses, addrs.len() as u64);
        prop_assert_eq!(stats.misses, addrs.len() as u64 - hits);
        prop_assert_eq!(stats, model.stats);
    }

    #[test]
    fn hierarchy_matches_reference_model(
        accesses in proptest::collection::vec((0u64..16384, 0u64..160), 0..600),
        l1_sets_log in 0u32..4,
        l1_ways in 1usize..17,
        l2_sets_log in 0u32..6,
        l2_ways in 1usize..17,
        line_log in 4u32..7,
    ) {
        let line_bytes = 1 << line_log;
        let l1 = CacheConfig { sets: 1 << l1_sets_log, ways: l1_ways, line_bytes };
        let l2 = CacheConfig { sets: 1 << l2_sets_log, ways: l2_ways, line_bytes };
        let mut hierarchy = Hierarchy::new(l1, l2);
        let mut model = HierarchyModel { l1: Model::new(l1), l2: Model::new(l2) };
        for &(addr, size) in &accesses {
            hierarchy.access_range(addr, size);
            model.access_range(addr, size);
            prop_assert_eq!(hierarchy.stats(), model.stats(), "after {:#x}+{}", addr, size);
        }
    }

    #[test]
    fn small_working_sets_eventually_always_hit(
        lines in proptest::collection::vec(0u64..8, 1..8),
        rounds in 2usize..6,
    ) {
        // Any working set that fits entirely in the cache must stop
        // missing after the first round.
        let mut cache = Cache::new(CacheConfig { sets: 4, ways: 8, line_bytes: 64 });
        let distinct: std::collections::BTreeSet<u64> = lines.iter().copied().collect();
        for round in 0..rounds {
            for &line in &lines {
                let hit = cache.access_line(line);
                if round > 0 {
                    prop_assert!(hit, "line {line} missed after warm-up");
                }
            }
        }
        prop_assert_eq!(cache.stats().misses, distinct.len() as u64);
    }
}
