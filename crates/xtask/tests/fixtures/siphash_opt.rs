//! Seeded no-siphash-in-hot-paths violations in the optimize loop's
//! shape: a per-tuple last-seen map and advise-time union-find maps on
//! the default hasher, next to the forms the rule accepts. Checked by
//! `tests/analyze_detects.rs` under the pretend paths
//! `crates/opt/src/seeded_siphash.rs` and
//! `crates/cache/src/seeded_siphash.rs`.

use std::collections::{BTreeMap, HashMap, HashSet};

pub struct Counters {
    pub last: HashMap<u32, u64>,
}

pub fn counters() -> Counters {
    Counters {
        last: HashMap::new(), // line 16: HashMap::new
    }
}

pub fn union_find(n: usize) -> (HashMap<u64, u64>, HashSet<u64>) {
    (HashMap::with_capacity(n), HashSet::new()) // line 21: both
}

pub fn ordered_counts_are_fine() -> BTreeMap<(u32, u64), u64> {
    BTreeMap::new()
}

pub fn fx_collect_is_fine(keys: &[u64]) -> HashMap<u64, usize, crate::FxBuildHasher> {
    keys.iter().copied().zip(0..).collect()
}
