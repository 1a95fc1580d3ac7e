//! Object-clustering analysis: which objects of a group are used
//! together?
//!
//! The object dimension of the object-relative stream directly shows
//! which objects are touched consecutively; objects with high temporal
//! affinity should be co-allocated (cache-conscious clustering, the
//! paper's "object clustering or global variable re-mapping" use case
//! for the object-level grammar).

use std::collections::BTreeMap;

use orp_core::{GroupId, ObjectSerial, OrSink, OrTuple};

use crate::{FxMap, FxSet};

/// One group's counters.
#[derive(Debug, Clone, Default)]
struct GroupCounts {
    /// The group's most recently accessed object.
    last: ObjectSerial,
    /// Access counts per serial.
    heat: FxMap<u64, u64>,
    /// (lo serial, hi serial) → transition count.
    affinity: FxMap<(u64, u64), u64>,
}

/// Per-group object-affinity counts and co-allocation suggestions.
///
/// Counting is hash-only — per tuple one group lookup, one heat and at
/// most one affinity increment; every query that depends on order
/// sorts its group's counters once.
#[derive(Debug, Clone, Default)]
pub struct ClusterAnalysis {
    groups: FxMap<GroupId, GroupCounts>,
}

impl ClusterAnalysis {
    /// Creates an empty analysis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Transition count between two objects of a group (order
    /// insensitive).
    #[must_use]
    pub fn affinity(&self, group: GroupId, a: ObjectSerial, b: ObjectSerial) -> u64 {
        let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
        self.groups
            .get(&group)
            .and_then(|g| g.affinity.get(&(lo, hi)))
            .copied()
            .unwrap_or(0)
    }

    /// Total accesses to one object.
    #[must_use]
    pub fn heat(&self, group: GroupId, object: ObjectSerial) -> u64 {
        self.groups
            .get(&group)
            .and_then(|g| g.heat.get(&object.0))
            .copied()
            .unwrap_or(0)
    }

    /// The strongest `k` co-allocation pairs of a group, hottest first.
    ///
    /// Each entry is `(object a, object b, transitions)` — a candidate
    /// for placing `a` and `b` on the same cache line / page.
    #[must_use]
    pub fn top_pairs(&self, group: GroupId, k: usize) -> Vec<(ObjectSerial, ObjectSerial, u64)> {
        let mut pairs: Vec<(ObjectSerial, ObjectSerial, u64)> = self
            .groups
            .get(&group)
            .map(|g| {
                g.affinity
                    .iter()
                    .map(|(&(a, b), &w)| (ObjectSerial(a), ObjectSerial(b), w))
                    .collect()
            })
            .unwrap_or_default();
        pairs.sort_unstable_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        pairs.truncate(k);
        pairs
    }

    /// Groups with at least one observed access, ascending.
    #[must_use]
    pub fn groups(&self) -> Vec<GroupId> {
        let mut gs: Vec<GroupId> = self.groups.keys().copied().collect();
        gs.sort_unstable();
        gs
    }

    /// Total intra-group transition weight — the affinity a perfect
    /// co-location of the whole group could exploit.
    #[must_use]
    pub fn total_affinity(&self, group: GroupId) -> u64 {
        self.groups
            .get(&group)
            .map_or(0, |g| g.affinity.values().sum())
    }

    /// Like [`ClusterAnalysis::suggest_clusters`], but each cluster's
    /// members come back in *placement order* (the affinity chain they
    /// were merged along) together with the transition weight the
    /// cluster covers. Edges are accepted strongest-first only while
    /// both endpoints have fewer than two neighbors, so every cluster
    /// is a path — exactly the order a co-locating allocator should lay
    /// the objects out in. Isolated objects are not emitted.
    #[must_use]
    pub fn suggest_ordered_clusters(
        &self,
        group: GroupId,
        cluster_size: usize,
    ) -> Vec<(Vec<ObjectSerial>, u64)> {
        assert!(cluster_size >= 2, "ordered clusters pair objects");
        let mut degree: FxMap<u64, usize> = FxMap::default();
        let mut parent: FxMap<u64, u64> = FxMap::default();
        let mut size: FxMap<u64, usize> = FxMap::default();
        let mut weight: FxMap<u64, u64> = FxMap::default();
        let mut adj: FxMap<u64, Vec<u64>> = FxMap::default();
        fn find(parent: &mut FxMap<u64, u64>, x: u64) -> u64 {
            let p = *parent.entry(x).or_insert(x);
            if p == x {
                x
            } else {
                let root = find(parent, p);
                parent.insert(x, root);
                root
            }
        }
        for (a, b, w) in self.top_pairs(group, usize::MAX) {
            if w == 0 {
                continue;
            }
            let (da, db) = (
                degree.get(&a.0).copied().unwrap_or(0),
                degree.get(&b.0).copied().unwrap_or(0),
            );
            if da >= 2 || db >= 2 {
                continue;
            }
            let (ra, rb) = (find(&mut parent, a.0), find(&mut parent, b.0));
            if ra == rb {
                continue;
            }
            let (sa, sb) = (
                size.get(&ra).copied().unwrap_or(1),
                size.get(&rb).copied().unwrap_or(1),
            );
            if sa + sb > cluster_size {
                continue;
            }
            let merged_weight =
                weight.get(&ra).copied().unwrap_or(0) + weight.get(&rb).copied().unwrap_or(0) + w;
            parent.insert(ra, rb);
            size.insert(rb, sa + sb);
            weight.insert(rb, merged_weight);
            *degree.entry(a.0).or_default() += 1;
            *degree.entry(b.0).or_default() += 1;
            adj.entry(a.0).or_default().push(b.0);
            adj.entry(b.0).or_default().push(a.0);
        }

        // Every component is a path: walk each from its
        // lowest-numbered endpoint.
        let mut out: Vec<(Vec<ObjectSerial>, u64)> = Vec::new();
        let mut visited: FxSet<u64> = FxSet::default();
        let mut starts: Vec<u64> = degree
            .iter()
            .filter(|&(_, &d)| d == 1)
            .map(|(&o, _)| o)
            .collect();
        starts.sort_unstable();
        for start in starts {
            if visited.contains(&start) {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = start;
            loop {
                visited.insert(cur);
                chain.push(ObjectSerial(cur));
                match adj
                    .get(&cur)
                    .and_then(|ns| ns.iter().find(|n| !visited.contains(n)))
                    .copied()
                {
                    Some(next) => cur = next,
                    None => break,
                }
            }
            let w = weight.get(&find(&mut parent, start)).copied().unwrap_or(0);
            out.push((chain, w));
        }
        out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out
    }

    /// Greedily partitions a group's objects into clusters of at most
    /// `cluster_size`, merging along the strongest affinities first —
    /// the allocation-order hint a cache-conscious allocator would
    /// consume.
    #[must_use]
    pub fn suggest_clusters(&self, group: GroupId, cluster_size: usize) -> Vec<Vec<ObjectSerial>> {
        assert!(cluster_size >= 1, "clusters must hold at least one object");
        // Union-find with size caps.
        let mut parent: FxMap<u64, u64> = FxMap::default();
        let mut size: FxMap<u64, usize> = FxMap::default();
        fn find(parent: &mut FxMap<u64, u64>, x: u64) -> u64 {
            let p = *parent.entry(x).or_insert(x);
            if p == x {
                x
            } else {
                let root = find(parent, p);
                parent.insert(x, root);
                root
            }
        }
        for (a, b, _) in self.top_pairs(group, usize::MAX) {
            let (ra, rb) = (find(&mut parent, a.0), find(&mut parent, b.0));
            if ra == rb {
                continue;
            }
            let (sa, sb) = (
                size.get(&ra).copied().unwrap_or(1),
                size.get(&rb).copied().unwrap_or(1),
            );
            if sa + sb > cluster_size {
                continue;
            }
            parent.insert(ra, rb);
            size.insert(rb, sa + sb);
        }
        let mut clusters: BTreeMap<u64, Vec<ObjectSerial>> = BTreeMap::new();
        let members: Vec<u64> = parent.keys().copied().collect();
        for m in members {
            let root = find(&mut parent, m);
            clusters.entry(root).or_default().push(ObjectSerial(m));
        }
        let mut out: Vec<Vec<ObjectSerial>> = clusters.into_values().collect();
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort();
        out
    }
}

impl OrSink for ClusterAnalysis {
    fn tuple(&mut self, t: &OrTuple) {
        let g = self.groups.entry(t.group).or_insert_with(|| GroupCounts {
            last: t.object,
            ..GroupCounts::default()
        });
        *g.heat.entry(t.object.0).or_default() += 1;
        if g.last != t.object {
            let (lo, hi) = (g.last.0.min(t.object.0), g.last.0.max(t.object.0));
            *g.affinity.entry((lo, hi)).or_default() += 1;
            g.last = t.object;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::Timestamp;
    use orp_trace::{AccessKind, InstrId};

    fn t(group: u32, object: u64, time: u64) -> OrTuple {
        OrTuple {
            instr: InstrId(0),
            kind: AccessKind::Load,
            group: GroupId(group),
            object: ObjectSerial(object),
            offset: 0,
            time: Timestamp(time),
            size: 8,
        }
    }

    #[test]
    fn alternating_objects_have_high_affinity() {
        let mut a = ClusterAnalysis::new();
        let mut time = 0;
        for _ in 0..100 {
            a.tuple(&t(0, 3, time));
            a.tuple(&t(0, 7, time + 1));
            time += 2;
        }
        assert_eq!(
            a.affinity(GroupId(0), ObjectSerial(3), ObjectSerial(7)),
            199
        );
        assert_eq!(a.heat(GroupId(0), ObjectSerial(3)), 100);
        let top = a.top_pairs(GroupId(0), 1);
        assert_eq!((top[0].0, top[0].1), (ObjectSerial(3), ObjectSerial(7)));
    }

    #[test]
    fn clusters_respect_size_cap() {
        // Chain 0-1-2-3 with decreasing strength; cap 2 pairs (0,1) and
        // (2,3).
        let mut a = ClusterAnalysis::new();
        let mut time = 0;
        let mut weave = |x: u64, y: u64, reps: usize, time: &mut u64| {
            for _ in 0..reps {
                a.tuple(&t(0, x, *time));
                a.tuple(&t(0, y, *time + 1));
                *time += 2;
            }
        };
        weave(0, 1, 100, &mut time);
        weave(2, 3, 90, &mut time);
        weave(1, 2, 50, &mut time);
        let clusters = a.suggest_clusters(GroupId(0), 2);
        assert!(
            clusters.contains(&vec![ObjectSerial(0), ObjectSerial(1)]),
            "{clusters:?}"
        );
        assert!(
            clusters.contains(&vec![ObjectSerial(2), ObjectSerial(3)]),
            "{clusters:?}"
        );
    }

    #[test]
    fn groups_do_not_mix() {
        let mut a = ClusterAnalysis::new();
        a.tuple(&t(0, 1, 0));
        a.tuple(&t(1, 2, 1));
        a.tuple(&t(0, 3, 2));
        assert_eq!(a.affinity(GroupId(0), ObjectSerial(1), ObjectSerial(3)), 1);
        assert_eq!(a.affinity(GroupId(1), ObjectSerial(1), ObjectSerial(3)), 0);
    }

    #[test]
    fn self_transitions_do_not_count() {
        let mut a = ClusterAnalysis::new();
        a.tuple(&t(0, 5, 0));
        a.tuple(&t(0, 5, 1));
        assert_eq!(a.affinity(GroupId(0), ObjectSerial(5), ObjectSerial(5)), 0);
        assert_eq!(a.heat(GroupId(0), ObjectSerial(5)), 2);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_cluster_size_panics() {
        let a = ClusterAnalysis::new();
        let _ = a.suggest_clusters(GroupId(0), 0);
    }
}
