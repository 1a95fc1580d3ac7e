//! Field-reordering analysis: which offsets of a group are accessed
//! close together in time?
//!
//! The paper's example: "A frequently repeated offset sequence, say
//! `(0, 36)*`, along with the object lifetime information … may reveal
//! a field-reordering opportunity to the compiler to take advantage of
//! spatial locality." This module counts, per group, how often two
//! offsets are accessed consecutively *within the same object*, and
//! greedily chains the affinity graph into a suggested field order.

use orp_core::{GroupId, ObjectSerial, OrSink, OrTuple};

use crate::{FxMap, FxSet};

/// One group's counters.
#[derive(Debug, Clone, Default)]
struct GroupFields {
    /// The group's most recent access: (object, offset).
    last: Option<(ObjectSerial, u64)>,
    /// Offsets seen.
    offsets: FxSet<u64>,
    /// (lo offset, hi offset) → consecutive-access count.
    affinity: FxMap<(u64, u64), u64>,
}

/// Per-group field (offset) affinity counts and layout suggestions.
///
/// Feed it the object-relative stream (it implements [`OrSink`]), then
/// query [`FieldReorderAnalysis::affinity`] or
/// [`FieldReorderAnalysis::suggest_layout`]. Counting is hash-only;
/// queries that depend on order sort their group's counters once.
///
/// # Examples
///
/// ```
/// use orp_core::{GroupId, ObjectSerial, OrSink, OrTuple, Timestamp};
/// use orp_opt::FieldReorderAnalysis;
/// use orp_trace::{AccessKind, InstrId};
///
/// let mut a = FieldReorderAnalysis::new();
/// // The paper's (0, 36)* pattern over many objects.
/// for obj in 0..20u64 {
///     for (i, off) in [0u64, 36].into_iter().enumerate() {
///         a.tuple(&OrTuple {
///             instr: InstrId(i as u32),
///             kind: AccessKind::Load,
///             group: GroupId(0),
///             object: ObjectSerial(obj),
///             offset: off,
///             time: Timestamp(obj * 2 + i as u64),
///             size: 8,
///         });
///     }
/// }
/// assert_eq!(a.suggest_layout(GroupId(0)), vec![0, 36]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FieldReorderAnalysis {
    groups: FxMap<GroupId, GroupFields>,
}

impl FieldReorderAnalysis {
    /// Creates an empty analysis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The affinity count between two offsets of a group (order
    /// insensitive).
    #[must_use]
    pub fn affinity(&self, group: GroupId, a: u64, b: u64) -> u64 {
        let (lo, hi) = (a.min(b), a.max(b));
        self.groups
            .get(&group)
            .and_then(|g| g.affinity.get(&(lo, hi)))
            .copied()
            .unwrap_or(0)
    }

    /// All offsets observed for a group, ascending.
    #[must_use]
    pub fn offsets(&self, group: GroupId) -> Vec<u64> {
        let mut offsets: Vec<u64> = self
            .groups
            .get(&group)
            .map(|g| g.offsets.iter().copied().collect())
            .unwrap_or_default();
        offsets.sort_unstable();
        offsets
    }

    /// Groups with at least one observed access, ascending.
    #[must_use]
    pub fn groups(&self) -> Vec<GroupId> {
        let mut gs: Vec<GroupId> = self.groups.keys().copied().collect();
        gs.sort_unstable();
        gs
    }

    /// Total offset-transition weight of a group — how much temporal
    /// field adjacency a reordering could exploit.
    #[must_use]
    pub fn total_affinity(&self, group: GroupId) -> u64 {
        self.groups
            .get(&group)
            .map_or(0, |g| g.affinity.values().sum())
    }

    /// Suggests a field order for `group`: a greedy chain through the
    /// affinity graph, strongest edges first — fields that are accessed
    /// together end up adjacent, so they share cache lines after
    /// reordering.
    ///
    /// Offsets never involved in an affinity edge are appended in
    /// ascending order (their placement is unconstrained).
    #[must_use]
    pub fn suggest_layout(&self, group: GroupId) -> Vec<u64> {
        let offsets = self.offsets(group);
        if offsets.len() <= 2 {
            return offsets;
        }
        // Edges sorted by descending affinity.
        let mut edges: Vec<(u64, u64, u64)> = self
            .groups
            .get(&group)
            .map(|g| g.affinity.iter().map(|(&(a, b), &w)| (w, a, b)).collect())
            .unwrap_or_default();
        edges.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

        // Greedy chain building: accept an edge when both endpoints
        // have degree < 2 and the edge does not close a cycle.
        let mut degree: FxMap<u64, usize> = FxMap::default();
        let mut parent: FxMap<u64, u64> = offsets.iter().map(|&o| (o, o)).collect();
        fn find(parent: &mut FxMap<u64, u64>, x: u64) -> u64 {
            let p = parent[&x];
            if p == x {
                x
            } else {
                let root = find(parent, p);
                parent.insert(x, root);
                root
            }
        }
        let mut adj: FxMap<u64, Vec<u64>> = FxMap::default();
        for (w, a, b) in edges {
            if w == 0 {
                continue;
            }
            let (da, db) = (
                degree.get(&a).copied().unwrap_or(0),
                degree.get(&b).copied().unwrap_or(0),
            );
            if da >= 2 || db >= 2 {
                continue;
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                continue;
            }
            parent.insert(ra, rb);
            *degree.entry(a).or_default() += 1;
            *degree.entry(b).or_default() += 1;
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }

        // Walk each chain from an endpoint; emit isolated offsets last.
        let mut out = Vec::with_capacity(offsets.len());
        let mut visited: FxSet<u64> = FxSet::default();
        let mut starts: Vec<u64> = offsets
            .iter()
            .copied()
            .filter(|o| degree.get(o).copied().unwrap_or(0) == 1)
            .collect();
        starts.sort_unstable();
        for start in starts {
            if visited.contains(&start) {
                continue;
            }
            let mut cur = start;
            let mut prev = None;
            loop {
                visited.insert(cur);
                out.push(cur);
                let next = adj
                    .get(&cur)
                    .and_then(|ns| {
                        ns.iter()
                            .find(|&&n| Some(n) != prev && !visited.contains(&n))
                    })
                    .copied();
                match next {
                    Some(n) => {
                        prev = Some(cur);
                        cur = n;
                    }
                    None => break,
                }
            }
        }
        for o in offsets {
            if !visited.contains(&o) {
                out.push(o);
            }
        }
        out
    }
}

impl OrSink for FieldReorderAnalysis {
    fn tuple(&mut self, t: &OrTuple) {
        let g = self.groups.entry(t.group).or_default();
        g.offsets.insert(t.offset);
        if let Some((obj, off)) = g.last.replace((t.object, t.offset)) {
            if obj == t.object && off != t.offset {
                let (lo, hi) = (off.min(t.offset), off.max(t.offset));
                *g.affinity.entry((lo, hi)).or_default() += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::Timestamp;
    use orp_trace::{AccessKind, InstrId};

    fn t(group: u32, object: u64, offset: u64, time: u64) -> OrTuple {
        OrTuple {
            instr: InstrId(0),
            kind: AccessKind::Load,
            group: GroupId(group),
            object: ObjectSerial(object),
            offset,
            time: Timestamp(time),
            size: 8,
        }
    }

    #[test]
    fn paper_offset_pair_pattern() {
        // The paper's (0, 36)* repeated offset sequence.
        let mut a = FieldReorderAnalysis::new();
        let mut time = 0;
        for obj in 0..50 {
            a.tuple(&t(0, obj, 0, time));
            a.tuple(&t(0, obj, 36, time + 1));
            time += 2;
        }
        assert_eq!(a.affinity(GroupId(0), 0, 36), 50);
        assert_eq!(a.affinity(GroupId(0), 36, 0), 50, "order insensitive");
        assert_eq!(a.suggest_layout(GroupId(0)), vec![0, 36]);
    }

    #[test]
    fn chains_strongest_affinities_adjacently() {
        // Offsets 0,8,16,24: pattern (0,16) x100, (8,24) x100, (0,8) x10.
        let mut a = FieldReorderAnalysis::new();
        let mut time = 0;
        for rep in 0..100 {
            a.tuple(&t(0, 0, 0, time));
            a.tuple(&t(0, 0, 16, time + 1));
            a.tuple(&t(0, 1, 8, time + 2));
            a.tuple(&t(0, 1, 24, time + 3));
            time += 4;
            if rep < 10 {
                a.tuple(&t(0, 2, 0, time));
                a.tuple(&t(0, 2, 8, time + 1));
                time += 2;
            }
        }
        let layout = a.suggest_layout(GroupId(0));
        assert_eq!(layout.len(), 4);
        let pos = |o: u64| layout.iter().position(|&x| x == o).unwrap();
        assert_eq!(
            pos(0).abs_diff(pos(16)),
            1,
            "hottest pair adjacent: {layout:?}"
        );
        assert_eq!(
            pos(8).abs_diff(pos(24)),
            1,
            "second pair adjacent: {layout:?}"
        );
    }

    #[test]
    fn cross_object_adjacency_is_not_affinity() {
        // Consecutive accesses to *different* objects say nothing about
        // intra-object layout.
        let mut a = FieldReorderAnalysis::new();
        a.tuple(&t(0, 0, 0, 0));
        a.tuple(&t(0, 1, 36, 1));
        assert_eq!(a.affinity(GroupId(0), 0, 36), 0);
    }

    #[test]
    fn groups_are_independent() {
        let mut a = FieldReorderAnalysis::new();
        a.tuple(&t(0, 0, 0, 0));
        a.tuple(&t(1, 0, 8, 1)); // group switch resets nothing across groups
        a.tuple(&t(0, 0, 16, 2));
        assert_eq!(a.affinity(GroupId(0), 0, 16), 1);
        assert_eq!(a.affinity(GroupId(1), 0, 16), 0);
        assert_eq!(a.groups().len(), 2);
    }

    #[test]
    fn isolated_offsets_are_appended() {
        let mut a = FieldReorderAnalysis::new();
        a.tuple(&t(0, 0, 0, 0));
        a.tuple(&t(0, 0, 8, 1));
        // Offset 99 is seen but never adjacent to anything (different
        // object).
        a.tuple(&t(0, 5, 99, 2));
        let layout = a.suggest_layout(GroupId(0));
        assert_eq!(layout.last(), Some(&99));
        assert_eq!(layout.len(), 3);
    }

    #[test]
    fn empty_analysis_is_safe() {
        let a = FieldReorderAnalysis::new();
        assert!(a.suggest_layout(GroupId(0)).is_empty());
        assert!(a.groups().is_empty());
        assert!(a.offsets(GroupId(0)).is_empty());
    }
}
