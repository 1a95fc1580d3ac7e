//! Global-variable re-mapping: the paper's third use case for the
//! object-level view ("object clustering or global variable
//! re-mapping").
//!
//! Static objects are singleton groups placed by the linker in
//! definition order — an order that has nothing to do with how the
//! program uses them. This analysis counts temporal transitions between
//! *whole objects across groups* (each static is its own group) and
//! chains them into a suggested placement order, so globals that are
//! used together become neighbors in the data segment.

use orp_core::{OrSink, OrTuple};

use crate::{FxMap, FxSet};

/// A whole-object identity (group + serial), the granularity of
/// re-mapping (re-exported from the plan IR).
pub use crate::plan::ObjectKey;

/// Cross-group object-transition counts and placement suggestions.
///
/// Counting is hash-only; [`RemapAnalysis::objects`] and
/// [`RemapAnalysis::suggest_order`] sort once per call.
#[derive(Debug, Clone, Default)]
pub struct RemapAnalysis {
    /// Unordered pair (lexicographically sorted) → transition count.
    affinity: FxMap<(ObjectKey, ObjectKey), u64>,
    /// Objects seen.
    objects: FxSet<ObjectKey>,
    /// Last object accessed, across all groups.
    last: Option<ObjectKey>,
}

impl RemapAnalysis {
    /// Creates an empty analysis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Transition count between two objects (order insensitive).
    #[must_use]
    pub fn affinity(&self, a: ObjectKey, b: ObjectKey) -> u64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.affinity.get(&(lo, hi)).copied().unwrap_or(0)
    }

    /// All objects observed, ascending.
    #[must_use]
    pub fn objects(&self) -> Vec<ObjectKey> {
        let mut objects: Vec<ObjectKey> = self.objects.iter().copied().collect();
        objects.sort_unstable();
        objects
    }

    /// Total cross-object transition weight — the upper bound on what
    /// a re-mapping can exploit.
    #[must_use]
    pub fn total_affinity(&self) -> u64 {
        self.affinity.values().sum()
    }

    /// Suggests a placement order: a greedy affinity chain (strongest
    /// edges first, each object adjacent to at most two others, no
    /// cycles), with untouched-by-affinity objects appended.
    #[must_use]
    pub fn suggest_order(&self) -> Vec<ObjectKey> {
        let objects = self.objects();
        if objects.len() <= 2 {
            return objects;
        }
        let mut edges: Vec<(u64, ObjectKey, ObjectKey)> = self
            .affinity
            .iter()
            .map(|(&(a, b), &w)| (w, a, b))
            .collect();
        edges.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

        let mut degree: FxMap<ObjectKey, usize> = FxMap::default();
        let mut parent: FxMap<ObjectKey, ObjectKey> = objects.iter().map(|&o| (o, o)).collect();
        fn find(parent: &mut FxMap<ObjectKey, ObjectKey>, x: ObjectKey) -> ObjectKey {
            let p = parent[&x];
            if p == x {
                x
            } else {
                let root = find(parent, p);
                parent.insert(x, root);
                root
            }
        }
        let mut adj: FxMap<ObjectKey, Vec<ObjectKey>> = FxMap::default();
        for (w, a, b) in edges {
            if w == 0 {
                continue;
            }
            if degree.get(&a).copied().unwrap_or(0) >= 2
                || degree.get(&b).copied().unwrap_or(0) >= 2
            {
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

        let mut out = Vec::with_capacity(objects.len());
        let mut visited: FxSet<ObjectKey> = FxSet::default();
        let starts: Vec<ObjectKey> = objects
            .iter()
            .copied()
            .filter(|o| degree.get(o).copied().unwrap_or(0) == 1)
            .collect();
        for start in starts {
            if visited.contains(&start) {
                continue;
            }
            let mut cur = start;
            loop {
                visited.insert(cur);
                out.push(cur);
                match adj
                    .get(&cur)
                    .and_then(|ns| ns.iter().find(|n| !visited.contains(n)))
                    .copied()
                {
                    Some(next) => cur = next,
                    None => break,
                }
            }
        }
        for o in objects {
            if !visited.contains(&o) {
                out.push(o);
            }
        }
        out
    }
}

impl OrSink for RemapAnalysis {
    fn tuple(&mut self, t: &OrTuple) {
        let key = (t.group, t.object);
        if self.last == Some(key) {
            // A repeat is neither a new object nor a transition.
            return;
        }
        self.objects.insert(key);
        if let Some(prev) = self.last.replace(key) {
            let (lo, hi) = if prev <= key {
                (prev, key)
            } else {
                (key, prev)
            };
            *self.affinity.entry((lo, hi)).or_default() += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::{GroupId, ObjectSerial, Timestamp};
    use orp_trace::{AccessKind, InstrId};

    fn t(group: u32, time: u64) -> OrTuple {
        OrTuple {
            instr: InstrId(0),
            kind: AccessKind::Load,
            group: GroupId(group),
            object: ObjectSerial(0),
            offset: 0,
            time: Timestamp(time),
            size: 8,
        }
    }

    fn key(group: u32) -> ObjectKey {
        (GroupId(group), ObjectSerial(0))
    }

    #[test]
    fn co_used_globals_become_neighbors() {
        // Globals 0 and 2 ping-pong; 1 and 3 ping-pong; 4 is cold.
        let mut a = RemapAnalysis::new();
        let mut time = 0;
        for _ in 0..100 {
            a.tuple(&t(0, time));
            a.tuple(&t(2, time + 1));
            time += 2;
        }
        for _ in 0..80 {
            a.tuple(&t(1, time));
            a.tuple(&t(3, time + 1));
            time += 2;
        }
        a.tuple(&t(4, time));
        let order = a.suggest_order();
        assert_eq!(order.len(), 5);
        let pos = |g: u32| order.iter().position(|&o| o == key(g)).unwrap();
        assert_eq!(pos(0).abs_diff(pos(2)), 1, "{order:?}");
        assert_eq!(pos(1).abs_diff(pos(3)), 1, "{order:?}");
    }

    #[test]
    fn affinity_is_order_insensitive() {
        let mut a = RemapAnalysis::new();
        a.tuple(&t(0, 0));
        a.tuple(&t(1, 1));
        a.tuple(&t(0, 2));
        assert_eq!(a.affinity(key(0), key(1)), 2);
        assert_eq!(a.affinity(key(1), key(0)), 2);
        assert_eq!(a.affinity(key(0), key(2)), 0);
    }

    #[test]
    fn tiny_inputs_are_safe() {
        let a = RemapAnalysis::new();
        assert!(a.suggest_order().is_empty());
        let mut b = RemapAnalysis::new();
        b.tuple(&t(0, 0));
        assert_eq!(b.suggest_order(), vec![key(0)]);
    }
}
