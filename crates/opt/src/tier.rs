//! Hot/cold object tiering driven by grammar hot streams.
//!
//! OBASE-style tiering: objects that appear in a group's *hot data
//! streams* (frequently repeated access subsequences, mined by
//! [`hot_streams`] from a Sequitur grammar over the group's object
//! dimension) are placed in a dense hot region; the rest move to a
//! cold region. The hot set is a structural signal — membership in a
//! repeated traversal — not a plain access-count cutoff, which is
//! exactly what the object-relative grammar adds over a flat heat
//! histogram.

use std::collections::BTreeSet;

use orp_core::{GroupId, ObjectSerial, OrSink, OrTuple};
use orp_sequitur::Sequitur;

use crate::advisor::LayoutAdvisor;
use crate::hot_streams::hot_streams;
use crate::plan::{Transform, TransformKind};
use crate::FxMap;

/// Default minimum hot-stream expansion length considered structural.
pub const DEFAULT_MIN_STREAM_LEN: usize = 2;
/// Default number of top streams per group whose members become hot.
pub const DEFAULT_TOP_STREAMS: usize = 8;

/// One group's state: its object-serial grammar and access counts.
#[derive(Debug, Clone, Default)]
struct TierGroup {
    grammar: Sequitur,
    /// Access counts per serial — scores the hot set.
    heat: FxMap<u64, u64>,
}

/// Hot/cold tiering adviser: one Sequitur grammar per group over the
/// object-serial dimension, mined with [`hot_streams`] at advise time.
#[derive(Debug, Clone)]
pub struct TieringAdvisor {
    groups: FxMap<GroupId, TierGroup>,
    min_stream_len: usize,
    top_streams: usize,
}

impl Default for TieringAdvisor {
    fn default() -> Self {
        Self::new()
    }
}

impl TieringAdvisor {
    /// Creates an adviser with the default mining parameters.
    #[must_use]
    pub fn new() -> Self {
        TieringAdvisor {
            groups: FxMap::default(),
            min_stream_len: DEFAULT_MIN_STREAM_LEN,
            top_streams: DEFAULT_TOP_STREAMS,
        }
    }

    /// Creates an adviser with explicit mining parameters: streams
    /// shorter than `min_stream_len` are ignored, and only the
    /// `top_streams` hottest streams per group contribute members.
    #[must_use]
    pub fn with_params(min_stream_len: usize, top_streams: usize) -> Self {
        TieringAdvisor {
            min_stream_len: min_stream_len.max(1),
            top_streams,
            ..TieringAdvisor::new()
        }
    }

    /// The hot serials of one group under the current profile.
    #[must_use]
    pub fn hot_set(&self, group: GroupId) -> BTreeSet<ObjectSerial> {
        let Some(g) = self.groups.get(&group) else {
            return BTreeSet::new();
        };
        let grammar = g.grammar.grammar();
        hot_streams(&grammar, self.min_stream_len, self.top_streams)
            .into_iter()
            .flat_map(|s| s.expansion)
            .map(ObjectSerial)
            .collect()
    }

    fn object_count(&self, group: GroupId) -> usize {
        self.groups.get(&group).map_or(0, |g| g.heat.len())
    }

    fn hot_heat(&self, group: GroupId, hot: &BTreeSet<ObjectSerial>) -> u64 {
        let Some(g) = self.groups.get(&group) else {
            return 0;
        };
        hot.iter()
            .map(|s| g.heat.get(&s.0).copied().unwrap_or(0))
            .sum()
    }
}

impl LayoutAdvisor for TieringAdvisor {
    fn name(&self) -> &'static str {
        "tier"
    }

    /// One `HotColdSplit` per group whose hot-stream members form a
    /// proper, nonempty subset of the group's objects; benefit is the
    /// accesses the hot set covers.
    fn advise(&self) -> Vec<Transform> {
        let mut groups: Vec<GroupId> = self.groups.keys().copied().collect();
        groups.sort_unstable();
        let mut out = Vec::new();
        for group in groups {
            let hot = self.hot_set(group);
            if hot.is_empty() || hot.len() >= self.object_count(group) {
                // Nothing structural, or everything is hot — a split
                // would not separate anything.
                continue;
            }
            let benefit = self.hot_heat(group, &hot);
            if benefit == 0 {
                continue;
            }
            out.push(Transform {
                kind: TransformKind::HotColdSplit {
                    group,
                    hot: hot.into_iter().collect(),
                },
                advisor: self.name().to_string(),
                benefit,
            });
        }
        out
    }
}

impl OrSink for TieringAdvisor {
    fn tuple(&mut self, t: &OrTuple) {
        let g = self.groups.entry(t.group).or_default();
        g.grammar.push(t.object.0);
        *g.heat.entry(t.object.0).or_default() += 1;
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
    fn repeated_traversal_becomes_the_hot_tier() {
        let mut adv = TieringAdvisor::new();
        let mut time = 0;
        // Objects 0..4 cycle hotly; objects 100..120 are touched once.
        for _ in 0..60 {
            for obj in 0..4u64 {
                adv.tuple(&t(0, obj, time));
                time += 1;
            }
        }
        for obj in 100..120u64 {
            adv.tuple(&t(0, obj, time));
            time += 1;
        }
        let transforms = adv.advise();
        assert_eq!(transforms.len(), 1);
        let Transform { kind, benefit, .. } = &transforms[0];
        let TransformKind::HotColdSplit { group, hot } = kind else {
            panic!("expected a hot/cold split, got {kind:?}");
        };
        assert_eq!(*group, GroupId(0));
        let hot_serials: BTreeSet<u64> = hot.iter().map(|s| s.0).collect();
        assert!(
            hot_serials.is_subset(&(0..4u64).collect()),
            "hot set {hot_serials:?} is from the cycling objects"
        );
        assert!(*benefit >= 100, "covers the traversal: {benefit}");
        // Canonical: ascending.
        assert!(hot.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn uniform_access_produces_no_split() {
        // Every object equally part of the repeated structure: hot set
        // is the whole group, so no split is proposed.
        let mut adv = TieringAdvisor::new();
        let mut time = 0;
        for _ in 0..50 {
            for obj in 0..3u64 {
                adv.tuple(&t(0, obj, time));
                time += 1;
            }
        }
        assert!(adv.advise().is_empty());
    }

    #[test]
    fn groups_are_tiered_independently() {
        let mut adv = TieringAdvisor::new();
        let mut time = 0;
        for _ in 0..60 {
            for obj in 0..4u64 {
                adv.tuple(&t(5, obj, time));
                time += 1;
            }
        }
        for obj in 50..60u64 {
            adv.tuple(&t(5, obj, time));
            adv.tuple(&t(9, obj, time + 1));
            time += 2;
        }
        let transforms = adv.advise();
        assert!(transforms.iter().all(|t| matches!(
            t.kind,
            TransformKind::HotColdSplit { group, .. } if group == GroupId(5)
        )));
    }

    #[test]
    fn empty_adviser_is_quiet() {
        assert!(TieringAdvisor::new().advise().is_empty());
        assert!(TieringAdvisor::new().hot_set(GroupId(0)).is_empty());
    }
}
