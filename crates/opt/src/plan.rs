//! The `LayoutPlan` IR: typed, scored, provenance-carrying layout
//! transforms.
//!
//! Advisers ([`crate::LayoutAdvisor`]) analyze an object-relative
//! stream and emit [`Transform`]s — *what* to change about the layout,
//! without saying *how* to place bytes. The applier (`orp-allocsim`)
//! consumes the plan and produces concrete addresses; the evaluator
//! (`orp-cache`) replays the trace under both layouts and measures the
//! difference. The plan is the contract between all three: a small,
//! serializable, deterministic value (`PLAN` chunk in a `.orp`
//! container, see `crate::io`).

use std::fmt;

use orp_core::{GroupId, ObjectSerial};

/// A whole-object identity, the granularity of placement transforms.
pub type ObjectKey = (GroupId, ObjectSerial);

/// What a single transform does to the layout.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// Reorder the fields of every object of `group`: the offsets in
    /// `order` are packed to the front of the object in that order
    /// (temporally adjacent fields end up on the same cache line).
    FieldReorder {
        /// The group whose objects are reordered.
        group: GroupId,
        /// Observed offsets, in their suggested new order.
        order: Vec<u64>,
    },
    /// Place `objects` contiguously, in exactly this order (object
    /// clustering / global-variable re-mapping).
    Colocate {
        /// The objects to co-locate, in placement order.
        objects: Vec<ObjectKey>,
    },
    /// Route every allocation of `group` into a dedicated pool so the
    /// group's objects share pages regardless of interleaved
    /// allocations from other sites.
    PoolGroup {
        /// The group whose allocations are pooled.
        group: GroupId,
    },
    /// Split `group` into tiers: the `hot` serials are placed in a
    /// dense hot region, the rest in a cold region (OBASE-style
    /// hot/cold object tiering).
    HotColdSplit {
        /// The group being tiered.
        group: GroupId,
        /// Serials of the hot objects, ascending.
        hot: Vec<ObjectSerial>,
    },
}

impl TransformKind {
    /// Stable on-disk code (see `crate::io`).
    #[must_use]
    pub fn code(&self) -> u64 {
        match self {
            TransformKind::FieldReorder { .. } => 1,
            TransformKind::Colocate { .. } => 2,
            TransformKind::PoolGroup { .. } => 3,
            TransformKind::HotColdSplit { .. } => 4,
        }
    }

    /// Short display name (used in reports and `orprof inspect`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TransformKind::FieldReorder { .. } => "field-reorder",
            TransformKind::Colocate { .. } => "colocate",
            TransformKind::PoolGroup { .. } => "pool-group",
            TransformKind::HotColdSplit { .. } => "hot-cold-split",
        }
    }
}

/// One layout transform: what to do, who proposed it, and how much it
/// is expected to help.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transform {
    /// The layout change itself.
    pub kind: TransformKind,
    /// Name of the adviser that proposed it
    /// ([`crate::LayoutAdvisor::name`]).
    pub advisor: String,
    /// Expected benefit in *accesses covered* (affinity weight or heat;
    /// adviser-specific but always "bigger is better"). Orders
    /// application precedence.
    pub benefit: u64,
}

impl Transform {
    /// A stable metric-key-safe identifier: `<label>.g<group>` for
    /// group-scoped transforms, `<label>` for cross-group ones, with a
    /// positional suffix added by [`LayoutPlan::labels`] when needed.
    #[must_use]
    pub fn metric_label(&self) -> String {
        match &self.kind {
            TransformKind::FieldReorder { group, .. }
            | TransformKind::PoolGroup { group }
            | TransformKind::HotColdSplit { group, .. } => {
                format!("{}.g{}", self.kind.label(), group.0)
            }
            TransformKind::Colocate { objects } => match objects.first() {
                Some((g, _)) if objects.iter().all(|(og, _)| og == g) => {
                    format!("{}.g{}", self.kind.label(), g.0)
                }
                _ => self.kind.label().to_string(),
            },
        }
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TransformKind::FieldReorder { group, order } => write!(
                f,
                "field-reorder group {} ({} offsets)",
                group.0,
                order.len()
            )?,
            TransformKind::Colocate { objects } => {
                write!(f, "colocate {} objects", objects.len())?;
            }
            TransformKind::PoolGroup { group } => write!(f, "pool group {}", group.0)?,
            TransformKind::HotColdSplit { group, hot } => {
                write!(f, "hot/cold split group {} ({} hot)", group.0, hot.len())?;
            }
        }
        write!(f, " [benefit {} via {}]", self.benefit, self.advisor)
    }
}

/// A deterministic, ordered set of layout transforms.
///
/// Construction through [`LayoutPlan::from_transforms`] canonicalizes
/// the order (descending benefit, ties broken structurally), so two
/// advisers run over the same trace produce the same plan — and the
/// same serialized bytes (the differential-determinism guarantee the
/// `optimize` pipeline tests rely on).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutPlan {
    transforms: Vec<Transform>,
}

impl LayoutPlan {
    /// Builds a plan, canonicalizing transform order: descending
    /// benefit, then kind code, then structural content, then adviser
    /// name. Total and deterministic.
    #[must_use]
    pub fn from_transforms(mut transforms: Vec<Transform>) -> Self {
        transforms.sort_by(|a, b| {
            b.benefit
                .cmp(&a.benefit)
                .then_with(|| a.kind.code().cmp(&b.kind.code()))
                .then_with(|| structural_key(&a.kind).cmp(&structural_key(&b.kind)))
                .then_with(|| a.advisor.cmp(&b.advisor))
        });
        LayoutPlan { transforms }
    }

    /// The transforms, highest expected benefit first.
    #[must_use]
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// Number of transforms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// True when the plan proposes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Keeps only the `k` highest-benefit transforms.
    pub fn truncate(&mut self, k: usize) {
        self.transforms.truncate(k);
    }

    /// Appends a transform preserving insertion order — decoder use
    /// only, where the stored order is already canonical.
    pub(crate) fn push_unchecked(&mut self, t: Transform) {
        self.transforms.push(t);
    }

    /// Unique per-transform metric labels, in plan order: the base
    /// [`Transform::metric_label`], suffixed `.N` on repeats.
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        let mut seen: crate::FxMap<String, usize> = crate::FxMap::default();
        self.transforms
            .iter()
            .map(|t| {
                let base = t.metric_label();
                let n = seen.entry(base.clone()).or_insert(0);
                *n += 1;
                if *n == 1 {
                    base
                } else {
                    format!("{base}.{n}")
                }
            })
            .collect()
    }

    /// The field order for `group`, if any `FieldReorder` transform
    /// covers it (highest-benefit one wins).
    #[must_use]
    pub fn field_order(&self, group: GroupId) -> Option<&[u64]> {
        self.transforms.iter().find_map(|t| match &t.kind {
            TransformKind::FieldReorder { group: g, order } if *g == group => {
                Some(order.as_slice())
            }
            _ => None,
        })
    }
}

/// A structural comparison key: the kind's fields flattened to a
/// vector of integers. Used only for deterministic tie-breaking.
fn structural_key(kind: &TransformKind) -> Vec<u64> {
    match kind {
        TransformKind::FieldReorder { group, order } => {
            let mut k = vec![u64::from(group.0)];
            k.extend_from_slice(order);
            k
        }
        TransformKind::Colocate { objects } => {
            let mut k = Vec::with_capacity(objects.len() * 2);
            for (g, s) in objects {
                k.push(u64::from(g.0));
                k.push(s.0);
            }
            k
        }
        TransformKind::PoolGroup { group } => vec![u64::from(group.0)],
        TransformKind::HotColdSplit { group, hot } => {
            let mut k = vec![u64::from(group.0)];
            k.extend(hot.iter().map(|s| s.0));
            k
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(group: u32, benefit: u64) -> Transform {
        Transform {
            kind: TransformKind::PoolGroup {
                group: GroupId(group),
            },
            advisor: "test".to_string(),
            benefit,
        }
    }

    #[test]
    fn plan_orders_by_descending_benefit() {
        let plan = LayoutPlan::from_transforms(vec![pool(0, 5), pool(1, 50), pool(2, 10)]);
        let benefits: Vec<u64> = plan.transforms().iter().map(|t| t.benefit).collect();
        assert_eq!(benefits, vec![50, 10, 5]);
    }

    #[test]
    fn ties_break_structurally_not_by_insertion() {
        let a = LayoutPlan::from_transforms(vec![pool(3, 7), pool(1, 7), pool(2, 7)]);
        let b = LayoutPlan::from_transforms(vec![pool(2, 7), pool(3, 7), pool(1, 7)]);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_unique() {
        let plan = LayoutPlan::from_transforms(vec![
            pool(0, 3),
            pool(0, 2),
            Transform {
                kind: TransformKind::Colocate {
                    objects: vec![(GroupId(0), ObjectSerial(1)), (GroupId(1), ObjectSerial(2))],
                },
                advisor: "test".to_string(),
                benefit: 9,
            },
        ]);
        let labels = plan.labels();
        assert_eq!(labels.len(), 3);
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 3, "{labels:?}");
        assert!(labels.contains(&"colocate".to_string()));
        assert!(labels.contains(&"pool-group.g0".to_string()));
    }

    #[test]
    fn field_order_lookup_prefers_highest_benefit() {
        let plan = LayoutPlan::from_transforms(vec![
            Transform {
                kind: TransformKind::FieldReorder {
                    group: GroupId(4),
                    order: vec![8, 0],
                },
                advisor: "a".to_string(),
                benefit: 1,
            },
            Transform {
                kind: TransformKind::FieldReorder {
                    group: GroupId(4),
                    order: vec![0, 8],
                },
                advisor: "b".to_string(),
                benefit: 100,
            },
        ]);
        assert_eq!(plan.field_order(GroupId(4)), Some([0u64, 8].as_slice()));
        assert_eq!(plan.field_order(GroupId(9)), None);
    }
}
