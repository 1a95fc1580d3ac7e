//! Applying profile-guided layout advice and measuring it.
//!
//! An [`AppliedLayout`] is a concrete address map: it assigns every
//! profiled object a (new) base address and optionally remaps field
//! offsets within a group. It is the replay-side counterpart of the
//! `orp-opt` [`LayoutPlan`](orp_opt::LayoutPlan) IR — the plan states
//! *intent* (typed transforms), the applied layout states *addresses*.
//! Replaying an object-relative stream through a cache under different
//! layouts turns layout advice — clustering orders, field orders, or
//! plain allocation order — into measured miss rates.
//!
//! Build one from recorded addresses ([`AppliedLayout::original`]), a
//! packing order ([`AppliedLayout::packed`]), or a plan applied by the
//! allocator simulator ([`AppliedLayout::from_placement`]).

use std::collections::{BTreeMap, BTreeSet};

use orp_allocsim::{ObjectExtent, PlannedPlacement};
use orp_core::{GroupId, ObjectRecord, ObjectSerial, OrTuple};
use orp_opt::TransformKind;

use crate::Hierarchy;

/// A whole-object identity.
pub type ObjectKey = (GroupId, ObjectSerial);

/// One group's share of a layout.
#[derive(Debug, Clone, Default)]
struct GroupTable {
    /// Indexed by serial: the object's base address, `None` when the
    /// layout does not place it.
    bases: Vec<Option<u64>>,
    /// `(old offset, new offset)` pairs sorted by old offset; empty
    /// when the group keeps its field order.
    remap: Vec<(u64, u64)>,
}

/// A synthetic data layout: object placements plus per-group field
/// remaps.
///
/// The layout lives in dense tables built once: one per group, indexed
/// by group id, each holding its objects' bases indexed by serial and
/// the group's field remap. A replayed tuple therefore costs two
/// bounds-checked indexings and, only in a reordered group, a binary
/// search over the group's hot offsets — no hashing. Table sizes follow
/// the largest group id and serial placed (a field remap never grows
/// them); the OMC hands both out densely from zero, so the tables are
/// as large as the object inventory.
///
/// # Examples
///
/// ```
/// use orp_cache::layout::AppliedLayout;
/// use orp_core::{GroupId, ObjectRecord, ObjectSerial, Timestamp};
///
/// let objects = vec![ObjectRecord {
///     group: GroupId(0),
///     serial: ObjectSerial(0),
///     base: 0xDEAD_0000,
///     size: 32,
///     alloc_time: Timestamp(0),
///     free_time: None,
/// }];
/// // Pack the object at a fresh base, ignoring where the allocator put it.
/// let plan = AppliedLayout::packed(&objects, &[(GroupId(0), ObjectSerial(0))], 0x1000);
/// assert_eq!(plan.placed(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AppliedLayout {
    /// Indexed by group id.
    groups: Vec<GroupTable>,
    /// Number of placed objects.
    placed: usize,
}

impl AppliedLayout {
    /// The layout the program actually had: every object at its
    /// recorded base address.
    #[must_use]
    pub fn original(objects: &[ObjectRecord]) -> Self {
        let mut layout = AppliedLayout::default();
        for o in objects {
            layout.place((o.group, o.serial), o.base);
        }
        layout
    }

    /// Packs the given objects contiguously (8-byte aligned) in the
    /// given order, starting at `base`; objects present in `objects`
    /// but absent from `order` are appended in record order.
    ///
    /// This is the mechanism behind every advice-driven layout: pass
    /// allocation order for a compacting baseline, or an affinity/
    /// traversal order for cache-conscious placement.
    #[must_use]
    pub fn packed(objects: &[ObjectRecord], order: &[ObjectKey], base: u64) -> Self {
        let sizes: BTreeMap<ObjectKey, u64> = objects
            .iter()
            .map(|o| ((o.group, o.serial), o.size))
            .collect();
        let mut layout = AppliedLayout::default();
        let mut cursor = base;
        let record_order = objects.iter().map(|o| (o.group, o.serial));
        for key in order.iter().copied().chain(record_order) {
            if layout.base_of(key).is_some() {
                continue;
            }
            let Some(&size) = sizes.get(&key) else {
                continue;
            };
            layout.place(key, cursor);
            cursor += size.max(1).div_ceil(8) * 8;
        }
        layout
    }

    /// Builds the layout a [`LayoutPlan`](orp_opt::LayoutPlan)
    /// produced: object bases come from the applier's
    /// [`PlannedPlacement`], and the plan's `FieldReorder` transforms
    /// become field remaps.
    ///
    /// This is the bridge between the plan pipeline's apply stage
    /// ([`orp_allocsim::apply_plan`]) and its re-simulate stage
    /// ([`replay`](AppliedLayout::replay)).
    #[must_use]
    pub fn from_placement(
        placement: &PlannedPlacement,
        objects: &[ObjectExtent],
        plan: &orp_opt::LayoutPlan,
    ) -> Self {
        let mut layout = AppliedLayout::default();
        for o in objects {
            let key = (o.group, o.serial);
            if let Some(base) = placement.address_of(key) {
                layout.place(key, base);
            }
        }
        let reordered: BTreeSet<GroupId> = plan
            .transforms()
            .iter()
            .filter_map(|t| match &t.kind {
                TransformKind::FieldReorder { group, .. } => Some(*group),
                _ => None,
            })
            .collect();
        for group in reordered {
            if let Some(order) = plan.field_order(group) {
                layout.set_field_order(group, order);
            }
        }
        layout
    }

    /// Places one object at `base`; a repeated key moves it.
    ///
    /// # Panics
    ///
    /// Panics if the serial cannot index memory (only possible on
    /// targets narrower than 64 bits).
    fn place(&mut self, (group, serial): ObjectKey, base: u64) {
        let (g, serial) = (
            group.0 as usize,
            usize::try_from(serial.0).expect("object serial indexes a dense table"),
        );
        if self.groups.len() <= g {
            self.groups.resize_with(g + 1, GroupTable::default);
        }
        let bases = &mut self.groups[g].bases;
        if bases.len() <= serial {
            bases.resize(serial + 1, None);
        }
        if bases[serial].replace(base).is_none() {
            self.placed += 1;
        }
    }

    fn base_of(&self, (group, serial): ObjectKey) -> Option<u64> {
        let table = self.groups.get(group.0 as usize)?;
        *table.bases.get(usize::try_from(serial.0).ok()?)?
    }

    /// Adds a field remap for `group`: the offsets in `hot_order` are
    /// compacted to the front of the object (8 bytes apart, in the
    /// given order); unlisted offsets keep their original positions
    /// shifted past the hot prefix when they would collide. A group
    /// with no placed object has nothing to remap.
    pub fn set_field_order(&mut self, group: GroupId, hot_order: &[u64]) {
        let Some(table) = self.groups.get_mut(group.0 as usize) else {
            return;
        };
        // A repeated offset takes its last position.
        let remap: BTreeMap<u64, u64> = hot_order
            .iter()
            .enumerate()
            .map(|(i, &off)| (off, i as u64 * 8))
            .collect();
        table.remap = remap.into_iter().collect();
    }

    /// The synthetic address of one access under this plan, or `None`
    /// for objects the plan does not place.
    #[inline]
    #[must_use]
    pub fn address_of(&self, t: &OrTuple) -> Option<u64> {
        let table = self.groups.get(t.group.0 as usize)?;
        let base = (*table.bases.get(usize::try_from(t.object.0).ok()?)?)?;
        let offset = match table.remap.binary_search_by_key(&t.offset, |&(old, _)| old) {
            Ok(i) => table.remap[i].1,
            Err(_) => t.offset,
        };
        Some(base + offset)
    }

    /// Number of objects the plan places.
    #[must_use]
    pub fn placed(&self) -> usize {
        self.placed
    }

    /// Replays a tuple stream through a cache hierarchy under this
    /// plan; returns how many accesses were skipped for lack of a
    /// placement.
    pub fn replay(&self, tuples: &[OrTuple], hierarchy: &mut Hierarchy) -> u64 {
        let mut skipped = 0;
        for t in tuples {
            match self.address_of(t) {
                Some(addr) => hierarchy.access_range(addr, u64::from(t.size)),
                None => skipped += 1,
            }
        }
        skipped
    }
}

/// Orders objects by their first access in the stream — profile-guided
/// placement in access order (the cache-conscious placement heuristic
/// of Calder et al., which the paper cites as a profile consumer).
#[must_use]
pub fn access_order(tuples: &[OrTuple]) -> Vec<ObjectKey> {
    let mut seen: BTreeSet<ObjectKey> = BTreeSet::new();
    let mut order = Vec::new();
    for t in tuples {
        let key = (t.group, t.object);
        if seen.insert(key) {
            order.push(key);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::Timestamp;
    use orp_trace::{AccessKind, InstrId};

    fn record(group: u32, serial: u64, base: u64, size: u64) -> ObjectRecord {
        ObjectRecord {
            group: GroupId(group),
            serial: ObjectSerial(serial),
            base,
            size,
            alloc_time: Timestamp(0),
            free_time: None,
        }
    }

    fn tuple(group: u32, object: u64, offset: u64, time: u64) -> OrTuple {
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
    fn original_plan_reproduces_recorded_addresses() {
        let objects = vec![record(0, 0, 0x1000, 16), record(0, 1, 0x2000, 16)];
        let plan = AppliedLayout::original(&objects);
        assert_eq!(plan.address_of(&tuple(0, 0, 8, 0)), Some(0x1008));
        assert_eq!(plan.address_of(&tuple(0, 1, 0, 1)), Some(0x2000));
        assert_eq!(plan.address_of(&tuple(0, 9, 0, 2)), None);
        assert_eq!(plan.placed(), 2);
    }

    #[test]
    fn packed_plan_is_contiguous_in_order() {
        let objects = vec![
            record(0, 0, 0x9990, 24),
            record(0, 1, 0x1230, 24),
            record(0, 2, 0x5550, 24),
        ];
        let order = vec![(GroupId(0), ObjectSerial(2)), (GroupId(0), ObjectSerial(0))];
        let plan = AppliedLayout::packed(&objects, &order, 0x100);
        assert_eq!(plan.address_of(&tuple(0, 2, 0, 0)), Some(0x100));
        assert_eq!(
            plan.address_of(&tuple(0, 0, 0, 1)),
            Some(0x118),
            "24 -> 24 aligned"
        );
        // Unordered object appended after.
        assert_eq!(plan.address_of(&tuple(0, 1, 0, 2)), Some(0x130));
    }

    #[test]
    fn field_order_compacts_hot_fields() {
        let objects = vec![record(0, 0, 0x1000, 64)];
        let mut plan = AppliedLayout::original(&objects);
        plan.set_field_order(GroupId(0), &[36, 0]);
        assert_eq!(plan.address_of(&tuple(0, 0, 36, 0)), Some(0x1000));
        assert_eq!(plan.address_of(&tuple(0, 0, 0, 1)), Some(0x1008));
        // Unmapped offsets keep their place.
        assert_eq!(plan.address_of(&tuple(0, 0, 48, 2)), Some(0x1030));
    }

    #[test]
    fn access_order_tracks_first_touch() {
        let tuples = vec![tuple(0, 5, 0, 0), tuple(0, 1, 0, 1), tuple(0, 5, 8, 2)];
        assert_eq!(
            access_order(&tuples),
            vec![(GroupId(0), ObjectSerial(5)), (GroupId(0), ObjectSerial(1))]
        );
    }

    #[test]
    fn from_placement_carries_bases_and_field_orders() {
        use orp_allocsim::{
            apply_plan, AllocatorKind, LinkerLayout, ObjectExtent, Segment, SimHeap,
        };
        use orp_opt::{LayoutPlan, Transform, TransformKind};

        let objects: Vec<ObjectExtent> = (0..4)
            .map(|k| ObjectExtent {
                group: GroupId(0),
                serial: ObjectSerial(k),
                size: 32,
                segment: Segment::Heap,
            })
            .collect();
        let plan = LayoutPlan::from_transforms(vec![
            Transform {
                kind: TransformKind::Colocate {
                    objects: vec![(GroupId(0), ObjectSerial(3)), (GroupId(0), ObjectSerial(1))],
                },
                advisor: "cluster".to_string(),
                benefit: 10,
            },
            Transform {
                kind: TransformKind::FieldReorder {
                    group: GroupId(0),
                    order: vec![24, 0],
                },
                advisor: "field-reorder".to_string(),
                benefit: 5,
            },
        ]);
        let mut heap = SimHeap::new(AllocatorKind::Bump, 0);
        let mut linker = LinkerLayout::new(0);
        let placement = apply_plan(&plan, &objects, &mut heap, &mut linker).unwrap();
        let layout = AppliedLayout::from_placement(&placement, &objects, &plan);

        assert_eq!(layout.placed(), 4);
        // Bases agree with the placement; the colocated pair is dense.
        let b3 = placement.address_of((GroupId(0), ObjectSerial(3))).unwrap();
        let b1 = placement.address_of((GroupId(0), ObjectSerial(1))).unwrap();
        assert_eq!(b1, b3 + 32);
        // Hot field 24 is remapped to the front; base comes from the plan.
        assert_eq!(layout.address_of(&tuple(0, 3, 24, 0)), Some(b3));
        assert_eq!(layout.address_of(&tuple(0, 3, 0, 1)), Some(b3 + 8));
    }

    #[test]
    fn packed_traversal_layout_beats_scattered_layout() {
        // 256 16-byte objects scattered 4 KiB apart, each visited once
        // per pass: scattered layout misses every line, packed layout
        // shares lines 4:1.
        use crate::{CacheConfig, Hierarchy};
        let objects: Vec<ObjectRecord> = (0..256)
            .map(|k| record(0, k, 0x10_0000 + k * 4096, 16))
            .collect();
        let mut tuples = Vec::new();
        let mut time = 0;
        for _ in 0..4 {
            for k in 0..256 {
                tuples.push(tuple(0, k, 0, time));
                time += 1;
            }
        }
        let tiny = || {
            Hierarchy::new(
                CacheConfig {
                    sets: 16,
                    ways: 2,
                    line_bytes: 64,
                },
                CacheConfig {
                    sets: 64,
                    ways: 4,
                    line_bytes: 64,
                },
            )
        };

        let mut scattered_cache = tiny();
        let skipped = AppliedLayout::original(&objects).replay(&tuples, &mut scattered_cache);
        assert_eq!(skipped, 0);

        let mut packed_cache = tiny();
        let order = access_order(&tuples);
        AppliedLayout::packed(&objects, &order, 0x100).replay(&tuples, &mut packed_cache);

        let (s, p) = (
            scattered_cache.stats().l1.misses,
            packed_cache.stats().l1.misses,
        );
        assert!(p * 3 < s, "packed {p} misses vs scattered {s}");
    }
}
