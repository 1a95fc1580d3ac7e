//! Property test: `AppliedLayout`'s dense per-group tables agree with
//! a reference that keeps the layout in plain `HashMap`s — object key
//! to base, group to offset remap — on arbitrary layouts and streams:
//! unplaced objects, repeated keys, field reorders with repeated and
//! unlisted offsets, and accesses that straddle cache lines.

use std::collections::{BTreeSet, HashMap};

use orp_cache::layout::{AppliedLayout, ObjectKey};
use orp_cache::{CacheConfig, Hierarchy};
use orp_core::{GroupId, ObjectRecord, ObjectSerial, OrTuple, Timestamp};
use orp_trace::{AccessKind, InstrId};
use proptest::prelude::*;

/// The layout as plain hash maps, replayed one lookup at a time.
#[derive(Default)]
struct Reference {
    bases: HashMap<ObjectKey, u64>,
    field_maps: HashMap<GroupId, HashMap<u64, u64>>,
}

impl Reference {
    fn original(objects: &[ObjectRecord]) -> Self {
        let mut layout = Reference::default();
        for o in objects {
            layout.bases.insert((o.group, o.serial), o.base);
        }
        layout
    }

    fn packed(objects: &[ObjectRecord], order: &[ObjectKey], base: u64) -> Self {
        let mut layout = Reference::default();
        let sizes: HashMap<ObjectKey, u64> = objects
            .iter()
            .map(|o| ((o.group, o.serial), o.size))
            .collect();
        let mut cursor = base;
        let mut placed: BTreeSet<ObjectKey> = BTreeSet::new();
        let keys = order
            .iter()
            .copied()
            .chain(objects.iter().map(|o| (o.group, o.serial)));
        for key in keys {
            if placed.contains(&key) {
                continue;
            }
            let Some(&size) = sizes.get(&key) else {
                continue;
            };
            layout.bases.insert(key, cursor);
            cursor += size.max(1).div_ceil(8) * 8;
            placed.insert(key);
        }
        layout
    }

    fn set_field_order(&mut self, group: GroupId, hot_order: &[u64]) {
        let map: HashMap<u64, u64> = hot_order
            .iter()
            .enumerate()
            .map(|(i, &off)| (off, i as u64 * 8))
            .collect();
        self.field_maps.insert(group, map);
    }

    fn address_of(&self, t: &OrTuple) -> Option<u64> {
        let base = *self.bases.get(&(t.group, t.object))?;
        let offset = self
            .field_maps
            .get(&t.group)
            .and_then(|m| m.get(&t.offset).copied())
            .unwrap_or(t.offset);
        Some(base + offset)
    }

    fn replay(&self, tuples: &[OrTuple], hierarchy: &mut Hierarchy) -> u64 {
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

fn key(group: u32, serial: u64) -> ObjectKey {
    (GroupId(group), ObjectSerial(serial))
}

/// Objects over three groups with serials below 12 (repeats allowed);
/// tuples reach group 3 and serials up to 13, so some are unplaced.
fn records() -> impl Strategy<Value = Vec<ObjectRecord>> {
    proptest::collection::vec((0u32..3, 0u64..12, 0u64..1 << 20, 1u64..160), 0..40).prop_map(
        |objs| {
            objs.into_iter()
                .map(|(group, serial, base, size)| ObjectRecord {
                    group: GroupId(group),
                    serial: ObjectSerial(serial),
                    base: base * 4,
                    size,
                    alloc_time: Timestamp(0),
                    free_time: None,
                })
                .collect()
        },
    )
}

/// Offsets on the small grid hot orders are drawn from, so hot orders
/// often repeat an offset and tuples often hit a remapped one.
fn grid_offset() -> impl Strategy<Value = u64> {
    (0u64..12).prop_map(|o| o * 12)
}

fn tuples() -> impl Strategy<Value = Vec<OrTuple>> {
    let offset = prop_oneof![grid_offset(), 0u64..136];
    proptest::collection::vec((0u32..4, 0u64..14, offset, 1u8..24), 0..400).prop_map(|ts| {
        ts.into_iter()
            .enumerate()
            .map(|(i, (group, object, offset, size))| OrTuple {
                instr: InstrId(0),
                kind: AccessKind::Load,
                group: GroupId(group),
                object: ObjectSerial(object),
                offset,
                time: Timestamp(i as u64),
                size,
            })
            .collect()
    })
}

/// Field reorders applied in sequence (a later one for the same group
/// replaces the earlier); hot offsets may repeat or be absent from the
/// stream.
fn field_orders() -> impl Strategy<Value = Vec<(u32, Vec<u64>)>> {
    proptest::collection::vec(
        (0u32..4, proptest::collection::vec(grid_offset(), 0..10)),
        0..4,
    )
}

fn tiny_hierarchy() -> Hierarchy {
    Hierarchy::new(
        CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
        },
        CacheConfig {
            sets: 8,
            ways: 4,
            line_bytes: 64,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_matches_the_hash_map_reference(
        objects in records(),
        packed in any::<bool>(),
        order in proptest::collection::vec((0u32..4, 0u64..14), 0..32),
        orders in field_orders(),
        stream in tuples(),
    ) {
        let order: Vec<ObjectKey> = order.into_iter().map(|(g, s)| key(g, s)).collect();
        let (mut layout, mut reference) = if packed {
            (
                AppliedLayout::packed(&objects, &order, 0x1000),
                Reference::packed(&objects, &order, 0x1000),
            )
        } else {
            (AppliedLayout::original(&objects), Reference::original(&objects))
        };
        for (group, hot) in &orders {
            layout.set_field_order(GroupId(*group), hot);
            reference.set_field_order(GroupId(*group), hot);
        }

        prop_assert_eq!(layout.placed(), reference.bases.len());
        for t in &stream {
            prop_assert_eq!(layout.address_of(t), reference.address_of(t), "tuple {:?}", t);
        }
        let (mut got, mut want) = (tiny_hierarchy(), tiny_hierarchy());
        let skipped = layout.replay(&stream, &mut got);
        prop_assert_eq!(skipped, reference.replay(&stream, &mut want));
        prop_assert_eq!(got.stats(), want.stats());
    }
}
