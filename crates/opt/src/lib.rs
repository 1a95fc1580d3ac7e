//! Feedback-directed memory optimization advisers.
//!
//! The CGO 2004 paper motivates object-relative profiling by the
//! optimizations its profiles feed (§3.2): "the offset-level grammar
//! can be used for optimizations like field-reordering … the
//! object-level grammar for object clustering or global variable
//! re-mapping … hot data stream prefetching". This crate implements
//! those three profile consumers:
//!
//! * [`field_reorder`] — per-group field-affinity analysis suggesting
//!   struct layouts that put temporally adjacent fields on the same
//!   cache line (the paper's `(0, 36)*` example);
//! * [`cluster`] — per-group object-affinity analysis suggesting which
//!   objects to co-allocate (cache-conscious clustering);
//! * [`remap`] — cross-group whole-object affinity for global-variable
//!   re-mapping (placing co-used statics adjacently);
//! * [`hot_streams`] — extraction of *hot data streams* (frequently
//!   repeated access subsequences) straight from a WHOMP grammar: a
//!   Sequitur rule's dynamic frequency times its expansion length is
//!   its prefetch value, following Chilimbi-style stream prefetching.
//!
//! All of them consume the object-relative stream (or WHOMP's lossless
//! grammars, which expand back to it); none of them would work on raw
//! addresses, where field offsets and object identities are fused into
//! meaningless absolutes — which is the paper's point.
//!
//! Since the pipeline refactor the analyses are no longer endpoints:
//! each implements [`LayoutAdvisor`] and emits typed, scored
//! [`Transform`]s into a shared [`LayoutPlan`] IR ([`plan`]), which
//! serializes as a CRC-checked `PLAN` chunk ([`io`]), is applied by
//! `orp-allocsim`, and is measured by `orp-cache` — the full
//! profile → advise → plan → apply → re-simulate → report loop.
//! [`tier`] adds the fourth adviser: OBASE-style hot/cold object
//! tiering fed by [`hot_streams`].

#![forbid(unsafe_code)]

pub mod advisor;
pub mod cluster;
pub mod field_reorder;
pub mod hot_streams;
pub mod io;
pub mod plan;
pub mod remap;
pub mod tier;

pub use advisor::{AdvisorSet, LayoutAdvisor, DEFAULT_CLUSTER_OBJECTS};
pub use cluster::ClusterAnalysis;
pub use field_reorder::FieldReorderAnalysis;
pub use hot_streams::{hot_streams, HotStream};
pub use plan::{LayoutPlan, ObjectKey, Transform, TransformKind};
pub use remap::RemapAnalysis;
pub use tier::TieringAdvisor;

/// Hash containers for the advisers' counters: keyed by
/// profiler-internal ids and updated once per tuple, so they use the
/// fast non-keyed hasher instead of SipHash.
type FxMap<K, V> = std::collections::HashMap<K, V, orp_sequitur::FxBuildHasher>;
type FxSet<T> = std::collections::HashSet<T, orp_sequitur::FxBuildHasher>;
