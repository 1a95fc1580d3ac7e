//! WHOMP: the lossless whole-stream memory profiler.
//!
//! WHOMP records the *entire* object-relative access stream of a run.
//! Following the paper's Section 3, the separation-and-compression
//! component horizontally decomposes the stream into its four
//! dimensions — instruction, group, object, offset — and feeds each to
//! its own Sequitur compressor. The result is the **object-relative
//! multi-dimensional Sequitur grammar** ([`Omsg`]): lossless (each
//! dimension expands back exactly), more compact than a raw-address
//! grammar, and directly useful per dimension (the offset grammar for
//! field reordering, the object grammar for clustering, …).
//!
//! The baseline it is evaluated against (Figure 5) is the conventional
//! **raw-address Sequitur grammar** ([`Rasg`]): Sequitur over the
//! classic trace representation, a stream of `(instruction, address)`
//! records compressed as fused symbols (the record shape used by the
//! raw-address profilers the paper cites). The comparison therefore
//! isolates the paper's claim: decomposing into object-relative
//! dimensions exposes regularity that the fused raw records hide —
//! novelty in one dimension (a data-dependent address, say) no longer
//! poisons the perfectly regular instruction/group/offset context
//! around it.
//!
//! # Examples
//!
//! ```
//! use orp_core::{Cdc, Omc};
//! use orp_trace::ProbeSink;
//! use orp_whomp::WhompProfiler;
//! use orp_workloads::{micro, RunConfig, Workload};
//!
//! let mut cdc = Cdc::new(Omc::new(), WhompProfiler::new());
//! micro::LinkedList::new(64, 8).run_with(&RunConfig::default(), &mut cdc);
//! let omsg = cdc.into_parts().1.into_omsg();
//! assert!(omsg.total_size() < omsg.tuples());       // it compressed
//! assert_eq!(omsg.offset.expanded_len(), omsg.tuples()); // losslessly
//! ```

#![forbid(unsafe_code)]

mod hybrid;
mod io;
mod pipeline;
mod session;

pub use hybrid::{HybridProfile, HybridProfiler, InstrGrammars};

use std::cell::RefCell;

use orp_core::{OrSink, OrTuple};
use orp_sequitur::{Grammar, Sequitur};
use orp_trace::{AccessEvent, ProbeSink};

use pipeline::{GrammarPipelineStats, Streams};

/// The lossless object-relative profiler: one Sequitur compressor per
/// horizontal dimension, built concurrently.
///
/// The instruction, group and object grammars grow on one grammar
/// worker per spare core (at most three); the collection thread grows
/// the offset grammar, and on a 1-core host all four. Every grammar
/// read — [`OrSink::finish`], [`WhompProfiler::total_size`], the
/// metrics, checkpoints, finalization — first drains the workers, so
/// the output is byte-identical to inline construction (DESIGN.md §13).
/// A dead worker makes the infallible reads panic and `save_state` /
/// `finalize_profile` fail, naming the worker's dimensions.
///
/// Implements [`OrSink`], so it plugs directly behind a
/// [`Cdc`](orp_core::Cdc).
#[derive(Debug)]
pub struct WhompProfiler {
    /// Behind a `RefCell` because the `&self` reads must drain the
    /// workers, which flushes the column batches.
    dims: RefCell<Streams>,
    tuples: u64,
}

impl Default for WhompProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl WhompProfiler {
    /// Creates an empty profiler, spawning its grammar workers.
    #[must_use]
    pub fn new() -> Self {
        Self::from_grammars(Default::default(), 0)
    }

    /// Continues four in-progress grammars (in dimension order) that
    /// have consumed `tuples` tuples.
    pub(crate) fn from_grammars(grammars: [Sequitur; 4], tuples: u64) -> Self {
        WhompProfiler {
            dims: RefCell::new(Streams::dimensions(grammars)),
            tuples,
        }
    }

    /// Number of tuples consumed so far.
    #[must_use]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Runs `f` over the four grammars behind the drain barrier.
    fn drained<R>(&self, f: impl FnOnce([&Sequitur; 4], &GrammarPipelineStats) -> R) -> R {
        self.try_drained(f).unwrap_or_else(|e| panic!("{e}"))
    }

    pub(crate) fn try_drained<R>(
        &self,
        f: impl FnOnce([&Sequitur; 4], &GrammarPipelineStats) -> R,
    ) -> std::io::Result<R> {
        self.dims
            .borrow_mut()
            .lend_grammars(f)
            .map_err(std::io::Error::other)
    }

    /// Current total grammar size across the four dimensions.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.drained(|g, _| g.iter().map(|s| s.size()).sum())
    }

    /// Publishes the profiler's growth counters onto `rec`. Call at a
    /// phase boundary — the tuple path only bumps plain integers.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        self.drained(|[instr, group, object, offset], _| {
            rec.counter("whomp.tuples", self.tuples);
            rec.counter(
                "whomp.grammar_symbols",
                instr.size() + group.size() + object.size() + offset.size(),
            );
            rec.counter("whomp.grammar_symbols.instruction", instr.size());
            rec.counter("whomp.grammar_symbols.group", group.size());
            rec.counter("whomp.grammar_symbols.object", object.size());
            rec.counter("whomp.grammar_symbols.offset", offset.size());
        });
    }

    /// Publishes the grammar stage onto `rec`: live rules and
    /// right-hand-side symbols per dimension, plus the concurrent
    /// construction totals (`grammar.workers` and per-dimension
    /// batches, stalls and busy time — the offset dimension's busy time
    /// is spent on the collection thread).
    pub fn record_grammar_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        self.drained(|[instr, group, object, offset], stats| {
            rec.counter("grammar.rules.instruction", instr.rule_count() as u64);
            rec.counter("grammar.rules.group", group.rule_count() as u64);
            rec.counter("grammar.rules.object", object.rule_count() as u64);
            rec.counter("grammar.rules.offset", offset.rule_count() as u64);
            rec.counter("grammar.symbols.instruction", instr.size());
            rec.counter("grammar.symbols.group", group.size());
            rec.counter("grammar.symbols.object", object.size());
            rec.counter("grammar.symbols.offset", offset.size());
            stats.record_metrics(rec);
        });
    }

    /// Finalizes the profile into an [`Omsg`].
    #[must_use]
    pub fn into_omsg(self) -> Omsg {
        self.try_into_omsg().unwrap_or_else(|e| panic!("{e}"))
    }

    pub(crate) fn try_into_omsg(self) -> std::io::Result<Omsg> {
        let [instr, group, object, offset] = self
            .dims
            .into_inner()
            .into_grammars()
            .map_err(std::io::Error::other)?;
        Ok(Omsg {
            instr: instr.grammar(),
            group: group.grammar(),
            object: object.grammar(),
            offset: offset.grammar(),
            tuples: self.tuples,
        })
    }
}

impl OrSink for WhompProfiler {
    #[inline]
    fn tuple(&mut self, t: &OrTuple) {
        self.dims.get_mut().push([
            u64::from(t.instr.0),
            u64::from(t.group.0),
            t.object.0,
            t.offset,
        ]);
        self.tuples += 1;
    }

    /// Drains the workers. A worker death is kept and reported by the
    /// next read.
    fn finish(&mut self) {
        let _ = self.dims.get_mut().lend_grammars(|_, _| ());
    }
}

/// The object-relative multi-dimensional Sequitur grammar: WHOMP's
/// output, one grammar per horizontal dimension.
#[derive(Debug, Clone)]
pub struct Omsg {
    /// Grammar of the instruction-id stream.
    pub instr: Grammar,
    /// Grammar of the group stream.
    pub group: Grammar,
    /// Grammar of the object-serial stream.
    pub object: Grammar,
    /// Grammar of the offset stream.
    pub offset: Grammar,
    tuples: u64,
}

impl Omsg {
    /// Rebuilds a profile from its parts (used by deserialization).
    #[must_use]
    pub fn from_parts(
        instr: Grammar,
        group: Grammar,
        object: Grammar,
        offset: Grammar,
        tuples: u64,
    ) -> Self {
        Omsg {
            instr,
            group,
            object,
            offset,
            tuples,
        }
    }

    /// Number of accesses the profile covers.
    #[must_use]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Total grammar size (right-hand-side symbols across all four
    /// grammars) — the Figure 5 metric.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.instr.size() + self.group.size() + self.object.size() + self.offset.size()
    }

    /// Serialized size in bytes under the shared symbol cost model.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.instr.encoded_bytes()
            + self.group.encoded_bytes()
            + self.object.encoded_bytes()
            + self.offset.encoded_bytes()
    }

    /// The per-dimension grammars as `(name, grammar)` pairs.
    #[must_use]
    pub fn dimensions(&self) -> [(&'static str, &Grammar); 4] {
        [
            ("instruction", &self.instr),
            ("group", &self.group),
            ("object", &self.object),
            ("offset", &self.offset),
        ]
    }

    /// Publishes the finished profile's shape onto `rec`: totals plus
    /// per-dimension rule and symbol counts.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("omsg.tuples", self.tuples);
        rec.counter("omsg.grammar_symbols", self.total_size());
        rec.counter("omsg.encoded_bytes", self.encoded_bytes());
        for (_, grammar) in self.dimensions() {
            rec.observe("omsg.rules_per_dimension", grammar.rule_count() as u64);
            rec.observe("omsg.symbols_per_dimension", grammar.size());
        }
        rec.counter("omsg.rules.instruction", self.instr.rule_count() as u64);
        rec.counter("omsg.rules.group", self.group.rule_count() as u64);
        rec.counter("omsg.rules.object", self.object.rule_count() as u64);
        rec.counter("omsg.rules.offset", self.offset.rule_count() as u64);
    }

    /// Expands all four grammars and re-zips them into the original
    /// `(instr, group, object, offset)` quadruples — the lossless
    /// round-trip.
    #[must_use]
    pub fn expand(&self) -> Vec<(u64, u64, u64, u64)> {
        let i = self.instr.expand();
        let g = self.group.expand();
        let o = self.object.expand();
        let f = self.offset.expand();
        assert!(
            i.len() == g.len() && g.len() == o.len() && o.len() == f.len(),
            "dimension streams must be aligned"
        );
        i.into_iter()
            .zip(g)
            .zip(o)
            .zip(f)
            .map(|(((i, g), o), f)| (i, g, o, f))
            .collect()
    }
}

/// The raw-address baseline profiler: Sequitur over the stream of
/// `(instruction, address)` trace records, each fused into one symbol.
///
/// Implements [`ProbeSink`] directly — no object translation is
/// involved, exactly like pre-object-relative profilers.
#[derive(Debug, Clone, Default)]
pub struct RasgProfiler {
    records: Sequitur,
    accesses: u64,
}

/// Fuses an `(instruction, address)` record into one Sequitur symbol.
///
/// The simulated address space stays below 2⁴⁷ and instruction ids
/// below 2¹⁶, so the fusion is collision-free.
fn fuse(instr: u32, addr: u64) -> u64 {
    debug_assert!(addr < 1 << 48, "address exceeds the fused-symbol space");
    debug_assert!(
        instr < 1 << 16,
        "instruction id exceeds the fused-symbol space"
    );
    (u64::from(instr) << 48) | addr
}

impl RasgProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accesses consumed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Current grammar size of the record stream.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.records.size()
    }

    /// Publishes the baseline profiler's growth counters onto `rec`.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("rasg.accesses", self.accesses);
        rec.counter("rasg.grammar_symbols", self.total_size());
    }

    /// Publishes the grammar stage's shape (`grammar.*`) onto `rec` —
    /// the RASG baseline has a single record stream.
    pub fn record_grammar_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("grammar.rules.records", self.records.rule_count() as u64);
        rec.counter("grammar.symbols.records", self.records.size());
    }

    /// Finalizes the profile into a [`Rasg`].
    #[must_use]
    pub fn into_rasg(self) -> Rasg {
        Rasg {
            records: self.records.grammar(),
            accesses: self.accesses,
        }
    }
}

impl ProbeSink for RasgProfiler {
    fn access(&mut self, ev: AccessEvent) {
        self.records.push(fuse(ev.instr.0, ev.addr.0));
        self.accesses += 1;
    }
}

/// The conventional raw-address Sequitur grammar: the Figure 5 baseline.
#[derive(Debug, Clone)]
pub struct Rasg {
    /// Grammar of the fused `(instruction, address)` record stream.
    pub records: Grammar,
    accesses: u64,
}

impl Rasg {
    /// Rebuilds a profile from its parts (used by deserialization).
    #[must_use]
    pub fn from_parts(records: Grammar, accesses: u64) -> Self {
        Rasg { records, accesses }
    }

    /// Number of accesses the profile covers.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total grammar size (the Figure 5 metric's denominator).
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.records.size()
    }

    /// Serialized size in bytes under the shared symbol cost model.
    ///
    /// Fused record symbols carry 12 bytes of payload (4 of instruction
    /// id, 8 of address) against the 4 bytes of a decomposed dimension
    /// symbol; using the same per-symbol cost for both sides is
    /// *generous to the baseline*.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.records.encoded_bytes()
    }

    /// Publishes the finished baseline profile's shape onto `rec`.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("rasg.accesses", self.accesses);
        rec.counter("rasg.grammar_symbols", self.total_size());
        rec.counter("rasg.rules", self.records.rule_count() as u64);
        rec.counter("rasg.encoded_bytes", self.encoded_bytes());
    }
}

/// Figure 5's y-axis: the percentage by which the OMSG profile is
/// smaller than the RASG profile on disk, with RASG as the base
/// (`(1 - omsg/rasg) · 100`).
///
/// Positive means object-relativity compressed better. Both profiles
/// are costed with the same varint serialization; decomposition wins
/// through grammar structure *and* through its small-integer symbol
/// alphabets (offsets, serials, group ids) against the baseline's wide
/// fused raw-address records. Zero-size RASGs (empty traces) yield 0.
#[must_use]
pub fn compression_gain_percent(omsg: &Omsg, rasg: &Rasg) -> f64 {
    let rasg_bytes = rasg.encoded_bytes();
    if rasg.accesses() == 0 || rasg_bytes == 0 {
        return 0.0;
    }
    (1.0 - omsg.encoded_bytes() as f64 / rasg_bytes as f64) * 100.0
}

/// The same comparison on grammar *symbol counts* (structure only,
/// ignoring symbol width). Reported alongside the byte gain so the two
/// effects can be separated.
#[must_use]
pub fn symbol_gain_percent(omsg: &Omsg, rasg: &Rasg) -> f64 {
    let rasg_size = rasg.total_size();
    if rasg.accesses() == 0 || rasg_size == 0 {
        return 0.0;
    }
    (1.0 - omsg.total_size() as f64 / rasg_size as f64) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::{Cdc, Omc};
    use orp_trace::{AllocEvent, AllocSiteId, InstrId, RawAddress};

    /// Feeds a churn-free linked-list-like trace: two instructions
    /// alternating over `n` nodes, repeated `passes` times.
    fn list_trace(n: u64, passes: u64) -> (Omsg, Rasg) {
        let mut whomp = Cdc::new(Omc::new(), WhompProfiler::new());
        let mut rasg = RasgProfiler::new();
        let site = AllocSiteId(0);
        // Scattered raw addresses (stride 48 with a jitter pattern).
        let bases: Vec<u64> = (0..n).map(|k| 0x1000 + k * 48 + (k % 3) * 16).collect();
        for &b in &bases {
            whomp.alloc(AllocEvent {
                site,
                base: RawAddress(b),
                size: 16,
            });
        }
        for _ in 0..passes {
            for &b in &bases {
                for (instr, off) in [(0u32, 0u64), (1, 8)] {
                    let ev = AccessEvent::load(InstrId(instr), RawAddress(b + off), 8);
                    whomp.access(ev);
                    rasg.access(ev);
                }
            }
        }
        (whomp.into_parts().1.into_omsg(), rasg.into_rasg())
    }

    #[test]
    fn omsg_round_trips_losslessly() {
        let (omsg, _) = list_trace(16, 3);
        let quads = omsg.expand();
        assert_eq!(quads.len() as u64, omsg.tuples());
        // First pass: objects in order, offsets alternating 0/8.
        assert_eq!(quads[0], (0, 0, 0, 0));
        assert_eq!(quads[1], (1, 0, 0, 8));
        assert_eq!(quads[2], (0, 0, 1, 0));
    }

    #[test]
    fn omsg_compresses_repeated_traversals() {
        let (omsg, _) = list_trace(64, 10);
        assert!(
            omsg.total_size() < omsg.tuples() / 2,
            "10 identical traversals must compress well: size {} for {} tuples",
            omsg.total_size(),
            omsg.tuples()
        );
    }

    #[test]
    fn omsg_beats_rasg_when_novelty_is_dimension_local() {
        // A regular node walk interleaved with a data-dependent table
        // probe: in the fused record stream every probe is a novel
        // symbol that breaks the repetition around it; decomposed, the
        // novelty is confined to the offset dimension while instruction,
        // group and object streams stay perfectly regular.
        let mut whomp = Cdc::new(Omc::new(), WhompProfiler::new());
        let mut rasg = RasgProfiler::new();
        let node_site = AllocSiteId(0);
        let table_site = AllocSiteId(1);
        let table_base = 0x8000u64;
        whomp.alloc(AllocEvent {
            site: table_site,
            base: RawAddress(table_base),
            size: 1 << 20,
        });
        let bases: Vec<u64> = (0..64u64).map(|k| 0x100000 + k * 48).collect();
        for &b in &bases {
            whomp.alloc(AllocEvent {
                site: node_site,
                base: RawAddress(b),
                size: 16,
            });
        }
        // Deterministic pseudo-random probe offsets (xorshift).
        let mut x = 0x9E37_79B9u64;
        for _ in 0..10 {
            for &b in &bases {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let probe = table_base + (x % (1 << 17)) * 8;
                for ev in [
                    AccessEvent::load(InstrId(0), RawAddress(b), 8),
                    AccessEvent::load(InstrId(1), RawAddress(b + 8), 8),
                    AccessEvent::load(InstrId(2), RawAddress(probe), 8),
                ] {
                    whomp.access(ev);
                    rasg.access(ev);
                }
            }
        }
        let omsg = whomp.into_parts().1.into_omsg();
        let rasg = rasg.into_rasg();
        assert_eq!(omsg.tuples(), rasg.accesses());
        let gain = compression_gain_percent(&omsg, &rasg);
        assert!(
            gain > 10.0,
            "expected OMSG to win clearly, gain = {gain:.1}%"
        );
        // Structure-only comparison exists too (sign may differ).
        let _ = symbol_gain_percent(&omsg, &rasg);
    }

    #[test]
    fn dimension_accessors_are_consistent() {
        let (omsg, rasg) = list_trace(8, 2);
        let total: u64 = omsg.dimensions().iter().map(|(_, g)| g.size()).sum();
        assert_eq!(total, omsg.total_size());
        assert!(omsg.encoded_bytes() > 0);
        assert!(rasg.encoded_bytes() > 0);
        assert_eq!(rasg.total_size(), rasg.records.size());
    }

    #[test]
    fn empty_profiles_are_well_behaved() {
        let omsg = WhompProfiler::new().into_omsg();
        let rasg = RasgProfiler::new().into_rasg();
        assert_eq!(omsg.total_size(), 0);
        assert_eq!(omsg.expand().len(), 0);
        assert_eq!(compression_gain_percent(&omsg, &rasg), 0.0);
    }

    /// A profiler on `workers` grammar workers, whatever the host.
    fn on_workers(workers: usize) -> WhompProfiler {
        WhompProfiler {
            dims: RefCell::new(Streams::dimensions_on(Default::default(), workers)),
            tuples: 0,
        }
    }

    fn tuple(k: u64) -> OrTuple {
        OrTuple {
            instr: InstrId((k % 7) as u32),
            kind: orp_trace::AccessKind::Load,
            group: orp_core::GroupId((k % 3) as u32),
            object: orp_core::ObjectSerial(k % 11),
            offset: (k % 5) * 8,
            time: orp_core::Timestamp(k),
            size: 8,
        }
    }

    /// Every worker count builds what all-local construction builds,
    /// read mid-batch and at the end (all-local against inline
    /// construction is `pipeline_differential`'s job).
    #[test]
    fn every_worker_count_builds_the_same_grammars() {
        use orp_core::SessionSink;
        let state = |workers: usize, tuples: u64| {
            let mut p = on_workers(workers);
            for k in 0..tuples {
                p.tuple(&tuple(k));
            }
            let mut state = Vec::new();
            p.save_state(&mut state).unwrap();
            state
        };
        for workers in 1..=4 {
            for tuples in [1234, 3000] {
                assert_eq!(
                    state(workers, tuples),
                    state(0, tuples),
                    "{workers} workers"
                );
            }
        }
    }

    /// A panicking grammar worker surfaces as an error naming its
    /// dimensions at the next drain and every later one, and feeding
    /// after its death never blocks.
    #[test]
    fn dead_worker_surfaces_as_a_named_error_at_the_next_drain() {
        use orp_core::SessionSink;
        for (workers, named) in [
            (1, "grammar worker 0 (instruction, group, object)"),
            (3, "grammar worker 2 (object)"),
        ] {
            let mut p = on_workers(workers);
            for k in 0..1000 {
                p.tuple(&tuple(k));
            }
            p.dims.get_mut().inject_worker_panic(2);
            // Far more batches than the dead worker's queue holds.
            for k in 0..100_000 {
                p.tuple(&tuple(k));
            }
            let err = p.save_state(&mut Vec::new()).expect_err("dead worker");
            let msg = err.to_string();
            assert!(msg.contains(named), "{msg}");
            assert!(msg.contains("does not own its stream"), "{msg}");
            p.finish();
            let err = p.finalize_profile(&mut Vec::new()).expect_err("still dead");
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn profiler_running_size_matches_final() {
        let mut p = WhompProfiler::new();
        for k in 0..100 {
            p.tuple(&tuple(k));
        }
        let running = p.total_size();
        assert_eq!(running, p.into_omsg().total_size());
    }
}
