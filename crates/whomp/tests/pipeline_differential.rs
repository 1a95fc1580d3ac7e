//! Differential tests: the concurrent WHOMP profiler must produce
//! byte-identical output to sequential construction — container bytes,
//! checkpoint state, and across a checkpoint/resume. The WHOMP
//! reference is four bare Sequiturs fed tuple by tuple, the inline
//! path the default `WhompProfiler` replaced.

use orp_core::{
    Cdc, GroupId, ObjectSerial, Omc, OrSink, OrTuple, SessionSink, Timestamp, VecOrSink,
};
use orp_format::write_varint;
use orp_obs::StatsRecorder;
use orp_sequitur::Sequitur;
use orp_trace::{
    AccessEvent, AccessKind, AllocEvent, AllocSiteId, InstrId, ProbeEvent, ProbeSink, RawAddress,
};
use orp_whomp::{Omsg, WhompProfiler};
use proptest::prelude::*;

/// A probe script long enough to cross many 512-tuple batch boundaries,
/// with repetitive structure the grammars actually compress.
fn probe_events() -> Vec<ProbeEvent> {
    let mut events = Vec::new();
    for k in 0..64u64 {
        events.push(ProbeEvent::Alloc(AllocEvent {
            site: AllocSiteId((k % 4) as u32),
            base: RawAddress(0x8000 + k * 256),
            size: 192,
        }));
    }
    for p in 0..400u64 {
        for k in 0..64u64 {
            events.push(ProbeEvent::Access(AccessEvent::load(
                InstrId(((k + p) % 9) as u32),
                RawAddress(0x8000 + k * 256 + 8 * (p % 24)),
                8,
            )));
        }
    }
    events
}

fn drive(sink: &mut impl ProbeSink, events: &[ProbeEvent]) {
    for &ev in events {
        sink.event(ev);
    }
    sink.finish();
}

/// The four dimension grammars built inline, tuple by tuple.
fn inline_grammars(tuples: &[OrTuple]) -> [Sequitur; 4] {
    let mut dims: [Sequitur; 4] = Default::default();
    for t in tuples {
        dims[0].push(u64::from(t.instr.0));
        dims[1].push(u64::from(t.group.0));
        dims[2].push(t.object.0);
        dims[3].push(t.offset);
    }
    dims
}

/// `WhompProfiler::save_state`'s layout over inline grammars.
fn inline_state(tuples: &[OrTuple]) -> Vec<u8> {
    let mut state = Vec::new();
    write_varint(&mut state, tuples.len() as u64).unwrap();
    for seq in inline_grammars(tuples) {
        seq.save_state(&mut state).unwrap();
    }
    state
}

/// The OMSG container of inline grammars.
fn inline_omsg(tuples: &[OrTuple]) -> Vec<u8> {
    let [instr, group, object, offset] = inline_grammars(tuples);
    let omsg = Omsg::from_parts(
        instr.grammar(),
        group.grammar(),
        object.grammar(),
        offset.grammar(),
        tuples.len() as u64,
    );
    let mut bytes = Vec::new();
    omsg.write_to(&mut bytes).unwrap();
    bytes
}

fn collected_tuples(events: &[ProbeEvent]) -> Vec<OrTuple> {
    let mut cdc = Cdc::new(Omc::new(), VecOrSink::new());
    drive(&mut cdc, events);
    cdc.into_parts().1.into_tuples()
}

#[test]
fn default_whomp_omsg_bytes_match_inline_sequiturs() {
    let events = probe_events();
    let reference = inline_omsg(&collected_tuples(&events));

    let mut cdc = Cdc::new(Omc::new(), WhompProfiler::new());
    drive(&mut cdc, &events);
    let profiler = cdc.into_parts().1;
    let mut rec = StatsRecorder::default();
    profiler.record_grammar_metrics(&mut rec);
    let mut produced = Vec::new();
    profiler.finalize_profile(&mut produced).unwrap();
    assert_eq!(produced, reference);

    // Every dimension reports its batches, the offset dimension
    // included (it grows on the collection thread).
    for dim in ["instruction", "group", "object", "offset"] {
        let batches = rec.counter_value(&format!("grammar.batches.{dim}"));
        assert_eq!(batches, 50, "25 600 tuples in 512-tuple batches ({dim})");
    }
    assert!(rec.counters().contains_key("grammar.workers"));
}

fn arb_tuple_parts() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    (0u8..8, 0u8..3, 0u8..10, 0u8..6)
}

fn stream(parts: &[(u8, u8, u8, u8)]) -> Vec<OrTuple> {
    parts
        .iter()
        .enumerate()
        .map(|(t, &(instr, group, object, offset))| OrTuple {
            instr: InstrId(u32::from(instr)),
            kind: AccessKind::Load,
            group: GroupId(u32::from(group)),
            object: ObjectSerial(u64::from(object)),
            offset: u64::from(offset) * 4,
            time: Timestamp(t as u64),
            size: 4,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary tuple streams, read mid-stream and at the end: the
    /// default profiler's full internal state (not just the finished
    /// grammar) must match inline construction byte for byte.
    #[test]
    fn default_whomp_state_matches_inline_on_arbitrary_streams(
        parts in proptest::collection::vec(arb_tuple_parts(), 0..1500),
        cut in 0usize..1500,
    ) {
        let tuples = stream(&parts);
        let cut = cut.min(tuples.len());

        let mut profiler = WhompProfiler::new();
        for t in &tuples[..cut] {
            profiler.tuple(t);
        }
        let mut mid = Vec::new();
        profiler.save_state(&mut mid).unwrap();
        prop_assert_eq!(mid, inline_state(&tuples[..cut]));

        for t in &tuples[cut..] {
            profiler.tuple(t);
        }
        profiler.finish();
        let mut produced = Vec::new();
        profiler.save_state(&mut produced).unwrap();
        prop_assert_eq!(produced, inline_state(&tuples));
    }
}
