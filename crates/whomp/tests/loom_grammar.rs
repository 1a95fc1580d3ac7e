//! Model-checked interleavings of the grammar-worker pipeline.
//!
//! Built only under `RUSTFLAGS="--cfg loom"` (see DESIGN.md §10 and
//! §13):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p orp-whomp --test loom_grammar --release
//! ```
//!
//! The models drive the real pipeline code — `orp_core::sync` resolves
//! to loom's instrumented channels and threads, the WHOMP column batch
//! and the queue depth shrink to 2/1 so a handful of tuples crosses
//! every boundary, and `WhompProfiler::new()` always spawns one grammar
//! worker. Checked under *all* interleavings: feed → `save_state`
//! drain → feed → `finish` → finalize produces checkpoint state and
//! profile bytes identical to four bare Sequiturs fed tuple by tuple
//! (built outside the model, since the profiler itself spawns
//! threads).

#![cfg(loom)]

use orp_core::{GroupId, ObjectSerial, OrSink, OrTuple, SessionSink, Timestamp};
use orp_format::write_varint;
use orp_sequitur::Sequitur;
use orp_trace::{AccessKind, InstrId};
use orp_whomp::{Omsg, WhompProfiler};

/// Three tuples: with the loom-sized column batch of 2, the model
/// drains mid-batch after the first tuple, flushes a full batch on the
/// second, and drains a partial one again at `finish`.
fn tuples() -> Vec<OrTuple> {
    (0..3u64)
        .map(|t| OrTuple {
            instr: InstrId((t % 2) as u32),
            kind: AccessKind::Load,
            group: GroupId(0),
            object: ObjectSerial(t % 2),
            offset: t * 8,
            time: Timestamp(t),
            size: 8,
        })
        .collect()
}

/// The four dimension grammars of `tuples`, built inline.
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

#[test]
fn whomp_feed_drain_finish_finalize_matches_inline_under_all_schedules() {
    let tuples = tuples();

    let mut expected_state = Vec::new();
    write_varint(&mut expected_state, 1).expect("state bytes");
    for seq in inline_grammars(&tuples[..1]) {
        seq.save_state(&mut expected_state).expect("state bytes");
    }
    let [instr, group, object, offset] = inline_grammars(&tuples);
    let mut expected_profile = Vec::new();
    Omsg::from_parts(
        instr.grammar(),
        group.grammar(),
        object.grammar(),
        offset.grammar(),
        tuples.len() as u64,
    )
    .write_to(&mut expected_profile)
    .expect("container bytes");

    loom::model(move || {
        let mut profiler = WhompProfiler::new();
        profiler.tuple(&tuples[0]);
        let mut state = Vec::new();
        profiler.save_state(&mut state).expect("drain");
        assert_eq!(
            state, expected_state,
            "checkpoint state must be schedule-independent"
        );
        for t in &tuples[1..] {
            profiler.tuple(t);
        }
        profiler.finish();
        let mut produced = Vec::new();
        profiler.finalize_profile(&mut produced).expect("finalize");
        assert_eq!(
            produced, expected_profile,
            "profile must be schedule-independent"
        );
    });
    assert!(
        loom::explored_executions() > 1,
        "feeder and grammar worker must admit more than one schedule"
    );
}
