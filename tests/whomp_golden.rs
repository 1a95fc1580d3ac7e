//! Golden guard for WHOMP's profile and checkpoint bytes.
//!
//! `tests/fixtures/whomp_golden.txt` holds, for each of the seven
//! SPEC-like workloads, the length and FNV-1a digest of the finalized
//! WHOMP profile container and of two mid-run `Session` checkpoints.
//! The checkpoints are taken at cuts whose tuple counts are not
//! multiples of the grammar batch size (512), so a checkpoint always
//! lands inside a partly filled column batch. Grammar construction is
//! performance-sensitive code with no room for drift: a rewrite of how
//! the four dimension grammars are scheduled must reproduce every byte.
//!
//! An intentional change to the profile or checkpoint format refreshes
//! the fixture:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test whomp_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use orprof::core::Session;
use orprof::trace::{ProbeEvent, VecSink};
use orprof::whomp::WhompProfiler;
use orprof::workloads::{spec_suite, RunConfig, Tracer, Workload};

/// Probe events per workload: a prefix of each scale-1 run, which
/// keeps the debug-build test fast while crossing many batches.
const EVENTS: usize = 30_000;

/// The batch size the checkpoint cuts must avoid landing on.
const BATCH: u64 = 512;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/whomp_golden.txt")
}

/// 64-bit FNV-1a: a stable digest, so the fixture stays small.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn events(workload: &dyn Workload) -> Vec<ProbeEvent> {
    let mut sink = VecSink::new();
    let mut tracer = Tracer::new(&RunConfig::default(), &mut sink);
    workload.run(&mut tracer);
    tracer.finish();
    let mut events = sink.into_events();
    events.truncate(EVENTS);
    events
}

/// Feeds `events[..cut]`, moving `cut` forward until the session holds
/// a tuple count that is not a multiple of [`BATCH`].
fn session_at(events: &[ProbeEvent], mut cut: usize) -> (Session<WhompProfiler>, usize) {
    let mut session = Session::new(WhompProfiler::new());
    session.feed(&events[..cut]);
    while session.cdc().sink().tuples().is_multiple_of(BATCH) {
        session.feed(&events[cut..=cut]);
        cut += 1;
    }
    (session, cut)
}

/// Every workload's profile and checkpoint digests, one line per item.
fn golden_text() -> String {
    let mut out = String::new();
    for w in spec_suite(1) {
        let events = events(w.as_ref());
        let mut session = Session::new(WhompProfiler::new());
        session.feed(&events);
        let mut profile = Vec::new();
        session.finalize(&mut profile).expect("finalize");
        writeln!(
            out,
            "workload {} events {} profile {} {:016x}",
            w.name(),
            events.len(),
            profile.len(),
            fnv1a(&profile)
        )
        .unwrap();
        for cut in [events.len() / 3, events.len() * 2 / 3] {
            let (mut first, cut) = session_at(&events, cut);
            let tuples = first.cdc().sink().tuples();
            let mut checkpoint = Vec::new();
            first.checkpoint(&mut checkpoint).expect("checkpoint");
            writeln!(
                out,
                "checkpoint {cut} tuples {tuples} {} {:016x}",
                checkpoint.len(),
                fnv1a(&checkpoint)
            )
            .unwrap();

            // The checkpoint resumes to the uninterrupted profile.
            let mut resumed =
                Session::<WhompProfiler>::resume(&mut checkpoint.as_slice()).expect("resume");
            resumed.feed(&events[cut..]);
            let mut again = Vec::new();
            resumed.finalize(&mut again).expect("finalize resumed");
            assert!(again == profile, "{} resumed at {cut} drifted", w.name());
        }
    }
    out
}

#[test]
fn profiles_and_checkpoints_match_the_golden_fixture() {
    let text = golden_text();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("fixture missing; regenerate with UPDATE_GOLDEN=1 cargo test --test whomp_golden");
    for (n, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from the golden fixture", n + 1);
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "golden fixture line count"
    );
}
