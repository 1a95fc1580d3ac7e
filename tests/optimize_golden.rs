//! Golden guard for the optimize loop's outputs.
//!
//! `tests/fixtures/optimize_golden.txt` holds, for each of the seven
//! SPEC-like workloads, the serialized `LayoutPlan` the four advisers
//! produce and every `ReplayOutcome` `evaluate_plan` reports for it
//! (label, L1/L2 accesses and misses, skipped accesses) under two
//! cache geometries. The advisers' counters and the cache replay are
//! performance-sensitive code with no room for drift: a rewrite of
//! either must reproduce every plan byte and every counter.
//!
//! An intentional change to what the advisers propose or how the
//! replay counts refreshes the fixture:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test optimize_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use orprof::allocsim::AllocatorKind;
use orprof::cache::evaluate::{evaluate_plan, extents_from_records, EvalConfig, ReplayOutcome};
use orprof::cache::CacheConfig;
use orprof::core::OrSink;
use orprof::opt::AdvisorSet;
use orprof::workloads::{profile, spec_suite, RunConfig};

/// Tuples per workload fed to the advisers and the replays: a prefix
/// of each scale-1 run, which keeps the debug-build test fast while
/// still covering thousands of objects and every transform kind.
const TUPLES: usize = 40_000;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/optimize_golden.txt")
}

/// The two evaluated geometries: the default hierarchy over a
/// randomizing heap, and a small 4-way L1 over the free-list heap.
fn configs() -> [(&'static str, EvalConfig); 2] {
    [
        (
            "default-randomizing",
            EvalConfig {
                allocator: AllocatorKind::Randomizing,
                seed: 3,
                ..EvalConfig::default()
            },
        ),
        (
            "small-freelist",
            EvalConfig {
                l1: CacheConfig {
                    sets: 32,
                    ways: 4,
                    line_bytes: 64,
                },
                l2: CacheConfig {
                    sets: 256,
                    ways: 8,
                    line_bytes: 64,
                },
                ..EvalConfig::default()
            },
        ),
    ]
}

fn outcome_line(out: &mut String, r: &ReplayOutcome) {
    writeln!(
        out,
        "replay {} l1 {} {} l2 {} {} skipped {}",
        r.label, r.l1.accesses, r.l1.misses, r.l2.accesses, r.l2.misses, r.skipped
    )
    .unwrap();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

/// Every workload's plan and replay counters, one line per item.
fn golden_text() -> String {
    let mut out = String::new();
    for w in spec_suite(1) {
        let run = profile(w.as_ref(), &RunConfig::default());
        let tuples = &run.tuples[..run.tuples.len().min(TUPLES)];
        let mut advisors = AdvisorSet::new();
        advisors.tuple_batch(tuples);
        let plan = advisors.plan();
        writeln!(
            out,
            "workload {} tuples {} transforms {}",
            w.name(),
            tuples.len(),
            plan.len()
        )
        .unwrap();
        writeln!(out, "plan {}", hex(&plan.to_bytes())).unwrap();
        let objects = extents_from_records(&run.records);
        for (name, cfg) in configs() {
            writeln!(out, "config {name}").unwrap();
            let eval = evaluate_plan(&plan, &objects, tuples, &cfg).expect("plan applies");
            outcome_line(&mut out, &eval.baseline);
            outcome_line(&mut out, &eval.planned);
            for t in &eval.transforms {
                outcome_line(&mut out, &t.replay);
            }
        }
    }
    out
}

#[test]
fn plans_and_replay_counters_match_the_golden_fixture() {
    let text = golden_text();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "fixture missing; regenerate with UPDATE_GOLDEN=1 cargo test --test optimize_golden",
    );
    for (n, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from the golden fixture", n + 1);
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "golden fixture line count"
    );
}
