//! The analyze pass must fail loudly — file:line — on seeded
//! violations, honor its exemption mechanisms, and run clean on this
//! workspace.

use std::path::{Path, PathBuf};

use xtask::rules::{check_file, Allowlist};
use xtask::Diagnostic;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture readable")
}

/// Runs the rules on a fixture as if it lived at `pretend_path`, with
/// an empty allowlist.
fn run(pretend_path: &str, name: &str) -> Vec<Diagnostic> {
    let empty = Allowlist::load(Path::new("/nonexistent-allow-root"));
    assert!(empty.problems.is_empty());
    check_file(Path::new(pretend_path), &fixture(name), &empty)
}

fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn no_panic_violations_are_reported_with_file_and_line() {
    let diags = run("crates/format/src/seeded.rs", "no_panic.rs");
    assert_eq!(
        lines_of(&diags, "no-panic"),
        vec![7, 8, 10, 12, 23],
        "unwrap, expect, panic!, indexing, and the unreasoned-marker line: {diags:#?}"
    );
    // The bare marker itself is flagged.
    assert_eq!(lines_of(&diags, "allow-marker"), vec![22]);
    // Diagnostics render as file:line so CI output is clickable.
    let first = diags
        .iter()
        .find(|d| d.rule == "no-panic")
        .expect("at least one no-panic diagnostic");
    assert!(
        first
            .to_string()
            .starts_with("crates/format/src/seeded.rs:7: [no-panic]"),
        "got {first}"
    );
}

#[test]
fn reasoned_marker_and_test_spans_are_exempt() {
    let diags = run("crates/format/src/seeded.rs", "no_panic.rs");
    assert!(
        !lines_of(&diags, "no-panic").contains(&18),
        "line 18 carries a reasoned allow marker: {diags:#?}"
    );
    assert!(
        lines_of(&diags, "no-panic").iter().all(|&l| l < 26),
        "nothing inside #[cfg(test)] may be flagged: {diags:#?}"
    );
}

#[test]
fn le_bytes_violations_are_reported() {
    let diags = run("crates/leap/src/seeded.rs", "le_bytes.rs");
    assert_eq!(
        lines_of(&diags, "le-bytes"),
        vec![6, 10],
        "framing calls only — not comments or strings: {diags:#?}"
    );
}

#[test]
fn le_bytes_does_not_apply_inside_orp_format() {
    let diags = run("crates/format/src/seeded_codec.rs", "le_bytes.rs");
    assert!(lines_of(&diags, "le-bytes").is_empty(), "{diags:#?}");
}

#[test]
fn chunk_match_flags_missing_and_empty_catch_alls() {
    let diags = run("crates/report/src/seeded.rs", "chunk_match.rs");
    assert_eq!(
        lines_of(&diags, "chunk-match"),
        vec![6, 16],
        "missing catch-all at 6, silent drop at 16, nothing else: {diags:#?}"
    );
}

#[test]
fn chunk_registry_flags_unregistered_tags() {
    let diags = run("crates/format/src/chunk.rs", "chunk_registry.rs");
    assert_eq!(lines_of(&diags, "chunk-registry"), vec![10], "{diags:#?}");
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "chunk-registry" && d.message.contains("ORPHAN")),
        "{diags:#?}"
    );
}

#[test]
fn forbid_unsafe_flags_bare_crate_roots_and_honors_the_allowlist() {
    let diags = run("crates/report/src/lib.rs", "forbid_unsafe.rs");
    assert_eq!(lines_of(&diags, "forbid-unsafe"), vec![1], "{diags:#?}");

    // Non-roots are out of scope.
    let diags = run("crates/report/src/helpers.rs", "forbid_unsafe.rs");
    assert!(lines_of(&diags, "forbid-unsafe").is_empty(), "{diags:#?}");

    // A reasoned allowlist entry exempts the root...
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/allow_root");
    let allow = Allowlist::load(&root);
    let diags = check_file(
        Path::new("crates/report/src/lib.rs"),
        &fixture("forbid_unsafe.rs"),
        &allow,
    );
    assert!(lines_of(&diags, "forbid-unsafe").is_empty(), "{diags:#?}");

    // ...while malformed allowlist lines are themselves violations.
    let problems: Vec<u32> = allow.problems.iter().map(|d| d.line).collect();
    assert_eq!(
        problems,
        vec![3, 4],
        "unknown rule and missing reason must be flagged: {:#?}",
        allow.problems
    );
    // The reasonless le-bytes line must not act as an exemption.
    let diags = check_file(
        Path::new("crates/leap/src/seeded.rs"),
        &fixture("le_bytes.rs"),
        &allow,
    );
    assert_eq!(lines_of(&diags, "le-bytes"), vec![6, 10]);
}

#[test]
fn no_metrics_in_decode_flags_recorder_idents_in_orp_format() {
    let diags = run("crates/format/src/seeded_metrics.rs", "no_metrics.rs");
    assert_eq!(
        lines_of(&diags, "no-metrics-in-decode"),
        vec![6, 6, 8, 23],
        "the use line (two idents), the signature, and the leaked \
         StatsRecorder — not comments, the exempted line, or test \
         spans: {diags:#?}"
    );
}

#[test]
fn no_metrics_in_decode_only_polices_orp_format() {
    // The same source anywhere else (here: the CLI crate, which
    // legitimately drives recorders) is out of scope.
    let diags = run("src/bin/orprof-cli.rs", "no_metrics.rs");
    assert!(
        lines_of(&diags, "no-metrics-in-decode").is_empty(),
        "{diags:#?}"
    );
}

#[test]
fn atomic_artifact_writes_flags_direct_truncating_writes() {
    let diags = run("crates/report/src/seeded.rs", "atomic_writes.rs");
    assert_eq!(
        lines_of(&diags, "atomic-artifact-writes"),
        vec![5, 6, 8],
        "File::create, fs::write, and File::create_new — not comments, \
         reads, the exempted probe, or test spans: {diags:#?}"
    );
}

#[test]
fn atomic_artifact_writes_exempts_the_durable_primitive_and_tooling() {
    // orp-format hosts AtomicFile itself; xtask is build tooling.
    for pretend in ["crates/format/src/durable.rs", "crates/xtask/src/main.rs"] {
        let diags = run(pretend, "atomic_writes.rs");
        assert!(
            lines_of(&diags, "atomic-artifact-writes").is_empty(),
            "{pretend}: {diags:#?}"
        );
    }
}

#[test]
fn no_siphash_flags_default_hasher_maps_in_grammar_crates() {
    for pretend in [
        "crates/sequitur/src/seeded_siphash.rs",
        "crates/whomp/src/seeded_siphash.rs",
    ] {
        let diags = run(pretend, "siphash.rs");
        assert_eq!(
            lines_of(&diags, "no-siphash-in-hot-paths"),
            vec![9, 13, 17],
            "HashMap::new, HashMap::with_capacity, and HashSet::new — \
             not ::default(), comments, the exempted line, or test \
             spans ({pretend}): {diags:#?}"
        );
    }
}

#[test]
fn no_siphash_flags_default_hasher_maps_in_optimize_loop_crates() {
    for pretend in [
        "crates/opt/src/seeded_siphash.rs",
        "crates/cache/src/seeded_siphash.rs",
    ] {
        let diags = run(pretend, "siphash_opt.rs");
        assert_eq!(
            lines_of(&diags, "no-siphash-in-hot-paths"),
            vec![16, 21, 21],
            "HashMap::new, HashMap::with_capacity and HashSet::new — not \
             BTreeMap::new or an Fx-annotated collect ({pretend}): {diags:#?}"
        );
    }
}

#[test]
fn no_siphash_only_polices_hot_paths() {
    // The same source elsewhere (the CLI builds plenty of SipHash maps
    // off the hot path) is out of scope; so are the hot-path crates'
    // own integration tests.
    for pretend in [
        "src/bin/orprof-cli.rs",
        "crates/core/src/omc.rs",
        "crates/sequitur/tests/seeded_siphash.rs",
        "crates/opt/tests/seeded_siphash.rs",
    ] {
        let diags = run(pretend, "siphash.rs");
        assert!(
            lines_of(&diags, "no-siphash-in-hot-paths").is_empty(),
            "{pretend}: {diags:#?}"
        );
    }
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let diags = xtask::analyze(root).expect("workspace root is walkable");
    assert!(
        diags.is_empty(),
        "the workspace must satisfy its own rules:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn unwalkable_root_is_a_typed_error_not_a_panic() {
    let missing =
        std::env::temp_dir().join(format!("xtask-analyze-no-such-root-{}", std::process::id()));
    let err = xtask::analyze(&missing).expect_err("missing root must error");
    assert!(
        err.to_string().contains("cannot walk"),
        "unexpected message: {err}"
    );
    assert!(
        std::error::Error::source(&err).is_some(),
        "the io::Error cause must be preserved"
    );
}
