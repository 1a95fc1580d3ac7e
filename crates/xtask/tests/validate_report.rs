//! `cargo xtask validate-report` must accept a well-formed RunReport
//! and reject documents that drift from the checked-in schema.

use std::path::{Path, PathBuf};

fn repo_schema() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .join("schemas/run_report.schema")
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("xtask-vr-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writable");
    path
}

const GOOD: &str = concat!(
    "{\n",
    "  \"schema_version\": 1,\n",
    "  \"command\": \"run\",\n",
    "  \"workload\": \"micro.matrix\",\n",
    "  \"profiler\": null,\n",
    "  \"shards\": 1,\n",
    "  \"wall_nanos\": 123456,\n",
    "  \"events\": 42,\n",
    "  \"counters\": {\n    \"omc.memo_hits\": 40\n  },\n",
    "  \"ratios\": {\n    \"omc.memo_hit_rate\": 0.952381\n  },\n",
    "  \"spans\": {\n    \"pipeline.merge\": {\"count\": 1, \"total_nanos\": 10, \"max_nanos\": 10}\n  },\n",
    "  \"shard_counts\": []\n",
    "}\n"
);

#[test]
fn well_formed_report_validates() {
    let file = temp_file("good.json", GOOD);
    let summary = xtask::validate_report(&file, &repo_schema()).expect("valid report");
    assert!(summary.contains("ok"), "{summary}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn schema_drift_is_reported_per_field() {
    // Drop a required field and mistype another.
    let bad = GOOD
        .replace("  \"events\": 42,\n", "")
        .replace("\"shards\": 1", "\"shards\": \"one\"");
    let file = temp_file("drift.json", &bad);
    let problems = xtask::validate_report(&file, &repo_schema()).expect_err("must fail");
    assert!(
        problems
            .iter()
            .any(|p| p.contains("missing required field \"events\"")),
        "{problems:#?}"
    );
    assert!(
        problems.iter().any(|p| p.contains("\"shards\"")),
        "{problems:#?}"
    );
    let _ = std::fs::remove_file(file);
}

#[test]
fn hostile_workload_labels_validate_after_escaping() {
    // A workload label carrying quotes, backslashes, and control
    // characters — escaped exactly the way orp_obs::json_string emits
    // them — must round-trip through the validator as an ordinary
    // string, not break the parse or leak into adjacent fields.
    let hostile = GOOD.replace(
        "\"workload\": \"micro.matrix\"",
        "\"workload\": \"quote\\\" back\\\\ tab\\t nl\\n ctl\\u0001 del\\u007f\"",
    );
    let file = temp_file("hostile.json", &hostile);
    let summary = xtask::validate_report(&file, &repo_schema()).expect("hostile label validates");
    assert!(summary.contains("ok"), "{summary}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn wrong_schema_version_and_garbage_are_rejected() {
    let file = temp_file(
        "v2.json",
        &GOOD.replace("\"schema_version\": 1", "\"schema_version\": 2"),
    );
    let problems = xtask::validate_report(&file, &repo_schema()).expect_err("must fail");
    assert!(
        problems.iter().any(|p| p.contains("\"schema_version\"")),
        "{problems:#?}"
    );
    let _ = std::fs::remove_file(file);

    let file = temp_file("garbage.json", "not json at all");
    let problems = xtask::validate_report(&file, &repo_schema()).expect_err("must fail");
    assert!(problems[0].contains("not valid JSON"), "{problems:#?}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn grammar_counters_in_known_families_validate() {
    let good = GOOD.replace(
        "    \"omc.memo_hits\": 40\n",
        concat!(
            "    \"grammar.workers\": 4,\n",
            "    \"grammar.rules.offset\": 5,\n",
            "    \"grammar.symbols.records\": 120,\n",
            "    \"grammar.batches.instruction\": 9,\n",
            "    \"grammar.stalls.object\": 0,\n",
            "    \"omc.memo_hits\": 40\n"
        ),
    );
    let with_span = good.replace(
        "    \"pipeline.merge\": {\"count\": 1, \"total_nanos\": 10, \"max_nanos\": 10}\n",
        concat!(
            "    \"grammar.worker_busy_ns.group\": ",
            "{\"count\": 1, \"total_nanos\": 10, \"max_nanos\": 10}\n"
        ),
    );
    let file = temp_file("grammar-good.json", &with_span);
    let summary = xtask::validate_report(&file, &repo_schema()).expect("valid report");
    assert!(summary.contains("ok"), "{summary}");
    let _ = std::fs::remove_file(file);

    // Worker totals exist only per OMSG dimension; the record and
    // instruction streams report grammar shape alone.
    let bad = with_span.replace("grammar.stalls.object", "grammar.stalls.records");
    let file = temp_file("grammar-bad.json", &bad);
    let problems = xtask::validate_report(&file, &repo_schema()).expect_err("must fail");
    assert!(
        problems
            .iter()
            .any(|p| p.contains("grammar.stalls.records")),
        "{problems:#?}"
    );
    let _ = std::fs::remove_file(file);
}

#[test]
fn opt_ratios_in_known_shapes_validate() {
    let good = GOOD.replace(
        "    \"omc.memo_hit_rate\": 0.952381\n",
        concat!(
            "    \"opt.baseline.l1_miss_rate\": 0.034,\n",
            "    \"opt.planned.l1_delta\": 0.012,\n",
            "    \"opt.colocate.l1_miss_rate\": 0.022,\n",
            "    \"opt.colocate.g2.l1_delta\": 0.011,\n",
            "    \"opt.hot-cold-split.g1.2.l1_delta\": 0.001,\n",
            "    \"omc.memo_hit_rate\": 0.952381\n"
        ),
    );
    let file = temp_file("opt-good.json", &good);
    let summary = xtask::validate_report(&file, &repo_schema()).expect("valid report");
    assert!(summary.contains("ok"), "{summary}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn unknown_opt_ratio_names_are_rejected() {
    // A typo'd transform family and an unknown measurement must both
    // fail — dashboards key on these exact shapes.
    let bad = GOOD.replace(
        "    \"omc.memo_hit_rate\": 0.952381\n",
        concat!(
            "    \"opt.cołocate.l1_miss_rate\": 0.022,\n",
            "    \"opt.planned.miss_rate\": 0.01,\n",
            "    \"opt.pooled.g1.l1_delta\": 0.0\n"
        ),
    );
    let file = temp_file("opt-bad.json", &bad);
    let problems = xtask::validate_report(&file, &repo_schema()).expect_err("must fail");
    for key in [
        "opt.cołocate.l1_miss_rate",
        "opt.planned.miss_rate",
        "opt.pooled.g1.l1_delta",
    ] {
        assert!(
            problems.iter().any(|p| p.contains(key)),
            "{key}: {problems:#?}"
        );
    }
    let _ = std::fs::remove_file(file);
}

#[test]
fn unknown_grammar_metric_names_are_rejected() {
    // A typo'd stream and an unknown family must both fail — these keys
    // feed dashboards by exact name.
    let bad_counter = GOOD.replace(
        "    \"omc.memo_hits\": 40\n",
        "    \"grammar.rules.offsets\": 5,\n    \"grammar.latency.group\": 1\n",
    );
    let file = temp_file("grammar-bad-counter.json", &bad_counter);
    let problems = xtask::validate_report(&file, &repo_schema()).expect_err("must fail");
    assert!(
        problems
            .iter()
            .any(|p| p.contains("\"grammar.rules.offsets\"")),
        "{problems:#?}"
    );
    assert!(
        problems
            .iter()
            .any(|p| p.contains("\"grammar.latency.group\"")),
        "{problems:#?}"
    );
    let _ = std::fs::remove_file(file);

    let bad_span = GOOD.replace(
        "    \"pipeline.merge\": {\"count\": 1, \"total_nanos\": 10, \"max_nanos\": 10}\n",
        concat!(
            "    \"grammar.worker_busy_ns.threads\": ",
            "{\"count\": 1, \"total_nanos\": 10, \"max_nanos\": 10}\n"
        ),
    );
    let file = temp_file("grammar-bad-span.json", &bad_span);
    let problems = xtask::validate_report(&file, &repo_schema()).expect_err("must fail");
    assert!(
        problems
            .iter()
            .any(|p| p.contains("\"grammar.worker_busy_ns.threads\"")),
        "{problems:#?}"
    );
    let _ = std::fs::remove_file(file);
}
