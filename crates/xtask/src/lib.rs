//! The `cargo xtask analyze` static-verification engine.
//!
//! Three stages (all self-contained — no external parser):
//!
//! 1. **Facts** ([`facts`], [`syntax`], [`lexer`]) — each file is
//!    lexed once and a lightweight syntax pass extracts items, fn
//!    signatures, calls, string literals, and `ChunkTag`/`ProfileKind`
//!    path references into a per-file facts database shared by every
//!    rule.
//! 2. **Linking** ([`callgraph`], [`facts::WorkspaceFacts`]) — an
//!    approximate name-based call graph plus the chunk-tag registry
//!    and the metric-key vocabulary ([`vocab`]) tie the files
//!    together.
//! 3. **Rules** ([`rules`]) — the eight per-file token rules
//!    re-expressed against the facts, plus five cross-file rules:
//!
//! Per-file rules:
//!
//! * **no-panic** — decode paths (`crates/format/src/**`, every
//!   `crates/*/src/io.rs`, `crates/core/src/session.rs`) must not
//!   `unwrap`/`expect`/`panic!`/index: malformed input routes through
//!   `FormatError`, never a panic. Provably-infallible sites carry
//!   `// analyze: allow(panic): <reason>`.
//! * **le-bytes** — byte-order framing (`from_le_bytes` & friends)
//!   belongs in `orp-format`'s codecs; everything else reads/writes
//!   through `read_u32_le`/`read_u64_le`/varints.
//! * **chunk-match** — a `match` over [`ChunkTag`]s needs an explicit,
//!   *non-empty* catch-all: the tag space is open (the KNOWN registry
//!   grows), and silently dropping unknown chunks hides corruption.
//! * **chunk-registry** — every `ChunkTag` const declared in
//!   `chunk.rs` must be in the `KNOWN` registry.
//! * **forbid-unsafe** — every crate root declares
//!   `#![forbid(unsafe_code)]` unless `analyze.allow` exempts it with a
//!   reason.
//! * **no-metrics-in-decode** — `orp-format` stays observability-free:
//!   no recorder ident (`orp_obs`, `Recorder`, `StatsRecorder`,
//!   `NoopRecorder`) may appear in its decode paths. I/O accounting is
//!   plain integers (`IoStats`); publication happens in the caller.
//! * **atomic-artifact-writes** — artifact producers must not
//!   `File::create`/`fs::write` outputs directly: a crash mid-write
//!   leaves a torn file. Writes go through `orp_format::AtomicFile` /
//!   `write_bytes_atomic` (the primitive's own crate and this tooling
//!   crate are exempt).
//! * **no-siphash-in-hot-paths** — the grammar and optimize-loop
//!   crates (`crates/{sequitur,whomp,cache,opt}/src/**`) must not build
//!   `HashMap`/`HashSet` with the default SipHash hasher
//!   (`::new`/`::with_capacity`): hot-path maps annotate
//!   `FxBuildHasher` and construct through `::default()`.
//!
//! Cross-file rules:
//!
//! * **panic-reachability** — no fn transitively reachable from a
//!   decode entry point (a `pub fn read_*`/`decode_*`/… in a decode
//!   file) may `unwrap`/`expect`/`panic!`; findings carry the
//!   reconstructed call path.
//! * **untrusted-length** — a length decoded by
//!   `read_varint`/`read_u32_le`/… must pass a bound (`.min(…)`,
//!   `.clamp(…)`, or a comparison against a trusted value) before it
//!   sizes a `with_capacity`/`reserve`/`vec![…; n]` allocation.
//! * **metric-key** — every literal recorder key and every
//!   `opt.*`/`grammar.*`/`io.*` label must be enumerated in the
//!   `schemas/run_report.schema` vocabulary, and every vocabulary
//!   entry must have a witnessing label in code.
//! * **codec-pair** — every `ChunkTag` with an encoder must have a
//!   decoder, an inspect arm under `src/bin/`, and a corruption test.
//! * **error-type** — public decode-path fns return `Result` with a
//!   `FormatError`-family error (or `io::Error` at the I/O boundary),
//!   never `Option` and never nothing.
//!
//! Inline exemptions: `// analyze: allow(<rule>): <reason>` on the
//! violating line or the line above. File-level exemptions live in
//! `analyze.allow` at the repo root (`<rule> <path> <reason>` per
//! line). Both require a non-empty reason; a bare marker is itself a
//! violation. Accepted historical findings live in `analyze.baseline`
//! ([`baseline`]); machine-readable output (`--format json|sarif`) is
//! in [`output`].

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod facts;
pub mod json;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod syntax;
pub mod vocab;

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation, pointing at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the analyzed root.
    pub file: PathBuf,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule name (`no-panic`, `le-bytes`, …).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// `analyze` could not run at all (as opposed to running and finding
/// violations): the root is not a walkable directory.
#[derive(Debug)]
pub struct AnalyzeError {
    pub root: PathBuf,
    pub source: std::io::Error,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analyze: cannot walk '{}': {}",
            self.root.display(),
            self.source
        )
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Runs every analyze rule over the workspace rooted at `root`.
/// Returns the violations sorted by file then line.
///
/// # Errors
///
/// Returns [`AnalyzeError`] when `root` cannot be walked (not a
/// readable directory). Unreadable *files* under a walkable root are
/// skipped, as before.
pub fn analyze(root: &Path) -> Result<Vec<Diagnostic>, AnalyzeError> {
    std::fs::read_dir(root).map_err(|source| AnalyzeError {
        root: root.to_path_buf(),
        source,
    })?;
    let allowlist = rules::Allowlist::load(root);
    let mut diags = allowlist.problems.clone();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();
    let mut all_facts = Vec::new();
    for rel in &files {
        // Unreadable/non-UTF-8 files are not source we lint.
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        all_facts.push(facts::FileFacts::new(rel, &src));
    }
    let ws = facts::WorkspaceFacts::build(all_facts);
    for f in &ws.files {
        diags.extend(rules::check_file_facts(f, &allowlist));
    }
    let schema_rel = Path::new("schemas/run_report.schema");
    let vocab = match std::fs::read_to_string(root.join(schema_rel)) {
        Ok(text) => {
            let (vocab, problems) = vocab::Vocabulary::parse(&text);
            for (line, message) in problems {
                diags.push(Diagnostic {
                    file: schema_rel.to_path_buf(),
                    line,
                    rule: "metric-key",
                    message: format!("vocabulary line: {message}"),
                });
            }
            vocab
        }
        // No schema at this root (fixture trees): the metric-key rule
        // idles on an empty vocabulary.
        Err(_) => vocab::Vocabulary::default(),
    };
    diags.extend(rules::check_workspace(&ws, &allowlist, &vocab, schema_rel));
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(diags)
}

/// Validates a `RunReport` JSON document against the line-based schema
/// at `schema` (see `schemas/run_report.schema`): the document must
/// parse, be an object, carry every listed field with the listed
/// type, and use only metric keys enumerated in the schema's
/// `set`/`key` vocabulary ([`vocab`]). Returns a one-line summary on
/// success, the full problem list on failure.
///
/// # Errors
///
/// Returns every problem found — unreadable inputs, parse failures,
/// malformed schema lines, missing fields, type mismatches, and
/// unknown metric keys.
pub fn validate_report(report: &Path, schema: &Path) -> Result<String, Vec<String>> {
    let schema_text = match std::fs::read_to_string(schema) {
        Ok(text) => text,
        Err(e) => return Err(vec![format!("{}: {e}", schema.display())]),
    };
    let report_text = match std::fs::read_to_string(report) {
        Ok(text) => text,
        Err(e) => return Err(vec![format!("{}: {e}", report.display())]),
    };
    let value = match json::parse(&report_text) {
        Ok(value) => value,
        Err(e) => return Err(vec![format!("{}: not valid JSON: {e}", report.display())]),
    };
    let Some(fields) = value.as_object() else {
        return Err(vec![format!(
            "{}: top level must be an object, found {}",
            report.display(),
            value.type_name()
        )]);
    };

    let mut problems = Vec::new();
    let (vocabulary, vocab_problems) = vocab::Vocabulary::parse(&schema_text);
    for (line, message) in vocab_problems {
        problems.push(format!("{}:{line}: {message}", schema.display()));
    }
    let mut checked = 0usize;
    for (idx, line) in schema_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.clone().next();
        // `set`/`key` lines are the metric vocabulary, parsed above.
        if matches!(first, Some("set" | "key")) {
            continue;
        }
        let (Some(field), Some(spec), None) = (parts.next(), parts.next(), parts.next()) else {
            problems.push(format!(
                "{}:{}: schema line must be '<field> <type>'",
                schema.display(),
                idx + 1
            ));
            continue;
        };
        checked += 1;
        match fields.get(field) {
            None => problems.push(format!("missing required field \"{field}\"")),
            Some(value) => {
                if let Err(found) = spec_matches(value, spec) {
                    problems.push(format!("field \"{field}\" must be {spec}, found {found}"));
                }
            }
        }
    }
    check_metric_vocabulary(fields, &vocabulary, &mut problems);
    if problems.is_empty() {
        Ok(format!(
            "validate-report: {} ok ({checked} required fields present and typed)",
            report.display()
        ))
    } else {
        Err(problems)
    }
}

/// Checks every `counters`/`ratios`/`spans` key against the schema's
/// `key` vocabulary: metric names feed dashboards by exact shape, so a
/// typo'd stream or a renamed transform family must fail validation,
/// not silently vanish. Skipped entirely when the schema declares no
/// vocabulary.
fn check_metric_vocabulary(
    fields: &std::collections::BTreeMap<String, json::Value>,
    vocabulary: &vocab::Vocabulary,
    problems: &mut Vec<String>,
) {
    if vocabulary.keys.is_empty() {
        return;
    }
    let surfaces: [(&str, vocab::KeyKind, &str); 3] = [
        ("counters", vocab::KeyKind::Counter, "counter"),
        ("ratios", vocab::KeyKind::Ratio, "ratio"),
        ("spans", vocab::KeyKind::Span, "span"),
    ];
    for (field, kind, noun) in surfaces {
        let Some(json::Value::Object(entries)) = fields.get(field) else {
            continue;
        };
        for key in entries.keys() {
            if !vocabulary.matches(kind, key) {
                problems.push(format!(
                    "{noun} \"{key}\" is not in the schema vocabulary — no `key {noun}` \
                     pattern in the schema matches it (see the set/key lines in \
                     schemas/run_report.schema)"
                ));
            }
        }
    }
}

/// Matches one schema type spec (`number`, `string?`, `number=1`,
/// `object<number>`, `array<object>`) against a value; `Err` carries a
/// description of what was found instead.
fn spec_matches(value: &json::Value, spec: &str) -> Result<(), String> {
    use json::Value;
    let (spec, nullable) = match spec.strip_suffix('?') {
        Some(base) => (base, true),
        None => (spec, false),
    };
    if nullable && *value == Value::Null {
        return Ok(());
    }
    if let Some((base, want)) = spec.split_once('=') {
        let Ok(want) = want.parse::<f64>() else {
            return Err(format!("unusable schema pin '{base}={want}'"));
        };
        return match value {
            Value::Number(n) if base == "number" && (*n - want).abs() < f64::EPSILON => Ok(()),
            other => Err(format!("{} {other:?}", other.type_name())),
        };
    }
    let (base, elem) = match spec.strip_suffix('>').and_then(|s| s.split_once('<')) {
        Some((base, elem)) => (base, Some(elem)),
        None => (spec, None),
    };
    let elements: Vec<&Value> = match (base, value) {
        ("number", Value::Number(_)) | ("string", Value::String(_)) | ("bool", Value::Bool(_)) => {
            return Ok(())
        }
        ("object", Value::Object(fields)) => fields.values().collect(),
        ("array", Value::Array(items)) => items.iter().collect(),
        _ => return Err(value.type_name().to_owned()),
    };
    if let Some(elem) = elem {
        for e in elements {
            spec_matches(e, elem).map_err(|found| format!("{base} containing {found}"))?;
        }
    }
    Ok(())
}

/// Walks `dir` collecting `.rs` paths relative to `root`, skipping
/// build output, VCS internals, and the seeded-violation fixtures that
/// exist precisely to fail these rules.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests") {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}
