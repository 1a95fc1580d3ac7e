//! The per-file facts database the rules run against.
//!
//! [`FileFacts`] is stage 1 of the engine: one lex + marker/test-span
//! scan + syntax pass per file, shared by every rule (the legacy token
//! rules read the significant-token view; the cross-file rules read
//! the extracted items). [`WorkspaceFacts`] is the cross-file linker's
//! input: every file's facts plus the chunk-tag registry extracted
//! from `crates/format/src/chunk.rs`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Kind, Token};
use crate::rules::RULES;
use crate::syntax::{self, FileSyntax};
use crate::Diagnostic;

/// Everything the engine knows about one file.
pub struct FileFacts {
    pub rel: PathBuf,
    /// `rel` normalized to forward slashes for classification.
    pub rel_s: String,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub sig: Vec<usize>,
    /// Lines exempted per rule by inline `analyze: allow` markers.
    pub allowed: HashSet<(&'static str, u32)>,
    /// Malformed markers, reported as `allow-marker` diagnostics.
    pub marker_problems: Vec<Diagnostic>,
    /// Line spans of `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(u32, u32)>,
    pub syntax: FileSyntax,
}

impl FileFacts {
    #[must_use]
    pub fn new(rel: &Path, src: &str) -> Self {
        let tokens = lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != Kind::Comment)
            .map(|(i, _)| i)
            .collect();
        let syntax = syntax::parse(&tokens, &sig);
        let mut facts = FileFacts {
            rel: rel.to_path_buf(),
            rel_s: rel_str(rel),
            tokens,
            sig,
            allowed: HashSet::new(),
            marker_problems: Vec::new(),
            test_spans: Vec::new(),
            syntax,
        };
        facts.scan_markers();
        facts.scan_test_spans();
        facts
    }

    pub(crate) fn s(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    pub(crate) fn stext(&self, i: usize) -> &str {
        &self.s(i).text
    }

    #[must_use]
    pub fn in_test_span(&self, line: u32) -> bool {
        self.test_spans
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    #[must_use]
    pub fn line_allowed(&self, rule: &'static str, line: u32) -> bool {
        self.allowed.contains(&(rule, line))
    }

    /// Whether a function (by index) is itself a test or sits in a
    /// test span.
    #[must_use]
    pub fn fn_is_test(&self, f: usize) -> bool {
        self.in_test_span(self.syntax.fns[f].line)
    }

    /// Collects `// analyze: allow(<rule>): <reason>` markers: each
    /// exempts its own line and the next (so it can sit above the
    /// statement).
    fn scan_markers(&mut self) {
        let mut found = Vec::new();
        for t in &self.tokens {
            if t.kind != Kind::Comment {
                continue;
            }
            // Only a comment that *is* a marker counts — prose that
            // mentions the syntax (like these docs) must not grant an
            // exemption.
            let body = t.text.trim_start_matches(['/', '*', '!']).trim_start();
            let Some(rest) = body.strip_prefix("analyze: allow(") else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                found.push((None, t.line, "unclosed allow marker".to_owned()));
                continue;
            };
            // `allow(panic)` is the documented spelling for the
            // no-panic rule's infallibility marker.
            let name = match &rest[..close] {
                "panic" => "no-panic",
                other => other,
            };
            let reason = rest[close + 1..]
                .trim_start_matches([':', '-', '—', ' '])
                .trim();
            match RULES.iter().find(|r| **r == name) {
                None => found.push((
                    None,
                    t.line,
                    format!("unknown rule '{name}' in allow marker"),
                )),
                Some(rule) if reason.is_empty() => found.push((
                    None,
                    t.line,
                    format!("allow({rule}) marker needs a justification after the ')'"),
                )),
                Some(rule) => found.push((Some(*rule), t.line, String::new())),
            }
        }
        for (rule, line, message) in found {
            match rule {
                Some(rule) => {
                    self.allowed.insert((rule, line));
                    self.allowed.insert((rule, line + 1));
                }
                None => self.marker_problems.push(Diagnostic {
                    file: self.rel.clone(),
                    line,
                    rule: "allow-marker",
                    message,
                }),
            }
        }
    }

    /// Marks the line span of every item annotated `#[cfg(test)]` or
    /// `#[test]`: the span runs from the attribute to the item's
    /// closing brace (or `;`).
    fn scan_test_spans(&mut self) {
        let mut i = 0;
        while i < self.sig.len() {
            if self.stext(i) != "#" || i + 1 >= self.sig.len() || self.stext(i + 1) != "[" {
                i += 1;
                continue;
            }
            let attr_line = self.s(i).line;
            // Collect attribute content to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr = Vec::new();
            while j < self.sig.len() && depth > 0 {
                match self.stext(j) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    t => attr.push(t.to_owned()),
                }
                j += 1;
            }
            let is_test_attr = attr.first().is_some_and(|a| a == "test")
                || (attr.contains(&"cfg".to_owned()) && attr.contains(&"test".to_owned()));
            if !is_test_attr {
                i = j;
                continue;
            }
            // Skip any further attributes, then span the item.
            while j + 1 < self.sig.len() && self.stext(j) == "#" && self.stext(j + 1) == "[" {
                let mut depth = 0usize;
                j += 1;
                loop {
                    match self.stext(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                    if j >= self.sig.len() {
                        break;
                    }
                }
                j += 1;
            }
            let mut braces = 0usize;
            let end_line = loop {
                if j >= self.sig.len() {
                    break self.tokens.last().map_or(attr_line, |t| t.line);
                }
                match self.stext(j) {
                    ";" if braces == 0 => break self.s(j).line,
                    "{" => braces += 1,
                    "}" => {
                        braces -= 1;
                        if braces == 0 {
                            break self.s(j).line;
                        }
                    }
                    _ => {}
                }
                j += 1;
            };
            self.test_spans.push((attr_line, end_line));
            i = j + 1;
        }
    }
}

// ---- path classification -------------------------------------------------

pub(crate) fn rel_str(rel: &Path) -> String {
    // Normalize to forward slashes so classification is
    // platform-independent.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Decode-path files: all of `orp-format`, every crate's `io.rs`
/// (the FromBytes-style parsers), and the session layer (parses
/// checkpoint containers).
#[must_use]
pub fn is_decode_path(rel: &str) -> bool {
    rel.starts_with("crates/format/src/")
        || rel == "crates/core/src/session.rs"
        || (rel.starts_with("crates/") && rel.ends_with("/src/io.rs"))
}

/// First-party source (rules don't police vendored stand-ins beyond
/// `forbid-unsafe`).
#[must_use]
pub fn is_first_party(rel: &str) -> bool {
    rel.starts_with("crates/") || rel.starts_with("src/")
}

/// Integration tests, benches and examples: exercised code, not
/// shipped decode paths.
#[must_use]
pub fn is_test_tree(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

/// Per-event hot paths, which must not construct maps with the default
/// (SipHash) hasher: grammar construction (every push runs one to three
/// digram map operations) and the optimize loop (the advisers count
/// every tuple; the cache replays the stream once per transform).
#[must_use]
pub fn is_hash_hot_path(rel: &str) -> bool {
    [
        "crates/sequitur/src/",
        "crates/whomp/src/",
        "crates/cache/src/",
        "crates/opt/src/",
    ]
    .iter()
    .any(|prefix| rel.starts_with(prefix))
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`: `lib.rs` /
/// `main.rs` / `bin/*.rs` of the facade crate, every workspace crate,
/// and the vendored stand-ins.
#[must_use]
pub fn is_crate_root(rel: &str) -> bool {
    let bin = |prefix: &str| {
        rel.strip_prefix(prefix).is_some_and(|rest| {
            let mut parts = rest.splitn(4, '/');
            // "<crate>/src/bin/<file>.rs" under crates/ or third_party/
            matches!(
                (parts.next(), parts.next(), parts.next(), parts.next()),
                (Some(_), Some("src"), Some("bin"), Some(f)) if f.ends_with(".rs") && !f.contains('/')
            )
        })
    };
    let root_file = |prefix: &str| {
        rel == format!("{prefix}src/lib.rs") || rel == format!("{prefix}src/main.rs")
    };
    if root_file("") || (rel.starts_with("src/bin/") && rel.ends_with(".rs")) {
        return true;
    }
    for tree in ["crates/", "third_party/"] {
        if bin(tree) {
            return true;
        }
        if let Some(rest) = rel.strip_prefix(tree) {
            let mut parts = rest.splitn(2, '/');
            if let (Some(_), Some(tail)) = (parts.next(), parts.next()) {
                if tail == "src/lib.rs" || tail == "src/main.rs" {
                    return true;
                }
            }
        }
    }
    false
}

// ---- workspace aggregation -----------------------------------------------

/// The cross-file linker's input: all per-file facts plus the chunk
/// registry extracted from `crates/format/src/chunk.rs`.
pub struct WorkspaceFacts {
    pub files: Vec<FileFacts>,
    /// `ChunkTag` consts declared in `chunk.rs`: `(NAME, line)`.
    pub chunk_tags: Vec<(String, u32)>,
    /// `ProfileKind` variant → primary `ChunkTag` const name, from
    /// `ProfileKind::primary_chunk`.
    pub kind_primary: Vec<(String, String)>,
}

impl WorkspaceFacts {
    #[must_use]
    pub fn build(files: Vec<FileFacts>) -> Self {
        let mut chunk_tags = Vec::new();
        let mut kind_primary = Vec::new();
        if let Some(chunk) = files
            .iter()
            .find(|f| f.rel_s == "crates/format/src/chunk.rs")
        {
            // Declared tags: `const NAME: ChunkTag =`.
            for i in 0..chunk.sig.len().saturating_sub(4) {
                if chunk.stext(i) == "const"
                    && chunk.stext(i + 2) == ":"
                    && chunk.stext(i + 3) == "ChunkTag"
                    && chunk.stext(i + 4) == "="
                {
                    chunk_tags.push((chunk.stext(i + 1).to_owned(), chunk.s(i + 1).line));
                }
            }
            // Kind → primary tag: inside `fn primary_chunk`, match arms
            // pair `ProfileKind::K => ChunkTag::T`.
            if let Some(f) = chunk.syntax.fns.iter().find(|f| f.name == "primary_chunk") {
                if let Some((lo, hi)) = f.body {
                    let mut i = lo;
                    while i + 9 < hi {
                        if chunk.stext(i) == "ProfileKind"
                            && chunk.stext(i + 1) == ":"
                            && chunk.stext(i + 2) == ":"
                            && chunk.stext(i + 4) == "="
                            && chunk.stext(i + 5) == ">"
                            && chunk.stext(i + 6) == "ChunkTag"
                        {
                            kind_primary.push((
                                chunk.stext(i + 3).to_owned(),
                                chunk.stext(i + 9).to_owned(),
                            ));
                            i += 10;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
        }
        WorkspaceFacts {
            files,
            chunk_tags,
            kind_primary,
        }
    }

    /// The `ChunkTag` const names a `ProfileKind` variant maps to.
    #[must_use]
    pub fn primary_tag_of(&self, kind: &str) -> Option<&str> {
        self.kind_primary
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, t)| t.as_str())
    }

    /// The `ProfileKind` variants whose primary chunk is `tag`.
    #[must_use]
    pub fn kinds_of_tag(&self, tag: &str) -> Vec<&str> {
        self.kind_primary
            .iter()
            .filter(|(_, t)| t == tag)
            .map(|(k, _)| k.as_str())
            .collect()
    }
}
