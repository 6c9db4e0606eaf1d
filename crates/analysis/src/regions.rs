//! Test-region tracking and `pir-lint` annotation parsing.
//!
//! The secret-flow pass only applies to *runtime* code, so we
//! need to know which lines of a file are compiled exclusively for tests or
//! benches. Three markers create a test region:
//!
//! - an outer `#[cfg(test)]` / `#[cfg(bench)]` (or any `cfg`/`cfg_attr`
//!   mentioning `test`/`bench`, so `#[cfg(all(test, feature = "x"))]` counts)
//!   covering the item that follows it, through its closing brace;
//! - `#[test]` / `#[bench]` on a function;
//! - a `mod` whose name is `tests`/`test`/`bench`/`benches` or ends in
//!   `_tests`/`_test`/`_bench` — the conventional inline test module — even
//!   without the attribute (belt and suspenders: the attribute is usually
//!   present, but a missing `cfg` should not suddenly subject test helpers to
//!   runtime-path lints).
//!
//! An *inner* `#![cfg(test)]` marks the whole file.
//!
//! Annotations are comments of the form:
//!
//! ```text
//! // pir-lint: allow(<pass>, "<reason>")
//! ```
//!
//! suppressing findings of `<pass>` on the same line or the two lines below
//! the comment's last line. `<pass>` is `secret-flow`. The
//! reason string is mandatory and must be non-empty: the annotation *is* the
//! audit trail. A comment that contains `pir-lint:` but does not parse, or
//! names any other pass, is reported by the driver as a `bad-annotation`
//! finding so typos and stale annotations cannot silently disable a gate.

use crate::lexer::{Tok, TokKind};

/// Line-range classification for one file.
#[derive(Debug, Default)]
pub struct Regions {
    /// Inclusive (start, end) line spans compiled only under test/bench cfg.
    test_spans: Vec<(u32, u32)>,
    /// Whole file is test-only (inner `#![cfg(test)]` or path convention).
    whole_file: bool,
}

impl Regions {
    /// True if `line` is inside a test/bench-only region.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.whole_file || self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// Mark the whole file as test-only (used for `tests/`, `benches/`, and
    /// `*_tests.rs` files where the cfg lives on an out-of-line `mod`).
    pub fn mark_whole_file(&mut self) {
        self.whole_file = true;
    }

    #[cfg(test)]
    pub(crate) fn spans(&self) -> &[(u32, u32)] {
        &self.test_spans
    }
}

/// Does this module name conventionally denote an inline test module?
fn is_test_mod_name(name: &str) -> bool {
    matches!(name, "tests" | "test" | "bench" | "benches")
        || name.ends_with("_tests")
        || name.ends_with("_test")
        || name.ends_with("_bench")
}

/// Scan an attribute's tokens (between `[` and its matching `]`) and decide
/// whether it gates the following item to test/bench builds.
fn attr_is_test(tokens: &[Tok]) -> bool {
    let Some(first) = tokens.iter().find(|t| t.kind == TokKind::Ident) else {
        return false;
    };
    if first.is_ident("test") || first.is_ident("bench") {
        return true;
    }
    if first.is_ident("cfg") || first.is_ident("cfg_attr") {
        return tokens
            .iter()
            .skip(1)
            .any(|t| t.is_ident("test") || t.is_ident("bench"));
    }
    false
}

/// Find the index of the matching close for the open bracket at `open`.
/// `toks[open]` must be the opening punct. Returns `None` if unbalanced.
fn matching_close(toks: &[Tok], open: usize, open_ch: char, close_ch: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// After a test-gating attribute or `mod tests` header at `start`, find the
/// end line of the item: the matching `}` of the first `{` encountered, or
/// the line of a `;` (out-of-line mod / expression) if that comes first.
fn item_end(toks: &[Tok], start: usize) -> (u32, usize) {
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            if let Some(close) = matching_close(toks, i, '{', '}') {
                return (toks[close].end_line, close);
            }
            // Unbalanced braces: treat as extending to EOF.
            return (
                toks.last().map(|t| t.end_line).unwrap_or(t.line),
                toks.len(),
            );
        }
        if t.is_punct(';') {
            return (t.line, i);
        }
        // Skip nested attribute blocks on the way (e.g. `#[test] #[ignore] fn`).
        if t.is_punct('[') {
            if let Some(close) = matching_close(toks, i, '[', ']') {
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    (toks.last().map(|t| t.end_line).unwrap_or(1), toks.len())
}

/// Compute the test regions of a token stream.
pub fn find_regions(toks: &[Tok]) -> Regions {
    let mut regions = Regions::default();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];

        // Attributes: `#` (`!`)? `[` … `]`.
        if t.is_punct('#') {
            let mut j = i + 1;
            let inner = toks.get(j).map(|t| t.is_punct('!')).unwrap_or(false);
            if inner {
                j += 1;
            }
            if toks.get(j).map(|t| t.is_punct('[')).unwrap_or(false) {
                if let Some(close) = matching_close(toks, j, '[', ']') {
                    if attr_is_test(&toks[j + 1..close]) {
                        if inner {
                            // `#![cfg(test)]`: gates the enclosing scope. At
                            // the top of a file that is the whole file; we
                            // approximate "rest of the enclosing block".
                            regions.mark_whole_file();
                        } else {
                            let (end_line, end_idx) = item_end(toks, close + 1);
                            regions.test_spans.push((t.line, end_line));
                            // Skip past the whole item so a `mod tests` inside
                            // it is not double-counted.
                            i = end_idx + 1;
                            continue;
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }

        // `mod <test-ish name> {` without an attribute.
        if t.is_ident("mod") {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident && is_test_mod_name(&name.text) {
                    let (end_line, end_idx) = item_end(toks, i + 2);
                    regions.test_spans.push((t.line, end_line));
                    i = end_idx + 1;
                    continue;
                }
            }
        }

        i += 1;
    }
    regions
}

/// One parsed `pir-lint: allow(...)` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The pass name inside `allow(...)`.
    pub pass: String,
    /// The mandatory justification string.
    pub reason: String,
    /// Last line of the comment carrying the annotation.
    pub line: u32,
}

/// A `pir-lint:` comment that failed to parse, reported as its own finding.
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    pub line: u32,
    pub detail: String,
}

/// All annotations found in one file.
#[derive(Debug, Default)]
pub struct Annotations {
    pub allows: Vec<Allow>,
    pub bad: Vec<BadAnnotation>,
}

impl Annotations {
    /// Is a finding of `pass` at `line` suppressed by an annotation?
    ///
    /// An allow covers its own line and the two lines below it, so both
    /// same-line (`stmt; // pir-lint: allow(...)`) and comment-above styles
    /// work, including one intervening attribute line.
    pub fn allows(&self, pass: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.pass == pass && a.line <= line && line <= a.line + 2)
    }
}

/// Parse every `pir-lint:` annotation out of the comment tokens.
///
/// Only *plain* comments participate: doc comments are documentation, and
/// must be able to quote the annotation grammar (this linter's own sources
/// do) without creating live suppressions.
pub fn find_annotations(toks: &[Tok]) -> Annotations {
    let mut out = Annotations::default();
    for t in toks {
        if !matches!(t.kind, TokKind::Comment { doc: false, .. }) {
            continue;
        }
        let Some(at) = t.text.find("pir-lint:") else {
            continue;
        };
        let rest = t.text[at + "pir-lint:".len()..].trim_start();
        match parse_allow(rest) {
            Ok((pass, reason)) => out.allows.push(Allow {
                pass,
                reason,
                line: t.end_line,
            }),
            Err(detail) => out.bad.push(BadAnnotation {
                line: t.line,
                detail,
            }),
        }
    }
    out
}

/// Parse `allow(<pass>, "<reason>")`. Returns (pass, reason) or an error
/// message describing what is malformed.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let Some(rest) = s.strip_prefix("allow") else {
        return Err("expected `allow(<pass>, \"<reason>\")` after `pir-lint:`".into());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after `allow`".into());
    };
    let Some(comma) = rest.find(',') else {
        return Err("expected `,` separating pass name and reason".into());
    };
    let pass = rest[..comma].trim();
    if pass != "secret-flow" {
        return Err(format!(
            "unknown pass `{pass}`: only `secret-flow` takes annotations"
        ));
    }
    let rest = rest[comma + 1..].trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return Err("reason must be a double-quoted string".into());
    };
    let Some(endq) = rest.find('"') else {
        return Err("unterminated reason string".into());
    };
    let reason = &rest[..endq];
    if reason.trim().is_empty() {
        return Err("reason must be non-empty: the annotation is the audit trail".into());
    }
    let after = rest[endq + 1..].trim_start();
    if !after.starts_with(')') {
        return Err("expected `)` closing the annotation".into());
    }
    Ok((pass.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions_of(src: &str) -> Regions {
        find_regions(&lex(src).unwrap())
    }

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src =
            "fn runtime() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let r = regions_of(src);
        assert!(!r.is_test_line(1));
        assert!(r.is_test_line(2));
        assert!(r.is_test_line(4));
        assert!(r.is_test_line(5));
        assert!(!r.is_test_line(6));
    }

    #[test]
    fn cfg_bench_and_compound_cfgs_count() {
        let src =
            "#[cfg(bench)]\nfn b() {}\n#[cfg(all(test, feature = \"x\"))]\nfn t() {}\nfn r() {}\n";
        let r = regions_of(src);
        assert!(r.is_test_line(2));
        assert!(r.is_test_line(4));
        assert!(!r.is_test_line(5));
    }

    #[test]
    fn test_attribute_on_fn() {
        let src = "#[test]\nfn check() {\n    boom();\n}\nfn live() {}\n";
        let r = regions_of(src);
        assert!(r.is_test_line(3));
        assert!(!r.is_test_line(5));
    }

    #[test]
    fn bare_mod_tests_is_a_region_without_cfg() {
        let src = "mod tests {\n    fn helper() {}\n}\nfn live() {}\n";
        let r = regions_of(src);
        assert!(r.is_test_line(2));
        assert!(!r.is_test_line(4));
    }

    #[test]
    fn non_test_mod_is_not_a_region() {
        let r = regions_of("mod codec {\n    fn live() {}\n}\n");
        assert!(!r.is_test_line(2));
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let r = regions_of("#![cfg(test)]\nfn anything() {}\n");
        assert!(r.is_test_line(2));
    }

    #[test]
    fn braces_in_strings_do_not_confuse_span_tracking() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn f() {}\n}\nfn live() {}\n";
        let r = regions_of(src);
        assert!(r.is_test_line(4));
        assert!(!r.is_test_line(6));
    }

    #[test]
    fn out_of_line_test_mod_covers_only_its_line() {
        let src = "#[cfg(test)]\nmod parity_tests;\nfn live() {}\n";
        let r = regions_of(src);
        assert!(r.is_test_line(2));
        assert!(!r.is_test_line(3));
        assert_eq!(r.spans().len(), 1);
    }

    #[test]
    fn annotations_parse_and_cover_two_lines_below() {
        let src = "// pir-lint: allow(secret-flow, \"public bit\")\nif seed.lsb() {}\n";
        let ann = find_annotations(&lex(src).unwrap());
        assert_eq!(ann.allows.len(), 1);
        assert_eq!(ann.allows[0].pass, "secret-flow");
        assert!(ann.allows("secret-flow", 2));
        assert!(ann.allows("secret-flow", 3));
        assert!(!ann.allows("secret-flow", 4));
        assert!(!ann.allows("bad-annotation", 2));
    }

    #[test]
    fn malformed_annotations_are_reported() {
        // Annotations naming a retired pass are stale: its rule moved to
        // rustc/clippy, so they would suppress nothing.
        let stale = ["panic-path", "unsafe-audit", "notify-one"]
            .map(|pass| format!("// pir-lint: allow({pass}, \"x\")"));
        let malformed = [
            "// pir-lint: allow(secret-flow)",
            "// pir-lint: allow(secret-flow, \"\")",
            "// pir-lint: allow(Secret_Flow, \"x\")",
            "// pir-lint: disable(secret-flow, \"x\")",
            "// pir-lint: allow(secret-flow, \"x\"",
        ];
        for bad in malformed
            .into_iter()
            .chain(stale.iter().map(String::as_str))
        {
            let ann = find_annotations(&lex(bad).unwrap());
            assert_eq!(ann.allows.len(), 0, "{bad}");
            assert_eq!(ann.bad.len(), 1, "{bad}");
        }
    }

    #[test]
    fn annotation_in_block_comment_counts_from_its_last_line() {
        let src = "/* pir-lint: allow(secret-flow,\n   \"public bit\") */\nif seed.lsb() {}\n";
        let ann = find_annotations(&lex(src).unwrap());
        assert_eq!(ann.allows.len(), 1);
        assert!(ann.allows("secret-flow", 3));
    }
}
