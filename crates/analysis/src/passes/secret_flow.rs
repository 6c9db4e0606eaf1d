//! Pass 1: secret-flow — no branching or data-dependent indexing on
//! secret-derived values in the annotated modules.
//!
//! The PIR privacy argument requires the evaluation path to be *data
//! oblivious*: DPF seeds, PRF keys, and (client-side) query indices must not
//! select code paths or memory addresses, or a timing/cache observer learns
//! what the protocol hides. This pass is a lexical taint approximation of
//! that rule, tuned for the annotated modules the policy names:
//!
//! - **Sources.** Function parameters and struct fields whose name matches a
//!   policy *secret stem* (`seed`, `key`, `alpha`, …). Matching is by
//!   `_`-separated segment with trailing digits and a plural `s` stripped, so
//!   `seed0`, `node_seeds`, and `key_bytes` are sources but `monkey` is not.
//! - **Propagation.** Within one function body, `let` bindings and plain
//!   assignments whose right-hand side mentions a tainted identifier taint
//!   the bound names; `for pat in tainted { … }` taints the pattern.
//! - **Sinks.** An `if`/`while` condition or `match` scrutinee mentioning a
//!   tainted identifier is a `secret-flow` branch finding; an index
//!   expression `x[…tainted…]` is an indexing finding.
//!
//! The approximation is deliberately shallow — no inter-procedural flow, no
//! alias analysis — because its job is to make the *obvious* regression
//! impossible and force a written justification everywhere else:
//! `// pir-lint: allow(secret-flow, "<why this is oblivious or allowed>")`.

use super::{next_code, prev_code, FileContext};
use crate::findings::Finding;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Segments that mark a name as denoting *shape* — a position, count, or
/// size — rather than material: `key_index` is where a key sits in a batch,
/// not the key. Shapes are public in this protocol (batch sizes, domain
/// depths, and byte counts all travel in the clear), so such names never
/// taint.
const SHAPE_SEGMENTS: &[&str] = &[
    "index", "idx", "count", "len", "num", "size", "offset", "pos", "position", "start", "end",
    "base", "depth", "width",
];

/// Projections of a secret value that yield public shape: `seeds.len()` is
/// a batch size, `key.depth` is the (public) tree depth. A tainted
/// identifier mentioned only through one of these is not a secret mention.
const PUBLIC_PROJECTIONS: &[&str] = &[
    "len",
    "is_empty",
    "capacity",
    "size_bytes",
    "depth",
    "domain_size",
    "config",
    "rows",
    "cols",
    "party",
    "kind",
    "label",
    "total_blocks",
    "block_index",
    "params",
];

/// Does `name` match a secret stem? Segment-wise: `node_seeds` → {node,
/// seeds} → `seeds` → strip plural/digits → `seed`. A shape segment
/// anywhere in the name vetoes the match (`key_index` is public).
pub fn is_secret_name(name: &str, stems: &[String]) -> bool {
    let segments: Vec<String> = name
        .split('_')
        .map(|seg| {
            seg.trim_end_matches(|c: char| c.is_ascii_digit())
                .to_ascii_lowercase()
        })
        .collect();
    if segments
        .iter()
        .any(|seg| SHAPE_SEGMENTS.contains(&seg.as_str()))
    {
        return false;
    }
    segments.iter().any(|seg| {
        stems
            .iter()
            .any(|stem| seg == stem || (seg.strip_suffix('s') == Some(stem.as_str())))
    })
}

/// Find the matching closer for the opener at `open` (same-kind nesting).
fn matching(toks: &[Tok], open: usize, open_ch: char, close_ch: char) -> Option<usize> {
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

/// Any identifier in `toks` that is a live secret mention?
///
/// An identifier counts when it is tainted (by set membership or by name)
/// *unless* the mention itself is public:
///
/// - method names are not values: in `map.contains_key(id)` the identifier
///   `contains_key` (preceded by `.`, followed by `(`) mentions nothing;
/// - a projection to public shape declassifies: `seeds.len()`, `key.depth`.
fn mentions_tainted(toks: &[Tok], taint: &BTreeSet<String>, stems: &[String]) -> Option<String> {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let after_dot = prev_code(toks, i)
            .map(|p| toks[p].is_punct('.'))
            .unwrap_or(false);
        // A field-position identifier (`frontier.tile`) names a *field*, not
        // a local: the taint set (which tracks locals) does not apply, only
        // the secret-stem naming rule does (`frontier.seeds` is secret
        // because fields named after secrets hold them).
        let hit = if after_dot {
            is_secret_name(&t.text, stems)
        } else {
            taint.contains(&t.text) || is_secret_name(&t.text, stems)
        };
        if !hit {
            continue;
        }
        // Method name, not a value.
        let called = next_code(toks, i)
            .map(|n| toks[n].is_punct('('))
            .unwrap_or(false);
        if after_dot && called {
            continue;
        }
        // Projection to public shape: `<ident>.len()` / `<ident>.depth`.
        if let Some(dot) = next_code(toks, i) {
            if toks[dot].is_punct('.') {
                if let Some(proj) = next_code(toks, dot) {
                    if toks[proj].kind == TokKind::Ident
                        && PUBLIC_PROJECTIONS.contains(&toks[proj].text.as_str())
                    {
                        continue;
                    }
                }
            }
        }
        return Some(t.text.clone());
    }
    None
}

/// Collect binding identifiers out of a pattern token slice (everything
/// ident-like except keywords and obvious type names — uppercase initial or
/// primitive). A top-level `:` starts the type annotation, which binds
/// nothing (`let x: Vec<u64> = …` must not taint `u64`).
fn pattern_idents(toks: &[Tok]) -> Vec<String> {
    let mut depth = 0i32;
    let mut end = toks.len();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(':') && depth == 0 {
            end = i;
            break;
        }
    }
    toks[..end]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .filter(|t| !matches!(t.text.as_str(), "mut" | "ref" | "box" | "_"))
        .filter(|t| !t.text.starts_with(char::is_uppercase))
        .filter(|t| !is_primitive(&t.text))
        .map(|t| t.text.clone())
        .collect()
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, `in [..]`, …).
fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "where"
            | "mut"
            | "ref"
            | "move"
            | "static"
            | "const"
            | "let"
            | "as"
            | "dyn"
            | "impl"
            | "for"
            | "while"
            | "loop"
            | "unsafe"
            | "fn"
            | "use"
            | "pub"
            | "crate"
            | "self"
            | "super"
            | "type"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "extern"
            | "box"
            | "await"
            | "async"
            | "yield"
    )
}

/// Primitive type names that may appear lowercase inside patterns' type
/// annotations or casts.
fn is_primitive(word: &str) -> bool {
    matches!(
        word,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "bool"
            | "char"
            | "str"
    )
}

/// Scan tokens from `start` until a `;` at relative depth zero (or the end
/// of `end_excl`). Returns the index one past the `;` and the slice range.
fn statement_end(toks: &[Tok], start: usize, end_excl: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut i = start;
    while i < end_excl {
        let t = &toks[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace < 0 {
                return i;
            }
        } else if t.is_punct(';') && paren == 0 && bracket == 0 && brace == 0 {
            return i;
        }
        i += 1;
    }
    end_excl
}

pub fn run(ctx: &FileContext<'_>, stems: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = ctx.toks;
    let mut i = 0;
    while i < toks.len() {
        // Find `fn <name>` item heads; skip fn-pointer types (`fn(` without
        // a name).
        if toks[i].is_ident("fn") {
            let name_idx = next_code(toks, i);
            let is_named = name_idx
                .map(|n| toks[n].kind == TokKind::Ident)
                .unwrap_or(false);
            if is_named {
                // Body = first `{` after the header (signatures cannot
                // contain braces in this codebase's grammar subset). A `;`
                // inside brackets is an array type (`key: [u8; 16]`), not
                // the end of a bodiless declaration.
                let mut j = name_idx.expect("checked is_named") + 1;
                let mut body_open = None;
                let mut depth = 0i32;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if t.is_punct('{') {
                        body_open = Some(j);
                        break;
                    } else if t.is_punct(';') && depth <= 0 {
                        break; // trait method declaration, no body
                    }
                    j += 1;
                }
                if let Some(open) = body_open {
                    let close = matching(toks, open, '{', '}').unwrap_or(toks.len() - 1);
                    analyze_fn(ctx, &toks[..=close], open, close, stems, &mut findings);
                    // Functions do not nest in this codebase's hot paths;
                    // closures inside are analyzed as part of this body.
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    findings
}

/// Analyze one function body `toks[open..=close]` (the full file slice is
/// passed so indices line up; the header precedes `open`).
fn analyze_fn(
    ctx: &FileContext<'_>,
    toks: &[Tok],
    open: usize,
    close: usize,
    stems: &[String],
    findings: &mut Vec<Finding>,
) {
    // Seed taint: secret-named identifiers anywhere count via
    // `mentions_tainted`; the explicit set tracks propagation into
    // innocently-named locals. Two sweeps reach the fixpoint for the
    // straight-line chains this pass models (a → b → c needs one sweep per
    // hop only when declarations precede uses, which they do in Rust).
    let mut taint: BTreeSet<String> = BTreeSet::new();
    for _ in 0..3 {
        let before = taint.len();
        let mut i = open + 1;
        while i < close {
            let t = &toks[i];
            if t.is_ident("let") {
                // `let <pat> = <rhs>;` — pattern up to the `=` (skipping a
                // possible `: Type` annotation is unnecessary: type names are
                // filtered by `pattern_idents`).
                let mut eq = i + 1;
                let mut depth = 0i32;
                let mut found_eq = false;
                while eq < close {
                    let e = &toks[eq];
                    if e.is_punct('(') || e.is_punct('[') || e.is_punct('<') {
                        depth += 1;
                    } else if e.is_punct(')') || e.is_punct(']') || e.is_punct('>') {
                        depth -= 1;
                    } else if e.is_punct(';') && depth <= 0 {
                        break;
                    } else if e.is_punct('=') && depth <= 0 {
                        // Not `==`/`=>`/`<=` etc.: `let` patterns cannot
                        // contain comparison operators at depth 0.
                        found_eq = true;
                        break;
                    }
                    eq += 1;
                }
                if found_eq {
                    let stmt_end = statement_end(toks, eq + 1, close);
                    if mentions_tainted(&toks[eq + 1..stmt_end], &taint, stems).is_some() {
                        for ident in pattern_idents(&toks[i + 1..eq]) {
                            taint.insert(ident);
                        }
                    }
                    i = stmt_end + 1;
                    continue;
                }
            }
            // Plain assignment `x = <rhs>;` / `x op= <rhs>;`.
            if t.kind == TokKind::Ident
                && !taint.contains(&t.text)
                && prev_code(toks, i)
                    .map(|p| !toks[p].is_punct('.'))
                    .unwrap_or(true)
            {
                if let Some(n) = next_code(toks, i) {
                    let assign = toks[n].is_punct('=')
                        && next_code(toks, n)
                            .map(|n2| !toks[n2].is_punct('='))
                            .unwrap_or(true)
                        && prev_code(toks, n).map(|p| p == i).unwrap_or(false);
                    if assign {
                        let stmt_end = statement_end(toks, n + 1, close);
                        if mentions_tainted(&toks[n + 1..stmt_end], &taint, stems).is_some() {
                            taint.insert(t.text.clone());
                        }
                    }
                }
            }
            // `for <pat> in <iter> {`: taint pattern if iter is tainted.
            if t.is_ident("for") {
                let mut k = i + 1;
                while k < close && !toks[k].is_ident("in") {
                    if toks[k].is_punct('{') {
                        break;
                    }
                    k += 1;
                }
                if k < close && toks[k].is_ident("in") {
                    let mut b = k + 1;
                    let mut depth = 0i32;
                    while b < close {
                        let e = &toks[b];
                        if e.is_punct('(') || e.is_punct('[') {
                            depth += 1;
                        } else if e.is_punct(')') || e.is_punct(']') {
                            depth -= 1;
                        } else if e.is_punct('{') && depth == 0 {
                            break;
                        }
                        b += 1;
                    }
                    if mentions_tainted(&toks[k + 1..b], &taint, stems).is_some() {
                        for ident in pattern_idents(&toks[i + 1..k]) {
                            taint.insert(ident);
                        }
                    }
                }
            }
            i += 1;
        }
        if taint.len() == before {
            break;
        }
    }

    // Sink sweep: branches and indexing.
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if ctx.regions.is_test_line(t.line) {
            i += 1;
            continue;
        }
        if t.is_ident("if") || t.is_ident("while") || t.is_ident("match") {
            // Condition/scrutinee: tokens up to the `{` at relative depth 0.
            let mut b = i + 1;
            let mut depth = 0i32;
            while b < close {
                let e = &toks[b];
                if e.is_punct('(') || e.is_punct('[') {
                    depth += 1;
                } else if e.is_punct(')') || e.is_punct(']') {
                    depth -= 1;
                } else if e.is_punct('{') && depth == 0 {
                    break;
                } else if e.is_punct(';') && depth == 0 {
                    break; // `while` in a macro or malformed; stop scanning
                }
                b += 1;
            }
            if let Some(name) = mentions_tainted(&toks[i + 1..b], &taint, stems) {
                findings.push(ctx.finding(
                    "secret-flow",
                    t.line,
                    format!(
                        "`{}` on secret-derived `{}`: evaluation must be data-oblivious",
                        t.text, name
                    ),
                ));
                // One finding per branch head, not per tainted ident.
            }
            i = b;
            continue;
        }
        if t.is_punct('[') {
            let indexes_value = prev_code(toks, i)
                .map(|p| {
                    let prev = &toks[p];
                    (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
                        || prev.is_punct(')')
                        || prev.is_punct(']')
                })
                .unwrap_or(false);
            if indexes_value {
                if let Some(end) = matching(toks, i, '[', ']') {
                    if end <= close {
                        if let Some(name) = mentions_tainted(&toks[i + 1..end], &taint, stems) {
                            findings.push(ctx.finding(
                                "secret-flow",
                                t.line,
                                format!(
                                    "indexing with secret-derived `{name}`: memory access \
                                     pattern must not depend on secrets"
                                ),
                            ));
                        }
                        i = end + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions::find_regions;

    fn stems() -> Vec<String> {
        ["seed", "key", "alpha", "secret"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn run_on(src: &str) -> Vec<Finding> {
        let toks = lex(src).unwrap();
        let regions = find_regions(&toks);
        run(
            &FileContext {
                path: "x.rs",
                src,
                toks: &toks,
                regions: &regions,
            },
            &stems(),
        )
    }

    #[test]
    fn stem_matching_strips_digits_and_plurals() {
        let s = stems();
        for yes in [
            "seed",
            "seed0",
            "seeds",
            "node_seed",
            "key_bytes",
            "alpha",
            "keys",
        ] {
            assert!(is_secret_name(yes, &s), "{yes}");
        }
        for no in ["monkey", "seeded", "index", "mask", "row", "keyboard"] {
            assert!(!is_secret_name(no, &s), "{no}");
        }
    }

    #[test]
    fn branch_on_secret_param_is_flagged() {
        let f = run_on("fn eval(seed: u128) -> u8 { if seed & 1 == 1 { 1 } else { 0 } }\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("seed"));
    }

    #[test]
    fn branch_on_derived_local_is_flagged() {
        let src = "fn eval(seed: u128) -> u8 {\n    let bit = (seed >> 7) & 1;\n    let hidden = bit + 1;\n    if hidden == 2 { 1 } else { 0 }\n}\n";
        let f = run_on(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn indexing_by_secret_is_flagged() {
        let f = run_on("fn eval(table: &[u8], key: usize) -> u8 { table[key & 0xff] }\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("key"));
    }

    #[test]
    fn public_branches_and_indexing_are_fine() {
        let src = "fn eval(rows: &[u8], n: usize) -> u8 {\n    let mut acc = 0;\n    for i in 0..n {\n        if i % 2 == 0 { acc ^= rows[i]; }\n    }\n    acc\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn match_on_secret_is_flagged() {
        let f = run_on("fn f(alpha: u8) -> u8 { match alpha & 1 { 0 => 1, _ => 2 } }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn for_loop_taints_its_binding() {
        let src = "fn f(seed_bits: &[bool]) -> u8 {\n    let mut n = 0;\n    for b in seed_bits {\n        if *b { n += 1; }\n    }\n    n\n}\n";
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn branchless_select_is_clean() {
        let src = "fn leaf(seed: u128, cw: u128) -> u128 {\n    let bit = (seed & 1) as u128;\n    let mask = bit.wrapping_neg();\n    seed ^ (cw & mask)\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn plain_assignment_propagates() {
        let src = "fn f(key: u64) -> u8 {\n    let mut x = 0u64;\n    x = key >> 3;\n    if x > 4 { 1 } else { 0 }\n}\n";
        let f = run_on(src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn field_name_colliding_with_tainted_local_is_not_a_mention() {
        // `buf.tile` is a field of an untainted base; the *local* `tile`
        // being tainted must not leak through the like-named field.
        let src = "fn f(buf: &Buf, seeds: &[u8]) -> u8 {\n    let tile = seeds[0];\n    let tile_len = buf.tile;\n    if tile_len > 4 { 1 } else { 0 }\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn secret_named_field_of_untainted_base_is_a_mention() {
        let src = "fn f(buf: &Buf) -> u8 { if buf.seed & 1 == 1 { 1 } else { 0 } }\n";
        assert_eq!(run_on(src).len(), 1);
    }

    #[test]
    fn chained_public_projection_declassifies() {
        let src = "fn f(key: &Key) -> usize { let d = key.params.domain_size; if d > 4 { d } else { 0 } }\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(seed: u64) -> u8 { if seed > 0 { 1 } else { 0 } }\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn array_literals_types_attrs_and_macros_are_not_indexing() {
        let src = "#[derive(Debug)]\nfn f(seed: u8) { let a: [u8; 2] = [seed, 2]; let v = vec![seed]; let [x, y] = a; return [seed]; }\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn chained_and_call_result_indexing_is_flagged() {
        let src = "fn f(key: usize) { g()[key]; m[1][key]; }\n";
        // g()[key], and [key] after `]`; m[1] indexes by a public value.
        assert_eq!(run_on(src).len(), 2);
    }

    #[test]
    fn array_typed_signatures_are_analyzed() {
        // The `;` of an array type must not end the header scan: both bodies
        // are analyzed, and a bodiless declaration still has none.
        let src =
            "fn f(columns: &[[u32; 4]; 11], seed: u64) -> u8 { if seed > 0 { 1 } else { 0 } }\n\
                   fn g(key: [u8; 16]) -> [u8; 16];\n\
                   fn h(x: [u8; 2], key: usize) -> u8 { x[key] }\n";
        let f = run_on(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].line, f[1].line), (1, 3));
    }

    #[test]
    fn separate_functions_do_not_share_taint() {
        let src =
            "fn a(seed: u64) -> u64 { seed }\nfn b(x: u64) -> u64 { if x > 0 { 1 } else { 0 } }\n";
        assert!(run_on(src).is_empty());
    }
}
