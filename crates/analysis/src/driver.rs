//! Orchestration: walk the workspace, run the passes per the policy, apply
//! annotation suppression, and assign finding keys.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::findings::{assign_keys, Finding};
use crate::lexer;
use crate::passes::{condvar, panic_path, secret_flow, unsafe_audit, FileContext};
use crate::policy::Policy;
use crate::regions::{find_annotations, find_regions};

/// A fatal driver error (I/O, lex failure): distinct from findings because
/// it means the analysis itself could not run, not that the code is bad.
#[derive(Debug)]
pub struct DriverError(pub String);

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Result of one full workspace run.
pub struct Report {
    /// All unsuppressed findings, keys assigned, in deterministic order.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
}

/// Is this path test-only by location convention (out-of-line test modules
/// and integration test trees carry no in-file `cfg` marker)?
fn path_is_test_only(rel: &str) -> bool {
    rel.split('/').any(|seg| seg == "tests" || seg == "benches")
        || rel.ends_with("_tests.rs")
        || rel.ends_with("_test.rs")
}

/// Recursively collect `.rs` files under `dir`, repo-relative, sorted.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), DriverError> {
    let entries =
        fs::read_dir(dir).map_err(|e| DriverError(format!("read_dir {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| DriverError(format!("read_dir entry: {e}")))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| DriverError(format!("{} not under root", path.display())))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Run every pass over the workspace at `root` per `policy`.
pub fn run(root: &Path, policy: &Policy) -> Result<Report, DriverError> {
    let mut files = Vec::new();
    for scan_root in &policy.scan_roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(root, &dir, &mut files)?;
        }
    }
    files.retain(|f| !Policy::under(f, &policy.global_exclude));
    files.sort();
    files.dedup();

    let mut findings: Vec<Finding> = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let src = fs::read_to_string(&abs)
            .map_err(|e| DriverError(format!("read {}: {e}", abs.display())))?;
        let toks = lexer::lex(&src).map_err(|e| DriverError(format!("{rel}: lex error: {e}")))?;
        let mut regions = find_regions(&toks);
        if path_is_test_only(rel) {
            regions.mark_whole_file();
        }
        let annotations = find_annotations(&toks);
        let ctx = FileContext {
            path: rel,
            src: &src,
            toks: &toks,
            regions: &regions,
        };

        let mut file_findings: Vec<Finding> = Vec::new();
        file_findings.extend(unsafe_audit::run(&ctx));
        if Policy::in_scope(rel, &policy.secret_paths, &policy.secret_exclude) {
            file_findings.extend(secret_flow::run(&ctx, &policy.secret_stems));
        }
        if Policy::in_scope(rel, &policy.panic_paths, &policy.panic_exclude) {
            let slice = Policy::under(rel, &policy.slice_index_paths);
            file_findings.extend(panic_path::run(&ctx, slice));
        }
        if Policy::under(rel, &policy.condvar_paths) {
            file_findings.extend(condvar::run(&ctx));
        }

        // Central annotation suppression. `bad-annotation` findings are not
        // suppressible (that would be a self-licking lollipop).
        file_findings.retain(|f| !annotations.allows(f.pass, f.line));
        for bad in &annotations.bad {
            file_findings.push(ctx.finding(
                "bad-annotation",
                bad.line,
                format!("malformed `pir-lint:` annotation: {}", bad.detail),
            ));
        }

        file_findings.sort_by_key(|f| f.line);
        findings.extend(file_findings);
    }

    // Crate-level policy checks (forbid/deny attributes on crate roots).
    findings.extend(check_crate_roots(root, policy)?);

    assign_keys(&mut findings);
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

/// Enumerate crate directories (a `Cargo.toml` next to a `src/`) under the
/// workspace and enforce the unsafe policy attributes on each crate root.
fn check_crate_roots(root: &Path, policy: &Policy) -> Result<Vec<Finding>, DriverError> {
    let mut crate_dirs: BTreeSet<String> = BTreeSet::new();
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        crate_dirs.insert(String::new()); // the workspace umbrella crate
    }
    // Two levels is enough for crates/* and crates/shims/*.
    for pattern_depth in [1, 2] {
        let mut stack = vec![root.join("crates")];
        for _ in 1..pattern_depth {
            let mut next = Vec::new();
            for dir in stack {
                if let Ok(entries) = fs::read_dir(&dir) {
                    for entry in entries.flatten() {
                        if entry.path().is_dir() {
                            next.push(entry.path());
                        }
                    }
                }
            }
            stack = next;
        }
        for dir in stack {
            if let Ok(entries) = fs::read_dir(&dir) {
                for entry in entries.flatten() {
                    let p = entry.path();
                    if p.is_dir() && p.join("Cargo.toml").is_file() && p.join("src").is_dir() {
                        let rel = p
                            .strip_prefix(root)
                            .map_err(|_| DriverError("crate outside root".into()))?
                            .to_string_lossy()
                            .replace('\\', "/");
                        crate_dirs.insert(rel);
                    }
                }
            }
        }
    }

    let mut findings = Vec::new();
    for crate_dir in &crate_dirs {
        let src_dir = if crate_dir.is_empty() {
            root.join("src")
        } else {
            root.join(crate_dir).join("src")
        };
        let root_file = ["lib.rs", "main.rs"]
            .iter()
            .map(|f| src_dir.join(f))
            .find(|p| p.is_file());
        let Some(root_file) = root_file else {
            continue; // virtual manifest or exotic layout: nothing to check
        };
        let rel_root = root_file
            .strip_prefix(root)
            .map_err(|_| DriverError("crate root outside workspace".into()))?
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&root_file)
            .map_err(|e| DriverError(format!("read {}: {e}", root_file.display())))?;
        let toks =
            lexer::lex(&src).map_err(|e| DriverError(format!("{rel_root}: lex error: {e}")))?;
        let has_attr = |outer: &str, inner: &str| -> bool {
            toks.windows(3)
                .any(|w| w[0].is_ident(outer) && w[1].is_punct('(') && w[2].is_ident(inner))
        };
        let allowed_unsafe = Policy::under(crate_dir, &policy.unsafe_allowed_crates)
            || policy.unsafe_allowed_crates.iter().any(|c| c == crate_dir);
        let mk = |line: u32, message: String| Finding {
            pass: "unsafe-audit",
            file: rel_root.clone(),
            line,
            message,
            snippet: crate::findings::line_snippet(&src, line),
            key: String::new(),
        };
        if allowed_unsafe {
            if !has_attr("deny", "unsafe_op_in_unsafe_fn") {
                findings.push(mk(
                    1,
                    format!(
                        "crate `{crate_dir}` is allowed unsafe by policy but its root \
                         lacks `#![deny(unsafe_op_in_unsafe_fn)]`"
                    ),
                ));
            }
        } else if !Policy::under(crate_dir, &policy.forbid_exempt_crates)
            && !has_attr("forbid", "unsafe_code")
        {
            let label = if crate_dir.is_empty() { "." } else { crate_dir };
            findings.push(mk(
                1,
                format!(
                    "crate `{label}` is declared unsafe-free by policy but its root \
                     lacks `#![forbid(unsafe_code)]`"
                ),
            ));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_only_paths_are_recognized() {
        assert!(path_is_test_only("crates/wire/tests/wire_properties.rs"));
        assert!(path_is_test_only("crates/bench/benches/prf_batch.rs"));
        assert!(path_is_test_only("crates/dpf/src/parity_tests.rs"));
        assert!(!path_is_test_only("crates/dpf/src/eval.rs"));
        assert!(!path_is_test_only("crates/serve/src/batcher.rs"));
    }
}
