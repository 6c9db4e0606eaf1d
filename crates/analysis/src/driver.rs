//! Orchestration: walk the workspace, run the passes per the policy, and
//! apply annotation suppression.

use std::fs;
use std::path::{Path, PathBuf};

use crate::findings::Finding;
use crate::lexer;
use crate::passes::{secret_flow, FileContext};
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
    /// All unsuppressed findings, in deterministic order.
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
        if Policy::in_scope(rel, &policy.secret_paths, &policy.secret_exclude) {
            file_findings.extend(secret_flow::run(&ctx, &policy.secret_stems));
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

    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
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
