//! End-to-end tests for the `pir-lint` binary: seeded violations must fail
//! and the committed workspace must pass.

use std::path::PathBuf;
use std::process::Command;

/// A throwaway workspace under the system temp dir, removed on drop.
struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("pir-lint-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
    }

    fn path(&self, rel: &str) -> String {
        self.root.join(rel).to_string_lossy().into_owned()
    }

    fn root(&self) -> String {
        self.root.to_string_lossy().into_owned()
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Run the built `pir-lint` binary; return (exit code, stdout, stderr).
fn run_lint(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pir-lint"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const POLICY: &str = r#"
[workspace]
scan_roots = crates

[secret-flow]
paths = crates/app/src
secret_stems = seed, key
"#;

/// One violation per pass.
fn seed_violations(tree: &TempTree) {
    tree.write("ci/lint_policy.cfg", POLICY);
    tree.write(
        "crates/app/src/lib.rs",
        r#"pub fn branch_on_secret(seed: u64, table: &[u8]) -> u8 {
    if seed & 1 == 1 {
        table[0]
    } else {
        0
    }
}
"#,
    );
}

#[test]
fn seeded_violations_trip_every_pass() {
    let tree = TempTree::new("seeded");
    seed_violations(&tree);
    let (code, stdout, stderr) = run_lint(&[
        "--root",
        &tree.root(),
        "--policy",
        &tree.path("ci/lint_policy.cfg"),
    ]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("[secret-flow]"),
        "missing [secret-flow] in:\n{stdout}"
    );
}

#[test]
fn clean_tree_passes() {
    let tree = TempTree::new("clean");
    tree.write("ci/lint_policy.cfg", POLICY);
    tree.write(
        "crates/app/src/lib.rs",
        r#"pub fn lookup(position: usize, table: &[u8]) -> Option<u8> {
    table.get(position).copied()
}
"#,
    );
    let (code, stdout, stderr) = run_lint(&[
        "--root",
        &tree.root(),
        "--policy",
        &tree.path("ci/lint_policy.cfg"),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("0 findings"), "{stdout}");
}

#[test]
fn annotations_suppress_findings() {
    let tree = TempTree::new("annotated");
    tree.write("ci/lint_policy.cfg", POLICY);
    tree.write(
        "crates/app/src/lib.rs",
        r#"pub fn branch_on_secret(seed: u64, table: &[u8]) -> u8 {
    // pir-lint: allow(secret-flow, "the low bit of this seed is public")
    if seed & 1 == 1 {
        table[0]
    } else {
        0
    }
}
"#,
    );
    let (code, stdout, _) = run_lint(&[
        "--root",
        &tree.root(),
        "--policy",
        &tree.path("ci/lint_policy.cfg"),
    ]);
    assert_eq!(code, 0, "{stdout}");
}

/// The committed workspace and policy must pass the gate — this
/// is exactly what the CI lint job runs.
#[test]
fn committed_workspace_is_clean() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let (code, stdout, stderr) = run_lint(&[
        "--root",
        &repo_root.to_string_lossy(),
        "--policy",
        &repo_root.join("ci/lint_policy.cfg").to_string_lossy(),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
}
