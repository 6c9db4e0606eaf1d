//! The policy manifest: which passes cover which paths, and which
//! identifiers are secret roots.
//!
//! The manifest is a deliberately tiny line format (`ci/lint_policy.cfg`)
//! rather than TOML/JSON — the linter is dependency-free and the grammar fits
//! in a page:
//!
//! ```text
//! # comment
//! [section]
//! key = value, value, value
//! ```
//!
//! Unknown sections or keys are *errors*, not warnings: a typo in the policy
//! must not silently un-scope a pass.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed policy manifest. Paths are repo-relative prefixes with `/`
/// separators; a file is in scope for a pass if its path starts with any of
/// the pass's `paths` entries and none of its `exclude` entries.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Directories (repo-relative) scanned for `.rs` files.
    pub scan_roots: Vec<String>,
    /// Path prefixes excluded from all passes (vendored shims, generated).
    pub global_exclude: Vec<String>,
    /// Per-pass path scopes.
    pub secret_paths: Vec<String>,
    pub secret_exclude: Vec<String>,
    /// Identifier stems treated as secret roots (see `secret_flow`).
    pub secret_stems: Vec<String>,
}

/// A policy parse failure with its line number.
#[derive(Debug)]
pub struct PolicyError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

fn err(line: u32, message: impl Into<String>) -> PolicyError {
    PolicyError {
        line,
        message: message.into(),
    }
}

impl Policy {
    /// Parse the manifest text.
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        let mut sections: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return Err(err(line_no, "unterminated section header"));
                };
                let name = name.trim().to_string();
                if !matches!(name.as_str(), "workspace" | "secret-flow") {
                    return Err(err(line_no, format!("unknown section `[{name}]`")));
                }
                sections.entry(name.clone()).or_default();
                current = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(line_no, "expected `key = values` or `[section]`"));
            };
            let Some(section) = &current else {
                return Err(err(line_no, "key outside any [section]"));
            };
            let key = key.trim().to_string();
            let known = matches!(
                (section.as_str(), key.as_str()),
                ("workspace", "scan_roots" | "exclude")
                    | ("secret-flow", "paths" | "exclude" | "secret_stems")
            );
            if !known {
                return Err(err(line_no, format!("unknown key `{key}` in [{section}]")));
            }
            let values: Vec<String> = value
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            let slot = sections
                .get_mut(section)
                .expect("section inserted on header")
                .entry(key)
                .or_default();
            slot.extend(values);
        }

        let get = |section: &str, key: &str| -> Vec<String> {
            sections
                .get(section)
                .and_then(|s| s.get(key))
                .cloned()
                .unwrap_or_default()
        };

        let policy = Policy {
            scan_roots: get("workspace", "scan_roots"),
            global_exclude: get("workspace", "exclude"),
            secret_paths: get("secret-flow", "paths"),
            secret_exclude: get("secret-flow", "exclude"),
            secret_stems: get("secret-flow", "secret_stems"),
        };
        if policy.scan_roots.is_empty() {
            return Err(err(
                0,
                "[workspace] scan_roots must name at least one directory",
            ));
        }
        Ok(policy)
    }

    /// Is `path` (repo-relative, `/`-separated) under any prefix in `list`?
    pub fn under(path: &str, list: &[String]) -> bool {
        list.iter().any(|p| {
            path == p || path.starts_with(&format!("{p}/")) || (p.ends_with(".rs") && path == *p)
        })
    }

    /// In scope for a (paths, exclude) pair?
    pub fn in_scope(path: &str, paths: &[String], exclude: &[String]) -> bool {
        Self::under(path, paths) && !Self::under(path, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# sample
[workspace]
scan_roots = crates, src
exclude = crates/shims

[secret-flow]
paths = crates/dpf/src, crates/wire/src/session.rs
exclude = crates/dpf/src/gen.rs
secret_stems = seed, key
";

    #[test]
    fn parses_sections_and_lists() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(p.scan_roots, vec!["crates", "src"]);
        assert_eq!(
            p.secret_paths,
            vec!["crates/dpf/src", "crates/wire/src/session.rs"]
        );
        assert_eq!(p.secret_stems, vec!["seed", "key"]);
    }

    #[test]
    fn unknown_keys_and_sections_are_errors() {
        assert!(Policy::parse("[workspace]\nscan_roots = x\n[bogus]\n").is_err());
        // Sections of retired passes are unknown too: their rules now live
        // in crate-root lint attributes and, for `notify_one`, in the root
        // clippy.toml. A policy still scoping one fails, not checks less.
        assert!(Policy::parse("[workspace]\nscan_roots = x\n[panic-path]\n").is_err());
        assert!(Policy::parse("[workspace]\nscan_roots = x\n[unsafe-audit]\n").is_err());
        let err =
            Policy::parse("[workspace]\nscan_roots = x\n[condvar]\npaths = crates\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown section `[condvar]`"), "{err}");
        assert!(Policy::parse("[workspace]\nscan_roots = x\nwat = y\n").is_err());
        assert!(Policy::parse("orphan = 1\n").is_err());
        assert!(Policy::parse("# only comments\n").is_err());
    }

    #[test]
    fn scope_matching_is_prefix_based() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert!(Policy::in_scope(
            "crates/dpf/src/eval.rs",
            &p.secret_paths,
            &p.secret_exclude
        ));
        assert!(!Policy::in_scope(
            "crates/dpf/src/gen.rs",
            &p.secret_paths,
            &p.secret_exclude
        ));
        assert!(Policy::in_scope(
            "crates/wire/src/session.rs",
            &p.secret_paths,
            &p.secret_exclude
        ));
        assert!(!Policy::in_scope(
            "crates/wire/src/codec.rs",
            &p.secret_paths,
            &p.secret_exclude
        ));
        // Prefix means path components: crates/dpf2 is not under crates/dpf.
        assert!(!Policy::under(
            "crates/dpf2/src/x.rs",
            &["crates/dpf".to_string()]
        ));
    }
}
