//! Finding representation and stable finding keys.
//!
//! A finding's identity must survive unrelated edits to the same file, so a
//! report can be compared across commits. Keys are therefore content-addressed,
//! not line-addressed: `pass:file:hash:occurrence`, where `hash` is an
//! FNV-1a digest of the *trimmed source line* containing the finding and
//! `occurrence` disambiguates identical lines within one file (in file
//! order). Inserting code above a finding moves its line number but not its
//! key; editing the offending line itself changes the key — which is exactly
//! the point: a changed line is a new finding and must pass the gate afresh.

use std::fmt;

/// One static-analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass that produced this (`unsafe-audit`, `secret-flow`, `panic-path`,
    /// `notify-one`, `policy`, `bad-annotation`).
    pub pass: &'static str,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line (also the content anchor of the key).
    pub snippet: String,
    /// Stable key (see module docs).
    pub key: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {}:{}: {}",
            self.pass, self.file, self.line, self.message
        )?;
        write!(f, "    | {}", self.snippet)
    }
}

/// 64-bit FNV-1a: tiny, deterministic, and dependency-free. Collisions across
/// *distinct lines of the same file* are the only thing that matters here,
/// and at 64 bits they are not a practical concern.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Assign content-addressed keys to findings (in file order). Call once per
/// file with that file's findings, after all passes ran.
pub fn assign_keys(findings: &mut [Finding]) {
    // occurrence = index among findings with the same (pass, file, hash).
    let mut seen: Vec<(String, u32)> = Vec::new();
    for f in findings.iter_mut() {
        let hash = fnv1a(f.snippet.trim().as_bytes());
        let base = format!("{}:{}:{:016x}", f.pass, f.file, hash);
        let occurrence = match seen.iter_mut().find(|(b, _)| *b == base) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                seen.push((base.clone(), 0));
                0
            }
        };
        f.key = format!("{base}:{occurrence}");
    }
}

/// Extract the trimmed text of `line` (1-based) from `src`.
pub fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(pass: &'static str, file: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            pass,
            file: file.into(),
            line,
            message: String::new(),
            snippet: snippet.into(),
            key: String::new(),
        }
    }

    #[test]
    fn keys_are_stable_under_line_shifts() {
        let mut a = vec![finding("panic-path", "f.rs", 10, "x.unwrap();")];
        let mut b = vec![finding("panic-path", "f.rs", 99, "x.unwrap();")];
        assign_keys(&mut a);
        assign_keys(&mut b);
        assert_eq!(a[0].key, b[0].key);
    }

    #[test]
    fn identical_lines_get_distinct_occurrences() {
        let mut fs = vec![
            finding("panic-path", "f.rs", 1, "x.unwrap();"),
            finding("panic-path", "f.rs", 2, "x.unwrap();"),
            finding("panic-path", "g.rs", 3, "x.unwrap();"),
        ];
        assign_keys(&mut fs);
        assert_ne!(fs[0].key, fs[1].key);
        assert!(fs[0].key.ends_with(":0"));
        assert!(fs[1].key.ends_with(":1"));
        assert!(fs[2].key.ends_with(":0"));
        assert_ne!(fs[0].key, fs[2].key);
    }

    #[test]
    fn editing_the_line_changes_the_key() {
        let mut a = vec![finding("panic-path", "f.rs", 1, "x.unwrap();")];
        let mut b = vec![finding("panic-path", "f.rs", 1, "y.unwrap();")];
        assign_keys(&mut a);
        assign_keys(&mut b);
        assert_ne!(a[0].key, b[0].key);
    }
}
