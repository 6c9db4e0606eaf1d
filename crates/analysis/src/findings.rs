//! Finding representation.

use std::fmt;

/// One static-analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass that produced this (`secret-flow` or `bad-annotation`).
    pub pass: &'static str,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
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

/// Extract the trimmed text of `line` (1-based) from `src`.
pub fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}
