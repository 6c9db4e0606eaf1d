//! The analysis pass, a pure function from a lexed file to findings. Scope decisions (which files a pass sees) live in the driver;
//! suppression by `pir-lint: allow(...)` annotations is applied centrally
//! after the pass ran, so it reports unconditionally.

pub mod secret_flow;

use crate::findings::{line_snippet, Finding};
use crate::lexer::Tok;
use crate::regions::Regions;

/// Everything a pass needs to know about one file.
pub struct FileContext<'a> {
    /// Repo-relative `/`-separated path.
    pub path: &'a str,
    /// Raw source (for snippets).
    pub src: &'a str,
    /// Token stream.
    pub toks: &'a [Tok],
    /// Test-region classification.
    pub regions: &'a Regions,
}

impl FileContext<'_> {
    /// Build a finding at `line`.
    pub fn finding(&self, pass: &'static str, line: u32, message: String) -> Finding {
        Finding {
            pass,
            file: self.path.to_string(),
            line,
            message,
            snippet: line_snippet(self.src, line),
        }
    }
}

/// Index of the previous non-comment token before `i`, if any.
pub fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| !t.is_comment())
}

/// Index of the next non-comment token after `i`, if any.
pub fn next_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[i + 1..]
        .iter()
        .position(|t| !t.is_comment())
        .map(|off| i + 1 + off)
}
