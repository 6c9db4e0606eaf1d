//! Pass 2: condvar discipline — `notify_one` needs a written justification.
//!
//! This is the exact PR 5 failure class: a worker pool where some waiters are
//! parked (scaled down, draining, or waiting on a different predicate) plus a
//! single-wakeup `notify_one` equals a lost wakeup — the notification lands
//! on a thread that checks a predicate it does not own and goes back to
//! sleep, while the thread that needed it never wakes. `notify_all` is the
//! safe default on shared work queues; `notify_one` is an *optimization*
//! whose correctness argument ("every waiter's predicate is the same" or
//! "the woken thread re-notifies before parking") lives in the head of
//! whoever wrote it. This pass makes that argument part of the source:
//! every `.notify_one()` call site must carry
//! `// pir-lint: allow(notify-one, "<why this cannot lose a wakeup>")`.
//!
//! Suppression is handled by the central annotation filter; this pass just
//! reports every call site. Method *definitions* named `notify_one` (the
//! parking_lot shim) are not calls and are not flagged.

use super::{next_code, prev_code, FileContext};
use crate::findings::Finding;

pub fn run(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, tok) in ctx.toks.iter().enumerate() {
        if !tok.is_ident("notify_one") || ctx.regions.is_test_line(tok.line) {
            continue;
        }
        let after_dot = prev_code(ctx.toks, i)
            .map(|p| ctx.toks[p].is_punct('.'))
            .unwrap_or(false);
        let called = next_code(ctx.toks, i)
            .map(|n| ctx.toks[n].is_punct('('))
            .unwrap_or(false);
        if after_dot && called {
            findings.push(
                ctx.finding(
                    "notify-one",
                    tok.line,
                    "`notify_one` on a condvar: prove it cannot lose a wakeup with \
                 `// pir-lint: allow(notify-one, \"<reason>\")` or use `notify_all`"
                        .to_string(),
                ),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions::find_regions;

    fn run_on(src: &str) -> Vec<Finding> {
        let toks = lex(src).unwrap();
        let regions = find_regions(&toks);
        run(&FileContext {
            path: "x.rs",
            src,
            toks: &toks,
            regions: &regions,
        })
    }

    #[test]
    fn call_sites_are_flagged() {
        assert_eq!(run_on("fn f() { queue.arrived.notify_one(); }\n").len(), 1);
    }

    #[test]
    fn definitions_are_not_flagged() {
        assert!(run_on("impl Condvar { pub fn notify_one(&self) {} }\n").is_empty());
    }

    #[test]
    fn notify_all_is_fine() {
        assert!(run_on("fn f() { queue.arrived.notify_all(); }\n").is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { cv.notify_one(); }\n}\n";
        assert!(run_on(src).is_empty());
    }
}
