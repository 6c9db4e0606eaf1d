//! `pir-analysis` — the workspace's own static-analysis layer, exposed as
//! the `pir-lint` binary.
//!
//! Four passes encode invariants this codebase has already paid to learn:
//!
//! 1. **unsafe-audit** — every `unsafe` needs an adjacent `// SAFETY:`
//!    comment (or `# Safety` doc section on items); crates the policy
//!    declares unsafe-free must carry `#![forbid(unsafe_code)]`, and crates
//!    allowed unsafe must carry `#![deny(unsafe_op_in_unsafe_fn)]`.
//! 2. **secret-flow** — in the annotated modules (DPF evaluation, PRF cores,
//!    wire session), no branching or data-dependent indexing on values
//!    derived from secret roots (seeds, keys, query indices).
//! 3. **panic-path** — no `unwrap`/`expect`/`panic!` in runtime code of the
//!    serving tower, and no plain slice indexing in the untrusted-input wire
//!    codec.
//! 4. **condvar-discipline** — every `.notify_one()` call site must carry a
//!    written lost-wakeup argument (the PR 5 autoscaler deadlock class).
//!
//! Any finding fails the gate; the one escape hatch is an adjacent
//! `// pir-lint: allow(<pass>, "<reason>")` annotation (grammar in
//! `README.md` § "Static analysis").
//!
//! Everything is hand-rolled (lexer included) because the linter must stay
//! dependency-free: it gates the build, so it cannot depend on the build.

#![forbid(unsafe_code)]

pub mod driver;
pub mod findings;
pub mod lexer;
pub mod passes;
pub mod policy;
pub mod regions;
