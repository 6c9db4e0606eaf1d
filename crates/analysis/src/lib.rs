//! `pir-analysis` — the workspace's own static-analysis layer, exposed as
//! the `pir-lint` binary.
//!
//! One pass encodes an invariant this codebase has already paid to learn,
//! and that neither rustc nor clippy checks: **secret-flow** — in the
//! annotated modules (DPF evaluation, PRF cores, wire session), no branching
//! or data-dependent indexing on values derived from secret roots (seeds,
//! keys, query indices).
//!
//! The unsafe and panic-path rules live in the crates they govern, as lint
//! attributes on the crate roots, and the `notify_one` rule is a
//! `disallowed-methods` entry in the root `clippy.toml` (`README.md` §
//! "Static analysis").
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
