//! `pir-load` — deterministic trace-driven traffic for the PIR serving
//! stack.
//!
//! The serving tower (`pir-serve`, `pir-wire`, `pir-cluster`) is exercised
//! everywhere else by unit-sized bursts. This crate generates *realistic*
//! demand — Zipf-skewed indices, diurnal rate swings, flash crowds — as a
//! fully deterministic schedule ([`TraceConfig`]), replays it against an
//! in-process runtime or a wire session ([`replay()`]), and condenses the
//! outcome into a structured [`SoakReport`] the CI soak gate asserts on.
//!
//! Determinism is the design center: a trace is a pure function of its
//! config (arrival times from a fractional-accumulator integration, indices
//! from a seeded Zipf sampler), so two builds replayed under the same config
//! see byte-identical offered load.
//!
//! **Privacy note.** The client-side hot-entry cache the replay layers over
//! [`pir_protocol::HotEntryCache`] never changes what goes on the wire: a
//! hit suppresses a lookup entirely, a miss issues the exact query a
//! cacheless client would. Hit-rate accounting lives in the client process
//! and is reported only by this harness, never transmitted to the servers.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod replay;
pub mod report;
pub mod trace;

pub use replay::{
    replay, LookupOutcome, OutcomeKind, ReplayConfig, ReplayError, ReplayResult, RequestRecord,
    RuntimeTarget, SessionTarget, SoakTarget,
};
pub use report::{
    AutoscaleSummary, LatencySummary, OutcomeCounts, PhaseSummary, SoakReport, TenantSummary,
    TierSummary,
};
pub use trace::{
    Diurnal, FlashCrowd, Phase, TenantSpec, Trace, TraceConfig, TraceError, TraceRequest,
};
