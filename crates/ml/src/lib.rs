//! ML substrate for private embedding retrieval.
//!
//! The paper's end-to-end claims are about *applications*: on-device
//! recommendation models (MovieLens-20M, Taobao) and an LSTM language model
//! (WikiText-2) whose embedding tables live on servers and are fetched with
//! PIR. This crate models what the PIR system sees of those applications:
//!
//! * [`embedding`] — float embedding tables plus the fixed-point quantization
//!   that turns them into byte entries a PIR server can host,
//! * [`datasets`] — synthetic workload generators standing in for the public
//!   datasets (same table sizes, entry sizes, queries-per-inference and
//!   Zipf-like access skew; the module docs give the substitution rationale),
//! * [`workload`] — access-pattern statistics (frequencies, co-occurrence,
//!   sessions) consumed by the PIR co-design search,
//! * [`quality`] — the model-quality-vs-dropped-queries relationship that the
//!   co-design optimizer trades against system cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod embedding;
pub mod quality;
pub mod workload;

pub use datasets::{DatasetCatalog, DatasetKind, SyntheticDataset};
pub use embedding::EmbeddingTable;
pub use quality::{QualityMetric, QualityModel};
pub use workload::{AccessWorkload, ZipfSampler};
