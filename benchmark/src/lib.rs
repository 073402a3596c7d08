//! The repo's benchmark: scale-tier serving (read / mutate / sketch)
//! and the paper's batch pipelines, end to end (`e2e`) and layer by
//! layer (`traced`). See `README.md` for the workloads, the metrics
//! and how they are expected to interact.
//!
//! Nothing here reaches into a layer's source: every number is taken
//! from outside, through bare public names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod driver;
pub mod graphs;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod workloads;
