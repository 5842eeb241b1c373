//! `decaf-e2e`: the repository's benchmark.
//!
//! Gesture→commit and gesture→remote-view latency, capacity and per-layer
//! cost of three DECAF sites over real loopback TCP, on four workloads,
//! from one command. The harness drives the public API only and times it
//! from outside; see `README.md` in this crate for what each workload and
//! metric is for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod json;
pub mod measure;
pub mod micro;
pub mod node;
pub mod report;
pub mod rng;
pub mod run;
pub mod session;
pub mod spec;
pub mod workload;
