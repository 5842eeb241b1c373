//! Structured event tracing for DECAF sites: events, bounded ring sinks,
//! log2 latency histograms, JSONL export, and offline replay.
//!
//! The paper's evaluation (§5.1–§5.2) is entirely about *observed*
//! behavior — commit latency in units of the one-way delay `t`, rollback
//! rate versus update rate, transient-view inconsistency windows. This
//! crate is the instrument that makes those claims measurable on the real
//! transports, not just the simulator:
//!
//! * [`TraceEvent`] / [`TraceKind`] — a flat, `Copy` event model covering
//!   transaction lifecycle, view notification, and transport activity,
//!   with a dependency-free JSONL codec;
//! * [`TraceSink`] — a clone-able per-site sink: bounded ring buffer with
//!   drop-oldest semantics and a dropped-events counter, plus live
//!   latency histograms (commit latency, view staleness, queue depth).
//!   The disabled sink costs one branch per emit — no allocation, no
//!   lock — so emit points stay compiled into release builds;
//! * [`Histogram`] / [`HistSummary`] — 65 log2 buckets tiling the whole
//!   `u64` range, with p50/p95/p99 digests;
//! * [`Replay`] / [`SiteReplay`] — offline reconstruction of the same
//!   digests from exported JSONL, powering `decaf-trace-summarize`;
//! * [`Stitcher`] / [`StitchReport`] — multi-site causal stitching: pair
//!   sends with receives by the envelope-carried span key, estimate
//!   per-link clock skew (minimum one-way delay), and reconstruct per-VT
//!   end-to-end spans with critical-path breakdowns, powering
//!   `decaf-trace-stitch` and the model checker's trace-completeness
//!   oracle;
//! * [`metrics`] — Prometheus text exposition (counters, gauges, and the
//!   log2 histograms as cumulative buckets) behind `decaf-site`'s live
//!   `/metrics` endpoint.
//!
//! This crate intentionally has **zero dependencies** (not even
//! `decaf-vt`): virtual times cross its API as plain `(lamport, site)`
//! pairs, so the tracing layer can sit beneath every other crate in the
//! workspace without widening the sanctioned dependency set.
//!
//! # Example
//!
//! ```
//! use decaf_trace::{Replay, TraceKind, TraceSink};
//!
//! let sink = TraceSink::enabled(1, 1024);
//! sink.emit_at(0, TraceKind::TxnBegin, Some((4, 1)), None, None);
//! sink.emit_at(2_000, TraceKind::Commit, Some((4, 1)), None, Some(1));
//!
//! let mut jsonl = Vec::new();
//! sink.write_jsonl(&mut jsonl).unwrap();
//!
//! let mut replay = Replay::new();
//! replay.observe_jsonl(std::str::from_utf8(&jsonl).unwrap()).unwrap();
//! assert_eq!(replay.sites()[&1].commit_lat_ns.max(), 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod event;
mod hist;
pub mod metrics;
mod sink;
pub mod stitch;

pub use analyze::{Replay, SiteReplay};
pub use event::{ParseError, TraceEvent, TraceKind};
pub use hist::{HistSummary, Histogram, BUCKETS};
pub use sink::{SinkSummary, TraceSink};
pub use stitch::{StitchReport, Stitcher};
