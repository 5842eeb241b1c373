//! DECAF: a Rust reproduction of *Concurrency Control and View Notification
//! Algorithms for Collaborative Replicated Objects* (Strom, Banavar, Miller,
//! Prakash, Ward — ICDCS '97 / IEEE TC 47(4), 1998).
//!
//! DECAF extends the Model-View-Controller paradigm for synchronous
//! distributed groupware: **model objects** hold replicated application
//! state, **transactions** atomically update sets of model objects, and
//! **view objects** observe them through consistent snapshots that are
//! either *optimistic* (immediate, lossy, superseded on rollback) or
//! *pessimistic* (committed values only, lossless, monotonic).
//!
//! The concurrency-control algorithm synthesizes two techniques:
//!
//! 1. **Optimistic guess propagation** (Strom–Yemini): a transaction runs
//!    immediately at its originating site under *read-committed* (RC),
//!    *read-latest* (RL), and *no-conflict* (NC) guesses, rolling back and
//!    automatically re-executing if a guess is denied.
//! 2. **Primary-copy replication** (Chu–Hellerstein): each replication graph
//!    maps — by a pure function, with no election — to one *primary copy*
//!    whose site validates the RL/NC guesses, so commit needs one round
//!    trip to a handful of primaries instead of a global sweep.
//!
//! # Architecture
//!
//! The central type is [`Site`]: a **sans-I/O state machine** representing
//! one collaborating application instance. A site consumes protocol
//! [`Message`]s via [`Site::handle_message`], executes local
//! [`Transaction`]s via [`Site::execute`], and emits outgoing messages
//! through [`Site::drain_outbox`]. Any transport can carry the messages;
//! the `decaf-net` crate provides a deterministic simulator, a TCP mesh,
//! and the node loop that drives a site over either.
//!
//! # Quickstart
//!
//! ```
//! use decaf_core::{wiring, ObjectName, Site, Transaction, TxnCtx, TxnError};
//! use decaf_vt::SiteId;
//!
//! // Two sites sharing a replicated integer.
//! let mut a = Site::new(SiteId(1));
//! let mut b = Site::new(SiteId(2));
//! let obj_a = a.create_int(0);
//! let obj_b = b.create_int(0);
//! wiring::wire_pair(&mut a, obj_a, &mut b, obj_b);
//!
//! // A transaction incrementing the counter, originated at site A.
//! struct Incr(ObjectName);
//! impl Transaction for Incr {
//!     fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
//!         let v = ctx.read_int(self.0)?;
//!         ctx.write_int(self.0, v + 1)?;
//!         Ok(())
//!     }
//! }
//! a.execute(Box::new(Incr(obj_a)));
//!
//! // Deliver the protocol messages (normally a transport's job).
//! wiring::run_to_quiescence(&mut [&mut a, &mut b]);
//! assert_eq!(a.read_int_committed(obj_a), Some(1));
//! assert_eq!(b.read_int_committed(obj_b), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod collab;
mod engine;
mod error;
mod graph;
mod message;
mod object;
mod oracle;
mod persist;
mod stats;
mod store;
mod txn;
mod value;
mod view;
pub mod wiring;

pub use codec::{ReadTarget, SnapshotRead, SnapshotReads};
pub use collab::{Invitation, RelationId, RelationInfo};
pub use engine::{EngineEvent, Site, SiteConfig};
pub use error::{DecafError, TxnError};
pub use graph::{NodeRef, ReplicationGraph};
pub use message::{
    AssocSnapshot, Delegate, Envelope, Message, ObjectAddr, Path, PathElem, ReadItem, SpanCtx,
    SubjectKind, TreeSnapshot, TxnPropagate, UpdateItem, WireOp,
};
pub use object::{Blueprint, ObjectKind, ObjectName};
pub use oracle::{CommittedDigest, GcWatermark, TestMutation, ViewLedgerEntry, ViewLedgerKind};
pub use persist::{
    append_frame, scan_wal, Checkpoint, CheckpointError, CommitLog, CommitRecord, ObjectCheckpoint,
    Recovery, WalError, WalRecord, WalScan, WAL_FORMAT_VERSION,
};
pub use stats::{SiteStats, TransportStats};
// Re-exported so engine users can enable tracing ([`Site::set_trace_sink`])
// without naming `decaf-trace` in their own dependency list.
pub use decaf_trace::{SinkSummary, TraceEvent, TraceKind, TraceSink};
pub use txn::{AbortReason, Transaction, TxnCtx, TxnHandle, TxnOutcome};
pub use value::ScalarValue;
pub use view::{
    RecordingView, SnapshotReader, UpdateNotification, View, ViewEvent, ViewId, ViewMode,
};
