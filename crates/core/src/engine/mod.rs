//! The site engine: a sans-I/O state machine implementing the paper's
//! concurrency-control (§3) and view-notification (§4) algorithms.

mod collab;
mod exec;
mod failure;
mod handlers;
mod recovery;
mod views;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, DefaultHasher};

use decaf_vt::{LamportClock, SiteId, VirtualTime};

use crate::collab::{GraphTxn, JoinOp};
use crate::error::DecafError;
use crate::graph::{NodeRef, ReplicationGraph};
use crate::message::{Envelope, Message, TxnPropagate};
use crate::object::{ObjectKind, ObjectName, ObjectValue};
use crate::stats::SiteStats;
use crate::store::Store;
use crate::txn::{Transaction, TxnHandle, TxnOutcome};
use crate::value::ScalarValue;
use crate::view::{ViewId, ViewMode, ViewProxy};

/// An installed authorization monitor (paper §1: "users may also code
/// authorization monitors to restrict access to sensitive objects").
pub(crate) type Authorizer = Box<dyn Fn(&crate::collab::Invitation, NodeRef) -> bool + Send>;

/// The hasher of the engine's two large VT-keyed maps, `remote` and
/// `decided`: std's SipHash under a zero key, the same in every process. A
/// walk over either map whose order reaches behaviour sorts what it collects
/// (DESIGN.md §8); every other engine container is a `BTreeMap`/`BTreeSet`
/// and walks in key order.
///
/// Without a per-process key a peer could choose VTs that collide. The
/// engine already trusts its peers' VTs and traffic: §3.4 has no Byzantine
/// sites (the same argument as the store's `NameHasher` makes for names).
pub(crate) type FixedState = BuildHasherDefault<DefaultHasher>;

/// Tuning knobs for a [`Site`].
#[derive(Debug, Clone, Copy)]
pub struct SiteConfig {
    /// How many times a conflict-aborted transaction is automatically
    /// re-executed before giving up (paper §2.4 implies unbounded; a budget
    /// keeps livelock detectable in experiments).
    pub retry_budget: u32,
    /// Whether the delegate-commit optimization (§3.1) is enabled — the
    /// `a1_delegate` ablation turns it off.
    pub delegate_enabled: bool,
    /// Whether view proxies record a notification ledger for the
    /// model-checking oracles (see [`crate::ViewLedgerEntry`]). Off by
    /// default: the ledger grows with every delivery.
    pub view_ledger: bool,
    /// Whether the site captures a durable
    /// [`CommitRecord`](crate::CommitRecord) for every committed
    /// transaction (drained with [`Site::drain_wal`] and kept in the
    /// in-memory committed log that serves peer catch-up). Off by default:
    /// capture snapshots every written object on the commit path.
    pub durable: bool,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            retry_budget: 64,
            delegate_enabled: true,
            view_ledger: false,
            durable: false,
        }
    }
}

/// A locally originated transaction awaiting its guesses.
pub(crate) struct PendingTxn {
    pub handle_id: u64,
    pub txn: Box<dyn Transaction>,
    /// Objects written (targets of rollback on abort).
    pub touched: BTreeSet<ObjectName>,
    /// Objects on which this site reserved intervals locally (released on
    /// abort).
    pub reserved_local: BTreeSet<ObjectName>,
    /// Primary sites whose Confirm is outstanding.
    pub awaiting: BTreeSet<SiteId>,
    /// RC guesses: uncommitted transactions whose commit we await.
    pub rc_waits: BTreeSet<VirtualTime>,
    /// Sites that must receive the summary COMMIT/ABORT.
    pub affected: BTreeSet<SiteId>,
    /// Commit decision delegated to the single remote primary (§3.1).
    pub delegate_site: Option<SiteId>,
    pub retries_left: u32,
    /// Per written object, the `tR` carried in its updates (pessimistic
    /// views use it as reservation coverage, §5.1.2).
    pub write_tr: BTreeMap<ObjectName, VirtualTime>,
    /// The propagate batch sent to each peer, retained on durable sites so
    /// a peer that crashed before voting can be re-sent its copy when it
    /// rejoins (empty when `SiteConfig::durable` is off).
    pub sent_batches: Vec<(SiteId, TxnPropagate)>,
}

impl fmt::Debug for PendingTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingTxn")
            .field("handle_id", &self.handle_id)
            .field("awaiting", &self.awaiting)
            .field("rc_waits", &self.rc_waits)
            .field("delegate_site", &self.delegate_site)
            .finish()
    }
}

/// A remote transaction whose updates were applied at this site.
#[derive(Debug, Default, Clone)]
pub(crate) struct RemoteTxn {
    pub origin: SiteId,
    /// Applied objects with the `tR` their update carried.
    pub objects: BTreeMap<ObjectName, VirtualTime>,
    /// Objects whose replication graph changed at this VT.
    pub graph_objects: BTreeSet<ObjectName>,
    /// Join-adopted values applied at their original (older) VTs:
    /// `(object, value VT)` — committed/purged at that VT, not the txn's.
    pub adopted: Vec<(ObjectName, VirtualTime)>,
}

/// State of an in-doubt-transaction resolution this site coordinates after
/// an originator failure (§3.4).
#[derive(Debug)]
pub(crate) struct OutcomeQueryState {
    pub expecting: BTreeSet<SiteId>,
    pub any_commit: bool,
}

/// Coordinator state of a graph-repair consensus round (§3.4, primary-site
/// failure).
#[derive(Debug)]
pub(crate) struct ConsensusState {
    pub object: ObjectName,
    pub graph: ReplicationGraph,
    pub at: VirtualTime,
    pub awaiting: BTreeSet<SiteId>,
    /// Per-site local object names, for the Apply broadcast.
    pub targets: BTreeMap<SiteId, ObjectName>,
}

/// Observable engine happenings, for harnesses to timestamp and analyze.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineEvent {
    /// A locally submitted transaction finished its (optimistic) local
    /// execution at `vt`.
    TxnExecuted {
        /// The transaction's handle.
        handle: TxnHandle,
        /// VT of this attempt.
        vt: VirtualTime,
    },
    /// The transaction at `vt` is known committed at this site.
    TxnCommitted {
        /// The committed transaction.
        vt: VirtualTime,
        /// Whether it originated here.
        local_origin: bool,
    },
    /// The transaction at `vt` is known aborted at this site.
    TxnAborted {
        /// The aborted transaction.
        vt: VirtualTime,
        /// Whether it originated here.
        local_origin: bool,
        /// Whether an automatic retry was scheduled.
        retried: bool,
    },
    /// A remote transaction's updates were applied here (pre-commit).
    RemoteApplied {
        /// The remote transaction.
        vt: VirtualTime,
        /// The objects whose values changed.
        objects: Vec<ObjectName>,
    },
    /// A view received an update notification.
    ViewUpdated {
        /// The notified view.
        view: ViewId,
        /// Snapshot VT.
        ts: VirtualTime,
        /// The view's mode.
        mode: ViewMode,
    },
    /// An optimistic view received a commit notification.
    ViewCommitted {
        /// The notified view.
        view: ViewId,
        /// VT of the snapshot that proved committed.
        ts: VirtualTime,
    },
    /// A join operation finished.
    JoinCompleted {
        /// The local object that joined.
        object: ObjectName,
        /// The join transaction.
        vt: VirtualTime,
        /// Whether it committed.
        ok: bool,
    },
    /// This site finished reacting to a failure notification.
    SiteFailureHandled {
        /// The failed site.
        failed: SiteId,
    },
}

/// One collaborating application instance: the DECAF engine.
///
/// `Site` is sans-I/O: it never performs network operations itself.
/// Drive it by calling [`execute`](Site::execute) /
/// [`handle_message`](Site::handle_message) /
/// [`notify_site_failed`](Site::notify_site_failed), then deliver whatever
/// [`drain_outbox`](Site::drain_outbox) returns. See the crate docs for a
/// complete example.
pub struct Site {
    pub(crate) id: SiteId,
    pub(crate) config: SiteConfig,
    pub(crate) clock: LamportClock,
    pub(crate) store: Store,
    pub(crate) outbox: Vec<Envelope>,
    /// Two clock readings that bound the snapshot tokens whose CONFIRM-READ
    /// can still be in the outbox: above the reading at the last
    /// [`Site::drain_outbox`], at or below the reading when the newest
    /// request was queued (0 when none has been since). A token is a clock
    /// value, minted before its request is queued, so `retire_snapshot` does
    /// not look for one outside the two: no per-token state, and nothing to
    /// do on a site whose snapshots never ask.
    pub(crate) outbox_drained_at: u64,
    pub(crate) snap_requested_at: u64,
    pub(crate) events: Vec<EngineEvent>,
    pub(crate) stats: SiteStats,
    /// Structured trace sink; the default disabled sink makes every emit
    /// point a single branch (no allocation, no lock).
    pub(crate) trace: decaf_trace::TraceSink,

    pub(crate) next_handle: u64,
    /// Highest Lamport value seen on an envelope from each peer (FIFO
    /// links make this a safe pruning horizon for decided-outcome records).
    pub(crate) last_seen_from: BTreeMap<SiteId, u64>,
    /// Reply-free messages received per peer since our last send to them;
    /// a heartbeat goes out when this passes the ack threshold so the
    /// peer's GC horizon keeps advancing.
    pub(crate) silent_received: BTreeMap<SiteId, u32>,
    pub(crate) pending: BTreeMap<VirtualTime, PendingTxn>,
    pub(crate) handle_outcome: BTreeMap<u64, TxnOutcome>,
    pub(crate) remote: HashMap<VirtualTime, RemoteTxn, FixedState>,
    pub(crate) decided: HashMap<VirtualTime, TxnOutcome, FixedState>,
    /// Messages whose application blocked on a missing structural
    /// dependency (§3.2.1), retried after each state change.
    pub(crate) buffered: Vec<(SiteId, TxnPropagate)>,

    pub(crate) views: BTreeMap<ViewId, ViewProxy>,
    pub(crate) next_view: u64,
    /// Snapshot token → owning view (Confirm/Deny routing).
    pub(crate) snap_tokens: BTreeMap<VirtualTime, ViewId>,

    /// Snapshot CONFIRM-READ requests blocked only by *uncommitted* writes
    /// in their interval: parked until those writes decide (§4 deferral).
    pub(crate) parked_snaps: Vec<(VirtualTime, SiteId, crate::codec::SnapshotReads)>,
    pub(crate) joins: BTreeMap<VirtualTime, JoinOp>,
    pub(crate) graph_txns: BTreeMap<VirtualTime, GraphTxn>,
    pub(crate) next_relation: u64,
    pub(crate) authorizer: Option<Authorizer>,

    pub(crate) failed_sites: BTreeSet<SiteId>,
    pub(crate) outcome_queries: BTreeMap<VirtualTime, OutcomeQueryState>,
    pub(crate) consensus: BTreeMap<u64, ConsensusState>,
    pub(crate) next_ballot: u64,
    /// Transactions aborted by a primary failure, re-executed after the
    /// graph repair commits (§3.4).
    pub(crate) retry_after_repair: Vec<(u64, Box<dyn Transaction>)>,
    /// Per fail-stopped site, the graph of each local direct object as it
    /// stood when a repair pruned the site out: where its replica sat and
    /// which edges held it. Kept until the site rejoins, when the live
    /// primary re-admits it ([`Site::readmit`]).
    pub(crate) repaired_out: BTreeMap<SiteId, BTreeMap<ObjectName, ReplicationGraph>>,

    /// Bookkeeping of the most recent GC sweep, for the checker's
    /// straggler-view oracle (see [`crate::GcWatermark`]).
    pub(crate) last_gc: Option<crate::oracle::GcWatermark>,
    /// Seeded protocol bug, injected only by checker self-tests.
    pub(crate) mutation: Option<crate::oracle::TestMutation>,

    /// Durable sites only: every commit this site has fully applied, by
    /// VT — the dedup guard for catch-up redelivery and the source a live
    /// peer streams from when a rejoiner announces its frontier. Never
    /// pruned (commit records are small; pruning would silently cap how
    /// far behind a rejoiner may fall — future work is checkpoint-anchored
    /// truncation).
    pub(crate) committed_log: BTreeMap<VirtualTime, crate::persist::CommitRecord>,
    /// Commit records captured since the last [`Site::drain_wal`], in
    /// commit order; the I/O layer appends them to the on-disk log.
    pub(crate) wal_queue: Vec<crate::persist::CommitRecord>,
    /// Peers whose `RejoinAck` is outstanding after [`Site::begin_rejoin`].
    pub(crate) rejoin_awaiting: BTreeSet<SiteId>,
    /// Gestures submitted while rejoining, deferred until every ack is in.
    pub(crate) rejoin_deferred: Vec<(u64, Box<dyn Transaction>)>,
}

impl fmt::Debug for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Site")
            .field("id", &self.id)
            .field("pending", &self.pending.len())
            .field("views", &self.views.len())
            .finish()
    }
}

impl Site {
    /// Creates a site with the default [`SiteConfig`].
    pub fn new(id: SiteId) -> Self {
        Self::with_config(id, SiteConfig::default())
    }

    /// Creates a site with an explicit configuration.
    pub fn with_config(id: SiteId, config: SiteConfig) -> Self {
        Site {
            id,
            config,
            clock: LamportClock::new(id),
            store: Store::new(id),
            outbox: Vec::new(),
            outbox_drained_at: 0,
            snap_requested_at: 0,
            events: Vec::new(),
            stats: SiteStats::default(),
            trace: decaf_trace::TraceSink::disabled(),
            next_handle: 0,
            last_seen_from: BTreeMap::new(),
            silent_received: BTreeMap::new(),
            pending: BTreeMap::new(),
            handle_outcome: BTreeMap::new(),
            remote: HashMap::default(),
            decided: HashMap::default(),
            buffered: Vec::new(),
            views: BTreeMap::new(),
            next_view: 0,
            snap_tokens: BTreeMap::new(),
            parked_snaps: Vec::new(),
            joins: BTreeMap::new(),
            graph_txns: BTreeMap::new(),
            next_relation: 0,
            authorizer: None,
            failed_sites: BTreeSet::new(),
            outcome_queries: BTreeMap::new(),
            consensus: BTreeMap::new(),
            next_ballot: 0,
            retry_after_repair: Vec::new(),
            repaired_out: BTreeMap::new(),
            last_gc: None,
            mutation: None,
            committed_log: BTreeMap::new(),
            wal_queue: Vec::new(),
            rejoin_awaiting: BTreeSet::new(),
            rejoin_deferred: Vec::new(),
        }
    }

    /// This site's identifier.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The statistics accumulated so far. The trace sink's dropped-event
    /// counter is folded in so end-of-run reports expose trace loss.
    pub fn stats(&self) -> SiteStats {
        let mut stats = self.stats;
        stats.trace_events_dropped = self.trace.dropped();
        stats
    }

    /// Installs a trace sink; engine events (transaction lifecycle, view
    /// notification, GC, failure handling) are emitted into it from then
    /// on. Pass [`TraceSink::disabled`](decaf_trace::TraceSink::disabled)
    /// to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: decaf_trace::TraceSink) {
        self.trace = sink;
    }

    /// The installed trace sink (disabled by default). Cloning the handle
    /// shares the underlying ring, so callers can export a JSONL snapshot
    /// or read histogram summaries while the engine keeps emitting.
    pub fn trace_sink(&self) -> &decaf_trace::TraceSink {
        &self.trace
    }

    /// Shorthand for emitting an engine-side trace event: converts the
    /// engine's [`VirtualTime`] to the trace layer's scalar pair and
    /// derives the causal span from the subject VT — `(owner, lamport)`
    /// is exactly the span key wire envelopes carry, so engine events
    /// (commits, view notifications) stitch into the same cross-site
    /// span as the transport's send/receive events.
    #[inline]
    pub(crate) fn trace_emit(
        &self,
        kind: decaf_trace::TraceKind,
        vt: Option<VirtualTime>,
        peer: Option<SiteId>,
        n: Option<u64>,
    ) {
        self.trace.emit_span(
            kind,
            vt.map(|t| (t.lamport, t.site.0)),
            peer.map(|p| p.0),
            n,
            vt.map(|t| (t.site.0, t.lamport, u32::from(t.site != self.id))),
        );
    }

    /// Removes and returns the messages this site wants delivered.
    pub fn drain_outbox(&mut self) -> Vec<Envelope> {
        // No CONFIRM-READ leaves for a snapshot this site no longer holds
        // (`retire_snapshot`, DESIGN §8).
        debug_assert!(self.outbox.iter().all(|env| match &env.msg {
            Message::SnapshotConfirm { subject, .. } => self.snap_tokens.contains_key(subject),
            _ => true,
        }));
        self.outbox_drained_at = self.clock.counter();
        self.snap_requested_at = 0;
        std::mem::take(&mut self.outbox)
    }

    /// Removes and returns the engine events since the last drain.
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether this site has no in-flight work (pending transactions,
    /// joins, buffered stragglers, an in-progress rejoin, or unsent
    /// messages).
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty()
            && self.joins.is_empty()
            && self.graph_txns.is_empty()
            && self.buffered.is_empty()
            && self.rejoin_awaiting.is_empty()
            && self.rejoin_deferred.is_empty()
            && self.outbox.is_empty()
    }

    pub(crate) fn send(&mut self, to: SiteId, msg: Message) {
        if to == self.id {
            // Loopback: handle immediately rather than hitting the network.
            self.dispatch(self.id, msg);
            return;
        }
        // Counted here and un-counted if `retire_snapshot` takes the
        // envelope back, so `msgs_sent` is what left. `silent_received` is
        // not restored for a retired envelope: that delays one heartbeat by
        // at most eight messages, whereas resetting at the drain instead
        // would add heartbeats (each a `run_gc` at the peer) inside every
        // batch of received messages.
        self.stats.msgs_sent += 1;
        self.silent_received.insert(to, 0);
        // Stamp the causal trace context: the subject VT's owner is the
        // span origin, and relayed traffic about somebody else's subject
        // counts one hop more than originated traffic.
        let span = msg.witnessed_vt().map(|vt| crate::message::SpanCtx {
            origin: vt.site,
            seq: vt.lamport,
            hop: u32::from(vt.site != self.id),
        });
        self.outbox.push(Envelope {
            from: self.id,
            to,
            clock: self.clock.now(),
            msg,
            span,
        });
    }

    // ---- object creation --------------------------------------------------

    /// Creates an integer model object with a committed initial value.
    pub fn create_int(&mut self, v: i64) -> ObjectName {
        self.store
            .create_root(ObjectKind::Int, ObjectValue::Scalar(ScalarValue::Int(v)))
    }

    /// Creates a real model object with a committed initial value.
    pub fn create_real(&mut self, v: f64) -> ObjectName {
        self.store
            .create_root(ObjectKind::Real, ObjectValue::Scalar(ScalarValue::Real(v)))
    }

    /// Creates a string model object with a committed initial value.
    pub fn create_str(&mut self, v: impl Into<String>) -> ObjectName {
        self.store.create_root(
            ObjectKind::Str,
            ObjectValue::Scalar(ScalarValue::Str(v.into())),
        )
    }

    /// Creates an empty list model object.
    pub fn create_list(&mut self) -> ObjectName {
        self.store
            .create_root(ObjectKind::List, ObjectValue::empty_list())
    }

    /// Creates an empty tuple model object.
    pub fn create_tuple(&mut self) -> ObjectName {
        self.store
            .create_root(ObjectKind::Tuple, ObjectValue::empty_tuple())
    }

    /// Creates an empty association object (§2.6).
    pub fn create_association(&mut self) -> ObjectName {
        self.store
            .create_root(ObjectKind::Association, ObjectValue::empty_assoc())
    }

    // ---- read-side conveniences (outside transactions) --------------------

    /// The latest *committed* integer value of `object`, if any.
    pub fn read_int_committed(&self, object: ObjectName) -> Option<i64> {
        let obj = self.store.get(object).ok()?;
        obj.values.latest_committed()?.value.as_scalar()?.as_int()
    }

    /// The current (possibly uncommitted) integer value of `object`.
    pub fn read_int_current(&self, object: ObjectName) -> Option<i64> {
        let obj = self.store.get(object).ok()?;
        obj.values.current()?.value.as_scalar()?.as_int()
    }

    /// The latest committed real value of `object`, if any.
    pub fn read_real_committed(&self, object: ObjectName) -> Option<f64> {
        let obj = self.store.get(object).ok()?;
        obj.values.latest_committed()?.value.as_scalar()?.as_real()
    }

    /// The latest committed string value of `object`, if any.
    pub fn read_str_committed(&self, object: ObjectName) -> Option<String> {
        let obj = self.store.get(object).ok()?;
        obj.values
            .latest_committed()?
            .value
            .as_scalar()?
            .as_str()
            .map(str::to_owned)
    }

    /// The current children of a list object.
    pub fn list_children_current(&self, list: ObjectName) -> Vec<ObjectName> {
        self.store
            .get(list)
            .ok()
            .and_then(|o| o.values.current())
            .and_then(|e| {
                e.value
                    .as_list()
                    .map(|s| s.iter().map(|le| le.child).collect())
            })
            .unwrap_or_default()
    }

    /// The current keyed children of a tuple object.
    pub fn tuple_children_current(&self, tuple: ObjectName) -> Vec<(String, ObjectName)> {
        self.store
            .get(tuple)
            .ok()
            .and_then(|o| o.values.current())
            .and_then(|e| {
                e.value
                    .as_tuple()
                    .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
            })
            .unwrap_or_default()
    }

    /// Number of value-history entries currently retained for `object`
    /// (exposed for GC verification and benchmarks).
    pub fn history_len(&self, object: ObjectName) -> usize {
        self.store.get(object).map(|o| o.values.len()).unwrap_or(0)
    }

    /// Dumps a description of in-flight work (debugging/tests).
    #[doc(hidden)]
    pub fn debug_stuck(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (vt, p) in &self.pending {
            let _ = write!(
                out,
                "pending {vt}: awaiting={:?} rc={:?} delegate={:?}; ",
                p.awaiting, p.rc_waits, p.delegate_site
            );
        }
        for (from, p) in &self.buffered {
            let _ = write!(
                out,
                "buffered from={from} txn={} decided={:?} updates={:?} reads={}; ",
                p.txn,
                self.decided.get(&p.txn),
                p.updates
                    .iter()
                    .map(|u| format!("{:?} op={:?}", u.addr, u.op))
                    .collect::<Vec<_>>(),
                p.reads.len()
            );
        }
        if !self.joins.is_empty() {
            let _ = write!(out, "joins={}; ", self.joins.len());
        }
        if !self.graph_txns.is_empty() {
            let _ = write!(out, "graph_txns={}; ", self.graph_txns.len());
        }
        if !self.parked_snaps.is_empty() {
            let _ = write!(out, "parked={}; ", self.parked_snaps.len());
        }
        if !self.rejoin_awaiting.is_empty() {
            let _ = write!(out, "rejoin_awaiting={:?}; ", self.rejoin_awaiting);
        }
        if !self.rejoin_deferred.is_empty() {
            let _ = write!(out, "rejoin_deferred={}; ", self.rejoin_deferred.len());
        }
        out
    }

    /// Dumps `(vt, committed)` pairs of an object's value history (tests).
    #[doc(hidden)]
    pub fn debug_history(&self, object: ObjectName) -> Vec<(VirtualTime, bool)> {
        self.store
            .get(object)
            .map(|o| o.values.iter().map(|e| (e.vt, e.committed)).collect())
            .unwrap_or_default()
    }

    /// How many objects at this site carry their own replication graph
    /// (direct propagation mode) — the storage metric of the paper's §3.2
    /// space argument, exposed for the `a2_propagation` ablation.
    pub fn direct_graph_count(&self) -> usize {
        self.store
            .objects()
            .filter(|o| o.propagation == crate::object::PropagationMode::Direct)
            .count()
    }

    /// Total number of objects hosted at this site.
    pub fn object_count(&self) -> usize {
        self.store.objects().count()
    }

    /// Number of live write-free reservations held for `object` at this
    /// site (meaningful at its primary).
    pub fn reservation_count(&self, object: ObjectName) -> usize {
        self.store
            .get(object)
            .map(|o| o.value_reservations.len())
            .unwrap_or(0)
    }

    /// The replication graph currently governing `object`.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist here.
    pub fn replication_graph(&self, object: ObjectName) -> Result<ReplicationGraph, DecafError> {
        self.store.effective_graph(object).map(|(g, _)| g.clone())
    }

    /// The primary copy currently selected for `object`'s graph.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist here.
    pub fn primary_of(&self, object: ObjectName) -> Result<NodeRef, DecafError> {
        self.store.primary_of(object)
    }

    /// The final outcome of a transaction submitted here, if decided.
    pub fn txn_outcome(&self, handle: TxnHandle) -> Option<TxnOutcome> {
        self.handle_outcome.get(&handle.id).copied()
    }

    // ---- internal helpers shared across submodules -------------------------

    /// Mutable access to the store (crate-internal wiring support).
    pub(crate) fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    // ---- persistence support (crate-internal; see `persist`) ---------------

    pub(crate) fn store_objects(&self) -> impl Iterator<Item = &crate::object::ModelObject> {
        self.store.objects()
    }

    pub(crate) fn clock_snapshot(&self) -> LamportClock {
        self.clock.clone()
    }

    pub(crate) fn store_next_seq(&self) -> u64 {
        self.store.next_seq()
    }

    pub(crate) fn decided_snapshot(&self) -> &HashMap<VirtualTime, TxnOutcome, FixedState> {
        &self.decided
    }

    pub(crate) fn next_relation_counter(&self) -> u64 {
        self.next_relation
    }

    pub(crate) fn restore_clock(&mut self, clock: LamportClock) {
        self.clock = clock;
    }

    pub(crate) fn restore_decided(
        &mut self,
        decided: HashMap<VirtualTime, TxnOutcome, FixedState>,
    ) {
        self.decided = decided;
    }

    pub(crate) fn restore_relation_counter(&mut self, next: u64) {
        self.next_relation = next;
    }

    pub(crate) fn restore_store(
        &mut self,
        next_seq: u64,
        objects: impl Iterator<Item = crate::object::ModelObject>,
    ) {
        self.store.set_next_seq(next_seq);
        for obj in objects {
            self.store.insert_object(obj);
        }
    }

    /// Garbage-collects histories and reservations below the site's low
    ///-water mark (paper §3: "histories are garbage-collected as
    /// transactions commit").
    pub(crate) fn run_gc(&mut self) {
        // The low-water mark is the smallest VT any pending work may still
        // read: pending local txns, undecided remote txns, and undelivered
        // pessimistic snapshots.
        let mut low = VirtualTime::new(u64::MAX, SiteId(u32::MAX));
        for vt in self.pending.keys() {
            low = low.min(*vt);
        }
        for (vt, _) in self
            .remote
            .iter()
            .filter(|(vt, _)| !self.decided.contains_key(vt))
        {
            low = low.min(*vt);
        }
        for proxy in self.views.values() {
            if let Some(snap) = &proxy.opt {
                low = low.min(snap.ts);
            }
            if let Some((vt, _)) = proxy.pess.iter().next() {
                low = low.min(*vt);
            }
            // A pessimistic proxy may yet have to snapshot a committed
            // straggler anywhere above its monotonic frontier; its guess
            // lower bounds come from committed history entries, so nothing
            // newer than the frontier may be collected.
            if proxy.mode == ViewMode::Pessimistic {
                low = low.min(proxy.last_notified_vt);
            }
        }
        // Histories and reservations are the RL/NC evidence against
        // *racing* stale writes: a peer can still deliver a message with
        // any VT above the clock we last witnessed from it (links are
        // FIFO), so nothing above any live peer's horizon may be
        // collected. What the horizon proves is only that no message from
        // that peer *to this site* is still in flight below it; it does not
        // prove that a third site has received everything below it, which
        // is how a pessimistic view can still lose a committed update over
        // TCP (ROADMAP direction 2).
        let mut peers = self.store.graph_sites();
        peers.remove(&self.id);
        for peer in peers {
            if self.failed_sites.contains(&peer) {
                continue;
            }
            let seen = self.last_seen_from.get(&peer).copied().unwrap_or(0);
            low = low.min(VirtualTime::new(seen, peer));
        }
        let discarded = self.store.sweep(low);
        self.stats.gc_discarded += discarded as u64;
        // Record the sweep for the checker's straggler-view oracle. The
        // pessimistic frontier is recomputed here independently of the
        // `low` fold above, so `low <= pess_frontier` is a genuine
        // cross-check rather than true by construction.
        let mut pess_frontier: Option<VirtualTime> = None;
        for proxy in self.views.values() {
            if proxy.mode == ViewMode::Pessimistic {
                let f = proxy.last_notified_vt;
                pess_frontier = Some(pess_frontier.map_or(f, |p| p.min(f)));
            }
        }
        self.last_gc = Some(crate::oracle::GcWatermark {
            low,
            pess_frontier,
            discarded: discarded as u64,
        });
        if discarded > 0 {
            self.trace_emit(
                decaf_trace::TraceKind::GcSweep,
                Some(low),
                None,
                Some(discarded as u64),
            );
        }

        // Prune decided-outcome and remote-transaction records that no
        // in-flight message can still reference. Links are FIFO, so any
        // future message from peer S carries an envelope clock at least
        // `last_seen_from[S]`; keep a generous margin for the recovery
        // protocols, which may reference older transactions.
        let peer_min = self
            .last_seen_from
            .values()
            .copied()
            .min()
            .unwrap_or_else(|| self.clock.counter());
        let horizon = peer_min.saturating_sub(4096).min(low.lamport);
        // Order matters: drop decided remote records first (while the
        // decided table can still classify them), then decided outcomes not
        // referenced anywhere.
        self.remote
            .retain(|vt, _| vt.lamport >= horizon || !self.decided.contains_key(vt));
        self.decided.retain(|vt, _| {
            vt.lamport >= horizon || self.pending.contains_key(vt) || self.remote.contains_key(vt)
        });
    }
}
