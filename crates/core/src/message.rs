//! The DECAF wire protocol.
//!
//! All inter-site communication is expressed as [`Message`] values inside
//! [`Envelope`]s. The protocol is exactly the paper's (§3, §4):
//!
//! * [`Message::Txn`] carries a transaction's WRITEs and CONFIRM-READ
//!   requests to one destination site (one message per relevant site);
//! * [`Message::Confirm`]/[`Message::Deny`] are primary-site verdicts on
//!   RL/NC guesses, routed back to the requester;
//! * [`Message::Commit`]/[`Message::Abort`] are the originator's (or
//!   delegate's) summary decision broadcast to all affected sites;
//! * [`Message::SnapshotConfirm`] carries a view snapshot's RL guesses to
//!   primary copies (§4);
//! * the `Join*`/`GraphUpdate` messages implement dynamic collaboration
//!   establishment (§3.3);
//! * the `Outcome*`/`Graph*` recovery messages implement client-failure
//!   handling (§3.4).

use decaf_vt::{SiteId, VirtualTime};

use crate::codec::SnapshotReads;
use crate::collab::RelationId;
use crate::graph::{NodeRef, ReplicationGraph};
use crate::object::{AssocState, Blueprint, ObjectName};
use crate::txn::TxnOutcome;
use crate::value::ScalarValue;

/// Causal trace context stamped on outbound envelopes: which site's
/// gesture this message ultimately serves, and how far it has traveled.
///
/// Pure observability — the protocol never consults it. The
/// `(origin, seq)` pair is the *span key*: every message, commit, and
/// view event across the mesh stamped with the same pair belongs to one
/// end-to-end causal span, which is what lets `decaf-trace-stitch` pair a
/// `MsgSend` at one site with the matching `MsgRecv` at another and
/// reconstruct gesture → local commit → remote commits → view notified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanCtx {
    /// The site owning the subject virtual time (where the gesture ran).
    pub origin: SiteId,
    /// The subject VT's Lamport component — origin-local sequence number.
    pub seq: u64,
    /// 0 when the sender originated the subject, incremented each time a
    /// site relays traffic about somebody else's subject.
    pub hop: u32,
}

impl SpanCtx {
    /// The scalar triple `(origin, seq, hop)` the trace layer records.
    pub fn as_trace(&self) -> (u32, u64, u32) {
        (self.origin.0, self.seq, self.hop)
    }
}

/// A message together with its source and destination.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// The sender's Lamport clock at send time; the receiver witnesses it
    /// so local virtual times dominate everything causally prior.
    pub clock: VirtualTime,
    /// Payload.
    pub msg: Message,
    /// Causal trace context, when the payload has a VT subject. Absent on
    /// the wire for span-less messages (heartbeats, graph acks): it rides
    /// as a trailing optional section of the encoding.
    pub span: Option<SpanCtx>,
}

/// One element of a composite path.
///
/// Paths name objects embedded in composites. List elements carry the VT at
/// which the child was embedded as a *tag*, because raw indices are fragile
/// under concurrent structural changes (§3.2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathElem {
    /// A list position: index hint plus the embedding transaction's VT tag
    /// (the tag is authoritative; the index accelerates lookup).
    Index {
        /// Position at the originating site when the path was formed.
        index: usize,
        /// VT of the transaction that embedded the child.
        tag: VirtualTime,
    },
    /// A tuple key.
    Key(String),
}

/// A path from a composite root down to an embedded object, e.g. the
/// paper's `A[103][John][12]`.
///
/// A one-element path is kept inline, with no heap memory of its own: it
/// is the shape of every list child's address under its root, so a view
/// snapshot over a list builds one per object it reads, and the primary
/// decodes one per item it checks, without allocating (the CONFIRM-READ
/// itself holds their coding, [`SnapshotReads`]). Two or more elements go
/// in a `Vec`. Equality and hashing see only the
/// elements (`elems`), whatever the representation.
#[derive(Clone, Default)]
pub struct Path(PathRepr);

#[derive(Clone, Default)]
enum PathRepr {
    #[default]
    Root,
    One(PathElem),
    /// Two or more elements, never fewer.
    Many(Vec<PathElem>),
}

impl Path {
    /// The empty path (the root itself).
    pub fn root() -> Self {
        Path(PathRepr::Root)
    }

    /// Whether this path addresses the root itself.
    pub(crate) fn is_root(&self) -> bool {
        matches!(self.0, PathRepr::Root)
    }

    /// The elements, from the root down.
    pub fn elems(&self) -> &[PathElem] {
        match &self.0 {
            PathRepr::Root => &[],
            PathRepr::One(e) => std::slice::from_ref(e),
            PathRepr::Many(v) => v,
        }
    }

    /// Appends one element below the path's last.
    pub(crate) fn push(&mut self, elem: PathElem) {
        self.0 = match std::mem::take(&mut self.0) {
            PathRepr::Root => PathRepr::One(elem),
            PathRepr::One(first) => PathRepr::Many(vec![first, elem]),
            PathRepr::Many(mut v) => {
                // Paths sit in outbound queues as they are: no spare capacity.
                v.reserve_exact(1);
                v.push(elem);
                PathRepr::Many(v)
            }
        };
    }
}

impl From<PathElem> for Path {
    fn from(elem: PathElem) -> Self {
        Path(PathRepr::One(elem))
    }
}

impl From<Vec<PathElem>> for Path {
    fn from(mut elems: Vec<PathElem>) -> Self {
        Path(match elems.len() {
            0 => PathRepr::Root,
            1 => PathRepr::One(elems.pop().expect("one element")),
            _ => PathRepr::Many(elems),
        })
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        self.elems() == other.elems()
    }
}

impl Eq for Path {}

impl std::hash::Hash for Path {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.elems().hash(state);
    }
}

impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Path").field(&self.elems()).finish()
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for e in self.elems() {
            match e {
                PathElem::Index { index, tag } => write!(f, "[{index}#{tag}]")?,
                PathElem::Key(k) => write!(f, "[{k}]")?,
            }
        }
        Ok(())
    }
}

/// How an update or read addresses an object at the destination site.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectAddr {
    /// The object is directly replicated: addressed by its local name at
    /// the destination (taken from the replication graph).
    Direct(ObjectName),
    /// The object is embedded in a composite and uses indirect propagation:
    /// addressed by the destination's local name for the enclosing direct
    /// root, plus the VT-tagged path (§3.2).
    Indirect {
        /// Destination-local name of the enclosing direct-mode object.
        root: ObjectName,
        /// Path from that root to the target.
        path: Path,
    },
}

/// A deep snapshot of an object's (sub)tree, used when a joining object
/// adopts the value of the relationship it joins (§3.3) and when replicas
/// instantiate embedded children.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeSnapshot {
    /// A scalar value.
    Scalar(ScalarValue),
    /// A list with each child's embedding tag preserved (tags must survive
    /// the copy so later indirect paths resolve at the new replica).
    List(Vec<(VirtualTime, TreeSnapshot)>),
    /// A tuple of keyed children.
    Tuple(Vec<(String, TreeSnapshot)>),
    /// An association object's relationships.
    Assoc(AssocSnapshot),
}

/// Opaque wire form of an association object's value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AssocSnapshot(pub(crate) AssocState);

impl AssocSnapshot {
    /// Builds a snapshot from `(relation, members, description)` rows.
    pub fn from_wire_parts(
        parts: impl IntoIterator<Item = (RelationId, Vec<NodeRef>, String)>,
    ) -> Self {
        let state: AssocState = parts
            .into_iter()
            .map(|(id, members, description)| {
                (
                    id,
                    crate::object::Relation {
                        members: members.into_iter().collect(),
                        description,
                    },
                )
            })
            .collect();
        AssocSnapshot(state)
    }
}

/// The state-update operation carried by a propagated write.
///
/// "For scalar objects it suffices to distribute the final value; for
/// composite objects it is usually efficient to distribute the change as an
/// increment" (§3.1 fn. 1) — hence structural ops rather than whole values.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Overwrite a scalar's value.
    SetScalar(ScalarValue),
    /// Insert a child into a list at `index` (clamped; `usize::MAX`
    /// appends), tagged with the writing transaction's VT.
    ListInsert {
        /// Position hint at the originator.
        index: usize,
        /// The new child's subtree.
        child: Blueprint,
    },
    /// Remove the list entry whose embedding tag is `tag`.
    ListRemove {
        /// Tag of the entry to remove.
        tag: VirtualTime,
    },
    /// Put a keyed child into a tuple (replacing any existing child).
    TuplePut {
        /// The key.
        key: String,
        /// The new child's subtree.
        child: Blueprint,
    },
    /// Remove a tuple's keyed child.
    TupleRemove {
        /// The key.
        key: String,
    },
    /// Overwrite an association object's value.
    SetAssoc(AssocSnapshot),
    /// Overwrite an object's entire subtree (join-value adoption).
    SetTree(TreeSnapshot),
}

/// One object update within a [`TxnPropagate`].
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateItem {
    /// The target object, addressed for the destination site.
    pub addr: ObjectAddr,
    /// `tR`: VT of the value the transaction read before writing (equals
    /// the transaction's own VT for blind writes).
    pub t_r: VirtualTime,
    /// `tG`: VT at which the object's replication graph was last changed,
    /// as observed by the originator.
    pub t_g: VirtualTime,
    /// The state change to apply.
    pub op: WireOp,
    /// Whether the destination hosts this object's primary copy and must
    /// run the RL and NC guess checks.
    pub needs_check: bool,
}

/// One read-confirmation request within a [`TxnPropagate`] or
/// [`Message::SnapshotConfirm`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReadItem {
    /// The read object, addressed for the destination (primary) site.
    pub addr: ObjectAddr,
    /// `tR`: VT of the value read — the RL guess asks that `(t_r, hi)` be
    /// write-free, where `hi` defaults to the requesting subject's VT.
    pub t_r: VirtualTime,
    /// `tG`: VT of the replication graph read.
    pub t_g: VirtualTime,
    /// Explicit upper bound of the guessed interval; `None` means the
    /// subject's VT. View snapshots use this when a transaction's own
    /// reservation already covers the tail of the interval (§5.1.2).
    pub hi: Option<VirtualTime>,
}

/// Delegate-commit instruction (§3.1): when a transaction has exactly one
/// remote primary site and no RC guesses, the originator delegates the
/// commit decision to that primary, which then broadcasts COMMIT/ABORT
/// itself, saving one message latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegate {
    /// Every site (other than the delegate) that must receive the summary
    /// commit or abort — "the site identifiers of all the remote sites
    /// affected by the transaction".
    pub notify: Vec<SiteId>,
}

/// A transaction's propagation message to one destination site: its WRITEs
/// for objects replicated there, plus CONFIRM-READ requests for objects
/// whose primary copy lives there.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnPropagate {
    /// The transaction's VT (its global identity).
    pub txn: VirtualTime,
    /// Originating site (where confirmations are sent).
    pub origin: SiteId,
    /// Updates to apply at the destination.
    pub updates: Vec<UpdateItem>,
    /// Read confirmations the destination (as primary) must check.
    pub reads: Vec<ReadItem>,
    /// Present when the destination is delegated the commit decision.
    pub delegate: Option<Delegate>,
}

impl TxnPropagate {
    /// Whether the destination must reply with a Confirm/Deny verdict.
    pub(crate) fn needs_reply(&self) -> bool {
        !self.reads.is_empty() || self.updates.iter().any(|u| u.needs_check)
    }
}

/// What kind of actor a Confirm/Deny subject identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubjectKind {
    /// A transaction (deny ⇒ abort + automatic retry).
    Txn,
    /// A view snapshot (deny ⇒ wait for the straggler to trigger a rerun).
    Snapshot,
}

/// A DECAF protocol message.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field-level docs live on the payload structs
pub enum Message {
    /// WRITE + CONFIRM-READ propagation of one transaction to one site.
    Txn(TxnPropagate),
    /// A view snapshot's CONFIRM-READ requests to a primary site (§4).
    SnapshotConfirm {
        /// Unique VT identifying the snapshot (reply routing + reservation
        /// ownership).
        subject: VirtualTime,
        /// Site hosting the view proxy.
        origin: SiteId,
        /// The intervals to verify and reserve, kept as their wire coding.
        reads: SnapshotReads,
    },
    /// Primary-site verdict: all checks in the referenced request passed.
    Confirm {
        /// The requesting transaction's or snapshot's VT.
        subject: VirtualTime,
        /// What the subject is.
        kind: SubjectKind,
    },
    /// Primary-site verdict: some check failed.
    Deny {
        /// The requesting transaction's or snapshot's VT.
        subject: VirtualTime,
        /// What the subject is.
        kind: SubjectKind,
    },
    /// Summary commit of the transaction at `txn` (from originator or
    /// delegate).
    Commit {
        /// The committed transaction.
        txn: VirtualTime,
    },
    /// Summary abort of the transaction at `txn`.
    Abort {
        /// The aborted transaction.
        txn: VirtualTime,
    },

    // ---- dynamic collaboration establishment (§3.3) ----
    /// "A remote call is made to B, sending it A's replication graph gA."
    JoinRequest {
        /// VT of the joining transaction at A's site.
        txn: VirtualTime,
        /// A's site.
        origin: SiteId,
        /// The relationship being joined.
        relation: RelationId,
        /// The joining object.
        a_node: NodeRef,
        /// The joining object's current replication graph.
        a_graph: ReplicationGraph,
        /// The contacted member object at the destination (from the
        /// invitation).
        b_object: ObjectName,
        /// The inviter's association object (for membership bookkeeping),
        /// if the destination hosts it.
        assoc_object: Option<ObjectName>,
    },
    /// B's return value: gB, B's value, and the merged graph.
    JoinReply {
        /// VT of the joining transaction.
        txn: VirtualTime,
        /// Whether the join was accepted (authorization may refuse, §2.6).
        ok: bool,
        /// The contacted object.
        b_node: NodeRef,
        /// The merged replication graph gA ∪ gB (+ the new edge).
        merged: ReplicationGraph,
        /// B's current value, for adoption by A and A's replicas.
        b_value: Option<TreeSnapshot>,
        /// VT of the transaction that wrote B's current value.
        b_value_vt: VirtualTime,
        /// If false, A must additionally wait for the transaction at
        /// `b_value_vt` to commit (an RC guess, §3.3).
        b_value_committed: bool,
        /// How many primary confirmations B's side will route to A (gB's
        /// primary, plus the association's primary if updated).
        confirms_expected: u32,
        /// Additional sites (e.g. association replicas) that must receive
        /// the summary COMMIT/ABORT.
        extra_affected: Vec<SiteId>,
    },
    /// Propagation of a changed replication graph to a replica; the graph's
    /// primary site checks and confirms it.
    GraphUpdate {
        /// VT of the graph-changing transaction.
        txn: VirtualTime,
        /// Site to send the verdict to.
        origin: SiteId,
        /// Destination-local name of the affected object.
        target: ObjectName,
        /// The new replication graph.
        graph: ReplicationGraph,
        /// `tG` the originator observed (RL guess interval lower bound).
        t_g: VirtualTime,
        /// Whether the destination is the graph's primary and must check.
        needs_check: bool,
        /// The value the joining side adopts (present only on join-driven
        /// updates).
        adopt_value: Option<TreeSnapshot>,
        /// VT at which the adopted value was originally written at the
        /// contacted side — the adoption is applied at this VT so the
        /// joiner's subsequent read intervals line up with the primary's
        /// history.
        adopt_value_vt: VirtualTime,
    },

    // ---- client-failure recovery (§3.4) ----
    /// "The remaining sites determine if any of them received a commit
    /// message regarding the transaction."
    OutcomeQuery {
        /// The in-doubt transaction.
        txn: VirtualTime,
        /// Who is asking (and will decide).
        asker: SiteId,
    },
    /// Reply to [`Message::OutcomeQuery`].
    OutcomeReport {
        /// The in-doubt transaction.
        txn: VirtualTime,
        /// This site's knowledge of the outcome, if any.
        outcome: Option<TxnOutcome>,
    },
    /// The asker's final decision, broadcast to the survivors.
    OutcomeDecision {
        /// The in-doubt transaction.
        txn: VirtualTime,
        /// The decided outcome.
        outcome: TxnOutcome,
    },
    /// Consensus proposal to repair a replication graph whose primary site
    /// failed (§3.4): apply `graph` at the common virtual time `at`.
    GraphPropose {
        /// Consensus instance (unique per coordinator).
        ballot: u64,
        /// The coordinating (lowest surviving) site.
        coordinator: SiteId,
        /// Destination-local name of the affected object.
        target: ObjectName,
        /// Coordinator-local name (echoed in acks to key the instance).
        coord_target: ObjectName,
        /// The repaired graph.
        graph: ReplicationGraph,
        /// Common VT at which all survivors apply the repair.
        at: VirtualTime,
    },
    /// A survivor's acknowledgement of [`Message::GraphPropose`].
    GraphAck {
        /// The consensus instance.
        ballot: u64,
        /// Echo of `coord_target`.
        coord_target: ObjectName,
    },
    /// Lightweight clock announcement from an otherwise-silent replica, so
    /// peers' garbage-collection horizons keep advancing (the analogue of
    /// Time Warp's fossil-collection acknowledgements). Carries no payload:
    /// the envelope clock is the information.
    Heartbeat,
    /// Coordinator's instruction to apply the proposed repair.
    GraphApply {
        /// The consensus instance.
        ballot: u64,
        /// Destination-local name of the affected object.
        target: ObjectName,
        /// The repaired graph.
        graph: ReplicationGraph,
        /// Common VT at which to apply it.
        at: VirtualTime,
    },
    /// A restarted site announcing its recovered commit frontier (§3.4's
    /// rejoin, made durable): "I am back; here is everything I know is
    /// committed — vote-pending work of mine is lost, and I need the
    /// committed suffix I missed."
    RejoinRequest {
        /// The rejoiner's highest committed VT after WAL replay.
        frontier: VirtualTime,
        /// Every committed VT the rejoiner knows, so the catch-up server
        /// can stream exactly the gap (the frontier alone is not a sound
        /// filter: a commit with a *lower* VT may still have been in
        /// flight at crash time).
        have: Vec<VirtualTime>,
        /// True at exactly one live peer — the one asked to stream the
        /// missed committed suffix back as a [`Message::CatchUp`].
        serve: bool,
    },
    /// A live peer's answer to [`Message::RejoinRequest`]: its own
    /// committed frontier and VT set, so the rejoiner can stream *its*
    /// side of the gap back (commits it durably logged whose broadcast the
    /// crash swallowed).
    RejoinAck {
        /// The responder's highest committed VT.
        frontier: VirtualTime,
        /// Every committed VT the responder knows.
        have: Vec<VirtualTime>,
    },
    /// A batch of already-committed transactions streamed for catch-up.
    /// Each entry is a plain [`TxnPropagate`] (no reads, no delegate, no
    /// reply expected) whose updates the receiver applies pre-decided.
    CatchUp {
        /// The missed commits, in VT order.
        commits: Vec<TxnPropagate>,
        /// True when sent *by* a rejoiner completing its return: after
        /// applying `commits`, the receiver aborts any still-undecided
        /// remote transaction originated by the sender — the crash lost
        /// that work, and parked snapshot checks must stop waiting on it.
        rejoined: bool,
    },
}

impl Message {
    /// The virtual time this message witnesses (for Lamport clock
    /// advancement on receipt), if it carries one.
    pub fn witnessed_vt(&self) -> Option<VirtualTime> {
        match self {
            Message::Txn(p) => Some(p.txn),
            Message::SnapshotConfirm { subject, .. }
            | Message::Confirm { subject, .. }
            | Message::Deny { subject, .. } => Some(*subject),
            Message::Commit { txn }
            | Message::Abort { txn }
            | Message::JoinRequest { txn, .. }
            | Message::JoinReply { txn, .. }
            | Message::GraphUpdate { txn, .. }
            | Message::OutcomeQuery { txn, .. }
            | Message::OutcomeReport { txn, .. }
            | Message::OutcomeDecision { txn, .. } => Some(*txn),
            Message::GraphPropose { at, .. } | Message::GraphApply { at, .. } => Some(*at),
            Message::RejoinRequest { frontier, .. } | Message::RejoinAck { frontier, .. } => {
                Some(*frontier)
            }
            Message::CatchUp { commits, .. } => commits.last().map(|p| p.txn),
            Message::GraphAck { .. } | Message::Heartbeat => None,
        }
    }

    /// Short tag naming the message type, for traces and statistics.
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Txn(p) if p.needs_reply() => "TXN+CHECK",
            Message::Txn(_) => "TXN",
            Message::SnapshotConfirm { .. } => "SNAP-CONFIRM-READ",
            Message::Confirm { .. } => "CONFIRM",
            Message::Deny { .. } => "DENY",
            Message::Commit { .. } => "COMMIT",
            Message::Abort { .. } => "ABORT",
            Message::JoinRequest { .. } => "JOIN-REQ",
            Message::JoinReply { .. } => "JOIN-REPLY",
            Message::GraphUpdate { .. } => "GRAPH-UPDATE",
            Message::OutcomeQuery { .. } => "OUTCOME-QUERY",
            Message::OutcomeReport { .. } => "OUTCOME-REPORT",
            Message::OutcomeDecision { .. } => "OUTCOME-DECISION",
            Message::Heartbeat => "HEARTBEAT",
            Message::GraphPropose { .. } => "GRAPH-PROPOSE",
            Message::GraphAck { .. } => "GRAPH-ACK",
            Message::GraphApply { .. } => "GRAPH-APPLY",
            Message::RejoinRequest { .. } => "REJOIN-REQ",
            Message::RejoinAck { .. } => "REJOIN-ACK",
            Message::CatchUp { .. } => "CATCH-UP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::new(n, SiteId(1))
    }

    #[test]
    fn needs_reply_logic() {
        let mut p = TxnPropagate {
            txn: vt(1),
            origin: SiteId(1),
            updates: vec![],
            reads: vec![],
            delegate: None,
        };
        assert!(!p.needs_reply());
        p.updates.push(UpdateItem {
            addr: ObjectAddr::Direct(ObjectName::new(SiteId(2), 0)),
            t_r: vt(1),
            t_g: VirtualTime::ZERO,
            op: WireOp::SetScalar(ScalarValue::Int(1)),
            needs_check: false,
        });
        assert!(!p.needs_reply(), "plain replica write needs no reply");
        p.updates[0].needs_check = true;
        assert!(p.needs_reply(), "primary-checked write needs a reply");
    }

    #[test]
    fn witnessed_vt_extraction() {
        let m = Message::Commit { txn: vt(9) };
        assert_eq!(m.witnessed_vt(), Some(vt(9)));
        let ack = Message::GraphAck {
            ballot: 1,
            coord_target: ObjectName::new(SiteId(1), 0),
        };
        assert_eq!(ack.witnessed_vt(), None);
    }

    #[test]
    fn tags_are_distinct_and_stable() {
        assert_eq!(Message::Commit { txn: vt(1) }.tag(), "COMMIT");
        assert_eq!(Message::Abort { txn: vt(1) }.tag(), "ABORT");
    }

    #[test]
    fn path_display() {
        let p = Path::from(vec![
            PathElem::Index {
                index: 103,
                tag: vt(40),
            },
            PathElem::Key("John".into()),
        ]);
        assert_eq!(p.to_string(), "[103#40@S1][John]");
        assert_eq!(
            Path::from(PathElem::Index {
                index: 12,
                tag: vt(3)
            })
            .to_string(),
            "[12#3@S1]"
        );
        assert_eq!(Path::root().to_string(), "");
        assert!(Path::root().is_root());
        assert!(Path::from(Vec::new()).is_root());
        assert!(!p.is_root());
        assert_eq!(
            format!("{p:?}"),
            format!("Path({:?})", p.elems()),
            "Debug shows the elements, not the representation"
        );
    }

    /// The three ways to build a one-element path give one value, and it
    /// hashes exactly as the `Vec` of its elements does.
    #[test]
    fn one_element_path_is_equal_and_hashes_equal_however_built() {
        use std::hash::BuildHasher;
        let elem = PathElem::Index {
            index: 7,
            tag: vt(5),
        };
        let from_vec = Path::from(vec![elem.clone()]);
        let from_elem = Path::from(elem.clone());
        let mut pushed = Path::root();
        pushed.push(elem.clone());
        let hasher = std::collections::hash_map::RandomState::new();
        for p in [&from_vec, &from_elem, &pushed] {
            assert_eq!(p, &from_elem);
            assert_eq!(p.elems(), std::slice::from_ref(&elem));
            assert_eq!(hasher.hash_one(p), hasher.hash_one(vec![elem.clone()]));
        }
        assert_ne!(from_elem, Path::from(PathElem::Key("7".into())));
        assert_ne!(from_elem, Path::root());
    }

    /// `Many` holds two or more elements whichever way a path is built, a
    /// single element is always `One`, and paths built by `push` and by
    /// `From<Vec>` agree at every length.
    #[test]
    fn many_never_holds_fewer_than_two_elements() {
        let elems: Vec<PathElem> = (0..4)
            .map(|i| match i % 2 {
                0 => PathElem::Index {
                    index: i,
                    tag: vt(i as u64 + 1),
                },
                _ => PathElem::Key(format!("k{i}")),
            })
            .collect();
        let well_formed = |p: &Path| !matches!(&p.0, PathRepr::Many(v) if v.len() < 2);
        let mut pushed = Path::root();
        for n in 0..=elems.len() {
            let built = Path::from(elems[..n].to_vec());
            assert!(well_formed(&built) && well_formed(&pushed), "length {n}");
            assert_eq!(built, pushed, "length {n}");
            assert_eq!(built.elems(), &elems[..n]);
            if n < elems.len() {
                pushed.push(elems[n].clone());
            }
        }
        for one in [
            Path::from(elems[..1].to_vec()),
            Path::from(elems[0].clone()),
        ] {
            assert!(matches!(one.0, PathRepr::One(_)));
        }
        assert!(matches!(
            Path::from(elems[..2].to_vec()).0,
            PathRepr::Many(_)
        ));
    }

    /// Paths of zero to three elements mixing list indices and tuple keys
    /// round-trip through the codec, as update and read addresses (a read's
    /// one-index path goes through the snapshot's delta coding).
    #[test]
    fn paths_of_every_shape_round_trip_through_the_codec() {
        let index = |i: usize| PathElem::Index {
            index: i,
            tag: vt(10 + i as u64),
        };
        let key = |k: &str| PathElem::Key(k.into());
        let paths = [
            vec![],
            vec![index(0)],
            vec![key("a")],
            vec![index(1), key("b")],
            vec![key("c"), index(2)],
            vec![index(3), key("d"), index(4)],
            vec![key("e"), key("f"), index(5)],
        ];
        let root = ObjectName::new(SiteId(2), 9);
        let addr = |elems: &Vec<PathElem>| ObjectAddr::Indirect {
            root,
            path: Path::from(elems.clone()),
        };
        let read = |elems: &Vec<PathElem>| ReadItem {
            addr: addr(elems),
            t_r: vt(1),
            t_g: vt(1),
            hi: Some(vt(20)),
        };
        let txn = Message::Txn(TxnPropagate {
            txn: vt(20),
            origin: SiteId(1),
            updates: paths
                .iter()
                .map(|p| UpdateItem {
                    addr: addr(p),
                    t_r: vt(1),
                    t_g: VirtualTime::ZERO,
                    op: WireOp::SetScalar(ScalarValue::Int(1)),
                    needs_check: true,
                })
                .collect(),
            reads: paths.iter().map(read).collect(),
            delegate: None,
        });
        let snapshot = Message::SnapshotConfirm {
            subject: vt(21),
            origin: SiteId(1),
            reads: paths.iter().chain(&paths).map(read).collect(),
        };
        for msg in [txn, snapshot] {
            let env = Envelope {
                from: SiteId(1),
                to: SiteId(2),
                clock: vt(21),
                msg,
                span: None,
            };
            let mut bytes = Vec::new();
            crate::codec::envelope(&mut bytes, &env);
            assert_eq!(crate::codec::decode_envelope(&bytes).unwrap(), env);
        }
    }

    #[test]
    fn envelope_round_trips_through_the_codec() {
        let env = Envelope {
            from: SiteId(1),
            to: SiteId(2),
            clock: vt(6),
            msg: Message::Deny {
                subject: vt(5),
                kind: SubjectKind::Snapshot,
            },
            span: None,
        };
        let mut bytes = Vec::new();
        crate::codec::envelope(&mut bytes, &env);
        assert_eq!(crate::codec::decode_envelope(&bytes).unwrap(), env);

        // A span is a trailing section: the span-less bytes are a prefix.
        let spanned = Envelope {
            span: Some(SpanCtx {
                origin: SiteId(1),
                seq: 5,
                hop: 0,
            }),
            ..env.clone()
        };
        let mut with_span = Vec::new();
        crate::codec::envelope(&mut with_span, &spanned);
        assert_eq!(&with_span[..bytes.len()], &bytes[..]);
        assert_eq!(crate::codec::decode_envelope(&with_span).unwrap(), spanned);
    }
}
