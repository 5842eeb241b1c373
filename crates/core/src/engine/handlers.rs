//! Inbound message handling: remote update application, primary-site guess
//! checking, commit/abort processing, and straggler buffering (paper §3.1,
//! §3.2.1).

use std::collections::BTreeMap;

use decaf_trace::TraceKind;
use decaf_vt::{SiteId, VirtualTime};

use crate::codec::{ReadTarget, SnapshotReads};
use crate::message::{Envelope, Message, ObjectAddr, SubjectKind, TxnPropagate};
use crate::object::ObjectName;
use crate::store::ApplyBlocked;
use crate::txn::{AbortReason, TxnOutcome};

use super::{EngineEvent, RemoteTxn, Site};

impl Site {
    /// Handles one delivered protocol message.
    ///
    /// # Panics
    ///
    /// Debug builds assert the envelope is addressed to this site.
    pub fn handle_message(&mut self, env: Envelope) {
        debug_assert_eq!(env.to, self.id, "envelope delivered to the wrong site");
        self.stats.msgs_received += 1;
        self.clock.witness(env.clock);
        let seen = self.last_seen_from.entry(env.from).or_insert(0);
        *seen = (*seen).max(env.clock.lamport);
        if let Some(vt) = env.msg.witnessed_vt() {
            self.clock.witness(vt);
        }
        let from = env.from;
        self.dispatch(from, env.msg);
        self.retry_buffered();
        self.retry_parked_snaps();
        // If we have been consuming this peer's traffic without ever
        // replying, announce our clock so its GC horizon advances.
        let owed = self.silent_received.entry(from).or_insert(0);
        *owed += 1;
        if *owed >= 8 {
            *owed = 0;
            self.send(from, Message::Heartbeat);
        }
    }

    pub(crate) fn dispatch(&mut self, from: SiteId, msg: Message) {
        match msg {
            Message::Txn(p) => self.on_txn(from, p),
            Message::SnapshotConfirm {
                subject,
                origin,
                reads,
            } => self.on_snapshot_confirm_request(subject, origin, reads),
            Message::Confirm { subject, kind } => match kind {
                SubjectKind::Txn => self.on_txn_confirm(subject, from),
                SubjectKind::Snapshot => self.on_snapshot_confirm(subject, from),
            },
            Message::Deny { subject, kind } => match kind {
                SubjectKind::Txn => self.on_txn_deny(subject),
                SubjectKind::Snapshot => self.on_snapshot_deny(subject),
            },
            Message::Heartbeat => self.run_gc(),
            Message::Commit { txn } => self.on_commit(txn),
            Message::Abort { txn } => self.on_abort(txn),
            Message::JoinRequest {
                txn,
                origin,
                relation,
                a_node,
                a_graph,
                b_object,
                assoc_object,
            } => self.on_join_request(
                txn,
                origin,
                relation,
                a_node,
                a_graph,
                b_object,
                assoc_object,
            ),
            Message::JoinReply {
                txn,
                ok,
                b_node,
                merged,
                b_value,
                b_value_vt,
                b_value_committed,
                confirms_expected,
                extra_affected,
            } => self.on_join_reply(
                txn,
                ok,
                b_node,
                merged,
                b_value,
                b_value_vt,
                b_value_committed,
                confirms_expected,
                extra_affected,
            ),
            Message::GraphUpdate {
                txn,
                origin,
                target,
                graph,
                t_g,
                needs_check,
                adopt_value,
                adopt_value_vt,
            } => self.on_graph_update(
                txn,
                origin,
                target,
                graph,
                t_g,
                needs_check,
                adopt_value,
                adopt_value_vt,
            ),
            Message::OutcomeQuery { txn, asker } => self.on_outcome_query(txn, asker),
            Message::OutcomeReport { txn, outcome } => self.on_outcome_report(from, txn, outcome),
            Message::OutcomeDecision { txn, outcome } => self.on_outcome_decision(txn, outcome),
            Message::GraphPropose {
                ballot,
                coordinator,
                target,
                coord_target,
                graph,
                at,
            } => self.on_graph_propose(ballot, coordinator, target, coord_target, graph, at),
            Message::GraphAck {
                ballot,
                coord_target,
            } => self.on_graph_ack(from, ballot, coord_target),
            Message::GraphApply {
                ballot,
                target,
                graph,
                at,
            } => self.on_graph_apply(ballot, target, graph, at),
            Message::RejoinRequest {
                frontier,
                have,
                serve,
            } => self.on_rejoin_request(from, frontier, have, serve),
            Message::RejoinAck { frontier, have } => self.on_rejoin_ack(from, frontier, have),
            Message::CatchUp { commits, rejoined } => self.on_catch_up(from, commits, rejoined),
        }
    }

    // ------------------------------------------------------------------
    // Transaction propagation (WRITE + CONFIRM-READ)
    // ------------------------------------------------------------------

    fn on_txn(&mut self, from: SiteId, p: TxnPropagate) {
        // Pre-decided transactions: "the site retains the fact that the
        // transaction has committed so that if any future update messages
        // arrive, the updates are considered committed... aborted ... the
        // updates are ignored" (§3.1).
        match self.decided.get(&p.txn).copied() {
            Some(TxnOutcome::Aborted) => return,
            Some(TxnOutcome::Committed) => {
                if self.committed_log.contains_key(&p.txn) {
                    // Durable sites: the commit is fully applied and
                    // recorded — a redelivery (e.g. a transport replaying
                    // stranded envelopes after a reconnect, or an
                    // overlapping catch-up) must not re-notify views or
                    // append a duplicate WAL record.
                    return;
                }
                match self.prevalidate(&p) {
                    Err(ApplyBlocked::MissingDependency(_)) => {
                        self.buffered.push((from, p));
                        return;
                    }
                    Err(ApplyBlocked::Fatal(_)) => return, // nothing resolvable
                    Ok(()) => {}
                }
                let redelivered = self.already_committed_here(&p);
                let applied = self.apply_updates(&p);
                for (obj, _) in &applied {
                    if let Ok(o) = self.store.get_mut(*obj) {
                        o.values.mark_committed(p.txn);
                    }
                }
                let coverage: BTreeMap<ObjectName, VirtualTime> = applied.into_iter().collect();
                let objs: Vec<(ObjectName, VirtualTime)> =
                    coverage.iter().map(|(o, t)| (*o, *t)).collect();
                let names: Vec<ObjectName> = coverage.keys().copied().collect();
                // Known committed here from this moment, like a commit that
                // arrives after its updates (`finish_remote_commit`) — once:
                // a redelivered copy is not a second commit.
                if !redelivered {
                    self.events.push(EngineEvent::TxnCommitted {
                        vt: p.txn,
                        local_origin: false,
                    });
                }
                self.schedule_optimistic(&names);
                self.create_pess_snapshots(p.txn, &objs, true);
                self.on_committed_update(p.txn, p.origin, &coverage);
                self.run_gc();
                return;
            }
            None => {}
        }

        // Straggler dependency check: if any item's path or tag cannot be
        // resolved yet, buffer the whole message (§3.2.1: "the propagation
        // will block until the earlier update is received"). Unresolvable
        // (fatal) addressing is dropped — and denied, if a verdict was
        // expected — rather than wedged.
        match self.prevalidate(&p) {
            Err(ApplyBlocked::MissingDependency(_)) => {
                self.buffered.push((from, p));
                return;
            }
            Err(ApplyBlocked::Fatal(_)) => {
                if p.needs_reply() && p.delegate.is_none() {
                    self.send(
                        p.origin,
                        Message::Deny {
                            subject: p.txn,
                            kind: SubjectKind::Txn,
                        },
                    );
                } else if let Some(d) = &p.delegate {
                    self.decided.insert(p.txn, TxnOutcome::Aborted);
                    for site in &d.notify {
                        if *site != self.id {
                            self.send(*site, Message::Abort { txn: p.txn });
                        }
                    }
                }
                return;
            }
            Ok(()) => {}
        }

        let applied = self.apply_updates(&p);
        let names: Vec<ObjectName> = applied.iter().map(|(o, _)| *o).collect();
        self.account_arrival(p.txn, &names);

        // Primary-side guess checks (RL for reads and writes, NC for
        // writes, RL for replication graphs).
        let mut ok = true;
        for item in &p.updates {
            if !item.needs_check {
                continue;
            }
            let Ok(target) = self.resolve_now(&item.addr) else {
                ok = false;
                continue;
            };
            let root = self.graph_root_of(&item.addr, target);
            if !self.check_and_reserve(target, root, item.t_r, item.t_g, p.txn, true) {
                ok = false;
            }
        }
        for r in &p.reads {
            let Ok(target) = self.resolve_now(&r.addr) else {
                ok = false;
                continue;
            };
            let root = self.graph_root_of(&r.addr, target);
            if !self.check_and_reserve(target, root, r.t_r, r.t_g, p.txn, false) {
                ok = false;
            }
        }

        // Record the remote transaction for later commit/abort processing.
        let entry = self.remote.entry(p.txn).or_insert_with(|| RemoteTxn {
            origin: p.origin,
            ..Default::default()
        });
        for (obj, t_r) in &applied {
            entry.objects.insert(*obj, *t_r);
        }

        if !names.is_empty() {
            self.events.push(EngineEvent::RemoteApplied {
                vt: p.txn,
                objects: names.clone(),
            });
            // Optimistic views: notify as soon as the update arrives (§4.1)
            // — but a straggler that did not become the current value yields
            // no notification (a *lost update*, §5.1.2).
            let fresh: Vec<ObjectName> = names
                .iter()
                .copied()
                .filter(|o| {
                    self.store
                        .get(*o)
                        .ok()
                        .and_then(|m| m.values.current())
                        .map(|e| e.vt == p.txn)
                        .unwrap_or(false)
                })
                .collect();
            self.schedule_optimistic(&fresh);
            // Pessimistic views: pre-create the snapshot and pre-issue its
            // guesses so confirmations race the commit (§5.1.2).
            self.create_pess_snapshots(p.txn, &applied, false);
        }

        if p.needs_reply() {
            if let Some(delegate) = &p.delegate {
                // Delegate commit (§3.1): this site decides for the whole
                // transaction and broadcasts the summary itself.
                let notify = delegate.notify.clone();
                if ok {
                    self.decided.insert(p.txn, TxnOutcome::Committed);
                    if let Some(r) = self.remote.get(&p.txn).cloned() {
                        self.finish_remote_commit(p.txn, &r);
                    }
                    for site in notify {
                        if site != self.id {
                            self.send(site, Message::Commit { txn: p.txn });
                        }
                    }
                } else {
                    self.decided.insert(p.txn, TxnOutcome::Aborted);
                    self.rollback_remote(p.txn);
                    for site in notify {
                        if site != self.id {
                            self.send(site, Message::Abort { txn: p.txn });
                        }
                    }
                }
            } else if ok {
                self.send(
                    p.origin,
                    Message::Confirm {
                        subject: p.txn,
                        kind: SubjectKind::Txn,
                    },
                );
            } else {
                self.send(
                    p.origin,
                    Message::Deny {
                        subject: p.txn,
                        kind: SubjectKind::Txn,
                    },
                );
            }
        }
    }

    /// Checks that every update and read in `p` can be resolved and applied
    /// right now (nothing blocks on a missing structural dependency).
    fn prevalidate(&self, p: &TxnPropagate) -> Result<(), ApplyBlocked> {
        for item in &p.updates {
            let target = self.store.resolve(&item.addr)?;
            if let crate::message::WireOp::ListRemove { tag } = &item.op {
                // Historically-present tags are acceptable (already-removed
                // entries fold as a no-op); only genuinely unseen tags
                // block.
                let known = self.store.find_list_child_by_tag(target, *tag).is_some();
                let already = self
                    .store
                    .get(target)
                    .ok()
                    .map(|o| o.values.entry_at(p.txn).is_some())
                    .unwrap_or(false);
                if !known && !already {
                    return Err(ApplyBlocked::MissingDependency(Some(*tag)));
                }
            }
        }
        for r in &p.reads {
            self.store.resolve(&r.addr)?;
        }
        Ok(())
    }

    /// Whether every update of a prevalidated propagation already sits
    /// committed in its target's history at the transaction's VT — the
    /// message is a redelivery of one applied and committed before.
    fn already_committed_here(&self, p: &TxnPropagate) -> bool {
        !p.updates.is_empty()
            && p.updates.iter().all(|item| {
                self.resolve_now(&item.addr)
                    .ok()
                    .and_then(|target| self.store.get(target).ok())
                    .and_then(|o| o.values.entry_at(p.txn))
                    .is_some_and(|e| e.committed)
            })
    }

    /// Applies all updates of a prevalidated propagation, returning the
    /// `(object, tR)` pairs actually applied.
    fn apply_updates(&mut self, p: &TxnPropagate) -> Vec<(ObjectName, VirtualTime)> {
        let mut applied = Vec::new();
        for item in &p.updates {
            let Ok(target) = self.resolve_now(&item.addr) else {
                continue;
            };
            match self.store.apply_wire_op(target, p.txn, &item.op) {
                Ok(changed) => {
                    for c in changed {
                        applied.push((c, item.t_r));
                    }
                }
                Err(_) => continue, // prevalidated; fatal kind errors drop the item
            }
        }
        applied
    }

    fn resolve_now(&self, addr: &ObjectAddr) -> Result<ObjectName, ApplyBlocked> {
        self.store.resolve(addr)
    }

    /// The object whose replication-graph history governs `addr` (the
    /// direct root named in the address).
    fn graph_root_of(&self, addr: &ObjectAddr, target: ObjectName) -> ObjectName {
        match addr {
            ObjectAddr::Direct(_) => target,
            ObjectAddr::Indirect { root, .. } => *root,
        }
    }

    /// Retries buffered straggler messages until a fixpoint.
    pub(crate) fn retry_buffered(&mut self) {
        for _ in 0..64 {
            if self.buffered.is_empty() {
                return;
            }
            let taken = std::mem::take(&mut self.buffered);
            let n = taken.len();
            for (from, p) in taken {
                self.on_txn(from, p);
            }
            if self.buffered.len() >= n {
                return; // no progress this pass
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapshot CONFIRM-READ service (primary side, §4)
    // ------------------------------------------------------------------

    fn on_snapshot_confirm_request(
        &mut self,
        subject: VirtualTime,
        origin: SiteId,
        reads: SnapshotReads,
    ) {
        match self.evaluate_snapshot_reads(subject, &reads) {
            SnapVerdict::Confirm(intervals) => {
                // Reserve every interval, then confirm.
                for (target, lo, hi) in intervals {
                    if let Ok(o) = self.store.get_mut(target) {
                        let merged = o.value_reservations.reserve_read(lo, hi);
                        self.stats.snapshot_reservations_merged += u64::from(merged);
                    }
                }
                self.send(
                    origin,
                    Message::Confirm {
                        subject,
                        kind: SubjectKind::Snapshot,
                    },
                );
            }
            SnapVerdict::Deny => {
                self.send(
                    origin,
                    Message::Deny {
                        subject,
                        kind: SubjectKind::Snapshot,
                    },
                );
            }
            SnapVerdict::Park => {
                // Blocked only by uncommitted writes: defer the verdict
                // until they decide — a denied-then-aborted write must not
                // permanently wedge the snapshot.
                self.parked_snaps.push((subject, origin, reads));
            }
        }
    }

    /// Classifies a snapshot CONFIRM-READ batch against current state,
    /// decoding each item once. A list child is resolved against its
    /// list's entries, fetched once for each run of children of one list;
    /// any other address goes through [`Store::resolve`](crate::store::Store).
    pub(crate) fn evaluate_snapshot_reads(
        &self,
        subject: VirtualTime,
        reads: &SnapshotReads,
    ) -> SnapVerdict {
        let mut park = false;
        let mut intervals = Vec::with_capacity(reads.len());
        // The list the preceding child was read under.
        let mut list = None;
        for r in reads.targets() {
            let target = match r.target {
                ReadTarget::Child { root, index, tag } => {
                    if list.as_ref().is_none_or(|(at, _)| *at != root) {
                        let Some(children) = self.store.list_children(root) else {
                            return SnapVerdict::Deny;
                        };
                        list = Some((root, children));
                    }
                    let (_, children) = list.as_ref().expect("fetched above");
                    children.child(index, tag)
                }
                ReadTarget::Addr(addr) => self.resolve_now(&addr).ok(),
            };
            let Some(target) = target else {
                return SnapVerdict::Deny;
            };
            let hi = r.hi.unwrap_or(subject);
            intervals.push((target, r.t_r, hi));
            let Ok(obj) = self.store.get(target) else {
                return SnapVerdict::Deny;
            };
            match obj.values.write_in(r.t_r, hi) {
                // A committed update the requester has not seen: hard deny;
                // the commit's arrival at the requester revises the guess.
                Some(true) => return SnapVerdict::Deny,
                Some(false) => park = true,
                None => {}
            }
        }
        if park {
            SnapVerdict::Park
        } else {
            SnapVerdict::Confirm(intervals)
        }
    }

    /// Re-evaluates parked snapshot checks after any commit or abort
    /// changed the histories.
    pub(crate) fn retry_parked_snaps(&mut self) {
        if self.parked_snaps.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked_snaps);
        for (subject, origin, reads) in parked {
            self.on_snapshot_confirm_request(subject, origin, reads);
        }
    }

    // ------------------------------------------------------------------
    // Verdicts and summaries
    // ------------------------------------------------------------------

    fn on_txn_confirm(&mut self, subject: VirtualTime, from: SiteId) {
        if let Some(p) = self.pending.get_mut(&subject) {
            p.awaiting.remove(&from);
            self.maybe_finalize(subject);
            return;
        }
        self.on_collab_confirm(subject);
    }

    fn on_txn_deny(&mut self, subject: VirtualTime) {
        if self.pending.contains_key(&subject) {
            self.abort_local_txn(subject, AbortReason::Conflict, true, true);
            return;
        }
        self.on_collab_deny(subject);
    }

    pub(crate) fn on_commit(&mut self, txn: VirtualTime) {
        if self.decided.get(&txn) == Some(&TxnOutcome::Committed)
            && !self.pending.contains_key(&txn)
        {
            return; // duplicate
        }
        self.decided.insert(txn, TxnOutcome::Committed);
        if self.pending.contains_key(&txn) {
            // Delegated transaction decided by the delegate (§3.1).
            self.commit_local_txn(txn, false);
            return;
        }
        if self.joins.contains_key(&txn) || self.graph_txns.contains_key(&txn) {
            self.on_collab_commit_summary(txn);
            return;
        }
        if let Some(r) = self.remote.get(&txn).cloned() {
            self.finish_remote_commit(txn, &r);
        }
        self.resolve_rc_commit(txn);
    }

    /// Marks a remote transaction's effects committed and runs the
    /// downstream hooks (views, RC resolution, GC).
    pub(crate) fn finish_remote_commit(&mut self, txn: VirtualTime, r: &RemoteTxn) {
        for obj in r.objects.keys() {
            if let Ok(o) = self.store.get_mut(*obj) {
                o.values.mark_committed(txn);
            }
        }
        for obj in &r.graph_objects {
            if let Ok(o) = self.store.get_mut(*obj) {
                o.graphs.mark_committed(txn);
                o.values.mark_committed(txn);
            }
        }
        for (obj, at) in &r.adopted {
            if let Ok(o) = self.store.get_mut(*obj) {
                o.values.mark_committed(*at);
            }
        }
        self.trace_emit(TraceKind::Commit, Some(txn), None, Some(0));
        self.events.push(EngineEvent::TxnCommitted {
            vt: txn,
            local_origin: false,
        });
        self.resolve_rc_commit(txn);
        let coverage: BTreeMap<ObjectName, VirtualTime> =
            r.objects.iter().map(|(o, t)| (*o, *t)).collect();
        self.on_committed_update(txn, r.origin, &coverage);
        self.run_gc();
    }

    pub(crate) fn on_abort(&mut self, txn: VirtualTime) {
        if self.decided.get(&txn) == Some(&TxnOutcome::Aborted) && !self.pending.contains_key(&txn)
        {
            return; // duplicate
        }
        self.decided.insert(txn, TxnOutcome::Aborted);
        if self.pending.contains_key(&txn) {
            // Delegated transaction denied by the delegate: retry.
            self.abort_local_txn(txn, AbortReason::Conflict, false, true);
            return;
        }
        if self.joins.contains_key(&txn) || self.graph_txns.contains_key(&txn) {
            self.on_collab_abort_summary(txn);
            return;
        }
        self.rollback_remote(txn);
    }

    /// Rolls back a remote transaction's effects at this site.
    pub(crate) fn rollback_remote(&mut self, txn: VirtualTime) {
        let Some(r) = self.remote.remove(&txn) else {
            return;
        };
        let objects: Vec<ObjectName> = r.objects.keys().copied().collect();
        for obj in &objects {
            self.store.purge_write(*obj, txn);
        }
        for obj in &r.graph_objects {
            if let Ok(o) = self.store.get_mut(*obj) {
                o.graphs.purge(txn);
            }
            self.store.purge_write(*obj, txn);
        }
        for (obj, at) in &r.adopted {
            self.store.purge_write(*obj, *at);
        }
        // Release any reservations this transaction holds here (it may have
        // been checked at this primary before the deny elsewhere).
        self.store.release_reservations(txn);
        self.trace_emit(TraceKind::Rollback, Some(txn), None, None);
        self.events.push(EngineEvent::TxnAborted {
            vt: txn,
            local_origin: false,
            retried: false,
        });
        self.cascade_rc_abort(txn);
        self.on_aborted_update(txn, &objects);
        self.run_gc();
    }
}

/// Verdict classes for snapshot CONFIRM-READ evaluation.
#[derive(Debug, PartialEq)]
pub(crate) enum SnapVerdict {
    /// Every interval is clean: the object each read resolved to and the
    /// `(lo, hi)` to reserve on it, in order.
    Confirm(Vec<(ObjectName, VirtualTime, VirtualTime)>),
    Deny,
    Park,
}
