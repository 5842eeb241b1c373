//! Dynamic collaboration establishment (paper §2.6, §3.3): relation
//! creation, invitations, the join protocol, and leaving.

use std::collections::BTreeSet;

use decaf_vt::{SiteId, VirtualTime};

use crate::collab::{GraphTxn, Invitation, JoinOp, JoinPhase, RelationId};
use crate::error::{DecafError, TxnError};
use crate::graph::{NodeRef, ReplicationGraph};
use crate::message::{Message, TreeSnapshot};
use crate::object::{ObjectName, Relation};
use crate::txn::{Transaction, TxnCtx, TxnOutcome};

use super::{EngineEvent, Site};

/// Mutation applied to an association object's relationships.
type AssocMutation = Box<dyn Fn(&mut std::collections::BTreeMap<RelationId, Relation>) + Send>;

/// Internal transaction: read-modify-write of an association object's
/// state (relation creation, membership bookkeeping).
struct AssocEdit {
    assoc: ObjectName,
    mutate: AssocMutation,
}

impl Transaction for AssocEdit {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let mut state = ctx.read_assoc_state(self.assoc)?;
        (self.mutate)(&mut state);
        ctx.write_assoc_state(self.assoc, state)
    }
}

impl Site {
    /// Installs an authorization monitor: invoked on each incoming join
    /// request, it may refuse access to sensitive objects ("users may also
    /// code authorization monitors to restrict access", §1).
    pub fn set_authorizer(&mut self, f: impl Fn(&Invitation, NodeRef) -> bool + Send + 'static) {
        self.authorizer = Some(Box::new(f));
    }

    /// Creates a replica relationship inside `assoc`, seeded with the local
    /// object `seed`. Returns the new relationship's id immediately; the
    /// association update commits through the normal transaction machinery.
    ///
    /// # Errors
    ///
    /// Fails if `assoc` is not an association object or `seed` is unknown.
    pub fn create_relation(
        &mut self,
        assoc: ObjectName,
        description: impl Into<String>,
        seed: ObjectName,
    ) -> Result<RelationId, DecafError> {
        self.store.get(seed)?;
        let obj = self.store.get(assoc)?;
        if obj.kind != crate::object::ObjectKind::Association {
            return Err(DecafError::KindMismatch {
                object: assoc,
                expected: "association",
            });
        }
        let id = RelationId(((self.id.0 as u64) << 32) | self.next_relation);
        self.next_relation += 1;
        let seed_node = NodeRef::new(self.id, seed);
        let description = description.into();
        self.execute(Box::new(AssocEdit {
            assoc,
            mutate: Box::new(move |state| {
                let rel = state.entry(id).or_default();
                rel.description = description.clone();
                rel.members.insert(seed_node);
            }),
        }));
        Ok(id)
    }

    /// Builds an invitation token for `relation`, contactable through this
    /// site's member object (§2.6: the token is then published out of
    /// band).
    ///
    /// # Errors
    ///
    /// Fails if the association or relation is unknown, or no local member
    /// exists to act as the contact.
    pub fn make_invitation(
        &self,
        assoc: ObjectName,
        relation: RelationId,
    ) -> Result<Invitation, DecafError> {
        let obj = self.store.get(assoc)?;
        let entry = obj
            .values
            .current()
            .ok_or(DecafError::Uninitialized(assoc))?;
        let state = entry.value.as_assoc().ok_or(DecafError::KindMismatch {
            object: assoc,
            expected: "association",
        })?;
        let rel = state.get(&relation).ok_or(DecafError::UnknownRelation)?;
        let contact = rel
            .members
            .iter()
            .find(|m| m.site == self.id)
            .copied()
            .ok_or(DecafError::UnknownRelation)?;
        Ok(Invitation {
            assoc: NodeRef::new(self.id, assoc),
            relation,
            contact,
        })
    }

    /// Joins the local object `local` into the replica relationship named
    /// by `invitation` (§3.3). The protocol runs asynchronously; completion
    /// is reported via [`EngineEvent::JoinCompleted`].
    ///
    /// # Errors
    ///
    /// Fails immediately if `local` does not exist at this site.
    pub fn join(
        &mut self,
        invitation: Invitation,
        local: ObjectName,
    ) -> Result<VirtualTime, DecafError> {
        self.store.get(local)?;
        // An embedded object that starts collaborating independently
        // switches to direct propagation (§3.2.2).
        self.ensure_direct(local);
        self.start_join(invitation, local, 8)
    }

    pub(crate) fn start_join(
        &mut self,
        invitation: Invitation,
        local: ObjectName,
        retries_left: u32,
    ) -> Result<VirtualTime, DecafError> {
        let vt = self.clock.next();
        let (graph, t_ga) = self.store.effective_graph(local)?;
        let a_graph = graph.clone();
        self.joins.insert(
            vt,
            JoinOp {
                local,
                invitation,
                phase: JoinPhase::AwaitingReply,
                t_ga,
                awaiting: 0,
                rc_waits: BTreeSet::new(),
                affected: BTreeSet::new(),
                adopted: Vec::new(),
                adopted_vt: VirtualTime::ZERO,
                denied: false,
                retries_left,
            },
        );
        self.send(
            invitation.contact.site,
            Message::JoinRequest {
                txn: vt,
                origin: self.id,
                relation: invitation.relation,
                a_node: NodeRef::new(self.id, local),
                a_graph,
                b_object: invitation.contact.object,
                assoc_object: (invitation.assoc.site == invitation.contact.site)
                    .then_some(invitation.assoc.object),
            },
        );
        Ok(vt)
    }

    /// Leaves every replica relationship: the local object reverts to a
    /// singleton graph and the remaining members' graphs drop its node.
    ///
    /// # Errors
    ///
    /// Fails if `local` does not exist at this site.
    pub fn leave(&mut self, local: ObjectName) -> Result<VirtualTime, DecafError> {
        let vt = self.clock.next();
        let (graph, t_g) = self.store.effective_graph(local)?;
        let graph = graph.clone();
        let self_node = NodeRef::new(self.id, local);
        if graph.len() <= 1 {
            return Ok(vt); // not collaborating
        }
        let primary = graph.primary().ok_or(DecafError::UnknownRelation)?;
        let mut affected = BTreeSet::new();
        for node in graph.nodes() {
            if node.site == self.id {
                continue;
            }
            affected.insert(node.site);
            let remaining = graph.without_node(self_node, *node);
            self.send(
                node.site,
                Message::GraphUpdate {
                    txn: vt,
                    origin: self.id,
                    target: node.object,
                    graph: remaining,
                    t_g,
                    needs_check: node.site == primary.site,
                    adopt_value: None,
                    adopt_value_vt: VirtualTime::ZERO,
                },
            );
        }
        // The leaver's own graph becomes a singleton.
        if let Ok(obj) = self.store.get_mut(local) {
            obj.graphs
                .insert(vt, ReplicationGraph::singleton(self_node));
        }
        let mut awaiting = 0;
        if primary.site == self.id {
            // Local graph check: we are the primary.
            let ok = self.check_graph_and_reserve(local, t_g, vt);
            if !ok {
                // Roll back and report; leaving rarely conflicts.
                if let Ok(obj) = self.store.get_mut(local) {
                    obj.graphs.purge(vt);
                }
                return Err(DecafError::UnknownRelation);
            }
        } else {
            awaiting = 1;
        }
        self.graph_txns.insert(
            vt,
            GraphTxn {
                local,
                awaiting,
                affected,
                denied: false,
            },
        );
        self.maybe_finalize_graph_txn(vt);
        Ok(vt)
    }

    /// Forces `local` (possibly an embedded object) into direct-propagation
    /// mode with its own singleton graph.
    pub(crate) fn ensure_direct(&mut self, local: ObjectName) {
        let node = NodeRef::new(self.id, local);
        if let Ok(obj) = self.store.get_mut(local) {
            if obj.propagation == crate::object::PropagationMode::Indirect {
                obj.propagation = crate::object::PropagationMode::Direct;
                if obj.graphs.is_empty() {
                    obj.graphs
                        .insert_committed(VirtualTime::ZERO, ReplicationGraph::singleton(node));
                }
            }
        }
    }

    /// Graph-side RL + NC check and reservation at this (primary) site.
    pub(crate) fn check_graph_and_reserve(
        &mut self,
        target: ObjectName,
        t_g: VirtualTime,
        vt: VirtualTime,
    ) -> bool {
        if t_g > vt {
            return false;
        }
        {
            let Ok(obj) = self.store.get(target) else {
                return false;
            };
            if obj.graphs.has_write_in(t_g, vt) {
                return false;
            }
            if obj.graph_reservations.check_write(vt).is_err() {
                return false;
            }
        }
        if let Ok(obj) = self.store.get_mut(target) {
            obj.graph_reservations.reserve(t_g, vt, vt);
        }
        true
    }

    // ------------------------------------------------------------------
    // Protocol handlers
    // ------------------------------------------------------------------

    /// B's side of the join (§3.3): merge graphs, propagate to B's old
    /// replicas, update the association, reply to A.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_join_request(
        &mut self,
        txn: VirtualTime,
        origin: SiteId,
        relation: RelationId,
        a_node: NodeRef,
        a_graph: ReplicationGraph,
        b_object: ObjectName,
        assoc_object: Option<ObjectName>,
    ) {
        let invitation = Invitation {
            assoc: NodeRef::new(self.id, assoc_object.unwrap_or(b_object)),
            relation,
            contact: NodeRef::new(self.id, b_object),
        };
        let authorized = self
            .authorizer
            .as_ref()
            .map(|f| f(&invitation, a_node))
            .unwrap_or(true);
        let b_ok = authorized && self.store.contains(b_object);
        if !b_ok {
            self.send(
                origin,
                Message::JoinReply {
                    txn,
                    ok: false,
                    b_node: NodeRef::new(self.id, b_object),
                    merged: ReplicationGraph::default(),
                    b_value: None,
                    b_value_vt: VirtualTime::ZERO,
                    b_value_committed: true,
                    confirms_expected: 0,
                    extra_affected: Vec::new(),
                },
            );
            return;
        }
        self.ensure_direct(b_object);
        let b_node = NodeRef::new(self.id, b_object);
        let (g_b, t_gb) = match self.store.effective_graph(b_object) {
            Ok((g, t)) => (g.clone(), t),
            Err(_) => return,
        };
        let merged = g_b.joined_with(&a_graph, a_node, b_node, relation);
        let old_primary = g_b.primary();

        // B's value travels back for adoption by A's side.
        let (b_value, b_value_vt, b_value_committed) = {
            let obj = self.store.get(b_object).ok();
            let entry = obj.and_then(|o| o.values.current());
            match entry {
                Some(e) => (
                    self.store.tree_snapshot(b_object, None).ok(),
                    e.vt,
                    e.committed,
                ),
                None => (None, VirtualTime::ZERO, true),
            }
        };

        // Apply the merged graph at B (uncommitted until A's summary).
        if let Ok(obj) = self.store.get_mut(b_object) {
            obj.graphs.insert(txn, merged.clone());
        }
        self.remote.entry(txn).or_default().origin = origin;
        self.remote
            .get_mut(&txn)
            .expect("inserted above")
            .graph_objects
            .insert(b_object);

        let mut confirms_expected = 0u32;

        // Propagate the merged graph to B's old replicas; gB's primary
        // confirms directly to A ("the confirmation returned to A via a
        // separate message", §3.3).
        for node in g_b.nodes() {
            if node.site == self.id {
                continue;
            }
            self.send(
                node.site,
                Message::GraphUpdate {
                    txn,
                    origin,
                    target: node.object,
                    graph: merged.clone(),
                    t_g: t_gb,
                    needs_check: Some(node.site) == old_primary.map(|p| p.site),
                    adopt_value: None,
                    adopt_value_vt: VirtualTime::ZERO,
                },
            );
        }
        match old_primary {
            Some(p) if p.site == self.id => {
                // B hosts gB's primary: check locally and confirm to A.
                let ok = self.check_graph_and_reserve(b_object, t_gb, txn);
                confirms_expected += 1;
                let verdict = if ok {
                    Message::Confirm {
                        subject: txn,
                        kind: crate::message::SubjectKind::Txn,
                    }
                } else {
                    Message::Deny {
                        subject: txn,
                        kind: crate::message::SubjectKind::Txn,
                    }
                };
                self.send(origin, verdict);
            }
            Some(_) => {
                confirms_expected += 1;
            }
            None => {}
        }

        // Association membership update, committed with the join
        // transaction (condition (d) of §3.3).
        let mut extra_affected: Vec<SiteId> = Vec::new();
        if let Some(assoc) = assoc_object {
            if self.store.contains(assoc) {
                let state = self
                    .store
                    .get(assoc)
                    .ok()
                    .and_then(|o| o.values.current())
                    .and_then(|e| e.value.as_assoc().cloned());
                if let Some(mut state) = state {
                    let rel = state.entry(relation).or_default();
                    rel.members.insert(a_node);
                    let op = crate::message::WireOp::SetAssoc(crate::message::AssocSnapshot(state));
                    let assoc_graph = self
                        .store
                        .effective_graph(assoc)
                        .map(|(g, _)| g.clone())
                        .ok();
                    let _ = self.store.apply_wire_op(assoc, txn, &op);
                    self.remote
                        .get_mut(&txn)
                        .expect("inserted above")
                        .objects
                        .insert(assoc, txn);
                    // Propagate to association replicas, if any; its
                    // primary also confirms to A.
                    if let Some(g) = assoc_graph {
                        let assoc_primary = g.primary();
                        for node in g.nodes() {
                            if node.site == self.id {
                                continue;
                            }
                            extra_affected.push(node.site);
                            self.send(
                                node.site,
                                Message::Txn(crate::message::TxnPropagate {
                                    txn,
                                    origin,
                                    updates: vec![crate::message::UpdateItem {
                                        addr: crate::message::ObjectAddr::Direct(node.object),
                                        t_r: txn,
                                        t_g: VirtualTime::ZERO,
                                        op: op.clone(),
                                        needs_check: Some(node.site)
                                            == assoc_primary.map(|p| p.site),
                                    }],
                                    reads: vec![],
                                    delegate: None,
                                }),
                            );
                        }
                        match assoc_primary {
                            Some(p) if p.site == self.id => {
                                confirms_expected += 1;
                                // Blind write: NC check only.
                                let ok = self
                                    .store
                                    .get(assoc)
                                    .map(|o| o.value_reservations.check_write(txn).is_ok())
                                    .unwrap_or(false);
                                let verdict = if ok {
                                    Message::Confirm {
                                        subject: txn,
                                        kind: crate::message::SubjectKind::Txn,
                                    }
                                } else {
                                    Message::Deny {
                                        subject: txn,
                                        kind: crate::message::SubjectKind::Txn,
                                    }
                                };
                                self.send(origin, verdict);
                            }
                            Some(_) => confirms_expected += 1,
                            None => {}
                        }
                    }
                    let assoc_changed = vec![assoc];
                    self.schedule_optimistic(&assoc_changed);
                    self.create_pess_snapshots(txn, &[(assoc, txn)], false);
                }
            }
        }

        self.send(
            origin,
            Message::JoinReply {
                txn,
                ok: true,
                b_node,
                merged,
                b_value,
                b_value_vt,
                b_value_committed,
                confirms_expected,
                extra_affected,
            },
        );
    }

    /// A's processing of B's reply: adopt the merged graph and B's value,
    /// propagate to A's old replicas, and start waiting for confirmations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_join_reply(
        &mut self,
        txn: VirtualTime,
        ok: bool,
        _b_node: NodeRef,
        merged: ReplicationGraph,
        b_value: Option<TreeSnapshot>,
        b_value_vt: VirtualTime,
        b_value_committed: bool,
        confirms_expected: u32,
        extra_affected: Vec<SiteId>,
    ) {
        let Some(op) = self.joins.get(&txn) else {
            return;
        };
        let local = op.local;
        let t_ga = op.t_ga;
        if !ok {
            self.joins.remove(&txn);
            self.events.push(EngineEvent::JoinCompleted {
                object: local,
                vt: txn,
                ok: false,
            });
            return;
        }

        // Adopt the merged graph and B's value at the join VT.
        let old_graph = self
            .store
            .effective_graph(local)
            .map(|(g, _)| g.clone())
            .unwrap_or_default();
        let a_primary = old_graph.primary();
        if let Ok(obj) = self.store.get_mut(local) {
            obj.graphs.insert(txn, merged.clone());
        }
        // The adopted value keeps the contact's original write VT so the
        // joiner's subsequent read intervals line up with the primary's
        // history (reading a value "at the join VT" would poison every RL
        // guess formed from it).
        let adopted_vt = if b_value_vt == VirtualTime::ZERO {
            txn
        } else {
            b_value_vt
        };
        let mut adopted: Vec<ObjectName> = Vec::new();
        if let Some(v) = &b_value {
            if let Ok(changed) = self.store.apply_wire_op(
                local,
                adopted_vt,
                &crate::message::WireOp::SetTree(v.clone()),
            ) {
                adopted = changed;
            }
        }

        // Propagate graph + adopted value to A's old replicas; gA's primary
        // confirms back to us.
        let mut awaiting = confirms_expected as i64;
        for node in old_graph.nodes() {
            if node.site == self.id {
                continue;
            }
            self.send(
                node.site,
                Message::GraphUpdate {
                    txn,
                    origin: self.id,
                    target: node.object,
                    graph: merged.clone(),
                    t_g: t_ga,
                    needs_check: Some(node.site) == a_primary.map(|p| p.site),
                    adopt_value: b_value.clone(),
                    adopt_value_vt: adopted_vt,
                },
            );
        }
        let mut denied = false;
        #[allow(clippy::collapsible_match)] // collapsing changes the Some(_) fallthrough
        match a_primary {
            Some(p) if p.site == self.id => {
                // gA's primary is this site: verify locally; a clean check
                // needs no further confirmation.
                if !self.check_graph_and_reserve(local, t_ga, txn) {
                    denied = true;
                }
            }
            Some(_) => awaiting += 1,
            None => {}
        }

        let mut rc_waits = BTreeSet::new();
        if !b_value_committed
            && self.decided.get(&b_value_vt) != Some(&TxnOutcome::Committed)
            && b_value_vt != VirtualTime::ZERO
        {
            rc_waits.insert(b_value_vt);
        }

        let mut affected: BTreeSet<SiteId> = merged.sites().filter(|s| *s != self.id).collect();
        affected.extend(extra_affected);

        {
            let op = self.joins.get_mut(&txn).expect("checked above");
            op.phase = JoinPhase::AwaitingConfirms;
            // Confirmations that raced ahead of the reply already
            // decremented the counter below zero.
            op.awaiting += awaiting;
            op.rc_waits = rc_waits;
            op.affected = affected;
            op.denied = denied || op.denied;
            op.adopted = adopted;
            op.adopted_vt = adopted_vt;
        }

        // The adopted value is a visible change.
        let changed = vec![local];
        self.schedule_optimistic(&changed);
        self.create_pess_snapshots(adopted_vt, &[(local, adopted_vt)], false);

        self.maybe_finalize_join(txn);
    }

    /// A replica receives a changed replication graph (join merge, leave,
    /// or failure repair via a live primary).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_graph_update(
        &mut self,
        txn: VirtualTime,
        origin: SiteId,
        target: ObjectName,
        graph: ReplicationGraph,
        t_g: VirtualTime,
        needs_check: bool,
        adopt_value: Option<TreeSnapshot>,
        adopt_value_vt: VirtualTime,
    ) {
        if self.decided.get(&txn) == Some(&TxnOutcome::Aborted) {
            return;
        }
        if !self.store.contains(target) {
            return;
        }
        if let Ok(obj) = self.store.get_mut(target) {
            obj.graphs.insert(txn, graph);
        }
        let entry = self.remote.entry(txn).or_default();
        entry.origin = origin;
        entry.graph_objects.insert(target);
        if let Some(v) = &adopt_value {
            // Adoption is applied at the contacted side's original value VT
            // so the adopting replica's later read intervals line up with
            // the primary's history.
            let at = if adopt_value_vt == VirtualTime::ZERO {
                txn
            } else {
                adopt_value_vt
            };
            let changed = self
                .store
                .apply_wire_op(target, at, &crate::message::WireOp::SetTree(v.clone()))
                .unwrap_or_default();
            let entry = self.remote.get_mut(&txn).expect("inserted above");
            for c in &changed {
                entry.adopted.push((*c, at));
            }
            self.schedule_optimistic(&changed);
            self.create_pess_snapshots(at, &[(target, at)], false);
        }
        if self.decided.get(&txn) == Some(&TxnOutcome::Committed) {
            if let Ok(obj) = self.store.get_mut(target) {
                obj.graphs.mark_committed(txn);
                obj.values.mark_committed(txn);
            }
            return;
        }
        if needs_check {
            let ok = self.check_graph_and_reserve(target, t_g, txn);
            let verdict = if ok {
                Message::Confirm {
                    subject: txn,
                    kind: crate::message::SubjectKind::Txn,
                }
            } else {
                Message::Deny {
                    subject: txn,
                    kind: crate::message::SubjectKind::Txn,
                }
            };
            self.send(origin, verdict);
        }
    }

    // ------------------------------------------------------------------
    // Confirmation plumbing shared by joins and graph transactions
    // ------------------------------------------------------------------

    pub(crate) fn on_collab_confirm(&mut self, subject: VirtualTime) {
        if let Some(op) = self.joins.get_mut(&subject) {
            op.awaiting -= 1; // may go negative before the JoinReply lands
            self.maybe_finalize_join(subject);
            return;
        }
        if let Some(op) = self.graph_txns.get_mut(&subject) {
            op.awaiting = op.awaiting.saturating_sub(1);
            self.maybe_finalize_graph_txn(subject);
        }
    }

    pub(crate) fn on_collab_deny(&mut self, subject: VirtualTime) {
        if self.joins.contains_key(&subject) {
            self.abort_join(subject, true);
            return;
        }
        if self.graph_txns.contains_key(&subject) {
            self.abort_graph_txn(subject);
        }
    }

    pub(crate) fn on_collab_commit_summary(&mut self, txn: VirtualTime) {
        // Defensive: a summary commit for an operation we originated.
        if self.joins.contains_key(&txn) {
            self.finalize_join(txn, false);
        }
        if self.graph_txns.contains_key(&txn) {
            self.finalize_graph_txn(txn, false);
        }
    }

    pub(crate) fn on_collab_abort_summary(&mut self, txn: VirtualTime) {
        if self.joins.contains_key(&txn) {
            self.abort_join(txn, false);
        }
        if self.graph_txns.contains_key(&txn) {
            self.abort_graph_txn(txn);
        }
    }

    pub(crate) fn maybe_finalize_join(&mut self, txn: VirtualTime) {
        let ready = match self.joins.get(&txn) {
            Some(op) => {
                op.phase == JoinPhase::AwaitingConfirms
                    && op.awaiting <= 0
                    && op.rc_waits.is_empty()
                    && !op.denied
            }
            None => false,
        };
        if ready {
            self.finalize_join(txn, true);
        } else if self.joins.get(&txn).map(|o| o.denied).unwrap_or(false) {
            self.abort_join(txn, true);
        }
    }

    fn finalize_join(&mut self, txn: VirtualTime, broadcast: bool) {
        let Some(op) = self.joins.remove(&txn) else {
            return;
        };
        self.decided.insert(txn, TxnOutcome::Committed);
        if let Ok(obj) = self.store.get_mut(op.local) {
            obj.graphs.mark_committed(txn);
        }
        for o in &op.adopted {
            if let Ok(obj) = self.store.get_mut(*o) {
                obj.values.mark_committed(op.adopted_vt);
            }
        }
        if broadcast {
            for site in &op.affected {
                self.send(*site, Message::Commit { txn });
            }
        }
        self.events.push(EngineEvent::JoinCompleted {
            object: op.local,
            vt: txn,
            ok: true,
        });
        self.events.push(EngineEvent::TxnCommitted {
            vt: txn,
            local_origin: true,
        });
        self.resolve_rc_commit(txn);
        let coverage: std::collections::BTreeMap<ObjectName, VirtualTime> =
            [(op.local, txn)].into_iter().collect();
        self.on_committed_update(txn, self.id, &coverage);
        self.run_gc();
    }

    fn abort_join(&mut self, txn: VirtualTime, broadcast: bool) {
        let Some(op) = self.joins.remove(&txn) else {
            return;
        };
        self.decided.insert(txn, TxnOutcome::Aborted);
        if let Ok(obj) = self.store.get_mut(op.local) {
            obj.graphs.purge(txn);
        }
        self.store.purge_write(op.local, op.adopted_vt);
        if broadcast {
            for site in &op.affected {
                self.send(*site, Message::Abort { txn });
            }
            // The contact may not be in `affected` yet (deny before reply).
            if !op.affected.contains(&op.invitation.contact.site) {
                self.send(op.invitation.contact.site, Message::Abort { txn });
            }
        }
        let objects = vec![op.local];
        self.on_aborted_update(txn, &objects);
        if op.retries_left > 0 {
            self.stats.retries += 1;
            let _ = self.start_join(op.invitation, op.local, op.retries_left - 1);
        } else {
            self.events.push(EngineEvent::JoinCompleted {
                object: op.local,
                vt: txn,
                ok: false,
            });
        }
    }

    pub(crate) fn maybe_finalize_graph_txn(&mut self, txn: VirtualTime) {
        let ready = match self.graph_txns.get(&txn) {
            Some(op) => op.awaiting == 0 && !op.denied,
            None => false,
        };
        if ready {
            self.finalize_graph_txn(txn, true);
        }
    }

    fn finalize_graph_txn(&mut self, txn: VirtualTime, broadcast: bool) {
        let Some(op) = self.graph_txns.remove(&txn) else {
            return;
        };
        self.decided.insert(txn, TxnOutcome::Committed);
        if let Ok(obj) = self.store.get_mut(op.local) {
            obj.graphs.mark_committed(txn);
        }
        if broadcast {
            for site in &op.affected {
                self.send(*site, Message::Commit { txn });
            }
        }
        self.events.push(EngineEvent::TxnCommitted {
            vt: txn,
            local_origin: true,
        });
        self.run_gc();
    }

    fn abort_graph_txn(&mut self, txn: VirtualTime) {
        let Some(op) = self.graph_txns.remove(&txn) else {
            return;
        };
        self.decided.insert(txn, TxnOutcome::Aborted);
        if let Ok(obj) = self.store.get_mut(op.local) {
            obj.graphs.purge(txn);
        }
        for site in &op.affected {
            self.send(*site, Message::Abort { txn });
        }
        self.events.push(EngineEvent::TxnAborted {
            vt: txn,
            local_origin: true,
            retried: false,
        });
    }

    pub(crate) fn resolve_join_rc_commit(&mut self, committed: VirtualTime) {
        let waiting: Vec<VirtualTime> = self
            .joins
            .iter()
            .filter(|(_, op)| op.rc_waits.contains(&committed))
            .map(|(vt, _)| *vt)
            .collect();
        for vt in waiting {
            if let Some(op) = self.joins.get_mut(&vt) {
                op.rc_waits.remove(&committed);
            }
            self.maybe_finalize_join(vt);
        }
    }

    pub(crate) fn cascade_join_rc_abort(&mut self, aborted: VirtualTime) {
        let waiting: Vec<VirtualTime> = self
            .joins
            .iter()
            .filter(|(_, op)| op.rc_waits.contains(&aborted))
            .map(|(vt, _)| *vt)
            .collect();
        for vt in waiting {
            self.abort_join(vt, true);
        }
    }
}
