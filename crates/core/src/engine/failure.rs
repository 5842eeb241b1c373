//! Client-failure handling (paper §3.4): in-doubt transaction resolution
//! after an originator failure, and replication-graph repair — through the
//! (live) primary's fast path or the consensus fallback when the primary
//! itself failed.

use std::collections::{BTreeMap, BTreeSet};

use decaf_trace::TraceKind;
use decaf_vt::{SiteId, VirtualTime};

use crate::graph::{NodeRef, ReplicationGraph};
use crate::message::Message;
use crate::object::{ObjectName, PropagationMode};
use crate::txn::{Transaction, TxnOutcome};

use super::{ConsensusState, EngineEvent, OutcomeQueryState, Site};

impl Site {
    /// Reacts to a fail-stop notification from the communication layer
    /// (§3.4): resolves in-doubt transactions the failed site originated,
    /// aborts local transactions stuck on it, and repairs every replication
    /// graph that included it.
    pub fn notify_site_failed(&mut self, failed: SiteId) {
        if !self.failed_sites.insert(failed) {
            return; // duplicate notification
        }
        self.trace_emit(TraceKind::SiteFailed, None, Some(failed), None);

        self.resolve_in_doubt(failed);
        self.abort_stuck_on(failed);
        self.repair_graphs(failed);
        self.reap_failed_from_protocols(failed);

        // A rejoin in flight must not wedge on a peer that died before
        // acknowledging: drop it from the awaiting set and finish the
        // rejoin if it was the last one outstanding.
        if self.rejoin_awaiting.remove(&failed) && self.rejoin_awaiting.is_empty() {
            self.finish_rejoin();
        }

        self.events.push(EngineEvent::SiteFailureHandled { failed });
    }

    /// "The remaining sites, upon failure notification, simply determine if
    /// any of them received a commit message regarding the transaction. If
    /// so, the transaction is committed at all the sites; else, it is
    /// aborted" (§3.4). The lowest surviving replica site coordinates.
    fn resolve_in_doubt(&mut self, failed: SiteId) {
        let mut in_doubt: Vec<VirtualTime> = self
            .remote
            .iter()
            .filter(|(vt, r)| r.origin == failed && !self.decided.contains_key(vt))
            .map(|(vt, _)| *vt)
            .collect();
        // `remote` is a hash map: resolve in VT order (DESIGN.md §8).
        in_doubt.sort_unstable();
        for vt in in_doubt {
            // Every in-doubt survivor runs the query; duplicate rounds are
            // idempotent and always reach the same verdict because any
            // commit record is visible to every query.
            let members = self.replica_sites_of_txn(vt);
            let alive: BTreeSet<SiteId> = members
                .into_iter()
                .filter(|s| !self.failed_sites.contains(s))
                .collect();
            let expecting: BTreeSet<SiteId> = alive.into_iter().filter(|s| *s != self.id).collect();
            if expecting.is_empty() {
                // Only we survive: nothing committed here, so abort.
                self.apply_outcome_decision(vt, TxnOutcome::Aborted, &BTreeSet::new());
                continue;
            }
            for site in &expecting {
                self.send(
                    *site,
                    Message::OutcomeQuery {
                        txn: vt,
                        asker: self.id,
                    },
                );
            }
            self.outcome_queries.insert(
                vt,
                OutcomeQueryState {
                    expecting,
                    any_commit: false,
                },
            );
        }
    }

    /// "If the primary site fails before the transaction commits, the
    /// transaction is aborted; it is retried later after the graph update
    /// has committed" (§3.4).
    fn abort_stuck_on(&mut self, failed: SiteId) {
        let stuck: Vec<VirtualTime> = self
            .pending
            .iter()
            .filter(|(_, p)| p.awaiting.contains(&failed) || p.delegate_site == Some(failed))
            .map(|(vt, _)| *vt)
            .collect();
        for vt in stuck {
            let delegated = self
                .pending
                .get(&vt)
                .and_then(|p| p.delegate_site)
                .is_some();
            if delegated {
                // The delegate may have broadcast COMMIT before dying; ask
                // the other affected sites before deciding.
                let affected: BTreeSet<SiteId> = self
                    .pending
                    .get(&vt)
                    .map(|p| p.affected.clone())
                    .unwrap_or_default();
                let expecting: BTreeSet<SiteId> = affected
                    .into_iter()
                    .filter(|s| *s != self.id && !self.failed_sites.contains(s))
                    .collect();
                if expecting.is_empty() {
                    self.abort_and_queue_retry(vt);
                    continue;
                }
                for site in &expecting {
                    self.send(
                        *site,
                        Message::OutcomeQuery {
                            txn: vt,
                            asker: self.id,
                        },
                    );
                }
                self.outcome_queries.insert(
                    vt,
                    OutcomeQueryState {
                        expecting,
                        any_commit: false,
                    },
                );
            } else {
                // We are the only possible committer and have not committed:
                // abort is safe; retry once the graph repair lands.
                self.abort_and_queue_retry(vt);
            }
        }
    }

    /// Aborts a pending local transaction, keeping its body for re-execution
    /// after graph repair.
    fn abort_and_queue_retry(&mut self, vt: VirtualTime) {
        let Some(p) = self.pending.remove(&vt) else {
            return;
        };
        self.decided.insert(vt, TxnOutcome::Aborted);
        for obj in &p.touched {
            self.store.purge_write(*obj, vt);
        }
        let reserved = p.reserved_local.clone();
        self.release_local_reservations(&reserved, vt);
        for site in &p.affected {
            if !self.failed_sites.contains(site) {
                self.send(*site, Message::Abort { txn: vt });
            }
        }
        self.stats.txns_aborted_conflict += 1;
        self.events.push(EngineEvent::TxnAborted {
            vt,
            local_origin: true,
            retried: true,
        });
        let touched: Vec<ObjectName> = p.touched.iter().copied().collect();
        self.on_aborted_update(vt, &touched);
        self.cascade_rc_abort(vt);
        self.retry_after_repair.push((p.handle_id, p.txn));
    }

    /// Repairs every local direct object whose graph included the failed
    /// site (§3.4).
    fn repair_graphs(&mut self, failed: SiteId) {
        let candidates: Vec<ObjectName> = self
            .store
            .objects()
            .filter(|o| o.propagation == PropagationMode::Direct)
            .filter(|o| {
                o.graphs
                    .current()
                    .map(|e| e.value.nodes().any(|n| n.site == failed))
                    .unwrap_or(false)
            })
            .map(|o| o.name)
            .collect();

        for obj in candidates {
            let Ok((graph, t_g)) = self.store.effective_graph(obj) else {
                continue;
            };
            let graph = graph.clone();
            let self_node = NodeRef::new(self.id, obj);
            if !graph.contains(self_node) {
                continue;
            }
            let Some(old_primary) = graph.primary() else {
                continue;
            };
            self.repaired_out
                .entry(failed)
                .or_default()
                .insert(obj, graph.clone());
            if self.failed_sites.contains(&old_primary.site) {
                // Circularity: the primary needed to commit the graph update
                // is gone — fall back to the consensus protocol (§3.4).
                self.start_graph_consensus(obj, &graph);
            } else if old_primary.site == self.id {
                // We are the live primary: coordinate a normal timestamped
                // graph-update transaction.
                self.primary_repair(obj, &graph, t_g);
            }
            // Other survivors wait for the primary or the coordinator.
        }
        self.flush_repair_retries_if_clean();
    }

    /// Fast-path repair when this site hosts the live primary.
    fn primary_repair(&mut self, obj: ObjectName, graph: &ReplicationGraph, t_g: VirtualTime) {
        let alive_members: Vec<NodeRef> = graph
            .nodes()
            .filter(|n| !self.failed_sites.contains(&n.site))
            .copied()
            .collect();
        self.primary_graph_update(obj, t_g, &alive_members, |site, node| {
            site.prune_failed(graph, node)
        });
    }

    /// Re-admits `rejoiner`, back after a declared fail-stop, into every
    /// graph it was repaired out of whose live primary this site is: §3.3's
    /// graph merge at a fresh VT, which is what "join as a new member"
    /// commits (§3.4). The new graph is the current one plus the rejoiner's
    /// node, with the old edges between live nodes. Other survivors only
    /// drop their record: the primary's `GraphUpdate` reaches them.
    pub(crate) fn readmit(&mut self, rejoiner: SiteId) {
        let Some(before) = self.repaired_out.remove(&rejoiner) else {
            return;
        };
        for (obj, old) in before {
            let Ok((graph, t_g)) = self.store.effective_graph(obj) else {
                continue;
            };
            let Some(node) = old.node_at(rejoiner) else {
                continue;
            };
            let is_primary = graph.primary().map(|p| p.site) == Some(self.id);
            if !is_primary || graph.node_at(rejoiner).is_some() {
                continue;
            }
            let live = |n: &NodeRef| *n == node || graph.contains(*n);
            let merged = ReplicationGraph::from_parts(
                graph.nodes().copied().chain([node]),
                graph
                    .edges()
                    .chain(old.edges().filter(|(a, b, _)| live(a) && live(b)))
                    .copied(),
            );
            if !merged.is_connected() {
                continue; // every old neighbour of the rejoiner is gone
            }
            let members: Vec<NodeRef> = merged.nodes().copied().collect();
            self.primary_graph_update(obj, t_g, &members, |_, _| merged.clone());
        }
    }

    /// One graph-update transaction this site commits alone as the live
    /// primary of `obj`'s graph (read at `t_g`): checked and reserved here,
    /// installed as `graph_for(node)` at every node of `members`, and
    /// committed at once, since no other member checks it.
    fn primary_graph_update(
        &mut self,
        obj: ObjectName,
        t_g: VirtualTime,
        members: &[NodeRef],
        graph_for: impl Fn(&Site, NodeRef) -> ReplicationGraph,
    ) {
        let vt = self.clock.next();
        let my_graph = graph_for(self, NodeRef::new(self.id, obj));
        if !self.check_graph_and_reserve(obj, t_g, vt) {
            return; // a concurrent graph txn is in flight; it will settle
        }
        if let Ok(o) = self.store.get_mut(obj) {
            o.graphs.insert(vt, my_graph);
        }
        let mut affected = BTreeSet::new();
        for node in members {
            if node.site == self.id {
                continue;
            }
            affected.insert(node.site);
            let their_graph = graph_for(self, *node);
            self.send(
                node.site,
                Message::GraphUpdate {
                    txn: vt,
                    origin: self.id,
                    target: node.object,
                    graph: their_graph,
                    t_g,
                    needs_check: false,
                    adopt_value: None,
                    adopt_value_vt: VirtualTime::ZERO,
                },
            );
        }
        self.graph_txns.insert(
            vt,
            crate::collab::GraphTxn {
                local: obj,
                awaiting: 0,
                affected,
                denied: false,
            },
        );
        self.maybe_finalize_graph_txn(vt);
    }

    fn prune_failed(&self, graph: &ReplicationGraph, keep: NodeRef) -> ReplicationGraph {
        let mut g = graph.clone();
        let failed: Vec<SiteId> = self.failed_sites.iter().copied().collect();
        for site in failed {
            g = g.without_site(site, keep);
        }
        g
    }

    /// Starts the consensus fallback; only the lowest surviving member site
    /// coordinates (§3.4: "the remaining sites use a distributed consensus
    /// protocol").
    fn start_graph_consensus(&mut self, obj: ObjectName, graph: &ReplicationGraph) {
        let alive: BTreeSet<SiteId> = graph
            .sites()
            .filter(|s| !self.failed_sites.contains(s))
            .collect();
        let Some(&coordinator) = alive.iter().next() else {
            return;
        };
        if coordinator != self.id {
            return;
        }
        // Abort conflicting local work on this object first.
        self.abort_conflicting_pending(obj);

        let at = self.clock.next();
        let ballot = self.next_ballot;
        self.next_ballot += 1;
        let self_node = NodeRef::new(self.id, obj);
        let targets: BTreeMap<SiteId, ObjectName> = graph
            .nodes()
            .filter(|n| alive.contains(&n.site) && n.site != self.id)
            .map(|n| (n.site, n.object))
            .collect();
        let repaired = self.prune_failed(graph, self_node);
        let awaiting: BTreeSet<SiteId> = targets.keys().copied().collect();

        if awaiting.is_empty() {
            // Sole survivor: apply directly.
            if let Ok(o) = self.store.get_mut(obj) {
                o.graphs.insert_committed(at, repaired);
            }
            return;
        }
        for (site, target) in &targets {
            self.send(
                *site,
                Message::GraphPropose {
                    ballot,
                    coordinator: self.id,
                    target: *target,
                    coord_target: obj,
                    graph: self.prune_failed(graph, NodeRef::new(*site, *target)),
                    at,
                },
            );
        }
        self.consensus.insert(
            ballot,
            ConsensusState {
                object: obj,
                graph: repaired,
                at,
                awaiting,
                targets,
            },
        );
    }

    /// Aborts (and queues for retry) local pending transactions touching
    /// `obj` — the consensus round must start from a clean slate ("abort
    /// any other transactions that conflict with the replication graph
    /// update transaction", §3.4).
    fn abort_conflicting_pending(&mut self, obj: ObjectName) {
        let conflicting: Vec<VirtualTime> = self
            .pending
            .iter()
            .filter(|(_, p)| p.touched.contains(&obj) || p.reserved_local.contains(&obj))
            .map(|(vt, _)| *vt)
            .collect();
        for vt in conflicting {
            self.abort_and_queue_retry(vt);
        }
    }

    /// Re-executes transactions parked on graph repair once no repair is in
    /// flight.
    fn flush_repair_retries_if_clean(&mut self) {
        if !self.consensus.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.retry_after_repair);
        let budget = self.config.retry_budget;
        for (handle_id, txn) in parked {
            self.stats.retries += 1;
            self.run_attempt(handle_id, txn, budget);
        }
    }

    /// Drops failed sites from in-flight recovery protocols and re-checks
    /// their completion ("the protocol is repeated until all the fail
    /// notifications are successfully applied", §3.4).
    fn reap_failed_from_protocols(&mut self, failed: SiteId) {
        // Outcome queries no longer expect answers from the dead.
        let decided_queries: Vec<VirtualTime> = {
            let mut done = Vec::new();
            for (vt, q) in self.outcome_queries.iter_mut() {
                q.expecting.remove(&failed);
                if q.expecting.is_empty() {
                    done.push(*vt);
                }
            }
            done
        };
        for vt in decided_queries {
            self.finish_outcome_query(vt);
        }
        // Consensus rounds stop waiting for the dead.
        let ready: Vec<u64> = {
            let mut done = Vec::new();
            for (ballot, c) in self.consensus.iter_mut() {
                c.awaiting.remove(&failed);
                c.targets.remove(&failed);
                if c.awaiting.is_empty() {
                    done.push(*ballot);
                }
            }
            done
        };
        for ballot in ready {
            self.apply_consensus(ballot);
        }
        // Pending local transactions no longer await the dead primary's
        // confirm (handled in abort_stuck_on), but joins might:
        let dead_joins: Vec<VirtualTime> = self
            .joins
            .iter()
            .filter(|(_, op)| op.invitation.contact.site == failed)
            .map(|(vt, _)| *vt)
            .collect();
        for vt in dead_joins {
            self.on_collab_abort_summary(vt);
        }
    }

    // ------------------------------------------------------------------
    // Recovery message handlers
    // ------------------------------------------------------------------

    pub(crate) fn on_outcome_query(&mut self, txn: VirtualTime, asker: SiteId) {
        self.send(
            asker,
            Message::OutcomeReport {
                txn,
                outcome: self.decided.get(&txn).copied(),
            },
        );
    }

    pub(crate) fn on_outcome_report(
        &mut self,
        from: SiteId,
        txn: VirtualTime,
        outcome: Option<TxnOutcome>,
    ) {
        let done = {
            let Some(q) = self.outcome_queries.get_mut(&txn) else {
                return;
            };
            if outcome == Some(TxnOutcome::Committed) {
                q.any_commit = true;
            }
            q.expecting.remove(&from);
            q.expecting.is_empty()
        };
        if done {
            self.finish_outcome_query(txn);
        }
    }

    fn finish_outcome_query(&mut self, txn: VirtualTime) {
        let Some(q) = self.outcome_queries.remove(&txn) else {
            return;
        };
        let outcome = if q.any_commit {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Aborted
        };
        // Inform the other survivors, then apply locally.
        let members: BTreeSet<SiteId> = self
            .replica_sites_of_txn(txn)
            .into_iter()
            .filter(|s| *s != self.id && !self.failed_sites.contains(s))
            .collect();
        for site in members.iter() {
            self.send(*site, Message::OutcomeDecision { txn, outcome });
        }
        self.apply_outcome_decision(txn, outcome, &members);
    }

    pub(crate) fn on_outcome_decision(&mut self, txn: VirtualTime, outcome: TxnOutcome) {
        if self.decided.get(&txn) == Some(&outcome) && !self.pending.contains_key(&txn) {
            return;
        }
        self.apply_outcome_decision(txn, outcome, &BTreeSet::new());
    }

    fn apply_outcome_decision(
        &mut self,
        txn: VirtualTime,
        outcome: TxnOutcome,
        _informed: &BTreeSet<SiteId>,
    ) {
        match outcome {
            TxnOutcome::Committed => self.on_commit(txn),
            TxnOutcome::Aborted => {
                if self.pending.contains_key(&txn) {
                    // Our own delegated transaction: abort and park for
                    // retry after graph repair.
                    self.abort_and_queue_retry(txn);
                } else {
                    self.decided.insert(txn, TxnOutcome::Aborted);
                    self.rollback_remote(txn);
                }
            }
        }
    }

    pub(crate) fn on_graph_propose(
        &mut self,
        ballot: u64,
        coordinator: SiteId,
        target: ObjectName,
        coord_target: ObjectName,
        graph: ReplicationGraph,
        at: VirtualTime,
    ) {
        // Commit transactions known committed, abort conflicting ones
        // (§3.4), then accept.
        self.abort_conflicting_pending(target);
        if self.store.contains(target) {
            if let Ok(o) = self.store.get_mut(target) {
                o.graphs.insert_committed(at, graph);
            }
        }
        self.send(
            coordinator,
            Message::GraphAck {
                ballot,
                coord_target,
            },
        );
    }

    pub(crate) fn on_graph_ack(&mut self, from: SiteId, ballot: u64, _coord_target: ObjectName) {
        let done = {
            let Some(c) = self.consensus.get_mut(&ballot) else {
                return;
            };
            c.awaiting.remove(&from);
            c.awaiting.is_empty()
        };
        if done {
            self.apply_consensus(ballot);
        }
    }

    fn apply_consensus(&mut self, ballot: u64) {
        let Some(c) = self.consensus.remove(&ballot) else {
            return;
        };
        if let Ok(o) = self.store.get_mut(c.object) {
            o.graphs.insert_committed(c.at, c.graph.clone());
        }
        for (site, target) in &c.targets {
            self.send(
                *site,
                Message::GraphApply {
                    ballot,
                    target: *target,
                    graph: c.graph.clone(),
                    at: c.at,
                },
            );
        }
        self.flush_repair_retries_if_clean();
    }

    pub(crate) fn on_graph_apply(
        &mut self,
        _ballot: u64,
        target: ObjectName,
        graph: ReplicationGraph,
        at: VirtualTime,
    ) {
        if let Ok(o) = self.store.get_mut(target) {
            o.graphs.insert_committed(at, graph);
        }
        self.flush_repair_retries_if_clean();
    }

    /// Union of replica sites across the objects a transaction touched at
    /// this site.
    fn replica_sites_of_txn(&self, vt: VirtualTime) -> BTreeSet<SiteId> {
        let mut sites = BTreeSet::new();
        if let Some(r) = self.remote.get(&vt) {
            for obj in r.objects.keys().chain(r.graph_objects.iter()) {
                if let Ok((g, _)) = self.store.effective_graph(*obj) {
                    sites.extend(g.sites());
                }
            }
            sites.insert(r.origin);
        }
        if let Some(p) = self.pending.get(&vt) {
            sites.extend(p.affected.iter().copied());
            sites.insert(self.id);
        }
        sites
    }

    /// Injects a transaction to retry after repair (used by tests).
    #[doc(hidden)]
    pub fn queue_retry_after_repair(&mut self, txn: Box<dyn Transaction>) {
        let handle_id = self.next_handle;
        self.next_handle += 1;
        self.retry_after_repair.push((handle_id, txn));
    }
}
