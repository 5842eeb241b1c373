//! Local transaction execution: optimistic apply, guess recording, message
//! planning, delegate-commit selection, and the commit/abort paths for
//! locally originated transactions (paper §3.1).

use std::collections::{BTreeMap, BTreeSet};

use decaf_trace::TraceKind;
use decaf_vt::{SiteId, VirtualTime};

use crate::message::{Delegate, Message, ObjectAddr, Path, ReadItem, TxnPropagate, UpdateItem};
use crate::object::ObjectName;
use crate::txn::{AbortReason, Recording, Transaction, TxnCtx, TxnHandle, TxnOutcome};

use super::{EngineEvent, PendingTxn, Site};

/// Per-destination batch under construction.
#[derive(Default)]
struct SiteBatch {
    updates: Vec<UpdateItem>,
    reads: Vec<ReadItem>,
}

impl Site {
    /// Submits a transaction for execution at this (originating) site.
    ///
    /// The transaction runs immediately and optimistically; its updates
    /// propagate to replicas and its guesses are checked at the relevant
    /// primary copies. If a guess is denied the transaction is rolled back
    /// and automatically re-executed (§2.4). The returned handle can be
    /// polled with [`Site::txn_outcome`].
    pub fn execute(&mut self, txn: Box<dyn Transaction>) -> TxnHandle {
        let handle_id = self.next_handle;
        self.next_handle += 1;
        self.stats.txns_started += 1;
        if !self.rejoin_awaiting.is_empty() {
            // Mid-rejoin: defer the gesture until catch-up completes so it
            // executes against caught-up state (released by finish_rejoin).
            self.rejoin_deferred.push((handle_id, txn));
            return TxnHandle {
                site: self.id,
                id: handle_id,
            };
        }
        let budget = self.config.retry_budget;
        self.run_attempt(handle_id, txn, budget);
        // Local execution may have committed or aborted state that parked
        // snapshot checks were waiting on.
        self.retry_parked_snaps();
        TxnHandle {
            site: self.id,
            id: handle_id,
        }
    }

    /// Runs one attempt of a transaction (initial execution or retry).
    pub(crate) fn run_attempt(
        &mut self,
        handle_id: u64,
        mut txn: Box<dyn Transaction>,
        retries_left: u32,
    ) {
        let vt = self.clock.next();
        self.trace_emit(
            TraceKind::TxnBegin,
            Some(vt),
            None,
            Some(retries_left as u64),
        );
        let mut rec = Recording::default();
        let result = {
            let mut ctx = TxnCtx {
                vt,
                store: &mut self.store,
                rec: &mut rec,
            };
            txn.execute(&mut ctx)
        };

        if let Err(e) = result {
            // Application abort: undo, notify, no retry (§2.4).
            for obj in &rec.touched {
                self.store.purge_write(*obj, vt);
            }
            self.stats.txns_aborted_user += 1;
            self.trace_emit(TraceKind::Abort, Some(vt), None, None);
            self.decided.insert(vt, TxnOutcome::Aborted);
            self.handle_outcome.insert(handle_id, TxnOutcome::Aborted);
            txn.handle_abort(&AbortReason::Application(e));
            self.events.push(EngineEvent::TxnAborted {
                vt,
                local_origin: true,
                retried: false,
            });
            return;
        }

        self.finish_attempt(handle_id, vt, rec, txn, retries_left);
    }

    /// Post-body bookkeeping: local primary checks, message planning,
    /// pending-state creation, view scheduling.
    fn finish_attempt(
        &mut self,
        handle_id: u64,
        vt: VirtualTime,
        rec: Recording,
        txn: Box<dyn Transaction>,
        retries_left: u32,
    ) {
        let mut reserved_local: BTreeSet<ObjectName> = BTreeSet::new();
        let mut batches: BTreeMap<SiteId, SiteBatch> = BTreeMap::new();
        let mut remote_primaries: BTreeSet<SiteId> = BTreeSet::new();
        let mut conflict = false;

        // ---- written objects: propagate + check ---------------------------
        // Preserve the body's write order; group addressing info per object.
        struct WriteInfo {
            root: ObjectName,
            path: Path,
            primary: SiteId,
            replica_sites: Vec<(SiteId, ObjectName)>, // (site, root name there)
        }
        let mut winfo: BTreeMap<ObjectName, WriteInfo> = BTreeMap::new();
        for w in &rec.writes {
            if winfo.contains_key(&w.object) {
                continue;
            }
            let Ok((root, path)) = self.store.path_to(w.object) else {
                conflict = true;
                break;
            };
            let Ok((graph, _)) = self.store.effective_graph(w.object) else {
                conflict = true;
                break;
            };
            let primary = match graph.primary() {
                Some(p) => p.site,
                None => {
                    conflict = true;
                    break;
                }
            };
            let replica_sites = graph
                .nodes()
                .map(|n| (n.site, n.object))
                .collect::<Vec<_>>();
            winfo.insert(
                w.object,
                WriteInfo {
                    root,
                    path,
                    primary,
                    replica_sites,
                },
            );
        }

        if !conflict {
            // Local checks first: if this site is primary for anything the
            // transaction touched, verify RL/NC here and now.
            for (obj, info) in &winfo {
                let (t_r, t_g) = rec.write_meta[obj];
                if info.primary == self.id {
                    if !self.check_and_reserve(*obj, info.root, t_r, t_g, vt, true) {
                        conflict = true;
                        break;
                    }
                    reserved_local.insert(*obj);
                } else {
                    remote_primaries.insert(info.primary);
                }
            }
        }
        if !conflict {
            for (obj, r) in &rec.reads {
                if rec.write_meta.contains_key(obj) {
                    continue; // the write's check covers the read (§3.1)
                }
                let Ok((root, _)) = self.store.path_to(*obj) else {
                    conflict = true;
                    break;
                };
                let Ok(primary) = self.store.primary_of(*obj) else {
                    conflict = true;
                    break;
                };
                if primary.site == self.id {
                    if !self.check_and_reserve(*obj, root, r.t_r, r.t_g, vt, false) {
                        conflict = true;
                        break;
                    }
                    reserved_local.insert(*obj);
                } else {
                    remote_primaries.insert(primary.site);
                }
            }
        }

        if conflict {
            self.conflict_abort_unsent(handle_id, vt, &rec, reserved_local, txn, retries_left);
            return;
        }

        // ---- build per-site batches ---------------------------------------
        for w in &rec.writes {
            let info = &winfo[&w.object];
            let (t_r, t_g) = rec.write_meta[&w.object];
            for (site, root_there) in &info.replica_sites {
                if *site == self.id {
                    continue;
                }
                let addr = if info.path.is_root() {
                    ObjectAddr::Direct(*root_there)
                } else {
                    ObjectAddr::Indirect {
                        root: *root_there,
                        path: info.path.clone(),
                    }
                };
                batches.entry(*site).or_default().updates.push(UpdateItem {
                    addr,
                    t_r,
                    t_g,
                    op: w.op.clone(),
                    needs_check: *site == info.primary,
                });
            }
        }
        for (obj, r) in &rec.reads {
            if rec.write_meta.contains_key(obj) {
                continue;
            }
            let Ok(primary) = self.store.primary_of(*obj) else {
                continue;
            };
            if primary.site == self.id {
                continue;
            }
            let Ok((_, path)) = self.store.path_to(*obj) else {
                continue;
            };
            let Ok((graph, _)) = self.store.effective_graph(*obj) else {
                continue;
            };
            let root_there = graph
                .node_at(primary.site)
                .map(|n| n.object)
                .unwrap_or(primary.object);
            let addr = if path.is_root() {
                ObjectAddr::Direct(root_there)
            } else {
                ObjectAddr::Indirect {
                    root: root_there,
                    path,
                }
            };
            batches
                .entry(primary.site)
                .or_default()
                .reads
                .push(ReadItem {
                    addr,
                    t_r: r.t_r,
                    t_g: r.t_g,
                    hi: None,
                });
        }

        // ---- RC guesses, delegation, pending state -------------------------
        let mut rc_waits = rec.rc_dependencies();
        // Path RC guesses (§3.2.1): "The updated model objects must make RC
        // guesses to ensure that transactions that created their paths have
        // committed."
        for obj in rec.write_meta.keys().chain(rec.reads.keys()) {
            for dep in self.path_dependencies(*obj) {
                rc_waits.insert(dep);
            }
        }
        rc_waits.retain(|dep| !matches!(self.decided.get(dep), Some(TxnOutcome::Committed)));

        let affected: BTreeSet<SiteId> = batches.keys().copied().collect();
        let delegate_to =
            if self.config.delegate_enabled && remote_primaries.len() == 1 && rc_waits.is_empty() {
                remote_primaries.iter().next().copied()
            } else {
                None
            };

        let awaiting: BTreeSet<SiteId> = if delegate_to.is_some() {
            BTreeSet::new()
        } else {
            remote_primaries.clone()
        };

        let write_tr: BTreeMap<ObjectName, VirtualTime> = rec
            .write_meta
            .iter()
            .map(|(o, (t_r, _))| (*o, *t_r))
            .collect();
        let pess_updates: Vec<(ObjectName, VirtualTime)> =
            write_tr.iter().map(|(o, t)| (*o, *t)).collect();
        let touched = rec.touched.clone();

        // §3.2: the attempt is now one guess gambling on this many
        // outstanding remote verdicts (RL/NC checks at remote primaries
        // plus RC waits on undecided dependencies).
        let outstanding = (awaiting.len() + rc_waits.len()) as u64;
        self.trace_emit(TraceKind::Guess, Some(vt), None, Some(outstanding));

        self.pending.insert(
            vt,
            PendingTxn {
                handle_id,
                txn,
                touched: touched.clone(),
                reserved_local,
                awaiting,
                rc_waits,
                affected: affected.clone(),
                delegate_site: delegate_to,
                retries_left,
                write_tr,
                sent_batches: Vec::new(),
            },
        );

        // ---- send ----------------------------------------------------------
        for (site, batch) in batches {
            let delegate = match delegate_to {
                Some(d) if d == site => Some(Delegate {
                    notify: affected
                        .iter()
                        .copied()
                        .filter(|s| *s != d)
                        .chain(std::iter::once(self.id))
                        .collect(),
                }),
                _ => None,
            };
            let propagate = TxnPropagate {
                txn: vt,
                origin: self.id,
                updates: batch.updates,
                reads: batch.reads,
                delegate,
            };
            // Durable sites keep each sent batch so a peer that crashes
            // before voting can be re-sent its copy when it rejoins.
            if self.config.durable {
                if let Some(p) = self.pending.get_mut(&vt) {
                    p.sent_batches.push((site, propagate.clone()));
                }
            }
            self.send(site, Message::Txn(propagate));
        }

        self.events.push(EngineEvent::TxnExecuted {
            handle: TxnHandle {
                site: self.id,
                id: handle_id,
            },
            vt,
        });

        // ---- views: optimistic notification + pessimistic snapshots --------
        let changed: Vec<ObjectName> = touched.iter().copied().collect();
        self.schedule_optimistic(&changed);
        self.create_pess_snapshots(vt, &pess_updates, false);

        self.maybe_finalize(vt);
    }

    /// The uncommitted structural transactions a path to `obj` depends on:
    /// for each embedding step, the VT that created the embedding, when that
    /// entry is not yet committed (§3.2.1 path RC guesses).
    pub(crate) fn path_dependencies(&self, obj: ObjectName) -> Vec<VirtualTime> {
        let mut deps = Vec::new();
        let Ok((_, path)) = self.store.path_to(obj) else {
            return deps;
        };
        let Ok(root) = self.store.effective_root(obj) else {
            return deps;
        };
        // Walk down from the root, checking each list-embedding tag's
        // commit status in its parent's history.
        let mut cur = root;
        for elem in path.elems() {
            match elem {
                crate::message::PathElem::Index { tag, .. } => {
                    let committed = self
                        .store
                        .get(cur)
                        .ok()
                        .and_then(|o| o.values.entry_at(*tag))
                        .map(|e| e.committed)
                        .unwrap_or(true);
                    if !committed {
                        deps.push(*tag);
                    }
                }
                crate::message::PathElem::Key(_) => {
                    // Tuple embeddings: the put's VT is the child value's
                    // first history entry; approximate by the parent's
                    // uncommitted current structural entry, if any.
                    if let Ok(o) = self.store.get(cur) {
                        if let Some(e) = o.values.current() {
                            if !e.committed {
                                deps.push(e.vt);
                            }
                        }
                    }
                }
            }
            // Descend.
            let next = self
                .store
                .get(cur)
                .ok()
                .and_then(|o| o.values.current())
                .and_then(|e| match (&e.value, elem) {
                    (
                        crate::object::ObjectValue::List { entries, .. },
                        crate::message::PathElem::Index { tag, .. },
                    ) => entries.iter().find(|le| le.tag == *tag).map(|le| le.child),
                    (
                        crate::object::ObjectValue::Tuple { entries, .. },
                        crate::message::PathElem::Key(k),
                    ) => entries.get(k).copied(),
                    _ => None,
                });
            match next {
                Some(n) => cur = n,
                None => break,
            }
        }
        deps
    }

    /// RL/NC checks at this site when it is the primary copy, reserving the
    /// verified intervals on success (§3.1).
    pub(crate) fn check_and_reserve(
        &mut self,
        target: ObjectName,
        graph_root: ObjectName,
        t_r: VirtualTime,
        t_g: VirtualTime,
        vt: VirtualTime,
        is_write: bool,
    ) -> bool {
        // Inverted intervals mean the guess was formed against a newer
        // state than the timestamps admit — treat as a conflict.
        if t_r > vt || t_g > vt {
            return false;
        }
        {
            let Ok(obj) = self.store.get(target) else {
                return false;
            };
            // RL: the value interval (tR, tT) must be write-free.
            if obj.values.has_write_in(t_r, vt) {
                return false;
            }
            // NC: no foreign write-free reservation contains tT.
            if is_write && obj.value_reservations.check_write(vt).is_err() {
                return false;
            }
        }
        {
            let Ok(root) = self.store.get(graph_root) else {
                return false;
            };
            // RL for the replication graph: no graph change in (tG, tT).
            if root.graphs.has_write_in(t_g, vt) {
                return false;
            }
        }
        // Reserve both intervals (owner = the transaction).
        if let Ok(obj) = self.store.get_mut(target) {
            obj.value_reservations.reserve(t_r, vt, vt);
        }
        if let Ok(root) = self.store.get_mut(graph_root) {
            root.graph_reservations.reserve(t_g, vt, vt);
        }
        true
    }

    /// Conflict detected before any message went out: purge, release, and
    /// retry in place.
    fn conflict_abort_unsent(
        &mut self,
        handle_id: u64,
        vt: VirtualTime,
        rec: &Recording,
        reserved_local: BTreeSet<ObjectName>,
        mut txn: Box<dyn Transaction>,
        retries_left: u32,
    ) {
        for obj in &rec.touched {
            self.store.purge_write(*obj, vt);
        }
        self.release_local_reservations(&reserved_local, vt);
        self.decided.insert(vt, TxnOutcome::Aborted);
        self.stats.txns_aborted_conflict += 1;
        self.trace_emit(TraceKind::Rollback, Some(vt), None, None);
        let retried = retries_left > 0;
        self.events.push(EngineEvent::TxnAborted {
            vt,
            local_origin: true,
            retried,
        });
        if retried {
            self.stats.retries += 1;
            self.run_attempt(handle_id, txn, retries_left - 1);
        } else {
            self.handle_outcome.insert(handle_id, TxnOutcome::Aborted);
            txn.handle_abort(&AbortReason::RetriesExhausted(self.config.retry_budget));
        }
    }

    pub(crate) fn release_local_reservations(
        &mut self,
        objects: &BTreeSet<ObjectName>,
        owner: VirtualTime,
    ) {
        for obj in objects {
            let root = self.store.effective_root(*obj).unwrap_or(*obj);
            if let Ok(o) = self.store.get_mut(*obj) {
                o.value_reservations.release(owner);
            }
            if let Ok(r) = self.store.get_mut(root) {
                r.graph_reservations.release(owner);
            }
        }
    }

    /// Commits a locally pending transaction once its guesses settle.
    pub(crate) fn maybe_finalize(&mut self, vt: VirtualTime) {
        let ready = match self.pending.get(&vt) {
            Some(p) => p.delegate_site.is_none() && p.awaiting.is_empty() && p.rc_waits.is_empty(),
            None => false,
        };
        if ready {
            self.commit_local_txn(vt, true);
        }
    }

    /// Commit path for a locally originated transaction.
    pub(crate) fn commit_local_txn(&mut self, vt: VirtualTime, broadcast: bool) {
        let Some(p) = self.pending.remove(&vt) else {
            return;
        };
        self.decided.insert(vt, TxnOutcome::Committed);
        self.handle_outcome
            .insert(p.handle_id, TxnOutcome::Committed);
        self.stats.txns_committed += 1;
        self.trace_emit(TraceKind::Commit, Some(vt), None, Some(1));
        for obj in &p.touched {
            if let Ok(o) = self.store.get_mut(*obj) {
                o.values.mark_committed(vt);
            }
        }
        if broadcast {
            for site in &p.affected {
                self.send(*site, Message::Commit { txn: vt });
            }
        }
        self.events.push(EngineEvent::TxnCommitted {
            vt,
            local_origin: true,
        });
        self.resolve_rc_commit(vt);
        self.on_committed_update(vt, self.id, &p.write_tr);
        self.run_gc();
    }

    /// Abort path for a locally originated transaction (guess denied,
    /// cascading RC abort, or primary failure).
    pub(crate) fn abort_local_txn(
        &mut self,
        vt: VirtualTime,
        reason: AbortReason,
        broadcast: bool,
        retry: bool,
    ) {
        let Some(mut p) = self.pending.remove(&vt) else {
            return;
        };
        self.decided.insert(vt, TxnOutcome::Aborted);
        for obj in &p.touched {
            self.store.purge_write(*obj, vt);
        }
        let reserved = p.reserved_local.clone();
        self.release_local_reservations(&reserved, vt);
        if broadcast {
            for site in &p.affected {
                self.send(*site, Message::Abort { txn: vt });
            }
        }
        self.stats.txns_aborted_conflict += 1;
        self.trace_emit(TraceKind::Rollback, Some(vt), None, None);
        let retried = retry && p.retries_left > 0;
        self.events.push(EngineEvent::TxnAborted {
            vt,
            local_origin: true,
            retried,
        });
        let touched: Vec<ObjectName> = p.touched.iter().copied().collect();
        self.on_aborted_update(vt, &touched);
        self.cascade_rc_abort(vt);
        self.run_gc();
        if retried {
            self.stats.retries += 1;
            let budget = p.retries_left - 1;
            self.run_attempt(p.handle_id, p.txn, budget);
        } else {
            self.handle_outcome.insert(p.handle_id, TxnOutcome::Aborted);
            p.txn.handle_abort(&reason);
        }
    }

    /// Another transaction committed: release RC waits that referenced it.
    pub(crate) fn resolve_rc_commit(&mut self, committed: VirtualTime) {
        let waiters: Vec<VirtualTime> = self
            .pending
            .iter()
            .filter(|(_, p)| p.rc_waits.contains(&committed))
            .map(|(vt, _)| *vt)
            .collect();
        for w in waiters {
            if let Some(p) = self.pending.get_mut(&w) {
                p.rc_waits.remove(&committed);
            }
            self.maybe_finalize(w);
        }
        self.resolve_join_rc_commit(committed);
        self.resolve_view_rc_commit(committed);
    }

    /// Another transaction aborted: cascade into local transactions that
    /// read its values (their RC guesses failed).
    pub(crate) fn cascade_rc_abort(&mut self, aborted: VirtualTime) {
        let waiters: Vec<VirtualTime> = self
            .pending
            .iter()
            .filter(|(_, p)| p.rc_waits.contains(&aborted))
            .map(|(vt, _)| *vt)
            .collect();
        for w in waiters {
            self.abort_local_txn(w, AbortReason::DependencyAborted(aborted), true, true);
        }
        self.cascade_join_rc_abort(aborted);
    }
}
