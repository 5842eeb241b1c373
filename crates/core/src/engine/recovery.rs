//! Durability capture, WAL replay, and the §3.4 rejoin/catch-up protocol.
//!
//! A *durable* site ([`SiteConfig::durable`]) captures a
//! [`CommitRecord`] — the post-state of every object a transaction wrote
//! here — the moment the transaction is known committed, queues it for the
//! I/O layer ([`Site::drain_wal`]), and keeps it in an in-memory committed
//! log keyed by VT. After a crash, [`Site::recover`](crate::persist) folds
//! the newest checkpoint plus the logged commit suffix back into a site
//! ([`Site::replay_commit`]), and [`Site::begin_rejoin`] runs the paper's
//! §3.4 join protocol against the live peers:
//!
//! 1. The rejoiner broadcasts [`Message::RejoinRequest`] carrying its
//!    committed frontier *and* its full committed-VT set (the frontier
//!    alone is not a sound gap filter: a lower-VT commit may still have
//!    been in flight when the site crashed).
//! 2. A peer that had declared the rejoiner failed and repaired it out of
//!    a graph it is the live primary of first re-admits it there
//!    ([`Site::readmit`]). Then every peer re-sends propagate batches still
//!    awaiting the rejoiner's verdict, the one peer asked to `serve`
//!    streams the missed committed suffix as [`Message::CatchUp`], and all
//!    reply [`Message::RejoinAck`] with their own committed sets.
//! 3. Per ack, the rejoiner streams *its* durably-logged commits the peer
//!    missed back as a `CatchUp` flagged `rejoined: true` — which also
//!    tells the peer to abort any still-undecided remote transaction the
//!    rejoiner originated: that vote-pending work died with the crash, and
//!    parked snapshot checks must stop waiting on it.
//!
//! Gestures submitted mid-rejoin are deferred until every ack is in, so
//! they execute against caught-up state. Catch-up application is
//! idempotent: a commit already in the committed log (or otherwise fully
//! settled here) is skipped, an applied-but-undecided remote entry is
//! simply finished, and an unknown transaction takes the pre-decided
//! commit path of `on_txn`.

use std::collections::{BTreeMap, BTreeSet};

use decaf_trace::TraceKind;
use decaf_vt::{SiteId, VirtualTime};

use crate::message::{Message, TreeSnapshot, TxnPropagate, UpdateItem, WireOp};
use crate::object::ObjectName;
use crate::persist::CommitRecord;
use crate::txn::TxnOutcome;

use super::Site;

impl Site {
    // ---- durable capture --------------------------------------------------

    /// Captures a commit record for `vt` (durable sites only): the
    /// post-state of every object in `coverage`, snapshotted at the commit
    /// VT. Called from the single commit funnel `on_committed_update`, so
    /// every commit path — local, remote, delegated, join, catch-up — is
    /// recorded exactly once (`committed_log` is the dedup guard against
    /// transport-level redelivery).
    pub(crate) fn capture_commit(
        &mut self,
        vt: VirtualTime,
        origin: SiteId,
        coverage: &BTreeMap<ObjectName, VirtualTime>,
    ) {
        if !self.config.durable || self.committed_log.contains_key(&vt) {
            return;
        }
        let mut updates = Vec::with_capacity(coverage.len());
        for (obj, t_r) in coverage {
            let Ok(snap) = self.store.tree_snapshot(*obj, Some(vt)) else {
                continue;
            };
            let op = match snap {
                TreeSnapshot::Scalar(s) => WireOp::SetScalar(s),
                TreeSnapshot::Assoc(a) => WireOp::SetAssoc(a),
                other => WireOp::SetTree(other),
            };
            updates.push((*obj, *t_r, op));
        }
        let rec = CommitRecord {
            vt,
            origin,
            updates,
        };
        self.committed_log.insert(vt, rec.clone());
        self.wal_queue.push(rec);
    }

    /// Removes and returns the commit records captured since the last
    /// drain, in commit order. The caller appends them to the on-disk log
    /// (see [`CommitLog`](crate::CommitLog)) before acknowledging
    /// durability to anyone.
    pub fn drain_wal(&mut self) -> Vec<CommitRecord> {
        std::mem::take(&mut self.wal_queue)
    }

    /// Number of commits in the in-memory committed log (durable sites).
    pub fn committed_log_len(&self) -> usize {
        self.committed_log.len()
    }

    // ---- replay -----------------------------------------------------------

    /// Re-applies one logged commit during recovery: writes the recorded
    /// post-states at the commit VT, marks them committed, records the
    /// decision, and witnesses the VT so the clock ends up strictly ahead
    /// of everything logged. No views exist yet at replay time, so this
    /// bypasses notification entirely.
    pub(crate) fn replay_commit(&mut self, rec: &CommitRecord) {
        for (obj, _t_r, op) in &rec.updates {
            if let Ok(changed) = self.store.apply_wire_op(*obj, rec.vt, op) {
                for c in changed {
                    if let Ok(o) = self.store.get_mut(c) {
                        o.values.mark_committed(rec.vt);
                    }
                }
            }
        }
        self.decided.insert(rec.vt, TxnOutcome::Committed);
        self.committed_log.insert(rec.vt, rec.clone());
        self.clock.witness(rec.vt);
    }

    /// Witnesses the highest decided VT, guaranteeing the next local
    /// timestamp is strictly ahead of anything recovered (checkpoint
    /// *or* replayed suffix).
    pub(crate) fn bump_clock_past_recovery(&mut self) {
        if let Some(hi) = self.decided.keys().max().copied() {
            self.clock.witness(hi);
        }
    }

    /// The highest VT known committed at this site, if any.
    pub(crate) fn committed_frontier(&self) -> Option<VirtualTime> {
        self.decided
            .iter()
            .filter(|(_, o)| **o == TxnOutcome::Committed)
            .map(|(vt, _)| *vt)
            .max()
    }

    /// Whether `vt` is known committed at this site.
    pub fn committed_contains(&self, vt: VirtualTime) -> bool {
        matches!(self.decided.get(&vt), Some(TxnOutcome::Committed))
    }

    /// Every VT known committed at this site, sorted.
    fn committed_have(&self) -> Vec<VirtualTime> {
        let mut have: Vec<VirtualTime> = self
            .decided
            .iter()
            .filter(|(_, o)| **o == TxnOutcome::Committed)
            .map(|(vt, _)| *vt)
            .collect();
        have.sort();
        have
    }

    /// One local drain pass for [`Site::drain_and_checkpoint`]: retries
    /// whatever can make progress without network input.
    pub(crate) fn drain_pass(&mut self) {
        self.retry_buffered();
        self.retry_parked_snaps();
    }

    // ---- rejoin protocol --------------------------------------------------

    /// Whether a rejoin started by [`Site::begin_rejoin`] is still
    /// awaiting peer acknowledgements.
    pub fn is_rejoining(&self) -> bool {
        !self.rejoin_awaiting.is_empty()
    }

    /// Starts the §3.4 rejoin after recovery: announces the recovered
    /// commit frontier to every live peer in the replication graphs,
    /// asking the lowest-numbered one to stream the missed committed
    /// suffix. Returns the number of peers contacted; `0` means there is
    /// nobody to catch up from and the site is immediately live.
    pub fn begin_rejoin(&mut self) -> usize {
        let mut peers = self.store.graph_sites();
        peers.remove(&self.id);
        peers.retain(|p| !self.failed_sites.contains(p));
        if peers.is_empty() {
            return 0;
        }
        let frontier = self.committed_frontier().unwrap_or(VirtualTime::ZERO);
        let have = self.committed_have();
        let server = *peers.iter().next().expect("non-empty");
        self.trace_emit(
            TraceKind::RecoveryBegin,
            Some(frontier),
            Some(server),
            Some(peers.len() as u64),
        );
        self.rejoin_awaiting = peers.clone();
        for peer in &peers {
            self.send(
                *peer,
                Message::RejoinRequest {
                    frontier,
                    have: have.clone(),
                    serve: *peer == server,
                },
            );
        }
        peers.len()
    }

    /// A crashed peer is back and announced its committed set.
    pub(crate) fn on_rejoin_request(
        &mut self,
        from: SiteId,
        _frontier: VirtualTime,
        have: Vec<VirtualTime>,
        serve: bool,
    ) {
        self.failed_sites.remove(&from);
        // Back after a declared fail-stop: put it back into the graphs it
        // was repaired out of first, so the catch-up below and every later
        // commit address it through them.
        self.readmit(from);
        // Re-send propagate batches still awaiting this peer's verdict:
        // its copy (and any vote it had formed) died with the crash.
        let resend: Vec<TxnPropagate> = self
            .pending
            .values()
            .filter(|p| p.awaiting.contains(&from))
            .filter_map(|p| {
                p.sent_batches
                    .iter()
                    .find(|(site, _)| *site == from)
                    .map(|(_, batch)| batch.clone())
            })
            .collect();
        for batch in resend {
            self.send(from, Message::Txn(batch));
        }
        if serve {
            let have: BTreeSet<VirtualTime> = have.into_iter().collect();
            let commits = self.catch_up_for(from, &have);
            if !commits.is_empty() {
                self.send(
                    from,
                    Message::CatchUp {
                        commits,
                        rejoined: false,
                    },
                );
            }
        }
        self.send(
            from,
            Message::RejoinAck {
                frontier: self.committed_frontier().unwrap_or(VirtualTime::ZERO),
                have: self.committed_have(),
            },
        );
    }

    /// A live peer acknowledged our rejoin and reported its committed set.
    pub(crate) fn on_rejoin_ack(
        &mut self,
        from: SiteId,
        _frontier: VirtualTime,
        have: Vec<VirtualTime>,
    ) {
        // Stream back the commits we durably logged that the peer missed
        // (our commit broadcasts may have died with the crash), and signal
        // it to abort whatever vote-pending work of ours was lost. Sent
        // even when empty: the abort signal is the important part.
        let have: BTreeSet<VirtualTime> = have.into_iter().collect();
        let commits = self.catch_up_for(from, &have);
        self.send(
            from,
            Message::CatchUp {
                commits,
                rejoined: true,
            },
        );
        if self.rejoin_awaiting.remove(&from) && self.rejoin_awaiting.is_empty() {
            self.finish_rejoin();
        }
    }

    /// Every rejoin ack is in (or the outstanding peers failed): release
    /// the gestures deferred during catch-up.
    pub(crate) fn finish_rejoin(&mut self) {
        self.trace_emit(
            TraceKind::RecoveryDone,
            self.committed_frontier(),
            None,
            Some(self.rejoin_deferred.len() as u64),
        );
        let deferred = std::mem::take(&mut self.rejoin_deferred);
        let budget = self.config.retry_budget;
        for (handle_id, txn) in deferred {
            self.run_attempt(handle_id, txn, budget);
        }
        self.retry_parked_snaps();
        // Pessimistic pumping was held during catch-up (late-arriving old
        // commits would break VT-monotonic delivery); release it now.
        let vids: Vec<_> = self.views.keys().copied().collect();
        for vid in vids {
            self.pump_pessimistic(vid);
        }
    }

    /// Builds the catch-up batch for `dest`: every commit in our committed
    /// log that `dest` did not report knowing, with each update re-addressed
    /// into `dest`'s namespace. Commits whose objects `dest` does not
    /// replicate are skipped (its replicas simply never see them).
    fn catch_up_for(&self, dest: SiteId, have: &BTreeSet<VirtualTime>) -> Vec<TxnPropagate> {
        let mut out = Vec::new();
        for (vt, rec) in &self.committed_log {
            if have.contains(vt) {
                continue;
            }
            let mut updates = Vec::new();
            for (obj, t_r, op) in &rec.updates {
                let Some(addr) = self.store.addr_at(*obj, dest) else {
                    continue;
                };
                updates.push(UpdateItem {
                    addr,
                    t_r: *t_r,
                    t_g: VirtualTime::ZERO,
                    op: op.clone(),
                    needs_check: false,
                });
            }
            if updates.is_empty() {
                continue;
            }
            out.push(TxnPropagate {
                txn: *vt,
                origin: rec.origin,
                updates,
                reads: Vec::new(),
                delegate: None,
            });
        }
        out
    }

    /// Applies a catch-up batch. Application is idempotent per commit:
    ///
    /// - already in the committed log, or a settled local/remote commit
    ///   → skip;
    /// - applied here but still undecided → this *is* the commit verdict;
    /// - unknown → apply pre-decided through the normal `on_txn` path
    ///   (which buffers on missing structural dependencies).
    ///
    /// With `rejoined` set, the batch came from a rejoiner completing its
    /// return: afterwards, any still-undecided remote transaction it
    /// originated is aborted — that work died with the crash, and nothing
    /// will ever decide it.
    pub(crate) fn on_catch_up(&mut self, from: SiteId, commits: Vec<TxnPropagate>, rejoined: bool) {
        for p in commits {
            let vt = p.txn;
            if self.committed_log.contains_key(&vt) {
                continue;
            }
            match self.decided.get(&vt).copied() {
                Some(TxnOutcome::Aborted) => continue,
                Some(TxnOutcome::Committed) => {
                    if vt.site == self.id || self.remote.contains_key(&vt) {
                        continue; // settled and applied here
                    }
                    // Decided via an orphan COMMIT summary whose update
                    // message never arrived: the catch-up carries the
                    // updates — apply them pre-decided.
                    self.dispatch(from, Message::Txn(p));
                    continue;
                }
                None => {}
            }
            if let Some(r) = self.remote.get(&vt).cloned() {
                self.decided.insert(vt, TxnOutcome::Committed);
                self.finish_remote_commit(vt, &r);
            } else {
                self.decided.insert(vt, TxnOutcome::Committed);
                self.dispatch(from, Message::Txn(p));
            }
        }
        if rejoined {
            self.abort_lost_from(from);
        }
        self.retry_buffered();
        self.retry_parked_snaps();
    }

    /// Aborts every still-undecided remote transaction originated by
    /// `from` — invoked when `from` completes a rejoin, i.e. after its
    /// reverse catch-up has committed everything it durably knew.
    fn abort_lost_from(&mut self, from: SiteId) {
        let mut stale: Vec<VirtualTime> = self
            .remote
            .iter()
            .filter(|(vt, r)| r.origin == from && !self.decided.contains_key(vt))
            .map(|(vt, _)| *vt)
            .collect();
        // `remote` is a hash map: abort in VT order (DESIGN.md §8).
        stale.sort_unstable();
        for vt in stale {
            self.decided.insert(vt, TxnOutcome::Aborted);
            self.rollback_remote(vt);
        }
    }
}
