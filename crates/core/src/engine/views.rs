//! View notification machinery (paper §4): optimistic and pessimistic view
//! proxies, snapshot scheduling, guess confirmation, straggler handling.

use std::collections::{BTreeMap, BTreeSet};

use decaf_trace::TraceKind;
use decaf_vt::{SiteId, VirtualTime};

use crate::codec::{ReadTarget, SnapshotReads};
use crate::message::{Message, ReadItem};
use crate::object::ObjectName;
use crate::store::ReadSet;
use crate::view::{
    OptSnap, PessSnap, SnapGuesses, UpdateNotification, View, ViewId, ViewMode, ViewProxy,
};

use super::{EngineEvent, Site};

/// `(object, lo, hi)`: the interval of `object`'s history that a
/// pessimistic snapshot guesses to be update-free.
type PessInterval = (ObjectName, VirtualTime, VirtualTime);

impl Site {
    /// Attaches a view object to one or more local model objects.
    ///
    /// "When a view is attached to a model object, that view object will be
    /// able to track changes to the model object by receiving update
    /// notifications... If a view object is attached to a composite model
    /// object, it will receive notifications for changes to the composite
    /// as well as to any of its children" (§2.5).
    pub fn attach_view(
        &mut self,
        view: Box<dyn View>,
        objects: &[ObjectName],
        mode: ViewMode,
    ) -> ViewId {
        let id = ViewId(self.next_view);
        self.next_view += 1;
        let attached: BTreeSet<ObjectName> = objects.iter().copied().collect();
        let mut proxy = ViewProxy::new(id, mode, attached, view);
        // Baseline: notifications report changes *after* attachment.
        for obj in &proxy.attached {
            if let Ok(o) = self.store.get(*obj) {
                if let Some(cur) = o.values.current() {
                    proxy.last_seen.insert(*obj, cur.vt);
                }
                if let Some(c) = o.values.latest_committed() {
                    proxy.last_notified_vt = proxy.last_notified_vt.max(c.vt);
                }
            }
        }
        self.views.insert(id, proxy);
        id
    }

    /// Detaches a view; no further notifications are delivered to it.
    pub fn detach_view(&mut self, id: ViewId) {
        if let Some(proxy) = self.views.remove(&id) {
            if let Some(snap) = proxy.opt {
                self.retire_snapshot(snap.token);
            }
            for (_, snap) in proxy.pess {
                self.retire_snapshot(snap.token);
            }
        }
    }

    /// Queues the CONFIRM-READ batches of the snapshot `token`, one per
    /// primary site asked.
    fn request_confirmation(
        &mut self,
        token: VirtualTime,
        batches: BTreeMap<SiteId, SnapshotReads>,
    ) {
        for (site, mut reads) in batches {
            self.snap_requested_at = self.clock.counter();
            self.stats.snapshot_reads_sent += reads.len() as u64;
            reads.shrink_to_fit();
            self.send(
                site,
                Message::SnapshotConfirm {
                    subject: token,
                    origin: self.id,
                    reads,
                },
            );
        }
    }

    /// Lets go of a snapshot token: a CONFIRM or DENY for it is ignored from
    /// here on, and its CONFIRM-READ, if still queued, never leaves the site
    /// — nobody holds the snapshot it asks for (DESIGN §8). The envelopes
    /// that stay keep their order and their stamps. A token that was never
    /// issued (`VirtualTime::ZERO`) or is gone already is a no-op.
    fn retire_snapshot(&mut self, token: VirtualTime) {
        let may_be_queued =
            self.outbox_drained_at < token.lamport && token.lamport <= self.snap_requested_at;
        if self.snap_tokens.remove(&token).is_none() || !may_be_queued {
            return;
        }
        let (queued, mut items) = (self.outbox.len(), 0);
        self.outbox.retain(|env| match &env.msg {
            Message::SnapshotConfirm { subject, reads, .. } if *subject == token => {
                items += reads.len() as u64;
                false
            }
            _ => true,
        });
        let retired = (queued - self.outbox.len()) as u64;
        self.stats.msgs_sent = self.stats.msgs_sent.saturating_sub(retired);
        self.stats.snapshot_reads_sent = self.stats.snapshot_reads_sent.saturating_sub(items);
        self.stats.snapshot_requests_retired += retired;
    }

    /// The views whose attachment set covers `obj` (directly or as an
    /// ancestor composite), with the attachment point that covers it.
    fn watchers_of(&self, obj: ObjectName, mode: ViewMode) -> Vec<(ViewId, ObjectName)> {
        let mut chain = vec![obj];
        chain.extend(self.store.ancestors(obj));
        let mut out = Vec::new();
        for proxy in self.views.values() {
            if proxy.mode != mode {
                continue;
            }
            if let Some(point) = chain.iter().find(|o| proxy.attached.contains(o)) {
                out.push((proxy.id, *point));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Optimistic views (§4.1)
    // ------------------------------------------------------------------

    /// Schedules optimistic notifications after objects changed (local
    /// execution, remote update arrival, or rollback rerun).
    pub(crate) fn schedule_optimistic(&mut self, changed: &[ObjectName]) {
        let mut targets: BTreeSet<ViewId> = BTreeSet::new();
        for obj in changed {
            for (vid, point) in self.watchers_of(*obj, ViewMode::Optimistic) {
                if let Some(proxy) = self.views.get_mut(&vid) {
                    proxy.dirty.insert(point);
                }
                targets.insert(vid);
            }
        }
        for vid in targets {
            self.run_opt_snapshot(vid);
        }
    }

    /// Runs (or re-runs) the optimistic snapshot of one view: delivers the
    /// update notification immediately and registers its RC/RL guesses
    /// (§4.1 steps 1–2).
    pub(crate) fn run_opt_snapshot(&mut self, vid: ViewId) {
        // Compute ts = greatest VT of the current values of attached
        // objects (and of the triggering updates).
        let Some(proxy) = self.views.get(&vid) else {
            return;
        };
        let attached: Vec<ObjectName> = proxy.attached.iter().copied().collect();
        let mut ts = proxy.pending_ts;
        let changed: Vec<ObjectName> = {
            let proxy = self.views.get_mut(&vid).expect("checked above");
            let dirty = std::mem::take(&mut proxy.dirty);
            proxy.pending_ts = VirtualTime::ZERO;
            dirty.into_iter().collect()
        };
        if changed.is_empty() {
            return;
        }
        let set = self.store.read_set(attached);
        for e in set.entries() {
            if let Some((vt, _)) = e.current {
                ts = ts.max(vt);
            }
        }

        // Record the snapshot's reads and guesses.
        let token = self.clock.next();
        let mut guesses = SnapGuesses::default();
        let mut reads: Vec<(ObjectName, VirtualTime)> = Vec::with_capacity(set.entries().len());
        let mut remote_batches: BTreeMap<SiteId, SnapshotReads> = BTreeMap::new();
        for (i, e) in set.entries().iter().enumerate() {
            let o = e.object;
            // `ts` is at or above every current VT, so what the snapshot
            // reads of each object is its current value.
            debug_assert_eq!(
                e.current,
                self.store
                    .get(o)
                    .ok()
                    .and_then(|m| m.values.value_at(ts).map(|v| (v.vt, v.committed)))
            );
            let Some((t_r, committed)) = e.current else {
                continue;
            };
            reads.push((o, t_r));
            if !committed {
                guesses.rc_waits.insert(t_r);
            }
            if t_r < ts {
                // RL guess: (value VT, ts) must be update-free (§4.1).
                let primary = set.primary(i);
                debug_assert_eq!(primary, self.store.primary_of(o).ok());
                let Some(primary) = primary else {
                    continue;
                };
                if primary.site == self.id {
                    // The local history is the primary history: value_at(ts)
                    // being the latest ≤ ts makes the interval locally
                    // clean; reserve it against future stragglers.
                    if let Ok(m) = self.store.get_mut(o) {
                        let merged = m.value_reservations.reserve_read(t_r, ts);
                        self.stats.snapshot_reservations_merged += u64::from(merged);
                    }
                } else {
                    self.push_remote_read(&set, i, &mut remote_batches, primary.site, (t_r, ts));
                }
            }
        }
        // The snapshot waits for the sites it asks, and no others.
        guesses.outstanding.extend(remote_batches.keys());

        // Deliver the update notification (fast response first, §4.1).
        {
            let proxy = self.views.get_mut(&vid).expect("checked above");
            let notification = UpdateNotification {
                ts,
                changed: &changed,
                store: &self.store,
                spawned: Default::default(),
            };
            proxy.view.update(&notification);
            let spawned = notification.spawned.into_inner();
            proxy.last_notified_ts = Some(ts);
            proxy.last_delivered_reads = reads;
            for o in &changed {
                if let Some(cur) = self.store.get(*o).ok().and_then(|m| m.values.current()) {
                    proxy.last_seen.insert(*o, cur.vt);
                }
            }
            let superseded = proxy.opt.replace(OptSnap { ts, token, guesses });
            if self.config.view_ledger {
                proxy.ledger.push(crate::oracle::ViewLedgerEntry {
                    ts,
                    kind: crate::oracle::ViewLedgerKind::Update(ViewMode::Optimistic),
                });
            }
            // Discard the superseded uncommitted snapshot, if any (§4.1).
            if let Some(old) = superseded {
                self.retire_snapshot(old.token);
            }
            self.snap_tokens.insert(token, vid);
            self.stats.opt_notifications += 1;
            self.trace_emit(TraceKind::ViewOptimistic, Some(ts), None, Some(vid.0));
            self.events.push(EngineEvent::ViewUpdated {
                view: vid,
                ts,
                mode: ViewMode::Optimistic,
            });
            // Run any transactions the update method initiated.
            for t in spawned {
                self.execute(t);
            }
        }

        // A transaction the update method spawned may have written a
        // watched object and superseded this snapshot before it asked.
        if self.snap_tokens.contains_key(&token) {
            self.request_confirmation(token, remote_batches);
        }
        self.maybe_commit_opt(vid);
    }

    /// Adds the RL guess that entry `i` of `set` is unwritten in `(lo, hi)`
    /// to the CONFIRM-READ batch for `primary`, which checks it. A list
    /// child one index below its routed root is pushed straight from its
    /// key; every other object by its address there, and none if it has
    /// no address there.
    fn push_remote_read(
        &self,
        set: &ReadSet,
        i: usize,
        batches: &mut BTreeMap<SiteId, SnapshotReads>,
        primary: SiteId,
        (lo, hi): (VirtualTime, VirtualTime),
    ) {
        let o = set.entries()[i].object;
        if let Some((root, index, tag)) = set.child_key(i) {
            debug_assert_eq!(
                self.store.addr_at(o, primary).map(ReadTarget::from),
                Some(ReadTarget::Child { root, index, tag })
            );
            let batch = batches.entry(primary).or_default();
            batch.push_child(root, index, tag, lo, Some(hi));
            return;
        }
        let addr = set.addr(i);
        debug_assert_eq!(addr, self.store.addr_at(o, primary));
        if let Some(addr) = addr {
            batches.entry(primary).or_default().push(&ReadItem {
                addr,
                t_r: lo,
                t_g: lo,
                hi: Some(hi),
            });
        }
    }

    /// Commit-notifies the optimistic view if its latest snapshot settled.
    pub(crate) fn maybe_commit_opt(&mut self, vid: ViewId) {
        let ready = match self.views.get(&vid).and_then(|p| p.opt.as_ref()) {
            Some(snap) => snap.guesses.settled(),
            None => false,
        };
        if !ready {
            return;
        }
        let proxy = self.views.get_mut(&vid).expect("checked above");
        let snap = proxy.opt.take().expect("checked above");
        proxy.view.commit();
        if self.config.view_ledger {
            proxy.ledger.push(crate::oracle::ViewLedgerEntry {
                ts: snap.ts,
                kind: crate::oracle::ViewLedgerKind::Commit,
            });
        }
        self.retire_snapshot(snap.token);
        self.stats.opt_commits += 1;
        self.trace_emit(TraceKind::ViewCommitted, Some(snap.ts), None, Some(vid.0));
        self.events.push(EngineEvent::ViewCommitted {
            view: vid,
            ts: snap.ts,
        });
    }

    // ------------------------------------------------------------------
    // Pessimistic views (§4.2)
    // ------------------------------------------------------------------

    /// Creates (or extends) pessimistic snapshots for the update at `vt`
    /// touching `updates` (`(object, tR)` pairs).
    ///
    /// Pessimistic proxies pre-create the snapshot as soon as the update
    /// *arrives* (even uncommitted) and pre-issue its guesses, so that by
    /// the time the commit is known the confirmations have already raced
    /// ahead (§5.1.2: "these confirmations proceed concurrently with the
    /// confirmations required for the transaction's commit").
    pub(crate) fn create_pess_snapshots(
        &mut self,
        vt: VirtualTime,
        updates: &[(ObjectName, VirtualTime)],
        committed: bool,
    ) {
        let committed =
            committed && self.mutation != Some(crate::oracle::TestMutation::DropPessCommitNotice);
        let mut touched_views: BTreeSet<ViewId> = BTreeSet::new();
        for (obj, t_r) in updates {
            for (vid, point) in self.watchers_of(*obj, ViewMode::Pessimistic) {
                let Some(proxy) = self.views.get_mut(&vid) else {
                    continue;
                };
                if vt <= proxy.last_notified_vt {
                    // Straggler below the monotonic frontier: with the
                    // engine's guess protocol this indicates the update
                    // was already superseded; it cannot be shown any more.
                    continue;
                }
                let snap = proxy.pess.entry(vt).or_insert_with(|| PessSnap {
                    token: VirtualTime::ZERO, // assigned on guess issue
                    changed: BTreeSet::new(),
                    committed: false,
                    guesses: SnapGuesses::default(),
                    coverage: BTreeMap::new(),
                    issued: Vec::new(),
                });
                snap.changed.insert(point);
                snap.committed |= committed;
                snap.coverage.insert(*obj, *t_r);
                touched_views.insert(vid);
            }
        }
        for vid in touched_views {
            self.issue_pess_guesses(vid, vt);
            self.pump_pessimistic(vid);
        }
    }

    /// The read set of the view's attachment points and, for each entry
    /// whose interval is not empty, its index with the `(object, lo, hi)`
    /// the snapshot at `ts` must verify: from the object's latest committed
    /// value (strictly) below `ts`, up to the update's own `tR` (covered by
    /// the transaction's reservation) or up to `ts`.
    fn pess_intervals(
        &self,
        vid: ViewId,
        ts: VirtualTime,
    ) -> (ReadSet, Vec<(usize, PessInterval)>) {
        let Some(proxy) = self.views.get(&vid) else {
            return Default::default();
        };
        let Some(snap) = proxy.pess.get(&ts) else {
            return Default::default();
        };
        let set = self.store.read_set(proxy.attached.iter().copied());
        let mut out = Vec::new();
        for (i, e) in set.entries().iter().enumerate() {
            let o = e.object;
            let committed_before = || {
                self.store
                    .get(o)
                    .ok()
                    .and_then(|m| m.values.committed_before(ts).map(|c| c.vt))
            };
            let lo = match e.current {
                // The newest entry of all, committed and below `ts`.
                Some((vt, true)) if vt < ts => {
                    debug_assert_eq!(Some(vt), committed_before());
                    vt
                }
                _ => committed_before().unwrap_or(VirtualTime::ZERO),
            };
            let hi = snap.coverage.get(&o).copied().unwrap_or(ts);
            if lo < hi {
                out.push((i, (o, lo, hi)));
            }
        }
        (set, out)
    }

    /// (Re-)issues the RL guesses of the pessimistic snapshot at `ts`:
    /// for each watched object, the interval from its latest locally known
    /// committed value up to `ts` (or up to the update's own `tR`, which
    /// the transaction's confirmed reservation already covers) must be
    /// update-free at the primary (§4.2).
    pub(crate) fn issue_pess_guesses(&mut self, vid: ViewId, ts: VirtualTime) {
        let computed = self.pess_intervals(vid, ts);
        self.issue_pess_guesses_over(vid, ts, computed);
    }

    /// [`Site::issue_pess_guesses`] over the read set and intervals that
    /// [`Site::pess_intervals`] computed for `(vid, ts)` on the current
    /// store.
    fn issue_pess_guesses_over(
        &mut self,
        vid: ViewId,
        ts: VirtualTime,
        (set, intervals): (ReadSet, Vec<(usize, PessInterval)>),
    ) {
        let Some(proxy) = self.views.get(&vid) else {
            return;
        };
        let Some(snap) = proxy.pess.get(&ts) else {
            return;
        };
        let old_token = snap.token;

        let token = self.clock.next();
        let mut guesses = SnapGuesses::default();
        let mut remote_batches: BTreeMap<SiteId, SnapshotReads> = BTreeMap::new();
        for &(i, (o, lo, hi)) in &intervals {
            let primary = set.primary(i);
            debug_assert_eq!(primary, self.store.primary_of(o).ok());
            let Some(primary) = primary else {
                continue;
            };
            if primary.site == self.id {
                // We are the primary: the serialization point. Any write in
                // (lo, hi) is in our history; if one is present the guess
                // fails until it resolves.
                let Ok(m) = self.store.get_mut(o) else {
                    continue;
                };
                if m.values.has_write_in(lo, hi) {
                    guesses.denied = true;
                } else {
                    let merged = m.value_reservations.reserve_read(lo, hi);
                    self.stats.snapshot_reservations_merged += u64::from(merged);
                }
            } else {
                self.push_remote_read(&set, i, &mut remote_batches, primary.site, (lo, hi));
            }
        }
        guesses.outstanding.extend(remote_batches.keys());

        self.retire_snapshot(old_token);
        self.snap_tokens.insert(token, vid);
        if let Some(snap) = self.views.get_mut(&vid).and_then(|p| p.pess.get_mut(&ts)) {
            snap.token = token;
            snap.guesses = guesses;
            snap.issued = intervals
                .into_iter()
                .map(|(_, interval)| interval)
                .collect();
        }
        self.request_confirmation(token, remote_batches);
    }

    /// Delivers every deliverable pessimistic snapshot in VT order:
    /// committed, guesses settled, and all predecessors delivered (§4.2).
    ///
    /// Held entirely while a rejoin is in flight: catch-up may still be
    /// streaming commits with VTs *below* anything already pending, so
    /// delivering now could violate monotonicity. [`Site::finish_rejoin`]
    /// pumps every view once the history is complete.
    pub(crate) fn pump_pessimistic(&mut self, vid: ViewId) {
        if !self.rejoin_awaiting.is_empty() {
            return;
        }
        loop {
            let Some(proxy) = self.views.get(&vid) else {
                return;
            };
            let Some((&ts, snap)) = proxy.pess.iter().next() else {
                return;
            };
            if !(snap.committed && snap.guesses.settled()) {
                return;
            }
            let changed: Vec<ObjectName> = snap.changed.iter().copied().collect();
            let token = snap.token;
            let proxy = self.views.get_mut(&vid).expect("checked above");
            proxy.pess.remove(&ts);
            let notification = UpdateNotification {
                ts,
                changed: &changed,
                store: &self.store,
                spawned: Default::default(),
            };
            proxy.view.update(&notification);
            let spawned = notification.spawned.into_inner();
            proxy.last_notified_vt = ts;
            if self.config.view_ledger {
                proxy.ledger.push(crate::oracle::ViewLedgerEntry {
                    ts,
                    kind: crate::oracle::ViewLedgerKind::Update(ViewMode::Pessimistic),
                });
            }
            for o in &changed {
                if let Some(cur) = self.store.get(*o).ok().and_then(|m| m.values.current()) {
                    proxy.last_seen.insert(*o, cur.vt);
                }
            }
            self.retire_snapshot(token);
            self.stats.pess_notifications += 1;
            // Pessimistic delivery is already committed: one ViewCommitted
            // event, with no preceding optimistic delivery to pair against.
            self.trace_emit(TraceKind::ViewCommitted, Some(ts), None, Some(vid.0));
            self.events.push(EngineEvent::ViewUpdated {
                view: vid,
                ts,
                mode: ViewMode::Pessimistic,
            });
            for t in spawned {
                self.execute(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event hooks from the transaction engine
    // ------------------------------------------------------------------

    /// A remote (or local) update at `vt` was applied to `objects`:
    /// account for optimistic deviations (§5.1.2 definitions).
    pub(crate) fn account_arrival(&mut self, vt: VirtualTime, objects: &[ObjectName]) {
        for obj in objects {
            let current_vt = self
                .store
                .get(*obj)
                .ok()
                .and_then(|m| m.values.current().map(|e| e.vt));
            for (vid, _) in self.watchers_of(*obj, ViewMode::Optimistic) {
                let Some(proxy) = self.views.get_mut(&vid) else {
                    continue;
                };
                let Some(last_ts) = proxy.last_notified_ts else {
                    continue;
                };
                if vt >= last_ts {
                    continue;
                }
                // The arriving update is older than the last notification.
                if current_vt.map(|c| c > vt).unwrap_or(false) {
                    // A later update to the same object was already
                    // processed: this one will never be notified.
                    self.stats.lost_updates += 1;
                } else {
                    // The object itself had no later value; the view showed
                    // other objects from a later virtual time.
                    self.stats.read_inconsistencies += 1;
                }
            }
        }
    }

    /// The transaction at `vt` (originated by `origin`) committed;
    /// `coverage` maps its written objects to their `tR`. Every commit
    /// path funnels through here, which is also why durable WAL capture
    /// hangs off the end.
    pub(crate) fn on_committed_update(
        &mut self,
        vt: VirtualTime,
        origin: SiteId,
        coverage: &BTreeMap<ObjectName, VirtualTime>,
    ) {
        // Seeded bug (checker self-test): drop the commit notice, so the
        // snapshot never becomes deliverable — §4.2 losslessness broken.
        let drop_commit = self.mutation == Some(crate::oracle::TestMutation::DropPessCommitNotice);
        let vids: Vec<ViewId> = self.views.keys().copied().collect();
        for vid in vids {
            let Some(proxy) = self.views.get_mut(&vid) else {
                continue;
            };
            match proxy.mode {
                ViewMode::Pessimistic => {
                    if let Some(snap) = proxy.pess.get_mut(&vt) {
                        if !drop_commit {
                            snap.committed = true;
                        }
                    }
                    // The commit may change `lo` for the denied guesses of
                    // any pending snapshot, not only the earliest: revise and
                    // retry all of them. Measured, the re-issue is almost
                    // never idle: 129 of 16 128 in a 20 s `duel_list3` run
                    // and 0 of 82 279 in `saturate3` asked for unchanged
                    // intervals.
                    let revise: Vec<VirtualTime> = proxy
                        .pess
                        .iter()
                        .filter(|(_, s)| s.guesses.denied)
                        .map(|(ts, _)| *ts)
                        .collect();
                    for ts in revise {
                        self.stats.snapshot_reruns += 1;
                        self.issue_pess_guesses(vid, ts);
                    }
                    self.pump_pessimistic(vid);
                }
                ViewMode::Optimistic => {
                    if let Some(snap) = proxy.opt.as_mut() {
                        snap.guesses.rc_waits.remove(&vt);
                    }
                    self.maybe_commit_opt(vid);
                }
            }
        }
        self.capture_commit(vt, origin, coverage);
    }

    /// The transaction at `vt` aborted; `objects` are the local objects it
    /// had written.
    pub(crate) fn on_aborted_update(&mut self, vt: VirtualTime, objects: &[ObjectName]) {
        // Seeded bug (checker self-test): never rerun after a rollback, so
        // the optimistic view keeps showing rolled-back state — §4.1
        // superseded-or-committed broken.
        let skip_renotify =
            self.mutation == Some(crate::oracle::TestMutation::SkipRollbackRenotify);
        let vids: Vec<ViewId> = self.views.keys().copied().collect();
        for vid in vids {
            let Some(proxy) = self.views.get_mut(&vid) else {
                continue;
            };
            match proxy.mode {
                ViewMode::Optimistic => {
                    // Update inconsistency: a delivered notification showed
                    // the aborted value (§5.1.2).
                    let showed = proxy.last_delivered_reads.iter().any(|(_, rvt)| *rvt == vt);
                    if showed {
                        self.stats.update_inconsistencies += 1;
                    }
                    // Rerun if the current snapshot depended on the aborted
                    // transaction (RC denied → "reruns the snapshot with a
                    // new tS", §4.1). A held snapshot's reads are the last
                    // delivered ones.
                    let depended = proxy
                        .opt
                        .as_ref()
                        .is_some_and(|s| showed || s.guesses.rc_waits.contains(&vt));
                    let watches = objects.iter().any(|o| {
                        let mut chain = vec![*o];
                        chain.extend(self.store.ancestors(*o));
                        chain.iter().any(|c| proxy.attached.contains(c))
                    });
                    if (depended || watches) && !skip_renotify {
                        let proxy = self.views.get_mut(&vid).expect("checked above");
                        for o in objects {
                            let mut chain = vec![*o];
                            chain.extend(self.store.ancestors(*o));
                            if let Some(point) = chain.iter().find(|c| proxy.attached.contains(c)) {
                                proxy.dirty.insert(*point);
                            }
                        }
                        self.stats.snapshot_reruns += 1;
                        self.run_opt_snapshot(vid);
                    }
                }
                ViewMode::Pessimistic => {
                    // The update at vt will never commit: drop its snapshot
                    // and revise any denied guesses (the purge may have
                    // cleared their intervals).
                    if let Some(snap) = proxy.pess.remove(&vt) {
                        self.retire_snapshot(snap.token);
                    }
                    let Some(proxy) = self.views.get_mut(&vid) else {
                        continue;
                    };
                    let revise: Vec<VirtualTime> = proxy
                        .pess
                        .iter()
                        .filter(|(_, s)| s.guesses.denied)
                        .map(|(ts, _)| *ts)
                        .collect();
                    for ts in revise {
                        self.stats.snapshot_reruns += 1;
                        self.issue_pess_guesses(vid, ts);
                    }
                    self.pump_pessimistic(vid);
                }
            }
        }
    }

    /// RC resolution hook for optimistic snapshots.
    pub(crate) fn resolve_view_rc_commit(&mut self, committed: VirtualTime) {
        let vids: Vec<ViewId> = self.views.keys().copied().collect();
        for vid in vids {
            if let Some(proxy) = self.views.get_mut(&vid) {
                if let Some(snap) = proxy.opt.as_mut() {
                    snap.guesses.rc_waits.remove(&committed);
                }
            }
            self.maybe_commit_opt(vid);
        }
    }

    /// A primary confirmed a snapshot's CONFIRM-READ batch.
    pub(crate) fn on_snapshot_confirm(&mut self, subject: VirtualTime, from: SiteId) {
        let Some(&vid) = self.snap_tokens.get(&subject) else {
            return;
        };
        let Some(proxy) = self.views.get_mut(&vid) else {
            return;
        };
        match proxy.mode {
            ViewMode::Optimistic => {
                if let Some(snap) = proxy.opt.as_mut() {
                    if snap.token == subject {
                        snap.guesses.outstanding.remove(&from);
                    }
                }
                self.maybe_commit_opt(vid);
            }
            ViewMode::Pessimistic => {
                for snap in proxy.pess.values_mut() {
                    if snap.token == subject {
                        snap.guesses.outstanding.remove(&from);
                    }
                }
                self.pump_pessimistic(vid);
            }
        }
    }

    /// A primary denied a snapshot's CONFIRM-READ batch: "a straggler
    /// update is yet to arrive at the guessing site... the straggler itself
    /// will eventually arrive and cause a rerun" (§4.1).
    pub(crate) fn on_snapshot_deny(&mut self, subject: VirtualTime) {
        let Some(&vid) = self.snap_tokens.get(&subject) else {
            return;
        };
        let Some(proxy) = self.views.get_mut(&vid) else {
            return;
        };
        match proxy.mode {
            ViewMode::Optimistic => {
                if let Some(snap) = proxy.opt.as_mut() {
                    if snap.token == subject {
                        snap.guesses.denied = true;
                    }
                }
            }
            ViewMode::Pessimistic => {
                let mut denied_ts = None;
                for (ts, snap) in proxy.pess.iter_mut() {
                    if snap.token == subject {
                        snap.guesses.denied = true;
                        denied_ts = Some(*ts);
                    }
                }
                // If local commits have already shrunk the guessed
                // intervals, re-issue right away; otherwise the straggler's
                // own arrival will trigger the revision (§4.2).
                if let Some(ts) = denied_ts {
                    let (set, fresh) = self.pess_intervals(vid, ts);
                    let stale = self
                        .views
                        .get(&vid)
                        .and_then(|p| p.pess.get(&ts))
                        .map(|s| s.issued.clone())
                        .unwrap_or_default();
                    if !fresh.iter().map(|(_, interval)| interval).eq(&stale) {
                        self.stats.snapshot_reruns += 1;
                        // Nothing has changed the store since `set`.
                        self.issue_pess_guesses_over(vid, ts, (set, fresh));
                        self.pump_pessimistic(vid);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::handlers::SnapVerdict;
    use crate::error::TxnError;
    use crate::graph::NodeRef;
    use crate::message::{Envelope, ObjectAddr, Path, PathElem, WireOp};
    use crate::object::{Blueprint, ObjectValue};
    use crate::txn::{Transaction, TxnCtx};
    use crate::value::ScalarValue;
    use crate::view::{RecordingView, ViewEvent};
    use crate::wiring;

    /// One gesture on a list: remove the element at `remove`, insert `insert`
    /// at an index, overwrite the element at `write`.
    #[derive(Default)]
    struct Edit {
        list: Option<ObjectName>,
        remove: Option<usize>,
        insert: Option<(usize, i64)>,
        write: Option<(usize, i64)>,
    }

    impl Transaction for Edit {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            let list = self.list.expect("a list");
            if let Some(index) = self.remove {
                ctx.list_remove(list, index)?;
            }
            if let Some((index, v)) = self.insert {
                ctx.list_insert(list, index, Blueprint::Int(v))?;
            }
            if let Some((index, v)) = self.write {
                let child = ctx.list_child(list, index)?;
                ctx.write_int(child, v)?;
            }
            Ok(())
        }
    }

    /// The snapshot CONFIRM-READ batches in `site`'s outbox, by destination.
    fn sent_reads(site: &mut Site) -> BTreeMap<SiteId, Vec<ReadItem>> {
        let mut out = BTreeMap::new();
        for env in site.drain_outbox() {
            if let Message::SnapshotConfirm { reads, .. } = env.msg {
                let earlier = out.insert(env.to, reads.iter().collect());
                assert!(earlier.is_none(), "one batch per primary site");
            }
        }
        out
    }

    /// The batches of a snapshot over `points`, built the way the engine
    /// built them before it had a flat read set: every object of every
    /// subtree looked up on its own, `interval` giving the `(lo, hi)` to
    /// guess for it.
    fn reads_the_long_way(
        site: &Site,
        points: &[ObjectName],
        interval: impl Fn(ObjectName) -> Option<(VirtualTime, VirtualTime)>,
    ) -> BTreeMap<SiteId, Vec<ReadItem>> {
        let mut out: BTreeMap<SiteId, Vec<ReadItem>> = BTreeMap::new();
        for point in points {
            for o in site.store.subtree(*point) {
                let Some((lo, hi)) = interval(o) else {
                    continue;
                };
                let primary = site.store.primary_of(o).expect("a primary").site;
                if primary == site.id {
                    continue;
                }
                out.entry(primary).or_default().push(ReadItem {
                    addr: site.store.addr_at(o, primary).expect("an address"),
                    t_r: lo,
                    t_g: lo,
                    hi: Some(hi),
                });
            }
        }
        out
    }

    #[test]
    fn snapshot_reads_equal_the_ones_built_the_long_way() {
        let (mut a, mut b) = (Site::new(SiteId(1)), Site::new(SiteId(2)));
        let (la, lb) = (a.create_list(), b.create_list());
        wiring::wire_pair(&mut a, la, &mut b, lb);
        let opt = b.attach_view(
            Box::new(RecordingView::new(vec![])),
            &[lb],
            ViewMode::Optimistic,
        );
        let pess = b.attach_view(
            Box::new(RecordingView::new(vec![])),
            &[lb],
            ViewMode::Pessimistic,
        );
        let edit = |list| Edit {
            list: Some(list),
            ..Default::default()
        };
        // Eighteen inserts from both sites, front, back and middle; two
        // removes; one overwrite: sixteen elements, site 1 the primary.
        for n in 0..18 {
            let index = [0, usize::MAX, 3][n % 3];
            let (site, list) = if n % 2 == 0 {
                (&mut a, la)
            } else {
                (&mut b, lb)
            };
            site.execute(Box::new(Edit {
                insert: Some((index, n as i64)),
                ..edit(list)
            }));
            wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        }
        a.execute(Box::new(Edit {
            remove: Some(0),
            ..edit(la)
        }));
        b.execute(Box::new(Edit {
            remove: Some(5),
            write: Some((7, 70)),
            ..edit(lb)
        }));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        assert_eq!(b.store.subtree(lb).len(), 1 + 16);
        assert_eq!(b.list_children_current(lb).len(), 16);

        // Everything committed: an optimistic snapshot guesses every object
        // but the two the newest transaction wrote, the list and an element.
        let check_opt = |b: &mut Site| {
            b.drain_outbox();
            b.views.get_mut(&opt).unwrap().dirty.insert(lb);
            b.run_opt_snapshot(opt);
            let ts = b.views[&opt].opt.as_ref().expect("guesses outstanding").ts;
            let sent = sent_reads(b);
            let long = reads_the_long_way(b, &[lb], |o| {
                let read = b.store.get(o).unwrap().values.value_at(ts).unwrap().vt;
                (read < ts).then_some((read, ts))
            });
            assert_eq!(sent, long);
            sent[&SiteId(1)].len()
        };
        assert_eq!(check_opt(&mut b), 15);

        // One uncommitted write: the optimistic snapshot reads it, the
        // pessimistic one at its VT guesses up to the write's own `tR`.
        b.execute(Box::new(Edit {
            write: Some((4, 99)),
            ..edit(lb)
        }));
        assert_eq!(check_opt(&mut b), 16, "all but the element just written");
        let (&ts, snap) = b.views[&pess]
            .pess
            .iter()
            .next()
            .expect("a pending snapshot");
        let coverage = snap.coverage.clone();
        b.issue_pess_guesses(pess, ts);
        let sent = sent_reads(&mut b);
        let long = reads_the_long_way(&b, &[lb], |o| {
            let values = &b.store.get(o).unwrap().values;
            let lo = values
                .committed_before(ts)
                .map_or(VirtualTime::ZERO, |e| e.vt);
            let hi = coverage.get(&o).copied().unwrap_or(ts);
            (lo < hi).then_some((lo, hi))
        });
        assert_eq!(sent, long);
        assert_eq!(sent[&SiteId(1)].len(), 17);
        let issued = &b.views[&pess].pess[&ts].issued;
        assert_eq!(issued.len(), 17, "what a deny compares against");
    }

    /// Appends `child` to `list`.
    struct Append(ObjectName, Blueprint);

    impl Transaction for Append {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            ctx.list_insert(self.0, usize::MAX, self.1.clone())?;
            Ok(())
        }
    }

    /// `(tag, child)` of each current entry of `list` at `site`.
    fn entries_of(site: &Site, list: ObjectName) -> Vec<(VirtualTime, ObjectName)> {
        let value = &site
            .store
            .get(list)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value;
        value
            .as_list()
            .expect("a list")
            .iter()
            .map(|e| (e.tag, e.child))
            .collect()
    }

    /// The primary's verdict on `reads`, found the way it was before list
    /// children were read against their list fetched once: each item's
    /// address resolved on its own, its history asked twice.
    fn verdict_the_long_way(
        site: &Site,
        subject: VirtualTime,
        reads: &SnapshotReads,
    ) -> SnapVerdict {
        let mut park = false;
        let mut intervals = Vec::new();
        for r in reads.iter() {
            let Ok(target) = site.store.resolve(&r.addr) else {
                return SnapVerdict::Deny;
            };
            let hi = r.hi.unwrap_or(subject);
            intervals.push((target, r.t_r, hi));
            let values = &site.store.get(target).unwrap().values;
            if values
                .iter()
                .any(|e| e.committed && e.vt > r.t_r && e.vt < hi)
            {
                return SnapVerdict::Deny;
            }
            park |= values.has_write_in(r.t_r, hi);
        }
        if park {
            SnapVerdict::Park
        } else {
            SnapVerdict::Confirm(intervals)
        }
    }

    #[test]
    fn primary_verdicts_equal_the_ones_found_the_long_way() {
        let mut a = Site::new(SiteId(1));
        let list = a.create_list();
        for v in 0..6 {
            a.execute(Box::new(Append(list, Blueprint::Int(v))));
        }
        let inner = Blueprint::List(vec![Blueprint::Int(10), Blueprint::Int(11)]);
        a.execute(Box::new(Append(list, inner)));
        let fields = Blueprint::Tuple(vec![("k".into(), Blueprint::Int(20))]);
        a.execute(Box::new(Append(list, fields)));
        let (removed_tag, removed) = entries_of(&a, list)[0];
        a.execute(Box::new(Edit {
            list: Some(list),
            remove: Some(0),
            ..Default::default()
        }));
        wiring::run_to_quiescence(&mut [&mut a]);
        let scalar = a.create_int(7);

        // Seven entries now: five ints, the inner list (index 5), the tuple
        // (index 6). The inner list's children came with its blueprint, so
        // the embedding registry does not know them: they resolve by scan.
        let children = entries_of(&a, list);
        assert_eq!(children.len(), 7);
        let (inner_tag, inner) = children[5];
        let (tuple_tag, tuple) = children[6];
        let grandchildren = entries_of(&a, inner);
        assert!(a.store.get(inner).unwrap().embeddings.is_empty());
        assert!(a
            .store
            .get(list)
            .unwrap()
            .embeddings
            .contains_key(&removed_tag));
        let current =
            |a: &Site, o: ObjectName| a.store.get(o).unwrap().values.current().unwrap().vt;
        let hi = VirtualTime::new(1_000, SiteId(2));
        let subject = VirtualTime::new(1_001, SiteId(2));

        // One write in `(read, hi)` of each of two ints: element 1's
        // uncommitted, element 2's committed.
        let (uncommitted, committed) = (children[1].1, children[2].1);
        let (t_uncommitted, t_committed) = (current(&a, uncommitted), current(&a, committed));
        for (o, lamport, done) in [(uncommitted, 500, false), (committed, 600, true)] {
            let vt = VirtualTime::new(lamport, SiteId(3));
            let values = &mut a.store.get_mut(o).unwrap().values;
            values.insert(vt, ObjectValue::Scalar(ScalarValue::Int(99)));
            if done {
                values.mark_committed(vt);
            }
        }
        // What the requester read of each object.
        let now = |o: ObjectName| {
            if o == uncommitted {
                t_uncommitted
            } else if o == committed {
                t_committed
            } else {
                current(&a, o)
            }
        };

        let every_child = |reads: &mut SnapshotReads, root, kids: &[(VirtualTime, ObjectName)]| {
            for (index, &(tag, o)) in kids.iter().enumerate() {
                reads.push_child(root, index, tag, now(o), Some(hi));
            }
        };
        // One child of `root` at `index`, read at `o`'s VT.
        let one = |root, index, (tag, o): (VirtualTime, ObjectName)| {
            let mut reads = SnapshotReads::new();
            reads.push_child(root, index, tag, now(o), Some(hi));
            reads
        };
        let addr = |path: Vec<PathElem>, o| {
            let mut reads = SnapshotReads::new();
            reads.push(&ReadItem {
                addr: ObjectAddr::Indirect {
                    root: list,
                    path: Path::from(path),
                },
                t_r: now(o),
                t_g: now(o),
                hi: None,
            });
            reads
        };
        let index = |index, tag| PathElem::Index { index, tag };

        let clean: Vec<_> = children
            .iter()
            .copied()
            .filter(|(_, o)| ![uncommitted, committed].contains(o))
            .collect();
        let mut exact = SnapshotReads::new();
        exact.push(&ReadItem {
            addr: ObjectAddr::Direct(list),
            t_r: now(list),
            t_g: now(list),
            hi: Some(hi),
        });
        for &(tag, o) in &clean {
            let at = children.iter().position(|c| c.1 == o).unwrap();
            exact.push_child(list, at, tag, now(o), Some(hi));
        }
        let mut uncommitted_write = SnapshotReads::new();
        every_child(&mut uncommitted_write, list, &children[..2]);
        let mut committed_write = SnapshotReads::new();
        every_child(&mut committed_write, list, &children);
        // Two roots, their children interleaved: every item switches list.
        let mut interleaved = SnapshotReads::new();
        for (k, &(tag, o)) in grandchildren.iter().enumerate() {
            interleaved.push_child(list, 3 + k, clean[3 + k].0, now(clean[3 + k].1), Some(hi));
            interleaved.push_child(inner, k, tag, now(o), Some(hi));
        }
        let never = VirtualTime::new(77, SiteId(3));
        let cases: Vec<(&str, SnapshotReads, &str)> = vec![
            ("exact index", exact, "confirm"),
            ("stale index hint", one(list, 0, children[3]), "confirm"),
            ("hint past the end", one(list, 40, children[4]), "confirm"),
            (
                "removed child, from the registry",
                one(list, 0, (removed_tag, removed)),
                "confirm",
            ),
            (
                "blueprint child, stale hint, by scan",
                one(inner, 1, grandchildren[0]),
                "confirm",
            ),
            (
                "tag never embedded",
                one(list, 0, (never, children[0].1)),
                "deny",
            ),
            ("root not a list", one(scalar, 0, children[0]), "deny"),
            (
                "root not an object",
                one(ObjectName::new(SiteId(9), 9), 0, children[5]),
                "deny",
            ),
            (
                "tuple key",
                addr(vec![index(6, tuple_tag), PathElem::Key("k".into())], {
                    a.store
                        .get(tuple)
                        .unwrap()
                        .values
                        .current()
                        .unwrap()
                        .value
                        .as_tuple()
                        .unwrap()["k"]
                }),
                "confirm",
            ),
            (
                "two-level path",
                addr(
                    vec![index(0, inner_tag), index(1, grandchildren[1].0)],
                    grandchildren[1].1,
                ),
                "confirm",
            ),
            (
                "two-level path, missing tag",
                addr(vec![index(5, inner_tag), index(0, never)], inner),
                "deny",
            ),
            ("uncommitted write", uncommitted_write, "park"),
            ("committed write", committed_write, "deny"),
            ("two roots interleaved", interleaved, "confirm"),
        ];
        for (case, reads, expected) in cases {
            let verdict = a.evaluate_snapshot_reads(subject, &reads);
            assert_eq!(verdict, verdict_the_long_way(&a, subject, &reads), "{case}");
            let kind = match &verdict {
                SnapVerdict::Confirm(intervals) => {
                    assert_eq!(intervals.len(), reads.len(), "{case}");
                    "confirm"
                }
                SnapVerdict::Deny => "deny",
                SnapVerdict::Park => "park",
            };
            assert_eq!(kind, expected, "{case}: {verdict:?}");
        }
    }

    /// Site 1 with the primary copy of a three-element list and site 2 with
    /// a replica of it, everything committed and both outboxes empty.
    fn primary_and_replica() -> (Site, ObjectName, Site, ObjectName) {
        let (mut a, mut b) = (Site::new(SiteId(1)), Site::new(SiteId(2)));
        let (la, lb) = (a.create_list(), b.create_list());
        wiring::wire_pair(&mut a, la, &mut b, lb);
        for n in 0..3 {
            a.execute(append(la, n));
        }
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        assert_eq!(b.primary_of(lb).unwrap().site, SiteId(1));
        (a, la, b, lb)
    }

    fn append(list: ObjectName, v: i64) -> Box<Edit> {
        Box::new(Edit {
            list: Some(list),
            insert: Some((usize::MAX, v)),
            ..Default::default()
        })
    }

    /// Hands everything `from` has queued to `to`, which drains nothing.
    fn deliver(from: &mut Site, to: &mut Site) {
        for env in from.drain_outbox() {
            to.handle_message(env);
        }
    }

    /// Drains `from` into `to`, checks `msgs_sent` grew by what left, and
    /// returns the tokens of the snapshot requests among it.
    fn forward_requests(from: &mut Site, sent_before: u64, to: &mut Site) -> Vec<VirtualTime> {
        let out = from.drain_outbox();
        assert_eq!(from.stats().msgs_sent - sent_before, out.len() as u64);
        let mut tokens = Vec::new();
        for env in out {
            if let Message::SnapshotConfirm { subject, .. } = env.msg {
                tokens.push(subject);
            }
            to.handle_message(env);
        }
        tokens
    }

    #[test]
    fn superseded_optimistic_request_never_leaves() {
        let (mut a, la, mut b, lb) = primary_and_replica();
        let view = RecordingView::new(vec![]);
        let log = view.log();
        let vid = b.attach_view(Box::new(view), &[lb], ViewMode::Optimistic);
        let sent = b.stats().msgs_sent;

        // Two updates (and their commits) handled before one drain: each
        // takes a snapshot that guesses the older elements unchanged.
        a.execute(append(la, 3));
        a.execute(append(la, 4));
        deliver(&mut a, &mut b);
        assert_eq!(b.stats().opt_notifications, 2);
        let held = b.views[&vid].opt.as_ref().expect("awaiting site 1").token;
        assert_eq!(forward_requests(&mut b, sent, &mut a), [held]);
        assert_eq!(b.stats().snapshot_requests_retired, 1);

        // What the view sees is what it saw when both requests left.
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        assert!(matches!(
            log.lock().unwrap().as_slice(),
            [
                ViewEvent::Update { .. },
                ViewEvent::Update { .. },
                ViewEvent::Commit
            ]
        ));
        assert!(b.snap_tokens.is_empty());
    }

    #[test]
    fn aborted_or_reissued_pessimistic_request_never_leaves() {
        let (mut a, la, mut b, lb) = primary_and_replica();
        let view = RecordingView::new(vec![]);
        let log = view.log();
        let vid = b.attach_view(Box::new(view), &[lb], ViewMode::Pessimistic);
        let sent = b.stats().msgs_sent;

        // An update arrives and is aborted before the drain.
        a.execute(append(la, 3));
        let update = a
            .drain_outbox()
            .into_iter()
            .find(|env| matches!(env.msg, Message::Txn(_)))
            .expect("the update");
        let (txn, clock) = (update.msg.witnessed_vt().expect("its VT"), update.clock);
        b.handle_message(update);
        assert_eq!(b.views[&vid].pess.len(), 1);
        assert_eq!(b.snap_tokens.len(), 1);
        b.handle_message(Envelope {
            from: SiteId(1),
            to: SiteId(2),
            clock,
            msg: Message::Abort { txn },
            span: None,
        });
        assert!(b.views[&vid].pess.is_empty());
        assert_eq!(forward_requests(&mut b, sent, &mut a), []);
        assert_eq!(b.stats().snapshot_requests_retired, 1);

        // The next one is re-issued before the drain: only the re-issue goes.
        let sent = b.stats().msgs_sent;
        a.execute(append(la, 4));
        deliver(&mut a, &mut b);
        let (&ts, snap) = b.views[&vid].pess.iter().next().expect("awaiting site 1");
        let first = snap.token;
        b.issue_pess_guesses(vid, ts);
        let second = b.views[&vid].pess[&ts].token;
        assert_ne!(first, second);
        assert_eq!(forward_requests(&mut b, sent, &mut a), [second]);
        assert_eq!(b.stats().snapshot_requests_retired, 2);

        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        assert_eq!(log.lock().unwrap().len(), 1, "the committed append");
        assert!(b.snap_tokens.is_empty());
    }

    #[test]
    fn detached_view_request_never_leaves() {
        let (mut a, la, mut b, lb) = primary_and_replica();
        let views = [ViewMode::Optimistic, ViewMode::Pessimistic]
            .map(|mode| b.attach_view(Box::new(RecordingView::new(vec![])), &[lb], mode));
        let sent = b.stats().msgs_sent;
        a.execute(append(la, 3));
        deliver(&mut a, &mut b);
        assert_eq!(b.snap_tokens.len(), 2);
        for vid in views {
            b.detach_view(vid);
        }
        assert_eq!(forward_requests(&mut b, sent, &mut a), []);
        assert_eq!(b.stats().snapshot_requests_retired, 2);
        assert!(b.snap_tokens.is_empty());
    }

    #[test]
    fn snapshot_reads_sent_counts_the_items_that_left() {
        let (mut a, la, mut b, lb) = primary_and_replica();
        b.attach_view(
            Box::new(RecordingView::new(vec![])),
            &[lb],
            ViewMode::Optimistic,
        );
        let before = b.stats().snapshot_reads_sent;
        // The first snapshot's request is retired by the second's.
        a.execute(append(la, 3));
        a.execute(append(la, 4));
        deliver(&mut a, &mut b);
        let items: u64 = b
            .drain_outbox()
            .iter()
            .map(|env| match &env.msg {
                Message::SnapshotConfirm { reads, .. } => reads.len() as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(b.stats().snapshot_requests_retired, 1);
        assert!(items > 0);
        assert_eq!(b.stats().snapshot_reads_sent - before, items);
    }

    #[test]
    fn confirmed_snapshots_leave_one_reservation_per_element() {
        /// Sets one integer.
        struct Set(ObjectName, i64);
        impl Transaction for Set {
            fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
                ctx.write_int(self.0, self.1)
            }
        }
        let (mut a, la, mut b, lb) = primary_and_replica();
        for n in 3..16 {
            a.execute(append(la, n));
        }
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        let elements = a.list_children_current(la);
        assert_eq!(elements.len(), 16);
        assert!(elements.iter().all(|e| a.reservation_count(*e) == 0));

        // A view over the list and an integer only site 2 holds: each write
        // to the integer is a snapshot above every element, which site 1
        // confirms from the same lower bounds up to a later `ts`.
        let x = b.create_int(0);
        let vid = b.attach_view(
            Box::new(RecordingView::new(vec![])),
            &[lb, x],
            ViewMode::Optimistic,
        );
        for n in 0..64 {
            b.execute(Box::new(Set(x, n)));
            deliver(&mut b, &mut a);
            deliver(&mut a, &mut b);
            assert!(b.views[&vid].opt.is_none(), "snapshot {n} confirmed");
        }
        assert_eq!(b.stats().opt_commits, 64);
        for e in &elements {
            assert_eq!(a.reservation_count(*e), 1);
        }
        assert_eq!(
            a.stats().snapshot_reservations_merged,
            63 * (16 + 1),
            "every element and the list, after the first snapshot"
        );
    }

    #[test]
    fn drained_request_is_not_looked_for() {
        let (mut a, la, mut b, lb) = primary_and_replica();
        let view = RecordingView::new(vec![]);
        let log = view.log();
        let vid = b.attach_view(Box::new(view), &[lb], ViewMode::Optimistic);
        a.execute(append(la, 3));
        deliver(&mut a, &mut b);
        let first = b.views[&vid].opt.as_ref().expect("awaiting site 1").token;
        let left = b.drain_outbox();
        assert!(matches!(
            left.as_slice(),
            [Envelope { msg: Message::SnapshotConfirm { subject, .. }, .. }] if *subject == first
        ));
        // Put a copy back where the request cannot be: no request has been
        // queued since the drain, so the supersede does not search the outbox.
        b.outbox.extend(left.iter().cloned());
        let sent = b.stats().msgs_sent;
        a.execute(append(la, 4));
        deliver(&mut a, &mut b);
        assert!(!b.snap_tokens.contains_key(&first));
        assert!(matches!(
            b.outbox.first(),
            Some(Envelope { msg: Message::SnapshotConfirm { subject, .. }, .. }) if *subject == first
        ));
        assert_eq!(b.stats().snapshot_requests_retired, 0);
        b.outbox.remove(0);
        let second = b.views[&vid].opt.as_ref().expect("awaiting site 1").token;

        // The first request's CONFIRM comes back late and is ignored.
        for env in left {
            a.handle_message(env);
        }
        deliver(&mut a, &mut b);
        assert_eq!(b.views[&vid].opt.as_ref().map(|s| s.token), Some(second));
        assert_eq!(log.lock().unwrap().len(), 2, "two updates, no commit yet");
        assert_eq!(forward_requests(&mut b, sent, &mut a), [second]);
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        assert_eq!(log.lock().unwrap().last(), Some(&ViewEvent::Commit));
    }

    #[test]
    fn snapshot_superseded_by_its_own_update_method_asks_nothing() {
        /// Overwrites the first element, once, from inside `update`.
        struct Echo(Option<ObjectName>);
        impl View for Echo {
            fn update(&mut self, n: &UpdateNotification<'_>) {
                if let Some(list) = self.0.take() {
                    n.initiate(Box::new(Edit {
                        list: Some(list),
                        write: Some((0, 9)),
                        ..Default::default()
                    }));
                }
            }
        }
        let (mut a, la, mut b, lb) = primary_and_replica();
        let vid = b.attach_view(Box::new(Echo(Some(lb))), &[lb], ViewMode::Optimistic);
        let sent = b.stats().msgs_sent;
        a.execute(append(la, 3));
        deliver(&mut a, &mut b);
        // The write re-ran the snapshot before the first one had asked.
        assert_eq!(b.stats().opt_notifications, 2);
        let held = b.views[&vid].opt.as_ref().expect("awaiting site 1").token;
        assert_eq!(b.snap_tokens.keys().collect::<Vec<_>>(), [&held]);
        assert_eq!(forward_requests(&mut b, sent, &mut a), [held]);
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
        assert_eq!(b.stats().opt_commits, 1);
        assert!(b.snap_tokens.is_empty());
    }

    #[test]
    fn optimistic_snapshot_does_not_wait_for_a_site_it_never_asked() {
        // Site 2 holds a list whose primary copy is at site 1.
        let mut site = Site::new(SiteId(2));
        let l = site.create_list();
        let there = NodeRef::new(SiteId(1), ObjectName::new(SiteId(1), 0));
        let graph = wiring::replica_graph_over(&[there, NodeRef::new(SiteId(2), l)]);
        site.install_replica_graph(l, graph);
        let at = |n| VirtualTime::new(n, SiteId(2));
        for n in 1..=3 {
            let row = Blueprint::Tuple(vec![
                ("a".into(), Blueprint::Int(n)),
                ("b".into(), Blueprint::List(vec![Blueprint::Int(n)])),
            ]);
            let op = WireOp::ListInsert {
                index: usize::MAX,
                child: row,
            };
            site.store.apply_wire_op(l, at(n as u64), &op).unwrap();
        }
        let rows = site.list_children_current(l);
        // The last row's `parent` names a composite that does not hold it:
        // its primary is still site 1, but it has no address there.
        site.store.get_mut(rows[2]).unwrap().parent = Some(rows[0]);
        let watched = site.store.subtree(rows[2]);
        assert_eq!(site.store.primary_of(rows[2]).unwrap().site, SiteId(1));
        assert_eq!(site.store.addr_at(rows[2], SiteId(1)), None);

        let view = RecordingView::new(vec![]);
        let log = view.log();
        let vid = site.attach_view(Box::new(view), &[rows[2]], ViewMode::Optimistic);
        // A committed write to one of the row's fields: the snapshot reads
        // the row's other objects below its `ts`.
        let field = watched[1];
        site.store
            .apply_wire_op(field, at(10), &WireOp::SetScalar(ScalarValue::Int(7)))
            .unwrap();
        for o in &watched {
            let values = &mut site.store.get_mut(*o).unwrap().values;
            let written: Vec<VirtualTime> = values.iter().map(|e| e.vt).collect();
            for vt in written {
                values.mark_committed(vt);
            }
        }
        site.schedule_optimistic(&[field]);

        assert!(sent_reads(&mut site).is_empty(), "nothing to ask site 1");
        assert!(
            site.views[&vid].opt.is_none(),
            "no answer to wait for: the snapshot has settled"
        );
        let log = log.lock().unwrap();
        assert!(matches!(
            log.as_slice(),
            [ViewEvent::Update { .. }, ViewEvent::Commit]
        ));
        assert_eq!(site.stats().opt_commits, 1);
    }
}
