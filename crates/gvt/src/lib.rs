//! A Jefferson-style **Global Virtual Time** (Time Warp) commit baseline.
//!
//! The DECAF paper argues (§5.1.3, §6) that prior groupware systems
//! (COAST, ORESTE) commit via a *global sweep*: a state can only be shown
//! to a (pessimistic) view once it is known that no straggler exists
//! anywhere, which "involves a global sweep analogous to Jefferson's Global
//! Virtual Time algorithm... the sweep to compute a GVT can be very
//! time-consuming, since it is proportional to the size of the network".
//!
//! This crate implements exactly that comparator, so the `e5_scalability`
//! experiment can measure DECAF's primary-copy commit against a GVT sweep
//! on identical workloads:
//!
//! * updates are optimistic blind writes broadcast to the object's replica
//!   set and applied in virtual-time order (stragglers re-sort);
//! * **commit** requires GVT: a token circulates a ring over *all* sites in
//!   the network, accumulating the minimum of every site's uncommitted
//!   virtual times and unacknowledged sends; after a full round the
//!   initiator broadcasts the new GVT and every site commits everything
//!   below it.
//!
//! The token ring spans the whole network even when replica sets are small
//! and disjoint — that is precisely the property the paper criticizes, and
//! the property E5 measures.
//!
//! # Example
//!
//! ```
//! use decaf_gvt::{GvtEvent, GvtMessage, GvtSite};
//! use decaf_vt::SiteId;
//!
//! let ring = vec![SiteId(1), SiteId(2)];
//! let mut a = GvtSite::new(SiteId(1), ring.clone());
//! let mut b = GvtSite::new(SiteId(2), ring);
//! let oa = a.create_int("x", 0);
//! let ob = b.create_int("x", 0);
//! assert_eq!(oa, ob, "logical names are global in the baseline");
//! a.add_replicas(oa.clone(), vec![SiteId(1), SiteId(2)]);
//! b.add_replicas(ob, vec![SiteId(1), SiteId(2)]);
//!
//! let vt = a.write(oa, 7);
//! // Deliver messages, run a sweep... (see the e5 harness)
//! # let _ = (vt, GvtMessage::StartSweep, GvtEvent::Committed { vt, site: SiteId(1) });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashMap};

use decaf_vt::{History, LamportClock, SiteId, VirtualTime};

/// Global logical object name in the baseline (sites agree on names).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GvtObject(pub String);

/// Messages of the GVT baseline protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum GvtMessage {
    /// An optimistic write broadcast to the object's replica set.
    Write {
        /// The written object.
        object: GvtObject,
        /// The writing transaction's VT.
        vt: VirtualTime,
        /// The new value.
        value: i64,
    },
    /// Receiver acknowledgement of a write (needed so in-flight messages
    /// hold GVT back, per Jefferson).
    Ack {
        /// The acknowledged transaction.
        vt: VirtualTime,
    },
    /// The sweep token, accumulating the network-wide minimum.
    Token {
        /// Sweep round identifier.
        round: u64,
        /// Site that started the sweep (receives the token back).
        initiator: SiteId,
        /// Minimum uncommitted VT seen so far.
        min: VirtualTime,
        /// How many sites remain to visit.
        remaining: Vec<SiteId>,
    },
    /// The computed GVT, broadcast after a completed round: everything
    /// strictly below commits.
    Gvt {
        /// Sweep round identifier.
        round: u64,
        /// The new global virtual time.
        gvt: VirtualTime,
    },
    /// Harness-injected trigger for a sweep (normally timer-driven).
    StartSweep,
}

/// An envelope of the baseline protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct GvtEnvelope {
    /// Sender.
    pub from: SiteId,
    /// Destination.
    pub to: SiteId,
    /// Payload.
    pub msg: GvtMessage,
}

/// Observable events for harness measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GvtEvent {
    /// A write executed locally at `vt`.
    Executed {
        /// The transaction.
        vt: VirtualTime,
    },
    /// The transaction at `vt` is committed at this site (GVT passed it).
    Committed {
        /// The transaction.
        vt: VirtualTime,
        /// The site observing the commit.
        site: SiteId,
    },
}

/// One site of the GVT baseline.
#[derive(Debug)]
pub struct GvtSite {
    id: SiteId,
    clock: LamportClock,
    /// The token ring: every site in the network, in a fixed order.
    ring: Vec<SiteId>,
    objects: HashMap<GvtObject, ObjectState>,
    /// Uncommitted transaction VTs known at this site.
    uncommitted: BTreeSet<VirtualTime>,
    /// Writes sent but not yet acknowledged (hold GVT back).
    unacked: BTreeMap<VirtualTime, usize>,
    gvt: VirtualTime,
    next_round: u64,
    outbox: Vec<GvtEnvelope>,
    events: Vec<GvtEvent>,
    /// Messages sent (for fairness comparisons with DECAF).
    pub msgs_sent: u64,
}

#[derive(Debug, Default)]
struct ObjectState {
    replicas: Vec<SiteId>,
    history: History<i64>,
}

impl GvtSite {
    /// Creates a site belonging to the network-wide token ring `ring`.
    pub fn new(id: SiteId, ring: Vec<SiteId>) -> Self {
        GvtSite {
            id,
            clock: LamportClock::new(id),
            ring,
            objects: HashMap::new(),
            uncommitted: BTreeSet::new(),
            unacked: BTreeMap::new(),
            gvt: VirtualTime::ZERO,
            next_round: 0,
            outbox: Vec::new(),
            events: Vec::new(),
            msgs_sent: 0,
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The current known GVT at this site.
    pub fn gvt(&self) -> VirtualTime {
        self.gvt
    }

    /// Creates (or references) the logical integer object `name` with a
    /// committed initial value.
    pub fn create_int(&mut self, name: &str, v: i64) -> GvtObject {
        let obj = GvtObject(name.to_owned());
        let state = self.objects.entry(obj.clone()).or_default();
        state.history.insert_committed(VirtualTime::ZERO, v);
        obj
    }

    /// Declares the replica set of `object` (must be identical at all
    /// members).
    pub fn add_replicas(&mut self, object: GvtObject, replicas: Vec<SiteId>) {
        if let Some(state) = self.objects.get_mut(&object) {
            state.replicas = replicas;
        }
    }

    /// The latest committed value of `object`.
    pub fn read_committed(&self, object: &GvtObject) -> Option<i64> {
        self.objects
            .get(object)?
            .history
            .latest_committed()
            .map(|e| e.value)
    }

    /// The current (possibly uncommitted) value.
    pub fn read_current(&self, object: &GvtObject) -> Option<i64> {
        self.objects.get(object)?.history.current().map(|e| e.value)
    }

    /// Executes a blind write locally and broadcasts it to the replica
    /// set. Returns the transaction's VT.
    ///
    /// # Panics
    ///
    /// Panics if the object is unknown at this site.
    pub fn write(&mut self, object: GvtObject, value: i64) -> VirtualTime {
        let vt = self.clock.next();
        let state = self.objects.get_mut(&object).expect("unknown object");
        state.history.insert(vt, value);
        self.uncommitted.insert(vt);
        self.events.push(GvtEvent::Executed { vt });
        let replicas = state.replicas.clone();
        let mut fanout = 0;
        for site in replicas {
            if site == self.id {
                continue;
            }
            fanout += 1;
            self.push(
                site,
                GvtMessage::Write {
                    object: object.clone(),
                    vt,
                    value,
                },
            );
        }
        if fanout > 0 {
            self.unacked.insert(vt, fanout);
        }
        vt
    }

    /// Starts a GVT sweep (call on the designated initiator, usually on a
    /// timer).
    pub fn start_sweep(&mut self) {
        let round = self.next_round;
        self.next_round += 1;
        let min = self.local_min();
        let mut remaining: Vec<SiteId> = self
            .ring
            .iter()
            .copied()
            .filter(|s| *s != self.id)
            .collect();
        if remaining.is_empty() {
            // Single-site network: GVT = local min immediately.
            self.apply_gvt(min);
            return;
        }
        // The token returns to the initiator at the end of the round.
        remaining.push(self.id);
        let next = remaining.remove(0);
        self.push(
            next,
            GvtMessage::Token {
                round,
                initiator: self.id,
                min,
                remaining,
            },
        );
    }

    /// The minimum virtual time this site can still introduce into the
    /// system: its clock's next tick (any future local event exceeds it)
    /// and its unacknowledged in-flight sends (Jefferson's transit rule).
    /// Already-applied uncommitted writes do not hold GVT back — they are
    /// processed events awaiting fossil collection.
    fn local_min(&self) -> VirtualTime {
        let mut min = VirtualTime::new(self.clock.counter() + 1, self.id);
        if let Some((u, _)) = self.unacked.iter().next() {
            min = min.min(*u);
        }
        min
    }

    /// Handles a delivered message.
    pub fn handle_message(&mut self, env: GvtEnvelope) {
        match env.msg {
            GvtMessage::Write { object, vt, value } => {
                self.clock.witness(vt);
                if let Some(state) = self.objects.get_mut(&object) {
                    state.history.insert(vt, value);
                    if vt < self.gvt {
                        // Write below a published GVT can only happen for
                        // redeliveries; mark it committed directly.
                        state.history.mark_committed(vt);
                    } else {
                        self.uncommitted.insert(vt);
                    }
                }
                self.push(env.from, GvtMessage::Ack { vt });
            }
            GvtMessage::Ack { vt } => {
                if let Some(n) = self.unacked.get_mut(&vt) {
                    *n -= 1;
                    if *n == 0 {
                        self.unacked.remove(&vt);
                    }
                }
            }
            GvtMessage::Token {
                round,
                initiator,
                min,
                mut remaining,
            } => {
                let min = min.min(self.local_min());
                if remaining.is_empty() {
                    // Round complete: the initiator publishes the GVT.
                    debug_assert_eq!(initiator, self.id);
                    for site in self.ring.clone() {
                        if site != self.id {
                            self.push(site, GvtMessage::Gvt { round, gvt: min });
                        }
                    }
                    self.apply_gvt(min);
                } else {
                    let next = remaining.remove(0);
                    self.push(
                        next,
                        GvtMessage::Token {
                            round,
                            initiator,
                            min,
                            remaining,
                        },
                    );
                }
            }
            GvtMessage::Gvt { gvt, .. } => {
                self.apply_gvt(gvt);
            }
            GvtMessage::StartSweep => self.start_sweep(),
        }
    }

    fn apply_gvt(&mut self, gvt: VirtualTime) {
        if gvt <= self.gvt {
            return;
        }
        self.gvt = gvt;
        let newly: Vec<VirtualTime> = self
            .uncommitted
            .iter()
            .copied()
            .take_while(|vt| *vt < gvt)
            .collect();
        for vt in newly {
            self.uncommitted.remove(&vt);
            for state in self.objects.values_mut() {
                state.history.mark_committed(vt);
                // Fossil collection (Jefferson: commits free the logs).
                state.history.gc(vt);
            }
            self.events.push(GvtEvent::Committed { vt, site: self.id });
        }
    }

    /// Drains queued outgoing messages.
    pub fn drain_outbox(&mut self) -> Vec<GvtEnvelope> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains observable events.
    pub fn drain_events(&mut self) -> Vec<GvtEvent> {
        std::mem::take(&mut self.events)
    }

    fn push(&mut self, to: SiteId, msg: GvtMessage) {
        self.msgs_sent += 1;
        self.outbox.push(GvtEnvelope {
            from: self.id,
            to,
            msg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump(sites: &mut [&mut GvtSite]) {
        loop {
            let mut envs = Vec::new();
            for s in sites.iter_mut() {
                envs.extend(s.drain_outbox());
            }
            if envs.is_empty() {
                return;
            }
            for e in envs {
                if let Some(s) = sites.iter_mut().find(|s| s.id() == e.to) {
                    s.handle_message(e);
                }
            }
        }
    }

    fn network(n: u32) -> Vec<GvtSite> {
        let ring: Vec<SiteId> = (1..=n).map(SiteId).collect();
        (1..=n)
            .map(|i| GvtSite::new(SiteId(i), ring.clone()))
            .collect()
    }

    #[test]
    fn write_propagates_but_stays_uncommitted_without_sweep() {
        let mut sites = network(2);
        let [a, b] = &mut sites[..] else {
            unreachable!()
        };
        let oa = a.create_int("x", 0);
        let ob = b.create_int("x", 0);
        a.add_replicas(oa.clone(), vec![SiteId(1), SiteId(2)]);
        b.add_replicas(ob.clone(), vec![SiteId(1), SiteId(2)]);
        a.write(oa.clone(), 5);
        pump(&mut [a, b]);
        assert_eq!(b.read_current(&ob), Some(5));
        assert_eq!(b.read_committed(&ob), Some(0), "no sweep, no commit");
    }

    #[test]
    fn sweep_commits_everything_below_gvt() {
        let mut sites = network(2);
        let [a, b] = &mut sites[..] else {
            unreachable!()
        };
        let oa = a.create_int("x", 0);
        let ob = b.create_int("x", 0);
        a.add_replicas(oa.clone(), vec![SiteId(1), SiteId(2)]);
        b.add_replicas(ob.clone(), vec![SiteId(1), SiteId(2)]);
        let vt = a.write(oa.clone(), 5);
        pump(&mut [a, b]);
        a.start_sweep();
        pump(&mut [a, b]);
        assert_eq!(a.read_committed(&oa), Some(5));
        assert_eq!(b.read_committed(&ob), Some(5));
        assert!(a.gvt() > vt);
        assert!(b
            .drain_events()
            .iter()
            .any(|e| matches!(e, GvtEvent::Committed { vt: v, .. } if *v == vt)));
    }

    #[test]
    fn in_flight_write_holds_gvt_back() {
        let mut sites = network(2);
        let [a, b] = &mut sites[..] else {
            unreachable!()
        };
        let oa = a.create_int("x", 0);
        let ob = b.create_int("x", 0);
        a.add_replicas(oa.clone(), vec![SiteId(1), SiteId(2)]);
        b.add_replicas(ob.clone(), vec![SiteId(1), SiteId(2)]);
        let vt = a.write(oa.clone(), 5);
        // Sweep BEFORE delivering the write: the unacked send pins GVT.
        let held: Vec<GvtEnvelope> = a.drain_outbox();
        a.start_sweep();
        pump(&mut [a, b]);
        assert!(a.gvt() <= vt, "in-flight write must hold GVT back");
        assert_eq!(b.read_committed(&ob), Some(0));
        // Deliver and sweep again.
        for e in held {
            b.handle_message(e);
        }
        pump(&mut [a, b]);
        a.start_sweep();
        pump(&mut [a, b]);
        assert_eq!(b.read_committed(&ob), Some(5));
    }

    #[test]
    fn sweep_visits_every_ring_member() {
        // 6 sites, replicas only on {1,2}: the token still travels the
        // whole ring — the cost E5 measures.
        let mut sites = network(6);
        for s in sites.iter_mut() {
            let o = s.create_int("x", 0);
            s.add_replicas(o, vec![SiteId(1), SiteId(2)]);
        }
        let o = GvtObject("x".into());
        sites[0].write(o.clone(), 1);
        {
            let mut refs: Vec<&mut GvtSite> = sites.iter_mut().collect();
            pump(&mut refs);
        }
        sites[0].start_sweep();
        let mut token_hops = 0;
        loop {
            let mut envs = Vec::new();
            for s in sites.iter_mut() {
                envs.extend(s.drain_outbox());
            }
            if envs.is_empty() {
                break;
            }
            for e in envs {
                if matches!(e.msg, GvtMessage::Token { .. }) {
                    token_hops += 1;
                }
                if let Some(s) = sites.iter_mut().find(|s| s.id() == e.to) {
                    s.handle_message(e);
                }
            }
        }
        assert_eq!(token_hops, 6, "token visits all 6 sites (5 fwd + return)");
        assert_eq!(sites[1].read_committed(&o), Some(1));
    }

    #[test]
    fn stragglers_resort_into_history() {
        let mut sites = network(3);
        for s in sites.iter_mut() {
            let o = s.create_int("x", 0);
            s.add_replicas(o, vec![SiteId(1), SiteId(2), SiteId(3)]);
        }
        let o = GvtObject("x".into());
        // Concurrent writes from 1 and 2 (1's VT is smaller).
        sites[0].write(o.clone(), 10);
        sites[1].write(o.clone(), 20);
        // Deliver 2's write first to site 3, then 1's (a straggler).
        let e1: Vec<GvtEnvelope> = sites[0].drain_outbox();
        let e2: Vec<GvtEnvelope> = sites[1].drain_outbox();
        for e in e2.into_iter().chain(e1) {
            let idx = (e.to.0 - 1) as usize;
            sites[idx].handle_message(e);
        }
        {
            let mut refs: Vec<&mut GvtSite> = sites.iter_mut().collect();
            pump(&mut refs);
        }
        assert_eq!(
            sites[2].read_current(&o),
            Some(20),
            "later VT wins regardless of arrival order"
        );
        sites[0].start_sweep();
        {
            let mut refs: Vec<&mut GvtSite> = sites.iter_mut().collect();
            pump(&mut refs);
        }
        for s in &sites {
            assert_eq!(s.read_committed(&o), Some(20));
        }
    }
}
