//! Workload generation and simulation driving for the DECAF experiments.
//!
//! The paper's benchmarks (§5.2.2) drive two-party (and multi-party)
//! collaborations with rate-controlled update streams — blind writes (the
//! whiteboard/form scenario) and read-modify-writes — "under a range of
//! artificially induced network delays". This crate provides:
//!
//! * [`SimWorld`] — [`Node`]s (a [`Site`] and, for a durable one, an
//!   in-memory log) on the deterministic [`SimNet`] simulator, with
//!   timestamped engine-event capture;
//! * [`ArrivalProcess`] — seeded deterministic inter-arrival generators
//!   (fixed-rate and exponential/Poisson);
//! * [`LatencyTracker`] / [`NotificationTracker`] — commit and
//!   view-notification latency bookkeeping keyed by virtual time;
//! * ready-made transaction types ([`BlindWrite`], [`ReadModifyWrite`])
//!   matching the paper's benchmark workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use decaf_core::{
    wiring, EngineEvent, Envelope, ObjectName, Site, SiteConfig, SiteStats, TraceKind, Transaction,
    TxnCtx, TxnError,
};
use decaf_net::sim::{Event, LatencyModel, SimNet, SimTime};
use decaf_net::{Node, TransportEvent};
use decaf_vt::{SiteId, VirtualTime};

/// A blind write setting an integer (the whiteboard/form workload: "in an
/// application in which all operations are blind writes... concurrency
/// control tests never fail", §5.1.2).
#[derive(Debug)]
pub struct BlindWrite {
    /// Target object (local to the originating site).
    pub object: ObjectName,
    /// Value to write.
    pub value: i64,
}

impl Transaction for BlindWrite {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.write_int(self.object, self.value)
    }
}

/// A read-modify-write incrementing an integer (the rollback-rate workload
/// of §5.2.2: "transactions involving both reads and writes").
#[derive(Debug)]
pub struct ReadModifyWrite {
    /// Target object (local to the originating site).
    pub object: ObjectName,
    /// Increment to apply.
    pub delta: i64,
}

impl Transaction for ReadModifyWrite {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.object)?;
        ctx.write_int(self.object, v + self.delta)
    }
}

/// Deterministic, seeded inter-arrival process for user gestures.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Fixed period between events.
    Fixed {
        /// The period.
        period: SimTime,
    },
    /// Exponential (Poisson) inter-arrivals with the given mean, from a
    /// seeded RNG.
    Exponential {
        /// Mean inter-arrival time.
        mean: SimTime,
        /// RNG state.
        rng: SmallRng,
    },
}

impl ArrivalProcess {
    /// A fixed-rate process of `per_second` events per second.
    pub fn fixed_rate(per_second: f64) -> Self {
        ArrivalProcess::Fixed {
            period: SimTime::from_micros((1_000_000.0 / per_second) as u64),
        }
    }

    /// A Poisson process with mean rate `per_second`, seeded for
    /// reproducibility.
    pub fn poisson(per_second: f64, seed: u64) -> Self {
        ArrivalProcess::Exponential {
            mean: SimTime::from_micros((1_000_000.0 / per_second) as u64),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws the next inter-arrival delay.
    pub fn next_delay(&mut self) -> SimTime {
        match self {
            ArrivalProcess::Fixed { period } => *period,
            ArrivalProcess::Exponential { mean, rng } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                SimTime::from_micros((-u.ln() * mean.as_micros() as f64).max(1.0) as u64)
            }
        }
    }
}

/// An engine event stamped with its simulated occurrence time and site.
#[derive(Debug, Clone)]
pub struct StampedEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Site where it happened.
    pub site: SiteId,
    /// The event.
    pub event: EngineEvent,
}

/// What a [`SimWorld::step`] surfaced to the harness.
#[derive(Debug)]
pub enum WorldStep {
    /// A workload timer fired at `site` with the caller's `token`.
    Timer {
        /// The site whose timer fired.
        site: SiteId,
        /// Caller-chosen token.
        token: u64,
        /// Simulated time.
        at: SimTime,
    },
    /// A protocol message was delivered (already handled internally).
    Delivered {
        /// Simulated time.
        at: SimTime,
    },
    /// A site received a fail-stop notification (already handled).
    Failure {
        /// The observer site.
        site: SiteId,
        /// The failed site.
        failed: SiteId,
        /// Simulated time.
        at: SimTime,
    },
}

/// DECAF sites wired onto the deterministic simulator.
///
/// # Example
///
/// ```
/// use decaf_net::sim::{LatencyModel, SimTime};
/// use decaf_workload::{BlindWrite, SimWorld};
/// use decaf_vt::SiteId;
///
/// let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(10)));
/// let objs = world.wire_int(0);
/// let obj = objs[1];
/// world.site(SiteId(2)).execute(Box::new(BlindWrite { object: obj, value: 9 }));
/// world.run_to_quiescence();
/// assert_eq!(world.site(SiteId(1)).read_int_committed(objs[0]), Some(9));
/// ```
#[derive(Debug)]
pub struct SimWorld {
    /// The simulated network.
    pub net: SimNet<Envelope>,
    /// The nodes, keyed by site id (ids are `1..=n`). A durable node's log
    /// is a byte image of `wal.log`.
    pub nodes: BTreeMap<SiteId, Node<Vec<u8>>>,
    /// Timestamped engine events captured so far.
    pub log: Vec<StampedEvent>,
}

impl SimWorld {
    /// Creates `n` sites (ids `1..=n`) over the given latency model.
    pub fn new(n: u32, latency: LatencyModel) -> Self {
        Self::with_config(n, latency, SiteConfig::default())
    }

    /// Creates `n` sites with an explicit engine configuration.
    pub fn with_config(n: u32, latency: LatencyModel, config: SiteConfig) -> Self {
        let nodes = (1..=n)
            .map(|i| (SiteId(i), Node::new(Site::with_config(SiteId(i), config))))
            .collect();
        SimWorld {
            net: SimNet::new(latency),
            nodes,
            log: Vec::new(),
        }
    }

    /// Creates one replicated integer across **all** sites, returning each
    /// site's local object name (index = site id - 1).
    pub fn wire_int(&mut self, initial: i64) -> Vec<ObjectName> {
        let objs: Vec<ObjectName> = self.sites_mut().map(|s| s.create_int(initial)).collect();
        let mut parts: Vec<(&mut Site, ObjectName)> =
            self.sites_mut().zip(objs.iter().copied()).collect();
        wiring::wire_replicas(&mut parts);
        objs
    }

    /// Creates one replicated integer across a *subset* of sites.
    pub fn wire_int_subset(
        &mut self,
        members: &[SiteId],
        initial: i64,
    ) -> BTreeMap<SiteId, ObjectName> {
        let mut objs = BTreeMap::new();
        for id in members {
            objs.insert(*id, self.site(*id).create_int(initial));
        }
        let mut parts: Vec<(&mut Site, ObjectName)> = Vec::new();
        for (id, node) in self.nodes.iter_mut() {
            if let Some(obj) = objs.get(id) {
                parts.push((&mut node.site, *obj));
            }
        }
        wiring::wire_replicas(&mut parts);
        objs
    }

    /// The site with id `id`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn site(&mut self, id: SiteId) -> &mut Site {
        &mut self.nodes.get_mut(&id).expect("unknown site").site
    }

    /// Every site, in id order (for wiring replicas across them).
    pub fn sites_mut(&mut self) -> impl Iterator<Item = &mut Site> {
        self.nodes.values_mut().map(|n| &mut n.site)
    }

    /// Schedules a workload timer.
    pub fn set_timer(&mut self, site: SiteId, delay: SimTime, token: u64) {
        self.net.set_timer(site, delay, token);
    }

    /// Fail-stops `site`, notifying all other sites.
    pub fn fail_site(&mut self, site: SiteId) {
        let observers: Vec<SiteId> = self.nodes.keys().copied().filter(|s| *s != site).collect();
        self.net.fail_site(site, observers);
    }

    /// One [`Node::flush`] per node: commit records into its log, its
    /// outbox into the network, its events into [`log`](SimWorld::log).
    ///
    /// Each departing envelope is traced as a span-carrying `MsgSend` on
    /// the sender's sink (a no-op for the default disabled sink), stamped
    /// with simulated time; [`step`](SimWorld::step) traces the matching
    /// `MsgRecv`. These are the only virtual-time transport events.
    pub fn flush(&mut self) {
        let now = self.net.now();
        let net = &mut self.net;
        for (id, node) in self.nodes.iter_mut() {
            let sink = node.site.trace_sink().clone();
            let events = node
                .flush(|env| {
                    trace_hop(&sink, TraceKind::MsgSend, now, env.to, &env);
                    net.send(env.from, env.to, env);
                })
                .expect("appending to an in-memory log cannot fail");
            self.log
                .extend(events.into_iter().map(|event| StampedEvent {
                    at: now,
                    site: *id,
                    event,
                }));
        }
    }

    /// Advances one simulated event. Returns `None` at quiescence.
    pub fn step(&mut self) -> Option<WorldStep> {
        self.flush();
        let event = self.net.step()?;
        let step = match event {
            Event::Deliver { at, from, to, msg } => {
                if let Some(node) = self.nodes.get_mut(&to) {
                    trace_hop(node.site.trace_sink(), TraceKind::MsgRecv, at, from, &msg);
                    node.deliver(TransportEvent::Message { from, msg });
                }
                WorldStep::Delivered { at }
            }
            Event::Timer { at, site, token } => WorldStep::Timer { site, token, at },
            Event::SiteFailed {
                at,
                observer,
                failed,
            } => {
                if let Some(node) = self.nodes.get_mut(&observer) {
                    node.deliver(TransportEvent::SiteFailed { failed });
                }
                WorldStep::Failure {
                    site: observer,
                    failed,
                    at,
                }
            }
        };
        self.flush();
        Some(step)
    }

    /// Runs until the network has no pending events (timers included).
    pub fn run_to_quiescence(&mut self) {
        while self.step().is_some() {}
    }

    /// Runs until simulated time passes `deadline` (events at later times
    /// stay queued) or quiescence.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            self.flush();
            match self.net.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => return,
            }
        }
    }

    /// Simulated now.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Every site's statistics folded into one total.
    pub fn total_stats(&self) -> SiteStats {
        let mut out = SiteStats::default();
        for node in self.nodes.values() {
            out.merge(&node.site.stats());
        }
        out
    }
}

/// Traces one end of an envelope's hop — `MsgSend` at the sender, `MsgRecv`
/// at the receiver — at simulated time `at`, keyed by the envelope's span.
fn trace_hop(
    sink: &decaf_core::TraceSink,
    kind: TraceKind,
    at: SimTime,
    peer: SiteId,
    env: &Envelope,
) {
    let span = env.span.map(|s| s.as_trace());
    sink.emit_at_span(
        at.as_micros().saturating_mul(1_000),
        kind,
        span.map(|(o, s, _)| (s, o)),
        Some(peer.0),
        None,
        span,
    );
}

/// Tracks per-transaction latencies from origin execution to commit at
/// each site, in simulated time.
#[derive(Debug, Default)]
pub struct LatencyTracker {
    executed: BTreeMap<VirtualTime, SimTime>,
    /// Commit latency samples at the originating site (§5.1.1's "2t").
    pub at_origin: Vec<SimTime>,
    /// Commit latency samples at non-originating sites ("3t").
    pub at_remote: Vec<SimTime>,
}

impl LatencyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the world's stamped event log into the tracker.
    pub fn ingest(&mut self, log: &[StampedEvent]) {
        for e in log {
            if let EngineEvent::TxnExecuted { vt, .. } = e.event {
                self.executed.insert(vt, e.at);
            }
        }
        for e in log {
            if let EngineEvent::TxnCommitted { vt, local_origin } = e.event {
                if let Some(start) = self.executed.get(&vt) {
                    let lat = e.at.saturating_sub(*start);
                    if local_origin {
                        self.at_origin.push(lat);
                    } else {
                        self.at_remote.push(lat);
                    }
                }
            }
        }
    }

    /// Mean of a sample set in milliseconds.
    pub fn mean_ms(samples: &[SimTime]) -> f64 {
        if samples.is_empty() {
            return f64::NAN;
        }
        samples.iter().map(|s| s.as_millis_f64()).sum::<f64>() / samples.len() as f64
    }
}

/// Tracks view-notification latencies relative to the triggering
/// transaction's execution (§5.1.2).
#[derive(Debug, Default)]
pub struct NotificationTracker {
    executed: BTreeMap<VirtualTime, SimTime>,
    /// `(mode, latency)` samples keyed by snapshot VT.
    pub samples: Vec<(decaf_core::ViewMode, SimTime)>,
}

impl NotificationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a world log: view-update notifications are matched to the
    /// execution time of the transaction whose VT equals the snapshot ts.
    pub fn ingest(&mut self, log: &[StampedEvent]) {
        for e in log {
            if let EngineEvent::TxnExecuted { vt, .. } = e.event {
                self.executed.insert(vt, e.at);
            }
        }
        for e in log {
            if let EngineEvent::ViewUpdated { ts, mode, .. } = e.event {
                if let Some(start) = self.executed.get(&ts) {
                    self.samples.push((mode, e.at.saturating_sub(*start)));
                }
            }
        }
    }

    /// Mean latency in ms for one view mode.
    pub fn mean_ms(&self, mode: decaf_core::ViewMode) -> f64 {
        let xs: Vec<f64> = self
            .samples
            .iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, t)| t.as_millis_f64())
            .collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_core::{Message, ViewMode};

    #[test]
    fn fixed_rate_period() {
        let mut p = ArrivalProcess::fixed_rate(2.0);
        assert_eq!(p.next_delay(), SimTime::from_millis(500));
        assert_eq!(p.next_delay(), SimTime::from_millis(500));
    }

    #[test]
    fn poisson_is_deterministic_and_positive() {
        let mut p1 = ArrivalProcess::poisson(1.0, 42);
        let mut p2 = ArrivalProcess::poisson(1.0, 42);
        for _ in 0..50 {
            let d1 = p1.next_delay();
            let d2 = p2.next_delay();
            assert_eq!(d1, d2);
            assert!(d1 > SimTime::ZERO);
        }
        let mut p = ArrivalProcess::poisson(1.0, 7);
        let mean: f64 = (0..2000).map(|_| p.next_delay().as_secs_f64()).sum::<f64>() / 2000.0;
        assert!((0.8..1.2).contains(&mean), "poisson mean off: {mean}");
    }

    #[test]
    fn sim_world_two_sites_commit_in_2t_and_t() {
        // The analytic claim of §5.1.1, measured end to end.
        let t = SimTime::from_millis(10);
        let mut world = SimWorld::new(2, LatencyModel::uniform(t));
        let objs = world.wire_int(0);
        // Originate at the NON-primary site (site 2): delegation applies
        // (single remote primary), so the primary commits in t and the
        // originator in 2t.
        let obj = objs[1];
        world.site(SiteId(2)).execute(Box::new(ReadModifyWrite {
            object: obj,
            delta: 1,
        }));
        world.run_to_quiescence();
        let mut tracker = LatencyTracker::new();
        tracker.ingest(&world.log);
        assert_eq!(tracker.at_origin.len(), 1);
        assert_eq!(
            tracker.at_origin[0],
            SimTime::from_millis(20),
            "commit at originator in 2t"
        );
        assert_eq!(tracker.at_remote.len(), 1);
        assert_eq!(
            tracker.at_remote[0],
            SimTime::from_millis(10),
            "delegate (primary) commits in t"
        );
    }

    #[test]
    fn notification_tracker_measures_view_latency() {
        let t = SimTime::from_millis(10);
        let mut world = SimWorld::new(2, LatencyModel::uniform(t));
        let objs = world.wire_int(0);
        let watcher = decaf_core::RecordingView::new(vec![objs[0]]);
        world
            .site(SiteId(1))
            .attach_view(Box::new(watcher), &[objs[0]], ViewMode::Optimistic);
        let obj = objs[1];
        world.site(SiteId(2)).execute(Box::new(BlindWrite {
            object: obj,
            value: 5,
        }));
        world.run_to_quiescence();
        let mut nt = NotificationTracker::new();
        nt.ingest(&world.log);
        let opt = nt.mean_ms(ViewMode::Optimistic);
        assert_eq!(opt, 10.0, "optimistic notification at the replica in t");
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(50)));
        let objs = world.wire_int(0);
        let obj = objs[0];
        world.site(SiteId(1)).execute(Box::new(BlindWrite {
            object: obj,
            value: 1,
        }));
        world.run_until(SimTime::from_millis(10));
        assert!(world.now() <= SimTime::from_millis(10));
        let o2 = objs[1];
        assert_eq!(world.site(SiteId(2)).read_int_current(o2), Some(0));
        world.run_to_quiescence();
        assert_eq!(world.site(SiteId(2)).read_int_committed(o2), Some(1));
    }

    #[test]
    fn wire_int_subset_limits_replication() {
        let mut world = SimWorld::new(3, LatencyModel::uniform(SimTime::from_millis(5)));
        let objs = world.wire_int_subset(&[SiteId(1), SiteId(2)], 0);
        let o1 = objs[&SiteId(1)];
        world.site(SiteId(1)).execute(Box::new(BlindWrite {
            object: o1,
            value: 4,
        }));
        world.run_to_quiescence();
        assert_eq!(
            world.site(SiteId(2)).read_int_committed(objs[&SiteId(2)]),
            Some(4)
        );
        assert_eq!(
            world.site(SiteId(1)).replication_graph(o1).unwrap().len(),
            2
        );
    }

    #[test]
    fn total_stats_aggregates() {
        let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(1)));
        let objs = world.wire_int(0);
        // A 16-slot ring at site 1 overflows, so the dropped-event counter
        // is part of what must add up.
        world
            .site(SiteId(1))
            .set_trace_sink(decaf_core::TraceSink::enabled(1, 16));
        for value in 1..=8 {
            world.site(SiteId(1)).execute(Box::new(BlindWrite {
                object: objs[0],
                value,
            }));
        }
        world.run_to_quiescence();
        let total = world.total_stats();
        assert_eq!(total.txns_started, 8);
        assert_eq!(total.txns_committed, 8);
        assert!(total.msgs_sent >= 2);
        assert!(total.trace_events_dropped > 0);
        let mut merged = world.site(SiteId(1)).stats();
        merged.merge(&world.site(SiteId(2)).stats());
        assert_eq!(total, merged, "the total is the merge of the sites' stats");
    }

    #[test]
    fn a_burst_of_appends_asks_once_for_the_optimistic_view() {
        struct Append(ObjectName, i64);
        impl Transaction for Append {
            fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
                ctx.list_insert(self.0, usize::MAX, decaf_core::Blueprint::Int(self.1))?;
                Ok(())
            }
        }
        let (primary, replica) = (SiteId(1), SiteId(2));
        let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(1)));
        let lists: Vec<ObjectName> = world.sites_mut().map(|s| s.create_list()).collect();
        let mut parts: Vec<_> = world.sites_mut().zip(lists.iter().copied()).collect();
        wiring::wire_replicas(&mut parts);
        // One element already there, so that every snapshot of what follows
        // reads something older than itself and has a guess to ask about.
        world.site(primary).execute(Box::new(Append(lists[0], -1)));
        world.run_to_quiescence();
        for mode in [ViewMode::Optimistic, ViewMode::Pessimistic] {
            let view = Box::new(decaf_core::RecordingView::new(vec![]));
            world.site(replica).attach_view(view, &lists[1..], mode);
        }

        // 64 appends at the primary reach the replica as one batch: every
        // update and commit is delivered before the replica flushes.
        for v in 0..64 {
            world.site(primary).execute(Box::new(Append(lists[0], v)));
        }
        world.flush();
        while let Some(Event::Deliver { from, to, msg, .. }) = world.net.step() {
            assert_eq!(to, replica);
            let node = world.nodes.get_mut(&to).expect("the replica");
            node.deliver(TransportEvent::Message { from, msg });
        }
        let stats = world.site(replica).stats();
        assert_eq!(stats.opt_notifications, 64);
        assert_eq!(stats.snapshot_requests_retired, 63);
        // One request for the optimistic snapshot that is still held, one
        // for each pending pessimistic snapshot.
        let mut requests = 0;
        let (net, node) = (&mut world.net, world.nodes.get_mut(&replica).unwrap());
        node.flush(|env| {
            requests += usize::from(matches!(env.msg, Message::SnapshotConfirm { .. }));
            net.send(env.from, env.to, env);
        })
        .expect("no log to fail");
        assert_eq!(requests, 1 + 64);
        assert_eq!(world.site(replica).stats().msgs_sent, stats.msgs_sent);

        world.run_to_quiescence();
        let notified: Vec<VirtualTime> = world
            .log
            .iter()
            .filter_map(|e| match e.event {
                EngineEvent::ViewUpdated {
                    ts,
                    mode: ViewMode::Pessimistic,
                    ..
                } => Some(ts),
                _ => None,
            })
            .collect();
        assert_eq!(notified.len(), 64);
        assert!(notified.windows(2).all(|w| w[0] < w[1]), "in VT order");
        assert_eq!(world.site(replica).stats().opt_commits, 1);
        for (site, list) in [(primary, lists[0]), (replica, lists[1])] {
            assert_eq!(world.site(site).list_children_current(list).len(), 65);
            let history = world.site(site).debug_history(list);
            assert!(history.iter().all(|(_, committed)| *committed));
        }
    }
}

/// A guess-heavy transaction: reads *every* listed object before writing
/// the target, maximizing the RC/RL guesses a single gesture registers
/// (each stale or uncommitted read is one more guess to confirm).
#[derive(Debug)]
pub struct GuessHeavy {
    /// Objects read before the write (local to the originating site).
    pub reads: Vec<ObjectName>,
    /// Target of the write.
    pub write: ObjectName,
    /// Increment added to the sum of the reads.
    pub delta: i64,
}

impl Transaction for GuessHeavy {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let mut sum = 0i64;
        for o in &self.reads {
            sum = sum.wrapping_add(ctx.read_int(*o)?);
        }
        let base = ctx.read_int(self.write)?;
        let _ = sum;
        ctx.write_int(self.write, base + self.delta)
    }
}

/// What a party submits on each gesture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// Blind writes of a running counter value (whiteboard-style).
    BlindWrite,
    /// Read-modify-write increments (conflict-prone).
    ReadModifyWrite,
    /// Reads of every watched object before an increment
    /// (RC/RL/NC-guess-heavy; see [`GuessHeavy`]).
    GuessHeavy,
}

/// One gesture drawn from a [`TxnMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// Submit a transaction of this kind.
    Txn(TxnKind),
    /// (Re-)join the collaboration. Interpreted by drivers that model
    /// membership churn (the checker); the fixed-party [`RateWorkload`]
    /// treats it as a no-op gesture.
    Join,
    /// Leave the collaboration (same caveat as [`MixOp::Join`]).
    Leave,
}

/// Integer weights for the seeded transaction mix.
///
/// A weight of zero removes that gesture class from the draw; at least one
/// weight must be positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Read-modify-write increments.
    pub increment: u32,
    /// Blind writes.
    pub blind_write: u32,
    /// Guess-heavy multi-read transactions.
    pub guess_heavy: u32,
    /// Collaboration membership churn (alternating leave/join).
    pub join_leave: u32,
}

impl Default for MixWeights {
    /// A balanced mix: mostly conflict-prone increments, some blind
    /// writes, some guess-heavy reads, occasional membership churn.
    fn default() -> Self {
        MixWeights {
            increment: 4,
            blind_write: 3,
            guess_heavy: 2,
            join_leave: 1,
        }
    }
}

#[derive(Debug, Clone)]
enum MixInner {
    Single(TxnKind),
    Weighted {
        weights: MixWeights,
        rng: SmallRng,
        in_session: bool,
    },
}

/// A seeded random generator of workload gestures, shared by the e-series
/// benchmark bins and the `decaf-check` model checker.
///
/// [`TxnMix::single`] consumes **no** RNG draws, so single-kind workloads
/// (the paper's E3/E4 benchmarks) are bit-for-bit identical to the old
/// fixed-kind driver. [`TxnMix::seeded`] draws one weighted sample per
/// gesture from its own [`SmallRng`], independent of arrival-time RNGs.
#[derive(Debug, Clone)]
pub struct TxnMix {
    inner: MixInner,
}

impl TxnMix {
    /// A mix that always yields `kind` (no randomness).
    pub fn single(kind: TxnKind) -> Self {
        TxnMix {
            inner: MixInner::Single(kind),
        }
    }

    /// A weighted mix drawing from a dedicated RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    pub fn seeded(weights: MixWeights, seed: u64) -> Self {
        let total =
            weights.increment + weights.blind_write + weights.guess_heavy + weights.join_leave;
        assert!(total > 0, "TxnMix weights must not all be zero");
        TxnMix {
            inner: MixInner::Weighted {
                weights,
                rng: SmallRng::seed_from_u64(seed),
                in_session: true,
            },
        }
    }

    /// Draws the next gesture.
    pub fn next_op(&mut self) -> MixOp {
        match &mut self.inner {
            MixInner::Single(kind) => MixOp::Txn(*kind),
            MixInner::Weighted {
                weights,
                rng,
                in_session,
            } => {
                let total = weights.increment
                    + weights.blind_write
                    + weights.guess_heavy
                    + weights.join_leave;
                let mut draw = rng.gen_range(0..total);
                if draw < weights.increment {
                    return MixOp::Txn(TxnKind::ReadModifyWrite);
                }
                draw -= weights.increment;
                if draw < weights.blind_write {
                    return MixOp::Txn(TxnKind::BlindWrite);
                }
                draw -= weights.blind_write;
                if draw < weights.guess_heavy {
                    return MixOp::Txn(TxnKind::GuessHeavy);
                }
                // Membership churn alternates: a party in the session
                // leaves, a departed party rejoins.
                *in_session = !*in_session;
                if *in_session {
                    MixOp::Join
                } else {
                    MixOp::Leave
                }
            }
        }
    }
}

/// A rate-driven multi-party workload over one shared object: each listed
/// party submits transactions from its own seeded arrival process until the
/// simulated deadline, then the world drains to quiescence.
///
/// This is the driver behind the paper's §5.2.2 benchmarks (E3/E4): blind
/// writes for the whiteboard scenario, read-modify-writes for the conflict
/// study.
///
/// # Example
///
/// ```
/// use decaf_net::sim::{LatencyModel, SimTime};
/// use decaf_workload::{ArrivalProcess, RateWorkload, SimWorld, TxnKind, TxnMix};
/// use decaf_vt::SiteId;
///
/// let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(50)));
/// let objs = world.wire_int(0);
/// RateWorkload {
///     parties: vec![
///         (SiteId(1), ArrivalProcess::fixed_rate(1.0), TxnMix::single(TxnKind::BlindWrite)),
///         (SiteId(2), ArrivalProcess::fixed_rate(1.0), TxnMix::single(TxnKind::ReadModifyWrite)),
///     ],
///     duration: SimTime::from_secs(5),
/// }
/// .run(&mut world, &objs);
/// assert!(world.total_stats().txns_committed > 5);
/// ```
#[derive(Debug)]
pub struct RateWorkload {
    /// `(site, arrivals, gesture mix)` per participating party.
    pub parties: Vec<(SiteId, ArrivalProcess, TxnMix)>,
    /// Simulated run length.
    pub duration: SimTime,
}

impl RateWorkload {
    /// Runs the workload on `world`; `objs` maps site index (id − 1) to
    /// that site's replica of the shared object. Returns the number of
    /// transactions submitted (membership gestures drawn from a weighted
    /// mix are not counted: this driver's party set is fixed).
    pub fn run(mut self, world: &mut SimWorld, objs: &[ObjectName]) -> u64 {
        for (site, arrivals, _) in self.parties.iter_mut() {
            let d = arrivals.next_delay();
            world.set_timer(*site, d, 0);
        }
        let mut submitted = 0u64;
        let mut marker = 0i64;
        while let Some(step) = world.step() {
            if world.now() > self.duration {
                break;
            }
            if let WorldStep::Timer { site, token: 0, .. } = step {
                let Some((_, arrivals, mix)) = self.parties.iter_mut().find(|(s, ..)| *s == site)
                else {
                    continue;
                };
                let obj = objs[(site.0 - 1) as usize];
                match mix.next_op() {
                    MixOp::Txn(TxnKind::BlindWrite) => {
                        submitted += 1;
                        marker += 1;
                        world.site(site).execute(Box::new(BlindWrite {
                            object: obj,
                            value: marker,
                        }));
                    }
                    MixOp::Txn(TxnKind::ReadModifyWrite) => {
                        submitted += 1;
                        world.site(site).execute(Box::new(ReadModifyWrite {
                            object: obj,
                            delta: 1,
                        }));
                    }
                    MixOp::Txn(TxnKind::GuessHeavy) => {
                        submitted += 1;
                        world.site(site).execute(Box::new(GuessHeavy {
                            reads: vec![obj],
                            write: obj,
                            delta: 1,
                        }));
                    }
                    // Membership churn needs a churn-aware driver; here the
                    // gesture is a no-op (the timer still re-arms below).
                    MixOp::Join | MixOp::Leave => {}
                }
                let d = arrivals.next_delay();
                world.set_timer(site, d, 0);
            }
        }
        world.run_to_quiescence();
        submitted
    }
}

#[cfg(test)]
mod scenario_tests {
    use super::*;

    #[test]
    fn txn_mix_single_is_constant_and_seedless() {
        let mut mix = TxnMix::single(TxnKind::BlindWrite);
        for _ in 0..16 {
            assert_eq!(mix.next_op(), MixOp::Txn(TxnKind::BlindWrite));
        }
    }

    #[test]
    fn txn_mix_seeded_is_deterministic_and_covers_all_classes() {
        let weights = MixWeights::default();
        let mut a = TxnMix::seeded(weights, 99);
        let mut b = TxnMix::seeded(weights, 99);
        let ops: Vec<MixOp> = (0..400).map(|_| a.next_op()).collect();
        let again: Vec<MixOp> = (0..400).map(|_| b.next_op()).collect();
        assert_eq!(ops, again, "same seed, same gesture stream");
        for want in [
            MixOp::Txn(TxnKind::ReadModifyWrite),
            MixOp::Txn(TxnKind::BlindWrite),
            MixOp::Txn(TxnKind::GuessHeavy),
            MixOp::Leave,
            MixOp::Join,
        ] {
            assert!(ops.contains(&want), "missing {want:?} in 400 draws");
        }
        // Membership gestures alternate leave/join starting from "in".
        let membership: Vec<MixOp> = ops
            .iter()
            .copied()
            .filter(|o| matches!(o, MixOp::Join | MixOp::Leave))
            .collect();
        for (i, op) in membership.iter().enumerate() {
            let want = if i % 2 == 0 {
                MixOp::Leave
            } else {
                MixOp::Join
            };
            assert_eq!(*op, want, "membership gesture {i}");
        }
    }

    #[test]
    fn guess_heavy_reads_all_objects_and_commits() {
        let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(5)));
        let xs = world.wire_int(3);
        let ys = world.wire_int(10);
        world.site(SiteId(1)).execute(Box::new(GuessHeavy {
            reads: vec![xs[0], ys[0]],
            write: ys[0],
            delta: 1,
        }));
        world.run_to_quiescence();
        assert_eq!(world.site(SiteId(2)).read_int_committed(ys[1]), Some(11));
    }

    #[test]
    fn rate_workload_runs_and_converges() {
        let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(25)));
        let objs = world.wire_int(0);
        let submitted = RateWorkload {
            parties: vec![
                (
                    SiteId(1),
                    ArrivalProcess::fixed_rate(2.0),
                    TxnMix::single(TxnKind::ReadModifyWrite),
                ),
                (
                    SiteId(2),
                    ArrivalProcess::fixed_rate(2.0),
                    TxnMix::single(TxnKind::ReadModifyWrite),
                ),
            ],
            duration: SimTime::from_secs(10),
        }
        .run(&mut world, &objs);
        assert!(submitted >= 38, "both parties gestured: {submitted}");
        let v1 = world.site(SiteId(1)).read_int_committed(objs[0]);
        let v2 = world.site(SiteId(2)).read_int_committed(objs[1]);
        assert_eq!(v1, v2, "replicas agree");
        assert_eq!(v1, Some(submitted as i64), "every increment counted");
    }

    #[test]
    fn blind_rate_workload_never_rolls_back() {
        let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(25)));
        let objs = world.wire_int(0);
        RateWorkload {
            parties: vec![
                (
                    SiteId(1),
                    ArrivalProcess::poisson(3.0, 1),
                    TxnMix::single(TxnKind::BlindWrite),
                ),
                (
                    SiteId(2),
                    ArrivalProcess::poisson(3.0, 2),
                    TxnMix::single(TxnKind::BlindWrite),
                ),
            ],
            duration: SimTime::from_secs(10),
        }
        .run(&mut world, &objs);
        let totals = world.total_stats();
        assert_eq!(totals.txns_aborted_conflict, 0);
        assert_eq!(
            world.site(SiteId(1)).read_int_committed(objs[0]),
            world.site(SiteId(2)).read_int_committed(objs[1]),
        );
    }
}
