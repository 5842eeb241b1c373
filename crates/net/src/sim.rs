//! Deterministic discrete-event network simulator.
//!
//! The simulator carries opaque messages of type `M` between sites with a
//! configurable [`LatencyModel`], plus two auxiliary event kinds the DECAF
//! experiments need:
//!
//! * **timers** — the workload generators schedule "user gesture" events as
//!   timers ([`SimNet::set_timer`]);
//! * **fail-stop failure notification** — the paper assumes "the underlying
//!   communication infrastructure provides notification of such failures
//!   and, as common in systems such as ISIS, presents them to the
//!   application as fail-stop failures" (§3.4). [`SimNet::fail_site`]
//!   reproduces that: the failed site's traffic is cut off and every
//!   surviving observer receives a [`Event::SiteFailed`] notification.
//!
//! Determinism: events at equal simulated times are delivered in the order
//! they were scheduled (a per-net sequence number breaks ties), and latency
//! jitter comes from a seeded RNG, so a run is a pure function of its
//! inputs.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use decaf_vt::rng::SplitMix64;
use decaf_vt::SiteId;

/// A point in simulated time, with microsecond resolution.
///
/// # Example
///
/// ```
/// use decaf_net::sim::SimTime;
///
/// let t = SimTime::from_millis(3) + SimTime::from_micros(500);
/// assert_eq!(t.as_micros(), 3_500);
/// assert_eq!(t.as_millis_f64(), 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs a time from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs a time from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// This time as whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This time as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// The network's message latency model.
///
/// The paper's performance analysis is parameterized by "the average network
/// latency of a single point-to-point message, `t` ms" (§5.1.1). The model
/// is that uniform `t` on every link, with optional bounded uniform jitter
/// from a seeded RNG.
///
/// # Example
///
/// ```
/// use decaf_net::sim::{LatencyModel, SimTime};
///
/// let mut m = LatencyModel::uniform(SimTime::from_millis(20));
/// assert_eq!(m.sample(), SimTime::from_millis(20));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyModel {
    base: SimTime,
    /// Jitter as a fraction of the base latency (0.0 = none).
    jitter_frac: f64,
    rng: SplitMix64,
}

impl LatencyModel {
    /// Every message takes exactly `t`, matching the paper's analysis.
    pub fn uniform(t: SimTime) -> Self {
        LatencyModel {
            base: t,
            jitter_frac: 0.0,
            rng: SplitMix64::new(0),
        }
    }

    /// Adds symmetric uniform jitter of `frac` (e.g. `0.1` = ±10%) drawn
    /// from a RNG seeded with `seed`.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0,1)"
        );
        self.jitter_frac = frac;
        self.rng = SplitMix64::new(seed);
        self
    }

    /// Samples the latency of one message, on whichever link.
    pub fn sample(&mut self) -> SimTime {
        if self.jitter_frac == 0.0 {
            return self.base;
        }
        let us = self.base.as_micros() as f64;
        let delta = self.rng.range(-self.jitter_frac..=self.jitter_frac);
        SimTime::from_micros((us * (1.0 + delta)).max(1.0) as u64)
    }
}

/// An event surfaced by [`SimNet::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message arrived at `to`.
    Deliver {
        /// Simulated delivery time.
        at: SimTime,
        /// Sending site.
        from: SiteId,
        /// Receiving site.
        to: SiteId,
        /// The payload.
        msg: M,
    },
    /// A timer set by [`SimNet::set_timer`] expired at `site`.
    Timer {
        /// Simulated expiry time.
        at: SimTime,
        /// Site the timer belongs to.
        site: SiteId,
        /// Caller-chosen token identifying the timer's purpose.
        token: u64,
    },
    /// The communication layer notifies `observer` that `failed` has
    /// fail-stopped (paper §3.4).
    SiteFailed {
        /// Simulated notification time.
        at: SimTime,
        /// Surviving site receiving the notification.
        observer: SiteId,
        /// The site that failed.
        failed: SiteId,
    },
}

impl<M> Event<M> {
    /// The simulated time at which this event occurs.
    pub fn at(&self) -> SimTime {
        match self {
            Event::Deliver { at, .. } | Event::Timer { at, .. } | Event::SiteFailed { at, .. } => {
                *at
            }
        }
    }
}

#[derive(Debug)]
enum Payload<M> {
    Msg { from: SiteId, to: SiteId, msg: M },
    Timer { site: SiteId, token: u64 },
    FailNotice { observer: SiteId, failed: SiteId },
}

#[derive(Debug)]
struct Queued<M> {
    at: SimTime,
    seq: u64,
    payload: Payload<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Counters describing a finished (or in-progress) simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`SimNet::send`].
    pub sent: u64,
    /// Messages delivered to a live site.
    pub delivered: u64,
    /// Messages discarded because an endpoint had failed or crashed, or a
    /// link was severed.
    pub dropped: u64,
}

/// The deterministic event-driven network.
///
/// Drive it in a loop: inject initial messages/timers, then repeatedly call
/// [`step`](SimNet::step), hand each [`Event`] to the owning site's state
/// machine, and [`send`](SimNet::send) whatever the site emits.
///
/// # Example
///
/// ```
/// use decaf_net::sim::{Event, LatencyModel, SimNet, SimTime};
/// use decaf_vt::SiteId;
///
/// let mut net: SimNet<u32> = SimNet::new(LatencyModel::uniform(SimTime::from_millis(5)));
/// net.set_timer(SiteId(1), SimTime::from_millis(1), 42);
/// net.send(SiteId(1), SiteId(2), 7);
/// // Timer at 1ms fires before the 5ms delivery:
/// assert!(matches!(net.step(), Some(Event::Timer { token: 42, .. })));
/// assert!(matches!(net.step(), Some(Event::Deliver { msg: 7, .. })));
/// assert!(net.step().is_none());
/// ```
#[derive(Debug)]
pub struct SimNet<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Queued<M>>,
    latency: LatencyModel,
    failed: BTreeSet<SiteId>,
    /// Sites transiently down (crash-restart, **without** fail-stop
    /// notification — the failure detector hasn't fired, or the site is
    /// expected back before it would). In-flight deliveries to a crashed
    /// site are lost with its process; *new* sends are parked per the
    /// sender's retrying transport and redelivered FIFO on restart.
    crashed: BTreeSet<SiteId>,
    /// Messages parked while their destination is crashed, in send order.
    crash_parked: Vec<(SiteId, SiteId, M)>,
    /// Bidirectionally severed links (network partition). Messages sent
    /// while a link is down are dropped; in-flight messages still arrive.
    down_links: BTreeSet<(SiteId, SiteId)>,
    /// Active two-group partition, if any (see [`SimNet::partition`]).
    partition: Option<(BTreeSet<SiteId>, BTreeSet<SiteId>)>,
    /// Messages parked while a partition separates their endpoints, in
    /// send order; redelivered FIFO on [`SimNet::heal`].
    parked: Vec<(SiteId, SiteId, M)>,
    /// Per-directed-link delivery-time floors keeping a heal's redelivered
    /// batch FIFO with respect to later sends on the same link.
    link_floor: BTreeMap<(SiteId, SiteId), SimTime>,
    stats: NetStats,
}

impl<M> SimNet<M> {
    /// Creates a network with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        SimNet {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            latency,
            failed: BTreeSet::new(),
            crashed: BTreeSet::new(),
            crash_parked: Vec::new(),
            down_links: BTreeSet::new(),
            partition: None,
            parked: Vec::new(),
            link_floor: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Current simulated time (the time of the last event stepped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Sends `msg` from `from` to `to`; it will be delivered after the
    /// link's sampled latency. Messages involving failed sites or a
    /// severed link are counted as dropped; messages crossing an active
    /// [`partition`](SimNet::partition) are parked until
    /// [`heal`](SimNet::heal).
    pub fn send(&mut self, from: SiteId, to: SiteId, msg: M) {
        self.stats.sent += 1;
        if self.failed.contains(&from)
            || self.failed.contains(&to)
            || self.crashed.contains(&from)
            || self.down_links.contains(&link_key(from, to))
        {
            self.stats.dropped += 1;
            return;
        }
        if self.crashed.contains(&to) {
            // The destination's process is down but expected back: the
            // sender's transport holds the envelope and retries after
            // reconnect (mirroring the TCP mesh's stranded-envelope
            // redelivery), so park rather than drop.
            self.crash_parked.push((from, to, msg));
            return;
        }
        if self.crosses_partition(from, to) {
            self.parked.push((from, to, msg));
            return;
        }
        self.schedule_msg(from, to, msg);
    }

    /// Schedules one message delivery, clamping to the per-link FIFO
    /// floor. DECAF assumes reliable FIFO links (§3.4), so jitter varies
    /// per-message delay but must never reorder a directed link: each
    /// send raises the link's floor to its own delivery time, and later
    /// sends that sample a shorter latency are clamped up to it. Equal
    /// times deliver in schedule order (seq tiebreak), so clamped sends
    /// stay behind the messages ahead of them — including a heal's
    /// redelivered batch, which maintains the same floor.
    fn schedule_msg(&mut self, from: SiteId, to: SiteId, msg: M) {
        let mut at = self.now + self.latency.sample();
        if let Some(&floor) = self.link_floor.get(&(from, to)) {
            if at < floor {
                at = floor;
            }
        }
        self.link_floor.insert((from, to), at);
        self.push(at, Payload::Msg { from, to, msg });
    }

    /// Partitions the network into two groups: sends between the groups
    /// are *parked* (not dropped) until [`heal`](SimNet::heal) restores
    /// connectivity. The DECAF protocol assumes reliable FIFO links with
    /// fail-stop disconnection (§3.4), so a transient partition must delay
    /// traffic, not lose it — unlike [`set_link_down`](SimNet::set_link_down),
    /// which models loss. Messages already in flight when the partition
    /// starts still arrive; intra-group traffic and traffic involving
    /// sites in neither group are unaffected. Fail-stop notifications
    /// ([`fail_site`](SimNet::fail_site)) model an out-of-band failure
    /// detector and are not parked.
    ///
    /// Calling `partition` while one is active heals the old one first
    /// (releasing its parked traffic), so a fault plan can move straight
    /// from one cut to another.
    ///
    /// # Panics
    ///
    /// Panics if the two groups overlap.
    pub fn partition(&mut self, group_a: &[SiteId], group_b: &[SiteId]) {
        if self.partition.is_some() {
            self.heal();
        }
        let a: BTreeSet<SiteId> = group_a.iter().copied().collect();
        let b: BTreeSet<SiteId> = group_b.iter().copied().collect();
        assert!(a.is_disjoint(&b), "partition groups must be disjoint");
        self.partition = Some((a, b));
    }

    /// Heals an active partition, re-injecting every parked message with a
    /// freshly sampled latency while preserving per-link FIFO order (each
    /// directed link's deliveries keep their send order, and later sends
    /// on that link cannot overtake the redelivered batch). No-op if no
    /// partition is active.
    pub fn heal(&mut self) {
        self.partition = None;
        let parked = std::mem::take(&mut self.parked);
        for (from, to, msg) in parked {
            if self.failed.contains(&from) || self.failed.contains(&to) {
                self.stats.dropped += 1;
                continue;
            }
            if self.crashed.contains(&to) {
                self.crash_parked.push((from, to, msg));
                continue;
            }
            self.schedule_msg(from, to, msg);
        }
    }

    /// Whether a [`partition`](SimNet::partition) is currently active.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Number of messages currently parked by an active partition.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Number of messages parked for crashed destinations.
    pub fn crash_parked(&self) -> usize {
        self.crash_parked.len()
    }

    /// Whether a send `from -> to` would cross the active partition.
    fn crosses_partition(&self, from: SiteId, to: SiteId) -> bool {
        match &self.partition {
            Some((a, b)) => {
                (a.contains(&from) && b.contains(&to)) || (b.contains(&from) && a.contains(&to))
            }
            None => false,
        }
    }

    /// Schedules a timer for `site`, expiring `delay` after the current
    /// simulated time, carrying a caller-chosen `token`.
    pub fn set_timer(&mut self, site: SiteId, delay: SimTime, token: u64) {
        self.push(self.now + delay, Payload::Timer { site, token });
    }

    /// Severs the (bidirectional) link between `a` and `b`: subsequent
    /// sends on it are dropped until [`set_link_up`](SimNet::set_link_up).
    /// Messages already in flight still arrive.
    ///
    /// The DECAF protocol assumes reliable FIFO links with fail-stop
    /// disconnection (§3.4), so a lasting partition should be surfaced to
    /// the sites as a failure notification; transient use is for testing
    /// loss behaviour.
    pub fn set_link_down(&mut self, a: SiteId, b: SiteId) {
        self.down_links.insert(link_key(a, b));
    }

    /// Restores a severed link.
    pub fn set_link_up(&mut self, a: SiteId, b: SiteId) {
        self.down_links.remove(&link_key(a, b));
    }

    /// Whether the link between `a` and `b` is currently severed.
    pub fn is_link_down(&self, a: SiteId, b: SiteId) -> bool {
        self.down_links.contains(&link_key(a, b))
    }

    /// Fail-stops `site` now.
    ///
    /// Messages in flight to or from it are cut off: a fail-stop site
    /// neither receives nor is heard from again (§3.4). Every site in
    /// `observers` receives an [`Event::SiteFailed`] notification after the
    /// failed-link latency (modelling the communication layer's failure
    /// detector).
    pub fn fail_site(&mut self, site: SiteId, observers: impl IntoIterator<Item = SiteId>) {
        self.failed.insert(site);
        let involves_site = |from: &SiteId, to: &SiteId| *from == site || *to == site;
        let before = self.queue.len() + self.parked.len();
        self.queue.retain(
            |q| !matches!(&q.payload, Payload::Msg { from, to, .. } if involves_site(from, to)),
        );
        // Parked partition traffic involving the failed site will never be
        // deliverable; account for it now rather than at heal time.
        self.parked.retain(|(from, to, _)| !involves_site(from, to));
        self.stats.dropped += (before - self.queue.len() - self.parked.len()) as u64;
        for observer in observers {
            if observer == site || self.failed.contains(&observer) {
                continue;
            }
            let delay = self.latency.sample();
            self.push(
                self.now + delay,
                Payload::FailNotice {
                    observer,
                    failed: site,
                },
            );
        }
    }

    /// Crashes `site` *transiently*: its process dies now but is expected
    /// to restart ([`restart_site`](SimNet::restart_site)), so — unlike
    /// [`fail_site`](SimNet::fail_site) — **no** failure notification is
    /// emitted (the failure detector's window is assumed longer than the
    /// outage). In-flight deliveries addressed to the site are lost with
    /// its process (kernel socket buffers die with it); traffic it already
    /// put on the wire still arrives. Sends addressed to it while down are
    /// parked FIFO and redelivered on restart, modelling peers' retrying
    /// transports. Timers for the site are *kept*: the fault injector uses
    /// a timer to schedule the restart itself, and the driver is expected
    /// to ignore application timers that fire for a crashed site.
    pub fn crash_site(&mut self, site: SiteId) {
        self.crashed.insert(site);
        let before = self.queue.len();
        self.queue
            .retain(|q| !matches!(&q.payload, Payload::Msg { to, .. } if *to == site));
        self.stats.dropped += (before - self.queue.len()) as u64;
        // Partition-parked traffic addressed to the crashed site moves to
        // the crash queue so a heal during the outage cannot deliver it
        // early; it is released (and re-checked against any partition) at
        // restart.
        let parked = std::mem::take(&mut self.parked);
        for (from, to, msg) in parked {
            if to == site {
                self.crash_parked.push((from, to, msg));
            } else {
                self.parked.push((from, to, msg));
            }
        }
    }

    /// Brings a crashed site back: parked traffic addressed to it is
    /// re-injected in send order with freshly sampled latencies (per-link
    /// FIFO floors keep each directed link ordered, and later sends cannot
    /// overtake the redelivered batch). Messages whose sender has since
    /// fail-stopped are dropped; messages that would cross an active
    /// partition are parked with the partition's traffic instead.
    pub fn restart_site(&mut self, site: SiteId) {
        if !self.crashed.remove(&site) {
            return;
        }
        let parked = std::mem::take(&mut self.crash_parked);
        for (from, to, msg) in parked {
            if to != site {
                self.crash_parked.push((from, to, msg));
            } else if self.failed.contains(&from) {
                self.stats.dropped += 1;
            } else if self.crosses_partition(from, to) {
                self.parked.push((from, to, msg));
            } else {
                self.schedule_msg(from, to, msg);
            }
        }
    }

    /// Whether `site` is currently crashed (down but expected back).
    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.crashed.contains(&site)
    }

    /// Pops the next event, advancing simulated time to it.
    ///
    /// Returns `None` when the queue is empty (the system has quiesced).
    pub fn step(&mut self) -> Option<Event<M>> {
        loop {
            let q = self.queue.pop()?;
            self.now = q.at;
            match q.payload {
                Payload::Msg { from, to, msg } => {
                    if self.failed.contains(&to) || self.failed.contains(&from) {
                        self.stats.dropped += 1;
                        continue;
                    }
                    if self.crashed.contains(&to) {
                        // Scheduled before the crash via a path that did
                        // not purge (e.g. a heal raced the outage): the
                        // destination is down, so the sender's transport
                        // holds it for redelivery at restart.
                        self.crash_parked.push((from, to, msg));
                        continue;
                    }
                    self.stats.delivered += 1;
                    return Some(Event::Deliver {
                        at: q.at,
                        from,
                        to,
                        msg,
                    });
                }
                Payload::Timer { site, token } => {
                    if self.failed.contains(&site) {
                        continue;
                    }
                    return Some(Event::Timer {
                        at: q.at,
                        site,
                        token,
                    });
                }
                Payload::FailNotice { observer, failed } => {
                    if self.failed.contains(&observer) || self.crashed.contains(&observer) {
                        // A crashed observer's detector state dies with
                        // it; after restart it re-learns membership from
                        // the rejoin exchange instead.
                        continue;
                    }
                    return Some(Event::SiteFailed {
                        at: q.at,
                        observer,
                        failed,
                    });
                }
            }
        }
    }

    /// The simulated time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|q| q.at)
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn push(&mut self, at: SimTime, payload: Payload<M>) {
        self.seq += 1;
        self.queue.push(Queued {
            at,
            seq: self.seq,
            payload,
        });
    }
}

/// Canonical (sorted) key for an undirected link.
fn link_key(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(ms: u64) -> SimNet<u32> {
        SimNet::new(LatencyModel::uniform(SimTime::from_millis(ms)))
    }

    #[test]
    fn delivery_after_uniform_latency() {
        let mut n = net(10);
        n.send(SiteId(1), SiteId(2), 99);
        let e = n.step().unwrap();
        assert_eq!(e.at(), SimTime::from_millis(10));
        assert!(matches!(
            e,
            Event::Deliver {
                from: SiteId(1),
                to: SiteId(2),
                msg: 99,
                ..
            }
        ));
    }

    #[test]
    fn fifo_order_among_equal_times() {
        let mut n = net(10);
        n.send(SiteId(1), SiteId(2), 1);
        n.send(SiteId(1), SiteId(2), 2);
        n.send(SiteId(1), SiteId(2), 3);
        let order: Vec<u32> = (0..3)
            .map(|_| match n.step().unwrap() {
                Event::Deliver { msg, .. } => msg,
                _ => panic!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn time_advances_monotonically() {
        let mut n = net(10);
        n.send(SiteId(1), SiteId(2), 1);
        n.step().unwrap();
        // A send at now=10ms lands at 20ms.
        n.send(SiteId(2), SiteId(1), 2);
        let e = n.step().unwrap();
        assert_eq!(e.at(), SimTime::from_millis(20));
    }

    #[test]
    fn timers_interleave_with_messages() {
        let mut n = net(10);
        n.send(SiteId(1), SiteId(2), 7);
        n.set_timer(SiteId(1), SimTime::from_millis(3), 42);
        assert!(matches!(n.step(), Some(Event::Timer { token: 42, .. })));
        assert!(matches!(n.step(), Some(Event::Deliver { .. })));
    }

    #[test]
    fn failed_site_traffic_dropped_and_observers_notified() {
        let mut n = net(10);
        n.send(SiteId(1), SiteId(2), 7); // in flight to the failing site
        n.fail_site(SiteId(2), [SiteId(1), SiteId(3)]);
        let mut notices = 0;
        while let Some(e) = n.step() {
            match e {
                Event::SiteFailed { failed, .. } => {
                    assert_eq!(failed, SiteId(2));
                    notices += 1;
                }
                Event::Deliver { .. } => panic!("delivery to failed site"),
                _ => {}
            }
        }
        assert_eq!(notices, 2);
        assert_eq!(n.stats().dropped, 1);
        // Sends to a failed site are dropped immediately.
        n.send(SiteId(3), SiteId(2), 8);
        assert_eq!(n.stats().dropped, 2);
    }

    #[test]
    fn failed_site_is_not_heard_from_again() {
        // What the failing site already put on the wire is cut off too: a
        // fail-stop site's last messages never race its failure notice.
        let mut n = net(10);
        n.send(SiteId(2), SiteId(1), 7); // in flight from the failing site
        n.send(SiteId(3), SiteId(1), 8); // unrelated traffic
        n.fail_site(SiteId(2), [SiteId(1)]);
        assert_eq!(n.stats().dropped, 1, "counted when the site fails");
        let mut got = Vec::new();
        while let Some(e) = n.step() {
            match e {
                Event::Deliver { from, msg, .. } => got.push((from, msg)),
                Event::SiteFailed {
                    observer, failed, ..
                } => {
                    assert_eq!((observer, failed), (SiteId(1), SiteId(2)));
                }
                Event::Timer { .. } => panic!("no timers were set"),
            }
        }
        assert_eq!(got, vec![(SiteId(3), 8)]);
        assert_eq!(n.stats().delivered, 1);
        // Nor can the failed site send anything new.
        n.send(SiteId(2), SiteId(3), 9);
        assert_eq!(n.stats().dropped, 2);
        assert!(n.step().is_none());
    }

    #[test]
    fn crash_loses_inbound_in_flight_keeps_outbound_and_parks_new_sends() {
        let mut n = net(10);
        n.send(SiteId(1), SiteId(2), 7); // inbound to the crashing site
        n.send(SiteId(2), SiteId(3), 8); // already on the wire from it
        n.crash_site(SiteId(2));
        assert!(n.is_crashed(SiteId(2)));
        assert_eq!(n.stats().dropped, 1, "inbound in-flight died with it");
        let mut got = Vec::new();
        while let Some(e) = n.step() {
            match e {
                Event::Deliver { msg, .. } => got.push(msg),
                Event::SiteFailed { .. } => panic!("crash must not emit a failure notice"),
                _ => {}
            }
        }
        assert_eq!(got, vec![8], "outbound in-flight still arrives");
        // New sends to the crashed site are parked, not dropped.
        n.send(SiteId(3), SiteId(2), 9);
        assert_eq!(n.crash_parked(), 1);
        assert_eq!(n.stats().dropped, 1);
    }

    #[test]
    fn restart_redelivers_parked_sends_in_order() {
        let mut n = net(10);
        n.crash_site(SiteId(2));
        n.send(SiteId(1), SiteId(2), 1);
        n.send(SiteId(1), SiteId(2), 2);
        n.send(SiteId(3), SiteId(2), 3);
        assert!(n.step().is_none(), "everything parked while down");
        n.restart_site(SiteId(2));
        assert!(!n.is_crashed(SiteId(2)));
        assert_eq!(n.crash_parked(), 0);
        n.send(SiteId(1), SiteId(2), 4); // must not overtake the batch
        let mut got = Vec::new();
        while let Some(e) = n.step() {
            if let Event::Deliver { to, msg, .. } = e {
                assert_eq!(to, SiteId(2));
                got.push(msg);
            }
        }
        assert_eq!(got, vec![1, 2, 3, 4]);
    }

    #[test]
    fn timers_for_crashed_site_still_fire() {
        // The fault injector schedules the restart itself as a timer for
        // the crashed site, so crash must not swallow timers.
        let mut n = net(10);
        n.crash_site(SiteId(2));
        n.set_timer(SiteId(2), SimTime::from_millis(5), 77);
        assert!(matches!(
            n.step(),
            Some(Event::Timer {
                site: SiteId(2),
                token: 77,
                ..
            })
        ));
    }

    #[test]
    fn heal_during_crash_holds_traffic_until_restart() {
        let mut n = net(10);
        n.partition(&[SiteId(1)], &[SiteId(2)]);
        n.send(SiteId(1), SiteId(2), 5);
        assert_eq!(n.parked(), 1);
        n.crash_site(SiteId(2));
        assert_eq!(n.parked(), 0, "moved to the crash queue");
        assert_eq!(n.crash_parked(), 1);
        n.heal();
        assert!(
            n.step().is_none(),
            "healing must not deliver to a crashed site"
        );
        n.restart_site(SiteId(2));
        assert!(matches!(
            n.step(),
            Some(Event::Deliver {
                to: SiteId(2),
                msg: 5,
                ..
            })
        ));
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let mk = || LatencyModel::uniform(SimTime::from_millis(100)).with_jitter(0.2, 7);
        let mut a = mk();
        let mut b = mk();
        for _ in 0..100 {
            let la = a.sample();
            let lb = b.sample();
            assert_eq!(la, lb, "same seed, same samples");
            assert!(la >= SimTime::from_millis(80) && la <= SimTime::from_millis(120));
        }
    }

    #[test]
    fn quiesces_when_queue_empty() {
        let mut n = net(10);
        assert!(n.step().is_none());
        assert_eq!(n.pending(), 0);
        assert_eq!(n.peek_time(), None);
    }

    #[test]
    fn severed_link_drops_new_sends_but_not_in_flight() {
        let mut n = net(10);
        n.send(SiteId(1), SiteId(2), 1); // in flight before the cut
        n.set_link_down(SiteId(1), SiteId(2));
        assert!(n.is_link_down(SiteId(2), SiteId(1)), "undirected");
        n.send(SiteId(1), SiteId(2), 2); // dropped
        n.send(SiteId(2), SiteId(1), 3); // dropped (bidirectional)
        n.send(SiteId(1), SiteId(3), 4); // unaffected link
        let mut delivered = Vec::new();
        while let Some(e) = n.step() {
            if let Event::Deliver { msg, .. } = e {
                delivered.push(msg);
            }
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![1, 4]);
        assert_eq!(n.stats().dropped, 2);
        // Healing restores traffic.
        n.set_link_up(SiteId(1), SiteId(2));
        n.send(SiteId(1), SiteId(2), 5);
        assert!(matches!(n.step(), Some(Event::Deliver { msg: 5, .. })));
    }

    #[test]
    fn partition_parks_and_heal_redelivers_in_fifo_order() {
        let model = LatencyModel::uniform(SimTime::from_millis(10)).with_jitter(0.5, 3);
        let mut n: SimNet<u32> = SimNet::new(model);
        n.partition(&[SiteId(1)], &[SiteId(2), SiteId(3)]);
        assert!(n.is_partitioned());
        for msg in 1..=5 {
            n.send(SiteId(1), SiteId(2), msg);
        }
        n.send(SiteId(2), SiteId(3), 99); // intra-group, unaffected
        assert_eq!(n.parked(), 5);
        assert!(matches!(n.step(), Some(Event::Deliver { msg: 99, .. })));
        assert!(n.step().is_none(), "cross-partition traffic parked");
        n.heal();
        assert!(!n.is_partitioned());
        assert_eq!(n.parked(), 0);
        let mut order = Vec::new();
        while let Some(Event::Deliver { msg, .. }) = n.step() {
            order.push(msg);
        }
        assert_eq!(order, vec![1, 2, 3, 4, 5], "per-link FIFO across heal");
        assert_eq!(n.stats().dropped, 0, "partitions delay, never lose");
        assert_eq!(n.stats().delivered, 6);
    }

    #[test]
    fn send_after_heal_cannot_overtake_redelivered_batch() {
        // Huge jitter makes an overtake all but certain without the
        // per-link floor: a post-heal send may sample a far smaller
        // latency than a redelivered message did.
        let model = LatencyModel::uniform(SimTime::from_millis(10)).with_jitter(0.9, 11);
        let mut n: SimNet<u32> = SimNet::new(model);
        n.partition(&[SiteId(1)], &[SiteId(2)]);
        for msg in 1..=8 {
            n.send(SiteId(1), SiteId(2), msg);
        }
        n.heal();
        for msg in 9..=16 {
            n.send(SiteId(1), SiteId(2), msg);
        }
        let mut order = Vec::new();
        while let Some(Event::Deliver { msg, .. }) = n.step() {
            order.push(msg);
        }
        assert_eq!(order, (1..=16).collect::<Vec<u32>>());
    }

    #[test]
    fn jitter_never_reorders_a_directed_link() {
        // Many back-to-back sends on one link under heavy jitter: without
        // the per-link FIFO floor, a later send sampling a small latency
        // would overtake an earlier one that sampled a large latency.
        let model = LatencyModel::uniform(SimTime::from_millis(10)).with_jitter(0.9, 7);
        let mut n: SimNet<u32> = SimNet::new(model);
        for msg in 0..64 {
            n.send(SiteId(1), SiteId(2), msg);
            // Messages on the reverse link and on other links are free to
            // interleave however jitter dictates; only 1->2 is checked.
            n.send(SiteId(2), SiteId(1), 1000 + msg);
        }
        let mut order = Vec::new();
        while let Some(Event::Deliver { msg, to, .. }) = n.step() {
            if to == SiteId(2) {
                order.push(msg);
            }
        }
        assert_eq!(order, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn repartition_heals_previous_cut_first() {
        let mut n = net(10);
        n.partition(&[SiteId(1)], &[SiteId(2)]);
        n.send(SiteId(1), SiteId(2), 1);
        // Moving to a new cut releases the old cut's parked traffic.
        n.partition(&[SiteId(1)], &[SiteId(3)]);
        assert_eq!(n.parked(), 0);
        assert!(matches!(n.step(), Some(Event::Deliver { msg: 1, .. })));
        n.send(SiteId(1), SiteId(3), 2);
        assert_eq!(n.parked(), 1);
        n.heal();
        assert!(matches!(n.step(), Some(Event::Deliver { msg: 2, .. })));
    }

    #[test]
    fn failed_site_loses_its_parked_traffic() {
        let mut n = net(10);
        n.partition(&[SiteId(1)], &[SiteId(2)]);
        n.send(SiteId(1), SiteId(2), 1);
        n.send(SiteId(2), SiteId(1), 2);
        n.fail_site(SiteId(2), []);
        assert_eq!(n.parked(), 0, "undeliverable parked traffic discarded");
        assert_eq!(n.stats().dropped, 2);
        n.heal();
        assert!(n.step().is_none());
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_micros(2500);
        assert_eq!((a + b).as_micros(), 7_500);
        assert_eq!((a - b).as_micros(), 2_500);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(1).as_millis_f64(), 1000.0);
        assert_eq!(a.to_string(), "5.000ms");
    }
}
