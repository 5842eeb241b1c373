//! One peer link as a state machine: every timing and failure decision the
//! TCP mesh makes about a peer, with no sockets, threads or clock.
//!
//! The paper assumes reliable FIFO links whose persistent failure is
//! reported as an ISIS-style fail-stop (§3.4). A [`Link`] is that link
//! model for one peer, written the way the engine is: it is told what
//! happened ([`Link::input`], [`Link::dialed`], [`Link::wrote`],
//! [`Link::probed`], [`Link::drained`]) and asked what to do next ([`Link::next`]). Time is an
//! argument — the `Duration` since the link was made — and the link reads
//! no clock, so a test steps it through seconds of virtual time at once
//! and every run of the same inputs takes the same decisions.
//!
//! A link is in one of three states:
//!
//! * **connecting** — no connection; dial at a given time. The first dial
//!   is immediate. After `n` consecutive failed dials the next one waits
//!   `redial_step(n)` times a jitter factor in `0.75..=1.25` drawn
//!   from a generator seeded by the (site, peer) pair. A peer that was
//!   connected is declared failed on its `MAX_RECONNECT_ATTEMPTS + 1`-th
//!   failed dial in a row (≈ 2.5 s); one that never was, on the first
//!   failed dial after `CONNECT_DEADLINE`.
//! * **up** — connected: write `Hello`, then the envelopes stranded by
//!   the previous connection, first and in order; then linger
//!   `BATCH_DELAY` after an envelope for ride-alongs, take what is still
//!   queued when it is over, and write up to `BATCH_MAX` of them as one
//!   frame (`DataV2` for one, `Batch` for more), first probing for a
//!   hang-up if the link was quiet for `PROBE_AFTER_QUIET`; after `HEARTBEAT_INTERVAL` without a write,
//!   `Ping` — or, if nothing was heard from the peer for
//!   `HEARTBEAT_TIMEOUT`, drop the connection. A failed write, a hang-up
//!   or silence returns the link to connecting, keeping its envelopes.
//! * **failed** — the peer fail-stopped: the site is told once, envelopes
//!   are dropped (and counted by the caller) until the peer dials this
//!   site again and says `Hello`, which reopens the link.

use std::time::Duration;

use decaf_core::Envelope;
use decaf_vt::rng::SplitMix64;
use decaf_vt::SiteId;

use crate::wire::FrameKind;

/// Idle interval after which an up link writes a heartbeat `Ping`.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// Silence from a peer after which its link is dropped and re-dialled.
pub(crate) const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(3);

/// First re-dial step for a peer that **was connected**; doubles per
/// failed attempt up to [`RECONNECT_CAP`].
pub(crate) const RECONNECT_BASE: Duration = Duration::from_millis(50);

/// First re-dial step for a peer that has never been connected: such a
/// peer is most likely a site that is starting too and has not bound yet,
/// so the next dial follows within a round trip's order of magnitude, not
/// a failure-detection interval.
pub(crate) const FIRST_DIAL_STEP: Duration = Duration::from_millis(1);

/// Ceiling of both re-dial ladders.
pub(crate) const RECONNECT_CAP: Duration = Duration::from_secs(1);

/// Consecutive failed re-dials of a previously connected peer before it is
/// declared fail-stopped.
pub(crate) const MAX_RECONNECT_ATTEMPTS: u32 = 6;

/// Grace period, from the link's start, for a peer that has *never* been
/// reached: start-up races are not failures. Until it has passed such a
/// peer is re-dialled on the [`FIRST_DIAL_STEP`] ladder however many dials
/// fail, and [`MAX_RECONNECT_ATTEMPTS`] does not apply to it.
pub(crate) const CONNECT_DEADLINE: Duration = Duration::from_secs(20);

/// Most envelopes a link holds; one more is dropped (and counted by the
/// caller). The mesh bounds each peer's queue by the same number.
pub(crate) const OUTBOUND_QUEUE: usize = 4096;

/// Most envelopes coalesced into one `Batch` frame.
pub(crate) const BATCH_MAX: usize = 64;

/// How long a link lingers after an envelope for ride-alongs before it
/// writes them — a Nagle-style delay with a microsecond budget, bounding
/// the latency cost of coalescing.
pub(crate) const BATCH_DELAY: Duration = Duration::from_micros(200);

/// How long an up link must have written nothing before the next
/// envelopes are preceded by a hang-up probe. A peer cannot die, restart
/// and ask for anything in less, and a link that wrote more recently
/// learns of a dead peer from the write error itself — so a busy link
/// never pays for the probe. (The first write into a socket whose peer has
/// died still "succeeds", and what it carried — a restarted peer's
/// `RejoinAck`, say — would be lost with no one to resend it.)
pub(crate) const PROBE_AFTER_QUIET: Duration = Duration::from_millis(5);

/// The wait (before jitter) after the `attempts`-th consecutive failed
/// dial. A peer that was connected is on the failure-detection schedule:
/// [`RECONNECT_BASE`] doubling to [`RECONNECT_CAP`]. One that never was
/// climbs to that same cap from [`FIRST_DIAL_STEP`].
fn redial_step(was_connected: bool, attempts: u32) -> Duration {
    let base = if was_connected {
        RECONNECT_BASE
    } else {
        FIRST_DIAL_STEP
    };
    base.saturating_mul(1u32 << attempts.saturating_sub(1).min(16))
        .min(RECONNECT_CAP)
}

/// Something that happened to the link outside its own actions. These
/// travel on the peer's queue, in the order they happened.
// The queue carried envelopes by value before it carried anything else;
// boxing them to shrink the control inputs would cost an allocation a send.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Input {
    /// The site sent an envelope to the peer.
    Queued(Envelope),
    /// A frame arrived from the peer.
    Heard,
    /// The peer dialled this site and said `Hello`.
    Hello,
    /// The mesh is shutting down.
    Stop,
}

/// What a [`Link`] wants done next.
#[derive(Debug, PartialEq)]
pub enum Action<'a> {
    /// Dial the peer (replacing any connection held); report with
    /// [`Link::dialed`].
    Dial,
    /// Write the `Hello` frame; `again` if the link was connected before
    /// (a reconnect). Report with [`Link::wrote`].
    Hello {
        /// Whether this connection replaces an earlier one.
        again: bool,
    },
    /// Ask whether the peer hung up; report with [`Link::probed`].
    Probe,
    /// Write one frame: `Ping` with no envelopes, `DataV2` with one,
    /// `Batch` with several. Report with [`Link::wrote`].
    Write(FrameKind, &'a [Envelope]),
    /// The peer fell silent: a heartbeat miss. The link is connecting again.
    Silent,
    /// Tell the site the peer fail-stopped; `dropped` envelopes were still
    /// held and are lost. Asked once per failure.
    Fail {
        /// Envelopes dropped with the link.
        dropped: usize,
    },
    /// Wait for an input until the given time, then ask again.
    Wait(Duration),
    /// A batch is being gathered until the given time: take queued inputs
    /// without sleeping, and report each time none is queued with
    /// [`Link::drained`].
    Linger(Duration),
    /// The mesh stopped: end the link.
    Stop,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// No connection; `attempts` dials in a row failed, the next is at `at`.
    Connecting { attempts: u32, at: Duration },
    /// Connected at `since`; `greeted` once the `Hello` is written.
    Up { since: Duration, greeted: bool },
    /// The peer fail-stopped; `told` once the site has been told.
    Failed { told: bool },
}

/// The sans-I/O state machine of one peer link (see the [module
/// docs](crate::link)).
#[derive(Debug)]
pub struct Link {
    state: State,
    rng: SplitMix64,
    was_connected: bool,
    stopped: bool,
    /// Envelopes accepted and not yet written, in send order: the ones a
    /// broken connection stranded come first.
    pending: Vec<Envelope>,
    /// How many of `pending` the outstanding `Write` carries.
    in_flight: usize,
    /// When the batch being gathered stops waiting for ride-alongs.
    due: Duration,
    /// Whether it is written now, without taking more.
    cut: bool,
    /// The last write, or probe that found the peer there.
    last_ok: Duration,
    /// When a frame from the peer was last reported.
    heard: Duration,
}

impl Link {
    /// A link from `site` to `peer`, about to make its first dial at time
    /// zero.
    pub fn new(site: SiteId, peer: SiteId) -> Link {
        Link {
            state: State::Connecting {
                attempts: 0,
                at: Duration::ZERO,
            },
            rng: SplitMix64::new(0xDECAF ^ site.0 as u64 ^ (peer.0 as u64).wrapping_mul(0x9E37)),
            was_connected: false,
            stopped: false,
            pending: Vec::new(),
            in_flight: 0,
            due: Duration::ZERO,
            cut: false,
            last_ok: Duration::ZERO,
            heard: Duration::ZERO,
        }
    }

    /// Whether the link has declared its peer fail-stopped.
    fn is_failed(&self) -> bool {
        matches!(self.state, State::Failed { .. })
    }

    /// What to do at `now`.
    pub fn next(&mut self, now: Duration) -> Action<'_> {
        if self.stopped {
            return Action::Stop;
        }
        match self.state {
            State::Connecting { at, .. } if now < at => Action::Wait(at),
            State::Connecting { .. } => Action::Dial,
            State::Failed { told: true } => Action::Wait(Duration::MAX),
            State::Failed { told: false } => {
                self.state = State::Failed { told: true };
                let dropped = self.pending.len();
                self.pending.clear();
                Action::Fail { dropped }
            }
            State::Up { greeted: false, .. } => Action::Hello {
                again: self.was_connected,
            },
            State::Up { since, .. } if self.pending.is_empty() => {
                let ping_at = self.last_ok + HEARTBEAT_INTERVAL;
                if now < ping_at {
                    Action::Wait(ping_at)
                } else if now.saturating_sub(self.heard.max(since)) > HEARTBEAT_TIMEOUT {
                    self.lost(now);
                    Action::Silent
                } else {
                    Action::Write(FrameKind::Ping, &[])
                }
            }
            State::Up { .. } if self.pending.len() < BATCH_MAX && !self.cut => {
                Action::Linger(self.due)
            }
            State::Up { .. } if now.saturating_sub(self.last_ok) >= PROBE_AFTER_QUIET => {
                Action::Probe
            }
            State::Up { .. } => {
                self.in_flight = self.pending.len().min(BATCH_MAX);
                let kind = if self.in_flight == 1 {
                    FrameKind::DataV2
                } else {
                    FrameKind::Batch
                };
                Action::Write(kind, &self.pending[..self.in_flight])
            }
        }
    }

    /// Takes an input at `now`; returns `true` if it was an envelope the
    /// link dropped (its peer failed, or it holds `OUTBOUND_QUEUE`, 4 096).
    pub fn input(&mut self, input: Input, now: Duration) -> bool {
        match input {
            Input::Queued(env) => {
                if self.is_failed() || self.pending.len() >= OUTBOUND_QUEUE {
                    return true;
                }
                if self.pending.is_empty() {
                    (self.due, self.cut) = (now + BATCH_DELAY, false);
                }
                self.pending.push(env);
            }
            Input::Heard => self.heard = now,
            Input::Hello => {
                self.heard = now;
                if self.is_failed() {
                    self.state = State::Connecting {
                        attempts: 0,
                        at: now,
                    };
                }
            }
            Input::Stop => self.stopped = true,
        }
        false
    }

    /// The outcome of the [`Action::Dial`] asked for.
    pub fn dialed(&mut self, ok: bool, now: Duration) {
        let State::Connecting { attempts, .. } = self.state else {
            return;
        };
        let attempts = attempts + 1;
        self.state = if ok {
            State::Up {
                since: now,
                greeted: false,
            }
        } else if (self.was_connected && attempts > MAX_RECONNECT_ATTEMPTS)
            || (!self.was_connected && now > CONNECT_DEADLINE)
        {
            State::Failed { told: false }
        } else {
            let step = redial_step(self.was_connected, attempts);
            // ±25 % jitter so a rebooted mesh doesn't thunder.
            let at = now + step.mul_f64(self.rng.range(0.75..=1.25));
            State::Connecting { attempts, at }
        };
    }

    /// The outcome of the [`Action::Hello`] or [`Action::Write`] asked for.
    pub fn wrote(&mut self, ok: bool, now: Duration) {
        let State::Up { since, greeted } = self.state else {
            return;
        };
        if !ok {
            return self.lost(now);
        }
        if greeted {
            self.pending.drain(..self.in_flight);
            (self.due, self.cut) = (now + BATCH_DELAY, false);
        } else {
            // Stranded envelopes go out at once, without a linger.
            self.state = State::Up {
                since,
                greeted: true,
            };
            self.was_connected = true;
            self.cut = true;
        }
        self.in_flight = 0;
        self.last_ok = now;
    }

    /// Nothing is queued at `now` while the link lingers ([`Action::Linger`]):
    /// once the linger is over, the batch is cut. Returns whether the link
    /// goes on lingering.
    pub fn drained(&mut self, now: Duration) -> bool {
        self.cut = now >= self.due;
        !self.cut
    }

    /// The outcome of the [`Action::Probe`] asked for.
    pub fn probed(&mut self, hung_up: bool, now: Duration) {
        if hung_up {
            self.lost(now);
        } else {
            self.last_ok = now;
        }
    }

    /// The connection is gone; dial again at once, keeping every envelope.
    fn lost(&mut self, now: Duration) {
        self.in_flight = 0;
        self.state = State::Connecting {
            attempts: 0,
            at: now,
        };
    }
}

#[cfg(test)]
mod tests {
    //! Every decision in virtual time: a test's clock is the `Duration` it
    //! passes, so seconds of back-off and silence cost nothing to run.
    use super::*;
    use decaf_core::Message;
    use decaf_vt::VirtualTime;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// The `n`-th envelope from site 1 to site 2 (its clock tells them
    /// apart).
    fn env(n: u64) -> Envelope {
        Envelope {
            from: SiteId(1),
            to: SiteId(2),
            clock: VirtualTime::new(n, SiteId(1)),
            msg: Message::Heartbeat,
            span: None,
        }
    }

    fn envs(ns: std::ops::Range<u64>) -> Vec<Envelope> {
        ns.map(env).collect()
    }

    /// A successful dial and `Hello` at `now`.
    fn connect(link: &mut Link, now: Duration) {
        assert_eq!(link.next(now), Action::Dial);
        link.dialed(true, now);
        assert!(matches!(link.next(now), Action::Hello { .. }));
        link.wrote(true, now);
    }

    /// Fails every dial, following the link's waits, until it declares the
    /// peer failed; returns the waits, the time of the failure and the
    /// envelopes dropped with it.
    fn fail_every_dial(link: &mut Link, mut now: Duration) -> (Vec<Duration>, Duration, usize) {
        let mut waits = Vec::new();
        loop {
            assert_eq!(link.next(now), Action::Dial, "at {now:?}");
            link.dialed(false, now);
            match link.next(now) {
                Action::Wait(at) => {
                    waits.push(at - now);
                    now = at;
                }
                Action::Fail { dropped } => return (waits, now, dropped),
                other => panic!("{other:?} at {now:?}"),
            }
        }
    }

    /// An up link that was connected at zero and lost its connection at
    /// `now`.
    fn lost_at(now: Duration) -> Link {
        let mut link = Link::new(SiteId(1), SiteId(2));
        connect(&mut link, Duration::ZERO);
        link.probed(true, now);
        link
    }

    #[test]
    fn a_connected_peer_is_redialled_on_the_failure_detection_schedule() {
        let ms = Duration::from_millis;
        let steps = |was_connected| -> Vec<Duration> {
            (1..=12).map(|n| redial_step(was_connected, n)).collect()
        };
        assert_eq!(
            steps(true)[..7],
            [50, 100, 200, 400, 800, 1000, 1000].map(ms)
        );
        assert_eq!(
            steps(false),
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000, 1000].map(ms)
        );
        // The ladders are the constants: each starts at its own step and
        // tops out at the shared cap, which a connected peer reaches
        // within its attempt budget.
        assert_eq!(steps(true)[0], RECONNECT_BASE);
        assert_eq!(steps(false)[0], FIRST_DIAL_STEP);
        assert_eq!(steps(false)[11], RECONNECT_CAP);
        assert_eq!(redial_step(true, MAX_RECONNECT_ATTEMPTS), RECONNECT_CAP);
    }

    #[test]
    fn redials_follow_their_ladder_within_a_quarter_and_repeat_per_site_and_peer() {
        let first_ten = |site, peer| {
            let mut link = Link::new(SiteId(site), SiteId(peer));
            let mut now = Duration::ZERO;
            let mut waits = Vec::new();
            for _ in 0..10 {
                assert_eq!(link.next(now), Action::Dial);
                link.dialed(false, now);
                let Action::Wait(at) = link.next(now) else {
                    panic!("no wait after a failed dial");
                };
                waits.push(at - now);
                now = at;
            }
            waits
        };
        let within = |waits: &[Duration], was_connected| {
            for (n, w) in (1..).zip(waits) {
                let step = redial_step(was_connected, n);
                assert!(*w >= step * 3 / 4 && *w <= step * 5 / 4, "{n}: {w:?}");
            }
        };
        let never = first_ten(1, 2);
        within(&never, false);
        assert_eq!(never, first_ten(1, 2), "same (site, peer), same waits");
        assert_ne!(never, first_ten(2, 1));
        assert_ne!(never, first_ten(1, 3));
        // The jitter is drawn, not fixed: not every wait is its plain step.
        assert!((1..).zip(&never).any(|(n, w)| *w != redial_step(false, n)));

        let (connected, _, _) = fail_every_dial(&mut lost_at(ms(10)), ms(10));
        within(&connected, true);
    }

    #[test]
    fn a_connected_peer_fails_on_its_seventh_failed_dial_in_a_row() {
        let mut link = lost_at(ms(10));
        // A connection restarts the count: five failed dials do not add
        // to the next loss's.
        let mut now = ms(10);
        for _ in 0..5 {
            assert_eq!(link.next(now), Action::Dial);
            link.dialed(false, now);
            let Action::Wait(at) = link.next(now) else {
                panic!("no wait after a failed dial");
            };
            now = at;
        }
        connect(&mut link, now);
        link.probed(true, now);
        let (waits, failed_at, dropped) = fail_every_dial(&mut link, now);
        assert_eq!((waits.len() as u32, dropped), (MAX_RECONNECT_ATTEMPTS, 0));
        // 50 + 100 + 200 + 400 + 800 + 1000 ms, each ±25 %.
        let spent = failed_at - now;
        assert!(spent >= ms(2550) * 3 / 4 && spent <= ms(2550) * 5 / 4);
        // Told once; then the link waits for the peer to come back.
        assert_eq!(link.next(failed_at), Action::Wait(Duration::MAX));
        let later = failed_at + ms(10_000);
        assert_eq!(link.next(later), Action::Wait(Duration::MAX));
    }

    #[test]
    fn a_peer_never_reached_fails_only_after_the_connect_deadline() {
        let mut link = Link::new(SiteId(1), SiteId(2));
        let (waits, failed_at, _) = fail_every_dial(&mut link, Duration::ZERO);
        let last_dial = failed_at;
        assert!(last_dial > CONNECT_DEADLINE, "failed at {last_dial:?}");
        let before = failed_at - *waits.last().expect("some waits");
        assert!(
            before <= CONNECT_DEADLINE,
            "a dial after the deadline was skipped"
        );
        // Far more dials than a connected peer gets, none of them waiting
        // more than the cap allows.
        assert!(waits.len() > 2 * MAX_RECONNECT_ATTEMPTS as usize);
        assert!(waits.iter().all(|w| *w <= RECONNECT_CAP * 5 / 4));
    }

    #[test]
    fn a_silent_peer_is_dropped_after_the_heartbeat_timeout() {
        let silent_after = |up_at: Duration, heard: Option<Duration>| {
            let mut link = Link::new(SiteId(1), SiteId(2));
            connect(&mut link, up_at);
            if let Some(t) = heard {
                link.input(Input::Heard, t);
            }
            let (mut now, mut pings) = (up_at, 0);
            loop {
                let Action::Wait(at) = link.next(now) else {
                    panic!("an idle link waits");
                };
                now = at;
                match link.next(at) {
                    Action::Write(FrameKind::Ping, []) => {
                        pings += 1;
                        link.wrote(true, at);
                    }
                    Action::Silent => {
                        // The link re-dials at once (the mesh counts a
                        // heartbeat miss).
                        assert_eq!(link.next(at), Action::Dial);
                        return (at - up_at, pings);
                    }
                    other => panic!("{other:?} at {at:?}"),
                }
            }
        };
        // Pings at 0.2, 0.4, … 3.0 s; at 3.2 s the peer has been silent
        // for more than 3 s since the connection came up.
        assert_eq!(silent_after(Duration::ZERO, None), (ms(3200), 15));
        // Silence counts from the connection, not from the link's start.
        assert_eq!(silent_after(ms(10_000), None), (ms(3200), 15));
        // Hearing from the peer at 2 s moves the deadline by 2 s.
        let heard_at_2s = silent_after(Duration::ZERO, Some(ms(2000)));
        assert_eq!(heard_at_2s, (ms(5200), 25));
    }

    #[test]
    fn pings_follow_every_heartbeat_interval_without_a_write() {
        let mut link = Link::new(SiteId(1), SiteId(2));
        connect(&mut link, ms(1));
        assert_eq!(link.next(ms(1)), Action::Wait(ms(201)));
        assert_eq!(link.next(ms(201)), Action::Write(FrameKind::Ping, &[]));
        link.wrote(true, ms(201));
        assert_eq!(link.next(ms(300)), Action::Wait(ms(401)));
        // A data write puts the next ping off by a whole interval.
        link.input(Input::Queued(env(1)), ms(300));
        let due = ms(300) + BATCH_DELAY;
        assert!(!link.drained(due));
        assert_eq!(link.next(due), Action::Probe);
        link.probed(false, due);
        assert_eq!(link.next(due), Action::Write(FrameKind::DataV2, &[env(1)]));
        link.wrote(true, due);
        assert_eq!(link.next(due), Action::Wait(due + HEARTBEAT_INTERVAL));
    }

    #[test]
    fn the_hang_up_probe_comes_only_after_a_quiet_spell() {
        let mut link = Link::new(SiteId(1), SiteId(2));
        connect(&mut link, Duration::ZERO);
        // Written to 1 ms after the Hello: not quiet, no probe.
        link.input(Input::Queued(env(1)), ms(1));
        assert_eq!(link.next(ms(1)), Action::Linger(ms(1) + BATCH_DELAY));
        let t = ms(1) + BATCH_DELAY;
        assert!(!link.drained(t));
        assert_eq!(link.next(t), Action::Write(FrameKind::DataV2, &[env(1)]));
        link.wrote(true, t);
        // Quiet for PROBE_AFTER_QUIET: probe first; a hang-up re-dials at
        // once, and the envelope goes on the new connection.
        let t = t + PROBE_AFTER_QUIET;
        link.input(Input::Queued(env(2)), t);
        let t = t + BATCH_DELAY;
        assert!(!link.drained(t));
        assert_eq!(link.next(t), Action::Probe);
        link.probed(true, t);
        assert_eq!(link.next(t), Action::Dial);
        link.dialed(true, t);
        assert_eq!(link.next(t), Action::Hello { again: true });
        link.wrote(true, t);
        assert_eq!(link.next(t), Action::Write(FrameKind::DataV2, &[env(2)]));
    }

    #[test]
    fn a_batch_is_cut_at_64_and_a_lone_envelope_goes_as_data() {
        let mut link = Link::new(SiteId(1), SiteId(2));
        connect(&mut link, Duration::ZERO);
        link.input(Input::Queued(env(0)), ms(1));
        // Lingering: nothing is written before the delay is up, even when
        // nothing more is queued.
        assert_eq!(link.next(ms(1)), Action::Linger(ms(1) + BATCH_DELAY));
        assert!(link.drained(ms(1)));
        assert_eq!(link.next(ms(1)), Action::Linger(ms(1) + BATCH_DELAY));
        let t = ms(1) + BATCH_DELAY;
        assert!(!link.drained(t));
        assert_eq!(link.next(t), Action::Write(FrameKind::DataV2, &[env(0)]));
        link.wrote(true, t);
        // 64 at once are a full batch: no linger.
        for n in 1..65 {
            link.input(Input::Queued(env(n)), t);
        }
        let batch = Action::Write(FrameKind::Batch, &envs(1..65)[..]);
        assert_eq!(link.next(t), batch);
        link.wrote(true, t);
        // 100 at once: 64 now, the other 36 after a fresh linger.
        for n in 65..165 {
            link.input(Input::Queued(env(n)), t);
        }
        let batch = Action::Write(FrameKind::Batch, &envs(65..129)[..]);
        assert_eq!(link.next(t), batch);
        link.wrote(true, t);
        assert_eq!(link.next(t), Action::Linger(t + BATCH_DELAY));
        // Past the linger, what is still queued rides along until the
        // queue runs dry.
        let t = t + BATCH_DELAY * 2;
        link.input(Input::Queued(env(165)), t);
        assert_eq!(link.next(t), Action::Linger(t - BATCH_DELAY));
        assert!(!link.drained(t));
        let batch = Action::Write(FrameKind::Batch, &envs(129..166)[..]);
        assert_eq!(link.next(t), batch);
        link.wrote(true, t);
        assert!(matches!(link.next(t), Action::Wait(_)));
    }

    #[test]
    fn stranded_envelopes_go_first_and_in_order_on_the_next_connection() {
        let mut link = Link::new(SiteId(1), SiteId(2));
        connect(&mut link, Duration::ZERO);
        for n in 0..3 {
            link.input(Input::Queued(env(n)), ms(1));
        }
        let t = ms(1) + BATCH_DELAY;
        assert!(!link.drained(t));
        assert_eq!(
            link.next(t),
            Action::Write(FrameKind::Batch, &envs(0..3)[..])
        );
        link.wrote(false, t);
        // More arrive while the link re-dials; the first dial fails.
        assert_eq!(link.next(t), Action::Dial);
        link.input(Input::Queued(env(3)), t);
        link.dialed(false, t);
        link.input(Input::Queued(env(4)), t);
        let Action::Wait(at) = link.next(t) else {
            panic!("no wait after a failed dial");
        };
        assert_eq!(link.next(at), Action::Dial);
        link.dialed(true, at);
        assert_eq!(link.next(at), Action::Hello { again: true });
        link.wrote(true, at);
        // Without a linger, the three stranded ones first, then the rest.
        assert_eq!(
            link.next(at),
            Action::Write(FrameKind::Batch, &envs(0..5)[..])
        );
    }

    #[test]
    fn a_failed_link_drops_envelopes_until_the_peer_says_hello() {
        let mut link = lost_at(ms(10));
        link.input(Input::Queued(env(0)), ms(10));
        // The envelope held when the peer is declared failed goes with it.
        let (_, failed_at, dropped) = fail_every_dial(&mut link, ms(10));
        assert_eq!(dropped, 1);
        // Later sends are dropped, and the link stays down.
        assert!(link.input(Input::Queued(env(1)), failed_at));
        assert!(!link.input(Input::Heard, failed_at));
        assert_eq!(link.next(failed_at), Action::Wait(Duration::MAX));
        // The restarted peer dials in: its Hello reopens the link at once,
        // and what the site sends after it goes through.
        let t = failed_at + ms(5000);
        link.input(Input::Hello, t);
        assert!(!link.input(Input::Queued(env(2)), t));
        assert_eq!(link.next(t), Action::Dial);
        link.dialed(true, t);
        assert_eq!(link.next(t), Action::Hello { again: true });
        link.wrote(true, t);
        assert_eq!(link.next(t), Action::Write(FrameKind::DataV2, &[env(2)]));
        link.wrote(true, t);
        // A second failure is told again.
        link.probed(true, t);
        let (waits, _, dropped) = fail_every_dial(&mut link, t);
        assert_eq!((waits.len() as u32, dropped), (MAX_RECONNECT_ATTEMPTS, 0));
    }

    #[test]
    fn stop_ends_the_link_in_every_state() {
        let mut connecting = Link::new(SiteId(1), SiteId(2));
        let mut up = Link::new(SiteId(1), SiteId(2));
        connect(&mut up, Duration::ZERO);
        up.input(Input::Queued(env(0)), ms(1));
        let mut failed = lost_at(ms(1));
        let _ = fail_every_dial(&mut failed, ms(1));
        for link in [&mut connecting, &mut up, &mut failed] {
            link.input(Input::Stop, ms(9000));
            assert_eq!(link.next(ms(9000)), Action::Stop);
        }
    }
}
