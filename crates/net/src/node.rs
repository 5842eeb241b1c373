//! The node loop: the one place that knows how a [`Site`] is driven.
//!
//! The engine is sans-I/O; something has to carry its messages, persist its
//! commits and collect its events, and the order in which that happens is a
//! safety rule, not a style choice. A [`Node`] is one state record — the
//! site and its commit log — with three handlers:
//!
//! * **upon a transport event** — [`Node::deliver`]: a message or a §3.4
//!   fail-stop notice goes into the engine;
//! * **upon a drain point** — [`Node::flush`]: append *every* queued commit
//!   record to the log and sync it once, then hand the outbox to the
//!   substrate, then return the engine events. Persist → send → events,
//!   every time: a durable primary commits inside `Site::execute`, so its
//!   COMMITs are in the outbox before anything has been received, and a
//!   loop that sends first acknowledges commits it has not written. A
//!   failed append or sync returns before anything is sent (fail-stop is
//!   the defined response);
//! * **upon a turn of a real endpoint** — [`Node::pump`]: flush, wait for
//!   traffic, deliver what arrived, flush.
//!
//! The daemon, the simulator world, the model checker and the TCP example
//! are shells over these three, so a schedule the checker explores is a
//! schedule of the loop that ships.

use std::time::Duration;

use decaf_core::{
    append_frame, CommitLog, CommitRecord, EngineEvent, Envelope, Site, TraceKind, WalError,
    WalRecord,
};
use decaf_trace::Histogram;

use crate::{TransportEndpoint, TransportEvent};

/// Where a durable node's commit records go.
pub trait Log {
    /// Appends one commit record and returns the bytes the log grew by.
    /// The record need not survive a crash until [`sync`](Log::sync)
    /// returns.
    fn append_commit(&mut self, rec: CommitRecord) -> Result<u64, WalError>;

    /// Returns once every record appended so far would survive a crash,
    /// with the time the sync took.
    fn sync(&mut self) -> Result<Duration, WalError>;
}

/// The on-disk log: one fsync per [`sync`](Log::sync).
impl Log for CommitLog {
    fn append_commit(&mut self, rec: CommitRecord) -> Result<u64, WalError> {
        self.write_commit(&rec)
    }

    fn sync(&mut self) -> Result<Duration, WalError> {
        CommitLog::sync(self)
    }
}

/// An in-memory image of `wal.log` (the simulator's disk): same frames,
/// nothing to sync.
impl Log for Vec<u8> {
    fn append_commit(&mut self, rec: CommitRecord) -> Result<u64, WalError> {
        let before = self.len();
        append_frame(self, &WalRecord::Commit(rec));
        Ok((self.len() - before) as u64)
    }

    fn sync(&mut self) -> Result<Duration, WalError> {
        Ok(Duration::ZERO)
    }
}

/// What one [`Node::pump`] turn did.
#[derive(Debug, Default)]
pub struct Pumped {
    /// Transport events delivered to the engine this turn.
    pub received: usize,
    /// Engine events the turn produced, in order.
    pub events: Vec<EngineEvent>,
}

/// A [`Site`] and its commit log, driven in the one safe order.
///
/// A node without a log keeps nothing: records a durable site captures are
/// dropped at the next flush (the checker wires its sites before it gives
/// them their baseline checkpoint and log).
#[derive(Debug)]
pub struct Node<L = CommitLog> {
    /// The engine: submit gestures, attach views and read state here; its
    /// queues are drained by [`Node::flush`] only.
    pub site: Site,
    log: Option<L>,
    wal_appends: u64,
    wal_sync_us: Histogram,
}

impl<L: Log> Node<L> {
    /// A node that persists nothing (a non-durable site).
    pub fn new(site: Site) -> Self {
        Node {
            site,
            log: None,
            wal_appends: 0,
            wal_sync_us: Histogram::new(),
        }
    }

    /// A node that appends every commit `site` captures to `log` before the
    /// commit's messages leave.
    pub fn durable(site: Site, log: L) -> Self {
        Node {
            log: Some(log),
            ..Node::new(site)
        }
    }

    /// The commit log, if the node is durable.
    pub fn log(&self) -> Option<&L> {
        self.log.as_ref()
    }

    /// Takes the node apart (a restart keeps the log and replaces the site).
    pub fn into_parts(self) -> (Site, Option<L>) {
        (self.site, self.log)
    }

    /// Commit records appended so far, and the latency in µs of each sync
    /// (one per flush that appended).
    pub fn wal_stats(&self) -> (u64, &Histogram) {
        (self.wal_appends, &self.wal_sync_us)
    }

    /// Hands one transport event to the engine.
    pub fn deliver(&mut self, event: TransportEvent<Envelope>) {
        match event {
            TransportEvent::Message { msg, .. } => self.site.handle_message(msg),
            TransportEvent::SiteFailed { failed } => self.site.notify_site_failed(failed),
        }
    }

    /// Persists every queued commit record with one sync, then passes the
    /// outbox to `send`, then returns the engine events since the last
    /// flush. Each append is traced as one `WalAppend` (`vt` = commit VT,
    /// `n` = bytes).
    ///
    /// # Errors
    ///
    /// The first failed append, or a failed sync, before anything is sent;
    /// the node must stop (its outbox still holds what the lost commits
    /// would have told the peers).
    pub fn flush(&mut self, mut send: impl FnMut(Envelope)) -> Result<Vec<EngineEvent>, WalError> {
        let records = self.site.drain_wal();
        if let Some(log) = self.log.as_mut().filter(|_| !records.is_empty()) {
            for rec in records {
                let vt = rec.vt;
                let bytes = log.append_commit(rec)?;
                self.wal_appends += 1;
                self.site.trace_sink().emit(
                    TraceKind::WalAppend,
                    Some((vt.lamport, vt.site.0)),
                    None,
                    Some(bytes),
                );
            }
            let sync = log.sync()?;
            self.wal_sync_us.record(sync.as_micros() as u64);
        }
        for env in self.site.drain_outbox() {
            send(env);
        }
        Ok(self.site.drain_events())
    }

    /// One turn against a real endpoint: flush, block up to `wait` for the
    /// first event (which doubles as loop pacing), take whatever else has
    /// arrived, deliver it all, flush again.
    ///
    /// # Errors
    ///
    /// As [`flush`](Node::flush).
    pub fn pump<E>(&mut self, endpoint: &E, wait: Duration) -> Result<Pumped, WalError>
    where
        E: TransportEndpoint<Msg = Envelope>,
    {
        let mut events = self.flush(|env| endpoint.send(env.to, env))?;
        let mut arrived = Vec::new();
        if let Some(first) = endpoint.recv_timeout(wait) {
            arrived.push(first);
            while let Some(more) = endpoint.try_recv() {
                arrived.push(more);
            }
        }
        let received = arrived.len();
        for event in arrived {
            self.deliver(event);
        }
        events.extend(self.flush(|env| endpoint.send(env.to, env))?);
        Ok(Pumped { received, events })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;

    use decaf_core::{
        wiring, Message, ObjectName, SiteConfig, Transaction, TxnCtx, TxnError, TxnOutcome,
    };
    use decaf_vt::{SiteId, VirtualTime};

    use super::*;

    struct Incr(ObjectName);
    impl Transaction for Incr {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            let v = ctx.read_int(self.0)?;
            ctx.write_int(self.0, v + 1)
        }
    }

    /// What the node did, in the order it did it.
    #[derive(Debug, PartialEq)]
    enum Did {
        Append(VirtualTime),
        Send(Envelope),
    }

    type Journal = std::rc::Rc<RefCell<Vec<Did>>>;

    /// A log that journals each append, or refuses every one.
    struct RecLog {
        journal: Journal,
        fail: bool,
    }

    impl Log for RecLog {
        fn append_commit(&mut self, rec: CommitRecord) -> Result<u64, WalError> {
            if self.fail {
                return Err(WalError::Io(std::io::Error::other("disk gone")));
            }
            self.journal.borrow_mut().push(Did::Append(rec.vt));
            Ok(21)
        }

        fn sync(&mut self) -> Result<Duration, WalError> {
            Ok(Duration::ZERO)
        }
    }

    /// An endpoint that journals each send and replays a fixed inbox.
    struct RecEndpoint {
        journal: Journal,
        inbox: RefCell<VecDeque<TransportEvent<Envelope>>>,
    }

    impl TransportEndpoint for RecEndpoint {
        type Msg = Envelope;
        fn site(&self) -> SiteId {
            SiteId(1)
        }
        fn send(&self, _to: SiteId, msg: Envelope) {
            self.journal.borrow_mut().push(Did::Send(msg));
        }
        fn try_recv(&self) -> Option<TransportEvent<Envelope>> {
            self.inbox.borrow_mut().pop_front()
        }
        fn recv_timeout(&self, _timeout: Duration) -> Option<TransportEvent<Envelope>> {
            self.try_recv()
        }
    }

    /// Site 1 — durable, primary of a counter replicated at sites 2 and 3 —
    /// as a node over a recording log and endpoint.
    fn primary(fail: bool) -> (Node<RecLog>, RecEndpoint, ObjectName) {
        let cfg = SiteConfig {
            durable: true,
            ..SiteConfig::default()
        };
        let mut sites: Vec<Site> = (1..=3).map(|i| Site::with_config(SiteId(i), cfg)).collect();
        let objs: Vec<ObjectName> = sites.iter_mut().map(|s| s.create_int(0)).collect();
        let mut parts: Vec<(&mut Site, ObjectName)> =
            sites.iter_mut().zip(objs.iter().copied()).collect();
        wiring::wire_replicas(&mut parts);
        let mut site = sites.swap_remove(0);
        let _ = site.drain_wal(); // wiring commits predate the log
        let journal = Journal::default();
        let log = RecLog {
            journal: journal.clone(),
            fail,
        };
        let endpoint = RecEndpoint {
            journal,
            inbox: RefCell::default(),
        };
        (Node::durable(site, log), endpoint, objs[0])
    }

    #[test]
    fn a_commit_is_appended_before_its_broadcast_is_sent() {
        let (mut node, endpoint, obj) = primary(false);
        let h = node.site.execute(Box::new(Incr(obj)));
        // The primary needs nobody's vote: committed inside `execute`, with
        // the COMMITs already in the outbox.
        assert_eq!(node.site.txn_outcome(h), Some(TxnOutcome::Committed));
        node.pump(&endpoint, Duration::ZERO).expect("append works");

        let journal = endpoint.journal.borrow();
        let is_commit = |d: &Did, vt: VirtualTime| matches!(d, Did::Send(env) if matches!(env.msg, Message::Commit { txn } if txn == vt));
        let (at, vt) = journal
            .iter()
            .enumerate()
            .find_map(|(i, d)| match d {
                Did::Append(vt) => Some((i, *vt)),
                Did::Send(_) => None,
            })
            .expect("the commit was appended");
        let first_commit = journal
            .iter()
            .position(|d| is_commit(d, vt))
            .expect("the commit was broadcast");
        assert!(at < first_commit, "append after send: {journal:?}");
        assert_eq!(journal.iter().filter(|d| is_commit(d, vt)).count(), 2);
        assert_eq!(node.wal_stats().0, 1);
    }

    #[test]
    fn a_failed_append_stops_the_node_before_anything_is_sent() {
        let (mut node, endpoint, obj) = primary(true);
        node.site.execute(Box::new(Incr(obj)));
        let err = node.pump(&endpoint, Duration::ZERO).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        assert!(
            endpoint.journal.borrow().is_empty(),
            "nothing may leave after a failed append: {:?}",
            endpoint.journal.borrow()
        );
        assert_eq!(node.wal_stats().0, 0);
    }

    /// A log that journals its appends and syncs, in order, and refuses
    /// every sync if told to.
    struct SyncLog {
        journal: std::rc::Rc<RefCell<Vec<&'static str>>>,
        sync_fails: bool,
    }

    impl Log for SyncLog {
        fn append_commit(&mut self, _rec: CommitRecord) -> Result<u64, WalError> {
            self.journal.borrow_mut().push("append");
            Ok(21)
        }

        fn sync(&mut self) -> Result<Duration, WalError> {
            if self.sync_fails {
                return Err(WalError::Io(std::io::Error::other("disk gone")));
            }
            self.journal.borrow_mut().push("sync");
            Ok(Duration::ZERO)
        }
    }

    /// The primary fixture over a [`SyncLog`], with three commits queued.
    fn three_commits(sync_fails: bool) -> (Node<SyncLog>, std::rc::Rc<RefCell<Vec<&'static str>>>) {
        let (node, _, obj) = primary(false);
        let journal = std::rc::Rc::new(RefCell::new(Vec::new()));
        let log = SyncLog {
            journal: journal.clone(),
            sync_fails,
        };
        let mut node = Node::durable(node.into_parts().0, log);
        for _ in 0..3 {
            node.site.execute(Box::new(Incr(obj)));
        }
        (node, journal)
    }

    #[test]
    fn a_flush_syncs_once_after_all_its_appends_and_before_any_send() {
        let (mut node, journal) = three_commits(false);
        node.flush(|_| journal.borrow_mut().push("send"))
            .expect("append works");
        {
            let journal = journal.borrow();
            assert_eq!(journal[..4], ["append", "append", "append", "sync"]);
            assert!(journal.len() > 4 && journal[4..].iter().all(|d| *d == "send"));
        }
        assert_eq!(node.wal_stats().0, 3);
        assert_eq!(node.wal_stats().1.count(), 1, "one sync sample per flush");

        // A flush with nothing to append syncs nothing.
        node.flush(drop).expect("nothing to append");
        assert_eq!(node.wal_stats().1.count(), 1);
    }

    #[test]
    fn a_failed_sync_stops_the_node_before_anything_is_sent() {
        let (mut node, journal) = three_commits(true);
        let err = node
            .flush(|_| journal.borrow_mut().push("send"))
            .unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        assert_eq!(*journal.borrow(), ["append", "append", "append"]);
        assert_eq!(node.wal_stats().1.count(), 0);
    }

    #[test]
    fn four_durable_commits_trace_four_appends_of_the_logs_growth() {
        use decaf_trace::{Replay, Stitcher, TraceSink};

        let cfg = SiteConfig {
            durable: true,
            ..SiteConfig::default()
        };
        let mut site = Site::with_config(SiteId(1), cfg);
        let obj = site.create_int(0);
        let sink = TraceSink::enabled(1, 1024);
        site.set_trace_sink(sink.clone());
        let mut node: Node<Vec<u8>> = Node::durable(site, Vec::new());
        for _ in 0..4 {
            node.site.execute(Box::new(Incr(obj)));
            node.flush(|env| panic!("a lone site sends nothing: {env:?}"))
                .expect("in-memory append");
        }
        let grown = node.log().expect("durable").len() as u64;

        let (mut replay, mut stitcher) = (Replay::new(), Stitcher::new());
        for ev in &sink.snapshot() {
            replay.observe(ev);
            stitcher.observe(ev);
        }
        let digest = &replay.sites()[&1];
        assert_eq!((digest.wal_appends, digest.wal_bytes), (4, grown));
        let delays = stitcher.finish().wal_delay_ns;
        assert_eq!(delays.count(), 4, "one WAL delay per commit");
    }
}
