//! Garbage-collection safety and liveness: the RL/NC evidence horizon
//! against racing stale writes, and heartbeat-driven horizon progress
//! under one-directional traffic.

use decaf_core::{
    wiring, Envelope, Message, ObjectName, Site, Transaction, TxnCtx, TxnError, TxnOutcome,
};
use decaf_vt::SiteId;

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

struct SetInt(ObjectName, i64);
impl Transaction for SetInt {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.write_int(self.0, self.1)
    }
}

/// Deterministic replay of the race that once lost committed increments on
/// the threaded transport: the primary commits and garbage-collects its own
/// increment, then a stale read-modify-write arrives. The peer-horizon GC
/// bound must have kept the evidence, so the stale write is denied and
/// retried — not silently merged.
#[test]
fn stale_write_after_commit_and_gc_is_denied() {
    let mut a = Site::new(SiteId(1)); // primary (the least node)
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);

    // b increments based on the initial value; hold its messages in
    // flight.
    b.execute(Box::new(Incr(ob)));
    let in_flight: Vec<Envelope> = b.drain_outbox();

    // Meanwhile the primary itself increments and commits immediately —
    // and runs GC.
    a.execute(Box::new(Incr(oa)));
    let a_out = a.drain_outbox(); // write+commit to b, delivered later
    assert_eq!(a.read_int_committed(oa), Some(1));

    // The stale write now reaches the primary. It read value@ZERO, so its
    // RL interval contains a's committed increment: must be denied.
    for e in in_flight {
        if e.to == SiteId(1) {
            a.handle_message(e);
        }
    }
    let replies = a.drain_outbox();
    assert!(
        replies
            .iter()
            .any(|e| matches!(e.msg, Message::Abort { .. } | Message::Deny { .. })),
        "stale write must be denied, got {:?}",
        replies.iter().map(|e| e.msg.tag()).collect::<Vec<_>>()
    );
    // Let everything settle: b learns of a's increment, retries, and both
    // increments land.
    for e in a_out.into_iter().chain(replies) {
        match e.to {
            SiteId(1) => a.handle_message(e),
            SiteId(2) => b.handle_message(e),
            _ => unreachable!(),
        }
    }
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert_eq!(a.read_int_committed(oa), Some(2), "no increment lost");
    assert_eq!(b.read_int_committed(ob), Some(2));
}

/// One-directional traffic: a silent replica's heartbeats keep the
/// sender's GC horizon moving, so histories stay bounded.
#[test]
fn heartbeats_unblock_gc_under_one_directional_traffic() {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);

    // Only a ever initiates; b is a pure consumer.
    for i in 0..60 {
        a.execute(Box::new(SetInt(oa, i)));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }
    assert!(
        a.history_len(oa) <= 12,
        "heartbeats must keep the writer's GC horizon advancing: {}",
        a.history_len(oa)
    );
    assert!(b.history_len(ob) <= 12);
    assert_eq!(b.read_int_committed(ob), Some(59));
}

/// Reservations released by an aborted transaction stop constraining
/// others.
#[test]
fn aborted_transactions_release_their_reservations() {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);

    // A user-aborting transaction at the primary leaves no residue at all.
    struct ReadThenFail(ObjectName);
    impl Transaction for ReadThenFail {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            let _ = ctx.read_int(self.0)?;
            Err(TxnError::app("never mind"))
        }
    }
    let h = a.execute(Box::new(ReadThenFail(oa)));
    assert_eq!(a.txn_outcome(h), Some(TxnOutcome::Aborted));

    // Subsequent work proceeds normally from both sides.
    a.execute(Box::new(Incr(oa)));
    b.execute(Box::new(Incr(ob)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert_eq!(a.read_int_committed(oa), Some(2));
    assert_eq!(b.read_int_committed(ob), Some(2));
}

/// The decided-outcome table stays bounded over a long run (record
/// pruning below the peer horizon).
#[test]
fn long_run_stays_memory_bounded() {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);
    for i in 0..500 {
        let (site, obj) = if i % 2 == 0 {
            (&mut a, oa)
        } else {
            (&mut b, ob)
        };
        site.execute(Box::new(Incr(obj)));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }
    assert_eq!(a.read_int_committed(oa), Some(500));
    assert!(a.history_len(oa) <= 12, "history: {}", a.history_len(oa));
    assert!(
        a.reservation_count(oa) <= 64,
        "reservations: {}",
        a.reservation_count(oa)
    );
}
