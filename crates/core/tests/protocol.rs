//! Protocol-level integration tests for the DECAF concurrency-control
//! algorithm (paper §3): update propagation, guess checking, commit/abort,
//! retry, delegation, and garbage collection.

use decaf_core::{
    wiring, Envelope, Message, NodeRef, ObjectName, Site, SiteConfig, Transaction, TxnCtx,
    TxnError, TxnOutcome,
};
use decaf_vt::SiteId;

struct SetInt(ObjectName, i64);
impl Transaction for SetInt {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.write_int(self.0, self.1) // blind write
    }
}

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

struct FailingTxn(ObjectName);
impl Transaction for FailingTxn {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.write_int(self.0, 999)?;
        Err(TxnError::app("deliberate failure"))
    }
}

/// Two sites with one wired replicated integer each.
fn pair() -> (Site, Site, ObjectName, ObjectName) {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);
    (a, b, oa, ob)
}

fn pump(a: &mut Site, b: &mut Site) {
    wiring::run_to_quiescence(&mut [a, b]);
}

#[test]
fn single_site_txn_commits_immediately() {
    let mut a = Site::new(SiteId(1));
    let o = a.create_int(10);
    let h = a.execute(Box::new(Incr(o)));
    assert_eq!(a.txn_outcome(h), Some(TxnOutcome::Committed));
    assert_eq!(a.read_int_committed(o), Some(11));
    assert!(a.is_quiescent());
    assert_eq!(a.stats().msgs_sent, 0, "no replicas, no messages");
}

#[test]
fn two_site_update_reaches_replica_and_commits() {
    let (mut a, mut b, oa, ob) = pair();
    let h = a.execute(Box::new(SetInt(oa, 42)));
    // Before delivery: replica unchanged, originator optimistic.
    assert_eq!(a.read_int_current(oa), Some(42));
    assert_eq!(b.read_int_current(ob), Some(0));
    pump(&mut a, &mut b);
    assert_eq!(a.txn_outcome(h), Some(TxnOutcome::Committed));
    assert_eq!(a.read_int_committed(oa), Some(42));
    assert_eq!(b.read_int_committed(ob), Some(42));
}

#[test]
fn update_from_non_primary_site_commits_too() {
    // The primary (the least node) is site 1; originate at site 2.
    let (mut a, mut b, oa, ob) = pair();
    assert_eq!(a.primary_of(oa).unwrap().site, SiteId(1));
    let h = b.execute(Box::new(SetInt(ob, 7)));
    pump(&mut a, &mut b);
    assert_eq!(b.txn_outcome(h), Some(TxnOutcome::Committed));
    assert_eq!(a.read_int_committed(oa), Some(7));
    assert_eq!(b.read_int_committed(ob), Some(7));
}

#[test]
fn sequential_increments_from_both_sites_serialize() {
    let (mut a, mut b, oa, ob) = pair();
    for _ in 0..5 {
        a.execute(Box::new(Incr(oa)));
        pump(&mut a, &mut b);
        b.execute(Box::new(Incr(ob)));
        pump(&mut a, &mut b);
    }
    assert_eq!(a.read_int_committed(oa), Some(10));
    assert_eq!(b.read_int_committed(ob), Some(10));
    assert_eq!(a.stats().txns_aborted_conflict, 0);
    assert_eq!(b.stats().txns_aborted_conflict, 0);
}

#[test]
fn concurrent_read_write_conflict_aborts_and_retries() {
    let (mut a, mut b, oa, ob) = pair();
    // Both increment concurrently (messages not yet delivered).
    a.execute(Box::new(Incr(oa)));
    b.execute(Box::new(Incr(ob)));
    pump(&mut a, &mut b);
    // Exactly one retry somewhere; final committed value is 2 at both.
    assert_eq!(a.read_int_committed(oa), Some(2));
    assert_eq!(b.read_int_committed(ob), Some(2));
    let retries = a.stats().retries + b.stats().retries;
    assert!(retries >= 1, "one of the increments must have retried");
}

#[test]
fn concurrent_blind_writes_do_not_conflict() {
    let (mut a, mut b, oa, ob) = pair();
    a.execute(Box::new(SetInt(oa, 5)));
    b.execute(Box::new(SetInt(ob, 9)));
    pump(&mut a, &mut b);
    // No rollbacks for blind writes ("concurrency control tests never
    // fail", §5.1.2)...
    assert_eq!(a.stats().txns_aborted_conflict, 0);
    assert_eq!(b.stats().txns_aborted_conflict, 0);
    // ... and both converge on the higher-VT write.
    assert_eq!(a.read_int_committed(oa), b.read_int_committed(ob));
}

#[test]
fn user_abort_rolls_back_without_retry() {
    let (mut a, mut b, oa, _ob) = pair();
    let h = a.execute(Box::new(FailingTxn(oa)));
    pump(&mut a, &mut b);
    assert_eq!(a.txn_outcome(h), Some(TxnOutcome::Aborted));
    assert_eq!(a.read_int_committed(oa), Some(0));
    assert_eq!(a.read_int_current(oa), Some(0), "999 was purged");
    assert_eq!(a.stats().retries, 0);
    assert_eq!(a.stats().txns_aborted_user, 1);
}

#[test]
fn atomicity_multi_object_transfer() {
    struct Xfer(ObjectName, ObjectName, i64);
    impl Transaction for Xfer {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            let a = ctx.read_int(self.0)?;
            if a < self.2 {
                return Err(TxnError::app("insufficient funds"));
            }
            let b = ctx.read_int(self.1)?;
            ctx.write_int(self.0, a - self.2)?;
            ctx.write_int(self.1, b + self.2)
        }
    }
    let mut s1 = Site::new(SiteId(1));
    let mut s2 = Site::new(SiteId(2));
    let acct_a1 = s1.create_int(100);
    let acct_a2 = s2.create_int(100);
    let acct_b1 = s1.create_int(0);
    let acct_b2 = s2.create_int(0);
    wiring::wire_pair(&mut s1, acct_a1, &mut s2, acct_a2);
    wiring::wire_pair(&mut s1, acct_b1, &mut s2, acct_b2);

    s2.execute(Box::new(Xfer(acct_a2, acct_b2, 30)));
    pump(&mut s1, &mut s2);
    assert_eq!(s1.read_int_committed(acct_a1), Some(70));
    assert_eq!(s1.read_int_committed(acct_b1), Some(30));
    // Overdraft aborts atomically.
    let h = s2.execute(Box::new(Xfer(acct_a2, acct_b2, 1000)));
    pump(&mut s1, &mut s2);
    assert_eq!(s2.txn_outcome(h), Some(TxnOutcome::Aborted));
    assert_eq!(s1.read_int_committed(acct_a1), Some(70));
    assert_eq!(s2.read_int_committed(acct_b2), Some(30));
}

#[test]
fn rc_guess_chains_local_commits() {
    // T2 reads T1's uncommitted value at the originator; T2 commits only
    // after T1 does.
    let (mut a, mut b, oa, ob) = pair();
    let h1 = a.execute(Box::new(Incr(oa)));
    let h2 = a.execute(Box::new(Incr(oa))); // reads T1's value
    assert_eq!(a.read_int_current(oa), Some(2));
    // The primary is site 1 itself: "the transaction commits immediately
    // at the originating site" (§5.1.1).
    assert_eq!(a.txn_outcome(h1), Some(TxnOutcome::Committed));
    pump(&mut a, &mut b);
    assert_eq!(a.txn_outcome(h1), Some(TxnOutcome::Committed));
    assert_eq!(a.txn_outcome(h2), Some(TxnOutcome::Committed));
    assert_eq!(b.read_int_committed(ob), Some(2));
}

#[test]
fn cascading_abort_on_rc_dependency() {
    // Site 2 (non-primary) runs T1; before confirmation, T2 at site 2 reads
    // T1's value. A conflicting write from site 1 denies T1 → T2 cascades,
    // both retry, everything converges.
    let (mut a, mut b, oa, ob) = pair();
    // T0 at site 1 creates a reservation (1 read+write).
    a.execute(Box::new(Incr(oa)));
    // Concurrently T1 and T2 at site 2 (T1's guesses will fail).
    b.execute(Box::new(Incr(ob)));
    b.execute(Box::new(Incr(ob)));
    pump(&mut a, &mut b);
    assert_eq!(a.read_int_committed(oa), Some(3));
    assert_eq!(b.read_int_committed(ob), Some(3));
}

#[test]
fn delegate_commit_skips_confirmation_round() {
    // Primary of the object is site 1; originate at site 2 with no RC
    // guesses → the WRITE to site 1 carries the delegation, site 1 commits
    // and broadcasts directly.
    let (mut a, mut b, _oa, ob) = pair();
    let h = b.execute(Box::new(SetInt(ob, 3)));
    let envs: Vec<Envelope> = b.drain_outbox();
    assert_eq!(envs.len(), 1);
    match &envs[0].msg {
        Message::Txn(p) => {
            let d = p.delegate.as_ref().expect("delegation expected");
            assert!(d.notify.contains(&SiteId(2)));
        }
        m => panic!("expected Txn message, got {}", m.tag()),
    }
    // Deliver to site 1: it should emit a COMMIT (not a CONFIRM).
    for e in envs {
        a.handle_message(e);
    }
    let replies = a.drain_outbox();
    assert_eq!(replies.len(), 1);
    assert!(
        matches!(replies[0].msg, Message::Commit { .. }),
        "delegate broadcasts COMMIT directly, got {}",
        replies[0].msg.tag()
    );
    for e in replies {
        b.handle_message(e);
    }
    assert_eq!(b.txn_outcome(h), Some(TxnOutcome::Committed));
}

#[test]
fn delegation_disabled_uses_confirm_round() {
    let cfg = SiteConfig {
        delegate_enabled: false,
        ..SiteConfig::default()
    };
    let mut a = Site::with_config(SiteId(1), cfg);
    let mut b = Site::with_config(SiteId(2), cfg);
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);
    let h = b.execute(Box::new(SetInt(ob, 3)));
    let envs = b.drain_outbox();
    match &envs[0].msg {
        Message::Txn(p) => assert!(p.delegate.is_none()),
        m => panic!("unexpected message {}", m.tag()),
    }
    for e in envs {
        a.handle_message(e);
    }
    let replies = a.drain_outbox();
    assert!(
        matches!(replies[0].msg, Message::Confirm { .. }),
        "without delegation the primary confirms, got {}",
        replies[0].msg.tag()
    );
    for e in replies {
        b.handle_message(e);
    }
    // Now b broadcasts the commit.
    let commits = b.drain_outbox();
    assert!(matches!(commits[0].msg, Message::Commit { .. }));
    for e in commits {
        a.handle_message(e);
    }
    assert_eq!(b.txn_outcome(h), Some(TxnOutcome::Committed));
    assert_eq!(a.read_int_committed(oa), Some(3));
}

#[test]
fn three_site_replication_converges() {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let mut c = Site::new(SiteId(3));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    let oc = c.create_int(0);
    wiring::wire_replicas(&mut [(&mut a, oa), (&mut b, ob), (&mut c, oc)]);
    // Paper §3.1 example structure: writes propagate to all, checks at the
    // primary only.
    b.execute(Box::new(SetInt(ob, 2)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);
    for (site, obj) in [(&a, oa), (&b, ob), (&c, oc)] {
        assert_eq!(site.read_int_committed(obj), Some(2));
    }
    c.execute(Box::new(Incr(oc)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);
    for (site, obj) in [(&a, oa), (&b, ob), (&c, oc)] {
        assert_eq!(site.read_int_committed(obj), Some(3));
    }
}

#[test]
fn straggler_write_is_denied_by_reservation() {
    // Site 3's increment is based on a stale value and held back; once the
    // primary has confirmed a later conflicting read, the straggler's check
    // must fail and site 3 must retry on the new state.
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let mut c = Site::new(SiteId(3));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    let oc = c.create_int(0);
    wiring::wire_replicas(&mut [(&mut a, oa), (&mut b, ob), (&mut c, oc)]);

    // c's increment: hold its messages.
    c.execute(Box::new(Incr(oc)));
    let held: Vec<Envelope> = c.drain_outbox();
    // b's increment goes through completely (c also hears about it).
    b.execute(Box::new(Incr(ob)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);
    assert_eq!(a.read_int_committed(oa), Some(1));
    // Now release c's stale messages.
    for e in held {
        match e.to {
            SiteId(1) => a.handle_message(e),
            SiteId(2) => b.handle_message(e),
            _ => unreachable!(),
        }
    }
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);
    assert_eq!(a.read_int_committed(oa), Some(2));
    assert_eq!(b.read_int_committed(ob), Some(2));
    assert_eq!(c.read_int_committed(oc), Some(2));
    assert!(c.stats().retries >= 1, "the stale increment retried");
}

#[test]
fn histories_are_garbage_collected_after_commit() {
    let (mut a, mut b, oa, ob) = pair();
    for i in 0..20 {
        a.execute(Box::new(SetInt(oa, i)));
        pump(&mut a, &mut b);
    }
    // Retention above the peer-message horizon is deliberate (RL/NC
    // evidence against racing stale writes); the history must stay a small
    // lag window, far below the 20 writes performed.
    assert!(
        a.history_len(oa) <= 4,
        "history should be GC'd, len = {}",
        a.history_len(oa)
    );
    assert!(
        b.history_len(ob) <= 4,
        "replica history should be GC'd, len = {}",
        b.history_len(ob)
    );
    assert!(a.stats().gc_discarded > 0);
}

#[test]
fn retries_exhausted_surfaces_abort() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    struct CountingAborts(ObjectName, Arc<AtomicU32>);
    impl Transaction for CountingAborts {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            let v = ctx.read_int(self.0)?;
            ctx.write_int(self.0, v + 1)
        }
        fn handle_abort(&mut self, _reason: &decaf_core::AbortReason) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    let cfg = SiteConfig {
        retry_budget: 0,
        ..SiteConfig::default()
    };
    let mut a = Site::with_config(SiteId(1), cfg);
    let mut b = Site::with_config(SiteId(2), cfg);
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);

    let aborts = Arc::new(AtomicU32::new(0));
    a.execute(Box::new(Incr(oa)));
    let h = b.execute(Box::new(CountingAborts(ob, Arc::clone(&aborts))));
    pump(&mut a, &mut b);
    assert_eq!(b.txn_outcome(h), Some(TxnOutcome::Aborted));
    assert_eq!(aborts.load(Ordering::SeqCst), 1, "handle_abort called once");
}

#[test]
fn both_sites_of_a_pair_agree_the_primary_is_the_least_node() {
    // Whichever side starts the join, both end with the same graph and
    // its least node, site 1's copy, as the primary.
    for site_2_invites in [false, true] {
        let mut a = Site::new(SiteId(1));
        let mut b = Site::new(SiteId(2));
        let oa = a.create_int(0);
        let ob = b.create_int(0);
        if site_2_invites {
            wiring::wire_pair(&mut b, ob, &mut a, oa);
        } else {
            wiring::wire_pair(&mut a, oa, &mut b, ob);
        }
        let graph = a.replication_graph(oa).unwrap();
        assert_eq!(graph, b.replication_graph(ob).unwrap());
        let least = NodeRef::new(SiteId(1), oa);
        assert_eq!(graph.nodes().next(), Some(&least));
        assert_eq!(graph.primary(), Some(least));
        assert_eq!(a.primary_of(oa).unwrap(), least);
        assert_eq!(b.primary_of(ob).unwrap(), least);
        let h = b.execute(Box::new(SetInt(ob, 1)));
        pump(&mut a, &mut b);
        assert_eq!(b.txn_outcome(h), Some(TxnOutcome::Committed));
        assert_eq!(a.read_int_committed(oa), Some(1));
    }
}

#[test]
fn duplicate_commit_and_abort_messages_are_idempotent() {
    let (mut a, mut b, oa, ob) = pair();
    b.execute(Box::new(SetInt(ob, 5)));
    let writes = b.drain_outbox();
    for e in writes {
        a.handle_message(e);
    }
    let commits = a.drain_outbox();
    // Deliver the commit twice.
    let mut twice: Vec<Envelope> = commits.clone();
    twice.extend(commits);
    for e in twice {
        b.handle_message(e);
    }
    pump(&mut a, &mut b);
    assert_eq!(b.read_int_committed(ob), Some(5));
    assert_eq!(a.read_int_committed(oa), Some(5));
}

#[test]
fn late_write_after_commit_is_applied_as_committed() {
    // Three sites; the WRITE to site 3 is delayed past the COMMIT.
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let mut c = Site::new(SiteId(3));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    let oc = c.create_int(0);
    wiring::wire_replicas(&mut [(&mut a, oa), (&mut b, ob), (&mut c, oc)]);

    b.execute(Box::new(SetInt(ob, 8)));
    let mut to_c = Vec::new();
    let mut rest = Vec::new();
    for e in b.drain_outbox() {
        if e.to == SiteId(3) {
            to_c.push(e);
        } else {
            rest.push(e);
        }
    }
    for e in rest {
        a.handle_message(e);
    }
    // a (primary + delegate) broadcasts COMMIT; deliver c's commit FIRST.
    for e in a.drain_outbox() {
        match e.to {
            SiteId(2) => b.handle_message(e),
            SiteId(3) => c.handle_message(e),
            _ => unreachable!(),
        }
    }
    assert_eq!(c.read_int_current(oc), Some(0), "write still in flight");
    // Now the late WRITE arrives: §3.1 says apply as committed.
    for e in to_c {
        c.handle_message(e);
    }
    assert_eq!(c.read_int_committed(oc), Some(8));
}
