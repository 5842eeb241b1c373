//! Client-failure handling tests (paper §3.4): originator failure with
//! in-doubt resolution, primary failure with consensus graph repair, and
//! post-repair retry.

use decaf_core::{wiring, Envelope, ObjectName, Site, Transaction, TxnCtx, TxnError};
use decaf_vt::SiteId;

struct SetInt(ObjectName, i64);
impl Transaction for SetInt {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.write_int(self.0, self.1)
    }
}

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

/// Three wired sites.
fn trio() -> (Site, Site, Site, ObjectName, ObjectName, ObjectName) {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let mut c = Site::new(SiteId(3));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    let oc = c.create_int(0);
    wiring::wire_replicas(&mut [(&mut a, oa), (&mut b, ob), (&mut c, oc)]);
    (a, b, c, oa, ob, oc)
}

fn route(sites: &mut [&mut Site], envs: Vec<Envelope>, dead: &[SiteId]) {
    for e in envs {
        if dead.contains(&e.to) {
            continue;
        }
        if let Some(s) = sites.iter_mut().find(|s| s.id() == e.to) {
            s.handle_message(e);
        }
    }
}

fn pump_alive(sites: &mut [&mut Site], dead: &[SiteId]) {
    loop {
        let mut moved = false;
        let mut batch = Vec::new();
        for s in sites.iter_mut() {
            if dead.contains(&s.id()) {
                s.drain_outbox(); // dead sites' traffic vanishes
                continue;
            }
            batch.extend(s.drain_outbox());
        }
        if !batch.is_empty() {
            moved = true;
        }
        route(sites, batch, dead);
        if !moved {
            return;
        }
    }
}

#[test]
fn originator_failure_with_no_commit_aborts_in_doubt_txn() {
    // Site 3 originates an update; its WRITEs arrive but site 3 dies before
    // any COMMIT is seen → survivors must abort the in-doubt transaction.
    // Delegation is disabled so no site can decide alone.
    use decaf_core::SiteConfig;
    let cfg = SiteConfig {
        delegate_enabled: false,
        ..SiteConfig::default()
    };
    let mut a = Site::with_config(SiteId(1), cfg);
    let mut b = Site::with_config(SiteId(2), cfg);
    let mut c = Site::with_config(SiteId(3), cfg);
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    let oc = c.create_int(0);
    wiring::wire_replicas(&mut [(&mut a, oa), (&mut b, ob), (&mut c, oc)]);
    c.execute(Box::new(SetInt(oc, 50)));
    // Deliver only the WRITE messages (not the primary's verdicts back).
    let writes = c.drain_outbox();
    route(&mut [&mut a, &mut b], writes, &[]);
    // Swallow the primary's replies — site 3 "dies" now.
    a.drain_outbox();
    b.drain_outbox();
    assert_eq!(a.read_int_current(oa), Some(50), "optimistically applied");

    a.notify_site_failed(SiteId(3));
    b.notify_site_failed(SiteId(3));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);

    assert_eq!(
        a.read_int_current(oa),
        Some(0),
        "in-doubt update rolled back"
    );
    assert_eq!(b.read_int_current(ob), Some(0));
    // Graphs no longer include the failed site.
    assert_eq!(a.replication_graph(oa).unwrap().len(), 2);
    assert_eq!(b.replication_graph(ob).unwrap().len(), 2);
    // The survivors keep working.
    b.execute(Box::new(SetInt(ob, 7)));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);
    assert_eq!(a.read_int_committed(oa), Some(7));
}

#[test]
fn originator_failure_after_commit_seen_commits_everywhere() {
    // Site 3's transaction committed at site 1 (the delegate/primary) but
    // the COMMIT to site 2 is lost with site 3's failure. The §3.4 query
    // protocol must discover the commit and apply it at site 2.
    let (mut a, mut b, mut c, oa, ob, _oc) = trio();
    c.execute(Box::new(SetInt(_oc, 50)));
    let writes = c.drain_outbox();
    // Deliver everything to site 1 (primary+delegate) and the WRITE to 2.
    route(&mut [&mut a, &mut b], writes, &[]);
    // Site 1, as delegate, emits COMMITs; deliver the one to site 2? NO —
    // lose it, keep only knowledge at site 1.
    let commits = a.drain_outbox();
    assert!(commits.iter().any(|e| e.to == SiteId(2)));
    // (dropped)
    drop(commits);
    assert_eq!(a.read_int_committed(oa), Some(50), "committed at site 1");
    assert_eq!(b.read_int_committed(ob), Some(0), "site 2 unaware");

    a.notify_site_failed(SiteId(3));
    b.notify_site_failed(SiteId(3));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);

    assert_eq!(
        b.read_int_committed(ob),
        Some(50),
        "survivor query discovered the commit (§3.4)"
    );
}

#[test]
fn primary_failure_repairs_graph_by_consensus_and_retries() {
    // The primary (site 1, the least node) fails while site 3 has a transaction
    // awaiting its confirmation. Survivors run the consensus repair; the
    // transaction is retried after the repair and commits under the new
    // primary.
    let (mut a, mut b, mut c, _oa, ob, oc) = trio();
    // Pre-commit a value so there's real state.
    b.execute(Box::new(SetInt(ob, 5)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);

    // Site 3 starts an increment; its messages reach nobody (primary dead).
    c.execute(Box::new(Incr(oc)));
    c.drain_outbox(); // lost with the failure
    assert_eq!(c.read_int_current(oc), Some(6), "optimistic local state");

    b.notify_site_failed(SiteId(1));
    c.notify_site_failed(SiteId(1));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(1)]);

    // Graphs repaired: only sites 2 and 3 remain; new primary is site 2.
    assert_eq!(b.replication_graph(ob).unwrap().len(), 2);
    assert_eq!(c.replication_graph(oc).unwrap().len(), 2);
    assert_eq!(b.primary_of(ob).unwrap().site, SiteId(2));
    assert_eq!(c.primary_of(oc).unwrap().site, SiteId(2));

    // The increment was aborted and retried post-repair; value converged.
    assert_eq!(b.read_int_committed(ob), Some(6));
    assert_eq!(c.read_int_committed(oc), Some(6));

    // New work proceeds under the new primary.
    c.execute(Box::new(Incr(oc)));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(1)]);
    assert_eq!(b.read_int_committed(ob), Some(7));
    assert_eq!(c.read_int_committed(oc), Some(7));
}

#[test]
fn non_primary_failure_uses_fast_path_repair() {
    // Site 3 (not the primary) fails: the live primary (site 1) coordinates
    // a normal timestamped graph update — no consensus needed.
    let (mut a, mut b, mut c, oa, ob, _oc) = trio();
    a.notify_site_failed(SiteId(3));
    b.notify_site_failed(SiteId(3));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);

    assert_eq!(a.replication_graph(oa).unwrap().len(), 2);
    assert_eq!(b.replication_graph(ob).unwrap().len(), 2);
    a.execute(Box::new(SetInt(oa, 3)));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);
    assert_eq!(b.read_int_committed(ob), Some(3));
}

#[test]
fn double_failure_leaves_single_survivor_functional() {
    let (mut a, mut b, mut c, _oa, ob, _oc) = trio();
    b.notify_site_failed(SiteId(1));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(1)]);
    b.notify_site_failed(SiteId(3));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(1), SiteId(3)]);

    assert_eq!(b.replication_graph(ob).unwrap().len(), 1);
    b.execute(Box::new(SetInt(ob, 9)));
    assert_eq!(
        b.read_int_committed(ob),
        Some(9),
        "sole survivor commits locally"
    );
    assert!(b.is_quiescent());
}

#[test]
fn duplicate_failure_notifications_are_idempotent() {
    let (mut a, mut b, mut c, oa, _ob, _oc) = trio();
    a.notify_site_failed(SiteId(3));
    a.notify_site_failed(SiteId(3));
    b.notify_site_failed(SiteId(3));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);
    assert_eq!(a.replication_graph(oa).unwrap().len(), 2);
    a.execute(Box::new(SetInt(oa, 1)));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);
    assert_eq!(b.read_int_committed(_ob), Some(1));
}

#[test]
fn queue_retry_after_repair_reexecutes_once_repair_lands() {
    // A transaction parked for post-repair retry must re-execute as soon
    // as the (fast-path) graph repair flushes the queue — and not before.
    let (mut a, mut b, mut c, oa, ob, _oc) = trio();
    a.queue_retry_after_repair(Box::new(Incr(oa)));
    assert_eq!(a.read_int_current(oa), Some(0), "parked, not executed");
    assert_eq!(a.stats().retries, 0);

    // Site 3 (not the primary) fails: site 1 runs the fast-path repair,
    // whose completion flushes the parked retry.
    a.notify_site_failed(SiteId(3));
    b.notify_site_failed(SiteId(3));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);

    assert_eq!(a.stats().retries, 1, "flush counts as a retry");
    assert_eq!(a.read_int_committed(oa), Some(1));
    assert_eq!(b.read_int_committed(ob), Some(1));
}

#[test]
fn parked_retries_wait_for_consensus_repair() {
    // When the dead site was the primary, repair goes through the
    // consensus fallback — parked retries must stay parked until the
    // repaired graph is applied, then run against it.
    let (mut a, mut b, mut c, _oa, ob, oc) = trio();
    b.queue_retry_after_repair(Box::new(Incr(ob)));

    b.notify_site_failed(SiteId(1));
    assert_eq!(
        b.read_int_current(ob),
        Some(0),
        "consensus round in flight: the retry must not have run yet"
    );

    c.notify_site_failed(SiteId(1));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(1)]);

    assert_eq!(b.primary_of(ob).unwrap().site, SiteId(2));
    assert_eq!(b.read_int_committed(ob), Some(1));
    assert_eq!(c.read_int_committed(oc), Some(1));
}

/// Pumps `a` and `b` to quiescence, delivering to `c` whatever is
/// addressed to it, while *holding* everything `c` emits — a one-way
/// stalled link, the shape that starves a straggler of fresh state.
fn pump_holding(a: &mut Site, b: &mut Site, c: &mut Site, held: &mut Vec<Envelope>) {
    loop {
        held.extend(c.drain_outbox());
        let batch: Vec<Envelope> = a
            .drain_outbox()
            .into_iter()
            .chain(b.drain_outbox())
            .collect();
        if batch.is_empty() {
            held.extend(c.drain_outbox());
            return;
        }
        for e in batch {
            if e.to == a.id() {
                a.handle_message(e);
            } else if e.to == b.id() {
                b.handle_message(e);
            } else {
                c.handle_message(e);
            }
        }
    }
}

#[test]
fn retry_budget_is_consumed_then_exhaustion_aborts_for_good() {
    // A straggler whose every retry is denied: site 3 increments from
    // stale state with a budget of ONE retry; between each of its attempts
    // reaching the primary, site 2 commits another conflicting increment.
    // Attempt 1 is denied (budget spent, retried=true), attempt 2 is
    // denied with the budget gone — the abort must be final, surfaced to
    // the handle and to `Transaction::handle_abort` exactly once.
    use decaf_core::{SiteConfig, TxnOutcome};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    struct CountingIncr(ObjectName, Arc<AtomicU32>);
    impl Transaction for CountingIncr {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            let v = ctx.read_int(self.0)?;
            ctx.write_int(self.0, v + 1)
        }
        fn handle_abort(&mut self, _reason: &decaf_core::AbortReason) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    let cfg = SiteConfig {
        retry_budget: 1,
        ..SiteConfig::default()
    };
    let mut a = Site::with_config(SiteId(1), cfg);
    let mut b = Site::with_config(SiteId(2), cfg);
    let mut c = Site::with_config(SiteId(3), cfg);
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    let oc = c.create_int(0);
    wiring::wire_replicas(&mut [(&mut a, oa), (&mut b, ob), (&mut c, oc)]);

    let aborts = Arc::new(AtomicU32::new(0));
    let h = c.execute(Box::new(CountingIncr(oc, Arc::clone(&aborts))));
    let mut held: Vec<Envelope> = c.drain_outbox();

    // Site 2 commits a conflicting increment everywhere while c's attempt
    // is still in flight (held).
    b.execute(Box::new(Incr(ob)));
    pump_holding(&mut a, &mut b, &mut c, &mut held);
    assert_eq!(c.read_int_committed(oc), Some(1));

    // Release attempt 1: the primary denies it (a commit landed inside its
    // read interval), c consumes its one retry and re-submits — held again.
    for e in std::mem::take(&mut held) {
        if e.to == a.id() {
            a.handle_message(e);
        } else if e.to == b.id() {
            b.handle_message(e);
        }
    }
    pump_holding(&mut a, &mut b, &mut c, &mut held);
    assert_eq!(c.stats().retries, 1, "the single budgeted retry ran");
    assert_eq!(c.txn_outcome(h), None, "retry still in flight");
    assert_eq!(
        aborts.load(Ordering::SeqCst),
        0,
        "not surfaced while retryable"
    );

    // Another conflicting commit lands before the retry reaches the
    // primary.
    b.execute(Box::new(Incr(ob)));
    pump_holding(&mut a, &mut b, &mut c, &mut held);
    assert_eq!(c.read_int_committed(oc), Some(2));

    // Release attempt 2: denied again, and the budget is gone.
    for e in std::mem::take(&mut held) {
        if e.to == a.id() {
            a.handle_message(e);
        } else if e.to == b.id() {
            b.handle_message(e);
        }
    }
    pump_holding(&mut a, &mut b, &mut c, &mut held);

    assert_eq!(c.txn_outcome(h), Some(TxnOutcome::Aborted), "final abort");
    assert_eq!(c.stats().retries, 1, "no retry past the budget");
    assert_eq!(
        aborts.load(Ordering::SeqCst),
        1,
        "handle_abort exactly once"
    );
    // The final abort event is marked non-retried; the budgeted one was.
    let events = c.drain_events();
    let aborted: Vec<bool> = events
        .iter()
        .filter_map(|e| match e {
            decaf_core::EngineEvent::TxnAborted {
                local_origin: true,
                retried,
                ..
            } => Some(*retried),
            _ => None,
        })
        .collect();
    assert_eq!(aborted, vec![true, false], "one budgeted retry, then final");

    // Let c's abort notices drain; the mesh converges without c's incr.
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);
    for (site, obj) in [(&a, oa), (&b, ob), (&c, oc)] {
        assert_eq!(site.read_int_committed(obj), Some(2));
    }
}

#[test]
fn unrelated_objects_survive_failure_untouched() {
    let (mut a, mut b, mut c, _oa, _ob, _oc) = trio();
    // A private (unshared) object at site 1.
    let private = a.create_int(123);
    a.notify_site_failed(SiteId(3));
    b.notify_site_failed(SiteId(3));
    pump_alive(&mut [&mut a, &mut b, &mut c], &[SiteId(3)]);
    assert_eq!(a.read_int_committed(private), Some(123));
    assert_eq!(a.replication_graph(private).unwrap().len(), 1);
}
