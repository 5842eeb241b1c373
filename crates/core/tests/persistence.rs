//! Persistence and recovery tests (paper §5.3): checkpoint a quiescent
//! site, encode it, restore it, and resume collaborating — including the
//! crash-and-rejoin flow of §3.4.

use decaf_core::{
    wiring, Blueprint, Checkpoint, CheckpointError, EngineEvent, ObjectName, Site, Transaction,
    TxnCtx, TxnError,
};
use decaf_vt::SiteId;

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

struct Push(ObjectName, i64);
impl Transaction for Push {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.list_push(self.0, Blueprint::Int(self.1))?;
        Ok(())
    }
}

#[test]
fn checkpoint_roundtrips_through_bytes() {
    let mut site = Site::new(SiteId(1));
    let counter = site.create_int(0);
    let list = site.create_list();
    for i in 0..3 {
        site.execute(Box::new(Incr(counter)));
        site.execute(Box::new(Push(list, i * 10)));
    }
    let cp = site.checkpoint().expect("quiescent site");
    let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodable");
    assert_eq!(back, cp);
    let restored = Site::restore(back);

    assert_eq!(restored.read_int_committed(counter), Some(3));
    let values: Vec<i64> = restored
        .list_children_current(list)
        .into_iter()
        .filter_map(|c| restored.read_int_committed(c))
        .collect();
    assert_eq!(values, vec![0, 10, 20]);
}

#[test]
fn checkpoint_requires_quiescence() {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);
    // Originate at the non-primary site: confirmation outstanding.
    b.execute(Box::new(Incr(ob)));
    assert_eq!(b.checkpoint().unwrap_err(), CheckpointError::NotQuiescent);
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert!(b.checkpoint().is_ok());
}

#[test]
fn restored_site_resumes_collaboration() {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);
    for _ in 0..4 {
        a.execute(Box::new(Incr(oa)));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }

    // Site b restarts from its checkpoint, keeping its replica state,
    // graphs, and clock.
    let cp = b.checkpoint().expect("quiescent");
    drop(b);
    let mut b = Site::restore(cp);
    assert_eq!(b.read_int_committed(ob), Some(4));
    assert_eq!(b.replication_graph(ob).unwrap().len(), 2);

    // Both directions still work.
    b.execute(Box::new(Incr(ob)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert_eq!(a.read_int_committed(oa), Some(5));
    a.execute(Box::new(Incr(oa)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert_eq!(b.read_int_committed(ob), Some(6));
}

#[test]
fn crash_repair_then_restored_site_rejoins_as_new_member() {
    // The §3.4 lifecycle: site 3 crashes, survivors repair it away; later
    // the user restarts from a checkpoint and, per the paper, "rejoins the
    // collaboration by going through a join protocol as a new member".
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let mut c = Site::new(SiteId(3));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    let oc = c.create_int(0);
    wiring::wire_replicas(&mut [(&mut a, oa), (&mut b, ob), (&mut c, oc)]);
    a.execute(Box::new(Incr(oa)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);

    // Survivors also need an association to re-invite through.
    let assoc = a.create_association();
    let rel = a.create_relation(assoc, "doc", oa).unwrap();
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);

    // c crashes (checkpoint taken beforehand); survivors repair.
    let cp = c.checkpoint().expect("quiescent");
    drop(c);
    a.notify_site_failed(SiteId(3));
    b.notify_site_failed(SiteId(3));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert_eq!(a.replication_graph(oa).unwrap().len(), 2);

    // Work continues without c.
    b.execute(Box::new(Incr(ob)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert_eq!(a.read_int_committed(oa), Some(2));

    // c restarts from its checkpoint: private state intact but stale.
    let mut c = Site::restore(cp);
    assert_eq!(c.read_int_committed(oc), Some(1), "stale pre-crash state");

    // Rejoin as a new member with a fresh object, per §3.4.
    let invitation = a.make_invitation(assoc, rel).unwrap();
    let oc2 = c.create_int(0);
    c.join(invitation, oc2).unwrap();
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);
    let joined = c
        .drain_events()
        .iter()
        .any(|e| matches!(e, EngineEvent::JoinCompleted { ok: true, .. }));
    assert!(joined, "rejoin must complete");
    assert_eq!(c.read_int_committed(oc2), Some(2), "caught up on rejoin");

    c.execute(Box::new(Incr(oc2)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b, &mut c]);
    assert_eq!(a.read_int_committed(oa), Some(3));
    assert_eq!(b.read_int_committed(ob), Some(3));
}

#[test]
fn checkpoint_preserves_name_allocation() {
    // Objects created after a restore must not collide with pre-crash
    // names.
    let mut site = Site::new(SiteId(1));
    let o1 = site.create_int(1);
    let cp = site.checkpoint().unwrap();
    let mut restored = Site::restore(cp);
    let o2 = restored.create_int(2);
    assert_ne!(o1, o2, "fresh names after restore");
    assert_eq!(restored.read_int_committed(o1), Some(1));
    assert_eq!(restored.read_int_committed(o2), Some(2));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        SetInt(i64),
        Push(i64),
        RemoveFirst,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (-100i64..100).prop_map(Op::SetInt),
                (-100i64..100).prop_map(Op::Push),
                Just(Op::RemoveFirst),
            ],
            0..30,
        )
    }

    struct DoSet(decaf_core::ObjectName, i64);
    impl Transaction for DoSet {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            ctx.write_int(self.0, self.1)
        }
    }
    struct DoPush(decaf_core::ObjectName, i64);
    impl Transaction for DoPush {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            ctx.list_push(self.0, Blueprint::Int(self.1))?;
            Ok(())
        }
    }
    struct DoRemove(decaf_core::ObjectName);
    impl Transaction for DoRemove {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            if ctx.list_len(self.0)? == 0 {
                return Err(TxnError::app("empty"));
            }
            ctx.list_remove(self.0, 0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any reachable quiescent state survives a checkpoint byte
        /// round trip bit-for-bit observably.
        #[test]
        fn checkpoint_roundtrip_preserves_observable_state(ops in arb_ops()) {
            let mut site = Site::new(SiteId(1));
            let counter = site.create_int(0);
            let list = site.create_list();
            for op in &ops {
                match op {
                    Op::SetInt(v) => {
                        site.execute(Box::new(DoSet(counter, *v)));
                    }
                    Op::Push(v) => {
                        site.execute(Box::new(DoPush(list, *v)));
                    }
                    Op::RemoveFirst => {
                        site.execute(Box::new(DoRemove(list)));
                    }
                }
            }
            let before_counter = site.read_int_committed(counter);
            let before_list: Vec<Option<i64>> = site
                .list_children_current(list)
                .into_iter()
                .map(|c| site.read_int_committed(c))
                .collect();

            let cp = site.checkpoint().expect("single site is quiescent");
            let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("decode");
            let restored = Site::restore(back);

            prop_assert_eq!(restored.read_int_committed(counter), before_counter);
            let after_list: Vec<Option<i64>> = restored
                .list_children_current(list)
                .into_iter()
                .map(|c| restored.read_int_committed(c))
                .collect();
            prop_assert_eq!(after_list, before_list);
        }
    }
}
