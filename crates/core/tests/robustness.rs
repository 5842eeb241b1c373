//! Robustness against unexpected protocol input: unknown subjects, unknown
//! objects, duplicate verdicts, and replies from impostor sites must never
//! corrupt state or panic — "faulty applications will not be able to create
//! inconsistent states or crash the entire application" (§2.4), extended to
//! the wire.

use decaf_core::{
    wiring, EngineEvent, Envelope, Message, ObjectAddr, ObjectName, Path, PathElem, ReadItem, Site,
    SubjectKind, Transaction, TxnCtx, TxnError, TxnPropagate, UpdateItem, WireOp,
};
use decaf_vt::{SiteId, VirtualTime};

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

fn env(from: u32, to: u32, msg: Message) -> Envelope {
    Envelope {
        from: SiteId(from),
        to: SiteId(to),
        clock: VirtualTime::new(999, SiteId(from)),
        msg,
        span: None,
    }
}

#[test]
fn verdicts_for_unknown_subjects_are_ignored() {
    let mut a = Site::new(SiteId(1));
    let o = a.create_int(5);
    for kind in [SubjectKind::Txn, SubjectKind::Snapshot] {
        a.handle_message(env(
            2,
            1,
            Message::Confirm {
                subject: VirtualTime::new(7, SiteId(2)),
                kind,
            },
        ));
        a.handle_message(env(
            2,
            1,
            Message::Deny {
                subject: VirtualTime::new(8, SiteId(2)),
                kind,
            },
        ));
    }
    a.handle_message(env(
        2,
        1,
        Message::Commit {
            txn: VirtualTime::new(9, SiteId(2)),
        },
    ));
    a.handle_message(env(
        2,
        1,
        Message::Abort {
            txn: VirtualTime::new(10, SiteId(2)),
        },
    ));
    assert_eq!(a.read_int_committed(o), Some(5));
    assert!(a.is_quiescent());
}

#[test]
fn writes_to_unknown_objects_are_dropped_not_wedged() {
    let mut a = Site::new(SiteId(1));
    let o = a.create_int(0);
    let bogus = ObjectName::new(SiteId(9), 404);
    a.handle_message(env(
        2,
        1,
        Message::Txn(TxnPropagate {
            txn: VirtualTime::new(3, SiteId(2)),
            origin: SiteId(2),
            updates: vec![UpdateItem {
                addr: ObjectAddr::Direct(bogus),
                t_r: VirtualTime::new(3, SiteId(2)),
                t_g: VirtualTime::ZERO,
                op: WireOp::SetScalar(decaf_core::ScalarValue::Int(1)),
                needs_check: false,
            }],
            reads: vec![],
            delegate: None,
        }),
    ));
    assert_eq!(a.read_int_committed(o), Some(0));
    // Unknown DIRECT objects are fatal (dropped), not buffered: the site
    // must stay quiescent rather than wait forever.
    assert!(a.is_quiescent(), "{}", a.debug_stuck());
}

#[test]
fn checked_writes_to_unknown_objects_are_denied() {
    let mut a = Site::new(SiteId(1));
    let bogus = ObjectName::new(SiteId(9), 404);
    a.handle_message(env(
        2,
        1,
        Message::Txn(TxnPropagate {
            txn: VirtualTime::new(3, SiteId(2)),
            origin: SiteId(2),
            updates: vec![UpdateItem {
                addr: ObjectAddr::Direct(bogus),
                t_r: VirtualTime::new(3, SiteId(2)),
                t_g: VirtualTime::ZERO,
                op: WireOp::SetScalar(decaf_core::ScalarValue::Int(1)),
                needs_check: true,
            }],
            reads: vec![],
            delegate: None,
        }),
    ));
    let out = a.drain_outbox();
    assert!(
        out.iter().any(|e| matches!(e.msg, Message::Deny { .. })),
        "primary must deny checks it cannot perform: {:?}",
        out.iter().map(|e| e.msg.tag()).collect::<Vec<_>>()
    );
}

#[test]
fn snapshot_confirm_for_unknown_object_is_denied() {
    let mut a = Site::new(SiteId(1));
    let bogus = ObjectName::new(SiteId(9), 404);
    a.handle_message(env(
        2,
        1,
        Message::SnapshotConfirm {
            subject: VirtualTime::new(5, SiteId(2)),
            origin: SiteId(2),
            reads: vec![ReadItem {
                addr: ObjectAddr::Indirect {
                    root: bogus,
                    path: Path::from(vec![PathElem::Key("x".into())]),
                },
                t_r: VirtualTime::ZERO,
                t_g: VirtualTime::ZERO,
                hi: None,
            }]
            .into(),
        },
    ));
    let out = a.drain_outbox();
    assert!(out.iter().any(|e| matches!(e.msg, Message::Deny { .. })));
}

#[test]
fn duplicate_and_out_of_order_verdicts_do_not_double_commit() {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);
    b.execute(Box::new(Incr(ob)));
    let writes = b.drain_outbox();
    for e in writes {
        a.handle_message(e);
    }
    let commits = a.drain_outbox();
    // Deliver the delegate's COMMIT three times, plus a stray duplicate of
    // the original write afterwards.
    for _ in 0..3 {
        for e in commits.clone() {
            b.handle_message(e);
        }
    }
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    assert_eq!(a.stats().txns_committed, 0, "a originated nothing");
    assert_eq!(b.stats().txns_committed, 1, "exactly one commit");
    assert_eq!(a.read_int_committed(oa), Some(1));
    assert_eq!(b.read_int_committed(ob), Some(1));
}

#[test]
fn commit_overtaking_its_txn_is_reported_committed_exactly_once() {
    // COMMIT first, then the updates it decides (§3.1: "if any future
    // update messages arrive, the updates are considered committed"), then
    // the same updates again, as a transport redelivers them after a
    // reconnect: one TxnCommitted, not none and not two.
    let txn = VirtualTime::new(3, SiteId(2));
    let committed_events = |site: &mut Site| {
        site.drain_events()
            .iter()
            .filter(|e| matches!(e, EngineEvent::TxnCommitted { vt, local_origin: false } if *vt == txn))
            .count()
    };
    for order in [["commit", "txn", "txn"], ["txn", "commit", "txn"]] {
        let mut a = Site::new(SiteId(1));
        let o = a.create_int(0);
        let mut seen = 0;
        for step in order {
            let msg = match step {
                "commit" => Message::Commit { txn },
                _ => Message::Txn(TxnPropagate {
                    txn,
                    origin: SiteId(2),
                    updates: vec![UpdateItem {
                        addr: ObjectAddr::Direct(o),
                        t_r: txn,
                        t_g: VirtualTime::ZERO,
                        op: WireOp::SetScalar(decaf_core::ScalarValue::Int(7)),
                        needs_check: false,
                    }],
                    reads: vec![],
                    delegate: None,
                }),
            };
            a.handle_message(env(2, 1, msg));
            seen += committed_events(&mut a);
        }
        assert_eq!(seen, 1, "{order:?}");
        assert_eq!(a.read_int_committed(o), Some(7), "{order:?}");
    }
}

#[test]
fn heartbeats_are_inert() {
    let mut a = Site::new(SiteId(1));
    let o = a.create_int(1);
    for _ in 0..20 {
        a.handle_message(env(2, 1, Message::Heartbeat));
    }
    assert_eq!(a.read_int_committed(o), Some(1));
    // The site acks chatty peers eventually but sends nothing else.
    let out = a.drain_outbox();
    assert!(out.iter().all(|e| matches!(e.msg, Message::Heartbeat)));
}
