//! Wire-codec integration tests: every `Message` variant round-trips
//! through the binary encoding under arbitrary stream chunking, malformed
//! frames (truncation, corruption, bad magic/version/kind, oversized
//! lengths) are rejected without a panic, and golden byte snapshots pin the
//! frame header, the control frames and the codec-2 payload layout.

use std::io::Cursor;

use decaf_proptest::prelude::*;

use decaf_core::codec::{crc32, put_varint, MAX_NESTING};
use decaf_core::{
    AssocSnapshot, Blueprint, Delegate, Envelope, Message, NodeRef, ObjectAddr, ObjectName, Path,
    PathElem, ReadItem, ReadTarget, RelationId, ReplicationGraph, ScalarValue, SnapshotRead,
    SnapshotReads, SpanCtx, SubjectKind, TreeSnapshot, TxnOutcome, TxnPropagate, UpdateItem,
    WireOp,
};
use decaf_net::wire::{
    self, encode_frame, Frame, FrameKind, FrameReader, WireError, CODEC_VERSION, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, PROTOCOL_VERSION,
};
use decaf_vt::rng::SplitMix64;
use decaf_vt::{SiteId, VirtualTime};

fn vt(lamport: u64, site: u32) -> VirtualTime {
    VirtualTime::new(lamport, SiteId(site))
}

fn name(site: u32, seq: u64) -> ObjectName {
    ObjectName::new(SiteId(site), seq)
}

fn node(site: u32, seq: u64) -> NodeRef {
    NodeRef::new(SiteId(site), name(site, seq))
}

fn sample_assoc() -> AssocSnapshot {
    AssocSnapshot::from_wire_parts([
        (
            RelationId(7),
            vec![node(1, 3), node(2, 9)],
            "editors".to_string(),
        ),
        (RelationId(12), vec![], String::new()),
    ])
}

fn sample_graph() -> ReplicationGraph {
    ReplicationGraph::from_parts(
        [node(1, 3), node(2, 9), node(4, 1)],
        [(node(1, 3), node(2, 9), RelationId(7))],
    )
}

fn sample_tree() -> TreeSnapshot {
    TreeSnapshot::Tuple(vec![
        ("n".to_string(), TreeSnapshot::Scalar(ScalarValue::Int(-3))),
        (
            "r".to_string(),
            TreeSnapshot::Scalar(ScalarValue::Real(2.5)),
        ),
        (
            "s".to_string(),
            TreeSnapshot::Scalar(ScalarValue::Str("héllo ✓".to_string())),
        ),
        (
            "l".to_string(),
            TreeSnapshot::List(vec![
                (vt(9, 2), TreeSnapshot::Scalar(ScalarValue::Int(1))),
                (vt(10, 3), TreeSnapshot::Assoc(sample_assoc())),
            ]),
        ),
    ])
}

/// One update item per `WireOp` variant, alternating direct and indirect
/// addressing so both `ObjectAddr` forms and both `PathElem` forms appear.
fn sample_updates() -> Vec<UpdateItem> {
    let indirect = ObjectAddr::Indirect {
        root: name(1, 2),
        path: Path::from(vec![
            PathElem::Index {
                index: 3,
                tag: vt(8, 1),
            },
            PathElem::Key("k".to_string()),
        ]),
    };
    let ops = vec![
        WireOp::SetScalar(ScalarValue::Int(i64::MIN)),
        WireOp::SetScalar(ScalarValue::Real(-1.5e300)),
        WireOp::SetScalar(ScalarValue::Str("μτf-8".to_string())),
        WireOp::ListInsert {
            index: usize::MAX,
            child: Blueprint::List(vec![
                Blueprint::Int(1),
                Blueprint::Real(0.25),
                Blueprint::Tuple(vec![("k".to_string(), Blueprint::str("v"))]),
            ]),
        },
        WireOp::ListRemove { tag: vt(77, 5) },
        WireOp::TuplePut {
            key: "key".to_string(),
            child: Blueprint::Real(1.5),
        },
        WireOp::TupleRemove {
            key: "gone".to_string(),
        },
        WireOp::SetAssoc(sample_assoc()),
        WireOp::SetTree(sample_tree()),
    ];
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| UpdateItem {
            addr: if i % 2 == 0 {
                ObjectAddr::Direct(name(4, 11 + i as u64))
            } else {
                indirect.clone()
            },
            t_r: vt(100 + i as u64, 1),
            t_g: vt(50, 2),
            op,
            needs_check: i % 2 == 0,
        })
        .collect()
}

fn sample_reads() -> Vec<ReadItem> {
    vec![
        ReadItem {
            addr: ObjectAddr::Direct(name(2, 5)),
            t_r: vt(40, 2),
            t_g: vt(30, 1),
            hi: None,
        },
        ReadItem {
            addr: ObjectAddr::Indirect {
                root: name(2, 5),
                path: Path::from(vec![PathElem::Key("x".to_string())]),
            },
            t_r: vt(41, 2),
            t_g: vt(30, 1),
            hi: Some(vt(99, 3)),
        },
    ]
}

/// One envelope per `Message` variant (plus extras so every `Option` field
/// is exercised in both its `Some` and `None` form).
fn sample_envelopes() -> Vec<Envelope> {
    let msgs = vec![
        Message::Txn(TxnPropagate {
            txn: vt(200, 1),
            origin: SiteId(1),
            updates: sample_updates(),
            reads: sample_reads(),
            delegate: Some(Delegate {
                notify: vec![SiteId(2), SiteId(3)],
            }),
        }),
        Message::Txn(TxnPropagate {
            txn: vt(201, 2),
            origin: SiteId(2),
            updates: vec![],
            reads: vec![],
            delegate: None,
        }),
        Message::SnapshotConfirm {
            subject: vt(210, 3),
            origin: SiteId(3),
            reads: sample_reads().into(),
        },
        Message::Confirm {
            subject: vt(211, 1),
            kind: SubjectKind::Txn,
        },
        Message::Deny {
            subject: vt(212, 1),
            kind: SubjectKind::Snapshot,
        },
        Message::Commit { txn: vt(213, 2) },
        Message::Abort { txn: vt(214, 2) },
        Message::JoinRequest {
            txn: vt(220, 1),
            origin: SiteId(1),
            relation: RelationId(7),
            a_node: node(1, 3),
            a_graph: sample_graph(),
            b_object: name(2, 9),
            assoc_object: Some(name(2, 10)),
        },
        Message::JoinRequest {
            txn: vt(221, 1),
            origin: SiteId(1),
            relation: RelationId(8),
            a_node: node(1, 4),
            a_graph: ReplicationGraph::singleton(node(1, 4)),
            b_object: name(3, 1),
            assoc_object: None,
        },
        Message::JoinReply {
            txn: vt(220, 1),
            ok: true,
            b_node: node(2, 9),
            merged: sample_graph(),
            b_value: Some(sample_tree()),
            b_value_vt: vt(190, 2),
            b_value_committed: false,
            confirms_expected: 2,
            extra_affected: vec![SiteId(4), SiteId(5)],
        },
        Message::JoinReply {
            txn: vt(221, 1),
            ok: false,
            b_node: node(3, 1),
            merged: ReplicationGraph::singleton(node(3, 1)),
            b_value: None,
            b_value_vt: VirtualTime::ZERO,
            b_value_committed: true,
            confirms_expected: 0,
            extra_affected: vec![],
        },
        Message::GraphUpdate {
            txn: vt(230, 1),
            origin: SiteId(1),
            target: name(2, 9),
            graph: sample_graph(),
            t_g: vt(50, 2),
            needs_check: true,
            adopt_value: Some(sample_tree()),
            adopt_value_vt: vt(190, 2),
        },
        Message::GraphUpdate {
            txn: vt(231, 1),
            origin: SiteId(1),
            target: name(2, 9),
            graph: sample_graph(),
            t_g: vt(50, 2),
            needs_check: false,
            adopt_value: None,
            adopt_value_vt: VirtualTime::ZERO,
        },
        Message::OutcomeQuery {
            txn: vt(240, 4),
            asker: SiteId(2),
        },
        Message::OutcomeReport {
            txn: vt(240, 4),
            outcome: Some(TxnOutcome::Committed),
        },
        Message::OutcomeReport {
            txn: vt(240, 4),
            outcome: None,
        },
        Message::OutcomeDecision {
            txn: vt(240, 4),
            outcome: TxnOutcome::Aborted,
        },
        Message::GraphPropose {
            ballot: u64::MAX,
            coordinator: SiteId(1),
            target: name(2, 9),
            coord_target: name(1, 3),
            graph: sample_graph(),
            at: vt(250, 1),
        },
        Message::GraphAck {
            ballot: u64::MAX,
            coord_target: name(1, 3),
        },
        Message::Heartbeat,
        Message::GraphApply {
            ballot: 3,
            target: name(2, 9),
            graph: sample_graph(),
            at: vt(250, 1),
        },
        Message::RejoinRequest {
            frontier: vt(260, 2),
            have: vec![vt(255, 1), vt(260, 2)],
            serve: true,
        },
        Message::RejoinRequest {
            frontier: VirtualTime::ZERO,
            have: vec![],
            serve: false,
        },
        Message::RejoinAck {
            frontier: vt(261, 3),
            have: vec![vt(255, 1)],
        },
        Message::CatchUp {
            commits: vec![TxnPropagate {
                txn: vt(262, 1),
                origin: SiteId(1),
                updates: sample_updates(),
                reads: vec![],
                delegate: None,
            }],
            rejoined: false,
        },
        Message::CatchUp {
            commits: vec![],
            rejoined: true,
        },
    ];
    msgs.into_iter()
        .enumerate()
        .map(|(i, msg)| Envelope {
            from: SiteId(1 + (i as u32 % 4)),
            to: SiteId(2),
            clock: vt(300 + i as u64, 1 + (i as u32 % 4)),
            msg,
            span: (i % 3 == 0).then_some(SpanCtx {
                origin: SiteId(1 + (i as u32 % 4)),
                seq: 300 + i as u64,
                hop: 0,
            }),
        })
        .collect()
}

// ---- deterministic coverage: every variant --------------------------------

/// Every `Message` variant survives `encode_envelope_v2` →
/// `decode_envelope_v2` unchanged.
#[test]
fn every_message_variant_round_trips_through_v2() {
    for env in sample_envelopes() {
        let bytes = wire::encode_envelope_v2(&env);
        let back = wire::decode_envelope_v2(&bytes).unwrap();
        assert_eq!(back, env, "v2 round trip mangled {:?}", env.msg);
    }
}

/// A Batch frame holding every variant plus one DataV2 frame per variant
/// all survive a one-byte-at-a-time stream.
#[test]
fn batch_of_every_variant_survives_one_byte_chunks() {
    let envs = sample_envelopes();
    let parts: Vec<Vec<u8>> = envs.iter().map(wire::encode_envelope_v2).collect();
    let mut stream = encode_frame(FrameKind::Batch, &wire::encode_batch_parts(&parts));
    for part in &parts {
        stream.extend_from_slice(&encode_frame(FrameKind::DataV2, part));
    }
    let mut reader = FrameReader::new();
    let mut decoded = Vec::new();
    for byte in stream.chunks(1) {
        reader.feed(byte);
        while let Some(frame) = reader.next_frame().unwrap() {
            match frame.kind {
                FrameKind::Batch => decoded.extend(wire::decode_batch(&frame.payload).unwrap()),
                FrameKind::DataV2 => {
                    decoded.push(wire::decode_envelope_v2(&frame.payload).unwrap())
                }
                other => panic!("unexpected frame kind {other:?}"),
            }
        }
    }
    assert_eq!(decoded.len(), envs.len() * 2);
    assert_eq!(&decoded[..envs.len()], &envs[..]);
    assert_eq!(&decoded[envs.len()..], &envs[..]);
    assert_eq!(reader.buffered(), 0);
}

// ---- property tests: arbitrary contents under arbitrary chunking ---------

fn arb_site() -> impl Strategy<Value = SiteId> {
    (0u32..9).prop_map(SiteId)
}

fn arb_vt() -> impl Strategy<Value = VirtualTime> {
    (0u64..1_000_000, 0u32..9).prop_map(|(l, s)| vt(l, s))
}

fn arb_name() -> impl Strategy<Value = ObjectName> {
    (0u32..9, 0u64..1000).prop_map(|(s, q)| name(s, q))
}

fn arb_node() -> impl Strategy<Value = NodeRef> {
    (arb_site(), arb_name()).prop_map(|(s, o)| NodeRef::new(s, o))
}

fn arb_scalar() -> impl Strategy<Value = ScalarValue> {
    prop_oneof![
        any::<i64>().prop_map(ScalarValue::Int),
        (-1.0e12f64..1.0e12).prop_map(ScalarValue::Real),
        "[a-zA-Zα-ω0-9 ]{0,12}".prop_map(ScalarValue::Str),
    ]
}

fn arb_path() -> impl Strategy<Value = Path> {
    prop::collection::vec(
        prop_oneof![
            (0usize..8, arb_vt()).prop_map(|(index, tag)| PathElem::Index { index, tag }),
            "[a-z]{1,6}".prop_map(PathElem::Key),
        ],
        0..4,
    )
    .prop_map(Path::from)
}

fn arb_addr() -> impl Strategy<Value = ObjectAddr> {
    prop_oneof![
        arb_name().prop_map(ObjectAddr::Direct),
        (arb_name(), arb_path()).prop_map(|(root, path)| ObjectAddr::Indirect { root, path }),
    ]
}

fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Blueprint::Int),
        (-1.0e6f64..1.0e6).prop_map(Blueprint::Real),
        "[a-z]{0,6}".prop_map(Blueprint::Str),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Blueprint::List),
            prop::collection::vec(("[a-z]{1,4}".prop_map(String::from), inner), 0..3)
                .prop_map(Blueprint::Tuple),
        ]
    })
}

fn arb_assoc() -> impl Strategy<Value = AssocSnapshot> {
    prop::collection::vec(
        (
            (0u64..100).prop_map(RelationId),
            prop::collection::vec(arb_node(), 0..3),
            "[a-z ]{0,8}".prop_map(String::from),
        ),
        0..3,
    )
    .prop_map(AssocSnapshot::from_wire_parts)
}

fn arb_tree() -> impl Strategy<Value = TreeSnapshot> {
    let leaf = prop_oneof![
        arb_scalar().prop_map(TreeSnapshot::Scalar),
        arb_assoc().prop_map(TreeSnapshot::Assoc),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec((arb_vt(), inner.clone()), 0..3).prop_map(TreeSnapshot::List),
            prop::collection::vec(("[a-z]{1,4}".prop_map(String::from), inner), 0..3)
                .prop_map(TreeSnapshot::Tuple),
        ]
    })
}

fn arb_graph() -> impl Strategy<Value = ReplicationGraph> {
    (
        prop::collection::vec(arb_node(), 1..4),
        prop::collection::vec(
            (arb_node(), arb_node(), (0u64..100).prop_map(RelationId)),
            0..3,
        ),
    )
        .prop_map(|(nodes, edges)| ReplicationGraph::from_parts(nodes, edges))
}

fn arb_wire_op() -> impl Strategy<Value = WireOp> {
    prop_oneof![
        arb_scalar().prop_map(WireOp::SetScalar),
        (0usize..10, arb_blueprint())
            .prop_map(|(index, child)| WireOp::ListInsert { index, child }),
        arb_vt().prop_map(|tag| WireOp::ListRemove { tag }),
        ("[a-z]{1,4}".prop_map(String::from), arb_blueprint())
            .prop_map(|(key, child)| WireOp::TuplePut { key, child }),
        "[a-z]{1,4}".prop_map(|key| WireOp::TupleRemove { key }),
        arb_assoc().prop_map(WireOp::SetAssoc),
        arb_tree().prop_map(WireOp::SetTree),
    ]
}

fn arb_update() -> impl Strategy<Value = UpdateItem> {
    (arb_addr(), arb_vt(), arb_vt(), arb_wire_op(), any::<bool>()).prop_map(
        |(addr, t_r, t_g, op, needs_check)| UpdateItem {
            addr,
            t_r,
            t_g,
            op,
            needs_check,
        },
    )
}

fn arb_read() -> impl Strategy<Value = ReadItem> {
    (arb_addr(), arb_vt(), arb_vt(), prop::option::of(arb_vt()))
        .prop_map(|(addr, t_r, t_g, hi)| ReadItem { addr, t_r, t_g, hi })
}

/// One read of a snapshot walking composites, from small choices so that
/// neighbours share roots, follow each other's indices and repeat `hi`s as
/// often as they differ: which of two roots, the address's shape (direct,
/// one list index, tuple key, two levels), the index, the tag, whether
/// `t_r` is the tag and `t_g` is `t_r`, and one of three `hi`s.
fn walk_read(
    (root, shape, index, tag, tr_is_tag, tg_is_tr, hi): (u64, u8, usize, u64, bool, bool, u8),
) -> ReadItem {
    let (root, tag) = (name(1, root % 2), vt(10 + tag % 4, 1));
    let elem = PathElem::Index { index, tag };
    let addr = match shape % 4 {
        0 => ObjectAddr::Direct(root),
        1 => ObjectAddr::Indirect {
            root,
            path: Path::from(vec![elem]),
        },
        2 => ObjectAddr::Indirect {
            root,
            path: Path::from(vec![PathElem::Key(format!("k{index}"))]),
        },
        _ => ObjectAddr::Indirect {
            root,
            path: Path::from(vec![PathElem::Key("row".into()), elem]),
        },
    };
    let t_r = if tr_is_tag {
        tag
    } else {
        vt(20 + tag.lamport, 2)
    };
    ReadItem {
        addr,
        t_r,
        t_g: if tg_is_tr { t_r } else { vt(5, 1) },
        hi: [None, Some(vt(90, 2)), Some(vt(91, 3))][hi as usize % 3],
    }
}

fn arb_walk_reads() -> impl Strategy<Value = Vec<ReadItem>> {
    prop::collection::vec(
        (
            0u64..2,
            0u8..4,
            0usize..4,
            0u64..4,
            any::<bool>(),
            any::<bool>(),
            0u8..3,
        )
            .prop_map(walk_read),
        0..12,
    )
}

fn snapshot_env(reads: Vec<ReadItem>) -> Envelope {
    Envelope {
        from: SiteId(2),
        to: SiteId(1),
        clock: vt(50, 2),
        msg: Message::SnapshotConfirm {
            subject: vt(49, 2),
            origin: SiteId(2),
            reads: reads.into(),
        },
        span: None,
    }
}

/// Whole lists walked in order, as a snapshot over one reads them: every
/// child after the first sets all five flag bits.
fn arb_list_walk() -> impl Strategy<Value = Vec<ReadItem>> {
    (0usize..300, 0u64..100_000, 0u64..100_000)
        .prop_map(|(children, first_tag, hi)| list_children_reads(children, first_tag, vt(hi, 2)))
}

/// The snapshot-read coding as it was written when a request held a
/// `Vec<ReadItem>`: the reference a [`SnapshotReads`] must reproduce byte
/// for byte (codec module docs, "Snapshot reads").
fn reference_snapshot_reads(o: &mut Vec<u8>, reads: &[ReadItem]) {
    fn put_vt(o: &mut Vec<u8>, t: &VirtualTime) {
        put_varint(o, t.lamport);
        put_varint(o, t.site.0 as u64);
    }
    fn put_name(o: &mut Vec<u8>, n: &ObjectName) {
        put_varint(o, n.site.0 as u64);
        put_varint(o, n.seq);
    }
    fn put_hi(o: &mut Vec<u8>, hi: Option<VirtualTime>) {
        match hi {
            None => o.push(0),
            Some(hi) => {
                o.push(1);
                put_vt(o, &hi);
            }
        }
    }
    fn put_addr(o: &mut Vec<u8>, a: &ObjectAddr) {
        match a {
            ObjectAddr::Direct(n) => {
                o.push(0);
                put_name(o, n);
            }
            ObjectAddr::Indirect { root, path } => {
                o.push(1);
                put_name(o, root);
                put_varint(o, path.elems().len() as u64);
                for e in path.elems() {
                    match e {
                        PathElem::Index { index, tag } => {
                            o.push(0);
                            put_varint(o, *index as u64);
                            put_vt(o, tag);
                        }
                        PathElem::Key(k) => {
                            o.push(1);
                            put_varint(o, k.len() as u64);
                            o.extend_from_slice(k.as_bytes());
                        }
                    }
                }
            }
        }
    }
    let root_and_index = |a: &ObjectAddr| match a {
        ObjectAddr::Direct(n) => (*n, None),
        ObjectAddr::Indirect { root, path } => match path.elems() {
            [PathElem::Index { index, tag }] => (*root, Some((*index, *tag))),
            _ => (*root, None),
        },
    };
    put_varint(o, reads.len() as u64);
    let mut prev: Option<(ObjectName, Option<usize>, Option<VirtualTime>)> = None;
    for r in reads {
        let (root, index) = root_and_index(&r.addr);
        let mut flags = 0;
        if let (Some((index, tag)), Some((prev_root, prev_index, _))) = (index, prev) {
            if prev_root == root {
                flags |= 0x01;
                if prev_index.is_some_and(|i| i.checked_add(1) == Some(index)) {
                    flags |= 0x02;
                }
                if r.t_r == tag {
                    flags |= 0x04;
                }
            }
        }
        if r.t_g == r.t_r {
            flags |= 0x08;
        }
        if prev.is_some_and(|(_, _, hi)| hi == r.hi) {
            flags |= 0x10;
        }
        o.push(flags);
        match index {
            Some((index, tag)) if flags & 0x01 != 0 => {
                if flags & 0x02 == 0 {
                    put_varint(o, index as u64);
                }
                put_vt(o, &tag);
            }
            _ => put_addr(o, &r.addr),
        }
        if flags & 0x04 == 0 {
            put_vt(o, &r.t_r);
        }
        if flags & 0x08 == 0 {
            put_vt(o, &r.t_g);
        }
        if flags & 0x10 == 0 {
            put_hi(o, r.hi);
        }
        prev = Some((root, index.map(|(i, _)| i), r.hi));
    }
}

/// The same walks as [`arb_walk_reads`], drawn from a fixed sequence, so
/// the test can pin that the short forms are exercised.
#[test]
fn snapshot_reads_round_trip_over_scripted_walks() {
    let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
    let mut draw = |below: u64| rng.below(below);
    let mut coded_short = 0;
    for _ in 0..500 {
        let reads: Vec<ReadItem> = (0..draw(12))
            .map(|_| {
                walk_read((
                    draw(2),
                    draw(4) as u8,
                    draw(4) as usize,
                    draw(4),
                    draw(2) == 0,
                    draw(2) == 0,
                    draw(3) as u8,
                ))
            })
            .collect();
        let env = snapshot_env(reads.clone());
        let bytes = wire::encode_envelope_v2(&env);
        assert_eq!(wire::decode_envelope_v2(&bytes).unwrap(), env);
        // Every cut is an error, never a shorter list.
        for cut in 0..bytes.len() {
            assert!(wire::decode_envelope_v2(&bytes[..cut]).is_err());
        }
        let full = wire::encode_envelope_v2(&txn_reading(reads));
        coded_short += usize::from(bytes.len() < full.len());
    }
    assert!(coded_short > 400, "the walks exercise the short forms");
}

/// A transaction that only reads `reads`: the same items in the layout
/// every item has outside a snapshot.
fn txn_reading(reads: Vec<ReadItem>) -> Envelope {
    Envelope {
        msg: Message::Txn(TxnPropagate {
            txn: vt(49, 2),
            origin: SiteId(2),
            updates: vec![],
            reads,
            delegate: None,
        }),
        ..snapshot_env(vec![])
    }
}

fn arb_kind() -> impl Strategy<Value = SubjectKind> {
    prop_oneof![Just(SubjectKind::Txn), Just(SubjectKind::Snapshot)]
}

fn arb_outcome() -> impl Strategy<Value = TxnOutcome> {
    prop_oneof![Just(TxnOutcome::Committed), Just(TxnOutcome::Aborted)]
}

/// Every one of the nineteen `Message` variants, with arbitrary contents.
fn arb_msg() -> impl Strategy<Value = Message> {
    let group_a = prop_oneof![
        (
            arb_vt(),
            arb_site(),
            prop::collection::vec(arb_update(), 0..3),
            prop::collection::vec(arb_read(), 0..3),
            prop::option::of(
                prop::collection::vec(arb_site(), 0..3).prop_map(|notify| Delegate { notify })
            ),
        )
            .prop_map(|(txn, origin, updates, reads, delegate)| {
                Message::Txn(TxnPropagate {
                    txn,
                    origin,
                    updates,
                    reads,
                    delegate,
                })
            }),
        (
            arb_vt(),
            arb_site(),
            prop::collection::vec(arb_read(), 0..3)
        )
            .prop_map(|(subject, origin, reads)| Message::SnapshotConfirm {
                subject,
                origin,
                reads: reads.into()
            }),
        (arb_vt(), arb_kind()).prop_map(|(subject, kind)| Message::Confirm { subject, kind }),
        (arb_vt(), arb_kind()).prop_map(|(subject, kind)| Message::Deny { subject, kind }),
        arb_vt().prop_map(|txn| Message::Commit { txn }),
        arb_vt().prop_map(|txn| Message::Abort { txn }),
        (
            arb_vt(),
            arb_site(),
            (0u64..100).prop_map(RelationId),
            arb_node(),
            arb_graph(),
            arb_name(),
            prop::option::of(arb_name()),
        )
            .prop_map(
                |(txn, origin, relation, a_node, a_graph, b_object, assoc_object)| {
                    Message::JoinRequest {
                        txn,
                        origin,
                        relation,
                        a_node,
                        a_graph,
                        b_object,
                        assoc_object,
                    }
                }
            ),
        (
            arb_vt(),
            any::<bool>(),
            arb_node(),
            arb_graph(),
            prop::option::of(arb_tree()),
            arb_vt(),
            any::<bool>(),
            any::<u32>(),
            prop::collection::vec(arb_site(), 0..3),
        )
            .prop_map(
                |(
                    txn,
                    ok,
                    b_node,
                    merged,
                    b_value,
                    b_value_vt,
                    b_value_committed,
                    confirms_expected,
                    extra_affected,
                )| Message::JoinReply {
                    txn,
                    ok,
                    b_node,
                    merged,
                    b_value,
                    b_value_vt,
                    b_value_committed,
                    confirms_expected,
                    extra_affected,
                }
            ),
    ]
    .boxed();
    let group_b = prop_oneof![
        (
            arb_vt(),
            arb_site(),
            arb_name(),
            arb_graph(),
            arb_vt(),
            any::<bool>(),
            prop::option::of(arb_tree()),
            arb_vt(),
        )
            .prop_map(
                |(txn, origin, target, graph, t_g, needs_check, adopt_value, adopt_value_vt)| {
                    Message::GraphUpdate {
                        txn,
                        origin,
                        target,
                        graph,
                        t_g,
                        needs_check,
                        adopt_value,
                        adopt_value_vt,
                    }
                }
            ),
        (arb_vt(), arb_site()).prop_map(|(txn, asker)| Message::OutcomeQuery { txn, asker }),
        (arb_vt(), prop::option::of(arb_outcome()))
            .prop_map(|(txn, outcome)| Message::OutcomeReport { txn, outcome }),
        (arb_vt(), arb_outcome())
            .prop_map(|(txn, outcome)| Message::OutcomeDecision { txn, outcome }),
        (
            any::<u64>(),
            arb_site(),
            arb_name(),
            arb_name(),
            arb_graph(),
            arb_vt(),
        )
            .prop_map(|(ballot, coordinator, target, coord_target, graph, at)| {
                Message::GraphPropose {
                    ballot,
                    coordinator,
                    target,
                    coord_target,
                    graph,
                    at,
                }
            }),
        (any::<u64>(), arb_name()).prop_map(|(ballot, coord_target)| Message::GraphAck {
            ballot,
            coord_target
        }),
        Just(Message::Heartbeat),
        (any::<u64>(), arb_name(), arb_graph(), arb_vt()).prop_map(
            |(ballot, target, graph, at)| Message::GraphApply {
                ballot,
                target,
                graph,
                at
            }
        ),
        (
            arb_vt(),
            prop::collection::vec(arb_vt(), 0..4),
            any::<bool>(),
        )
            .prop_map(|(frontier, have, serve)| Message::RejoinRequest {
                frontier,
                have,
                serve
            }),
        (arb_vt(), prop::collection::vec(arb_vt(), 0..4))
            .prop_map(|(frontier, have)| Message::RejoinAck { frontier, have }),
        (
            prop::collection::vec(
                (
                    arb_vt(),
                    arb_site(),
                    prop::collection::vec(arb_update(), 0..3),
                )
                    .prop_map(|(txn, origin, updates)| TxnPropagate {
                        txn,
                        origin,
                        updates,
                        reads: vec![],
                        delegate: None,
                    }),
                0..3,
            ),
            any::<bool>(),
        )
            .prop_map(|(commits, rejoined)| Message::CatchUp { commits, rejoined }),
    ]
    .boxed();
    prop_oneof![group_a, group_b]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (arb_site(), arb_site(), arb_vt(), arb_msg(), arb_span()).prop_map(
        |(from, to, clock, msg, span)| Envelope {
            from,
            to,
            clock,
            msg,
            span,
        },
    )
}

fn arb_span() -> impl Strategy<Value = Option<SpanCtx>> {
    prop::option::of(
        (arb_site(), any::<u64>(), 0u32..4).prop_map(|(origin, seq, hop)| SpanCtx {
            origin,
            seq,
            hop,
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary envelopes, encoded as either individual DataV2 frames or
    /// one Batch frame, survive arbitrary stream fragmentation.
    #[test]
    fn v2_round_trips_arbitrary_envelopes_under_chunking(
        envs in prop::collection::vec(arb_envelope(), 1..5),
        chunk in 1usize..48,
        batched in any::<bool>(),
    ) {
        let mut stream = Vec::new();
        if batched {
            let parts: Vec<Vec<u8>> = envs.iter().map(wire::encode_envelope_v2).collect();
            stream.extend_from_slice(&encode_frame(FrameKind::Batch, &wire::encode_batch_parts(&parts)));
        } else {
            for env in &envs {
                stream.extend_from_slice(&encode_frame(FrameKind::DataV2, &wire::encode_envelope_v2(env)));
            }
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.feed(piece);
            while let Some(frame) = reader.next_frame().unwrap() {
                match frame.kind {
                    FrameKind::Batch => decoded.extend(wire::decode_batch(&frame.payload).unwrap()),
                    FrameKind::DataV2 => decoded.push(wire::decode_envelope_v2(&frame.payload).unwrap()),
                    other => prop_assert!(false, "unexpected frame kind {other:?}"),
                }
            }
        }
        prop_assert_eq!(&decoded, &envs);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// A snapshot's reads are coded against each other; whatever the mix
    /// of shapes, roots and `hi`s, they come back as they went in.
    #[test]
    fn snapshot_reads_round_trip(reads in arb_walk_reads(), full in prop::collection::vec(arb_read(), 0..6)) {
        for reads in [reads, full] {
            let env = snapshot_env(reads);
            let bytes = wire::encode_envelope_v2(&env);
            prop_assert_eq!(wire::decode_envelope_v2(&bytes).unwrap(), env);
        }
    }

    /// Pushing items one at a time writes the reference coding of the
    /// whole sequence, whether a list child goes through `push` or
    /// `push_child`; `iter()` gives the items back in order, and
    /// `targets()` gives every list child back as its key.
    #[test]
    fn pushed_snapshot_reads_are_the_reference_coding(
        walk in arb_walk_reads(),
        full in prop::collection::vec(arb_read(), 0..6),
        list in arb_list_walk(),
    ) {
        for items in [walk, full, list] {
            let mut reads = SnapshotReads::new();
            let mut by_key = SnapshotReads::new();
            for item in &items {
                reads.push(item);
                match ReadTarget::from(item.addr.clone()) {
                    ReadTarget::Child { root, index, tag } if item.t_g == item.t_r => {
                        by_key.push_child(root, index, tag, item.t_r, item.hi);
                    }
                    _ => by_key.push(item),
                }
            }
            prop_assert_eq!(&by_key, &reads);
            let targets: Vec<SnapshotRead> = items
                .iter()
                .map(|r| SnapshotRead {
                    target: r.addr.clone().into(),
                    t_r: r.t_r,
                    t_g: r.t_g,
                    hi: r.hi,
                })
                .collect();
            prop_assert_eq!(reads.targets().collect::<Vec<_>>(), targets);
            prop_assert_eq!(reads.len(), items.len());
            prop_assert_eq!(reads.iter().collect::<Vec<_>>(), items.clone());
            // The envelope's bytes are its header, then the reads' coding.
            let mut expected = wire::encode_envelope_v2(&snapshot_env(vec![]));
            expected.pop(); // the empty request's count
            reference_snapshot_reads(&mut expected, &items);
            let built = Envelope {
                msg: Message::SnapshotConfirm { subject: vt(49, 2), origin: SiteId(2), reads },
                ..snapshot_env(vec![])
            };
            prop_assert_eq!(wire::encode_envelope_v2(&built), expected);
        }
    }

    /// The deterministic every-variant corpus also survives every chunk size
    /// the strategy picks — variant coverage and fragmentation composed.
    #[test]
    fn every_variant_round_trips_v2_under_arbitrary_chunking(chunk in 1usize..64) {
        let envs = sample_envelopes();
        let mut stream = Vec::new();
        for env in &envs {
            stream.extend_from_slice(&encode_frame(FrameKind::DataV2, &wire::encode_envelope_v2(env)));
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.feed(piece);
            while let Some(frame) = reader.next_frame().unwrap() {
                prop_assert_eq!(frame.kind, FrameKind::DataV2);
                decoded.push(wire::decode_envelope_v2(&frame.payload).unwrap());
            }
        }
        prop_assert_eq!(&decoded, &envs);
    }

    /// A truncated frame never yields; the reader waits for the rest.
    #[test]
    fn truncated_frames_do_not_yield(cut in 0usize..10) {
        let payload = b"truncation probe";
        let bytes = encode_frame(FrameKind::DataV2, payload);
        let cut = cut.min(bytes.len().saturating_sub(1));
        let mut reader = FrameReader::new();
        reader.feed(&bytes[..bytes.len() - 1 - cut]);
        prop_assert_eq!(reader.next_frame().unwrap(), None);
        // Completing the bytes completes the frame.
        reader.feed(&bytes[bytes.len() - 1 - cut..]);
        let frame = reader.next_frame().unwrap().unwrap();
        prop_assert_eq!(frame.payload.as_slice(), payload.as_slice());
    }

    /// Any single flipped payload bit is caught by the CRC.
    #[test]
    fn corrupt_payload_is_rejected(pos in 0usize..16, bit in 0u8..8) {
        let mut bytes = encode_frame(FrameKind::DataV2, b"crc integrity 16");
        let idx = HEADER_LEN + (pos % 16);
        bytes[idx] ^= 1 << bit;
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        prop_assert!(matches!(reader.next_frame(), Err(WireError::BadCrc { .. })));
    }
}

// ---- malformed frames -------------------------------------------------------

#[test]
fn bad_magic_version_kind_and_oversized_are_rejected() {
    let good = encode_frame(FrameKind::Ping, b"");

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    let mut r = FrameReader::new();
    r.feed(&bad_magic);
    assert!(matches!(r.next_frame(), Err(WireError::BadMagic(_))));

    // Version 1 is legal on control frames and 2 on data frames; anything
    // else — the other kind's version included — must be rejected.
    let mut bad_version = good.clone();
    bad_version[4] = 99;
    let mut r = FrameReader::new();
    r.feed(&bad_version);
    assert_eq!(r.next_frame(), Err(WireError::UnsupportedVersion(99)));

    let mut bad_kind = good.clone();
    bad_kind[5] = 0xEE;
    let mut r = FrameReader::new();
    r.feed(&bad_kind);
    assert_eq!(r.next_frame(), Err(WireError::UnknownKind(0xEE)));

    // Kind 2 was codec 1's JSON data frame. The byte stays reserved: a
    // frame bearing it is refused, not decoded.
    let mut reserved_kind = good.clone();
    reserved_kind[5] = 2;
    let mut r = FrameReader::new();
    r.feed(&reserved_kind);
    assert_eq!(r.next_frame(), Err(WireError::UnknownKind(2)));

    // An absurd length field is rejected from the header alone — before
    // any payload arrives, so no allocation can be provoked.
    let mut oversized = good;
    oversized[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let mut r = FrameReader::new();
    r.feed(&oversized[..HEADER_LEN]);
    assert_eq!(r.next_frame(), Err(WireError::Oversized(MAX_PAYLOAD + 1)));
}

/// After one malformed frame the stream is unrecoverable (framing is
/// lost), so the reader stays poisoned even if valid bytes follow.
#[test]
fn reader_stays_poisoned_after_garbage() {
    let mut r = FrameReader::new();
    r.feed(b"not a frame at all");
    assert!(r.next_frame().is_err());
    r.feed(&encode_frame(FrameKind::Ping, b""));
    assert!(r.next_frame().is_err(), "poisoned reader must not resync");
}

#[test]
fn write_then_read_frame_round_trips_over_io() {
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, FrameKind::DataV2, b"io round trip").unwrap();
    wire::write_frame(&mut buf, FrameKind::Ping, b"").unwrap();
    let mut cursor = Cursor::new(buf);
    let a = wire::read_frame(&mut cursor).unwrap();
    assert_eq!(
        a,
        Frame {
            kind: FrameKind::DataV2,
            payload: b"io round trip".to_vec()
        }
    );
    let b = wire::read_frame(&mut cursor).unwrap();
    assert_eq!(b.kind, FrameKind::Ping);
    // EOF mid-header surfaces as an io error, not a panic.
    assert!(wire::read_frame(&mut cursor).is_err());
}

#[test]
fn corrupt_frame_over_io_is_invalid_data() {
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, FrameKind::DataV2, b"corrupt me").unwrap();
    let last = buf.len() - 1;
    buf[last] ^= 0x01;
    let err = wire::read_frame(&mut Cursor::new(buf)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn garbage_payload_is_a_codec_error_not_a_panic() {
    assert!(matches!(
        wire::decode_envelope_v2(b"\xff\xfe not an envelope"),
        Err(WireError::Codec(_))
    ));
    assert!(matches!(
        wire::decode_batch(b"\xff\xff\xff\xff\x0f"),
        Err(WireError::Codec(_))
    ));
    assert!(matches!(
        wire::decode_hello(b"too many bytes"),
        Err(WireError::Codec(_))
    ));
}

#[test]
fn composites_nest_to_the_codec_bound_and_no_deeper() {
    // The decoder recurses into lists and tuples; a peer must not be able
    // to walk it off the stack with a few bytes a level.
    let insert = |levels: u32| {
        let mut child = Blueprint::Int(1);
        for _ in 0..levels {
            child = Blueprint::List(vec![child]);
        }
        wire::encode_envelope_v2(&Envelope {
            from: SiteId(1),
            to: SiteId(2),
            clock: vt(1, 1),
            msg: Message::Txn(TxnPropagate {
                txn: vt(1, 1),
                origin: SiteId(1),
                updates: vec![UpdateItem {
                    addr: ObjectAddr::Direct(name(2, 0)),
                    t_r: vt(1, 1),
                    t_g: VirtualTime::ZERO,
                    op: WireOp::ListInsert { index: 0, child },
                    needs_check: false,
                }],
                reads: vec![],
                delegate: None,
            }),
            span: None,
        })
    };
    assert!(wire::decode_envelope_v2(&insert(MAX_NESTING)).is_ok());
    assert!(matches!(
        wire::decode_envelope_v2(&insert(MAX_NESTING + 1)),
        Err(WireError::Codec(_))
    ));
}

// ---- golden snapshots: the frame header and control frames ----------------
//
// If any of these bytes change, bump the protocol version — a silent layout
// change would let two sites with different builds corrupt each other's
// streams undetected.

#[test]
fn golden_ping_frame() {
    assert_eq!(
        encode_frame(FrameKind::Ping, b""),
        [0x44, 0x43, 0x41, 0x46, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
        "ping frame: magic 'DCAF' | version 1 | kind 3 | len 0 | crc 0"
    );
}

#[test]
fn golden_hello_frame() {
    assert_eq!(
        encode_frame(
            FrameKind::Hello,
            &wire::encode_hello_v2(SiteId(7), CODEC_VERSION)
        ),
        [
            0x44, 0x43, 0x41, 0x46, 0x01, 0x01, 0x05, 0x00, 0x00, 0x00, 0xb7, 0x7a, 0x0b, 0xed,
            0x07, 0x00, 0x00, 0x00, 0x03,
        ],
        "hello frame: magic | version 1 | kind 1 | len 5 | crc | site id LE | codec 3"
    );
}

#[test]
fn golden_header_constants() {
    assert_eq!(MAGIC, *b"DCAF");
    assert_eq!(PROTOCOL_VERSION, 1);
    assert_eq!(CODEC_VERSION, 3);
    assert_eq!(HEADER_LEN, 14);
    // CRC-32 (IEEE) check value, the classic "123456789" vector.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

// ---- golden snapshots: protocol version 2 is pinned ----------------------
//
// These bytes are the v2 wire format. If any of them change, bump
// `PROTOCOL_VERSION_V2` — a silent layout change would let two sites with
// different builds corrupt each other's streams undetected.

fn golden_commit_env() -> Envelope {
    Envelope {
        from: SiteId(3),
        to: SiteId(1),
        clock: vt(42, 3),
        msg: Message::Commit { txn: vt(41, 3) },
        span: None,
    }
}

fn golden_heartbeat_env() -> Envelope {
    Envelope {
        from: SiteId(1),
        to: SiteId(2),
        clock: vt(7, 1),
        msg: Message::Heartbeat,
        span: None,
    }
}

#[test]
fn golden_v2_commit_payload() {
    let golden = [0x03, 0x01, 0x2a, 0x03, 0x05, 0x29, 0x03];
    assert_eq!(
        wire::encode_envelope_v2(&golden_commit_env()),
        golden,
        "v2 commit: from | to | clock lamport varint | clock site | tag 5 | txn varint | txn site"
    );
    assert_eq!(
        wire::decode_envelope_v2(&golden).unwrap(),
        golden_commit_env()
    );
}

#[test]
fn golden_v2_heartbeat_payload() {
    let golden = [0x01, 0x02, 0x07, 0x01, 0x0f];
    assert_eq!(
        wire::encode_envelope_v2(&golden_heartbeat_env()),
        golden,
        "v2 heartbeat: five bytes total — envelope header plus tag 15"
    );
    assert_eq!(
        wire::decode_envelope_v2(&golden).unwrap(),
        golden_heartbeat_env()
    );
}

#[test]
fn golden_v2_rejoin_request_payload() {
    let env = Envelope {
        from: SiteId(3),
        to: SiteId(1),
        clock: vt(42, 3),
        msg: Message::RejoinRequest {
            frontier: vt(41, 3),
            have: vec![vt(40, 1), vt(41, 3)],
            serve: true,
        },
        span: None,
    };
    let golden = [
        0x03, 0x01, 0x2a, 0x03, // from | to | clock
        0x11, // tag 17 = RejoinRequest
        0x29, 0x03, // frontier
        0x02, 0x28, 0x01, 0x29, 0x03, // have: count | vt | vt
        0x01, // serve = true
    ];
    assert_eq!(wire::encode_envelope_v2(&env), golden);
    assert_eq!(wire::decode_envelope_v2(&golden).unwrap(), env);
}

#[test]
fn golden_v2_rejoin_ack_payload() {
    let env = Envelope {
        from: SiteId(1),
        to: SiteId(3),
        clock: vt(43, 1),
        msg: Message::RejoinAck {
            frontier: vt(41, 3),
            have: vec![vt(40, 1)],
        },
        span: None,
    };
    let golden = [
        0x01, 0x03, 0x2b, 0x01, // from | to | clock
        0x12, // tag 18 = RejoinAck
        0x29, 0x03, // frontier
        0x01, 0x28, 0x01, // have: count | vt
    ];
    assert_eq!(wire::encode_envelope_v2(&env), golden);
    assert_eq!(wire::decode_envelope_v2(&golden).unwrap(), env);
}

#[test]
fn golden_v2_catch_up_payload() {
    let env = Envelope {
        from: SiteId(3),
        to: SiteId(1),
        clock: vt(44, 3),
        msg: Message::CatchUp {
            commits: vec![TxnPropagate {
                txn: vt(41, 3),
                origin: SiteId(3),
                updates: vec![],
                reads: vec![],
                delegate: None,
            }],
            rejoined: true,
        },
        span: None,
    };
    let golden = [
        0x03, 0x01, 0x2c, 0x03, // from | to | clock
        0x13, // tag 19 = CatchUp
        0x01, // one commit
        0x29, 0x03, // txn
        0x03, // origin
        0x00, // no updates
        0x00, // no reads
        0x00, // no delegate
        0x01, // rejoined = true
    ];
    assert_eq!(wire::encode_envelope_v2(&env), golden);
    assert_eq!(wire::decode_envelope_v2(&golden).unwrap(), env);
}

#[test]
fn golden_v2_batch_payload() {
    let golden = [
        0x02, // two envelopes
        0x07, 0x03, 0x01, 0x2a, 0x03, 0x05, 0x29, 0x03, // len 7 | commit
        0x05, 0x01, 0x02, 0x07, 0x01, 0x0f, // len 5 | heartbeat
    ];
    assert_eq!(
        wire::encode_batch(&[golden_commit_env(), golden_heartbeat_env()]),
        golden
    );
    assert_eq!(
        wire::decode_batch(&golden).unwrap(),
        vec![golden_commit_env(), golden_heartbeat_env()]
    );
}

#[test]
fn golden_v2_commit_payload_with_span() {
    let env = Envelope {
        span: Some(SpanCtx {
            origin: SiteId(3),
            seq: 41,
            hop: 0,
        }),
        ..golden_commit_env()
    };
    let golden = [
        0x03, 0x01, 0x2a, 0x03, 0x05, 0x29, 0x03, // span-less commit envelope
        0x03, 0x29, 0x00, // trailing span: origin 3 | seq 41 varint | hop 0
    ];
    assert_eq!(
        wire::encode_envelope_v2(&env),
        golden,
        "v2 span rides as a trailing section: origin site | seq varint | hop varint"
    );
    assert_eq!(wire::decode_envelope_v2(&golden).unwrap(), env);
}

/// A spanned envelope is the span-less encoding plus a trailing section, so
/// span-less bytes decode as `span: None`.
#[test]
fn span_is_a_trailing_section() {
    let spanned = Envelope {
        span: Some(SpanCtx {
            origin: SiteId(3),
            seq: 41,
            hop: 0,
        }),
        ..golden_commit_env()
    };
    let plain_bytes = wire::encode_envelope_v2(&golden_commit_env());
    let spanned_bytes = wire::encode_envelope_v2(&spanned);
    assert_eq!(&spanned_bytes[..plain_bytes.len()], &plain_bytes[..]);
    assert_eq!(wire::decode_envelope_v2(&plain_bytes).unwrap().span, None);
}

#[test]
fn golden_v2_data_frame() {
    assert_eq!(
        encode_frame(
            FrameKind::DataV2,
            &wire::encode_envelope_v2(&golden_commit_env())
        ),
        [
            0x44, 0x43, 0x41, 0x46, // magic 'DCAF'
            0x02, // protocol version 2
            0x04, // kind 4 = DataV2
            0x07, 0x00, 0x00, 0x00, // payload length 7, LE
            0xb7, 0x82, 0x98, 0x25, // CRC-32 of the payload, LE
            0x03, 0x01, 0x2a, 0x03, 0x05, 0x29, 0x03, // payload
        ],
        "DataV2 frame: the 14-byte header with version byte 2"
    );
}

#[test]
fn golden_hello_v2() {
    assert_eq!(wire::encode_hello_v2(SiteId(7), 3), [0x07, 0, 0, 0, 0x03]);
    // A hello announces the sender's max codec in the fifth byte...
    assert_eq!(
        wire::decode_hello(&[0x07, 0, 0, 0, 0x03]).unwrap(),
        (SiteId(7), 3)
    );
    // ...and a classic 4-byte hello, or one naming codec 1 or 2 (whose
    // snapshot reads are laid out differently), is a peer this build has no
    // encoding in common with.
    assert!(matches!(
        wire::decode_hello(&[0x07, 0, 0, 0]),
        Err(WireError::Codec(_))
    ));
    for older in [0x01, 0x02] {
        assert!(matches!(
            wire::decode_hello(&[0x07, 0, 0, 0, older]),
            Err(WireError::Codec(_))
        ));
    }
}

/// The children of one list, as a snapshot over it reads them: each at the
/// VT it was embedded at, up to the same `hi`.
fn list_children_reads(children: usize, first_tag: u64, hi: VirtualTime) -> Vec<ReadItem> {
    (0..children)
        .map(|index| {
            let tag = vt(first_tag + index as u64, 1 + index as u32 % 2);
            ReadItem {
                addr: ObjectAddr::Indirect {
                    root: name(1, 0),
                    path: Path::from(vec![PathElem::Index { index, tag }]),
                },
                t_r: tag,
                t_g: tag,
                hi: Some(hi),
            }
        })
        .collect()
}

#[test]
fn golden_v3_three_child_snapshot_payload() {
    let env = snapshot_env(list_children_reads(3, 10, vt(48, 2)));
    let golden = [
        0x02, 0x01, 0x32, 0x02, // from 2 | to 1 | clock 50@2
        0x02, 0x31, 0x02, 0x02, 0x03, // SnapshotConfirm | subject 49@2 | origin 2 | 3 reads
        // The first read in full but for `t_g` = `t_r` (flag 0x08): an
        // indirect address, root O1.0, one element, list index 0 tagged 10@1;
        // t_r 10@1; hi Some(48@2).
        0x08, 0x01, 0x01, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x01, 0x0a, 0x01, 0x01, 0x30, 0x02,
        // The next two: same root, next index, t_r the tag, t_g t_r, the
        // same hi (flags 0x1f), leaving the tag.
        0x1f, 0x0b, 0x02, //
        0x1f, 0x0c, 0x01,
    ];
    assert_eq!(wire::encode_envelope_v2(&env), golden);
    assert_eq!(wire::decode_envelope_v2(&golden).unwrap(), env);
}

/// What `duel_list3` sends per snapshot: the 256 elements of the shared
/// list, embedded by 256 transactions some twenty thousand Lamport ticks in.
#[test]
fn a_256_child_snapshot_fits_in_1600_bytes() {
    let reads = list_children_reads(256, 20_000, vt(21_000, 2));
    let env = snapshot_env(reads.clone());
    let bytes = wire::encode_envelope_v2(&env);
    assert!(bytes.len() <= 1_600, "{} bytes", bytes.len());
    assert_eq!(wire::decode_envelope_v2(&bytes).unwrap(), env);
    // Each item in full, as codec 2 sent it and a transaction still does.
    let full = wire::encode_envelope_v2(&txn_reading(reads));
    assert!(full.len() >= 6_000, "{} bytes", full.len());
}

// ---- golden snapshots: every sample envelope ------------------------------
//
// A layout that swaps two fields or two tags in both its directions still
// round-trips; only committed bytes see it. These are the bytes of each
// envelope of `sample_envelopes()`, in order: all 19 `Message` variants,
// each `Option` field in both forms, a span on every third envelope.

const SAMPLE_ENVELOPES_HEX: [&str; 26] = [
    // Txn, every WireOp, two reads, a delegate
    "0102ac020101c80101010900040b640132020000ffffffffffffffffff010101\
     0102020003080101016b650132020001355800662deb41fe0000040d66013202\
     000207cebccf84662d3801010102020003080101016b6701320201ffffffffff\
     ffffffff010303000201000000000000d03f0401016b0201760000040f680132\
     02024d0501010102020003080101016b6901320203036b657901000000000000\
     f83f000004116a0132020404676f6e6501010102020003080101016b6b013202\
     0502070201010302020907656469746f72730c0000000004136c013202060204\
     016e000005017200010000000000000440017300020a68c3a96c6c6f20e29c93\
     016c010209020000020a030302070201010302020907656469746f72730c0000\
     010200020528021e01000102050101017829021e010163030102020301ac0200",
    // Txn, empty
    "0202ad020201c9010202000000",
    // SnapshotConfirm
    "0302ae020302d2010303020000020528021e0100000102050101017829021e01\
     016303",
    // Confirm
    "0402af020403d301010004af0200",
    // Deny
    "0102b0020104d4010101",
    // Commit
    "0202b1020205d50102",
    // Abort
    "0302b2020306d6010203b20200",
    // JoinRequest, with an association
    "0402b3020407dc01010107010103030101030202090404010101010302020907\
     020901020a",
    // JoinRequest, without
    "0102b4020107dd010101080101040101010400030100",
    // JoinReply, ok, with a value
    "0202b5020208dc01010102020903010103020209040401010101030202090701\
     0204016e000005017200010000000000000440017300020a68c3a96c6c6f20e2\
     9c93016c010209020000020a030302070201010302020907656469746f72730c\
     0000be0102000202040502b50200",
    // JoinReply, refused
    "0302b6020308dd0101000303010103030100000000010000",
    // GraphUpdate, with a value
    "0402b7020409e601010102090301010302020904040101010103020209073202\
     01010204016e000005017200010000000000000440017300020a68c3a96c6c6f\
     20e29c93016c010209020000020a030302070201010302020907656469746f72\
     730c0000be0102",
    // GraphUpdate, without
    "0102b8020109e701010102090301010302020904040101010103020209073202\
     0000000001b80200",
    // OutcomeQuery
    "0202b902020af0010402",
    // OutcomeReport, known
    "0302ba02030bf001040100",
    // OutcomeReport, unknown
    "0402bb02040bf001040004bb0200",
    // OutcomeDecision
    "0102bc02010cf0010401",
    // GraphPropose
    "0202bd02020dffffffffffffffffff0101020901030301010302020904040101\
     01010302020907fa0101",
    // GraphAck
    "0302be02030effffffffffffffffff01010303be0200",
    // Heartbeat
    "0402bf02040f",
    // GraphApply
    "0102c0020110030209030101030202090404010101010302020907fa0101",
    // RejoinRequest, serving
    "0202c102021184020202ff01018402020102c10200",
    // RejoinRequest, empty
    "0302c202031100000000",
    // RejoinAck
    "0402c302041285020301ff0101",
    // CatchUp, one commit
    "0102c402011301860201010900040b640132020000ffffffffffffffffff0101\
     010102020003080101016b650132020001355800662deb41fe0000040d660132\
     02000207cebccf84662d3801010102020003080101016b6701320201ffffffff\
     ffffffffff010303000201000000000000d03f0401016b0201760000040f6801\
     3202024d0501010102020003080101016b6901320203036b6579010000000000\
     00f83f000004116a0132020404676f6e6501010102020003080101016b6b0132\
     020502070201010302020907656469746f72730c0000000004136c0132020602\
     04016e000005017200010000000000000440017300020a68c3a96c6c6f20e29c\
     93016c010209020000020a030302070201010302020907656469746f72730c00\
     000100000001c40200",
    // CatchUp, empty
    "0202c50202130001",
];

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

#[test]
fn golden_v3_every_sample_envelope() {
    let envs = sample_envelopes();
    assert_eq!(envs.len(), SAMPLE_ENVELOPES_HEX.len());
    for (env, hex) in envs.iter().zip(SAMPLE_ENVELOPES_HEX) {
        assert_eq!(to_hex(&wire::encode_envelope_v2(env)), hex, "{env:?}");
        assert_eq!(wire::decode_envelope_v2(&from_hex(hex)).unwrap(), *env);
    }
}
