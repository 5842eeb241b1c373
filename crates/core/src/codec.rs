//! The one binary encoding of everything a site writes: protocol
//! [`Envelope`]s on the wire (`decaf-net`'s `wire` frames carry these
//! payloads) and [`CommitRecord`]/[`Checkpoint`] payloads in the write-ahead
//! log ([`CommitLog`](crate::CommitLog)).
//!
//! One tag byte per enum variant, LEB128 varints for unsigned integers,
//! zigzag varints for signed ones, length-prefixed UTF-8 strings, and 8-byte
//! little-endian IEEE bit patterns for reals (so non-finite values
//! round-trip).
//!
//! # Snapshot reads
//!
//! A [`Message::SnapshotConfirm`] carries one [`ReadItem`] per object its
//! view snapshot guesses on — for a view over a list, one per element, in
//! list order: the same root, the next index, read at the VT the element
//! was embedded at, up to the same `hi`. In full such an item is some 25
//! bytes, nearly all of them the preceding item's. Each item is therefore
//! coded against its predecessor: a flag byte, then only the parts the
//! flags do not cover, in this order.
//!
//! ```text
//! bit   set means                                   clear: what follows
//! 0x01  the address is one list index under the     the address in full
//!       preceding item's root (the object a direct
//!       address names, or an indirect one's root)
//! 0x02  that index is the preceding item's + 1      the index (varint)
//!       (with 0x01 only; the preceding item's
//!       address is itself a single list index)
//!       — with 0x01, the index's tag (a VT) follows here —
//! 0x04  `t_r` is that tag (with 0x01 only)          `t_r`
//! 0x08  `t_g` is `t_r`                              `t_g`
//! 0x10  `hi` is the preceding item's                `hi` (option byte, VT)
//! ```
//!
//! Flag byte 0 is the item exactly as a [`TxnPropagate`] carries it, which
//! is what a direct object, a tuple field or a deeper path gets for its
//! address; the first item has no predecessor and never sets 0x01 or 0x10.
//! The encoder sets every bit that applies, so the element of a list walked
//! in order costs its flag byte and its tag. The decoder rejects the other
//! three bits, 0x02 or 0x04 without 0x01, 0x01 or 0x10 on the first item,
//! 0x02 after an item that has no index, and an index past `usize::MAX`.
//! [`TxnPropagate`]'s reads keep the full layout: a transaction reads few
//! objects, and catch-up streams carry the same bytes.
//!
//! These bytes are also a request's in-memory form: a
//! [`SnapshotReads`] is the items' coding and their count, written item by
//! item as the guessing site pushes them, so a CONFIRM-READ holds its wire
//! size while it is queued, in flight or parked at the primary, and the
//! encoder copies it out unchanged. The envelope decoder runs every check
//! above on each item before it keeps the bytes, so a malformed request is
//! refused where it is read off the wire, and the primary decodes each item
//! once more, as it checks it.
//!
//! The layout is strict and self-delimiting — decoding rejects unknown
//! tags, truncation, and trailing bytes, bounds every declared count by the
//! bytes that remain before allocating for it, and follows composites no
//! deeper than [`MAX_NESTING`] levels — and is pinned by golden byte
//! snapshots in `decaf-net`'s `tests/wire_codec_v2.rs` (envelopes) and this
//! crate's `tests/wal.rs` (WAL records). Decode errors are human-readable
//! strings; callers wrap them in their own error type (`WireError::Codec`,
//! [`WalError::SchemaMismatch`](crate::WalError)).

use std::collections::BTreeMap;
use std::sync::Arc;

use decaf_vt::{History, LamportClock, ReservationSet, SiteId, VirtualTime};

use crate::collab::{Invitation, RelationId};
use crate::graph::{NodeRef, ReplicationGraph};
use crate::message::{
    AssocSnapshot, Delegate, Envelope, Message, ObjectAddr, Path, PathElem, ReadItem, SpanCtx,
    SubjectKind, TreeSnapshot, TxnPropagate, UpdateItem, WireOp,
};
use crate::object::{
    AssocState, Blueprint, ListEntry, ListOp, ObjectKind, ObjectName, ObjectValue, PropagationMode,
    TupleOp,
};
use crate::persist::{Checkpoint, CommitRecord, ObjectCheckpoint};
use crate::txn::TxnOutcome;
use crate::value::ScalarValue;

// ---- CRC-32 -----------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at compile
/// time. In-tree: the container policy forbids new external dependencies.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Folds `bytes` into a running (pre-inverted) CRC-32 state, so a checksum
/// can cover several slices without concatenating them: start from `!0`,
/// invert the final state.
pub(crate) fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(state, |crc, &b| {
        CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// CRC-32 (IEEE) of `bytes` — the checksum of both wire frames and WAL
/// frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

// ---- primitives -------------------------------------------------------

/// Appends `v` as an LEB128 varint.
pub fn put_varint(o: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            o.push(byte);
            return;
        }
        o.push(byte | 0x80);
    }
}

fn put_str(o: &mut Vec<u8>, s: &str) {
    put_varint(o, s.len() as u64);
    o.extend_from_slice(s.as_bytes());
}

fn put_i64(o: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes of either sign stay short.
    put_varint(o, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_f64(o: &mut Vec<u8>, v: f64) {
    o.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(o: &mut Vec<u8>, v: bool) {
    o.push(u8::from(v));
}

fn put_opt<T>(o: &mut Vec<u8>, v: Option<T>, f: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => o.push(0),
        Some(v) => {
            o.push(1);
            f(o, v);
        }
    }
}

// ---- encoder ----------------------------------------------------------

/// Appends the binary encoding of `e` to `o`.
pub fn envelope(o: &mut Vec<u8>, e: &Envelope) {
    put_varint(o, e.from.0 as u64);
    put_varint(o, e.to.0 as u64);
    vt(o, &e.clock);
    message(o, &e.msg);
    // Trailing optional span section. Span-less envelopes keep the
    // pre-span byte layout exactly (pinned by golden snapshots); the
    // decoder parses a span iff bytes remain after the message, which
    // is sound because every envelope is decoded from an exactly
    // delimited slice (whole frame payload, or the batch's per-entry
    // length prefix).
    if let Some(s) = &e.span {
        put_varint(o, s.origin.0 as u64);
        put_varint(o, s.seq);
        put_varint(o, s.hop as u64);
    }
}

fn vt(o: &mut Vec<u8>, t: &VirtualTime) {
    put_varint(o, t.lamport);
    put_varint(o, t.site.0 as u64);
}

fn oname(o: &mut Vec<u8>, n: &ObjectName) {
    put_varint(o, n.site.0 as u64);
    put_varint(o, n.seq);
}

fn noderef(o: &mut Vec<u8>, n: &NodeRef) {
    put_varint(o, n.site.0 as u64);
    oname(o, &n.object);
}

fn scalar(o: &mut Vec<u8>, s: &ScalarValue) {
    match s {
        ScalarValue::Int(v) => {
            o.push(0);
            put_i64(o, *v);
        }
        ScalarValue::Real(v) => {
            o.push(1);
            put_f64(o, *v);
        }
        ScalarValue::Str(v) => {
            o.push(2);
            put_str(o, v);
        }
    }
}

fn blueprint(o: &mut Vec<u8>, b: &Blueprint) {
    match b {
        Blueprint::Int(v) => {
            o.push(0);
            put_i64(o, *v);
        }
        Blueprint::Real(v) => {
            o.push(1);
            put_f64(o, *v);
        }
        Blueprint::Str(v) => {
            o.push(2);
            put_str(o, v);
        }
        Blueprint::List(children) => {
            o.push(3);
            put_varint(o, children.len() as u64);
            for c in children {
                blueprint(o, c);
            }
        }
        Blueprint::Tuple(children) => {
            o.push(4);
            put_varint(o, children.len() as u64);
            for (k, c) in children {
                put_str(o, k);
                blueprint(o, c);
            }
        }
    }
}

fn path(o: &mut Vec<u8>, p: &Path) {
    put_varint(o, p.elems().len() as u64);
    for e in p.elems() {
        match e {
            PathElem::Index { index, tag } => {
                o.push(0);
                put_varint(o, *index as u64);
                vt(o, tag);
            }
            PathElem::Key(k) => {
                o.push(1);
                put_str(o, k);
            }
        }
    }
}

fn addr(o: &mut Vec<u8>, a: &ObjectAddr) {
    match a {
        ObjectAddr::Direct(n) => {
            o.push(0);
            oname(o, n);
        }
        ObjectAddr::Indirect { root, path: p } => {
            o.push(1);
            oname(o, root);
            path(o, p);
        }
    }
}

fn assoc_state(o: &mut Vec<u8>, a: &AssocState) {
    put_varint(o, a.len() as u64);
    for (RelationId(id), rel) in a {
        put_varint(o, *id);
        put_varint(o, rel.members.len() as u64);
        for m in &rel.members {
            noderef(o, m);
        }
        put_str(o, &rel.description);
    }
}

fn assoc(o: &mut Vec<u8>, a: &AssocSnapshot) {
    assoc_state(o, &a.0);
}

fn tree(o: &mut Vec<u8>, t: &TreeSnapshot) {
    match t {
        TreeSnapshot::Scalar(s) => {
            o.push(0);
            scalar(o, s);
        }
        TreeSnapshot::List(entries) => {
            o.push(1);
            put_varint(o, entries.len() as u64);
            for (tag, child) in entries {
                vt(o, tag);
                tree(o, child);
            }
        }
        TreeSnapshot::Tuple(entries) => {
            o.push(2);
            put_varint(o, entries.len() as u64);
            for (k, child) in entries {
                put_str(o, k);
                tree(o, child);
            }
        }
        TreeSnapshot::Assoc(a) => {
            o.push(3);
            assoc(o, a);
        }
    }
}

fn wireop(o: &mut Vec<u8>, w: &WireOp) {
    match w {
        WireOp::SetScalar(s) => {
            o.push(0);
            scalar(o, s);
        }
        WireOp::ListInsert { index, child } => {
            o.push(1);
            put_varint(o, *index as u64);
            blueprint(o, child);
        }
        WireOp::ListRemove { tag } => {
            o.push(2);
            vt(o, tag);
        }
        WireOp::TuplePut { key, child } => {
            o.push(3);
            put_str(o, key);
            blueprint(o, child);
        }
        WireOp::TupleRemove { key } => {
            o.push(4);
            put_str(o, key);
        }
        WireOp::SetAssoc(a) => {
            o.push(5);
            assoc(o, a);
        }
        WireOp::SetTree(t) => {
            o.push(6);
            tree(o, t);
        }
    }
}

fn update(o: &mut Vec<u8>, u: &UpdateItem) {
    addr(o, &u.addr);
    vt(o, &u.t_r);
    vt(o, &u.t_g);
    wireop(o, &u.op);
    put_bool(o, u.needs_check);
}

fn read(o: &mut Vec<u8>, r: &ReadItem) {
    addr(o, &r.addr);
    vt(o, &r.t_r);
    vt(o, &r.t_g);
    put_opt(o, r.hi.as_ref(), vt);
}

// The flag bits of a snapshot's read item (module docs, "Snapshot reads").

/// The address is one list index under the preceding item's root.
const READ_SAME_ROOT: u8 = 0x01;
/// That index is the preceding item's plus one.
const READ_NEXT_INDEX: u8 = 0x02;
/// `t_r` is the index's tag.
const READ_TR_IS_TAG: u8 = 0x04;
/// `t_g` is `t_r`.
const READ_TG_IS_TR: u8 = 0x08;
/// `hi` is the preceding item's.
const READ_HI_REPEATS: u8 = 0x10;
const READ_FLAGS: u8 =
    READ_SAME_ROOT | READ_NEXT_INDEX | READ_TR_IS_TAG | READ_TG_IS_TR | READ_HI_REPEATS;

/// The root an address names, and its index and tag when the path below
/// that root is exactly one list index.
fn root_and_index(a: &ObjectAddr) -> (ObjectName, Option<(usize, VirtualTime)>) {
    match a {
        ObjectAddr::Direct(n) => (*n, None),
        ObjectAddr::Indirect { root, path } => match path.elems() {
            [PathElem::Index { index, tag }] => (*root, Some((*index, *tag))),
            _ => (*root, None),
        },
    }
}

/// What a snapshot's read item is coded against: the preceding item's
/// root, its index if its path is one list index, and its `hi`.
#[derive(Clone, Copy, PartialEq)]
struct ReadCtx {
    root: ObjectName,
    index: Option<usize>,
    hi: Option<VirtualTime>,
}

/// Appends `r` coded against `prev`, the item before it if there is one,
/// and returns what the next item is coded against.
fn snapshot_read(o: &mut Vec<u8>, prev: Option<ReadCtx>, r: &ReadItem) -> ReadCtx {
    let (root, index) = root_and_index(&r.addr);
    let mut flags = 0;
    if let (Some((index, tag)), Some(prev)) = (index, prev) {
        if prev.root == root {
            flags |= READ_SAME_ROOT;
            if prev.index.is_some_and(|i| i.checked_add(1) == Some(index)) {
                flags |= READ_NEXT_INDEX;
            }
            if r.t_r == tag {
                flags |= READ_TR_IS_TAG;
            }
        }
    }
    if r.t_g == r.t_r {
        flags |= READ_TG_IS_TR;
    }
    if prev.is_some_and(|prev| prev.hi == r.hi) {
        flags |= READ_HI_REPEATS;
    }
    o.push(flags);
    match index {
        Some((index, tag)) if flags & READ_SAME_ROOT != 0 => {
            if flags & READ_NEXT_INDEX == 0 {
                put_varint(o, index as u64);
            }
            vt(o, &tag);
        }
        _ => addr(o, &r.addr),
    }
    if flags & READ_TR_IS_TAG == 0 {
        vt(o, &r.t_r);
    }
    if flags & READ_TG_IS_TR == 0 {
        vt(o, &r.t_g);
    }
    if flags & READ_HI_REPEATS == 0 {
        put_opt(o, r.hi.as_ref(), vt);
    }
    ReadCtx {
        root,
        index: index.map(|(i, _)| i),
        hi: r.hi,
    }
}

fn snapshot_reads(o: &mut Vec<u8>, reads: &SnapshotReads) {
    put_varint(o, reads.len as u64);
    o.extend_from_slice(&reads.bytes);
}

/// A view snapshot's CONFIRM-READ items ([`Message::SnapshotConfirm`]),
/// kept as their coding (module docs, "Snapshot reads"): what a request
/// holds while it is queued at the guessing site, in flight and parked at
/// the primary is its wire size, 4–5 bytes for the next child of a list
/// where a [`ReadItem`] is 104.
///
/// Built with [`push`](SnapshotReads::push) (or collected), read back with
/// [`iter`](SnapshotReads::iter), which decodes each item once. The bytes
/// are valid by construction: `push` writes them and the envelope decoder
/// checks every item before it keeps them, so `iter` cannot fail. Two
/// values are equal exactly when they hold the same items in the same
/// order.
#[derive(Clone, Default, PartialEq)]
pub struct SnapshotReads {
    /// The items' coding, without the leading count.
    bytes: Vec<u8>,
    /// How many items `bytes` holds.
    len: usize,
    /// What the next item pushed is coded against.
    last: Option<ReadCtx>,
}

impl SnapshotReads {
    /// No items.
    pub fn new() -> Self {
        SnapshotReads::default()
    }

    /// Appends one item, coded against the one before it.
    pub fn push(&mut self, item: &ReadItem) {
        let at = self.bytes.len();
        let last = snapshot_read(&mut self.bytes, self.last, item);
        debug_assert!(
            exact(&self.bytes[at..], |r| d_snapshot_read(r, self.last))
                .is_ok_and(|(decoded, next)| decoded == *item && next == last),
            "iter() yields what was pushed: {item:?}"
        );
        self.last = Some(last);
        self.len += 1;
    }

    /// The number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The heap bytes held: the capacity of the coding.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    /// Gives back the spare capacity pushing left, so a request that is
    /// queued holds its coding and nothing more.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }

    /// The items in the order they were pushed, each decoded as it is
    /// reached.
    pub fn iter(&self) -> SnapshotReadsIter<'_> {
        SnapshotReadsIter {
            r: R::new(&self.bytes),
            prev: None,
            left: self.len,
        }
    }
}

impl FromIterator<ReadItem> for SnapshotReads {
    fn from_iter<I: IntoIterator<Item = ReadItem>>(items: I) -> Self {
        let mut reads = SnapshotReads::new();
        for item in items {
            reads.push(&item);
        }
        reads.shrink_to_fit();
        reads
    }
}

impl From<Vec<ReadItem>> for SnapshotReads {
    fn from(items: Vec<ReadItem>) -> Self {
        items.into_iter().collect()
    }
}

impl std::fmt::Debug for SnapshotReads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The items of a [`SnapshotReads`], decoded one at a time.
pub struct SnapshotReadsIter<'a> {
    r: R<'a>,
    prev: Option<ReadCtx>,
    left: usize,
}

impl Iterator for SnapshotReadsIter<'_> {
    type Item = ReadItem;

    #[inline]
    fn next(&mut self) -> Option<ReadItem> {
        self.left = self.left.checked_sub(1)?;
        let (item, next) = d_snapshot_read(&mut self.r, self.prev)
            .expect("snapshot reads are checked when they are built");
        self.prev = Some(next);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

fn sites(o: &mut Vec<u8>, xs: &[SiteId]) {
    put_varint(o, xs.len() as u64);
    for s in xs {
        put_varint(o, s.0 as u64);
    }
}

fn vts(o: &mut Vec<u8>, xs: &[VirtualTime]) {
    put_varint(o, xs.len() as u64);
    for t in xs {
        vt(o, t);
    }
}

fn graph(o: &mut Vec<u8>, g: &ReplicationGraph) {
    let nodes: Vec<&NodeRef> = g.nodes().collect();
    put_varint(o, nodes.len() as u64);
    for n in nodes {
        noderef(o, n);
    }
    let edges: Vec<_> = g.edges().collect();
    put_varint(o, edges.len() as u64);
    for (a, b, RelationId(r)) in edges {
        noderef(o, a);
        noderef(o, b);
        put_varint(o, *r);
    }
}

fn outcome(o: &mut Vec<u8>, v: &TxnOutcome) {
    o.push(match v {
        TxnOutcome::Committed => 0,
        TxnOutcome::Aborted => 1,
    });
}

fn propagate(o: &mut Vec<u8>, p: &TxnPropagate) {
    vt(o, &p.txn);
    put_varint(o, p.origin.0 as u64);
    put_varint(o, p.updates.len() as u64);
    for u in &p.updates {
        update(o, u);
    }
    put_varint(o, p.reads.len() as u64);
    for r in &p.reads {
        read(o, r);
    }
    put_opt(o, p.delegate.as_ref(), |o, d: &Delegate| {
        sites(o, &d.notify);
    });
}

fn message(o: &mut Vec<u8>, m: &Message) {
    match m {
        Message::Txn(p) => {
            o.push(1);
            propagate(o, p);
        }
        Message::SnapshotConfirm {
            subject,
            origin,
            reads,
        } => {
            o.push(2);
            vt(o, subject);
            put_varint(o, origin.0 as u64);
            snapshot_reads(o, reads);
        }
        Message::Confirm { subject, kind } | Message::Deny { subject, kind } => {
            o.push(if matches!(m, Message::Confirm { .. }) {
                3
            } else {
                4
            });
            vt(o, subject);
            o.push(match kind {
                SubjectKind::Txn => 0,
                SubjectKind::Snapshot => 1,
            });
        }
        Message::Commit { txn } => {
            o.push(5);
            vt(o, txn);
        }
        Message::Abort { txn } => {
            o.push(6);
            vt(o, txn);
        }
        Message::JoinRequest {
            txn,
            origin,
            relation,
            a_node,
            a_graph,
            b_object,
            assoc_object,
        } => {
            o.push(7);
            vt(o, txn);
            put_varint(o, origin.0 as u64);
            put_varint(o, relation.0);
            noderef(o, a_node);
            graph(o, a_graph);
            oname(o, b_object);
            put_opt(o, assoc_object.as_ref(), oname);
        }
        Message::JoinReply {
            txn,
            ok,
            b_node,
            merged,
            b_value,
            b_value_vt,
            b_value_committed,
            confirms_expected,
            extra_affected,
        } => {
            o.push(8);
            vt(o, txn);
            put_bool(o, *ok);
            noderef(o, b_node);
            graph(o, merged);
            put_opt(o, b_value.as_ref(), tree);
            vt(o, b_value_vt);
            put_bool(o, *b_value_committed);
            put_varint(o, *confirms_expected as u64);
            sites(o, extra_affected);
        }
        Message::GraphUpdate {
            txn,
            origin,
            target,
            graph: g,
            t_g,
            needs_check,
            adopt_value,
            adopt_value_vt,
        } => {
            o.push(9);
            vt(o, txn);
            put_varint(o, origin.0 as u64);
            oname(o, target);
            graph(o, g);
            vt(o, t_g);
            put_bool(o, *needs_check);
            put_opt(o, adopt_value.as_ref(), tree);
            vt(o, adopt_value_vt);
        }
        Message::OutcomeQuery { txn, asker } => {
            o.push(10);
            vt(o, txn);
            put_varint(o, asker.0 as u64);
        }
        Message::OutcomeReport { txn, outcome: out } => {
            o.push(11);
            vt(o, txn);
            put_opt(o, out.as_ref(), outcome);
        }
        Message::OutcomeDecision { txn, outcome: out } => {
            o.push(12);
            vt(o, txn);
            outcome(o, out);
        }
        Message::GraphPropose {
            ballot,
            coordinator,
            target,
            coord_target,
            graph: g,
            at,
        } => {
            o.push(13);
            put_varint(o, *ballot);
            put_varint(o, coordinator.0 as u64);
            oname(o, target);
            oname(o, coord_target);
            graph(o, g);
            vt(o, at);
        }
        Message::GraphAck {
            ballot,
            coord_target,
        } => {
            o.push(14);
            put_varint(o, *ballot);
            oname(o, coord_target);
        }
        Message::Heartbeat => o.push(15),
        Message::GraphApply {
            ballot,
            target,
            graph: g,
            at,
        } => {
            o.push(16);
            put_varint(o, *ballot);
            oname(o, target);
            graph(o, g);
            vt(o, at);
        }
        Message::RejoinRequest {
            frontier,
            have,
            serve,
        } => {
            o.push(17);
            vt(o, frontier);
            vts(o, have);
            put_bool(o, *serve);
        }
        Message::RejoinAck { frontier, have } => {
            o.push(18);
            vt(o, frontier);
            vts(o, have);
        }
        Message::CatchUp { commits, rejoined } => {
            o.push(19);
            put_varint(o, commits.len() as u64);
            for c in commits {
                propagate(o, c);
            }
            put_bool(o, *rejoined);
        }
    }
}

// ---- decoder ----------------------------------------------------------

/// Runs decoder `f` over exactly `bytes`: leftovers are an error.
fn exact<'a, T>(
    bytes: &'a [u8],
    f: impl FnOnce(&mut R<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut r = R::new(bytes);
    let v = f(&mut r)?;
    if r.i != r.b.len() {
        return Err(format!("trailing bytes: consumed {} of {}", r.i, r.b.len()));
    }
    Ok(v)
}

/// Decodes one envelope from exactly `bytes`.
///
/// # Errors
///
/// Truncation, trailing bytes, an unknown tag, or invalid UTF-8.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, String> {
    exact(bytes, d_envelope)
}

/// Decodes a batch payload: a varint count, then each envelope as a varint
/// byte length followed by its encoding.
///
/// # Errors
///
/// Truncation, trailing bytes, a length prefix that disagrees with its
/// envelope, or any per-envelope decode failure.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<Envelope>, String> {
    let mut r = R::new(bytes);
    let count = r.varint()?;
    if count > bytes.len() as u64 {
        // Each envelope costs at least one byte, so a count beyond the
        // payload length is corrupt; reject before reserving memory.
        return Err(format!("batch count {count} exceeds payload size"));
    }
    let mut out = Vec::with_capacity(count as usize);
    for n in 0..count {
        let len = r.varint()? as usize;
        let body = r.slice(len)?;
        out.push(decode_envelope(body).map_err(|e| format!("batch envelope {n}: {e}"))?);
    }
    if r.i != r.b.len() {
        return Err(format!(
            "trailing bytes after batch: consumed {} of {}",
            r.i,
            r.b.len()
        ));
    }
    Ok(out)
}

/// Deepest composite nesting (`List`/`Tuple` levels of a [`Blueprint`] or
/// [`TreeSnapshot`]) the decoder follows. The two are the only recursive
/// shapes in the format, and a level costs as little as two bytes, so
/// without a bound a small valid-looking payload could run the decoder out
/// of stack — an abort, not an error.
pub const MAX_NESTING: u32 = 64;

struct R<'a> {
    b: &'a [u8],
    i: usize,
    depth: u32,
}

impl<'a> R<'a> {
    fn new(b: &'a [u8]) -> Self {
        R { b, i: 0, depth: 0 }
    }

    /// Runs `f` one composite level down, refusing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, String>) -> Result<T, String> {
        if self.depth == MAX_NESTING {
            return Err(format!("composite nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn u8(&mut self) -> Result<u8, String> {
        let v = *self.b.get(self.i).ok_or("unexpected end of input")?;
        self.i += 1;
        Ok(v)
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], String> {
        // `n` comes from input: checked, so a huge length is an error
        // and not an overflow.
        let end = self.i.checked_add(n).ok_or("unexpected end of input")?;
        let s = self.b.get(self.i..end).ok_or("unexpected end of input")?;
        self.i = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let part = (byte & 0x7F) as u64;
            if shift == 63 && part > 1 {
                return Err("varint overflows u64".into());
            }
            v |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 10 bytes".into())
    }

    fn varint_u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.varint()?).map_err(|_| "varint overflows u32".to_string())
    }

    fn varint_usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.varint()?).map_err(|_| "varint overflows usize".to_string())
    }

    fn i64v(&mut self) -> Result<i64, String> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn f64v(&mut self) -> Result<f64, String> {
        let s = self.slice(8)?;
        let bits = u64::from_le_bytes(s.try_into().expect("slice has 8 bytes"));
        Ok(f64::from_bits(bits))
    }

    fn boolv(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.varint_usize()?;
        let s = self.slice(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    /// Bounds a declared element count by the bytes actually remaining
    /// (each element costs ≥ 1 byte), so a corrupt count cannot trigger
    /// an absurd `Vec::with_capacity`.
    fn count(&mut self) -> Result<usize, String> {
        let n = self.varint_usize()?;
        if n > self.b.len() - self.i {
            return Err(format!("element count {n} exceeds remaining payload"));
        }
        Ok(n)
    }

    fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(format!("bad option byte {b}")),
        }
    }
}

fn d_site(r: &mut R) -> Result<SiteId, String> {
    Ok(SiteId(r.varint_u32()?))
}

fn d_vt(r: &mut R) -> Result<VirtualTime, String> {
    Ok(VirtualTime {
        lamport: r.varint()?,
        site: d_site(r)?,
    })
}

fn d_oname(r: &mut R) -> Result<ObjectName, String> {
    Ok(ObjectName {
        site: d_site(r)?,
        seq: r.varint()?,
    })
}

fn d_noderef(r: &mut R) -> Result<NodeRef, String> {
    Ok(NodeRef {
        site: d_site(r)?,
        object: d_oname(r)?,
    })
}

fn d_scalar(r: &mut R) -> Result<ScalarValue, String> {
    match r.u8()? {
        0 => Ok(ScalarValue::Int(r.i64v()?)),
        1 => Ok(ScalarValue::Real(r.f64v()?)),
        2 => Ok(ScalarValue::Str(r.string()?)),
        t => Err(format!("unknown ScalarValue tag {t}")),
    }
}

fn d_blueprint(r: &mut R) -> Result<Blueprint, String> {
    match r.u8()? {
        0 => Ok(Blueprint::Int(r.i64v()?)),
        1 => Ok(Blueprint::Real(r.f64v()?)),
        2 => Ok(Blueprint::Str(r.string()?)),
        3 => r.nested(|r| {
            let n = r.count()?;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(d_blueprint(r)?);
            }
            Ok(Blueprint::List(children))
        }),
        4 => r.nested(|r| {
            let n = r.count()?;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push((r.string()?, d_blueprint(r)?));
            }
            Ok(Blueprint::Tuple(children))
        }),
        t => Err(format!("unknown Blueprint tag {t}")),
    }
}

fn d_path(r: &mut R) -> Result<Path, String> {
    let n = r.count()?;
    // One element, a list child under its root, is kept without a `Vec`.
    if n == 1 {
        return Ok(Path::from(d_path_elem(r)?));
    }
    let mut elems = Vec::with_capacity(n);
    for _ in 0..n {
        elems.push(d_path_elem(r)?);
    }
    Ok(Path::from(elems))
}

fn d_path_elem(r: &mut R) -> Result<PathElem, String> {
    match r.u8()? {
        0 => Ok(PathElem::Index {
            index: r.varint_usize()?,
            tag: d_vt(r)?,
        }),
        1 => Ok(PathElem::Key(r.string()?)),
        t => Err(format!("unknown PathElem tag {t}")),
    }
}

fn d_addr(r: &mut R) -> Result<ObjectAddr, String> {
    match r.u8()? {
        0 => Ok(ObjectAddr::Direct(d_oname(r)?)),
        1 => Ok(ObjectAddr::Indirect {
            root: d_oname(r)?,
            path: d_path(r)?,
        }),
        t => Err(format!("unknown ObjectAddr tag {t}")),
    }
}

fn d_assoc(r: &mut R) -> Result<AssocSnapshot, String> {
    let n = r.count()?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let id = RelationId(r.varint()?);
        let m = r.count()?;
        let mut members = Vec::with_capacity(m);
        for _ in 0..m {
            members.push(d_noderef(r)?);
        }
        rows.push((id, members, r.string()?));
    }
    Ok(AssocSnapshot::from_wire_parts(rows))
}

fn d_tree(r: &mut R) -> Result<TreeSnapshot, String> {
    match r.u8()? {
        0 => Ok(TreeSnapshot::Scalar(d_scalar(r)?)),
        1 => r.nested(|r| {
            let n = r.count()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((d_vt(r)?, d_tree(r)?));
            }
            Ok(TreeSnapshot::List(entries))
        }),
        2 => r.nested(|r| {
            let n = r.count()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((r.string()?, d_tree(r)?));
            }
            Ok(TreeSnapshot::Tuple(entries))
        }),
        3 => Ok(TreeSnapshot::Assoc(d_assoc(r)?)),
        t => Err(format!("unknown TreeSnapshot tag {t}")),
    }
}

fn d_wireop(r: &mut R) -> Result<WireOp, String> {
    match r.u8()? {
        0 => Ok(WireOp::SetScalar(d_scalar(r)?)),
        1 => Ok(WireOp::ListInsert {
            index: r.varint_usize()?,
            child: d_blueprint(r)?,
        }),
        2 => Ok(WireOp::ListRemove { tag: d_vt(r)? }),
        3 => Ok(WireOp::TuplePut {
            key: r.string()?,
            child: d_blueprint(r)?,
        }),
        4 => Ok(WireOp::TupleRemove { key: r.string()? }),
        5 => Ok(WireOp::SetAssoc(d_assoc(r)?)),
        6 => Ok(WireOp::SetTree(d_tree(r)?)),
        t => Err(format!("unknown WireOp tag {t}")),
    }
}

fn d_update(r: &mut R) -> Result<UpdateItem, String> {
    Ok(UpdateItem {
        addr: d_addr(r)?,
        t_r: d_vt(r)?,
        t_g: d_vt(r)?,
        op: d_wireop(r)?,
        needs_check: r.boolv()?,
    })
}

fn d_read(r: &mut R) -> Result<ReadItem, String> {
    Ok(ReadItem {
        addr: d_addr(r)?,
        t_r: d_vt(r)?,
        t_g: d_vt(r)?,
        hi: r.opt(d_vt)?,
    })
}

/// Decodes one snapshot read item coded against `prev`, the item before it
/// if there is one, and what the next item is coded against. Inlined: it
/// is the primary's per-item cost when it checks a request.
#[inline(always)]
fn d_snapshot_read(r: &mut R, prev: Option<ReadCtx>) -> Result<(ReadItem, ReadCtx), String> {
    let flags = r.u8()?;
    if flags & !READ_FLAGS != 0 {
        return Err(format!("unknown read flag bits {flags:#04x}"));
    }
    if flags & READ_SAME_ROOT == 0 && flags & (READ_NEXT_INDEX | READ_TR_IS_TAG) != 0 {
        return Err(format!(
            "read flags {flags:#04x} name an index without a root"
        ));
    }
    if prev.is_none() && flags & (READ_SAME_ROOT | READ_HI_REPEATS) != 0 {
        return Err(format!(
            "read flags {flags:#04x} repeat an item that is not there"
        ));
    }
    let (addr, root, index, tag) = if flags & READ_SAME_ROOT != 0 {
        let prev = prev.expect("checked above");
        let index = if flags & READ_NEXT_INDEX == 0 {
            r.varint_usize()?
        } else {
            prev.index
                .and_then(|i| i.checked_add(1))
                .ok_or("read index follows an item that has none")?
        };
        let tag = d_vt(r)?;
        let path = Path::from(PathElem::Index { index, tag });
        let addr = ObjectAddr::Indirect {
            root: prev.root,
            path,
        };
        (addr, prev.root, Some(index), Some(tag))
    } else {
        let addr = d_addr(r)?;
        let (root, index) = root_and_index(&addr);
        (addr, root, index.map(|(i, _)| i), None)
    };
    let t_r = match tag {
        Some(tag) if flags & READ_TR_IS_TAG != 0 => tag,
        _ => d_vt(r)?,
    };
    let t_g = if flags & READ_TG_IS_TR != 0 {
        t_r
    } else {
        d_vt(r)?
    };
    let hi = if flags & READ_HI_REPEATS != 0 {
        prev.expect("checked above").hi
    } else {
        r.opt(d_vt)?
    };
    let next = ReadCtx { root, index, hi };
    Ok((ReadItem { addr, t_r, t_g, hi }, next))
}

/// Decodes a snapshot's reads, checking every item, and keeps their bytes.
fn d_snapshot_reads(r: &mut R) -> Result<SnapshotReads, String> {
    let len = r.count()?;
    let start = r.i;
    let mut last = None;
    for _ in 0..len {
        last = Some(d_snapshot_read(r, last)?.1);
    }
    Ok(SnapshotReads {
        bytes: r.b[start..r.i].to_vec(),
        len,
        last,
    })
}

fn d_vts(r: &mut R) -> Result<Vec<VirtualTime>, String> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d_vt(r)?);
    }
    Ok(out)
}

fn d_sites(r: &mut R) -> Result<Vec<SiteId>, String> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d_site(r)?);
    }
    Ok(out)
}

fn d_graph(r: &mut R) -> Result<ReplicationGraph, String> {
    let n = r.count()?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(d_noderef(r)?);
    }
    let m = r.count()?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        edges.push((d_noderef(r)?, d_noderef(r)?, RelationId(r.varint()?)));
    }
    Ok(ReplicationGraph::from_parts(nodes, edges))
}

fn d_outcome(r: &mut R) -> Result<TxnOutcome, String> {
    match r.u8()? {
        0 => Ok(TxnOutcome::Committed),
        1 => Ok(TxnOutcome::Aborted),
        t => Err(format!("unknown TxnOutcome tag {t}")),
    }
}

fn d_subject_kind(r: &mut R) -> Result<SubjectKind, String> {
    match r.u8()? {
        0 => Ok(SubjectKind::Txn),
        1 => Ok(SubjectKind::Snapshot),
        t => Err(format!("unknown SubjectKind tag {t}")),
    }
}

fn d_propagate(r: &mut R) -> Result<TxnPropagate, String> {
    let txn = d_vt(r)?;
    let origin = d_site(r)?;
    let n = r.count()?;
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        updates.push(d_update(r)?);
    }
    let m = r.count()?;
    let mut reads = Vec::with_capacity(m);
    for _ in 0..m {
        reads.push(d_read(r)?);
    }
    let delegate = r.opt(|r| {
        Ok(Delegate {
            notify: d_sites(r)?,
        })
    })?;
    Ok(TxnPropagate {
        txn,
        origin,
        updates,
        reads,
        delegate,
    })
}

fn d_message(r: &mut R) -> Result<Message, String> {
    match r.u8()? {
        1 => Ok(Message::Txn(d_propagate(r)?)),
        2 => {
            let subject = d_vt(r)?;
            let origin = d_site(r)?;
            let reads = d_snapshot_reads(r)?;
            Ok(Message::SnapshotConfirm {
                subject,
                origin,
                reads,
            })
        }
        3 => Ok(Message::Confirm {
            subject: d_vt(r)?,
            kind: d_subject_kind(r)?,
        }),
        4 => Ok(Message::Deny {
            subject: d_vt(r)?,
            kind: d_subject_kind(r)?,
        }),
        5 => Ok(Message::Commit { txn: d_vt(r)? }),
        6 => Ok(Message::Abort { txn: d_vt(r)? }),
        7 => Ok(Message::JoinRequest {
            txn: d_vt(r)?,
            origin: d_site(r)?,
            relation: RelationId(r.varint()?),
            a_node: d_noderef(r)?,
            a_graph: d_graph(r)?,
            b_object: d_oname(r)?,
            assoc_object: r.opt(d_oname)?,
        }),
        8 => Ok(Message::JoinReply {
            txn: d_vt(r)?,
            ok: r.boolv()?,
            b_node: d_noderef(r)?,
            merged: d_graph(r)?,
            b_value: r.opt(d_tree)?,
            b_value_vt: d_vt(r)?,
            b_value_committed: r.boolv()?,
            confirms_expected: r.varint_u32()?,
            extra_affected: d_sites(r)?,
        }),
        9 => Ok(Message::GraphUpdate {
            txn: d_vt(r)?,
            origin: d_site(r)?,
            target: d_oname(r)?,
            graph: d_graph(r)?,
            t_g: d_vt(r)?,
            needs_check: r.boolv()?,
            adopt_value: r.opt(d_tree)?,
            adopt_value_vt: d_vt(r)?,
        }),
        10 => Ok(Message::OutcomeQuery {
            txn: d_vt(r)?,
            asker: d_site(r)?,
        }),
        11 => Ok(Message::OutcomeReport {
            txn: d_vt(r)?,
            outcome: r.opt(d_outcome)?,
        }),
        12 => Ok(Message::OutcomeDecision {
            txn: d_vt(r)?,
            outcome: d_outcome(r)?,
        }),
        13 => Ok(Message::GraphPropose {
            ballot: r.varint()?,
            coordinator: d_site(r)?,
            target: d_oname(r)?,
            coord_target: d_oname(r)?,
            graph: d_graph(r)?,
            at: d_vt(r)?,
        }),
        14 => Ok(Message::GraphAck {
            ballot: r.varint()?,
            coord_target: d_oname(r)?,
        }),
        15 => Ok(Message::Heartbeat),
        16 => Ok(Message::GraphApply {
            ballot: r.varint()?,
            target: d_oname(r)?,
            graph: d_graph(r)?,
            at: d_vt(r)?,
        }),
        17 => Ok(Message::RejoinRequest {
            frontier: d_vt(r)?,
            have: d_vts(r)?,
            serve: r.boolv()?,
        }),
        18 => Ok(Message::RejoinAck {
            frontier: d_vt(r)?,
            have: d_vts(r)?,
        }),
        19 => {
            let n = r.count()?;
            let mut commits = Vec::with_capacity(n);
            for _ in 0..n {
                commits.push(d_propagate(r)?);
            }
            Ok(Message::CatchUp {
                commits,
                rejoined: r.boolv()?,
            })
        }
        t => Err(format!("unknown Message tag {t}")),
    }
}

fn d_envelope(r: &mut R) -> Result<Envelope, String> {
    let from = d_site(r)?;
    let to = d_site(r)?;
    let clock = d_vt(r)?;
    let msg = d_message(r)?;
    // Bytes past the message are the optional trailing span section;
    // pre-span encoders never produce them.
    let span = if r.i < r.b.len() {
        Some(SpanCtx {
            origin: d_site(r)?,
            seq: r.varint()?,
            hop: r.varint_u32()?,
        })
    } else {
        None
    };
    Ok(Envelope {
        from,
        to,
        clock,
        msg,
        span,
    })
}

// ---- durable state: WAL payloads and out-of-band tokens -----------------
//
// Built from the same primitives and the same `WireOp`/graph/association
// encoders as the envelopes above. Every decoder re-establishes what the
// in-memory type assumes (histories strictly ascending in VT, reservation
// intervals not inverted), since the bytes come from a disk.

pub(crate) fn commit_record(o: &mut Vec<u8>, c: &CommitRecord) {
    vt(o, &c.vt);
    put_varint(o, c.origin.0 as u64);
    put_varint(o, c.updates.len() as u64);
    for (object, t_r, op) in &c.updates {
        oname(o, object);
        vt(o, t_r);
        wireop(o, op);
    }
}

pub(crate) fn decode_commit_record(bytes: &[u8]) -> Result<CommitRecord, String> {
    exact(bytes, |r| {
        let vt = d_vt(r)?;
        let origin = d_site(r)?;
        let n = r.count()?;
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            updates.push((d_oname(r)?, d_vt(r)?, d_wireop(r)?));
        }
        Ok(CommitRecord {
            vt,
            origin,
            updates,
        })
    })
}

pub(crate) fn invitation(o: &mut Vec<u8>, i: &Invitation) {
    noderef(o, &i.assoc);
    put_varint(o, i.relation.0);
    noderef(o, &i.contact);
}

pub(crate) fn decode_invitation(bytes: &[u8]) -> Result<Invitation, String> {
    exact(bytes, |r| {
        Ok(Invitation {
            assoc: d_noderef(r)?,
            relation: RelationId(r.varint()?),
            contact: d_noderef(r)?,
        })
    })
}

fn history<T>(o: &mut Vec<u8>, h: &History<T>, value: impl Fn(&mut Vec<u8>, &T)) {
    put_varint(o, h.len() as u64);
    for e in h.iter() {
        vt(o, &e.vt);
        put_bool(o, e.committed);
        value(o, &e.value);
    }
}

fn d_history<T>(
    r: &mut R,
    value: impl Fn(&mut R) -> Result<T, String>,
) -> Result<History<T>, String> {
    let n = r.count()?;
    let mut h = History::new();
    let mut last = None;
    for _ in 0..n {
        let at = d_vt(r)?;
        let committed = r.boolv()?;
        if last.is_some_and(|l| at <= l) {
            return Err(format!("history entry {at} out of VT order"));
        }
        last = Some(at);
        h.insert(at, value(r)?);
        if committed {
            h.mark_committed(at);
        }
    }
    Ok(h)
}

fn reservations(o: &mut Vec<u8>, rs: &ReservationSet) {
    put_varint(o, rs.len() as u64);
    for r in rs.iter() {
        vt(o, &r.lo);
        vt(o, &r.hi);
        vt(o, &r.owner);
    }
}

fn d_reservations(r: &mut R) -> Result<ReservationSet, String> {
    let n = r.count()?;
    let mut rs = ReservationSet::new();
    for _ in 0..n {
        let (lo, hi, owner) = (d_vt(r)?, d_vt(r)?, d_vt(r)?);
        if lo > hi {
            return Err(format!("reservation interval ({lo}, {hi}) is inverted"));
        }
        rs.reserve(lo, hi, owner);
    }
    Ok(rs)
}

fn list_entries(o: &mut Vec<u8>, entries: &[ListEntry]) {
    put_varint(o, entries.len() as u64);
    for e in entries {
        vt(o, &e.tag);
        oname(o, &e.child);
    }
}

fn d_list_entries(r: &mut R) -> Result<Vec<ListEntry>, String> {
    let n = r.count()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(ListEntry {
            tag: d_vt(r)?,
            child: d_oname(r)?,
        });
    }
    Ok(entries)
}

fn tuple_entries(o: &mut Vec<u8>, entries: &BTreeMap<String, ObjectName>) {
    put_varint(o, entries.len() as u64);
    for (key, child) in entries {
        put_str(o, key);
        oname(o, child);
    }
}

fn d_tuple_entries(r: &mut R) -> Result<BTreeMap<String, ObjectName>, String> {
    let n = r.count()?;
    let mut entries = BTreeMap::new();
    for _ in 0..n {
        entries.insert(r.string()?, d_oname(r)?);
    }
    Ok(entries)
}

fn object_value(o: &mut Vec<u8>, v: &ObjectValue) {
    match v {
        ObjectValue::Scalar(s) => {
            o.push(0);
            scalar(o, s);
        }
        ObjectValue::List { entries, ops } => {
            o.push(1);
            list_entries(o, entries);
            put_varint(o, ops.len() as u64);
            for op in ops {
                match op {
                    ListOp::Insert { index, tag, child } => {
                        o.push(0);
                        put_varint(o, *index as u64);
                        vt(o, tag);
                        oname(o, child);
                    }
                    ListOp::Remove { tag } => {
                        o.push(1);
                        vt(o, tag);
                    }
                    ListOp::ReplaceAll { entries } => {
                        o.push(2);
                        list_entries(o, entries);
                    }
                }
            }
        }
        ObjectValue::Tuple { entries, ops } => {
            o.push(2);
            tuple_entries(o, entries);
            put_varint(o, ops.len() as u64);
            for op in ops {
                match op {
                    TupleOp::Put { key, child } => {
                        o.push(0);
                        put_str(o, key);
                        oname(o, child);
                    }
                    TupleOp::Remove { key } => {
                        o.push(1);
                        put_str(o, key);
                    }
                    TupleOp::ReplaceAll { entries } => {
                        o.push(2);
                        tuple_entries(o, entries);
                    }
                }
            }
        }
        ObjectValue::Assoc(a) => {
            o.push(3);
            assoc_state(o, a);
        }
    }
}

fn d_object_value(r: &mut R) -> Result<ObjectValue, String> {
    match r.u8()? {
        0 => Ok(ObjectValue::Scalar(d_scalar(r)?)),
        1 => {
            let entries = Arc::new(d_list_entries(r)?);
            let n = r.count()?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(match r.u8()? {
                    0 => ListOp::Insert {
                        index: r.varint_usize()?,
                        tag: d_vt(r)?,
                        child: d_oname(r)?,
                    },
                    1 => ListOp::Remove { tag: d_vt(r)? },
                    2 => ListOp::ReplaceAll {
                        entries: d_list_entries(r)?,
                    },
                    t => return Err(format!("unknown ListOp tag {t}")),
                });
            }
            Ok(ObjectValue::List { entries, ops })
        }
        2 => {
            let entries = Arc::new(d_tuple_entries(r)?);
            let n = r.count()?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(match r.u8()? {
                    0 => TupleOp::Put {
                        key: r.string()?,
                        child: d_oname(r)?,
                    },
                    1 => TupleOp::Remove { key: r.string()? },
                    2 => TupleOp::ReplaceAll {
                        entries: d_tuple_entries(r)?,
                    },
                    t => return Err(format!("unknown TupleOp tag {t}")),
                });
            }
            Ok(ObjectValue::Tuple { entries, ops })
        }
        3 => Ok(ObjectValue::Assoc(Arc::new(d_assoc(r)?.0))),
        t => Err(format!("unknown ObjectValue tag {t}")),
    }
}

fn object_checkpoint(o: &mut Vec<u8>, c: &ObjectCheckpoint) {
    oname(o, &c.name);
    o.push(match c.kind {
        ObjectKind::Int => 0,
        ObjectKind::Real => 1,
        ObjectKind::Str => 2,
        ObjectKind::List => 3,
        ObjectKind::Tuple => 4,
        ObjectKind::Association => 5,
    });
    history(o, &c.values, object_value);
    history(o, &c.graphs, graph);
    reservations(o, &c.value_reservations);
    reservations(o, &c.graph_reservations);
    put_opt(o, c.parent.as_ref(), oname);
    o.push(match c.propagation {
        PropagationMode::Direct => 0,
        PropagationMode::Indirect => 1,
    });
    put_varint(o, c.embeddings.len() as u64);
    for (tag, child) in &c.embeddings {
        vt(o, tag);
        oname(o, child);
    }
}

fn d_object_checkpoint(r: &mut R) -> Result<ObjectCheckpoint, String> {
    let name = d_oname(r)?;
    let kind = match r.u8()? {
        0 => ObjectKind::Int,
        1 => ObjectKind::Real,
        2 => ObjectKind::Str,
        3 => ObjectKind::List,
        4 => ObjectKind::Tuple,
        5 => ObjectKind::Association,
        t => return Err(format!("unknown ObjectKind tag {t}")),
    };
    let values = d_history(r, d_object_value)?;
    let graphs = d_history(r, d_graph)?;
    let value_reservations = d_reservations(r)?;
    let graph_reservations = d_reservations(r)?;
    let parent = r.opt(d_oname)?;
    let propagation = match r.u8()? {
        0 => PropagationMode::Direct,
        1 => PropagationMode::Indirect,
        t => return Err(format!("unknown PropagationMode tag {t}")),
    };
    let n = r.count()?;
    let mut embeddings = Vec::with_capacity(n);
    for _ in 0..n {
        embeddings.push((d_vt(r)?, d_oname(r)?));
    }
    Ok(ObjectCheckpoint {
        name,
        kind,
        values,
        graphs,
        value_reservations,
        graph_reservations,
        parent,
        propagation,
        embeddings,
    })
}

pub(crate) fn checkpoint(o: &mut Vec<u8>, cp: &Checkpoint) {
    put_varint(o, cp.site.0 as u64);
    put_varint(o, cp.clock.site().0 as u64);
    put_varint(o, cp.clock.counter());
    put_varint(o, cp.objects.len() as u64);
    for obj in &cp.objects {
        object_checkpoint(o, obj);
    }
    put_varint(o, cp.next_seq);
    put_varint(o, cp.decided.len() as u64);
    for (txn, out) in &cp.decided {
        vt(o, txn);
        outcome(o, out);
    }
    put_varint(o, cp.next_relation);
}

pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, String> {
    exact(bytes, |r| {
        let site = d_site(r)?;
        let clock_site = d_site(r)?;
        let mut clock = LamportClock::new(clock_site);
        clock.witness(VirtualTime::new(r.varint()?, clock_site));
        let n = r.count()?;
        let mut objects = Vec::with_capacity(n);
        for _ in 0..n {
            objects.push(d_object_checkpoint(r)?);
        }
        let next_seq = r.varint()?;
        let m = r.count()?;
        let mut decided = Vec::with_capacity(m);
        for _ in 0..m {
            decided.push((d_vt(r)?, d_outcome(r)?));
        }
        Ok(Checkpoint {
            site,
            clock,
            objects,
            next_seq,
            decided,
            next_relation: r.varint()?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A checksum over two slices equals the checksum of their join.
        assert_eq!(
            !crc32_update(crc32_update(!0, b"1234"), b"56789"),
            crc32(b"123456789")
        );
    }

    #[test]
    fn huge_declared_lengths_are_errors_not_overflows() {
        // A string whose length varint is usize::MAX: the slice bound must
        // be computed with a checked add.
        let mut bytes = vec![2u8]; // ScalarValue::Str
        put_varint(&mut bytes, u64::MAX);
        let mut r = R::new(&bytes);
        assert!(d_scalar(&mut r).is_err());
        // An element count beyond the remaining bytes is refused before
        // anything is reserved for it.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1 << 40);
        let mut r = R::new(&bytes);
        assert!(d_vts(&mut r).is_err());
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let nest = |levels: u32| {
            let mut bp = Blueprint::Int(1);
            let mut snap = TreeSnapshot::Scalar(ScalarValue::Int(1));
            for _ in 0..levels {
                bp = Blueprint::List(vec![bp]);
                snap = TreeSnapshot::Tuple(vec![("k".into(), snap)]);
            }
            let (mut b, mut t) = (Vec::new(), Vec::new());
            blueprint(&mut b, &bp);
            tree(&mut t, &snap);
            (bp, b, snap, t)
        };
        let (bp, b, snap, t) = nest(MAX_NESTING);
        assert_eq!(exact(&b, d_blueprint), Ok(bp));
        assert_eq!(exact(&t, d_tree), Ok(snap));
        let (_, b, _, t) = nest(MAX_NESTING + 1);
        assert!(exact(&b, d_blueprint).is_err());
        assert!(exact(&t, d_tree).is_err());
        // Two bytes a level, a million levels: refused at the bound, long
        // before the stack is at risk.
        let deep = [3u8, 1].repeat(1_000_000);
        assert!(exact(&deep, d_blueprint).is_err());
    }

    #[test]
    fn durable_decoders_recheck_invariants() {
        let at = VirtualTime::new(5, SiteId(1));
        // Two history entries at the same VT: not strictly ascending.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        for _ in 0..2 {
            vt(&mut bytes, &at);
            put_bool(&mut bytes, true);
            graph(&mut bytes, &ReplicationGraph::default());
        }
        let mut r = R::new(&bytes);
        assert!(d_history(&mut r, d_graph).is_err());
        // A reservation with lo > hi.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1);
        vt(&mut bytes, &at);
        vt(&mut bytes, &VirtualTime::ZERO);
        vt(&mut bytes, &at);
        let mut r = R::new(&bytes);
        assert!(d_reservations(&mut r).is_err());
    }

    fn list_read(index: usize, tag: u64, hi: Option<u64>) -> ReadItem {
        let tag = VirtualTime::new(tag, SiteId(1));
        ReadItem {
            addr: ObjectAddr::Indirect {
                root: ObjectName::new(SiteId(1), 0),
                path: Path::from(vec![PathElem::Index { index, tag }]),
            },
            t_r: tag,
            t_g: tag,
            hi: hi.map(|h| VirtualTime::new(h, SiteId(2))),
        }
    }

    fn coded(reads: &[ReadItem]) -> Vec<u8> {
        let mut bytes = Vec::new();
        snapshot_reads(&mut bytes, &reads.iter().cloned().collect());
        let back = exact(&bytes, d_snapshot_reads).map(|r| r.iter().collect::<Vec<_>>());
        assert_eq!(back.as_deref(), Ok(reads));
        bytes
    }

    #[test]
    fn snapshot_reads_repeat_what_the_preceding_item_said() {
        let root = ObjectName::new(SiteId(1), 0);
        // The list, its first three children, one written since it was
        // embedded, a child further on with another `hi`, a tuple field.
        let mut reads = vec![ReadItem {
            addr: ObjectAddr::Direct(root),
            ..list_read(0, 5, Some(50))
        }];
        reads.extend((0..3).map(|i| list_read(i, 10 + i as u64, Some(50))));
        reads.push(ReadItem {
            t_r: VirtualTime::new(40, SiteId(2)),
            ..list_read(3, 13, Some(50))
        });
        reads.push(list_read(9, 19, None));
        reads.push(ReadItem {
            addr: ObjectAddr::Indirect {
                root,
                path: Path::from(vec![PathElem::Key("k".into())]),
            },
            ..list_read(0, 19, None)
        });
        let flags = [
            READ_TG_IS_TR,
            READ_SAME_ROOT | READ_TR_IS_TAG | READ_TG_IS_TR | READ_HI_REPEATS,
            READ_FLAGS,
            READ_FLAGS,
            READ_SAME_ROOT | READ_NEXT_INDEX | READ_HI_REPEATS,
            READ_SAME_ROOT | READ_TR_IS_TAG | READ_TG_IS_TR,
            READ_TG_IS_TR | READ_HI_REPEATS,
        ];
        let bytes = coded(&reads);
        // An item's coding depends on nothing after it, so item `k`'s flag
        // byte sits where the coding of the first `k` items ends.
        for (k, flags) in flags.into_iter().enumerate() {
            let at = coded(&reads[..k]).len();
            assert_eq!(bytes[at], flags, "flags of {:?}", reads[k]);
        }
        // A child that repeats everything is its flag byte and its tag.
        let (third, fourth) = (coded(&reads[..3]).len(), coded(&reads[..4]).len());
        assert_eq!(bytes[third..fourth], [READ_FLAGS, 12, 1]);
    }

    #[test]
    fn snapshot_reads_are_decoded_strictly() {
        // Checked alone and inside a CONFIRM-READ envelope: what the one
        // rejects, the other does.
        let decode = |bytes: &[u8]| {
            let alone = exact(bytes, d_snapshot_reads);
            // Tag 2, subject 49@2, origin 2.
            let in_message = exact(&[&[2, 0x31, 0x02, 0x02], bytes].concat(), d_message);
            assert_eq!(alone.is_ok(), in_message.is_ok(), "{bytes:?}");
            alone
        };
        let pair = [list_read(0, 10, Some(50)), list_read(1, 11, Some(50))];
        let good = coded(&pair);
        assert_eq!(good[0], 2);
        assert_eq!(good[good.len() - 3], READ_FLAGS);
        // Truncation anywhere, and bytes left over.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode(&[good.as_slice(), &[0]].concat()).is_err());
        // A flag bit this codec does not define.
        let mut bad = good.clone();
        bad[1] |= 0x20;
        assert!(decode(&bad).unwrap_err().contains("unknown read flag bits"));
        // An item that repeats its predecessor, and has none.
        for first in [READ_SAME_ROOT, READ_HI_REPEATS, READ_FLAGS] {
            let mut bad = good.clone();
            bad[1] = first | READ_TG_IS_TR;
            let err = decode(&bad).unwrap_err();
            assert!(err.contains("not there"), "{first:#x}: {err}");
        }
        // An index form without the address form it belongs to.
        for lone in [READ_NEXT_INDEX, READ_TR_IS_TAG] {
            let mut bad = good.clone();
            bad[good.len() - 3] = lone;
            assert!(decode(&bad).unwrap_err().contains("without a root"));
        }
        // "The next index" after an item that has no index.
        let direct = ReadItem {
            addr: ObjectAddr::Direct(ObjectName::new(SiteId(1), 0)),
            ..list_read(0, 10, Some(50))
        };
        let mut bad = coded(&[direct, list_read(0, 11, Some(50))]);
        let at = bad.len() - 4;
        assert_eq!(
            bad[at],
            READ_SAME_ROOT | READ_TR_IS_TAG | READ_TG_IS_TR | READ_HI_REPEATS
        );
        bad[at] |= READ_NEXT_INDEX;
        bad.remove(at + 1); // the index that flag says is not sent
        assert!(decode(&bad).unwrap_err().contains("has none"));
        // One past the largest index.
        let mut bytes = coded(&[list_read(usize::MAX, 10, None), list_read(0, 11, None)]);
        let at = bytes.len() - 4;
        bytes[at] |= READ_NEXT_INDEX;
        bytes.remove(at + 1);
        assert!(decode(&bytes).is_err());
        // A count the remaining bytes cannot hold allocates nothing.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1 << 40);
        assert!(decode(&bytes).unwrap_err().contains("exceeds remaining"));
    }

    #[test]
    fn invitation_round_trips() {
        let inv = Invitation {
            assoc: NodeRef::new(SiteId(1), ObjectName::new(SiteId(1), 0)),
            relation: RelationId(1),
            contact: NodeRef::new(SiteId(1), ObjectName::new(SiteId(1), 1)),
        };
        let bytes = inv.to_bytes();
        assert_eq!(Invitation::from_bytes(&bytes), Ok(inv));
        assert!(Invitation::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
