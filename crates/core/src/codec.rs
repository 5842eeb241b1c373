//! The one binary encoding of everything a site writes: protocol
//! [`Envelope`]s on the wire (`decaf-net`'s `wire` frames carry these
//! payloads) and [`CommitRecord`]/[`Checkpoint`] payloads in the write-ahead
//! log ([`CommitLog`](crate::CommitLog)).
//!
//! One tag byte per enum variant, LEB128 varints for unsigned integers,
//! zigzag varints for signed ones, length-prefixed UTF-8 strings, and 8-byte
//! little-endian IEEE bit patterns for reals (so non-finite values
//! round-trip). A struct is its fields in order; a sequence, set or map is a
//! varint count, then its items; an option is a byte 0 or 1, then the value.
//!
//! # One table per layout
//!
//! Each layout is stated once, and both directions come from it: a type
//! implements the private `Wire` trait, whose `put` appends the type and
//! whose `get` reads it back. The leaves (integers, reals, strings, options,
//! sequences, sets, maps) and the few layouts that are not plain field
//! sequences (a path's one-element form, snapshot reads, the replication
//! graph, histories, reservations, the clock and the envelope's trailing
//! span) are written by hand; every other struct and enum is one row of the
//! `wire!` tables, which list each tag, variant and field once, in the order
//! their bytes take.
//!
//! # Adding a field or a variant
//!
//! A new field is its name in its row of the table, where its bytes go; a
//! new variant is one row with the next free tag. Then pin the bytes: add
//! the variant to `sample_envelopes` and its hex to `SAMPLE_ENVELOPES_HEX`
//! in `decaf-net`'s `tests/wire_codec_v2.rs`, or extend the populated-log
//! goldens of this crate's `tests/wal.rs`. A change to bytes that are
//! already written bumps `decaf-net`'s `CODEC_VERSION` (the wire) or
//! [`WAL_FORMAT_VERSION`](crate::WAL_FORMAT_VERSION) (the log).
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
//! encoder copies it out unchanged. The guessing site pushes a list child
//! straight from its key (`push_child`: the list, the index, the tag), and
//! any other object by its address (`push`); both write the same bytes for
//! the same item. One decoder reads the flags back. The envelope decoder
//! runs every check above on each item with it before it keeps the bytes,
//! so a malformed request is refused where it is read off the wire. The
//! primary decodes each item once more, as it checks it, into a
//! [`ReadTarget`] rather than a [`ReadItem`]: a list child comes back as
//! its key, which the primary resolves against the list's entries, fetched
//! once for each run of children of one list, and builds no path for it.
//!
//! The layout is strict and self-delimiting — decoding rejects unknown
//! tags, truncation, and trailing bytes, bounds every declared count by the
//! bytes that remain before allocating for it, and follows composites no
//! deeper than [`MAX_NESTING`] levels — and is pinned by golden byte
//! snapshots in `decaf-net`'s `tests/wire_codec_v2.rs` (envelopes) and this
//! crate's `tests/wal.rs` (WAL records). Decode errors are human-readable
//! strings; callers wrap them in their own error type (`WireError::Codec`,
//! [`WalError::SchemaMismatch`](crate::WalError)).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use decaf_vt::{History, LamportClock, ReservationSet, SiteId, VirtualTime};

use crate::collab::{Invitation, RelationId};
use crate::graph::{NodeRef, ReplicationGraph};
use crate::message::{
    AssocSnapshot, Delegate, Envelope, Message, ObjectAddr, Path, PathElem, ReadItem, SpanCtx,
    SubjectKind, TreeSnapshot, TxnPropagate, UpdateItem, WireOp,
};
use crate::object::{
    Blueprint, ListEntry, ListOp, ObjectKind, ObjectName, ObjectValue, PropagationMode, Relation,
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

// ---- the two directions of a layout -------------------------------------

/// A type's binary layout: `put` appends it, `get` reads it back.
///
/// Every `put` and `get` below, and the reader's methods, are
/// `#[inline]`. Unlike a private function, a trait method keeps an exported
/// symbol, which LLVM seldom inlines, and the reader's methods are called
/// from other codegen units through the GOT. Without the attribute on the
/// `Wire` methods, a blind write's envelopes decode 28 % slower than from
/// the free functions this trait replaced (EXPERIMENTS.md §C1).
trait Wire: Sized {
    fn put(&self, o: &mut Vec<u8>);
    fn get(r: &mut R) -> Result<Self, String>;
}

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

/// Appends the count of `items`, then each of them.
fn put_all<'a, T: Wire + 'a>(o: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    put_varint(o, items.len() as u64);
    for item in items {
        item.put(o);
    }
}

impl Wire for u64 {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, *self);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        r.varint()
    }
}

impl Wire for u32 {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, u64::from(*self));
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        u32::try_from(r.varint()?).map_err(|_| "varint overflows u32".to_string())
    }
}

impl Wire for usize {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, *self as u64);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        usize::try_from(r.varint()?).map_err(|_| "varint overflows usize".to_string())
    }
}

impl Wire for i64 {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        // Zigzag: small magnitudes of either sign stay short.
        put_varint(o, ((self << 1) ^ (self >> 63)) as u64);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let z = r.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

impl Wire for f64 {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        o.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let s = r.slice(8)?;
        let bits = u64::from_le_bytes(s.try_into().expect("slice has 8 bytes"));
        Ok(f64::from_bits(bits))
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        o.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, self.len() as u64);
        o.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let len = usize::get(r)?;
        let s = r.slice(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        match self {
            None => o.push(0),
            Some(v) => {
                o.push(1);
                v.put(o);
            }
        }
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(format!("bad option byte {b}")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_all(o, self.iter());
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let n = r.count()?;
        r.items(n)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_all(o, self.iter());
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let n = r.count()?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, self.len() as u64);
        for (k, v) in self {
            k.put(o);
            v.put(o);
        }
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let n = r.count()?;
        (0..n).map(|_| <(K, V)>::get(r)).collect()
    }
}

/// Written by content: sharing is a memory matter only.
impl<T: Wire> Wire for Arc<T> {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        (**self).put(o);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        T::get(r).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        self.0.put(o);
        self.1.put(o);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        self.0.put(o);
        self.1.put(o);
        self.2.put(o);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

// ---- the tables ---------------------------------------------------------

/// Implements [`Wire`] for each item from one table. `struct T { a, b }` is
/// its fields in the order listed. `enum T { 0 => A(x), 1 => B { a, b } }`
/// is the variant's tag byte, then its fields in the order listed; a tag
/// past the table is refused as "unknown T tag". A variant marked `nested`
/// is one composite level, decoded under [`R::nested`].
macro_rules! wire {
    () => {};
    (struct $T:ident { $($f:tt),* $(,)? } $($rest:tt)*) => {
        impl Wire for $T {
            #[inline]
            fn put(&self, o: &mut Vec<u8>) {
                $( self.$f.put(o); )*
            }
            #[inline]
            fn get(r: &mut R) -> Result<Self, String> {
                Ok($T { $( $f: Wire::get(r)? ),* })
            }
        }
        wire!($($rest)*);
    };
    (enum $T:ident {
        $( $tag:literal => $V:ident $(($x:ident))? $({ $($f:ident),* $(,)? })? $($nested:ident)? ),*
        $(,)?
    } $($rest:tt)*) => {
        impl Wire for $T {
            #[inline]
            fn put(&self, o: &mut Vec<u8>) {
                match self {
                    $( $T::$V $(($x))? $({ $($f),* })? => {
                        o.push($tag);
                        $( $x.put(o); )?
                        $( $( $f.put(o); )* )?
                    } )*
                }
            }
            #[inline]
            fn get(r: &mut R) -> Result<Self, String> {
                match r.u8()? {
                    $( $tag => wire!(@level r $($nested)? {
                        $( let $x = Wire::get(r)?; )?
                        $( $( let $f = Wire::get(r)?; )* )?
                        Ok($T::$V $(($x))? $({ $($f),* })?)
                    }), )*
                    t => Err(format!(concat!("unknown ", stringify!($T), " tag {}"), t)),
                }
            }
        }
        wire!($($rest)*);
    };
    (@level $r:ident nested $body:block) => { $r.nested(|$r| $body) };
    (@level $r:ident $body:block) => { $body };
}

wire! {
    struct SiteId { 0 }
    struct RelationId { 0 }
    struct VirtualTime { lamport, site }
    struct ObjectName { site, seq }
    struct NodeRef { site, object }

    enum ScalarValue {
        0 => Int(v),
        1 => Real(v),
        2 => Str(v),
    }
    enum Blueprint {
        0 => Int(v),
        1 => Real(v),
        2 => Str(v),
        3 => List(children) nested,
        4 => Tuple(children) nested,
    }
    enum PathElem {
        0 => Index { index, tag },
        1 => Key(k),
    }
    enum ObjectAddr {
        0 => Direct(name),
        1 => Indirect { root, path },
    }
    struct Relation { members, description }
    struct AssocSnapshot { 0 }
    enum TreeSnapshot {
        0 => Scalar(s),
        1 => List(entries) nested,
        2 => Tuple(entries) nested,
        3 => Assoc(a),
    }
    enum WireOp {
        0 => SetScalar(s),
        1 => ListInsert { index, child },
        2 => ListRemove { tag },
        3 => TuplePut { key, child },
        4 => TupleRemove { key },
        5 => SetAssoc(a),
        6 => SetTree(t),
    }
    struct UpdateItem { addr, t_r, t_g, op, needs_check }
    struct ReadItem { addr, t_r, t_g, hi }
    struct Delegate { notify }
    struct TxnPropagate { txn, origin, updates, reads, delegate }
    enum SubjectKind {
        0 => Txn,
        1 => Snapshot,
    }
    enum TxnOutcome {
        0 => Committed,
        1 => Aborted,
    }
    struct SpanCtx { origin, seq, hop }

    enum Message {
        1 => Txn(p),
        2 => SnapshotConfirm { subject, origin, reads },
        3 => Confirm { subject, kind },
        4 => Deny { subject, kind },
        5 => Commit { txn },
        6 => Abort { txn },
        7 => JoinRequest { txn, origin, relation, a_node, a_graph, b_object, assoc_object },
        8 => JoinReply {
            txn, ok, b_node, merged, b_value, b_value_vt, b_value_committed, confirms_expected,
            extra_affected,
        },
        9 => GraphUpdate {
            txn, origin, target, graph, t_g, needs_check, adopt_value, adopt_value_vt,
        },
        10 => OutcomeQuery { txn, asker },
        11 => OutcomeReport { txn, outcome },
        12 => OutcomeDecision { txn, outcome },
        13 => GraphPropose { ballot, coordinator, target, coord_target, graph, at },
        14 => GraphAck { ballot, coord_target },
        15 => Heartbeat,
        16 => GraphApply { ballot, target, graph, at },
        17 => RejoinRequest { frontier, have, serve },
        18 => RejoinAck { frontier, have },
        19 => CatchUp { commits, rejoined },
    }

    // Durable state: the WAL's payloads and the out-of-band invitation.
    struct CommitRecord { vt, origin, updates }
    struct Invitation { assoc, relation, contact }
    struct ListEntry { tag, child }
    enum ListOp {
        0 => Insert { index, tag, child },
        1 => Remove { tag },
        2 => ReplaceAll { entries },
    }
    enum TupleOp {
        0 => Put { key, child },
        1 => Remove { key },
        2 => ReplaceAll { entries },
    }
    enum ObjectValue {
        0 => Scalar(s),
        1 => List { entries, ops },
        2 => Tuple { entries, ops },
        3 => Assoc(a),
    }
    enum ObjectKind {
        0 => Int,
        1 => Real,
        2 => Str,
        3 => List,
        4 => Tuple,
        5 => Association,
    }
    enum PropagationMode {
        0 => Direct,
        1 => Indirect,
    }
    struct ObjectCheckpoint {
        name, kind, values, graphs, value_reservations, graph_reservations, parent, propagation,
        embeddings,
    }
    struct Checkpoint { site, clock, objects, next_seq, decided, next_relation }
}

// ---- the layouts that are not plain field sequences ---------------------

impl Wire for Path {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_all(o, self.elems().iter());
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let n = r.count()?;
        // One element, a list child under its root, is kept without a `Vec`.
        if n == 1 {
            return Ok(Path::from(PathElem::get(r)?));
        }
        Ok(Path::from(r.items(n)?))
    }
}

/// Its node set, then its edge set, each counted from the set itself.
impl Wire for ReplicationGraph {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_all(o, self.nodes());
        put_all(o, self.edges());
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let nodes: Vec<NodeRef> = Wire::get(r)?;
        let edges: Vec<(NodeRef, NodeRef, RelationId)> = Wire::get(r)?;
        Ok(ReplicationGraph::from_parts(nodes, edges))
    }
}

// Durable state comes from a disk, so its decoders re-establish what the
// in-memory types assume: histories strictly ascending in VT, reservation
// intervals not inverted.

impl<T: Wire> Wire for History<T> {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, self.len() as u64);
        for e in self.iter() {
            e.vt.put(o);
            e.committed.put(o);
            e.value.put(o);
        }
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let n = r.count()?;
        let mut h = History::new();
        let mut last = None;
        for _ in 0..n {
            let at = VirtualTime::get(r)?;
            let committed = bool::get(r)?;
            if last.is_some_and(|l| at <= l) {
                return Err(format!("history entry {at} out of VT order"));
            }
            last = Some(at);
            h.insert(at, T::get(r)?);
            if committed {
                h.mark_committed(at);
            }
        }
        Ok(h)
    }
}

impl Wire for ReservationSet {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, self.len() as u64);
        for r in self.iter() {
            (r.lo, r.hi, r.owner).put(o);
        }
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let n = r.count()?;
        let mut rs = ReservationSet::new();
        for _ in 0..n {
            let (lo, hi, owner) = <(VirtualTime, VirtualTime, VirtualTime)>::get(r)?;
            if lo > hi {
                return Err(format!("reservation interval ({lo}, {hi}) is inverted"));
            }
            rs.reserve(lo, hi, owner);
        }
        Ok(rs)
    }
}

/// Its site and its counter; decoding witnesses the counter.
impl Wire for LamportClock {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        self.site().put(o);
        self.counter().put(o);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        let site = SiteId::get(r)?;
        let mut clock = LamportClock::new(site);
        clock.witness(VirtualTime::new(u64::get(r)?, site));
        Ok(clock)
    }
}

impl Wire for Envelope {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        self.from.put(o);
        self.to.put(o);
        self.clock.put(o);
        self.msg.put(o);
        // Trailing optional span section. Span-less envelopes keep the
        // pre-span byte layout exactly (pinned by golden snapshots); the
        // decoder parses a span iff bytes remain after the message, which
        // is sound because every envelope is decoded from an exactly
        // delimited slice (whole frame payload, or the batch's per-entry
        // length prefix).
        if let Some(s) = &self.span {
            s.put(o);
        }
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
        Ok(Envelope {
            from: Wire::get(r)?,
            to: Wire::get(r)?,
            clock: Wire::get(r)?,
            msg: Wire::get(r)?,
            span: if r.i < r.b.len() {
                Some(Wire::get(r)?)
            } else {
                None
            },
        })
    }
}

// ---- snapshot reads ------------------------------------------------------

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

/// What a snapshot read names at the primary: a list child as the list and
/// the child's index and tag, so that reading it builds no path, and any
/// other object by its address.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadTarget {
    /// The child embedded at `tag` in list `root`, `index` its position when
    /// the read was made (a hint, as in [`PathElem::Index`]).
    Child {
        /// The list, named at the primary.
        root: ObjectName,
        /// The child's position in it at the guessing site.
        index: usize,
        /// The VT of the transaction that embedded the child.
        tag: VirtualTime,
    },
    /// Any address that is not exactly one list index under a root.
    Addr(ObjectAddr),
}

impl From<ObjectAddr> for ReadTarget {
    fn from(addr: ObjectAddr) -> Self {
        match root_and_index(&addr) {
            (root, Some((index, tag))) => ReadTarget::Child { root, index, tag },
            _ => ReadTarget::Addr(addr),
        }
    }
}

impl From<ReadTarget> for ObjectAddr {
    fn from(target: ReadTarget) -> Self {
        match target {
            ReadTarget::Child { root, index, tag } => ObjectAddr::Indirect {
                root,
                path: Path::from(PathElem::Index { index, tag }),
            },
            ReadTarget::Addr(addr) => addr,
        }
    }
}

/// One item of a [`SnapshotReads`] as it is decoded: a [`ReadItem`] whose
/// address is a [`ReadTarget`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRead {
    /// The object read, named at the primary.
    pub target: ReadTarget,
    /// `tR`, as in [`ReadItem::t_r`].
    pub t_r: VirtualTime,
    /// `tG`, as in [`ReadItem::t_g`].
    pub t_g: VirtualTime,
    /// The guessed interval's upper bound, as in [`ReadItem::hi`].
    pub hi: Option<VirtualTime>,
}

impl From<SnapshotRead> for ReadItem {
    fn from(r: SnapshotRead) -> Self {
        ReadItem {
            addr: r.target.into(),
            t_r: r.t_r,
            t_g: r.t_g,
            hi: r.hi,
        }
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

/// A view snapshot's CONFIRM-READ items ([`Message::SnapshotConfirm`]),
/// kept as their coding (module docs, "Snapshot reads"): what a request
/// holds while it is queued at the guessing site, in flight and parked at
/// the primary is its wire size, 4–5 bytes for the next child of a list
/// where a [`ReadItem`] is 104.
///
/// Built with [`push`](SnapshotReads::push) or, for a list child,
/// [`push_child`](SnapshotReads::push_child) (or collected), read back with
/// [`targets`](SnapshotReads::targets) or [`iter`](SnapshotReads::iter),
/// which decode each item once. The bytes are valid by construction: the
/// pushes write them and the envelope decoder checks every item before it
/// keeps them, so reading them back cannot fail. Two values are equal
/// exactly when they hold the same items in the same order.
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
        let (root, child) = root_and_index(&item.addr);
        self.push_coded(root, child, Some(&item.addr), item.t_r, item.t_g, item.hi);
    }

    /// Appends the read of the child embedded at `tag` in list `root`, at
    /// `index` there, read at `t_r` (which is also its `t_g`) up to `hi`:
    /// the bytes [`push`](SnapshotReads::push) writes for that item, without
    /// building its address.
    pub fn push_child(
        &mut self,
        root: ObjectName,
        index: usize,
        tag: VirtualTime,
        t_r: VirtualTime,
        hi: Option<VirtualTime>,
    ) {
        self.push_coded(root, Some((index, tag)), None, t_r, t_r, hi);
    }

    /// Appends one item coded against the one before it: the item's `root`,
    /// its index and tag if it is one list index under that root, and its
    /// address in full (`None` only for such a child, whose address is
    /// then built if it must be written in full).
    #[inline(always)]
    fn push_coded(
        &mut self,
        root: ObjectName,
        child: Option<(usize, VirtualTime)>,
        addr: Option<&ObjectAddr>,
        t_r: VirtualTime,
        t_g: VirtualTime,
        hi: Option<VirtualTime>,
    ) {
        let (prev, at) = (self.last, self.bytes.len());
        let o = &mut self.bytes;
        let mut flags = 0;
        if let (Some((index, tag)), Some(prev)) = (child, prev) {
            if prev.root == root {
                flags |= READ_SAME_ROOT;
                if prev.index.is_some_and(|i| i.checked_add(1) == Some(index)) {
                    flags |= READ_NEXT_INDEX;
                }
                if t_r == tag {
                    flags |= READ_TR_IS_TAG;
                }
            }
        }
        if t_g == t_r {
            flags |= READ_TG_IS_TR;
        }
        if prev.is_some_and(|prev| prev.hi == hi) {
            flags |= READ_HI_REPEATS;
        }
        o.push(flags);
        match (child, addr) {
            (Some((index, tag)), _) if flags & READ_SAME_ROOT != 0 => {
                if flags & READ_NEXT_INDEX == 0 {
                    index.put(o);
                }
                tag.put(o);
            }
            (_, Some(addr)) => addr.put(o),
            (Some((index, tag)), None) => {
                ObjectAddr::from(ReadTarget::Child { root, index, tag }).put(o)
            }
            (None, None) => unreachable!("only a list child is pushed without its address"),
        }
        if flags & READ_TR_IS_TAG == 0 {
            t_r.put(o);
        }
        if flags & READ_TG_IS_TR == 0 {
            t_g.put(o);
        }
        if flags & READ_HI_REPEATS == 0 {
            hi.put(o);
        }
        let last = ReadCtx {
            root,
            index: child.map(|(i, _)| i),
            hi,
        };
        debug_assert!(
            {
                let target = match (child, addr) {
                    (Some((index, tag)), _) => ReadTarget::Child { root, index, tag },
                    (None, addr) => ReadTarget::Addr(addr.expect("checked above").clone()),
                };
                let pushed = SnapshotRead {
                    target,
                    t_r,
                    t_g,
                    hi,
                };
                exact(&self.bytes[at..], |r| d_snapshot_read(r, prev))
                    .is_ok_and(|(decoded, next)| decoded == pushed && next == last)
            },
            "targets() yields what was pushed"
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
    /// reached; a list child comes back as [`ReadTarget::Child`] however it
    /// was pushed.
    pub fn targets(&self) -> SnapshotReadsIter<'_> {
        SnapshotReadsIter {
            r: R::new(&self.bytes),
            prev: None,
            left: self.len,
        }
    }

    /// The items in the order they were pushed, as [`ReadItem`]s.
    pub fn iter(&self) -> impl Iterator<Item = ReadItem> + '_ {
        self.targets().map(ReadItem::from)
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
    type Item = SnapshotRead;

    #[inline]
    fn next(&mut self) -> Option<SnapshotRead> {
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

/// Decodes one snapshot read item coded against `prev`, the item before it
/// if there is one, and what the next item is coded against. The one
/// decoder of the flags: the envelope decoder's check, [`SnapshotReads::targets`]
/// and [`SnapshotReads::iter`] all go through it. Inlined: it is the
/// primary's per-item cost when it checks a request.
#[inline(always)]
fn d_snapshot_read(r: &mut R, prev: Option<ReadCtx>) -> Result<(SnapshotRead, ReadCtx), String> {
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
    let (target, root, index, same_root_tag) = if flags & READ_SAME_ROOT != 0 {
        let prev = prev.expect("checked above");
        let index = if flags & READ_NEXT_INDEX == 0 {
            usize::get(r)?
        } else {
            prev.index
                .and_then(|i| i.checked_add(1))
                .ok_or("read index follows an item that has none")?
        };
        let tag = VirtualTime::get(r)?;
        let target = ReadTarget::Child {
            root: prev.root,
            index,
            tag,
        };
        (target, prev.root, Some(index), Some(tag))
    } else {
        let target = ReadTarget::from(ObjectAddr::get(r)?);
        let (root, index) = match &target {
            ReadTarget::Child { root, index, .. } => (*root, Some(*index)),
            ReadTarget::Addr(addr) => (root_and_index(addr).0, None),
        };
        (target, root, index, None)
    };
    let t_r = match same_root_tag {
        Some(tag) if flags & READ_TR_IS_TAG != 0 => tag,
        _ => VirtualTime::get(r)?,
    };
    let t_g = if flags & READ_TG_IS_TR != 0 {
        t_r
    } else {
        VirtualTime::get(r)?
    };
    let hi = if flags & READ_HI_REPEATS != 0 {
        prev.expect("checked above").hi
    } else {
        Option::get(r)?
    };
    let next = ReadCtx { root, index, hi };
    Ok((
        SnapshotRead {
            target,
            t_r,
            t_g,
            hi,
        },
        next,
    ))
}

/// The items' count, then their coding, copied out as it is held; decoding
/// checks every item before it keeps the bytes.
impl Wire for SnapshotReads {
    #[inline]
    fn put(&self, o: &mut Vec<u8>) {
        put_varint(o, self.len as u64);
        o.extend_from_slice(&self.bytes);
    }
    #[inline]
    fn get(r: &mut R) -> Result<Self, String> {
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
}

// ---- entry points and the reader ----------------------------------------

/// Appends the binary encoding of `e` to `o`.
pub fn envelope(o: &mut Vec<u8>, e: &Envelope) {
    e.put(o);
}

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
    exact(bytes, Envelope::get)
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

pub(crate) fn commit_record(o: &mut Vec<u8>, c: &CommitRecord) {
    c.put(o);
}

pub(crate) fn decode_commit_record(bytes: &[u8]) -> Result<CommitRecord, String> {
    exact(bytes, CommitRecord::get)
}

pub(crate) fn invitation(o: &mut Vec<u8>, i: &Invitation) {
    i.put(o);
}

pub(crate) fn decode_invitation(bytes: &[u8]) -> Result<Invitation, String> {
    exact(bytes, Invitation::get)
}

pub(crate) fn checkpoint(o: &mut Vec<u8>, cp: &Checkpoint) {
    cp.put(o);
}

pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, String> {
    exact(bytes, Checkpoint::get)
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
    #[inline]
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, String>) -> Result<T, String> {
        if self.depth == MAX_NESTING {
            return Err(format!("composite nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, String> {
        let v = *self.b.get(self.i).ok_or("unexpected end of input")?;
        self.i += 1;
        Ok(v)
    }

    #[inline]
    fn slice(&mut self, n: usize) -> Result<&'a [u8], String> {
        // `n` comes from input: checked, so a huge length is an error
        // and not an overflow.
        let end = self.i.checked_add(n).ok_or("unexpected end of input")?;
        let s = self.b.get(self.i..end).ok_or("unexpected end of input")?;
        self.i = end;
        Ok(s)
    }

    #[inline]
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

    /// Bounds a declared element count by the bytes actually remaining
    /// (each element costs ≥ 1 byte), so a corrupt count cannot trigger
    /// an absurd `Vec::with_capacity`.
    #[inline]
    fn count(&mut self) -> Result<usize, String> {
        let n = usize::get(self)?;
        if n > self.b.len() - self.i {
            return Err(format!("element count {n} exceeds remaining payload"));
        }
        Ok(n)
    }

    /// Reads `n` items, `n` already bounded by [`count`](Self::count).
    #[inline]
    fn items<T: Wire>(&mut self, n: usize) -> Result<Vec<T>, String> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(self)?);
        }
        Ok(items)
    }
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
        assert!(ScalarValue::get(&mut r).is_err());
        // An element count beyond the remaining bytes is refused before
        // anything is reserved for it.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1 << 40);
        let mut r = R::new(&bytes);
        assert!(Vec::<VirtualTime>::get(&mut r).is_err());
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
            bp.put(&mut b);
            snap.put(&mut t);
            (bp, b, snap, t)
        };
        let (bp, b, snap, t) = nest(MAX_NESTING);
        assert_eq!(exact(&b, Blueprint::get), Ok(bp));
        assert_eq!(exact(&t, TreeSnapshot::get), Ok(snap));
        let (_, b, _, t) = nest(MAX_NESTING + 1);
        assert!(exact(&b, Blueprint::get).is_err());
        assert!(exact(&t, TreeSnapshot::get).is_err());
        // Two bytes a level, a million levels: refused at the bound, long
        // before the stack is at risk.
        let deep = [3u8, 1].repeat(1_000_000);
        assert!(exact(&deep, Blueprint::get).is_err());
    }

    #[test]
    fn durable_decoders_recheck_invariants() {
        let at = VirtualTime::new(5, SiteId(1));
        // Two history entries at the same VT: not strictly ascending.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        for _ in 0..2 {
            at.put(&mut bytes);
            true.put(&mut bytes);
            ReplicationGraph::default().put(&mut bytes);
        }
        let mut r = R::new(&bytes);
        assert!(History::<ReplicationGraph>::get(&mut r).is_err());
        // A reservation with lo > hi.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1);
        at.put(&mut bytes);
        VirtualTime::ZERO.put(&mut bytes);
        at.put(&mut bytes);
        let mut r = R::new(&bytes);
        assert!(ReservationSet::get(&mut r).is_err());
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
        SnapshotReads::from_iter(reads.iter().cloned()).put(&mut bytes);
        let back = exact(&bytes, SnapshotReads::get).map(|r| r.iter().collect::<Vec<_>>());
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
            let alone = exact(bytes, SnapshotReads::get);
            // Tag 2, subject 49@2, origin 2.
            let in_message = exact(&[&[2, 0x31, 0x02, 0x02], bytes].concat(), Message::get);
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

    /// Decodes exactly `bytes` as a `T`, dropping the value.
    fn decodes<T: Wire>(bytes: &[u8]) -> Result<(), String> {
        exact(bytes, T::get).map(drop)
    }

    #[test]
    fn unknown_tags_are_refused_for_every_enum() {
        type Decode = fn(&[u8]) -> Result<(), String>;
        // Each tagged enum, and the first tag past its table.
        let enums: [(&str, u8, Decode); 14] = [
            ("Message", 20, decodes::<Message>),
            ("ScalarValue", 3, decodes::<ScalarValue>),
            ("Blueprint", 5, decodes::<Blueprint>),
            ("PathElem", 2, decodes::<PathElem>),
            ("ObjectAddr", 2, decodes::<ObjectAddr>),
            ("TreeSnapshot", 4, decodes::<TreeSnapshot>),
            ("WireOp", 7, decodes::<WireOp>),
            ("SubjectKind", 2, decodes::<SubjectKind>),
            ("TxnOutcome", 2, decodes::<TxnOutcome>),
            ("ObjectValue", 4, decodes::<ObjectValue>),
            ("ListOp", 3, decodes::<ListOp>),
            ("TupleOp", 3, decodes::<TupleOp>),
            ("ObjectKind", 6, decodes::<ObjectKind>),
            ("PropagationMode", 2, decodes::<PropagationMode>),
        ];
        for (name, past, decode) in enums {
            let unknown = |tag: u8| Err(format!("unknown {name} tag {tag}"));
            for tag in [past, 0xFF] {
                assert_eq!(decode(&[tag]), unknown(tag));
            }
            // Every tag below it is in the table (Message's start at 1).
            for tag in u8::from(name == "Message")..past {
                assert_ne!(decode(&[tag]), unknown(tag));
            }
        }
        assert_eq!(
            decodes::<Message>(&[0]),
            Err("unknown Message tag 0".into())
        );
        assert_eq!(decodes::<bool>(&[2]), Err("bad bool byte 2".into()));
        assert_eq!(
            decodes::<Option<VirtualTime>>(&[2]),
            Err("bad option byte 2".into())
        );
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
