//! Mutation test for the WAL decoder, whose input comes from a disk: random
//! payload damage under a *recomputed, valid* CRC — so the frame passes the
//! integrity check and reaches the binary decoder — must come back `Ok` or
//! `WalError::SchemaMismatch`: never a panic, and never an allocation out
//! of proportion to the bytes actually present.
//!
//! Alone in this file: the allocation bound is read off a counting global
//! allocator, which only means something with one test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use decaf_core::codec::crc32;
use decaf_core::{
    append_frame, scan_wal, wiring, Blueprint, CommitRecord, ObjectName, Site, SiteConfig,
    Transaction, TreeSnapshot, TxnCtx, TxnError, WalError, WalRecord, WireOp,
};
use decaf_vt::rng::SplitMix64;
use decaf_vt::{SiteId, VirtualTime};

/// Live heap bytes and their high-water mark.
struct Counting;
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

struct Grow(ObjectName, ObjectName);
impl Transaction for Grow {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)?;
        let child = Blueprint::Tuple(vec![
            ("n".into(), Blueprint::Int(v)),
            ("s".into(), Blueprint::str("payload")),
        ]);
        ctx.list_push(self.1, child).map(|_| ())
    }
}

/// One commit frame and one checkpoint frame of a site with some history:
/// a wired counter (graphs, reservations) and a list of tuples (embeddings).
fn seed_frames() -> Vec<Vec<u8>> {
    let config = SiteConfig {
        durable: true,
        ..SiteConfig::default()
    };
    let mut a = Site::with_config(SiteId(1), config);
    let mut b = Site::with_config(SiteId(2), config);
    let (ca, cb) = (a.create_int(0), b.create_int(0));
    let (la, lb) = (a.create_list(), b.create_list());
    wiring::wire_pair(&mut a, ca, &mut b, cb);
    wiring::wire_pair(&mut a, la, &mut b, lb);
    for _ in 0..4 {
        b.execute(Box::new(Grow(cb, lb)));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }
    let commit = a.drain_wal().pop().expect("four commits logged");
    let cp = a.drain_and_checkpoint().expect("settled");
    [
        WalRecord::Commit(commit),
        WalRecord::Checkpoint(Box::new(cp)),
    ]
    .iter()
    .map(|r| {
        let mut frame = Vec::new();
        append_frame(&mut frame, r);
        frame
    })
    .collect()
}

/// Damages `frame`'s payload — byte flips, a splice of random bytes, or a
/// cut — then makes the header's length and CRC right again.
fn mutate(frame: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut payload = frame[10..].to_vec();
    match rng.below(3) {
        0 => {
            for _ in 0..1 + rng.below(4) {
                let at = rng.range(0..payload.len());
                payload[at] = rng.next_u64() as u8;
            }
        }
        1 => {
            let at = rng.range(0..payload.len());
            let junk: Vec<u8> = (0..1 + rng.below(12))
                .map(|_| rng.next_u64() as u8)
                .collect();
            payload.splice(at..at, junk);
        }
        _ => payload.truncate(rng.range(0..payload.len())),
    }
    reframe(frame, &payload)
}

/// `frame`'s version and kind bytes around `payload`, length and CRC right.
fn reframe(frame: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = frame[..2].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut covered = out.clone();
    covered.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&covered).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn damaged_payloads_under_a_valid_crc_never_panic_or_balloon() {
    let frames = seed_frames();
    let mut rng = SplitMix64::new(0xDECAF);
    let (mut accepted, mut refused) = (0u32, 0u32);
    for round in 0..20_000 {
        let bytes = mutate(&frames[round % frames.len()], &mut rng);
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let outcome = scan_wal(&bytes);
        let grew = PEAK.load(Ordering::Relaxed) - before;
        match outcome {
            Ok(scan) => {
                assert_eq!(
                    scan.valid_len,
                    bytes.len(),
                    "round {round}: torn, not decoded"
                );
                accepted += 1;
            }
            Err(WalError::SchemaMismatch { .. }) => refused += 1,
            Err(other) => panic!("round {round}: {other}"),
        }
        // Every declared count is checked against the bytes that remain
        // before anything is reserved for it, so the decoder's footprint is
        // a multiple of the payload (the in-memory form of a one-byte wire
        // item is a few hundred bytes at most), not of a number it read.
        assert!(
            grew <= 512 * bytes.len() + 4096,
            "round {round}: {} payload bytes cost {grew} heap bytes",
            bytes.len()
        );
    }
    // Both verdicts occur: the damage is neither always fatal nor ignored.
    assert!(
        accepted > 100 && refused > 100,
        "{accepted} ok, {refused} refused"
    );
    absurdly_deep_nesting_is_refused();
}

/// The decoder recurses into composites, and a WAL payload may be as long
/// as a `u32` says: a commit whose last update is a list nested two hundred
/// thousand levels deep — four bytes a level, CRC valid — must be refused
/// as a schema mismatch, not followed until the stack runs out. (Called
/// from the one test: this file keeps to a single test thread.)
fn absurdly_deep_nesting_is_refused() {
    let at = VirtualTime::new(1, SiteId(1));
    let mut frame = Vec::new();
    append_frame(
        &mut frame,
        &WalRecord::Commit(CommitRecord {
            vt: at,
            origin: SiteId(1),
            updates: vec![(
                ObjectName::new(SiteId(1), 0),
                at,
                WireOp::SetTree(TreeSnapshot::List(Vec::new())),
            )],
        }),
    );
    // The payload ends `SetTree, List, count 0`; make the list hold one
    // entry (tag VT zero), itself such a list, and so on down.
    let payload = &frame[10..];
    let (head, empty_list) = payload.split_at(payload.len() - 2);
    assert_eq!((head.last(), empty_list), (Some(&6), &[1u8, 0][..]));
    let mut deep = head.to_vec();
    for _ in 0..200_000 {
        deep.extend_from_slice(&[1, 1, 0, 0]);
    }
    deep.extend_from_slice(empty_list);
    assert!(matches!(
        scan_wal(&reframe(&frame, &deep)),
        Err(WalError::SchemaMismatch { .. })
    ));
}
