//! Allocation budget of a view snapshot's CONFIRM-READ over a list: one
//! read item per element, each addressed by the list's root and a
//! one-element path. The request is built on a site's node thread and freed
//! on a writer thread after encoding, and the copy decoded at the primary
//! is built on a reader thread and freed on the node thread, so every
//! per-item allocation is a cross-thread malloc/free pair. The request
//! holds its items as their wire coding, so cloning or decoding the whole
//! request is one allocation, and what it holds is 4–5 bytes an item.
//!
//! The primary checks such a request against the list's entries, fetched
//! once, so what checking it allocates does not grow with the list.
//!
//! The count is read off a counting global allocator, per thread, so each
//! test counts its own allocations while the others run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use decaf_core::codec;
use decaf_core::{
    wiring, Blueprint, Envelope, Message, ObjectAddr, ObjectName, Path, PathElem, ReadItem,
    RecordingView, Site, Transaction, TxnCtx, TxnError, ViewMode,
};
use decaf_vt::{SiteId, VirtualTime};

/// Counts allocations (a `realloc` counts as one) on the thread that makes
/// them.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading it allocates
    // nothing and works at any point of a thread's life.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's arguments, passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many allocations `f` makes, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn vt(lamport: u64, site: u32) -> VirtualTime {
    VirtualTime::new(lamport, SiteId(site))
}

/// The request a replica of a 256-element list sends its primary: every
/// element read at the VT it was embedded at, guessed unchanged up to `ts`.
fn list_snapshot_request() -> Envelope {
    let root = ObjectName::new(SiteId(1), 4);
    let ts = vt(9_000, 2);
    let reads = (0..256)
        .map(|index| {
            let tag = vt(100 + 3 * index as u64, 1 + index as u32 % 3);
            ReadItem {
                addr: ObjectAddr::Indirect {
                    root,
                    path: Path::from(PathElem::Index { index, tag }),
                },
                t_r: tag,
                t_g: tag,
                hi: Some(ts),
            }
        })
        .collect();
    Envelope {
        from: SiteId(2),
        to: SiteId(1),
        clock: ts,
        msg: Message::SnapshotConfirm {
            subject: vt(9_001, 2),
            origin: SiteId(2),
            reads,
        },
        span: None,
    }
}

#[test]
fn a_list_snapshot_request_clones_and_decodes_in_one_allocation() {
    let request = list_snapshot_request();
    let Message::SnapshotConfirm { reads, .. } = &request.msg else {
        unreachable!("a snapshot request");
    };
    assert!(
        reads.heap_bytes() <= 6 * reads.len(),
        "{} heap bytes for {} reads",
        reads.heap_bytes(),
        reads.len()
    );

    let (cloned, copy) = allocations(|| request.clone());
    assert_eq!(copy, request);
    assert!(cloned <= 1, "clone made {cloned} allocations");

    let mut bytes = Vec::with_capacity(4096);
    let (encoded, ()) = allocations(|| codec::envelope(&mut bytes, &request));
    assert_eq!(encoded, 0, "encoding into a large enough buffer");

    let (decoded, back) = allocations(|| codec::decode_envelope(&bytes));
    assert_eq!(back.as_ref(), Ok(&request), "round trip");
    assert!(decoded <= 1, "decode made {decoded} allocations");
}

/// Appends `n` integers to a list in one transaction.
struct Append(ObjectName, usize);

impl Transaction for Append {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        for v in 0..self.1 {
            ctx.list_push(self.0, Blueprint::Int(v as i64))?;
        }
        Ok(())
    }
}

/// Site 1 holding the primary copy of a list of `children` elements, and
/// the CONFIRM-READ that site 2's optimistic view of its replica sends it
/// when one more element arrives: one item for each of the `children`
/// elements it already had.
fn primary_and_request(children: usize) -> (Site, Envelope) {
    let (mut a, mut b) = (Site::new(SiteId(1)), Site::new(SiteId(2)));
    let (la, lb) = (a.create_list(), b.create_list());
    wiring::wire_pair(&mut a, la, &mut b, lb);
    a.execute(Box::new(Append(la, children)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    b.attach_view(
        Box::new(RecordingView::new(vec![])),
        &[lb],
        ViewMode::Optimistic,
    );
    a.execute(Box::new(Append(la, 1)));
    for env in a.drain_outbox() {
        b.handle_message(env);
    }
    let request = b
        .drain_outbox()
        .into_iter()
        .find(|env| matches!(env.msg, Message::SnapshotConfirm { .. }))
        .expect("a snapshot request");
    let Message::SnapshotConfirm { reads, .. } = &request.msg else {
        unreachable!("a snapshot request");
    };
    assert_eq!(reads.len(), children);
    (a, request)
}

/// How many allocations the primary makes handling `request` a second
/// time (the first reserves each interval; the second merges into them).
fn allocations_to_check(a: &mut Site, request: &Envelope) -> usize {
    a.handle_message(request.clone());
    let confirms = a.drain_outbox();
    assert!(
        confirms
            .iter()
            .any(|env| matches!(env.msg, Message::Confirm { .. })),
        "the request is confirmed: {confirms:?}"
    );
    let copy = request.clone();
    let (made, ()) = allocations(|| a.handle_message(copy));
    a.drain_outbox();
    made
}

#[test]
fn checking_a_list_snapshot_request_allocates_no_more_for_more_items() {
    let (mut small, small_request) = primary_and_request(16);
    let (mut large, large_request) = primary_and_request(256);
    let few = allocations_to_check(&mut small, &small_request);
    let many = allocations_to_check(&mut large, &large_request);
    assert!(
        many <= few,
        "checking 256 items made {many} allocations, 16 items {few}"
    );
}
