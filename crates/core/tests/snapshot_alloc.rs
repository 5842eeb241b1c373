//! Allocation budget of a view snapshot's CONFIRM-READ over a list: one
//! read item per element, each addressed by the list's root and a
//! one-element path. The request is built on a site's node thread and freed
//! on a writer thread after encoding, and the copy decoded at the primary
//! is built on a reader thread and freed on the node thread, so every
//! per-item allocation is a cross-thread malloc/free pair. The request
//! holds its items as their wire coding, so cloning or decoding the whole
//! request is one allocation, and what it holds is 4–5 bytes an item.
//!
//! Alone in this file: the count is read off a counting global allocator,
//! which only means something with one test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use decaf_core::codec;
use decaf_core::{Envelope, Message, ObjectAddr, ObjectName, Path, PathElem, ReadItem};
use decaf_vt::{SiteId, VirtualTime};

/// Counts allocations (a `realloc` counts as one).
struct Counting;
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's arguments, passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many allocations `f` makes, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
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
