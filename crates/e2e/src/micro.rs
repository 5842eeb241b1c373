//! Isolated layer costs: the wire codec replayed over envelopes captured
//! from the run, and the virtual-time structures on synthetic histories.
//!
//! These run after the measured window, on the otherwise idle process, so
//! they say what a call costs with nothing contending — the number to set
//! against the layer's share of the end-to-end time.

use std::hint::black_box;
use std::time::Instant;

use decaf_core::Envelope;
use decaf_net::wire::{
    decode_batch, decode_envelope_v2, encode_batch, encode_envelope_v2, encode_frame, FrameKind,
    FrameReader,
};
use decaf_vt::{History, ReservationSet, SiteId, VirtualTime};

use crate::measure::{Metric, Metrics};

/// Envelopes per `Batch` frame in the batch rows: the mesh's default cap.
const BATCH: usize = 64;
/// Fewest envelope passes per codec row: captured runs are replayed until
/// this many have gone through.
const MIN_PASSES: usize = 10_000;

/// Mean nanoseconds per item of `f` run over `items` until at least
/// `min_items` have been processed.
fn ns_per_item(items: usize, min_items: usize, mut f: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let rounds = min_items.div_ceil(items).max(1);
    let start = Instant::now();
    for _ in 0..rounds {
        f();
    }
    start.elapsed().as_nanos() as f64 / (rounds * items) as f64
}

/// `net.wire.*`: the v2 codec and the frame layer, over `captured`.
pub fn wire(captured: &[Envelope]) -> Metrics {
    let mut m = Metrics::new();
    let n = captured.len();
    let mut put = |name: &'static str, value: f64| {
        m.insert(
            name,
            Metric {
                value,
                spread: f64::NAN,
                samples: n as u64,
            },
        );
    };
    let encoded: Vec<Vec<u8>> = captured.iter().map(encode_envelope_v2).collect();
    let batches: Vec<Vec<u8>> = captured.chunks(BATCH).map(encode_batch).collect();

    put(
        "net.wire.encode_v2_ns",
        ns_per_item(n, MIN_PASSES, || {
            for env in captured {
                black_box(encode_envelope_v2(black_box(env)));
            }
        }),
    );
    put(
        "net.wire.decode_v2_ns",
        ns_per_item(n, MIN_PASSES, || {
            for bytes in &encoded {
                black_box(decode_envelope_v2(black_box(bytes)).expect("own encoding decodes"));
            }
        }),
    );
    let total_bytes: usize = encoded.iter().map(Vec::len).sum();
    put(
        "net.wire.bytes_per_env",
        if n == 0 {
            0.0
        } else {
            total_bytes as f64 / n as f64
        },
    );
    // Frame an encoded payload (header + CRC), then parse it back out of a
    // byte stream (CRC again).
    put(
        "net.wire.frame_ns",
        ns_per_item(n, MIN_PASSES, || {
            let mut reader = FrameReader::new();
            for payload in &encoded {
                let frame = encode_frame(FrameKind::DataV2, black_box(payload));
                reader.feed(&frame);
                black_box(reader.next_frame().expect("own frame parses"));
            }
        }),
    );
    put(
        "net.wire.batch64_encode_ns_per_env",
        ns_per_item(n, MIN_PASSES, || {
            for chunk in captured.chunks(BATCH) {
                black_box(encode_batch(black_box(chunk)));
            }
        }),
    );
    put(
        "net.wire.batch64_decode_ns_per_env",
        ns_per_item(n, MIN_PASSES, || {
            for bytes in &batches {
                black_box(decode_batch(black_box(bytes)).expect("own batch decodes"));
            }
        }),
    );
    m
}

/// `vt.*`: history insert and lookup at two depths, and the NC check.
pub fn vt() -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64| {
        m.insert(name, Metric::plain(value));
    };
    let at = |n: u64| VirtualTime::new(n, SiteId(2));
    const OPS: usize = 200_000;

    // One write's life on a hot object: inserted at the tail, committed,
    // and collected once eight newer entries exist.
    put(
        "vt.history.insert_ns",
        ns_per_item(OPS, OPS, || {
            let mut h: History<i64> = History::new();
            for i in 1..=OPS as u64 {
                h.insert(at(i), i as i64);
                h.mark_committed(at(i));
                if h.len() > 8 {
                    h.gc(at(i));
                }
            }
            black_box(&h);
        }),
    );
    for (name, depth) in [
        ("vt.history.value_at_8_ns", 8u64),
        ("vt.history.value_at_1024_ns", 1024),
    ] {
        let mut h: History<i64> = History::new();
        for i in 0..depth {
            h.insert_committed(at(2 * i + 1), i as i64);
        }
        put(
            name,
            ns_per_item(OPS, OPS, || {
                for i in 0..OPS as u64 {
                    black_box(h.value_at(black_box(at((i * 7) % (2 * depth) + 1))));
                }
            }),
        );
    }
    // A primary holding a handful of live reservations, none violated.
    let mut rs = ReservationSet::new();
    for i in 0..4u64 {
        rs.reserve(at(10 * i), at(10 * i + 5), at(10 * i + 5));
    }
    put(
        "vt.reservation.check_write_ns",
        ns_per_item(OPS, OPS, || {
            for i in 0..OPS as u64 {
                black_box(rs.check_write(black_box(at(10 * (i % 4) + 7))).is_ok());
            }
        }),
    );
    m
}
