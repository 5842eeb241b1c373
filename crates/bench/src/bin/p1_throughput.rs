//! P1 — hot-path throughput: the wire codec + batching, and CoW snapshots.
//!
//! Two sections, matching the two halves of the hot-path overhaul:
//!
//! 1. **Wire throughput** (in-process ring): a ring of real OS threads
//!    exchanges protocol envelopes through `std::sync::mpsc` channels,
//!    frame-encoding each message exactly as the TCP transport does. Modes:
//!    `v2` (per-envelope binary `DataV2` frames) and `v2+batch` (up to 64
//!    envelopes coalesced into one `Batch` frame). Throughput counts
//!    envelopes fully encoded, transported, and decoded per second. (The
//!    `v1 json` rows of `BENCH_throughput.json` measured a codec since
//!    removed.)
//!
//! 2. **CoW rollback/re-execute** (engine): the §3.1 rollback machinery on
//!    composites of K elements. `rollback` times a transaction that writes a
//!    K-element list and then aborts (purge + re-fold); `conflict` times a
//!    round of conflicting read-modify-write transactions at two wired sites
//!    (rollback + automatic re-execution at the losing site).
//!
//! 3. **A list snapshot's CONFIRM-READ, per read item** (engine + codec):
//!    a replica of a 256-element list with an optimistic view on it asks
//!    the list's primary to confirm one read item per element each time
//!    one element is written (§4.1). Three stages, each in ns per item:
//!    the replica building the request (a write's `execute` with the view
//!    attached, less the same write at a replica without one, the two
//!    timed in turn), the envelope decoder checking it, and the primary
//!    handling it (`Site::handle_message`). Medians and quartiles over the
//!    samples; in the JSON document this table is `per_item`, beside the
//!    two `sections`.
//!
//! Flags: `--json` emits one JSON document on stdout (this is what
//! `BENCH_throughput.json` is produced from); `--smoke` shrinks iteration
//! counts for CI. The process exits non-zero if any transported envelope
//! was lost, so CI can gate on the exit status as well as the JSON.
//!
//! Run: `cargo run --release -p decaf-bench --bin p1_throughput -- --json`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use decaf_bench::{print_table, table_json};
use decaf_core::{
    codec, wiring, Blueprint, Envelope, Message, ObjectAddr, ObjectName, RecordingView,
    ScalarValue, Site, Transaction, TxnCtx, TxnError, TxnPropagate, UpdateItem, ViewMode, WireOp,
};
use decaf_net::wire::{
    decode_batch, decode_envelope_v2, encode_batch_parts, encode_envelope_v2, encode_frame,
    FrameKind, FrameReader,
};
use decaf_trace::json::Value;
use decaf_vt::{SiteId, VirtualTime};

/// Envelopes coalesced per `Batch` frame, as many as a TCP mesh writer
/// coalesces at most (`BATCH_MAX` in `crates/net/src/tcp.rs`).
const BATCH_MAX: usize = 64;

// ===========================================================================
// Section 1: wire throughput round an in-process ring
// ===========================================================================

/// A representative protocol envelope: one-update transaction propagation
/// carrying a string payload of the requested size.
fn mk_envelope(from: SiteId, to: SiteId, seq: u64, payload_len: usize) -> Envelope {
    let clock = VirtualTime::new(seq, from);
    Envelope {
        from,
        to,
        clock,
        msg: Message::Txn(TxnPropagate {
            txn: clock,
            origin: from,
            updates: vec![UpdateItem {
                addr: ObjectAddr::Direct(ObjectName::new(from, 1)),
                t_r: clock,
                t_g: VirtualTime::ZERO,
                op: WireOp::SetScalar(ScalarValue::Str("x".repeat(payload_len))),
                needs_check: true,
            }],
            reads: Vec::new(),
            delegate: None,
        }),
        span: None,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum WireMode {
    V2,
    V2Batch,
}

impl WireMode {
    fn label(self) -> &'static str {
        match self {
            WireMode::V2 => "v2 binary",
            WireMode::V2Batch => "v2+batch",
        }
    }
}

struct WireRow {
    sites: usize,
    payload: usize,
    mode: WireMode,
    envelopes: u64,
    frames: u64,
    wire_bytes: u64,
    elapsed: Duration,
}

impl WireRow {
    fn env_per_sec(&self) -> f64 {
        self.envelopes as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs one ring configuration: each of `sites` threads sends `per_site`
/// envelopes to its successor while decoding the `per_site` envelopes
/// arriving from its predecessor. Returns the measured row.
fn run_wire(sites: usize, payload: usize, mode: WireMode, per_site: u64) -> WireRow {
    // One channel per site: thread i sends into its successor's, reads its own.
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..sites).map(|_| mpsc::channel::<Vec<u8>>()).unzip();
    let wire_bytes = Arc::new(AtomicU64::new(0));
    let frames = Arc::new(AtomicU64::new(0));
    let decoded = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::new();
    for (i, inbox) in rxs.into_iter().enumerate() {
        let to_next = txs[(i + 1) % sites].clone();
        let next = SiteId(((i + 1) % sites) as u32);
        let me = SiteId(i as u32);
        let wire_bytes = Arc::clone(&wire_bytes);
        let frames = Arc::clone(&frames);
        let decoded = Arc::clone(&decoded);
        handles.push(std::thread::spawn(move || {
            // Send phase: encode + frame exactly as the TCP writer would.
            let send_frame = |kind: FrameKind, payload: &[u8]| {
                let frame = encode_frame(kind, payload);
                wire_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
                frames.fetch_add(1, Ordering::Relaxed);
                let _ = to_next.send(frame);
            };
            match mode {
                WireMode::V2 => {
                    for seq in 0..per_site {
                        let env = mk_envelope(me, next, seq + 1, payload);
                        send_frame(FrameKind::DataV2, &encode_envelope_v2(&env));
                    }
                }
                WireMode::V2Batch => {
                    let mut seq = 0;
                    while seq < per_site {
                        let n = BATCH_MAX.min((per_site - seq) as usize);
                        let parts: Vec<Vec<u8>> = (0..n)
                            .map(|k| {
                                encode_envelope_v2(&mk_envelope(
                                    me,
                                    next,
                                    seq + k as u64 + 1,
                                    payload,
                                ))
                            })
                            .collect();
                        send_frame(FrameKind::Batch, &encode_batch_parts(&parts));
                        seq += n as u64;
                    }
                }
            }
            // Receive phase: reassemble + decode everything the predecessor
            // sent us.
            let mut reader = FrameReader::new();
            let mut got: u64 = 0;
            while got < per_site {
                let Ok(bytes) = inbox.recv() else {
                    break;
                };
                reader.feed(&bytes);
                while let Ok(Some(frame)) = reader.next_frame() {
                    got += match frame.kind {
                        FrameKind::DataV2 => {
                            decode_envelope_v2(&frame.payload).map(|_| 1).unwrap_or(0)
                        }
                        FrameKind::Batch => decode_batch(&frame.payload)
                            .map(|envs| envs.len() as u64)
                            .unwrap_or(0),
                        _ => 0,
                    };
                }
            }
            decoded.fetch_add(got, Ordering::Relaxed);
        }));
    }
    drop(txs); // a thread that dies early now fails its successor's recv
    for h in handles {
        let _ = h.join();
    }
    let elapsed = start.elapsed();
    WireRow {
        sites,
        payload,
        mode,
        envelopes: decoded.load(Ordering::Relaxed),
        frames: frames.load(Ordering::Relaxed),
        wire_bytes: wire_bytes.load(Ordering::Relaxed),
        elapsed,
    }
}

// ===========================================================================
// Section 2: CoW rollback / re-execute on K-element composites
// ===========================================================================

struct FillList(ObjectName, usize);
impl Transaction for FillList {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        for _ in 0..self.1 {
            ctx.list_push(self.0, Blueprint::Int(0))?;
        }
        Ok(())
    }
}

/// Writes the big list, then aborts: the engine must purge the tentative
/// write and re-fold the composite (§3.1 rollback).
struct InsertThenFail(ObjectName);
impl Transaction for InsertThenFail {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.list_insert(self.0, 0, Blueprint::Int(1))?;
        Err(TxnError::app("p1 rollback probe"))
    }
}

/// Read-modify-write that keeps the list length stable: drop the tail
/// entry, push a fresh head. Two of these racing from different sites
/// force a conflict rollback + automatic re-execution at the loser.
struct RotateList(ObjectName);
impl Transaction for RotateList {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let n = ctx.list_len(self.0)?;
        if n > 0 {
            ctx.list_remove(self.0, n - 1)?;
        }
        ctx.list_insert(self.0, 0, Blueprint::Int(7))?;
        Ok(())
    }
}

struct CowRow {
    elems: usize,
    metric: &'static str,
    iters: u64,
    elapsed: Duration,
    retries: u64,
}

impl CowRow {
    fn us_per_iter(&self) -> f64 {
        self.elapsed.as_micros() as f64 / self.iters as f64
    }
}

/// Times `iters` abort-rollback cycles on a single site's K-element list.
fn run_rollback(elems: usize, iters: u64) -> CowRow {
    let mut a = Site::new(SiteId(1));
    let list = a.create_list();
    a.execute(Box::new(FillList(list, elems)));
    let start = Instant::now();
    for _ in 0..iters {
        a.execute(Box::new(InsertThenFail(list)));
    }
    let elapsed = start.elapsed();
    CowRow {
        elems,
        metric: "rollback",
        iters,
        elapsed,
        retries: 0,
    }
}

/// Times `iters` conflict rounds between two wired replicas of a K-element
/// list: both sites rotate concurrently, messages are pumped, and exactly
/// one side rolls back and re-executes.
fn run_conflict(elems: usize, iters: u64) -> CowRow {
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let la = a.create_list();
    let lb = b.create_list();
    wiring::wire_pair(&mut a, la, &mut b, lb);
    a.execute(Box::new(FillList(la, elems)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    let start = Instant::now();
    for _ in 0..iters {
        a.execute(Box::new(RotateList(la)));
        b.execute(Box::new(RotateList(lb)));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }
    let elapsed = start.elapsed();
    CowRow {
        elems,
        metric: "conflict",
        iters,
        elapsed,
        retries: a.stats().retries + b.stats().retries,
    }
}

// ===========================================================================
// Section 3: a list snapshot's CONFIRM-READ, ns per read item
// ===========================================================================

/// Elements of the list a snapshot reads, as in `decaf-e2e`'s `duel_list3`.
const SNAPSHOT_ELEMS: usize = 256;

/// Overwrites the integer at `index` of the list.
struct WriteElement(ObjectName, usize);
impl Transaction for WriteElement {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let child = ctx.list_child(self.0, self.1)?;
        ctx.write_int(child, self.1 as i64)
    }
}

/// A primary (site 1) and a replica (site 2) of a `SNAPSHOT_ELEMS`-element
/// list, everything committed; the replica's view of it, if `view`.
fn snapshot_pair(view: bool) -> (Site, Site, ObjectName) {
    let (mut a, mut b) = (Site::new(SiteId(1)), Site::new(SiteId(2)));
    let (la, lb) = (a.create_list(), b.create_list());
    wiring::wire_pair(&mut a, la, &mut b, lb);
    a.execute(Box::new(FillList(la, SNAPSHOT_ELEMS)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    if view {
        let recording = Box::new(RecordingView::new(vec![]));
        b.attach_view(recording, &[lb], ViewMode::Optimistic);
    }
    (a, b, lb)
}

/// One stage's samples, in ns per read item.
struct ItemRow {
    stage: &'static str,
    items: usize,
    ns: Vec<f64>,
}

impl ItemRow {
    /// The value a share `q` of the way up the sorted samples.
    fn quantile(&self, q: f64) -> f64 {
        let mut ns = self.ns.clone();
        ns.sort_by(f64::total_cmp);
        ns[((ns.len() - 1) as f64 * q).round() as usize]
    }
}

/// Times the three stages of `samples` list snapshots: each sample writes
/// one element at the replica with the view and at the one without, in
/// turn, then decodes the request the first sent and hands it to its
/// primary.
fn run_snapshot_items(samples: usize) -> Vec<ItemRow> {
    let ns = |t: Duration, items: usize| t.as_nanos() as f64 / items as f64;
    let (mut a, mut b, lb) = snapshot_pair(true);
    let (mut a0, mut b0, lb0) = snapshot_pair(false);
    let (mut build, mut check, mut handle) = (Vec::new(), Vec::new(), Vec::new());
    let mut items = 0;
    for k in 0..samples {
        let index = k % SNAPSHOT_ELEMS;
        let timed = |site: &mut Site, list| {
            let start = Instant::now();
            site.execute(Box::new(WriteElement(list, index)));
            start.elapsed()
        };
        let (with, without) = if k % 2 == 0 {
            let with = timed(&mut b, lb);
            (with, timed(&mut b0, lb0))
        } else {
            let without = timed(&mut b0, lb0);
            (timed(&mut b, lb), without)
        };
        wiring::run_to_quiescence(&mut [&mut a0, &mut b0]);

        let (request, rest): (Vec<Envelope>, Vec<Envelope>) = b
            .drain_outbox()
            .into_iter()
            .partition(|env| matches!(env.msg, Message::SnapshotConfirm { .. }));
        let [request] = <[Envelope; 1]>::try_from(request).expect("one snapshot request");
        let Message::SnapshotConfirm { reads, .. } = &request.msg else {
            unreachable!("partitioned above");
        };
        items = reads.len();
        build.push(ns(with.saturating_sub(without), items));

        let mut bytes = Vec::new();
        codec::envelope(&mut bytes, &request);
        let start = Instant::now();
        let decoded = codec::decode_envelope(&bytes).expect("a request decodes");
        check.push(ns(start.elapsed(), items));
        drop(decoded);

        for env in rest {
            a.handle_message(env);
        }
        let start = Instant::now();
        a.handle_message(request);
        handle.push(ns(start.elapsed(), items));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }
    [
        ("replica builds", build),
        ("decoder checks", check),
        ("primary handles", handle),
    ]
    .into_iter()
    .map(|(stage, ns)| ItemRow { stage, items, ns })
    .collect()
}

// ===========================================================================
// Output
// ===========================================================================

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");

    // Wire sweep: sites x payload x mode.
    let per_site: u64 = if smoke { 2_000 } else { 40_000 };
    let mut wire_rows = Vec::new();
    for &sites in &[2usize, 8] {
        for &payload in &[8usize, 256] {
            for &mode in &[WireMode::V2, WireMode::V2Batch] {
                wire_rows.push(run_wire(sites, payload, mode, per_site));
            }
        }
    }
    let expected: u64 = wire_rows.iter().map(|r| r.sites as u64 * per_site).sum();
    let delivered: u64 = wire_rows.iter().map(|r| r.envelopes).sum();

    // CoW sweep: K x metric.
    let mut cow_rows = Vec::new();
    for &elems in &[10usize, 100, 1_000] {
        let (r_iters, c_iters) = if smoke { (50, 10) } else { (2_000, 200) };
        cow_rows.push(run_rollback(elems, r_iters));
        cow_rows.push(run_conflict(elems, c_iters));
    }

    // Per-item sweep: a 256-element list snapshot's three stages.
    let item_rows = run_snapshot_items(if smoke { 64 } else { 2_000 });

    let wire_table: Vec<Vec<String>> = wire_rows
        .iter()
        .map(|r| {
            vec![
                r.sites.to_string(),
                r.payload.to_string(),
                r.mode.label().to_string(),
                r.envelopes.to_string(),
                r.frames.to_string(),
                r.wire_bytes.to_string(),
                format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
                format!("{:.0}", r.env_per_sec()),
            ]
        })
        .collect();
    let wire_headers = [
        "sites",
        "payload B",
        "mode",
        "envelopes",
        "frames",
        "wire bytes",
        "ms",
        "env/s",
    ];
    let cow_table: Vec<Vec<String>> = cow_rows
        .iter()
        .map(|r| {
            vec![
                r.elems.to_string(),
                r.metric.to_string(),
                r.iters.to_string(),
                format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
                format!("{:.1}", r.us_per_iter()),
                r.retries.to_string(),
            ]
        })
        .collect();
    let cow_headers = ["elems", "metric", "iters", "total ms", "us/iter", "retries"];
    let item_table: Vec<Vec<String>> = item_rows
        .iter()
        .map(|r| {
            vec![
                r.stage.to_string(),
                r.items.to_string(),
                r.ns.len().to_string(),
                format!("{:.1}", r.quantile(0.5)),
                format!("{:.1}", r.quantile(0.25)),
                format!("{:.1}", r.quantile(0.75)),
            ]
        })
        .collect();
    let item_headers = ["stage", "items", "samples", "ns/item p50", "p25", "p75"];
    let item_title = "P1 list snapshot CONFIRM-READ, ns per read item";

    let ok = delivered >= expected;
    if json {
        let out = Value::object([
            ("bench", "p1_throughput".into()),
            ("mode", if smoke { "smoke" } else { "full" }.into()),
            (
                "sections",
                Value::Array(vec![
                    table_json(
                        "P1 wire throughput (in-process ring)",
                        &wire_headers,
                        &wire_table,
                    ),
                    table_json("P1 CoW rollback/re-execute", &cow_headers, &cow_table),
                ]),
            ),
            (
                "per_item",
                table_json(item_title, &item_headers, &item_table),
            ),
            (
                "check",
                Value::object([
                    ("sent", expected.into()),
                    ("delivered", delivered.into()),
                    ("ok", ok.into()),
                ]),
            ),
        ]);
        println!("{out}");
    } else {
        print_table(
            "P1 wire throughput (in-process ring)",
            &wire_headers,
            &wire_table,
        );
        print_table("P1 CoW rollback/re-execute", &cow_headers, &cow_table);
        print_table(item_title, &item_headers, &item_table);
        println!(
            "\nwire check: sent {expected}, delivered {delivered} ({})",
            if ok { "ok" } else { "LOST ENVELOPES" }
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
