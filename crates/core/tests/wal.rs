//! Write-ahead commit log tests (DESIGN.md §S20): golden frame bytes pin
//! the on-disk format, every reachable record round-trips through
//! `append_frame`/`scan_wal`, a property test proves truncation at *any*
//! byte offset recovers exactly the longest valid record prefix, and
//! `CommitLog`/`Site::recover` round trips exercise the full crash-restart
//! path on a real filesystem.

use std::path::PathBuf;

use decaf_core::codec::crc32;
use decaf_core::{
    append_frame, scan_wal, wiring, Blueprint, CommitLog, CommitRecord, ObjectName, ScalarValue,
    Site, SiteConfig, Transaction, TxnCtx, TxnError, WalError, WalRecord, WireOp,
    WAL_FORMAT_VERSION,
};
use decaf_vt::{SiteId, VirtualTime};

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

fn durable_config() -> SiteConfig {
    SiteConfig {
        durable: true,
        ..SiteConfig::default()
    }
}

fn vt(lamport: u64, site: u32) -> VirtualTime {
    VirtualTime::new(lamport, SiteId(site))
}

fn sample_commit(lamport: u64) -> CommitRecord {
    CommitRecord {
        vt: vt(lamport, 1),
        origin: SiteId(1),
        updates: vec![],
    }
}

/// A scratch directory under the system temp dir, cleaned before use.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decaf-wal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---- golden bytes: the WAL frame layout is pinned -------------------------

/// The frame layout — version byte, kind byte, LE length, LE CRC over
/// header-plus-payload, then the binary-codec payload — must never drift
/// without a `WAL_FORMAT_VERSION` bump: a silent change would make old
/// logs unreadable (or worse, misread).
#[test]
fn golden_commit_frame_bytes() {
    let mut buf = Vec::new();
    append_frame(&mut buf, &WalRecord::Commit(sample_commit(3)));
    assert_eq!(WAL_FORMAT_VERSION, 2, "this build writes WAL format 2");
    assert_eq!(
        buf,
        [
            0x02, // format version
            0x01, // kind 1 = Commit
            0x04, 0x00, 0x00, 0x00, // payload length, LE
            0x6a, 0x56, 0x22, 0x7e, // CRC-32 of the six bytes above + payload, LE
            0x03, 0x01, // vt: lamport 3 | site 1
            0x01, // origin
            0x00, // no updates
        ]
    );

    let with_update = CommitRecord {
        updates: vec![(
            ObjectName::new(SiteId(1), 0),
            vt(2, 1),
            WireOp::SetScalar(ScalarValue::Int(5)),
        )],
        ..sample_commit(3)
    };
    let mut buf = Vec::new();
    append_frame(&mut buf, &WalRecord::Commit(with_update));
    assert_eq!(
        buf,
        [
            0x02, 0x01, 0x0b, 0x00, 0x00, 0x00, 0x58, 0x99, 0x60, 0x44, // header
            0x03, 0x01, 0x01, // vt | origin
            0x01, // one update:
            0x01, 0x00, //   object: site 1 | seq 0
            0x02, 0x01, //   read time: lamport 2 | site 1
            0x00, 0x00, 0x0a, //   SetScalar | Int | zigzag(5)
        ]
    );

    // The CRC covers the first six header bytes plus the payload.
    let mut covered = buf[..6].to_vec();
    covered.extend_from_slice(&buf[10..]);
    assert_eq!(&buf[6..10], crc32(&covered).to_le_bytes(), "LE CRC-32");
}

#[test]
fn golden_checkpoint_frame_has_kind_two() {
    let site = Site::new(SiteId(4));
    let cp = site.checkpoint().expect("fresh site is quiescent");
    let mut buf = Vec::new();
    append_frame(&mut buf, &WalRecord::Checkpoint(Box::new(cp)));
    assert_eq!(buf[0], WAL_FORMAT_VERSION);
    assert_eq!(buf[1], 2, "kind byte 2 = Checkpoint");
    let len = u32::from_le_bytes(buf[2..6].try_into().unwrap()) as usize;
    assert_eq!(buf.len(), 10 + len);
    assert_eq!(
        &buf[10..],
        [4, 4, 0, 0, 0, 0, 0],
        "site | clock site | clock counter | no objects | next object seq | \
         no decided outcomes | next relation id"
    );
}

#[test]
fn crc32_known_vector() {
    // Standard IEEE check value; pins the polynomial and reflection.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

// ---- torn tails vs schema mismatches --------------------------------------

fn sample_log() -> (Vec<u8>, Vec<usize>) {
    // A realistic log: baseline checkpoint, commits, inline checkpoint,
    // more commits — with record boundaries for the truncation oracle.
    let site = Site::new(SiteId(1));
    let cp = site.checkpoint().expect("quiescent");
    let records = vec![
        WalRecord::Checkpoint(Box::new(cp.clone())),
        WalRecord::Commit(sample_commit(2)),
        WalRecord::Commit(sample_commit(3)),
        WalRecord::Checkpoint(Box::new(cp)),
        WalRecord::Commit(sample_commit(4)),
    ];
    let mut bytes = Vec::new();
    let mut boundaries = vec![0usize];
    for r in &records {
        append_frame(&mut bytes, r);
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

#[test]
fn scan_recovers_full_log() {
    let (bytes, boundaries) = sample_log();
    let scan = scan_wal(&bytes).expect("intact log");
    assert_eq!(scan.records.len(), boundaries.len() - 1);
    assert_eq!(scan.valid_len, bytes.len());
    assert!(!scan.truncated_at(bytes.len()));
}

/// A complete, CRC-valid frame with a foreign version byte is a schema
/// mismatch, not a torn tail: the reader must refuse loudly.
#[test]
fn unknown_version_fails_loudly() {
    let mut bytes = Vec::new();
    append_frame(&mut bytes, &WalRecord::Commit(sample_commit(2)));
    // Re-stamp the version byte and fix up the CRC so the frame is intact.
    bytes[0] = WAL_FORMAT_VERSION + 1;
    let crc = {
        let mut covered = bytes[..6].to_vec();
        covered.extend_from_slice(&bytes[10..]);
        crc32(&covered)
    };
    bytes[6..10].copy_from_slice(&crc.to_le_bytes());
    match scan_wal(&bytes) {
        Err(WalError::UnsupportedVersion { found }) => {
            assert_eq!(found, WAL_FORMAT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_kind_fails_loudly() {
    let mut bytes = Vec::new();
    append_frame(&mut bytes, &WalRecord::Commit(sample_commit(2)));
    bytes[1] = 9;
    let crc = {
        let mut covered = bytes[..6].to_vec();
        covered.extend_from_slice(&bytes[10..]);
        crc32(&covered)
    };
    bytes[6..10].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        scan_wal(&bytes),
        Err(WalError::UnknownKind { found: 9 })
    ));
}

#[test]
fn undecodable_payload_fails_loudly() {
    // An integrity-checked frame whose payload the schema cannot decode is
    // a schema bug (a change without a version bump), never a silent skip.
    let payload = b"not a record";
    let mut bytes = vec![WAL_FORMAT_VERSION, 1];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = {
        let mut covered = bytes.clone();
        covered.extend_from_slice(payload);
        crc32(&covered)
    };
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(payload);
    assert!(matches!(
        scan_wal(&bytes),
        Err(WalError::SchemaMismatch { kind: 1, .. })
    ));
}

/// Any single corrupted byte in the final record reads as a torn tail (the
/// CRC covers header and payload alike), so the prefix survives.
#[test]
fn corrupt_final_record_is_torn_not_fatal() {
    let (bytes, boundaries) = sample_log();
    let last_start = boundaries[boundaries.len() - 2];
    for pos in last_start..bytes.len() {
        let mut copy = bytes.clone();
        copy[pos] ^= 0x55;
        let scan = scan_wal(&copy).expect("corruption reads as torn tail");
        assert_eq!(scan.records.len(), boundaries.len() - 2, "byte {pos}");
        assert_eq!(scan.valid_len, last_start, "byte {pos}");
    }
}

mod truncation_proptests {
    use super::*;
    use decaf_proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// ISSUE acceptance property: truncating a valid log at ANY byte
        /// offset recovers exactly the longest valid record prefix — never
        /// a panic, never a partially decoded record.
        #[test]
        fn any_byte_truncation_recovers_longest_valid_prefix(cut_seed in 0usize..10_000) {
            let (bytes, boundaries) = sample_log();
            let cut = cut_seed % (bytes.len() + 1);
            let scan = scan_wal(&bytes[..cut]).expect("truncation is never a schema error");
            // The longest prefix of whole records that fits in `cut` bytes:
            let expect = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            prop_assert_eq!(scan.records.len(), expect);
            prop_assert_eq!(scan.valid_len, boundaries[expect]);
            prop_assert_eq!(scan.truncated_at(cut), cut != boundaries[expect]);
        }
    }
}

// ---- every reachable record round-trips ----------------------------------

/// One gesture against the fixture of [`records_after`].
#[derive(Debug, Clone)]
enum Op {
    /// Blind write of the wired counter at site 1 (its primary).
    SetInt(i64),
    /// Read-modify-write of the wired counter at site 2: an RL guess the
    /// primary confirms with a reservation.
    RemoteIncr,
    SetReal(f64),
    SetStr(String),
    /// Embed a child subtree at the end of the wired list.
    ListPush(Blueprint),
    ListRemoveFirst,
    TuplePut(String, i64),
    TupleRemove(String),
    /// An application abort: decided, never committed.
    Fail,
}

struct Apply {
    op: Op,
    counter: ObjectName,
    real: ObjectName,
    text: ObjectName,
    list: ObjectName,
    tuple: ObjectName,
}

impl Transaction for Apply {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        match &self.op {
            Op::SetInt(v) => ctx.write_int(self.counter, *v),
            Op::RemoteIncr => {
                let v = ctx.read_int(self.counter)?;
                ctx.write_int(self.counter, v.wrapping_add(1))
            }
            Op::SetReal(v) => ctx.write_real(self.real, *v),
            Op::SetStr(v) => ctx.write_str(self.text, v.clone()),
            Op::ListPush(child) => ctx.list_push(self.list, child.clone()).map(|_| ()),
            Op::ListRemoveFirst => {
                if ctx.list_len(self.list)? == 0 {
                    return Err(TxnError::app("empty"));
                }
                ctx.list_remove(self.list, 0)
            }
            Op::TuplePut(key, v) => ctx
                .tuple_put(self.tuple, key.clone(), Blueprint::Int(*v))
                .map(|_| ()),
            Op::TupleRemove(key) => {
                if ctx.tuple_get(self.tuple, key).is_err() {
                    return Err(TxnError::app("absent"));
                }
                ctx.tuple_remove(self.tuple, key)
            }
            Op::Fail => Err(TxnError::app("declined")),
        }
    }
}

/// Two durable sites holding all six object kinds — a counter and a list
/// wired between them (site 1 is primary), and at site 1 a real, a string,
/// a tuple and an association with one relation — run `ops`, then yield what
/// their logs would hold: each site's commit records and a closing
/// checkpoint.
fn records_after(ops: &[Op]) -> Vec<WalRecord> {
    let mut a = Site::with_config(SiteId(1), durable_config());
    let mut b = Site::with_config(SiteId(2), durable_config());
    let (counter_a, counter_b) = (a.create_int(0), b.create_int(0));
    let (list_a, list_b) = (a.create_list(), b.create_list());
    wiring::wire_pair(&mut a, counter_a, &mut b, counter_b);
    wiring::wire_pair(&mut a, list_a, &mut b, list_b);
    let (real, text, tuple) = (a.create_real(0.0), a.create_str(""), a.create_tuple());
    let assoc = a.create_association();
    a.create_relation(assoc, "editors", counter_a)
        .expect("relation over a local object");

    for op in ops {
        let at_b = matches!(op, Op::RemoteIncr);
        let apply = Apply {
            op: op.clone(),
            counter: if at_b { counter_b } else { counter_a },
            real,
            text,
            list: list_a,
            tuple,
        };
        if at_b { &mut b } else { &mut a }.execute(Box::new(apply));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }

    let mut records = Vec::new();
    for site in [&mut a, &mut b] {
        records.extend(site.drain_wal().into_iter().map(WalRecord::Commit));
        let cp = site.drain_and_checkpoint().expect("settled pair");
        records.push(WalRecord::Checkpoint(Box::new(cp)));
    }
    records
}

/// `append_frame` then `scan_wal` is the identity on `records`, and a
/// checkpoint's standalone byte form agrees with its WAL payload.
fn assert_round_trip(records: &[WalRecord]) {
    let mut log = Vec::new();
    for r in records {
        append_frame(&mut log, r);
    }
    let scan = scan_wal(&log).expect("self-written log decodes");
    assert_eq!(scan.valid_len, log.len());
    assert_eq!(scan.records, records);
    for r in records {
        if let WalRecord::Checkpoint(cp) = r {
            let bytes = cp.to_bytes();
            assert_eq!(
                decaf_core::Checkpoint::from_bytes(&bytes).as_ref(),
                Ok(&**cp)
            );
        }
    }
}

fn scripted_ops() -> Vec<Op> {
    let nested = Blueprint::Tuple(vec![
        ("who".into(), Blueprint::str("ana")),
        (
            "tags".into(),
            Blueprint::List(vec![Blueprint::Real(-0.0), Blueprint::Int(i64::MIN)]),
        ),
    ]);
    vec![
        Op::SetInt(-7),
        Op::RemoteIncr,
        Op::SetReal(f64::NEG_INFINITY),
        Op::SetStr("héllo ✓".into()),
        Op::ListPush(Blueprint::Int(1)),
        Op::ListPush(nested),
        Op::ListRemoveFirst,
        Op::TuplePut("k".into(), 3),
        Op::TuplePut("gone".into(), 4),
        Op::TupleRemove("gone".into()),
        Op::Fail,
        Op::RemoteIncr,
        Op::SetInt(i64::MAX),
    ]
}

#[test]
fn scripted_history_round_trips_through_the_log() {
    let records = records_after(&scripted_ops());
    let commits = records
        .iter()
        .filter(|r| matches!(r, WalRecord::Commit(_)))
        .count();
    assert!(commits >= 10, "only {commits} commit records");
    assert_round_trip(&records);
    // Prefixes of the script reach other states (pending list ops folded
    // or not, reservations live or collected).
    for n in 0..scripted_ops().len() {
        assert_round_trip(&records_after(&scripted_ops()[..n]));
    }
}

/// JSON wrote a non-finite real as `null` and the log then failed recovery
/// with a schema mismatch; the binary codec carries the bit pattern.
#[test]
fn non_finite_reals_recover_with_the_same_bits() {
    struct SetReal(ObjectName, f64);
    impl Transaction for SetReal {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            ctx.write_real(self.0, self.1)
        }
    }
    // A NaN with a payload: the bits, not just "some NaN", must survive.
    let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
    for (i, value) in [f64::INFINITY, f64::NAN, odd_nan].into_iter().enumerate() {
        let dir = scratch_dir(&format!("nonfinite-{i}"));
        let object;
        {
            let mut site = Site::with_config(SiteId(1), durable_config());
            object = site.create_real(0.0);
            let (mut log, _) = CommitLog::open(&dir).unwrap();
            log.append_checkpoint(&site.checkpoint().unwrap()).unwrap();
            site.execute(Box::new(SetReal(object, value)));
            for rec in site.drain_wal() {
                log.append_commit(&rec).unwrap();
            }
        }
        let (recovery, mut log) = Site::recover(&dir, durable_config()).expect("recover");
        assert_eq!(recovery.replayed, 1);
        let back = recovery
            .site
            .read_real_committed(object)
            .expect("committed");
        assert_eq!(back.to_bits(), value.to_bits(), "from the commit record");

        // And once more from a checkpoint that holds the value.
        log.compact(&recovery.site.checkpoint().unwrap()).unwrap();
        drop(log);
        let (recovery, _log) = Site::recover(&dir, durable_config()).expect("recover");
        assert_eq!(recovery.replayed, 0);
        let back = recovery
            .site
            .read_real_committed(object)
            .expect("committed");
        assert_eq!(back.to_bits(), value.to_bits(), "from the checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

mod round_trip_proptests {
    use super::*;
    use decaf_proptest::prelude::*;

    fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
        let leaf = prop_oneof![
            any::<i64>().prop_map(Blueprint::Int),
            any::<u64>().prop_map(|bits| Blueprint::Real(f64::from_bits(bits))),
            "[a-zα-ω ]{0,6}".prop_map(Blueprint::Str),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..3).prop_map(Blueprint::List),
                prop::collection::vec(("[a-z]{1,3}".prop_map(String::from), inner), 0..3)
                    .prop_map(Blueprint::Tuple),
            ]
        })
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<i64>().prop_map(Op::SetInt),
            Just(Op::RemoteIncr),
            any::<u64>().prop_map(|bits| Op::SetReal(f64::from_bits(bits))),
            "[a-zA-Zα-ω0-9 ]{0,12}".prop_map(Op::SetStr),
            arb_blueprint().prop_map(Op::ListPush),
            Just(Op::ListRemoveFirst),
            ("[a-c]".prop_map(String::from), any::<i64>()).prop_map(|(k, v)| Op::TuplePut(k, v)),
            "[a-c]".prop_map(Op::TupleRemove),
            Just(Op::Fail),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever two collaborating sites log — commit records of every
        /// `WireOp` shape, checkpoints over all six object kinds with
        /// embeddings, reservations and decided outcomes — reads back
        /// equal.
        #[test]
        fn arbitrary_histories_round_trip_through_the_log(
            ops in prop::collection::vec(arb_op(), 0..24),
        ) {
            assert_round_trip(&records_after(&ops));
        }
    }
}

// ---- CommitLog on a real filesystem ---------------------------------------

#[test]
fn commit_log_round_trips_across_reopen() {
    let dir = scratch_dir("reopen");
    let site = Site::new(SiteId(1));
    let cp = site.checkpoint().unwrap();

    let (mut log, scan) = CommitLog::open(&dir).expect("fresh dir");
    assert!(scan.records.is_empty());
    log.append_checkpoint(&cp).unwrap();
    log.append_commit(&sample_commit(2)).unwrap();
    log.append_commit(&sample_commit(3)).unwrap();
    let len = log.len_bytes();
    drop(log);

    let (log, scan) = CommitLog::open(&dir).expect("reopen");
    assert_eq!(log.len_bytes(), len);
    assert_eq!(scan.records.len(), 3);
    assert!(matches!(&scan.records[0], WalRecord::Checkpoint(_)));
    match &scan.records[2] {
        WalRecord::Commit(c) => assert_eq!(c.vt, vt(3, 1)),
        other => panic!("expected commit, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_on_disk_is_truncated_and_appends_resume() {
    let dir = scratch_dir("torn");
    let site = Site::new(SiteId(1));
    let cp = site.checkpoint().unwrap();
    let (mut log, _) = CommitLog::open(&dir).unwrap();
    log.append_checkpoint(&cp).unwrap();
    log.append_commit(&sample_commit(2)).unwrap();
    let valid = log.len_bytes();
    let path = log.path().to_path_buf();
    drop(log);

    // Simulate a crash mid-append: half of a frame, then garbage.
    let mut tail = Vec::new();
    append_frame(&mut tail, &WalRecord::Commit(sample_commit(3)));
    tail.truncate(tail.len() / 2);
    tail.extend_from_slice(b"\xde\xad\xbe\xef");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&tail).unwrap();
    }

    let (mut log, scan) = CommitLog::open(&dir).expect("torn tail tolerated");
    assert_eq!(scan.records.len(), 2, "prefix survives");
    assert_eq!(log.len_bytes(), valid, "tail truncated away");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);

    // Appends after recovery land on the valid prefix.
    log.append_commit(&sample_commit(4)).unwrap();
    drop(log);
    let (_, scan) = CommitLog::open(&dir).unwrap();
    assert_eq!(scan.records.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_drops_covered_prefix() {
    let dir = scratch_dir("compact");
    let site = Site::new(SiteId(1));
    let cp = site.checkpoint().unwrap();
    let (mut log, _) = CommitLog::open(&dir).unwrap();
    log.append_checkpoint(&cp).unwrap();
    for l in 2..30 {
        log.append_commit(&sample_commit(l)).unwrap();
    }
    let before = log.len_bytes();
    log.compact(&cp).unwrap();
    assert!(log.len_bytes() < before, "compaction shrinks the log");
    log.append_commit(&sample_commit(30)).unwrap();
    drop(log);

    let (_, scan) = CommitLog::open(&dir).unwrap();
    assert_eq!(scan.records.len(), 2, "one checkpoint, one fresh commit");
    assert!(matches!(&scan.records[0], WalRecord::Checkpoint(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Site-level recovery --------------------------------------------------

#[test]
fn durable_site_recovers_committed_state_from_wal() {
    let dir = scratch_dir("recover");
    let counter;
    {
        let mut site = Site::with_config(SiteId(1), durable_config());
        counter = site.create_int(0);
        let (mut log, _) = CommitLog::open(&dir).unwrap();
        log.append_checkpoint(&site.checkpoint().unwrap()).unwrap();
        for _ in 0..5 {
            site.execute(Box::new(Incr(counter)));
        }
        for rec in site.drain_wal() {
            log.append_commit(&rec).unwrap();
        }
        assert_eq!(site.committed_log_len(), 5);
        // Crash: site and log dropped without a final checkpoint.
    }

    let (recovery, _log) = Site::recover(&dir, durable_config()).expect("recover");
    assert_eq!(recovery.replayed, 5, "commit suffix replayed");
    let frontier = recovery.frontier.expect("five commits recovered");
    assert_eq!(frontier.site, SiteId(1));
    let mut site = recovery.site;
    assert_eq!(site.read_int_committed(counter), Some(5));
    assert_eq!(site.committed_log_len(), 5, "catch-up log rebuilt");
    // The clock resumes strictly ahead of everything logged: the next
    // commit's VT lands past the recovered frontier.
    site.execute(Box::new(Incr(counter)));
    assert_eq!(site.read_int_committed(counter), Some(6));
    let fresh = site.drain_wal();
    assert_eq!(fresh.len(), 1, "only the new commit is queued for the WAL");
    assert!(fresh[0].vt > frontier);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_without_checkpoint_fails_loudly() {
    let dir = scratch_dir("nocp");
    let (mut log, _) = CommitLog::open(&dir).unwrap();
    log.append_commit(&sample_commit(2)).unwrap();
    drop(log);
    assert!(matches!(
        Site::recover(&dir, SiteConfig::default()),
        Err(WalError::NoCheckpoint)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_pair_logs_identical_commit_sets() {
    let mut a = Site::with_config(SiteId(1), durable_config());
    let mut b = Site::with_config(SiteId(2), durable_config());
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);
    a.execute(Box::new(Incr(oa)));
    b.execute(Box::new(Incr(ob)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);

    let vts = |recs: Vec<CommitRecord>| {
        let mut v: Vec<VirtualTime> = recs.into_iter().map(|r| r.vt).collect();
        v.sort();
        v
    };
    let wa = vts(a.drain_wal());
    let wb = vts(b.drain_wal());
    assert!(!wa.is_empty());
    assert_eq!(wa, wb, "both replicas log the same committed VTs");
    // Draining leaves the in-memory catch-up log intact.
    assert_eq!(a.committed_log_len(), wa.len());
    assert!(a.drain_wal().is_empty(), "drain is a take, not a copy");
}

#[test]
fn drain_and_checkpoint_reaches_quiescence_locally() {
    let mut site = Site::with_config(SiteId(1), durable_config());
    let counter = site.create_int(0);
    site.execute(Box::new(Incr(counter)));
    // A lone site commits locally; any parked work drains without a peer.
    let cp = site
        .drain_and_checkpoint()
        .expect("single site reaches quiescence");
    assert_eq!(cp.site, SiteId(1));
    assert!(cp.object_count() >= 1);
}

// ---- golden bytes: populated logs -----------------------------------------
//
// `golden_commit_frame_bytes` and `golden_checkpoint_frame_has_kind_two`
// pin an empty site and a one-update commit; these pin what a working
// pair of sites logs. A layout that swaps two fields or two tags in both
// its directions still round-trips; only committed bytes see it.
//
// The script of `records_after` reaches every `ObjectValue` arm,
// `ListOp::Remove`, `TupleOp::Put` and `TupleOp::Remove`, histories with
// more than one entry, reservations, parents, embeddings and an
// association. It reaches no `ListOp::Insert` (collected before the
// closing checkpoint) and no `ListOp::ReplaceAll` or `TupleOp::ReplaceAll`
// (only a join's adoption writes those): `joined_records` does.

/// Site 1 fills a list and a tuple and offers each in a relation; site 2
/// joins a fresh list and a fresh tuple to them (§3.3), adopting their
/// values. Yields what the two logs would hold, as [`records_after`] does.
fn joined_records() -> Vec<WalRecord> {
    let mut a = Site::with_config(SiteId(1), durable_config());
    let mut b = Site::with_config(SiteId(2), durable_config());
    let (list, tuple, assoc) = (a.create_list(), a.create_tuple(), a.create_association());
    for op in [Op::ListPush(Blueprint::Int(1)), Op::TuplePut("k".into(), 2)] {
        let apply = Apply {
            op,
            counter: list,
            real: list,
            text: list,
            list,
            tuple,
        };
        a.execute(Box::new(apply));
    }
    let list_rel = a.create_relation(assoc, "list", list).expect("local list");
    let tuple_rel = a
        .create_relation(assoc, "tuple", tuple)
        .expect("local tuple");
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    for (rel, local) in [(list_rel, b.create_list()), (tuple_rel, b.create_tuple())] {
        let invitation = a.make_invitation(assoc, rel).expect("relation at site 1");
        b.join(invitation, local).expect("local object");
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }
    let mut records = Vec::new();
    for site in [&mut a, &mut b] {
        records.extend(site.drain_wal().into_iter().map(WalRecord::Commit));
        let cp = site.drain_and_checkpoint().expect("settled pair");
        records.push(WalRecord::Checkpoint(Box::new(cp)));
    }
    records
}

/// The frames of `records_after(&scripted_ops())`, in order: site 1's
/// commits and checkpoint, then site 2's.
const SCRIPTED_FRAMES_HEX: [&str; 22] = [
    // commit
    "02011b0000009b57834d01010101010500000501808080801001010100076564\
     69746f7273",
    // commit
    "02010b0000003bd38a1b020101010100020100000d",
    // commit
    "02010b000000082edde1030202010100020100000b",
    // commit
    "020112000000f793adec04010101010204010001000000000000f0ff",
    // commit
    "0201150000002a714498050101010103050100020a68c3a96c6c6f20e29c93",
    // commit
    "020110000000f00f6e6106010101010106010601010601000002",
    // commit
    "02013f0000002b2473c507010101010107010601020601000002070102020474\
     616773010207010001000000000000008007010000ffffffffffffffffff0103\
     77686f000203616e61",
    // commit
    "02013a000000b2a4b0ad08010101010107010601010701020204746167730102\
     07010001000000000000008007010000ffffffffffffffffff010377686f0002\
     03616e61",
    // commit
    "020110000000f68ae6bf0901010101040901060201016b000006",
    // commit
    "0201180000001fc222440a01010101040a0106020204676f6e65000008016b00\
     0006",
    // commit
    "020110000000961471d30b01010101040a01060201016b000006",
    // commit
    "02010b000000fe91a9c20902020101000302000009",
    // commit
    "0201140000002628aa9d0d01010101000d010000feffffffffffffffff01",
    // checkpoint
    "02022202000039112a1701010d0e010000020902010000090d01010000feffff\
     ffffffffffff0101000001020101000202000101010002020000010d010d010d\
     010100000d010d010000000109030107010101020701010a0701010b00000000\
     0101070100010404030901010201016b010c0100016b010c0a0101020204676f\
     6e65010d016b010c010004676f6e65010d0b01010201016b010c010104676f6e\
     65010000010101010400020a010a010a010a010b010b010200000a010a010000\
     0b010b01000000010a0101070101000100000000000000800000000101090100\
     01050501010101030180808080100101010007656469746f7273010000010101\
     0105000000000000010c00010901010000060000000101040100010302010501\
     0100020a68c3a96c6c6f20e29c93010000010101010300000000000001060001\
     0601010000020000000101010100010201010401010001000000000000f0ff01\
     00000101010102000000000000010b00010701010000ffffffffffffffffff01\
     0000000101090100010d00010a01010000080000000101040100010103010801\
     0101010701010701010601010000010201010102020101010101020201000000\
     000002060101060701010701080201070101000203616e610000000101070100\
     010704010701010202047461677301090377686f01080000000001010101000e\
     0e0101000201000302000401000501000601000701000801000901000902000a\
     01000b01000c01010d010001",
    // commit
    "02010b000000a6c9622a020101010200020100000d",
    // commit
    "02010b000000953435d0030202010200020100000b",
    // commit
    "02011700000016c0537006010102020106010601010601000002020206010000\
     02",
    // commit
    "0201ba0000008ddc6cbc07010106020107010601020601000002070102020474\
     616773010207010001000000000000008007010000ffffffffffffffffff0103\
     77686f000203616e610203070106020204746167730102070100010000000000\
     00008007010000ffffffffffffffffff010377686f000203616e610204070100\
     0203616e610205070106010207010001000000000000008007010000ffffffff\
     ffffffffff010206070100010000000000000080020707010000ffffffffffff\
     ffffff01",
    // commit
    "02013a000000685e5eaf08010101020107010601010701020204746167730102\
     07010001000000000000008007010000ffffffffffffffffff010377686f0002\
     03616e61",
    // commit
    "02010b000000638b41f30902020102000302000009",
    // commit
    "020114000000d49c62b40d01010102000d010000feffffffffffffffff01",
    // checkpoint
    "02020c010000e5eb40dd02020d08020200010601010000020000000102010100\
     020700010701010000ffffffffffffffffff0100000001020501000203040107\
     01010202047461677302050377686f0204000000000102010100020402010701\
     01000203616e6100000001020301000205030107010101020701020607010207\
     000000000102030100020000010d01010000feffffffffffffffff0101000001\
     0201010002020001010100020200000000000000020103010801010101070102\
     0301010601010000010201010102020101010101020201000000000002060102\
     0207010203020601010701010001000000000000008000000001020501000807\
     0201000302000601000701000801000902000d010000",
];

/// The frames of `joined_records()`, in order: site 1's commits and
/// checkpoint, then site 2's.
const JOINED_FRAMES_HEX: [&str; 10] = [
    // commit
    "0201100000002cefe50d01010101010001010601010101000002",
    // commit
    "020110000000d29784820201010101010201060201016b000004",
    // commit
    "0201180000009d08e76a03010101010200000501808080801001010100046c69\
     7374",
    // commit
    "020127000000ac4b3f8904010101010203010502808080801001010100046c69\
     7374818080801001010101057475706c65",
    // commit
    "02012a00000067b1023301020201010201020502808080801002010100020200\
     046c697374818080801001010101057475706c65",
    // commit
    "02012a000000630c93e305020201010205020502808080801001010100046c69\
     7374818080801002010101020201057475706c65",
    // checkpoint
    "0202e00000005274e53801010505010003010101010101010101030100ffffff\
     ffffffffffff0101010103010102010201010002020001010100020200808080\
     8010000000000101010103010205010502010302808080801001010100046c69\
     7374818080801002010101020201057475706c65010000010101010200000000\
     0000010400010201010000040000000101010100010104010201010201016b01\
     040100016b010401050201020101010202010101010102020181808080100000\
     0000000103000101010100000200000001010001000506010100010200020100\
     03010004010005020002",
    // commit
    "020110000000bb4eea2e01020201020001020601010101000002",
    // commit
    "02011000000049d5aebe0502020102010502060201016b000004",
    // checkpoint
    "0202a3000000f53cbec002020504020200010101010000020000000102000100\
     0200030101010101010101020201020101010202010102010201010002020001\
     0101000202008080808010000000000101010202020300010201010000040000\
     000102010100020104010201010201016b0203010201016b0203020000010102\
     0201000502010201010102020101010101020201818080801000010000050205\
     02000000040201020005020000",
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
fn golden_populated_log_frames() {
    let scripted = records_after(&scripted_ops());
    let joined = joined_records();
    for (records, golden) in [
        (&scripted, &SCRIPTED_FRAMES_HEX[..]),
        (&joined, &JOINED_FRAMES_HEX[..]),
    ] {
        assert_eq!(records.len(), golden.len());
        for (record, hex) in records.iter().zip(golden) {
            let mut frame = Vec::new();
            append_frame(&mut frame, record);
            assert_eq!(to_hex(&frame), *hex, "{record:?}");
            let scan = scan_wal(&from_hex(hex)).expect("golden frame decodes");
            assert_eq!(scan.records, std::slice::from_ref(record));
        }
    }
    // The arms each fixture is there for (their `Debug` forms).
    let (scripted, joined) = (format!("{scripted:?}"), format!("{joined:?}"));
    for arm in ["Scalar(", "List {", "Tuple {", "Assoc("] {
        assert!(
            scripted.contains(&format!("value: {arm}")),
            "ObjectValue::{arm}"
        );
    }
    for arm in ["Remove { tag", "Put { key", "Remove { key"] {
        assert!(scripted.contains(arm), "scripted arm {arm}");
    }
    for arm in [
        "Insert { index",
        "ReplaceAll { entries: [",
        "ReplaceAll { entries: {",
    ] {
        assert!(joined.contains(arm), "joined arm {arm}");
    }
}
