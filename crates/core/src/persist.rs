//! Persistence and recovery (paper §5.3: "We are also incorporating a
//! persistence store and recovery from a variety of failures into the
//! algorithms of DECAF").
//!
//! A [`Checkpoint`] captures a site's *durable* state — model objects with
//! their value and graph histories, reservations, decided-transaction
//! outcomes, and the Lamport clock. Its byte form
//! ([`Checkpoint::to_bytes`]) is the crate's one binary codec
//! ([`crate::codec`]), the same encoding protocol envelopes use on the wire.
//!
//! Checkpoints are taken at quiescence: in-flight transactions hold boxed
//! application closures that cannot (and should not) be serialized; the
//! paper's failure model likewise has crashed clients "rejoin the
//! collaboration by going through a join protocol as new members" (§3.4),
//! so a recovering site resumes from its checkpoint and rejoins; if the
//! collaboration has repaired it away meanwhile, the live primary merges it
//! back into the graph first (see [`Site::begin_rejoin`]).
//!
//! On top of checkpoints sits the **write-ahead commit log**: an
//! append-only file of CRC-framed, length-prefixed records (format
//! version 2: binary-codec payloads) — one [`CommitRecord`] per committed
//! transaction, plus periodic inline [`Checkpoint`] records. The reader
//! ([`scan_wal`]) tolerates torn or truncated tails by recovering the
//! longest valid record prefix, and
//! [`Site::recover`] rebuilds a site from the newest checkpoint plus the
//! committed suffix, resuming the Lamport clock strictly ahead of anything
//! logged. See DESIGN.md §S20.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use decaf_vt::{History, LamportClock, ReservationSet, SiteId, VirtualTime};

use crate::codec::{self, crc32_update};
use crate::engine::{Site, SiteConfig};
use crate::graph::ReplicationGraph;
use crate::message::WireOp;
use crate::object::{ModelObject, ObjectKind, ObjectName, ObjectValue, PropagationMode};
use crate::txn::TxnOutcome;

/// Why a checkpoint could not be taken.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The site has in-flight work (pending transactions, joins, buffered
    /// stragglers, or unsent messages); drain it first.
    NotQuiescent,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NotQuiescent => {
                write!(f, "site has in-flight work; checkpoint requires quiescence")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Durable form of one model object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectCheckpoint {
    /// The object's name.
    pub name: ObjectName,
    /// Its kind.
    pub kind: ObjectKind,
    pub(crate) values: History<ObjectValue>,
    pub(crate) graphs: History<ReplicationGraph>,
    pub(crate) value_reservations: ReservationSet,
    pub(crate) graph_reservations: ReservationSet,
    pub(crate) parent: Option<ObjectName>,
    pub(crate) propagation: PropagationMode,
    /// `(tag, child)` pairs of the embedding registry.
    pub(crate) embeddings: Vec<(VirtualTime, ObjectName)>,
}

/// A site's durable state, restorable with [`Site::restore`].
///
/// # Example
///
/// ```
/// use decaf_core::Site;
/// use decaf_vt::SiteId;
///
/// let mut site = Site::new(SiteId(1));
/// let obj = site.create_int(7);
/// let bytes = site.checkpoint().expect("quiescent").to_bytes();
///
/// // ... crash, restart ...
/// let restored = decaf_core::Checkpoint::from_bytes(&bytes).unwrap();
/// let site = Site::restore(restored);
/// assert_eq!(site.read_int_committed(obj), Some(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The checkpointed site.
    pub site: SiteId,
    pub(crate) clock: LamportClock,
    pub(crate) objects: Vec<ObjectCheckpoint>,
    pub(crate) next_seq: u64,
    /// Ascending by VT.
    pub(crate) decided: Vec<(VirtualTime, TxnOutcome)>,
    pub(crate) next_relation: u64,
}

impl Checkpoint {
    /// How many model objects the checkpoint contains.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The checkpoint's byte form: the payload of a WAL checkpoint record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::checkpoint(&mut out, self);
        out
    }

    /// Decodes [`to_bytes`](Self::to_bytes) output.
    ///
    /// # Errors
    ///
    /// Truncation, trailing bytes, an unknown tag, or state that breaks an
    /// invariant (a history out of VT order, an inverted reservation).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, String> {
        codec::decode_checkpoint(bytes)
    }
}

impl Site {
    /// Captures the site's durable state.
    ///
    /// # Errors
    ///
    /// Fails with [`CheckpointError::NotQuiescent`] while transactions,
    /// joins, or protocol messages are in flight.
    pub fn checkpoint(&self) -> Result<Checkpoint, CheckpointError> {
        if !self.is_quiescent() {
            return Err(CheckpointError::NotQuiescent);
        }
        let objects = self
            .store_objects()
            .map(|o| ObjectCheckpoint {
                name: o.name,
                kind: o.kind,
                values: o.values.clone(),
                graphs: o.graphs.clone(),
                value_reservations: o.value_reservations.clone(),
                graph_reservations: o.graph_reservations.clone(),
                parent: o.parent,
                propagation: o.propagation,
                embeddings: o.embeddings.iter().map(|(k, v)| (*k, *v)).collect(),
            })
            .collect();
        Ok(Checkpoint {
            site: self.id(),
            clock: self.clock_snapshot(),
            objects,
            next_seq: self.store_next_seq(),
            decided: {
                let mut pairs: Vec<(VirtualTime, TxnOutcome)> = self
                    .decided_snapshot()
                    .iter()
                    .map(|(k, v)| (*k, *v))
                    .collect();
                pairs.sort_by_key(|(vt, _)| *vt);
                pairs
            },
            next_relation: self.next_relation_counter(),
        })
    }

    /// Reconstructs a site from a checkpoint (with the default
    /// [`SiteConfig`]); views and in-flight protocol state are not part of
    /// a checkpoint and start empty.
    pub fn restore(cp: Checkpoint) -> Site {
        Self::restore_with_config(cp, SiteConfig::default())
    }

    /// Reconstructs a site from a checkpoint with an explicit engine
    /// configuration.
    pub(crate) fn restore_with_config(cp: Checkpoint, config: SiteConfig) -> Site {
        let mut site = Site::with_config(cp.site, config);
        site.restore_clock(cp.clock);
        site.restore_decided(cp.decided.into_iter().collect());
        site.restore_relation_counter(cp.next_relation);
        site.restore_store(
            cp.next_seq,
            cp.objects.into_iter().map(|o| {
                let mut obj = ModelObject::new(o.name, o.kind);
                obj.values = o.values;
                obj.graphs = o.graphs;
                obj.value_reservations = o.value_reservations;
                obj.graph_reservations = o.graph_reservations;
                obj.parent = o.parent;
                obj.propagation = o.propagation;
                obj.embeddings = o.embeddings.into_iter().collect();
                obj
            }),
        );
        site
    }

    /// Runs up to 16 local drain passes (buffered stragglers, parked
    /// snapshot evaluations, post-repair retries) and checkpoints as soon
    /// as the site is quiescent, so callers don't hand-roll the loop
    /// around [`Site::checkpoint`].
    ///
    /// # Quiescence contract
    ///
    /// A site is quiescent when it has no pending local transactions, no
    /// in-flight joins or graph transactions, no buffered straggler
    /// messages, and an empty outbox. Only the first three can ever be
    /// resolved *locally* (a straggler unblocks once its dependency has
    /// been applied; a parked snapshot re-evaluates after a rollback);
    /// pending transactions wait on peer verdicts and the outbox waits on
    /// the caller's transport, so this method cannot force quiescence on a
    /// site mid-collaboration — drive the network until message exchange
    /// settles, then call this. On failure, [`Site::debug_stuck`] lists
    /// what is still in flight.
    ///
    /// # Errors
    ///
    /// Fails with [`CheckpointError::NotQuiescent`] if the site still has
    /// in-flight work after those 16 passes.
    pub fn drain_and_checkpoint(&mut self) -> Result<Checkpoint, CheckpointError> {
        for _ in 0..DRAIN_PASSES {
            if self.is_quiescent() {
                return self.checkpoint();
            }
            self.drain_pass();
        }
        if self.is_quiescent() {
            return self.checkpoint();
        }
        Err(CheckpointError::NotQuiescent)
    }
}

/// How many local drain passes [`Site::drain_and_checkpoint`] runs before
/// it gives up on quiescence.
const DRAIN_PASSES: u32 = 16;

// ---------------------------------------------------------------------------
// Write-ahead commit log
// ---------------------------------------------------------------------------

/// Format-version byte stamped on every WAL frame. A complete, CRC-valid
/// frame with any *other* version byte makes the reader fail loudly
/// ([`WalError::UnsupportedVersion`]) instead of misdecoding — bump this
/// constant on any schema change to [`CommitRecord`] or [`Checkpoint`].
/// Version 1 carried JSON payloads; a version-1 log is refused and left
/// untouched on disk.
pub const WAL_FORMAT_VERSION: u8 = 2;

/// Frame kind byte for a [`CommitRecord`] payload.
const WAL_KIND_COMMIT: u8 = 1;
/// Frame kind byte for a [`Checkpoint`] payload.
const WAL_KIND_CHECKPOINT: u8 = 2;
/// Bytes in a frame header: version, kind, payload length, CRC-32.
const WAL_HEADER_LEN: usize = 10;

/// One committed transaction as recorded durably: its VT, the site that
/// originated it, and the post-state of every object it touched at the
/// logging site (recorded effects, not closures — replay is a wholesale
/// state write, not a re-execution).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// The transaction's virtual time (its identity).
    pub vt: VirtualTime,
    /// The site that originated the transaction.
    pub origin: SiteId,
    /// `(object, read-time, post-state)` per touched local object.
    pub updates: Vec<(ObjectName, VirtualTime, WireOp)>,
}

/// A decoded WAL record: a committed transaction or an inline checkpoint.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum WalRecord {
    /// One committed transaction.
    Commit(CommitRecord),
    /// A full durable-state checkpoint; replay restarts from the newest one.
    Checkpoint(Box<Checkpoint>),
}

/// Why a WAL could not be read or written.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A complete, CRC-valid frame carries an unknown format-version byte:
    /// the log was written by a different schema revision. Refusing loudly
    /// beats silently misdecoding it.
    UnsupportedVersion {
        /// The version byte found in the frame header.
        found: u8,
    },
    /// A complete, CRC-valid frame carries an unknown kind byte.
    UnknownKind {
        /// The kind byte found in the frame header.
        found: u8,
    },
    /// A CRC-valid payload failed to decode — a schema change without a
    /// version bump.
    SchemaMismatch {
        /// The frame's kind byte.
        kind: u8,
        /// The decoder's complaint.
        detail: String,
    },
    /// Recovery needs at least one checkpoint record in the log (durable
    /// sites write a baseline checkpoint when first opening their log).
    NoCheckpoint,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::UnsupportedVersion { found } => write!(
                f,
                "wal frame has format version {found}, this build reads {WAL_FORMAT_VERSION}"
            ),
            WalError::UnknownKind { found } => write!(f, "wal frame has unknown kind {found}"),
            WalError::SchemaMismatch { kind, detail } => {
                write!(f, "wal frame (kind {kind}) failed to decode: {detail}")
            }
            WalError::NoCheckpoint => write!(f, "wal contains no checkpoint record"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Appends one framed record to `buf`:
/// `[version u8][kind u8][payload-len u32 LE][crc32 u32 LE][payload]`,
/// where the CRC covers the version, kind, and length bytes plus the
/// payload (everything except the CRC field itself).
pub fn append_frame(buf: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Commit(c) => commit_frame(buf, c),
        WalRecord::Checkpoint(cp) => checkpoint_frame(buf, cp),
    }
}

fn commit_frame(buf: &mut Vec<u8>, rec: &CommitRecord) {
    frame(buf, WAL_KIND_COMMIT, |o| codec::commit_record(o, rec));
}

fn checkpoint_frame(buf: &mut Vec<u8>, cp: &Checkpoint) {
    frame(buf, WAL_KIND_CHECKPOINT, |o| codec::checkpoint(o, cp));
}

/// Frames one record whose payload `encode` appends in place: the header is
/// reserved first and its length and CRC filled in afterwards, so the
/// payload is written once, straight into `buf`.
fn frame(buf: &mut Vec<u8>, kind: u8, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[WAL_FORMAT_VERSION, kind, 0, 0, 0, 0, 0, 0, 0, 0]);
    encode(buf);
    let len = u32::try_from(buf.len() - start - WAL_HEADER_LEN)
        .expect("a WAL record payload stays under 4 GiB");
    buf[start + 2..start + 6].copy_from_slice(&len.to_le_bytes());
    let crc = !crc32_update(
        crc32_update(!0, &buf[start..start + 6]),
        &buf[start + WAL_HEADER_LEN..],
    );
    buf[start + 6..start + WAL_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// The result of scanning a WAL byte stream.
#[derive(Debug)]
pub struct WalScan {
    /// Every record in the longest valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of that prefix; anything past it is a torn tail.
    pub valid_len: usize,
}

impl WalScan {
    /// True if the scanned bytes ended in a torn/truncated frame.
    pub fn truncated_at(&self, total_len: usize) -> bool {
        self.valid_len < total_len
    }
}

/// Decodes the longest valid record prefix of `bytes`.
///
/// A tail that is incomplete (truncated header or payload) or fails its
/// CRC is treated as torn: scanning stops and `valid_len` marks the end of
/// the last intact record — truncating a valid log at *any* byte offset
/// recovers exactly the record prefix that fits, never panics, and never
/// decodes a partial record. A frame that is complete and CRC-valid but
/// carries an unknown version or kind byte, or a payload the current
/// schema cannot decode, is *not* torn — it is a schema mismatch, and the
/// scan fails loudly instead of guessing.
///
/// ```
/// use decaf_core::{append_frame, scan_wal, CommitRecord, WalRecord};
/// use decaf_vt::{SiteId, VirtualTime};
///
/// let rec = CommitRecord {
///     vt: VirtualTime::new(3, SiteId(1)),
///     origin: SiteId(1),
///     updates: vec![],
/// };
/// let mut log = Vec::new();
/// append_frame(&mut log, &WalRecord::Commit(rec));
/// let whole = log.len();
/// log.extend_from_slice(&log.clone()[..whole / 2]); // torn second record
///
/// let scan = scan_wal(&log).unwrap();
/// assert_eq!(scan.records.len(), 1);
/// assert_eq!(scan.valid_len, whole);
/// ```
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= WAL_HEADER_LEN {
        let head = &bytes[pos..pos + WAL_HEADER_LEN];
        let len = u32::from_le_bytes(head[2..6].try_into().expect("4 bytes")) as usize;
        if bytes.len() - pos - WAL_HEADER_LEN < len {
            break; // torn payload
        }
        let payload = &bytes[pos + WAL_HEADER_LEN..pos + WAL_HEADER_LEN + len];
        let stored = u32::from_le_bytes(head[6..10].try_into().expect("4 bytes"));
        let computed = !crc32_update(crc32_update(!0, &head[..6]), payload);
        if stored != computed {
            break; // torn or corrupt tail
        }
        // From here on the frame is complete and integrity-checked, so any
        // decode trouble is a schema problem, not a torn tail.
        if head[0] != WAL_FORMAT_VERSION {
            return Err(WalError::UnsupportedVersion { found: head[0] });
        }
        let kind = head[1];
        let record = match kind {
            WAL_KIND_COMMIT => codec::decode_commit_record(payload).map(WalRecord::Commit),
            WAL_KIND_CHECKPOINT => {
                codec::decode_checkpoint(payload).map(|cp| WalRecord::Checkpoint(Box::new(cp)))
            }
            other => return Err(WalError::UnknownKind { found: other }),
        };
        records.push(record.map_err(|detail| WalError::SchemaMismatch { kind, detail })?);
        pos += WAL_HEADER_LEN + len;
    }
    Ok(WalScan {
        records,
        valid_len: pos,
    })
}

/// An append-only WAL file (`wal.log` under a site's data directory),
/// fsynced before what it records is acknowledged. Opening scans the
/// existing contents, truncates any torn tail, and positions appends at the
/// end of the valid prefix.
#[derive(Debug)]
pub struct CommitLog {
    file: std::fs::File,
    path: PathBuf,
    len: u64,
}

impl CommitLog {
    /// File name of the log inside a data directory.
    pub const FILE_NAME: &'static str = "wal.log";

    /// Opens (creating as needed) the log under `data_dir` and scans it.
    pub fn open(data_dir: &Path) -> Result<(CommitLog, WalScan), WalError> {
        std::fs::create_dir_all(data_dir)?;
        let path = data_dir.join(Self::FILE_NAME);
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        // If this call created the file, its directory entry must be
        // durable before any commit fsynced into it counts as acknowledged.
        sync_dir(data_dir)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan_wal(&bytes)?;
        if scan.valid_len < bytes.len() {
            file.set_len(scan.valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len as u64))?;
        let len = scan.valid_len as u64;
        Ok((CommitLog { file, path, len }, scan))
    }

    /// Writes one already-framed record and fsyncs; returns the fsync
    /// latency.
    fn append(&mut self, framed: &[u8]) -> Result<Duration, WalError> {
        self.write(framed)?;
        self.sync()
    }

    /// Writes one already-framed record, not yet synced.
    fn write(&mut self, framed: &[u8]) -> Result<(), WalError> {
        self.file.write_all(framed)?;
        self.len += framed.len() as u64;
        Ok(())
    }

    /// Appends one committed transaction and fsyncs; returns the fsync
    /// latency (for the WAL latency histogram).
    pub fn append_commit(&mut self, rec: &CommitRecord) -> Result<Duration, WalError> {
        self.write_commit(rec)?;
        self.sync()
    }

    /// Appends one committed transaction without syncing: it survives a
    /// crash only once a later [`sync`](CommitLog::sync) returns. Returns
    /// the bytes the log grew by.
    pub fn write_commit(&mut self, rec: &CommitRecord) -> Result<u64, WalError> {
        let mut buf = Vec::new();
        commit_frame(&mut buf, rec);
        self.write(&buf)?;
        Ok(buf.len() as u64)
    }

    /// Fsyncs everything written so far; returns the fsync latency.
    pub fn sync(&mut self) -> Result<Duration, WalError> {
        let start = Instant::now();
        self.file.sync_data()?;
        Ok(start.elapsed())
    }

    /// Appends an inline checkpoint record and fsyncs.
    pub fn append_checkpoint(&mut self, cp: &Checkpoint) -> Result<Duration, WalError> {
        let mut buf = Vec::new();
        checkpoint_frame(&mut buf, cp);
        self.append(&buf)
    }

    /// Atomically rewrites the log as just `cp` (tmp file + rename),
    /// dropping the commit prefix the checkpoint already covers.
    pub fn compact(&mut self, cp: &Checkpoint) -> Result<(), WalError> {
        let tmp = self.path.with_extension("log.tmp");
        let mut buf = Vec::new();
        checkpoint_frame(&mut buf, cp);
        let mut out = std::fs::File::create(&tmp)?;
        out.write_all(&buf)?;
        out.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        // Without this a crash could undo the rename and, with it, every
        // commit fsynced into the new inode afterwards.
        sync_dir(
            self.path
                .parent()
                .expect("the log lives in a data directory"),
        )?;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.len = buf.len() as u64;
        Ok(())
    }

    /// Current byte length of the valid log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Fsyncs a directory, making a file creation or rename inside it durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// The outcome of rebuilding a site from its WAL.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered site (checkpoint restored, commit suffix replayed,
    /// clock strictly ahead of everything logged).
    pub site: Site,
    /// How many commit records were replayed past the checkpoint.
    pub replayed: usize,
    /// The highest committed VT known after recovery — the frontier a
    /// rejoining site announces to its peers for catch-up.
    pub frontier: Option<VirtualTime>,
}

impl Site {
    /// Rebuilds a site from scanned WAL records: restore the newest
    /// [`Checkpoint`], replay every [`CommitRecord`] after it.
    ///
    /// # Errors
    ///
    /// Fails with [`WalError::NoCheckpoint`] if the log holds no
    /// checkpoint record (durable sites write a baseline checkpoint when
    /// first opening their log, so this indicates a foreign or empty log).
    pub fn recover_from_records(
        records: Vec<WalRecord>,
        config: SiteConfig,
    ) -> Result<Recovery, WalError> {
        let mut checkpoint: Option<Box<Checkpoint>> = None;
        let mut suffix: Vec<CommitRecord> = Vec::new();
        for record in records {
            match record {
                WalRecord::Checkpoint(cp) => {
                    checkpoint = Some(cp);
                    suffix.clear();
                }
                WalRecord::Commit(c) => suffix.push(c),
            }
        }
        let checkpoint = checkpoint.ok_or(WalError::NoCheckpoint)?;
        let mut site = Site::restore_with_config(*checkpoint, config);
        let replayed = suffix.len();
        for rec in &suffix {
            site.replay_commit(rec);
        }
        site.bump_clock_past_recovery();
        let frontier = site.committed_frontier();
        Ok(Recovery {
            site,
            replayed,
            frontier,
        })
    }

    /// Full restart path for a durable site: open the WAL under
    /// `data_dir`, truncate any torn tail, restore the newest checkpoint,
    /// and replay the committed suffix. Returns the recovery outcome plus
    /// the open log, ready for further appends.
    pub fn recover(data_dir: &Path, config: SiteConfig) -> Result<(Recovery, CommitLog), WalError> {
        let (log, scan) = CommitLog::open(data_dir)?;
        let recovery = Site::recover_from_records(scan.records, config)?;
        Ok((recovery, log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::new(n, SiteId(1))
    }

    /// Checkpoints `site`, decodes the bytes and restores from them.
    fn through_bytes(site: &Site) -> Site {
        let cp = site.checkpoint().expect("quiescent");
        let decoded = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes");
        assert_eq!(decoded, cp);
        Site::restore(decoded)
    }

    fn reservations(site: &Site, o: ObjectName) -> &ReservationSet {
        &site.store.get(o).unwrap().value_reservations
    }

    /// Every write VT from 0 to 40 the set would deny.
    fn denied(rs: &ReservationSet) -> Vec<u64> {
        (0..40)
            .filter(|&w| rs.check_write(vt(w)).is_err())
            .collect()
    }

    #[test]
    fn ownerless_and_owned_reservations_round_trip() {
        let mut site = Site::new(SiteId(1));
        let o = site.create_int(0);
        let rs = &mut site.store_mut().get_mut(o).unwrap().value_reservations;
        rs.reserve_read(vt(2), vt(9));
        rs.reserve_read(vt(2), vt(14));
        rs.reserve_read(vt(5), vt(7));
        rs.reserve(vt(3), vt(20), vt(20));
        let before = rs.clone();
        assert_eq!(before.len(), 3);

        let restored = through_bytes(&site);
        assert_eq!(reservations(&restored, o), &before);
        assert_eq!(denied(reservations(&restored, o)), denied(&before));
    }

    #[test]
    fn token_owned_snapshot_reservations_restore_as_they_were() {
        // What a primary kept before snapshot reads merged: one entry per
        // confirmed snapshot, each owned by its token, beside a transaction.
        let mut site = Site::new(SiteId(1));
        let o = site.create_int(0);
        let rs = &mut site.store_mut().get_mut(o).unwrap().value_reservations;
        for (k, hi) in [9, 14, 11, 30].into_iter().enumerate() {
            rs.reserve(vt(2), vt(hi), VirtualTime::new(100 + k as u64, SiteId(2)));
        }
        rs.reserve(vt(12), vt(20), vt(20));
        let before = rs.clone();

        let mut restored = through_bytes(&site);
        assert_eq!(reservations(&restored, o), &before);
        assert_eq!(denied(reservations(&restored, o)), denied(&before));
        let mut merged = ReservationSet::new();
        merged.reserve_read(vt(2), vt(30));
        merged.reserve(vt(12), vt(20), vt(20));
        assert_eq!(denied(reservations(&restored, o)), denied(&merged));

        // New snapshot reads add one ownerless entry beside the old ones;
        // the transaction's release and GC still see through to it.
        let rs = &mut restored.store_mut().get_mut(o).unwrap().value_reservations;
        assert!(!rs.reserve_read(vt(2), vt(35)));
        assert!(rs.reserve_read(vt(2), vt(33)));
        assert_eq!(rs.len(), before.len() + 1);
        assert_eq!(rs.release(vt(20)), 1);
        assert_eq!(denied(rs), (3..35).collect::<Vec<_>>());
        assert_eq!(rs.gc(vt(34)), 4);
        assert_eq!(denied(rs), (3..35).collect::<Vec<_>>());
    }
}
