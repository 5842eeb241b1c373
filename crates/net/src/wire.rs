//! Versioned, length-prefixed wire codec for DECAF protocol envelopes.
//!
//! The TCP mesh ([`crate::tcp`]) carries [`decaf_core::Envelope`]s between
//! OS processes. Each envelope (or control message) travels in one *frame*:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic  = b"DCAF"
//!      4     1  protocol version (1 for Hello/Ping, 2 for DataV2/Batch;
//!               a kind is accepted under its own version only)
//!      5     1  frame kind (1 Hello, 3 Ping, 4 DataV2, 5 Batch; 2 reserved)
//!      6     4  payload length, u32 little-endian
//!     10     4  CRC-32 (IEEE) of the payload, u32 little-endian
//!     14   len  payload bytes
//! ```
//!
//! There is one payload codec: the compact binary encoding of
//! [`decaf_core::codec`] (tag bytes for enum variants, LEB128 varints,
//! length-prefixed strings), which the write-ahead log uses too. A `DataV2`
//! payload is one envelope; a `Batch` payload coalesces many into one
//! frame. The names keep their `V2`/`v2` suffix — the binary codec's first
//! version number; the one this build speaks and a Hello announces is
//! [`CODEC_VERSION`]. Frame kind 2 carried the JSON codec the binary one
//! replaced; the byte stays reserved and a frame bearing it is rejected
//! like any unknown kind.
//!
//! A Hello payload identifies the connecting peer — 4-byte little-endian
//! site id — and names, in a fifth byte, the highest codec version it
//! speaks. This build speaks exactly [`CODEC_VERSION`]; a Hello without the
//! byte or naming a lower version is refused ([`decode_hello`]). The byte
//! is what a later codec would negotiate on. Ping (heartbeat) payloads are
//! empty.
//!
//! Malformed input — wrong magic, unknown kind, a version other than the
//! kind's, oversized length, CRC mismatch, or an undecodable payload — is
//! rejected with a [`WireError`], never a panic, so a byte stream from a
//! hostile or corrupted peer cannot take a site down.
//!
//! # Example
//!
//! ```
//! use decaf_net::wire::{encode_frame, FrameKind, FrameReader};
//!
//! let bytes = encode_frame(FrameKind::DataV2, b"payload");
//! let mut reader = FrameReader::new();
//! reader.feed(&bytes[..5]); // arbitrary fragmentation is fine
//! assert!(reader.next_frame().unwrap().is_none());
//! reader.feed(&bytes[5..]);
//! let frame = reader.next_frame().unwrap().unwrap();
//! assert_eq!(frame.kind, FrameKind::DataV2);
//! assert_eq!(frame.payload, b"payload");
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use decaf_core::codec::{self, crc32};
use decaf_core::Envelope;
use decaf_vt::SiteId;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"DCAF";

/// Wire protocol version stamped on the control frame kinds (Hello/Ping);
/// the golden-frame snapshots in `tests/wire_codec_v2.rs` guard against
/// accidental drift.
pub const PROTOCOL_VERSION: u8 = 1;

/// Wire protocol version stamped on the data frame kinds (DataV2/Batch).
pub const PROTOCOL_VERSION_V2: u8 = 2;

/// The envelope codec version this build speaks and announces in its Hello.
/// Version 3 is version 2 with a snapshot's reads coded against each other
/// ([`decaf_core::codec`], "Snapshot reads"); the bytes differ, so a
/// version-2 peer is refused, not misread.
pub const CODEC_VERSION: u8 = 3;

/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 14;

/// Upper bound on a frame payload (16 MiB). Larger length fields are
/// rejected before any allocation, so a corrupt header cannot trigger an
/// absurd allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Connection preamble: identifies the dialing site (4-byte LE id
    /// followed by a codec-version byte; see [`encode_hello_v2`]).
    Hello,
    /// Heartbeat/keepalive; empty payload.
    Ping,
    /// A single binary-encoded [`Envelope`].
    DataV2,
    /// Multiple binary-encoded [`Envelope`]s coalesced into one frame.
    Batch,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Ping => 3,
            FrameKind::DataV2 => 4,
            FrameKind::Batch => 5,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            // 2 is reserved: it was the JSON data frame of codec 1.
            3 => Some(FrameKind::Ping),
            4 => Some(FrameKind::DataV2),
            5 => Some(FrameKind::Batch),
            _ => None,
        }
    }

    /// The protocol version byte stamped on frames of this kind.
    pub fn wire_version(self) -> u8 {
        match self {
            FrameKind::Hello | FrameKind::Ping => PROTOCOL_VERSION,
            FrameKind::DataV2 | FrameKind::Batch => PROTOCOL_VERSION_V2,
        }
    }
}

/// A decoded frame (owned payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's kind tag.
    pub kind: FrameKind,
    /// The raw payload bytes (CRC already verified).
    pub payload: Vec<u8>,
}

/// A decoded frame whose payload borrows the reader's reassembly buffer —
/// no copy. Valid until the next call that mutates the [`FrameReader`].
#[derive(Debug, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The frame's kind tag.
    pub kind: FrameKind,
    /// The raw payload bytes in place (CRC already verified).
    pub payload: &'a [u8],
}

/// Why a byte sequence was rejected by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte was not the one frames of this kind carry.
    UnsupportedVersion(u8),
    /// The kind byte named no known [`FrameKind`].
    UnknownKind(u8),
    /// The declared payload length exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload's CRC-32 did not match the header.
    BadCrc {
        /// CRC declared in the header.
        expected: u32,
        /// CRC computed over the received payload.
        found: u32,
    },
    /// A payload failed to decode (e.g. a truncated envelope, or a Hello
    /// payload of the wrong size or naming an unsupported codec).
    Codec(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (control frames carry {PROTOCOL_VERSION}, data frames {PROTOCOL_VERSION_V2})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized(n) => {
                write!(f, "declared payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::BadCrc { expected, found } => {
                write!(
                    f,
                    "payload CRC mismatch: header {expected:#010x}, computed {found:#010x}"
                )
            }
            WireError::Codec(e) => write!(f, "payload decode failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one frame into a fresh byte vector.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — the caller controls
/// outbound payloads, so an oversized one is a local programming error
/// (inbound oversize is an *error*, not a panic; see [`FrameReader`]).
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "outbound payload of {} bytes exceeds MAX_PAYLOAD",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(kind.wire_version());
    out.push(kind.to_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Once the consumed prefix of the reassembly buffer exceeds this many
/// bytes, [`FrameReader`] compacts it with one `memmove` so the buffer
/// does not grow without bound on a long-lived connection.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Incremental frame parser for a byte stream.
///
/// Feed it arbitrarily fragmented chunks ([`feed`](FrameReader::feed)) and
/// pop complete frames ([`next_frame`](FrameReader::next_frame), or
/// [`next_frame_view`](FrameReader::next_frame_view) to borrow the payload
/// in place without a copy). Any malformed header or payload poisons the
/// stream: once an error is returned, the reader keeps returning it (a TCP
/// byte stream has no frame resynchronization point, so the connection must
/// be dropped).
///
/// Consumed frames advance a rolling offset instead of draining the front
/// of the buffer, so popping N frames from one burst costs O(bytes), not
/// O(bytes × frames); the consumed prefix is reclaimed wholesale once it
/// crosses a threshold or the buffer empties.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    poisoned: Option<WireError>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to pop the next complete frame, borrowing the payload from the
    /// reassembly buffer (no copy). The view is valid until the next call
    /// that mutates the reader.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] that poisoned the stream, on this and all
    /// subsequent calls.
    pub fn next_frame_view(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buffered() < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = self.buf[self.start..self.start + HEADER_LEN]
            .try_into()
            .expect("slice has HEADER_LEN bytes");
        let (kind, len, crc) = match parse_header(&header) {
            Ok(h) => h,
            Err(e) => {
                self.poisoned = Some(e.clone());
                return Err(e);
            }
        };
        let total = HEADER_LEN + len as usize;
        if self.buffered() < total {
            return Ok(None);
        }
        let pstart = self.start + HEADER_LEN;
        let pend = self.start + total;
        let payload = &self.buf[pstart..pend];
        let found = crc32(payload);
        if found != crc {
            let e = WireError::BadCrc {
                expected: crc,
                found,
            };
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        self.start = pend;
        Ok(Some(FrameView {
            kind,
            payload: &self.buf[pstart..pend],
        }))
    }

    /// Tries to pop the next complete frame with an owned payload.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] that poisoned the stream, on this and all
    /// subsequent calls.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_frame_view()?.map(|v| Frame {
            kind: v.kind,
            payload: v.payload.to_vec(),
        }))
    }
}

/// Validates a frame header, returning `(kind, payload_len, payload_crc)`.
fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(FrameKind, u32, u32), WireError> {
    if h[..4] != MAGIC {
        return Err(WireError::BadMagic([h[0], h[1], h[2], h[3]]));
    }
    let kind = FrameKind::from_byte(h[5]).ok_or(WireError::UnknownKind(h[5]))?;
    if h[4] != kind.wire_version() {
        return Err(WireError::UnsupportedVersion(h[4]));
    }
    let len = u32::from_le_bytes([h[6], h[7], h[8], h[9]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let crc = u32::from_le_bytes([h[10], h[11], h[12], h[13]]);
    Ok((kind, len, crc))
}

/// Writes one frame to a blocking writer (header + payload, then flush).
///
/// Returns the number of bytes written.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<usize> {
    let bytes = encode_frame(kind, payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one complete frame from a blocking reader.
///
/// # Errors
///
/// Malformed frames surface as [`io::ErrorKind::InvalidData`] with the
/// underlying [`WireError`] as the source; a cleanly closed stream at a
/// frame boundary is [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len, crc) =
        parse_header(&header).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let found = crc32(&payload);
    if found != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::BadCrc {
                expected: crc,
                found,
            },
        ));
    }
    Ok(Frame { kind, payload })
}

/// Serializes an [`Envelope`] into a DataV2-frame payload: tag bytes for
/// variants, LEB128 varints for integers, length-prefixed strings.
pub fn encode_envelope_v2(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    codec::envelope(&mut out, env);
    out
}

/// Deserializes a DataV2-frame payload back into an [`Envelope`].
///
/// # Errors
///
/// Returns [`WireError::Codec`] on truncation, trailing bytes, an unknown
/// tag, or invalid UTF-8 in a string.
pub fn decode_envelope_v2(payload: &[u8]) -> Result<Envelope, WireError> {
    codec::decode_envelope(payload).map_err(WireError::Codec)
}

/// Serializes a run of [`Envelope`]s into one Batch-frame payload: a
/// varint count, then each envelope as a varint byte length followed by
/// its binary encoding.
pub fn encode_batch(envs: &[Envelope]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * envs.len().max(1));
    codec::put_varint(&mut out, envs.len() as u64);
    let mut scratch = Vec::with_capacity(64);
    for env in envs {
        scratch.clear();
        codec::envelope(&mut scratch, env);
        codec::put_varint(&mut out, scratch.len() as u64);
        out.extend_from_slice(&scratch);
    }
    out
}

/// Assembles a Batch-frame payload from envelopes that were already
/// encoded with [`encode_envelope_v2`] — the writer thread encodes each
/// envelope once as it drains its queue, then frames the batch without
/// re-encoding.
pub fn encode_batch_parts(parts: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total + 2 + 2 * parts.len());
    codec::put_varint(&mut out, parts.len() as u64);
    for p in parts {
        codec::put_varint(&mut out, p.len() as u64);
        out.extend_from_slice(p);
    }
    out
}

/// Deserializes a Batch-frame payload back into its [`Envelope`]s.
///
/// # Errors
///
/// Returns [`WireError::Codec`] on truncation, trailing bytes, a length
/// prefix that disagrees with its envelope, or any per-envelope decode
/// failure.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<Envelope>, WireError> {
    codec::decode_batch(payload).map_err(WireError::Codec)
}

/// Encodes a Hello payload: the 4-byte LE site id plus one byte naming the
/// sender's maximum supported codec version.
pub fn encode_hello_v2(site: SiteId, max_codec: u8) -> [u8; 5] {
    let id = site.0.to_le_bytes();
    [id[0], id[1], id[2], id[3], max_codec]
}

/// Decodes a Hello payload into the peer's site id and the maximum codec
/// version it announced.
///
/// # Errors
///
/// Returns [`WireError::Codec`] if the payload is not exactly 5 bytes (the
/// classic 4-byte Hello of a codec-1 peer included) or names a codec below
/// [`CODEC_VERSION`]: there is no older encoding to fall back to.
pub fn decode_hello(payload: &[u8]) -> Result<(SiteId, u8), WireError> {
    let &[a, b, c, d, max_codec] = payload else {
        return Err(WireError::Codec(format!(
            "hello payload of {} bytes, want 5",
            payload.len()
        )));
    };
    if max_codec < CODEC_VERSION {
        return Err(WireError::Codec(format!(
            "hello names codec {max_codec}, this build speaks {CODEC_VERSION}"
        )));
    }
    Ok((SiteId(u32::from_le_bytes([a, b, c, d])), max_codec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_core::Message;
    use decaf_vt::VirtualTime;

    fn vt(lamport: u64, site: u32) -> VirtualTime {
        VirtualTime {
            lamport,
            site: SiteId(site),
        }
    }

    fn commit_env() -> Envelope {
        Envelope {
            from: SiteId(3),
            to: SiteId(1),
            clock: vt(42, 3),
            msg: Message::Commit { txn: vt(41, 3) },
            span: None,
        }
    }

    #[test]
    fn frame_roundtrip_via_reader() {
        let bytes = encode_frame(FrameKind::DataV2, b"hello world");
        let mut r = FrameReader::new();
        r.feed(&bytes);
        let f = r.next_frame().unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::DataV2);
        assert_eq!(f.payload, b"hello world");
        assert!(r.next_frame().unwrap().is_none());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reader_handles_fragmentation_and_back_to_back_frames() {
        let mut stream = encode_frame(FrameKind::Ping, b"");
        stream.extend_from_slice(&encode_frame(FrameKind::DataV2, b"x"));
        let mut r = FrameReader::new();
        for chunk in stream.chunks(3) {
            r.feed(chunk);
        }
        assert_eq!(r.next_frame().unwrap().unwrap().kind, FrameKind::Ping);
        let f = r.next_frame().unwrap().unwrap();
        assert_eq!(
            (f.kind, f.payload.as_slice()),
            (FrameKind::DataV2, &b"x"[..])
        );
    }

    #[test]
    fn reader_survives_one_byte_chunks_of_a_large_frame() {
        // Regression test for the quadratic-feed fix: a large frame arriving
        // one byte at a time must cost O(n) total, and the payload must come
        // out intact. 256 KiB in 1-byte feeds is visibly instant with the
        // rolling offset and takes minutes with drain-per-frame semantics.
        let payload: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let bytes = encode_frame(FrameKind::DataV2, &payload);
        let mut r = FrameReader::new();
        for b in &bytes {
            r.feed(std::slice::from_ref(b));
        }
        let f = r.next_frame().unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::DataV2);
        assert_eq!(f.payload, payload);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reader_reclaims_consumed_prefix() {
        // After many popped frames, the consumed prefix must be reclaimed
        // rather than growing without bound.
        let frame = encode_frame(FrameKind::DataV2, &[0u8; 8 * 1024]);
        let mut r = FrameReader::new();
        for _ in 0..64 {
            r.feed(&frame);
            assert!(r.next_frame_view().unwrap().is_some());
        }
        assert_eq!(r.buffered(), 0);
        assert!(
            r.buf.len() <= 2 * COMPACT_THRESHOLD,
            "reassembly buffer grew to {} bytes",
            r.buf.len()
        );
    }

    #[test]
    fn frame_view_decodes_in_place() {
        let env = commit_env();
        let bytes = encode_frame(FrameKind::DataV2, &encode_envelope_v2(&env));
        let mut r = FrameReader::new();
        r.feed(&bytes);
        let view = r.next_frame_view().unwrap().unwrap();
        assert_eq!(view.kind, FrameKind::DataV2);
        // Decode straight from the borrowed reassembly buffer: no payload copy.
        assert_eq!(decode_envelope_v2(view.payload).unwrap(), env);
    }

    #[test]
    fn bad_magic_poisons() {
        let mut bytes = encode_frame(FrameKind::DataV2, b"p");
        bytes[0] = b'X';
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert!(matches!(r.next_frame(), Err(WireError::BadMagic(_))));
        // Poisoned: same error again, new bytes ignored.
        r.feed(&encode_frame(FrameKind::Ping, b""));
        assert!(matches!(r.next_frame(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn version_kind_length_crc_rejections() {
        let good = encode_frame(FrameKind::DataV2, b"payload");

        let mut v = good.clone();
        v[4] = 99;
        let mut r = FrameReader::new();
        r.feed(&v);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut k = good.clone();
        k[5] = 0;
        let mut r = FrameReader::new();
        r.feed(&k);
        assert!(matches!(r.next_frame(), Err(WireError::UnknownKind(0))));

        let mut o = good.clone();
        o[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut r = FrameReader::new();
        r.feed(&o);
        assert!(matches!(r.next_frame(), Err(WireError::Oversized(_))));

        let mut c = good;
        let last = c.len() - 1;
        c[last] ^= 0xFF;
        let mut r = FrameReader::new();
        r.feed(&c);
        assert!(matches!(r.next_frame(), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn v2_frame_kinds_carry_version_two() {
        for kind in [FrameKind::DataV2, FrameKind::Batch] {
            let bytes = encode_frame(kind, b"x");
            assert_eq!(bytes[4], PROTOCOL_VERSION_V2);
            let mut r = FrameReader::new();
            r.feed(&bytes);
            assert_eq!(r.next_frame().unwrap().unwrap().kind, kind);
        }
        for kind in [FrameKind::Hello, FrameKind::Ping] {
            assert_eq!(encode_frame(kind, b"")[4], PROTOCOL_VERSION);
        }
    }

    #[test]
    fn a_frame_kind_accepts_only_its_own_version_byte() {
        for (kind, other) in [
            (FrameKind::DataV2, PROTOCOL_VERSION),
            (FrameKind::Batch, PROTOCOL_VERSION),
            (FrameKind::Hello, PROTOCOL_VERSION_V2),
            (FrameKind::Ping, PROTOCOL_VERSION_V2),
        ] {
            let mut bytes = encode_frame(kind, b"");
            bytes[4] = other;
            let mut r = FrameReader::new();
            r.feed(&bytes);
            assert_eq!(r.next_frame(), Err(WireError::UnsupportedVersion(other)));
        }
    }

    #[test]
    fn blocking_read_write_roundtrip() {
        let mut buf = Vec::new();
        let hello = encode_hello_v2(SiteId(7), CODEC_VERSION);
        let n = write_frame(&mut buf, FrameKind::Hello, &hello).unwrap();
        assert_eq!(n, buf.len());
        let mut cursor = io::Cursor::new(buf);
        let f = read_frame(&mut cursor).unwrap();
        assert_eq!(f.kind, FrameKind::Hello);
        assert_eq!(
            decode_hello(&f.payload).unwrap(),
            (SiteId(7), CODEC_VERSION)
        );
    }

    #[test]
    fn blocking_read_rejects_truncation_and_corruption() {
        let bytes = encode_frame(FrameKind::DataV2, b"abcdef");
        // Truncated mid-payload.
        let mut cursor = io::Cursor::new(bytes[..bytes.len() - 2].to_vec());
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Flipped payload byte.
        let mut corrupt = bytes;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        let mut cursor = io::Cursor::new(corrupt);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn hello_names_a_codec_this_build_speaks() {
        assert_eq!(
            decode_hello(&encode_hello_v2(SiteId(9), 3)).unwrap(),
            (SiteId(9), 3)
        );
        // A newer peer announcing a higher maximum still speaks ours.
        assert_eq!(
            decode_hello(&encode_hello_v2(SiteId(9), 4)).unwrap(),
            (SiteId(9), 4)
        );
        // The classic 4-byte Hello and codecs below ours are refused, as
        // is any other length.
        assert!(decode_hello(&SiteId(9).0.to_le_bytes()).is_err());
        assert!(decode_hello(&encode_hello_v2(SiteId(9), 2)).is_err());
        assert!(decode_hello(&encode_hello_v2(SiteId(9), 1)).is_err());
        assert!(decode_hello(&encode_hello_v2(SiteId(9), 0)).is_err());
        assert!(decode_hello(&[1, 2, 3]).is_err());
        assert!(decode_hello(b"too many bytes").is_err());
    }

    #[test]
    fn v2_envelope_roundtrip() {
        let env = commit_env();
        let v2 = encode_envelope_v2(&env);
        assert_eq!(decode_envelope_v2(&v2).unwrap(), env);
    }

    #[test]
    fn v2_rejects_trailing_and_truncated_input() {
        let mut bytes = encode_envelope_v2(&commit_env());
        bytes.push(0);
        assert!(
            decode_envelope_v2(&bytes).is_err(),
            "trailing byte accepted"
        );
        bytes.pop();
        bytes.pop();
        assert!(decode_envelope_v2(&bytes).is_err(), "truncation accepted");
        assert!(decode_envelope_v2(&[99]).is_err(), "unknown tag accepted");
    }

    #[test]
    fn batch_roundtrip() {
        let envs: Vec<Envelope> = (0..5)
            .map(|i| Envelope {
                from: SiteId(i),
                to: SiteId(i + 1),
                clock: vt(u64::from(i) * 10, i),
                msg: Message::Heartbeat,
                // A spanned envelope on every other entry exercises the
                // per-entry trailing-span detection in batch decoding.
                span: (i % 2 == 0).then_some(decaf_core::SpanCtx {
                    origin: SiteId(i),
                    seq: u64::from(i) * 10,
                    hop: 0,
                }),
            })
            .collect();
        let payload = encode_batch(&envs);
        assert_eq!(decode_batch(&payload).unwrap(), envs);
        // Empty batches are legal (a flush can race the queue drain).
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), Vec::new());
        // Corrupt count and mismatched length prefixes are rejected.
        assert!(decode_batch(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).is_err());
        // Truncation is caught by the last entry's length prefix. (A
        // flipped final *value* byte is no longer guaranteed to fail now
        // that envelopes end in the trailing span section — a mutated hop
        // varint is still a structurally valid hop.)
        let mut bad = encode_batch(&envs);
        bad.pop();
        assert!(decode_batch(&bad).is_err());
    }

    #[test]
    fn wire_error_display_covers_variants() {
        for e in [
            WireError::BadMagic(*b"XXXX"),
            WireError::UnsupportedVersion(9),
            WireError::UnknownKind(0),
            WireError::Oversized(u32::MAX),
            WireError::BadCrc {
                expected: 1,
                found: 2,
            },
            WireError::Codec("boom".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
