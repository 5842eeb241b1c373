//! The structured trace event model and its JSONL codec.
//!
//! Events are deliberately flat and `Copy`: every field is a scalar or a
//! small `Option`, so emitting one costs a struct copy — no allocation, no
//! formatting — and the JSONL encoding is only produced when a trace is
//! exported. The hand-rolled codec keeps the crate dependency-free; the
//! grammar it accepts is exactly the grammar [`TraceEvent::to_jsonl`]
//! produces (strict field order is *not* required, but unknown keys are
//! rejected so schema drift fails loudly).

use std::fmt;

/// What happened. One variant per observable protocol/transport action.
///
/// The first nine kinds map to the paper's own vocabulary: transaction
/// lifecycle (§3.2 guesses and the commit/abort verdicts), view
/// notification (§4 optimistic delivery and its commitment), and §3.4
/// fail-stop handling. The remaining kinds instrument the substrate
/// beneath the protocol (frames, reconnects, GC sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TraceKind {
    /// A local transaction attempt started executing.
    TxnBegin,
    /// A transaction attempt finished optimistically; `n` carries the
    /// number of outstanding remote verdicts it is gambling on.
    Guess,
    /// A transaction committed. `n` is 1 for locally-originated
    /// transactions, 0 for remote ones applied here.
    Commit,
    /// A transaction aborted before its updates were published.
    Abort,
    /// A published (guessed) transaction was rolled back.
    Rollback,
    /// An optimistic view notification was delivered to the application.
    ViewOptimistic,
    /// A view notification was confirmed committed (optimistic protocol
    /// upgrading a prior delivery, or a pessimistic delivery).
    ViewCommitted,
    /// The transport wrote a frame; `peer` is the destination, `n` the
    /// payload size in bytes (or queue depth for queued substrates).
    MsgSend,
    /// The transport received a frame; `peer` is the origin, `n` the
    /// payload size in bytes.
    MsgRecv,
    /// The transport re-established a lost connection to `peer`.
    Reconnect,
    /// The failure detector declared `peer` fail-stopped.
    SiteFailed,
    /// A garbage-collection sweep discarded `n` history entries.
    GcSweep,
    /// A restarted site began its recovery/rejoin: `vt` is the recovered
    /// commit frontier, `peer` the chosen catch-up server, `n` how many
    /// peers were contacted.
    RecoveryBegin,
    /// Recovery finished (every rejoin ack received): `vt` is the
    /// committed frontier afterwards, `n` how many deferred gestures were
    /// released.
    RecoveryDone,
    /// A commit record was appended to the write-ahead log; `vt` is the
    /// committed transaction, `n` the bytes the log grew by. One per
    /// persisted commit, emitted where the append returns.
    WalAppend,
}

impl TraceKind {
    /// All kinds, in declaration order. Handy for table-driven tests.
    pub const ALL: [TraceKind; 15] = [
        TraceKind::TxnBegin,
        TraceKind::Guess,
        TraceKind::Commit,
        TraceKind::Abort,
        TraceKind::Rollback,
        TraceKind::ViewOptimistic,
        TraceKind::ViewCommitted,
        TraceKind::MsgSend,
        TraceKind::MsgRecv,
        TraceKind::Reconnect,
        TraceKind::SiteFailed,
        TraceKind::GcSweep,
        TraceKind::RecoveryBegin,
        TraceKind::RecoveryDone,
        TraceKind::WalAppend,
    ];

    /// The canonical wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::TxnBegin => "TxnBegin",
            TraceKind::Guess => "Guess",
            TraceKind::Commit => "Commit",
            TraceKind::Abort => "Abort",
            TraceKind::Rollback => "Rollback",
            TraceKind::ViewOptimistic => "ViewOptimistic",
            TraceKind::ViewCommitted => "ViewCommitted",
            TraceKind::MsgSend => "MsgSend",
            TraceKind::MsgRecv => "MsgRecv",
            TraceKind::Reconnect => "Reconnect",
            TraceKind::SiteFailed => "SiteFailed",
            TraceKind::GcSweep => "GcSweep",
            TraceKind::RecoveryBegin => "RecoveryBegin",
            TraceKind::RecoveryDone => "RecoveryDone",
            TraceKind::WalAppend => "WalAppend",
        }
    }

    /// Parses a canonical wire name back into a kind.
    pub fn parse(s: &str) -> Option<TraceKind> {
        TraceKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured trace event.
///
/// `vt` is the virtual time `(lamport, site)` of the transaction or update
/// the event concerns, when there is one; `peer` the other site involved
/// (message/failure events); `n` a kind-specific magnitude (bytes, guessed
/// verdict count, GC'd entries). The struct stays scalar-only so the crate
/// needs no dependency on `decaf-vt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The site that emitted the event.
    pub site: u32,
    /// Monotonic timestamp in nanoseconds since the sink's epoch (wall
    /// transports) or the simulator's virtual clock (deterministic runs).
    pub ts_ns: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Virtual time `(lamport, owning site)` of the subject, if any.
    pub vt: Option<(u64, u32)>,
    /// The other site involved, if any.
    pub peer: Option<u32>,
    /// Kind-specific magnitude, if any.
    pub n: Option<u64>,
    /// Causal trace context `(origin site, origin sequence, hop count)`
    /// carried by the wire envelope the event concerns. The `(origin,
    /// seq)` pair is the span key: every event across the mesh stamped
    /// with the same pair belongs to one end-to-end causal span, which is
    /// what lets the offline stitcher pair a `MsgSend` at one site with
    /// the matching `MsgRecv` at another.
    pub span: Option<(u32, u64, u32)>,
}

impl TraceEvent {
    /// Encodes the event as one JSONL line (no trailing newline).
    ///
    /// `None` fields are omitted:
    ///
    /// ```
    /// use decaf_trace::{TraceEvent, TraceKind};
    /// let ev = TraceEvent {
    ///     site: 1,
    ///     ts_ns: 42,
    ///     kind: TraceKind::Commit,
    ///     vt: Some((7, 2)),
    ///     peer: None,
    ///     n: Some(1),
    ///     span: Some((2, 7, 1)),
    /// };
    /// assert_eq!(
    ///     ev.to_jsonl(),
    ///     r#"{"site":1,"ts_ns":42,"kind":"Commit","vt":[7,2],"n":1,"span":[2,7,1]}"#
    /// );
    /// assert_eq!(TraceEvent::from_jsonl(&ev.to_jsonl()).unwrap(), ev);
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"site\":");
        push_u64(&mut s, self.site as u64);
        s.push_str(",\"ts_ns\":");
        push_u64(&mut s, self.ts_ns);
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.as_str());
        s.push('"');
        if let Some((lamport, site)) = self.vt {
            s.push_str(",\"vt\":[");
            push_u64(&mut s, lamport);
            s.push(',');
            push_u64(&mut s, site as u64);
            s.push(']');
        }
        if let Some(peer) = self.peer {
            s.push_str(",\"peer\":");
            push_u64(&mut s, peer as u64);
        }
        if let Some(n) = self.n {
            s.push_str(",\"n\":");
            push_u64(&mut s, n);
        }
        if let Some((origin, seq, hop)) = self.span {
            s.push_str(",\"span\":[");
            push_u64(&mut s, origin as u64);
            s.push(',');
            push_u64(&mut s, seq);
            s.push(',');
            push_u64(&mut s, hop as u64);
            s.push(']');
        }
        s.push('}');
        s
    }

    /// Decodes one JSONL line produced by [`to_jsonl`](TraceEvent::to_jsonl).
    ///
    /// The parser is strict: unknown keys, duplicate keys, missing
    /// mandatory fields (`site`, `ts_ns`, `kind`), or trailing garbage are
    /// all [`ParseError`]s. Whitespace between tokens is tolerated so
    /// hand-edited traces still load.
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, ParseError> {
        let mut p = Parser::new(line);
        p.expect('{')?;
        let mut site: Option<u64> = None;
        let mut ts_ns: Option<u64> = None;
        let mut kind: Option<TraceKind> = None;
        let mut vt: Option<(u64, u32)> = None;
        let mut peer: Option<u64> = None;
        let mut n: Option<u64> = None;
        let mut span: Option<(u32, u64, u32)> = None;
        let mut first = true;
        loop {
            p.skip_ws();
            if p.eat('}') {
                break;
            }
            if !first {
                p.expect(',')?;
            }
            first = false;
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "site" if site.is_none() => site = Some(p.u64()?),
                "ts_ns" if ts_ns.is_none() => ts_ns = Some(p.u64()?),
                "kind" if kind.is_none() => {
                    let name = p.string()?;
                    kind = Some(TraceKind::parse(&name).ok_or(ParseError::UnknownKind)?);
                }
                "vt" if vt.is_none() => {
                    p.expect('[')?;
                    let lamport = p.u64()?;
                    p.expect(',')?;
                    let s = p.u64()?;
                    p.expect(']')?;
                    let s = u32::try_from(s).map_err(|_| ParseError::Overflow)?;
                    vt = Some((lamport, s));
                }
                "peer" if peer.is_none() => peer = Some(p.u64()?),
                "n" if n.is_none() => n = Some(p.u64()?),
                "span" if span.is_none() => {
                    p.expect('[')?;
                    let origin = p.u64()?;
                    p.expect(',')?;
                    let seq = p.u64()?;
                    p.expect(',')?;
                    let hop = p.u64()?;
                    p.expect(']')?;
                    let origin = u32::try_from(origin).map_err(|_| ParseError::Overflow)?;
                    let hop = u32::try_from(hop).map_err(|_| ParseError::Overflow)?;
                    span = Some((origin, seq, hop));
                }
                _ => return Err(ParseError::UnknownKey),
            }
        }
        p.skip_ws();
        if !p.done() {
            return Err(ParseError::TrailingGarbage);
        }
        let site = site.ok_or(ParseError::MissingField("site"))?;
        let site = u32::try_from(site).map_err(|_| ParseError::Overflow)?;
        let peer = match peer {
            Some(v) => Some(u32::try_from(v).map_err(|_| ParseError::Overflow)?),
            None => None,
        };
        Ok(TraceEvent {
            site,
            ts_ns: ts_ns.ok_or(ParseError::MissingField("ts_ns"))?,
            kind: kind.ok_or(ParseError::MissingField("kind"))?,
            vt,
            peer,
            n,
            span,
        })
    }
}

fn push_u64(s: &mut String, mut v: u64) {
    // Manual itoa keeps encoding allocation-free beyond the line buffer.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        s.push(b as char);
    }
}

/// Why a JSONL line failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// A structural token (brace, colon, quote…) was missing or wrong.
    Syntax,
    /// A key outside the schema, or a key repeated.
    UnknownKey,
    /// The `kind` string names no [`TraceKind`].
    UnknownKind,
    /// A numeric field exceeded its width.
    Overflow,
    /// A mandatory field was absent.
    MissingField(&'static str),
    /// Valid JSON object followed by junk.
    TrailingGarbage,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax => write!(f, "malformed JSON syntax"),
            ParseError::UnknownKey => write!(f, "unknown or duplicate key"),
            ParseError::UnknownKind => write!(f, "unknown trace kind"),
            ParseError::Overflow => write!(f, "numeric field out of range"),
            ParseError::MissingField(k) => write!(f, "missing field {k:?}"),
            ParseError::TrailingGarbage => write!(f, "trailing garbage after object"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Minimal cursor over the line's bytes. JSON numbers here are always
/// unsigned decimal integers and strings never contain escapes, which is
/// all the [`TraceEvent`] schema can produce.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(ParseError::Syntax)
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect('"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| ParseError::Syntax)?;
                self.pos += 1;
                return Ok(s.to_string());
            }
            if b == b'\\' {
                return Err(ParseError::Syntax);
            }
            self.pos += 1;
        }
        Err(ParseError::Syntax)
    }

    fn u64(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u64))
                .ok_or(ParseError::Overflow)?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(ParseError::Syntax);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind) -> TraceEvent {
        TraceEvent {
            site: 3,
            ts_ns: 1_234_567,
            kind,
            vt: Some((17, 2)),
            peer: Some(1),
            n: Some(512),
            span: Some((2, 17, 1)),
        }
    }

    #[test]
    fn round_trips_every_kind() {
        for kind in TraceKind::ALL {
            let e = ev(kind);
            assert_eq!(TraceEvent::from_jsonl(&e.to_jsonl()).unwrap(), e);
        }
    }

    #[test]
    fn round_trips_optional_field_combinations() {
        for bits in 0u8..16 {
            let e = TraceEvent {
                site: u32::MAX,
                ts_ns: u64::MAX,
                kind: TraceKind::MsgRecv,
                vt: (bits & 1 != 0).then_some((u64::MAX, u32::MAX)),
                peer: (bits & 2 != 0).then_some(0),
                n: (bits & 4 != 0).then_some(u64::MAX),
                span: (bits & 8 != 0).then_some((u32::MAX, u64::MAX, u32::MAX)),
            };
            assert_eq!(TraceEvent::from_jsonl(&e.to_jsonl()).unwrap(), e);
        }
    }

    #[test]
    fn tolerates_whitespace_and_reordering() {
        let line = r#" { "kind" : "GcSweep" , "n" : 9 , "ts_ns" : 5 , "site" : 1 } "#;
        let e = TraceEvent::from_jsonl(line).unwrap();
        assert_eq!(e.kind, TraceKind::GcSweep);
        assert_eq!((e.site, e.ts_ns, e.n), (1, 5, Some(9)));
        assert_eq!((e.vt, e.peer), (None, None));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            r#"{"site":1,"ts_ns":2}"#,
            r#"{"site":1,"ts_ns":2,"kind":"Nope"}"#,
            r#"{"site":1,"ts_ns":2,"kind":"Commit","bogus":3}"#,
            r#"{"site":1,"site":2,"ts_ns":2,"kind":"Commit"}"#,
            r#"{"site":4294967296,"ts_ns":2,"kind":"Commit"}"#,
            r#"{"site":1,"ts_ns":2,"kind":"Commit"}x"#,
            r#"{"site":1,"ts_ns":18446744073709551616,"kind":"Commit"}"#,
            r#"{"site":1,"ts_ns":2,"kind":"Commit","span":[1,2]}"#,
            r#"{"site":1,"ts_ns":2,"kind":"Commit","span":[4294967296,0,0]}"#,
            r#"{"site":1,"ts_ns":2,"kind":"Commit","span":[1,0,4294967296]}"#,
        ] {
            assert!(TraceEvent::from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn kind_names_are_unique_and_parse_back() {
        for (i, a) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(TraceKind::parse(a.as_str()), Some(*a));
            for b in &TraceKind::ALL[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
        assert_eq!(TraceKind::parse("commit"), None);
    }
}
