//! Real TCP mesh transport: one OS process per site, std sockets, threads.
//!
//! This is the substrate that takes the sans-I/O engine across actual
//! process boundaries, the way the paper's prototype ran one JVM per user
//! over a real LAN/WAN (§5.2). A [`TcpMesh`] hosts exactly **one** site and
//! maintains links to every configured peer:
//!
//! * **Framing** — every message travels as a [`crate::wire`] frame
//!   (magic, version, length, CRC); malformed input drops the connection
//!   instead of panicking.
//! * **Connection direction** — each site *dials* every peer and uses its
//!   own outgoing connection exclusively for writes; accepted connections
//!   are read-only (the dialer identifies itself with a `Hello` frame).
//!   With both directions dialing, `A → B` traffic always flows on the
//!   connection `A` initiated, which preserves per-link FIFO — the ordering
//!   assumption the engine's straggler handling relies on. The accept
//!   thread sleeps in `accept()` and hands each connection to a reader at
//!   once, so a site is reachable from the moment it binds; a dial that
//!   comes before the peer's bind is refused and repeated 1 ms later, then
//!   2, 4, … ms, so a session's links are up a few round trips after its
//!   last site has started.
//! * **Decisions and I/O** — every decision about a peer is taken by its
//!   [`Link`], a sans-I/O state machine that reads no
//!   clock; this module only performs them. Each peer has one writer
//!   thread and one queue: the site's envelopes, the readers' "heard from
//!   the peer" and "the peer said `Hello`", and the mesh's stop all arrive
//!   on it in order, and the thread is one loop that feeds them to the
//!   link, asks it what to do next and does it — dial, write a frame,
//!   probe for a hang-up, wait, or tell the site the peer failed.
//! * **Liveness** — the link asks for a heartbeat `Ping` after
//!   `HEARTBEAT_INTERVAL` (200 ms) without a write, and drops a connection
//!   whose peer has been silent for `HEARTBEAT_TIMEOUT` (3 s); readers
//!   report what they hear at most every 50 ms.
//! * **Batching** — woken by an envelope, the link lingers `BATCH_DELAY`
//!   (200 µs) for ride-alongs, then takes what is still queued, and has up
//!   to `BATCH_MAX` (64) envelopes written as one `Batch` frame (one alone
//!   as a `DataV2` frame). A
//!   peer's queue holds `OUTBOUND_QUEUE` (4 096) envelopes, and so does
//!   its link; a send beyond either is dropped and counted. Control inputs
//!   are neither bounded nor counted in the queue depth.
//! * **Failure mapping** — the link re-dials on one of two schedules,
//!   depending only on whether it has ever been connected. A peer that
//!   **was connected** and whose link broke or fell silent is re-dialled
//!   after `RECONNECT_BASE` (50 ms), doubling to `RECONNECT_CAP` (1 s,
//!   ±25 % jitter seeded from the site and peer ids), and declared
//!   fail-stopped after `MAX_RECONNECT_ATTEMPTS` (6) consecutive failures.
//!   A peer that was **never connected** is assumed to be starting: its
//!   ladder begins at `FIRST_DIAL_STEP` (1 ms) and doubles to the same cap
//!   with the same jitter, and it is declared fail-stopped only when
//!   `CONNECT_DEADLINE` (20 s) has passed since this mesh started. Either
//!   way a fail-stopped peer yields a single [`TransportEvent::SiteFailed`],
//!   delivered locally — the ISIS-style notification the paper assumes the
//!   communication layer provides (§3.4). [`Node::pump`](crate::Node::pump)
//!   hands it to the engine. Envelopes sent to a failed peer are dropped
//!   and counted until it dials this site again: its `Hello` reopens the
//!   link, and reaches the link before any later frame of that connection
//!   reaches the site, so the site's answer to a restarted peer's
//!   `RejoinRequest` is sent, not dropped.
//! * **Counters** — byte/frame/reconnect/heartbeat accounting is exposed
//!   as [`decaf_core::TransportStats`] via [`TcpMesh::stats`].
//!
//! The payload type is fixed to [`decaf_core::Envelope`]: a wire format
//! needs one concrete schema, and the protocol version in the frame header
//! covers it.
//!
//! # Example
//!
//! Two meshes over loopback (in one process here; normally one per
//! process — see the `decaf-site` daemon and `examples/tcp_mesh.rs`):
//!
//! ```no_run
//! use decaf_net::tcp::{TcpConfig, TcpMesh};
//! use decaf_vt::SiteId;
//!
//! let a_cfg = TcpConfig::new(SiteId(1), "127.0.0.1:7101".parse().unwrap())
//!     .peer(SiteId(2), "127.0.0.1:7102".parse().unwrap());
//! let mesh = TcpMesh::start(a_cfg).expect("bind");
//! println!("site 1 listening on {}", mesh.local_addr());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use decaf_core::{Envelope, TransportStats};
use decaf_trace::{Histogram, TraceKind, TraceSink};
use decaf_vt::SiteId;

use crate::link::{Action, Input, Link, OUTBOUND_QUEUE};
use crate::wire::{
    decode_batch, decode_envelope_v2, decode_hello, encode_batch_parts, encode_envelope_v2,
    encode_hello_v2, write_frame, FrameKind, FrameReader, CODEC_VERSION, HEADER_LEN,
};
use crate::{TransportEndpoint, TransportEvent};

/// Configuration of one site's TCP mesh endpoint: who it is, where it
/// listens, whom it dials and where it traces. Everything else about a link
/// is fixed (see the [module docs](crate::tcp)).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This site's id (must be unique across the mesh).
    pub site: SiteId,
    /// Address to listen on. Port `0` picks an ephemeral port; read it
    /// back with [`TcpMesh::local_addr`].
    pub listen: SocketAddr,
    /// Peer address table: every other site in the mesh.
    pub peers: BTreeMap<SiteId, SocketAddr>,
    /// Trace sink for frame-level events (send/recv, heartbeats,
    /// reconnects, fail-stop declarations) and outbound queue depth. The
    /// default disabled sink makes every emit point one branch.
    pub trace: TraceSink,
}

impl TcpConfig {
    /// A config with an empty peer table and tracing off.
    pub fn new(site: SiteId, listen: SocketAddr) -> Self {
        TcpConfig {
            site,
            listen,
            peers: BTreeMap::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Adds a peer to the address table (builder style).
    pub fn peer(mut self, site: SiteId, addr: SocketAddr) -> Self {
        self.peers.insert(site, addr);
        self
    }

    /// Installs a trace sink (builder style).
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }
}

/// How often at most a reader tells a peer's link that it heard from the
/// peer; the silence watchdog reads the peer as at most this much quieter
/// than it is.
const HEARD_EVERY: Duration = Duration::from_millis(50);

/// Atomic counter block shared by all mesh threads; snapshots into
/// [`TransportStats`].
#[derive(Default)]
struct Counters {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    frames_rejected: AtomicU64,
    reconnects: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeat_misses: AtomicU64,
    peers_failed: AtomicU64,
    sends_dropped: AtomicU64,
    queue_depth_hwm: AtomicU64,
    frames_coalesced: AtomicU64,
    bytes_saved: AtomicU64,
}

impl Counters {
    // `TransportStats` is `#[non_exhaustive]` upstream, so struct-literal
    // construction is impossible here; default-then-assign is the API.
    #[allow(clippy::field_reassign_with_default)]
    fn snapshot(&self) -> TransportStats {
        let mut s = TransportStats::default();
        s.bytes_in = self.bytes_in.load(Ordering::Relaxed);
        s.bytes_out = self.bytes_out.load(Ordering::Relaxed);
        s.frames_in = self.frames_in.load(Ordering::Relaxed);
        s.frames_out = self.frames_out.load(Ordering::Relaxed);
        s.frames_rejected = self.frames_rejected.load(Ordering::Relaxed);
        s.reconnects = self.reconnects.load(Ordering::Relaxed);
        s.heartbeats_sent = self.heartbeats_sent.load(Ordering::Relaxed);
        s.heartbeat_misses = self.heartbeat_misses.load(Ordering::Relaxed);
        s.peers_failed = self.peers_failed.load(Ordering::Relaxed);
        s.sends_dropped = self.sends_dropped.load(Ordering::Relaxed);
        s.queue_depth_hwm = self.queue_depth_hwm.load(Ordering::Relaxed);
        s.frames_coalesced = self.frames_coalesced.load(Ordering::Relaxed);
        s.bytes_saved = self.bytes_saved.load(Ordering::Relaxed);
        s
    }
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

fn add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

/// Locks `m`, ignoring poisoning: every value behind these locks (a
/// histogram, a channel end) stays usable if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The sending half of one peer's queue: what its [`Link`] is told, in
/// order. Envelopes are bounded by an atomic depth counter with
/// drop-on-overflow semantics — a full queue rejects the envelope instead
/// of blocking the engine loop behind a slow peer (the counter shows up as
/// `sends_dropped`); control inputs are not.
struct Outbox {
    tx: Sender<Input>,
    depth: AtomicU64,
}

impl Outbox {
    /// Queues `env` unless the queue is full or closed; returns the depth
    /// it left.
    fn queue(&self, env: Envelope) -> Option<u64> {
        if self.depth.load(Ordering::Relaxed) >= OUTBOUND_QUEUE as u64 {
            return None;
        }
        // Counted before it is sent, so the link thread never takes it off
        // the count first.
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.tx.send(Input::Queued(env)).ok()?;
        Some(depth)
    }
}

/// What every thread of one mesh shares.
struct Hub {
    site: SiteId,
    /// The site's inbox.
    events: Sender<TransportEvent<Envelope>>,
    outboxes: BTreeMap<SiteId, Outbox>,
    counters: Counters,
    batch_sizes: Mutex<Histogram>,
    trace: TraceSink,
    shutdown: Arc<AtomicBool>,
}

impl Hub {
    /// Hands `input` to `peer`'s link (no-op for a site not in the table).
    fn tell(&self, peer: SiteId, input: Input) {
        if let Some(outbox) = self.outboxes.get(&peer) {
            let _ = outbox.tx.send(input);
        }
    }

    /// Writes one frame of `kind` to `peer` — a `Hello`, a `Ping`, or
    /// `envs` as one `DataV2` or `Batch` — and accounts for it; returns
    /// whether the write succeeded.
    fn write(
        &self,
        stream: Option<&mut TcpStream>,
        peer: SiteId,
        kind: FrameKind,
        envs: &[Envelope],
    ) -> bool {
        let mut parts: Vec<Vec<u8>> = envs.iter().map(encode_envelope_v2).collect();
        let unbatched: usize = parts.iter().map(|p| HEADER_LEN + p.len()).sum();
        let payload = match kind {
            FrameKind::Hello => encode_hello_v2(self.site, CODEC_VERSION).to_vec(),
            FrameKind::Batch => encode_batch_parts(&parts),
            // A `Ping` has no payload; a `DataV2` carries its one envelope.
            FrameKind::Ping | FrameKind::DataV2 => parts.pop().unwrap_or_default(),
        };
        let Some(n) = stream.and_then(|s| write_frame(s, kind, &payload).ok()) else {
            return false;
        };
        let c = &self.counters;
        bump(&c.frames_out);
        add(&c.bytes_out, n as u64);
        self.trace
            .emit(TraceKind::MsgSend, None, Some(peer.0), Some(n as u64));
        match kind {
            FrameKind::Ping => bump(&c.heartbeats_sent),
            FrameKind::Batch => {
                add(&c.frames_coalesced, (envs.len() - 1) as u64);
                // Headers elided minus the batch's own length prefixes.
                add(&c.bytes_saved, unbatched.saturating_sub(n) as u64);
            }
            FrameKind::Hello | FrameKind::DataV2 => {}
        }
        if !envs.is_empty() {
            lock(&self.batch_sizes).record(envs.len() as u64);
        }
        for env in envs {
            emit_env_send(&self.trace, peer, env);
        }
        true
    }
}

/// One site's handle onto a [`TcpMesh`] (cloneable; give it to the site
/// loop).
#[derive(Clone)]
pub struct TcpEndpoint {
    inbox: Arc<Mutex<Receiver<TransportEvent<Envelope>>>>,
    hub: Arc<Hub>,
}

impl fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("site", &self.hub.site)
            .finish()
    }
}

impl TcpEndpoint {
    /// Blocks until an event arrives.
    ///
    /// # Errors
    ///
    /// Returns `Err` once the mesh has shut down and the inbox drained.
    pub fn recv(&self) -> Result<TransportEvent<Envelope>, RecvError> {
        lock(&self.inbox).recv()
    }
}

impl TransportEndpoint for TcpEndpoint {
    type Msg = Envelope;

    fn site(&self) -> SiteId {
        self.hub.site
    }

    fn send(&self, to: SiteId, msg: Envelope) {
        let hub = &self.hub;
        if to == hub.site {
            // Local delivery needs no socket.
            let _ = hub.events.send(TransportEvent::Message { from: to, msg });
            return;
        }
        match hub.outboxes.get(&to).and_then(|outbox| outbox.queue(msg)) {
            Some(depth) => {
                hub.counters
                    .queue_depth_hwm
                    .fetch_max(depth, Ordering::Relaxed);
                hub.trace.record_queue_depth(depth);
            }
            None => bump(&hub.counters.sends_dropped),
        }
    }

    fn try_recv(&self) -> Option<TransportEvent<Envelope>> {
        lock(&self.inbox).try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<TransportEvent<Envelope>> {
        lock(&self.inbox).recv_timeout(timeout).ok()
    }
}

/// A running TCP mesh node: listener + per-peer link threads for one site.
///
/// See the [module docs](crate::tcp) for the protocol and its fixed
/// timings; see [`TcpConfig`] for what a site chooses.
pub struct TcpMesh {
    local_addr: SocketAddr,
    endpoint: TcpEndpoint,
    shutdown: Arc<AtomicBool>,
    /// The accept thread, which sleeps in `accept()` and is woken by
    /// [`TcpMesh::shutdown`]; `None` once that has run.
    accept: Option<JoinHandle<()>>,
    /// The per-peer link threads.
    threads: Vec<JoinHandle<()>>,
}

impl fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpMesh")
            .field("site", &self.site())
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl TcpMesh {
    /// Binds the listener and spawns the mesh threads.
    ///
    /// # Errors
    ///
    /// Fails if the listen address cannot be bound.
    pub fn start(config: TcpConfig) -> std::io::Result<TcpMesh> {
        let listener = TcpListener::bind(config.listen)?;
        let local_addr = listener.local_addr()?;
        let (events, inbox) = channel::<TransportEvent<Envelope>>();
        let mut queues = Vec::new();
        let mut outboxes = BTreeMap::new();
        for (&peer, &addr) in &config.peers {
            let (tx, rx) = channel();
            queues.push((peer, addr, rx));
            let depth = AtomicU64::new(0);
            outboxes.insert(peer, Outbox { tx, depth });
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let hub = Arc::new(Hub {
            site: config.site,
            events,
            outboxes,
            counters: Counters::default(),
            batch_sizes: Mutex::new(Histogram::new()),
            trace: config.trace,
            shutdown: Arc::clone(&shutdown),
        });
        let site = config.site.0;
        // Accept thread: read-only inbound connections.
        let accept = {
            let hub = Arc::clone(&hub);
            std::thread::Builder::new()
                .name(format!("decaf-tcp-accept-{site}"))
                .spawn(move || accept_loop(listener, hub))
                .expect("spawn accept thread")
        };
        // Per-peer writer threads, each driving its peer's link.
        let threads = queues
            .into_iter()
            .map(|(peer, addr, rx)| {
                let hub = Arc::clone(&hub);
                std::thread::Builder::new()
                    .name(format!("decaf-tcp-link-{site}-{}", peer.0))
                    .spawn(move || writer_loop(hub, peer, addr, rx))
                    .expect("spawn link thread")
            })
            .collect();
        let inbox = Arc::new(Mutex::new(inbox));
        Ok(TcpMesh {
            local_addr,
            endpoint: TcpEndpoint { inbox, hub },
            shutdown,
            accept: Some(accept),
            threads,
        })
    }

    /// This mesh node's site id.
    pub fn site(&self) -> SiteId {
        self.endpoint.hub.site
    }

    /// The actually bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the transport counters. Trace-sink loss is folded in
    /// so end-of-run reports expose it alongside the frame counters.
    pub fn stats(&self) -> TransportStats {
        let mut s = self.endpoint.hub.counters.snapshot();
        s.trace_events_dropped = self.trace_sink().dropped();
        s
    }

    /// The mesh's trace sink (disabled unless one was installed via
    /// [`TcpConfig::trace`]).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.endpoint.hub.trace
    }

    /// A snapshot of the batch-size distribution: how many envelopes each
    /// flushed data frame carried (log2 buckets; use
    /// [`Histogram::quantile`]/[`Histogram::summary`] on the result).
    /// Unbatched links record `1` per frame.
    pub fn batch_histogram(&self) -> Histogram {
        lock(&self.endpoint.hub.batch_sizes).clone()
    }

    /// The endpoint for this mesh's (single) site.
    pub fn endpoint(&self) -> TcpEndpoint {
        self.endpoint.clone()
    }

    /// Stops every mesh thread and closes the sockets. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A stop on each queue wakes its link thread at once.
        for &peer in self.endpoint.hub.outboxes.keys() {
            self.endpoint.hub.tell(peer, Input::Stop);
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        let Some(accept) = self.accept.take() else {
            return;
        };
        // The accept thread sleeps in `accept()` and reads the flag only
        // when a connection wakes it: dial our own listener. If that dial
        // fails (descriptors exhausted, the bound address gone) the thread
        // cannot be woken, and joining it would hang: it is left behind,
        // and exits on the next connection anyone makes.
        let woken = TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_DIAL_TIMEOUT);
        if woken.is_ok() || accept.is_finished() {
            let _ = accept.join();
        }
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long [`TcpMesh::shutdown`] waits for its wake-up dial to the mesh's
/// own listener before it gives the accept thread up.
const WAKE_DIAL_TIMEOUT: Duration = Duration::from_millis(250);

/// Where [`TcpMesh::shutdown`] dials to wake the accept thread: the bound
/// address, or the bound port on loopback when the listener was bound to
/// the unspecified address (which accepts, but cannot be dialled).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    match bound.ip() {
        ip if !ip.is_unspecified() => bound,
        IpAddr::V4(_) => SocketAddr::new(Ipv4Addr::LOCALHOST.into(), bound.port()),
        IpAddr::V6(_) => SocketAddr::new(Ipv6Addr::LOCALHOST.into(), bound.port()),
    }
}

/// Accepts inbound connections and spawns a reader per connection, at
/// once: the thread sleeps in `accept()`, so a site is reachable from the
/// moment it binds. The shutdown flag is read after every wake-up —
/// [`TcpMesh::shutdown`] sets it and then connects — and a connection
/// accepted with the flag set is closed without a reader.
/// Readers are detached: they exit on EOF, error, or the shutdown flag.
fn accept_loop(listener: TcpListener, hub: Arc<Hub>) {
    loop {
        let accepted = listener.accept();
        if hub.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let hub = Arc::clone(&hub);
                let _ = std::thread::Builder::new()
                    .name("decaf-tcp-reader".into())
                    .spawn(move || reader_loop(stream, &hub));
            }
            // The connection died in the backlog, or the process is out of
            // descriptors: nothing to hand on; do not spin on the latter.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads frames off one accepted connection. The first frame must be a
/// `Hello` identifying the dialing peer and naming a codec this build
/// speaks; it is handed to the peer's link before anything else of the
/// connection reaches the site (a failed link reopens on it). Afterwards
/// `DataV2`/`Batch` frames become inbox messages, and every frame is
/// reported to the link as heard, at most every [`HEARD_EVERY`]. Anything
/// else — a Hello of a codec-1 peer, a frame before the Hello, the
/// reserved frame kind 2, a broken header — is counted in
/// `frames_rejected` and closes this connection, leaving the other links
/// alone.
fn reader_loop(mut stream: TcpStream, hub: &Hub) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
    let c = &hub.counters;
    let mut reader = FrameReader::new();
    let mut peer: Option<SiteId> = None;
    let mut told = Instant::now();
    let mut buf = [0u8; 64 * 1024];
    loop {
        if hub.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Drain complete frames before reading more bytes.
        loop {
            let frame = match reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // Unrecoverable framing error: there is no
                // resynchronization point in a TCP byte stream.
                Err(_) => return bump(&c.frames_rejected),
            };
            bump(&c.frames_in);
            if frame.kind == FrameKind::Hello {
                let Ok((site, _max_codec)) = decode_hello(&frame.payload) else {
                    return bump(&c.frames_rejected);
                };
                peer = Some(site);
                hub.tell(site, Input::Hello);
                told = Instant::now();
            }
            let Some(from) = peer else {
                return bump(&c.frames_rejected);
            };
            // Transport-level receive trace: `peer` is the dialing site,
            // `n` the frame payload size in bytes.
            hub.trace.emit(
                TraceKind::MsgRecv,
                None,
                Some(from.0),
                Some(frame.payload.len() as u64),
            );
            if told.elapsed() >= HEARD_EVERY {
                hub.tell(from, Input::Heard);
                told = Instant::now();
            }
            let envs = match frame.kind {
                FrameKind::DataV2 => decode_envelope_v2(&frame.payload).map(|env| vec![env]),
                FrameKind::Batch => decode_batch(&frame.payload),
                FrameKind::Hello | FrameKind::Ping => continue,
            };
            match envs {
                Ok(envs) => {
                    for env in envs {
                        emit_env_recv(&hub.trace, &env);
                        let _ = hub.events.send(TransportEvent::Message { from, msg: env });
                    }
                }
                // Framing is intact, only this payload is bad: count it
                // and keep the connection.
                Err(_) => bump(&c.frames_rejected),
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF
            Ok(n) => {
                add(&c.bytes_in, n as u64);
                reader.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Per-envelope causal send trace: one `MsgSend` carrying the envelope's
/// span context and subject VT, emitted alongside the frame-level event
/// (whose `n` is the wire byte count). Span-less envelopes (heartbeats,
/// graph acks) stay frame-level only — the stitcher pairs by span key, so
/// an event without one could never be matched anyway.
fn emit_env_send(trace: &TraceSink, peer: SiteId, env: &Envelope) {
    if let Some(s) = &env.span {
        trace.emit_span(
            TraceKind::MsgSend,
            Some((s.seq, s.origin.0)),
            Some(peer.0),
            None,
            Some(s.as_trace()),
        );
    }
}

/// Receive-side twin of [`emit_env_send`], keyed by the same span so the
/// stitcher can pair the two across site clocks.
fn emit_env_recv(trace: &TraceSink, env: &Envelope) {
    if let Some(s) = &env.span {
        trace.emit_span(
            TraceKind::MsgRecv,
            Some((s.seq, s.origin.0)),
            Some(env.from.0),
            None,
            Some(s.as_trace()),
        );
    }
}

/// Whether the peer has closed or reset this outbound connection. A peer
/// never writes on a connection it accepted, so anything readable here is
/// an EOF or an error.
fn peer_hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    stream.set_nonblocking(false).is_err() || gone
}

/// The per-peer link thread: one loop that asks `peer`'s [`Link`] what to
/// do next and does it. It owns the link's socket and clock (the link's
/// time is the time since this thread started) and does the accounting;
/// it takes no decision of its own.
fn writer_loop(hub: Arc<Hub>, peer: SiteId, addr: SocketAddr, queue: Receiver<Input>) {
    let born = Instant::now();
    let now = || born.elapsed();
    let (c, depth) = (&hub.counters, &hub.outboxes[&peer].depth);
    let mut link = Link::new(hub.site, peer);
    let mut stream: Option<TcpStream> = None;
    loop {
        let input = match link.next(now()) {
            Action::Dial => {
                drop(stream.take());
                stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).ok();
                if let Some(s) = &stream {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_write_timeout(Some(Duration::from_secs(2)));
                }
                link.dialed(stream.is_some(), now());
                continue;
            }
            Action::Hello { again } => {
                let ok = hub.write(stream.as_mut(), peer, FrameKind::Hello, &[]);
                if ok && again {
                    bump(&c.reconnects);
                    hub.trace
                        .emit(TraceKind::Reconnect, None, Some(peer.0), None);
                }
                link.wrote(ok, now());
                continue;
            }
            Action::Write(kind, envs) => {
                let ok = hub.write(stream.as_mut(), peer, kind, envs);
                link.wrote(ok, now());
                continue;
            }
            Action::Probe => {
                link.probed(stream.as_ref().is_none_or(peer_hung_up), now());
                continue;
            }
            Action::Silent => {
                bump(&c.heartbeat_misses);
                continue;
            }
            Action::Fail { dropped } => {
                add(&c.sends_dropped, dropped as u64);
                bump(&c.peers_failed);
                hub.trace
                    .emit(TraceKind::SiteFailed, None, Some(peer.0), None);
                let _ = hub.events.send(TransportEvent::SiteFailed { failed: peer });
                continue;
            }
            Action::Wait(until) => match queue.recv_timeout(until.saturating_sub(now())) {
                Ok(input) => input,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            Action::Linger(_) => match queue.try_recv() {
                Ok(input) => input,
                Err(_) => {
                    if link.drained(now()) {
                        std::thread::yield_now();
                    }
                    continue;
                }
            },
            Action::Stop => return,
        };
        if matches!(input, Input::Queued(_)) {
            depth.fetch_sub(1, Ordering::Relaxed);
        }
        if link.input(input, now()) {
            bump(&c.sends_dropped);
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PROBE_AFTER_QUIET;
    use decaf_core::Message;
    use decaf_vt::VirtualTime;

    fn env(from: SiteId, to: SiteId) -> Envelope {
        Envelope {
            from,
            to,
            clock: VirtualTime::default(),
            msg: Message::Heartbeat,
            span: None,
        }
    }

    fn mesh_pair() -> (TcpMesh, TcpMesh) {
        // Bind both listeners first (port 0), then cross-wire the peer
        // tables by restarting with known addresses is impossible — so
        // bind explicit ephemeral listeners by starting A without peers,
        // reading its port, and giving it to B (and vice versa via a
        // second start). Instead: reserve ports by binding + dropping.
        let a_port = reserve_port();
        let b_port = reserve_port();
        let a_addr: SocketAddr = format!("127.0.0.1:{a_port}").parse().unwrap();
        let b_addr: SocketAddr = format!("127.0.0.1:{b_port}").parse().unwrap();
        let a = TcpMesh::start(TcpConfig::new(SiteId(1), a_addr).peer(SiteId(2), b_addr))
            .expect("bind a");
        let b = TcpMesh::start(TcpConfig::new(SiteId(2), b_addr).peer(SiteId(1), a_addr))
            .expect("bind b");
        (a, b)
    }

    fn reserve_port() -> u16 {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port()
    }

    #[test]
    fn two_meshes_exchange_envelopes() {
        let (mut a, mut b) = mesh_pair();
        let ea = a.endpoint();
        let eb = b.endpoint();
        ea.send(SiteId(2), env(SiteId(1), SiteId(2)));
        let got = eb
            .recv_timeout(Duration::from_secs(10))
            .and_then(TransportEvent::into_message)
            .expect("delivery");
        assert_eq!(got.0, SiteId(1));
        assert_eq!(got.1.from, SiteId(1));
        // Reply the other way.
        eb.send(SiteId(1), env(SiteId(2), SiteId(1)));
        let back = ea
            .recv_timeout(Duration::from_secs(10))
            .and_then(TransportEvent::into_message)
            .expect("reply");
        assert_eq!(back.0, SiteId(2));
        let stats = a.stats();
        assert!(stats.frames_out >= 2, "hello + data, got {stats}");
        assert!(stats.bytes_out > 0 && stats.bytes_in > 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn loopback_send_to_self() {
        let port = reserve_port();
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let mut m = TcpMesh::start(TcpConfig::new(SiteId(7), addr)).unwrap();
        let ep = m.endpoint();
        ep.send(SiteId(7), env(SiteId(7), SiteId(7)));
        assert!(matches!(
            ep.try_recv(),
            Some(TransportEvent::Message {
                from: SiteId(7),
                ..
            })
        ));
        m.shutdown();
    }

    #[test]
    fn killed_peer_is_declared_failed() {
        let (mut a, mut b) = mesh_pair();
        let ea = a.endpoint();
        let eb = b.endpoint();
        // Make sure the link is live first.
        ea.send(SiteId(2), env(SiteId(1), SiteId(2)));
        eb.recv_timeout(Duration::from_secs(10)).expect("warm-up");
        // Kill B abruptly.
        b.shutdown();
        drop(b);
        // A keeps (re)trying; eventually declares SiteFailed(2). Writes
        // provoke the broken link.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut failed = false;
        while Instant::now() < deadline {
            ea.send(SiteId(2), env(SiteId(1), SiteId(2)));
            if let Some(TransportEvent::SiteFailed { failed: f }) =
                ea.recv_timeout(Duration::from_millis(200))
            {
                assert_eq!(f, SiteId(2));
                failed = true;
                break;
            }
        }
        assert!(failed, "peer loss must map to SiteFailed: {}", a.stats());
        assert_eq!(a.stats().peers_failed, 1);
        // Sends to a failed peer are dropped, not queued forever.
        let before = a.stats().sends_dropped;
        ea.send(SiteId(2), env(SiteId(1), SiteId(2)));
        assert!(a.stats().sends_dropped > 0 || before > 0);
        a.shutdown();
    }

    #[test]
    fn hang_up_probe_sees_a_closed_peer_and_nothing_else() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!peer_hung_up(&dialed), "open and silent is not hung up");
        // The probe leaves the socket blocking: a read with nothing to
        // read runs into its timeout instead of returning at once.
        dialed
            .set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let t0 = Instant::now();
        assert!((&dialed).read(&mut [0u8; 1]).is_err());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        drop(accepted);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !peer_hung_up(&dialed) {
            assert!(Instant::now() < deadline, "close never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn first_envelope_after_the_peer_died_is_carried_to_the_new_connection() {
        // Site 2 is a bare listener: it takes site 1's connection, reads
        // the Hello and closes — a peer that died. An envelope sent a
        // moment later, before any heartbeat has touched the dead socket,
        // must arrive on the connection site 1 dials next, not vanish
        // into the old one.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let b_addr = listener.local_addr().unwrap();
        let a_addr: SocketAddr = format!("127.0.0.1:{}", reserve_port()).parse().unwrap();
        let mut a =
            TcpMesh::start(TcpConfig::new(SiteId(1), a_addr).peer(SiteId(2), b_addr)).unwrap();
        let read_frames = |stream: &mut TcpStream, want: usize| -> Vec<FrameKind> {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (0..want)
                .map(|_| crate::wire::read_frame(stream).expect("frame").kind)
                .collect()
        };
        let (mut first, _) = listener.accept().unwrap();
        assert_eq!(read_frames(&mut first, 1), vec![FrameKind::Hello]);
        drop(first);
        std::thread::sleep(PROBE_AFTER_QUIET * 4);
        a.endpoint().send(SiteId(2), env(SiteId(1), SiteId(2)));
        let (mut second, _) = listener.accept().unwrap();
        assert_eq!(
            read_frames(&mut second, 2),
            vec![FrameKind::Hello, FrameKind::DataV2]
        );
        assert_eq!(a.stats().reconnects, 1);
        a.shutdown();
    }

    /// Starts site 1, then site 2 `b_late` later, with an envelope for
    /// site 2 already queued at site 1; returns how long after site 2's
    /// bind began that envelope reached it.
    fn first_delivery_after_bind(b_late: Duration) -> Duration {
        loop {
            let a_addr: SocketAddr = format!("127.0.0.1:{}", reserve_port()).parse().unwrap();
            let b_addr: SocketAddr = format!("127.0.0.1:{}", reserve_port()).parse().unwrap();
            let mut a = TcpMesh::start(TcpConfig::new(SiteId(1), a_addr).peer(SiteId(2), b_addr))
                .expect("bind a");
            a.endpoint().send(SiteId(2), env(SiteId(1), SiteId(2)));
            std::thread::sleep(b_late);
            let bind = Instant::now();
            // A reserved port is free, not held: while site 2 waited, a
            // test running beside this one may have been handed it.
            let Ok(mut b) =
                TcpMesh::start(TcpConfig::new(SiteId(2), b_addr).peer(SiteId(1), a_addr))
            else {
                continue;
            };
            b.endpoint()
                .recv_timeout(Duration::from_secs(10))
                .and_then(TransportEvent::into_message)
                .expect("delivery");
            let took = bind.elapsed();
            a.shutdown();
            b.shutdown();
            return took;
        }
    }

    fn median_of_20(sample: impl Fn() -> Duration) -> Duration {
        let mut all: Vec<Duration> = (0..20).map(|_| sample()).collect();
        all.sort();
        all[all.len() / 2]
    }

    #[test]
    fn pairs_started_together_deliver_within_5_ms_of_bind() {
        // Site 1's first dial finds nobody listening. A whole
        // `RECONNECT_BASE` step from there would be 37 ms at the least.
        let median = median_of_20(|| first_delivery_after_bind(Duration::ZERO));
        assert!(median < Duration::from_millis(5), "median {median:?}");
    }

    #[test]
    fn a_peer_that_binds_late_is_reached_within_10_ms_of_its_bind() {
        let median = median_of_20(|| first_delivery_after_bind(Duration::from_millis(5)));
        assert!(median < Duration::from_millis(10), "median {median:?}");
    }

    #[test]
    fn wake_up_dial_goes_to_loopback_when_bound_to_the_unspecified_address() {
        let addr = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(addr("0.0.0.0:7")), addr("127.0.0.1:7"));
        assert_eq!(wake_addr(addr("[::]:7")), addr("[::1]:7"));
        assert_eq!(wake_addr(addr("127.0.0.1:7")), addr("127.0.0.1:7"));
        assert_eq!(wake_addr(addr("192.0.2.1:7")), addr("192.0.2.1:7"));
    }

    /// `shutdown()` returned in time, and the accept thread is gone: its
    /// listener no longer takes connections. Returns how long it took.
    fn assert_shuts_down_promptly(mut mesh: TcpMesh) -> Duration {
        let dial = wake_addr(mesh.local_addr());
        let t0 = Instant::now();
        mesh.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(300), "shutdown took {took:?}");
        assert!(mesh.accept.is_none() && mesh.threads.is_empty());
        assert!(
            TcpStream::connect(dial).is_err(),
            "the accept thread still holds the listener"
        );
        let t0 = Instant::now();
        mesh.shutdown();
        assert!(t0.elapsed() < Duration::from_millis(300), "second shutdown");
        took
    }

    #[test]
    fn shutdown_wakes_and_joins_the_accept_thread() {
        for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
            let cfg = TcpConfig::new(SiteId(1), listen.parse().unwrap());
            assert_shuts_down_promptly(TcpMesh::start(cfg).unwrap());
        }
    }

    #[test]
    fn shutdown_wakes_the_link_threads_at_once() {
        // One peer connected (its link waits for the next heartbeat), one
        // that nothing listens for (its link waits on the re-dial ladder):
        // the stop on their queues ends both waits.
        let addr = |port: u16| -> SocketAddr { format!("127.0.0.1:{port}").parse().unwrap() };
        let (a_addr, b_addr, nobody) = (
            addr(reserve_port()),
            addr(reserve_port()),
            addr(reserve_port()),
        );
        let a = TcpMesh::start(
            TcpConfig::new(SiteId(1), a_addr)
                .peer(SiteId(2), b_addr)
                .peer(SiteId(3), nobody),
        )
        .unwrap();
        let mut b =
            TcpMesh::start(TcpConfig::new(SiteId(2), b_addr).peer(SiteId(1), a_addr)).unwrap();
        a.endpoint().send(SiteId(2), env(SiteId(1), SiteId(2)));
        b.endpoint()
            .recv_timeout(Duration::from_secs(10))
            .expect("the link to site 2 is up");
        std::thread::sleep(Duration::from_millis(300));
        let took = assert_shuts_down_promptly(a);
        assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
        b.shutdown();
    }

    #[test]
    fn a_failed_peer_that_says_hello_is_reopened() {
        let (mut a, mut b) = mesh_pair();
        let (ea, b_addr) = (a.endpoint(), b.local_addr());
        ea.send(SiteId(2), env(SiteId(1), SiteId(2)));
        b.endpoint()
            .recv_timeout(Duration::from_secs(10))
            .expect("warm-up");
        b.shutdown();
        drop(b);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "no SiteFailed: {}", a.stats());
            if let Some(TransportEvent::SiteFailed { failed }) =
                ea.recv_timeout(Duration::from_millis(200))
            {
                assert_eq!(failed, SiteId(2));
                break;
            }
        }
        // Site 2 restarts on its old address and speaks first, as a
        // restarted site's rejoin request does; site 1 answers.
        let mut b =
            TcpMesh::start(TcpConfig::new(SiteId(2), b_addr).peer(SiteId(1), a.local_addr()))
                .expect("rebind site 2");
        let eb = b.endpoint();
        eb.send(SiteId(1), env(SiteId(2), SiteId(1)));
        let asked = ea
            .recv_timeout(Duration::from_secs(10))
            .and_then(TransportEvent::into_message)
            .expect("the restarted site is heard");
        assert_eq!(asked.0, SiteId(2));
        ea.send(SiteId(2), env(SiteId(1), SiteId(2)));
        let answer = eb
            .recv_timeout(Duration::from_secs(10))
            .and_then(TransportEvent::into_message)
            .expect("the answer reaches the restarted site");
        assert_eq!(answer.0, SiteId(1));
        assert_eq!(a.stats().peers_failed, 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn connection_arriving_after_the_shutdown_flag_gets_no_reader() {
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut m = TcpMesh::start(TcpConfig::new(SiteId(1), addr)).unwrap();
        m.shutdown.store(true, Ordering::SeqCst);
        // A peer's whole opening — Hello and an envelope — in one write,
        // which may already find the connection closed.
        let mut stream = TcpStream::connect(m.local_addr()).unwrap();
        let mut opening = Vec::new();
        let hello = encode_hello_v2(SiteId(2), CODEC_VERSION);
        write_frame(&mut opening, FrameKind::Hello, &hello).unwrap();
        let data = encode_envelope_v2(&env(SiteId(2), SiteId(1)));
        write_frame(&mut opening, FrameKind::DataV2, &data).unwrap();
        let _ = std::io::Write::write_all(&mut stream, &opening);
        // The accept thread closes the connection and exits...
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_)),
            "connection was kept open"
        );
        let accept = m.accept.as_ref().expect("not shut down yet");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !accept.is_finished() {
            assert!(Instant::now() < deadline, "accept thread still running");
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...and nobody read what the connection carried.
        let stats = m.stats();
        assert_eq!((stats.frames_in, stats.bytes_in), (0, 0), "{stats}");
        assert!(m.endpoint().try_recv().is_none());
        // The listener is gone, so shutdown's own wake-up dial fails; it
        // must still return.
        let t0 = Instant::now();
        m.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}
