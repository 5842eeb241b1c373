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
//!   2, 4, … ms (see *Failure mapping*), so a session's links are up a few
//!   round trips after its last site has started.
//! * **Liveness** — per-peer writer threads send heartbeat `Ping` frames
//!   after `HEARTBEAT_INTERVAL` (200 ms) idle; readers track the last time
//!   each peer was heard from.
//! * **Batching** — a writer woken by an envelope lingers `BATCH_DELAY`
//!   (200 µs) for ride-alongs and writes up to `BATCH_MAX` (64) envelopes
//!   as one `Batch` frame. Its queue holds `OUTBOUND_QUEUE` (4 096)
//!   envelopes; a send to a full queue is dropped and counted.
//! * **Failure mapping** — there are two re-dial schedules, and which one
//!   a peer is on depends only on whether this site has ever had a
//!   connection to it. A peer that **was connected** and whose link broke
//!   or fell silent (`HEARTBEAT_TIMEOUT`, 3 s) is on the failure-detection
//!   schedule: re-dialled after `RECONNECT_BASE` (50 ms), doubling to
//!   `RECONNECT_CAP` (1 s, ±25 % jitter seeded from the site id), and
//!   declared fail-stopped after `MAX_RECONNECT_ATTEMPTS` (6) consecutive
//!   failures. A peer that was **never connected** is assumed to be
//!   starting: its ladder begins at `FIRST_DIAL_STEP` (1 ms) and doubles
//!   to the same cap with the same jitter, and it is declared fail-stopped
//!   only when `CONNECT_DEADLINE` (20 s) has passed since this mesh
//!   started. Either way a fail-stopped peer yields a single
//!   [`TransportEvent::SiteFailed`], delivered locally — the ISIS-style
//!   notification the paper assumes the communication layer provides
//!   (§3.4). [`Node::pump`](crate::Node::pump) hands it to the engine.
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
use decaf_vt::rng::SplitMix64;
use decaf_vt::SiteId;

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

/// Idle interval after which a writer sends a heartbeat `Ping`.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// Silence from a peer after which its link is torn down and re-dialled.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(3);

/// First re-dial step for a peer that **was connected**; doubles per
/// failed attempt up to [`RECONNECT_CAP`].
const RECONNECT_BASE: Duration = Duration::from_millis(50);

/// Ceiling of both re-dial ladders.
const RECONNECT_CAP: Duration = Duration::from_secs(1);

/// Consecutive failed re-dials of a previously connected peer before it is
/// declared fail-stopped.
const MAX_RECONNECT_ATTEMPTS: u32 = 6;

/// Grace period, from this mesh's start, for a peer that has *never* been
/// reached: start-up races are not failures. Until it has passed such a
/// peer is re-dialled on the [`FIRST_DIAL_STEP`] ladder however many dials
/// fail, and [`MAX_RECONNECT_ATTEMPTS`] does not apply to it.
const CONNECT_DEADLINE: Duration = Duration::from_secs(20);

/// Bound of each per-peer outbound queue; overflow drops the message and
/// counts `sends_dropped`.
const OUTBOUND_QUEUE: usize = 4096;

/// Most envelopes coalesced into one `Batch` frame.
const BATCH_MAX: usize = 64;

/// How long a writer lingers draining its queue for ride-along envelopes
/// after the first one of a flush — a Nagle-style delay with a microsecond
/// budget, bounding the latency cost of coalescing.
const BATCH_DELAY: Duration = Duration::from_micros(200);

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
/// timestamp, a histogram, a channel end) stays usable if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sender half of a bounded outbound queue.
///
/// Implemented as an unbounded channel plus an atomic depth counter with
/// drop-on-overflow semantics: a full queue rejects the message instead of
/// blocking the engine loop behind a slow peer (the counter shows up as
/// `sends_dropped`).
struct BoundedTx {
    tx: Sender<Envelope>,
    depth: Arc<AtomicU64>,
    cap: u64,
}

impl BoundedTx {
    /// Enqueues unless the queue is full or closed; reports success.
    fn try_send(&self, env: Envelope) -> bool {
        if self.depth.load(Ordering::Relaxed) >= self.cap {
            return false;
        }
        if self.tx.send(env).is_ok() {
            self.depth.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Current queue depth (racy, monitoring only).
    fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

/// Receiver half of a bounded outbound queue (see [`BoundedTx`]).
struct BoundedRx {
    rx: Receiver<Envelope>,
    depth: Arc<AtomicU64>,
}

impl BoundedRx {
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        let got = self.rx.recv_timeout(timeout);
        if got.is_ok() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        got
    }

    /// Non-blocking pop, for draining ride-along envelopes into a batch.
    fn try_recv(&self) -> Option<Envelope> {
        let got = self.rx.try_recv().ok();
        if got.is_some() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        got
    }
}

fn bounded_outbox(cap: usize) -> (BoundedTx, BoundedRx) {
    let (tx, rx) = channel::<Envelope>();
    let depth = Arc::new(AtomicU64::new(0));
    (
        BoundedTx {
            tx,
            depth: Arc::clone(&depth),
            cap: cap as u64,
        },
        BoundedRx { rx, depth },
    )
}

/// Per-peer link state shared between the writer thread, the readers, and
/// the endpoint.
struct PeerShared {
    /// Last instant any frame from this peer was read.
    last_seen: Mutex<Instant>,
    /// Whether an outbound connection has ever been established.
    ever_connected: AtomicBool,
    /// One-shot fail-stop latch.
    failed: AtomicBool,
}

impl PeerShared {
    fn new() -> Self {
        PeerShared {
            last_seen: Mutex::new(Instant::now()),
            ever_connected: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }
}

/// One site's handle onto a [`TcpMesh`] (cloneable; give it to the site
/// loop).
pub struct TcpEndpoint {
    site: SiteId,
    inbox: Arc<Mutex<Receiver<TransportEvent<Envelope>>>>,
    loopback: Sender<TransportEvent<Envelope>>,
    outboxes: Arc<BTreeMap<SiteId, BoundedTx>>,
    peers: Arc<BTreeMap<SiteId, Arc<PeerShared>>>,
    counters: Arc<Counters>,
    trace: TraceSink,
}

impl fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("site", &self.site)
            .finish()
    }
}

impl Clone for TcpEndpoint {
    fn clone(&self) -> Self {
        TcpEndpoint {
            site: self.site,
            inbox: Arc::clone(&self.inbox),
            loopback: self.loopback.clone(),
            outboxes: Arc::clone(&self.outboxes),
            peers: Arc::clone(&self.peers),
            counters: Arc::clone(&self.counters),
            trace: self.trace.clone(),
        }
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
        self.site
    }

    fn send(&self, to: SiteId, msg: Envelope) {
        if to == self.site {
            // Local delivery needs no socket.
            let _ = self.loopback.send(TransportEvent::Message {
                from: self.site,
                msg,
            });
            return;
        }
        let (Some(tx), Some(shared)) = (self.outboxes.get(&to), self.peers.get(&to)) else {
            bump(&self.counters.sends_dropped);
            return;
        };
        if shared.failed.load(Ordering::Relaxed) || !tx.try_send(msg) {
            bump(&self.counters.sends_dropped);
        } else {
            let depth = tx.depth();
            self.counters
                .queue_depth_hwm
                .fetch_max(depth, Ordering::Relaxed);
            self.trace.record_queue_depth(depth);
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
    site: SiteId,
    local_addr: SocketAddr,
    endpoint: TcpEndpoint,
    counters: Arc<Counters>,
    batch_sizes: Arc<Mutex<Histogram>>,
    trace: TraceSink,
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
            .field("site", &self.site)
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

        let counters = Arc::new(Counters::default());
        let batch_sizes = Arc::new(Mutex::new(Histogram::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (events_tx, events_rx) = channel::<TransportEvent<Envelope>>();

        let mut outboxes = BTreeMap::new();
        let mut peers = BTreeMap::new();
        for &peer in config.peers.keys() {
            let (tx, rx) = bounded_outbox(OUTBOUND_QUEUE);
            outboxes.insert(peer, tx);
            peers.insert(peer, (rx, Arc::new(PeerShared::new())));
        }
        let peer_shared: Arc<BTreeMap<SiteId, Arc<PeerShared>>> = Arc::new(
            peers
                .iter()
                .map(|(&id, (_, shared))| (id, Arc::clone(shared)))
                .collect(),
        );
        let outboxes = Arc::new(outboxes);

        // Accept thread: read-only inbound connections.
        let accept = {
            let events = events_tx.clone();
            let shared = Arc::clone(&peer_shared);
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&shutdown);
            let trace = config.trace.clone();
            std::thread::Builder::new()
                .name(format!("decaf-tcp-accept-{}", config.site.0))
                .spawn(move || accept_loop(listener, events, shared, counters, trace, stop))
                .expect("spawn accept thread")
        };

        let mut threads = Vec::new();

        // Per-peer writer threads: dial, frame, heartbeat, reconnect.
        for (peer, (rx, shared)) in peers {
            let cfg = config.clone();
            let events = events_tx.clone();
            let counters = Arc::clone(&counters);
            let sizes = Arc::clone(&batch_sizes);
            let stop = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("decaf-tcp-link-{}-{}", config.site.0, peer.0))
                    .spawn(move || {
                        writer_loop(cfg, peer, rx, shared, events, counters, sizes, stop)
                    })
                    .expect("spawn link thread"),
            );
        }

        let endpoint = TcpEndpoint {
            site: config.site,
            inbox: Arc::new(Mutex::new(events_rx)),
            loopback: events_tx,
            outboxes,
            peers: peer_shared,
            counters: Arc::clone(&counters),
            trace: config.trace.clone(),
        };
        Ok(TcpMesh {
            site: config.site,
            local_addr,
            endpoint,
            counters,
            batch_sizes,
            trace: config.trace,
            shutdown,
            accept: Some(accept),
            threads,
        })
    }

    /// This mesh node's site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The actually bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the transport counters. Trace-sink loss is folded in
    /// so end-of-run reports expose it alongside the frame counters.
    pub fn stats(&self) -> TransportStats {
        let mut s = self.counters.snapshot();
        s.trace_events_dropped = self.trace.dropped();
        s
    }

    /// The mesh's trace sink (disabled unless one was installed via
    /// [`TcpConfig::trace`]).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// A snapshot of the batch-size distribution: how many envelopes each
    /// flushed data frame carried (log2 buckets; use
    /// [`Histogram::quantile`]/[`Histogram::summary`] on the result).
    /// Unbatched links record `1` per frame.
    pub fn batch_histogram(&self) -> Histogram {
        lock(&self.batch_sizes).clone()
    }

    /// The endpoint for this mesh's (single) site.
    pub fn endpoint(&self) -> TcpEndpoint {
        self.endpoint.clone()
    }

    /// Stops every mesh thread and closes the sockets. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
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
fn accept_loop(
    listener: TcpListener,
    events: Sender<TransportEvent<Envelope>>,
    peers: Arc<BTreeMap<SiteId, Arc<PeerShared>>>,
    counters: Arc<Counters>,
    trace: TraceSink,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let events = events.clone();
                let peers = Arc::clone(&peers);
                let counters = Arc::clone(&counters);
                let trace = trace.clone();
                let stop = Arc::clone(&shutdown);
                let _ = std::thread::Builder::new()
                    .name("decaf-tcp-reader".into())
                    .spawn(move || reader_loop(stream, events, peers, counters, trace, stop));
            }
            // The connection died in the backlog, or the process is out of
            // descriptors: nothing to hand on; do not spin on the latter.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads frames off one accepted connection. The first frame must be a
/// `Hello` identifying the dialing peer and naming a codec this build
/// speaks; afterwards `DataV2`/`Batch` frames become inbox messages and
/// `Ping`s only refresh liveness. Anything else — a Hello of a codec-1
/// peer, the reserved frame kind 2, a broken header — is counted in
/// `frames_rejected` and closes this connection, leaving the other links
/// alone.
fn reader_loop(
    stream: TcpStream,
    events: Sender<TransportEvent<Envelope>>,
    peers: Arc<BTreeMap<SiteId, Arc<PeerShared>>>,
    counters: Arc<Counters>,
    trace: TraceSink,
    shutdown: Arc<AtomicBool>,
) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
    let mut reader = FrameReader::new();
    let mut peer: Option<SiteId> = None;
    let mut buf = [0u8; 64 * 1024];
    let touch = |site: SiteId| {
        if let Some(shared) = peers.get(&site) {
            *lock(&shared.last_seen) = Instant::now();
        }
    };
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Drain complete frames before reading more bytes.
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    bump(&counters.frames_in);
                    // Transport-level receive trace: `peer` is the dialing
                    // site, `n` the frame payload size in bytes.
                    if let Some(from) = peer.or_else(|| {
                        matches!(frame.kind, FrameKind::Hello)
                            .then(|| decode_hello(&frame.payload).ok())
                            .flatten()
                            .map(|(site, _)| site)
                    }) {
                        trace.emit(
                            TraceKind::MsgRecv,
                            None,
                            Some(from.0),
                            Some(frame.payload.len() as u64),
                        );
                    }
                    match frame.kind {
                        FrameKind::Hello => match decode_hello(&frame.payload) {
                            Ok((site, _max_codec)) => {
                                peer = Some(site);
                                touch(site);
                            }
                            Err(_) => {
                                bump(&counters.frames_rejected);
                                return;
                            }
                        },
                        FrameKind::DataV2 => {
                            let Some(from) = peer else {
                                // Data before Hello: protocol violation.
                                bump(&counters.frames_rejected);
                                return;
                            };
                            touch(from);
                            match decode_envelope_v2(&frame.payload) {
                                Ok(env) => {
                                    emit_env_recv(&trace, &env);
                                    let _ = events.send(TransportEvent::Message { from, msg: env });
                                }
                                // Framing is intact, only this payload is
                                // bad: count it and keep the connection.
                                Err(_) => bump(&counters.frames_rejected),
                            }
                        }
                        FrameKind::Batch => {
                            let Some(from) = peer else {
                                bump(&counters.frames_rejected);
                                return;
                            };
                            touch(from);
                            match decode_batch(&frame.payload) {
                                Ok(envs) => {
                                    for env in envs {
                                        emit_env_recv(&trace, &env);
                                        let _ =
                                            events.send(TransportEvent::Message { from, msg: env });
                                    }
                                }
                                Err(_) => bump(&counters.frames_rejected),
                            }
                        }
                        FrameKind::Ping => {
                            if let Some(from) = peer {
                                touch(from);
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Unrecoverable framing error: there is no
                    // resynchronization point in a TCP byte stream.
                    bump(&counters.frames_rejected);
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF
            Ok(n) => {
                add(&counters.bytes_in, n as u64);
                reader.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Declares `peer` fail-stopped exactly once.
fn declare_failed(
    peer: SiteId,
    shared: &PeerShared,
    events: &Sender<TransportEvent<Envelope>>,
    counters: &Counters,
    trace: &TraceSink,
) {
    if !shared.failed.swap(true, Ordering::SeqCst) {
        bump(&counters.peers_failed);
        trace.emit(TraceKind::SiteFailed, None, Some(peer.0), None);
        let _ = events.send(TransportEvent::SiteFailed { failed: peer });
    }
}

/// Sleeps in small slices so shutdown stays responsive.
fn interruptible_sleep(total: Duration, shutdown: &AtomicBool) {
    let slice = Duration::from_millis(25);
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(slice.min(deadline.saturating_duration_since(Instant::now())));
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

/// How long an outbound link must have carried no envelopes before the
/// next ones are preceded by a [`peer_hung_up`] probe. A peer cannot die,
/// restart and ask for anything in less, and a link that wrote more
/// recently learns of a dead peer from the write error itself — so a busy
/// link never pays for the probe.
const PROBE_AFTER_QUIET: Duration = Duration::from_millis(5);

/// Whether the peer has closed or reset this outbound connection. A peer
/// never writes on a connection it accepted, so anything readable here is
/// an EOF or an error. Asked before envelopes are written to a link that
/// has been quiet: the first write into a socket whose peer has died still
/// "succeeds", and what it carried — a restarted peer's `RejoinAck`, say —
/// would be lost with no one to resend it.
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

/// Writes the buffered envelopes out as one frame: `DataV2` for a single
/// envelope, `Batch` for several. Written envelopes leave `batch`; if the
/// write fails they stay put (for the reconnect carry-over) and `false` is
/// returned.
fn flush_envelopes(
    stream: &mut TcpStream,
    batch: &mut Vec<Envelope>,
    peer: SiteId,
    counters: &Counters,
    trace: &TraceSink,
    batch_sizes: &Mutex<Histogram>,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    let parts: Vec<Vec<u8>> = batch.iter().map(encode_envelope_v2).collect();
    let unbatched: usize = parts.iter().map(|p| HEADER_LEN + p.len()).sum();
    let n_envs = parts.len();
    let (kind, payload) = if n_envs == 1 {
        (
            FrameKind::DataV2,
            parts.into_iter().next().expect("one part"),
        )
    } else {
        (FrameKind::Batch, encode_batch_parts(&parts))
    };
    match write_frame(stream, kind, &payload) {
        Ok(n) => {
            bump(&counters.frames_out);
            if n_envs > 1 {
                add(&counters.frames_coalesced, (n_envs - 1) as u64);
                // Headers elided minus the batch's own length prefixes.
                add(&counters.bytes_saved, unbatched.saturating_sub(n) as u64);
            }
            add(&counters.bytes_out, n as u64);
            trace.emit(TraceKind::MsgSend, None, Some(peer.0), Some(n as u64));
            for env in batch.iter() {
                emit_env_send(trace, peer, env);
            }
            lock(batch_sizes).record(n_envs as u64);
            batch.clear();
            true
        }
        Err(_) => false,
    }
}

/// First step of the re-dial ladder for a peer that has never been
/// connected: such a peer is most likely a site that is starting too and
/// has not bound yet, so the next dial follows within a round trip's
/// order of magnitude, not a failure-detection interval.
const FIRST_DIAL_STEP: Duration = Duration::from_millis(1);

/// The wait (before jitter) after the `attempts`-th consecutive failed
/// dial. A peer that was connected is on the failure-detection schedule:
/// [`RECONNECT_BASE`] doubling to [`RECONNECT_CAP`]. One that never was
/// climbs to that same cap from [`FIRST_DIAL_STEP`].
fn redial_step(was_connected: bool, attempts: u32) -> Duration {
    let base = if was_connected {
        RECONNECT_BASE
    } else {
        FIRST_DIAL_STEP
    };
    base.saturating_mul(1u32 << attempts.saturating_sub(1).min(16))
        .min(RECONNECT_CAP)
}

/// The per-peer link thread: dials the peer, writes `Hello` + data +
/// heartbeat `Ping` frames, and re-dials with exponential backoff and
/// jitter ([`redial_step`]). Exhausted reconnection to a peer that was
/// connected, or a never-connected peer's missed [`CONNECT_DEADLINE`],
/// declares the peer fail-stopped.
#[allow(clippy::too_many_arguments)] // one thread entry point, never composed
fn writer_loop(
    cfg: TcpConfig,
    peer: SiteId,
    outbox: BoundedRx,
    shared: Arc<PeerShared>,
    events: Sender<TransportEvent<Envelope>>,
    counters: Arc<Counters>,
    batch_sizes: Arc<Mutex<Histogram>>,
    shutdown: Arc<AtomicBool>,
) {
    let addr = cfg.peers[&peer];
    let jitter_seed = 0xDECAF ^ cfg.site.0 as u64;
    let mut rng = SplitMix64::new(jitter_seed ^ (peer.0 as u64).wrapping_mul(0x9E37));
    let born = Instant::now();
    let mut had_conn = false;
    // Envelopes popped from the outbox whose socket write failed. The
    // engine has no retransmission of its own — once the endpoint accepts
    // a send, the mesh owns delivery — so they are carried across the
    // reconnect instead of being dropped with the broken connection.
    let mut pending: Vec<Envelope> = Vec::new();
    'link: loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // --- connect phase, with backoff + jitter ---
        let mut attempts: u32 = 0;
        let mut stream = loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                Ok(s) => break s,
                Err(_) => {
                    attempts += 1;
                    let was_connected = had_conn || shared.ever_connected.load(Ordering::Relaxed);
                    let exhausted = if was_connected {
                        attempts > MAX_RECONNECT_ATTEMPTS
                    } else {
                        born.elapsed() > CONNECT_DEADLINE
                    };
                    if exhausted {
                        declare_failed(peer, &shared, &events, &counters, &cfg.trace);
                        return;
                    }
                    let exp = redial_step(was_connected, attempts);
                    // ±25% jitter so a rebooted mesh doesn't thunder.
                    let jitter = rng.range(0.75..=1.25);
                    let wait = Duration::from_secs_f64(exp.as_secs_f64() * jitter);
                    interruptible_sleep(wait, &shutdown);
                }
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let hello = encode_hello_v2(cfg.site, CODEC_VERSION);
        match write_frame(&mut stream, FrameKind::Hello, &hello) {
            Ok(n) => {
                bump(&counters.frames_out);
                add(&counters.bytes_out, n as u64);
                cfg.trace
                    .emit(TraceKind::MsgSend, None, Some(peer.0), Some(n as u64));
            }
            Err(_) => continue 'link,
        }
        if had_conn {
            bump(&counters.reconnects);
            cfg.trace
                .emit(TraceKind::Reconnect, None, Some(peer.0), None);
        }
        had_conn = true;
        shared.ever_connected.store(true, Ordering::Relaxed);
        let conn_start = Instant::now();
        let mut last_flush = conn_start;

        // Flush envelopes the previous connection stranded, if any.
        if !flush_envelopes(
            &mut stream,
            &mut pending,
            peer,
            &counters,
            &cfg.trace,
            &batch_sizes,
        ) {
            continue 'link;
        }

        // --- pump phase: outbox drains + heartbeats + silence watchdog ---
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match outbox.recv_timeout(HEARTBEAT_INTERVAL) {
                Ok(env) => {
                    pending.push(env);
                    let woke = Instant::now();
                    // Nagle-style linger: pick up ride-alongs already in (or
                    // just arriving on) the queue, bounded by count and a
                    // microsecond budget.
                    let deadline = woke + BATCH_DELAY;
                    while pending.len() < BATCH_MAX {
                        match outbox.try_recv() {
                            Some(more) => pending.push(more),
                            None if Instant::now() < deadline => std::thread::yield_now(),
                            None => break,
                        }
                    }
                    let quiet = woke.duration_since(last_flush) >= PROBE_AFTER_QUIET;
                    if (quiet && peer_hung_up(&stream))
                        || !flush_envelopes(
                            &mut stream,
                            &mut pending,
                            peer,
                            &counters,
                            &cfg.trace,
                            &batch_sizes,
                        )
                    {
                        // Unwritten envelopes stay for the next connection.
                        continue 'link;
                    }
                    last_flush = woke;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Watchdog: if the peer has been silent too long on the
                    // inbound side, tear the link down and re-dial; the
                    // reconnect policy then decides whether it is dead.
                    let heard = (*lock(&shared.last_seen)).max(conn_start);
                    if heard.elapsed() > HEARTBEAT_TIMEOUT {
                        bump(&counters.heartbeat_misses);
                        continue 'link;
                    }
                    match write_frame(&mut stream, FrameKind::Ping, &[]) {
                        Ok(n) => {
                            bump(&counters.heartbeats_sent);
                            bump(&counters.frames_out);
                            add(&counters.bytes_out, n as u64);
                            cfg.trace
                                .emit(TraceKind::MsgSend, None, Some(peer.0), Some(n as u64));
                        }
                        Err(_) => continue 'link,
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn a_connected_peer_is_redialled_on_the_failure_detection_schedule() {
        let ms = Duration::from_millis;
        let steps = |was_connected| -> Vec<Duration> {
            (1..=12).map(|n| redial_step(was_connected, n)).collect()
        };
        assert_eq!(
            steps(true)[..7],
            [50, 100, 200, 400, 800, 1000, 1000].map(ms)
        );
        assert_eq!(
            steps(false),
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000, 1000].map(ms)
        );
        // The ladders are the constants: each starts at its own step and
        // tops out at the shared cap, which a connected peer reaches
        // within its attempt budget.
        assert_eq!(steps(true)[0], RECONNECT_BASE);
        assert_eq!(steps(false)[0], FIRST_DIAL_STEP);
        assert_eq!(steps(false)[11], RECONNECT_CAP);
        assert_eq!(redial_step(true, MAX_RECONNECT_ATTEMPTS), RECONNECT_CAP);
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
    /// listener no longer takes connections.
    fn assert_shuts_down_promptly(mut mesh: TcpMesh) {
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
    }

    #[test]
    fn shutdown_wakes_and_joins_the_accept_thread() {
        for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
            let cfg = TcpConfig::new(SiteId(1), listen.parse().unwrap());
            assert_shuts_down_promptly(TcpMesh::start(cfg).unwrap());
        }
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
