//! TCP mesh integration tests: three sites form one mesh and every
//! envelope arrives intact and in per-link order while the writers
//! coalesce bursts into `Batch` frames; and a peer speaking the removed
//! codec 1 is refused on its own connection without disturbing the rest.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use decaf_core::codec::crc32;
use decaf_core::{Envelope, Message};
use decaf_net::tcp::{TcpConfig, TcpEndpoint, TcpMesh};
use decaf_net::wire::{encode_frame, encode_hello_v2, FrameKind, CODEC_VERSION, MAGIC};
use decaf_net::{TransportEndpoint, TransportEvent};
use decaf_vt::{SiteId, VirtualTime};

/// Envelopes each site sends to each of its two peers. Small enough to
/// never brush the 4096-entry outbound queue, large enough that the
/// writers get real coalescing opportunities.
const BURST: u64 = 40;

fn reserve_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn env(from: SiteId, to: SiteId, seq: u64) -> Envelope {
    Envelope {
        from,
        to,
        clock: VirtualTime::new(1000 * u64::from(from.0) + seq, from),
        msg: Message::Commit {
            txn: VirtualTime::new(seq, from),
        },
        span: Some(decaf_core::SpanCtx {
            origin: from,
            seq,
            hop: 0,
        }),
    }
}

/// Receives on `ep` until `expected` messages arrived (or panics at the
/// deadline), returning each sender/clock pair in arrival order.
fn collect(ep: &TcpEndpoint, expected: usize, who: &str) -> Vec<(SiteId, VirtualTime)> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = Vec::new();
    while got.len() < expected {
        assert!(Instant::now() < deadline, "{who}: timed out with {got:?}");
        match ep.recv_timeout(Duration::from_millis(200)) {
            Some(TransportEvent::Message { from, msg }) => got.push((from, msg.clock)),
            Some(TransportEvent::SiteFailed { failed }) => {
                panic!("{who}: spurious SiteFailed({failed:?})")
            }
            None => {}
        }
    }
    got
}

/// The clocks `to` must observe from `from`, in send order.
fn expected_from(from: SiteId) -> Vec<(SiteId, VirtualTime)> {
    (0..BURST)
        .map(|seq| (from, VirtualTime::new(1000 * u64::from(from.0) + seq, from)))
        .collect()
}

#[test]
fn three_site_mesh_delivers_in_link_order_and_coalesces() {
    let ports = [reserve_port(), reserve_port(), reserve_port()];
    let addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
        .collect();
    let sites = [SiteId(1), SiteId(2), SiteId(3)];

    // Each site queues its whole burst as soon as its mesh has started,
    // before the next site binds: a writer finds its burst already queued
    // when its link comes up, so even the fixed 200 µs linger coalesces it.
    // (The last site's peers are up already; its writers still have a
    // dial and a Hello to make while the burst is queued.)
    let mut meshes = Vec::new();
    for me in 0..3 {
        let mut cfg = TcpConfig::new(sites[me], addrs[me]);
        for (i, &peer) in sites.iter().enumerate() {
            if i != me {
                cfg = cfg.peer(peer, addrs[i]);
            }
        }
        let mesh = TcpMesh::start(cfg).expect("bind");
        let ep = mesh.endpoint();
        for seq in 0..BURST {
            for &to in sites.iter().filter(|&&to| to != sites[me]) {
                ep.send(to, env(sites[me], to, seq));
            }
        }
        meshes.push(mesh);
    }
    let eps: Vec<TcpEndpoint> = meshes.iter().map(TcpMesh::endpoint).collect();

    // Every site receives both peers' bursts, each link's in send order
    // (the §3.4 reliable-FIFO link the engine assumes).
    for (me, ep) in sites.iter().zip(&eps) {
        let who = format!("site {}", me.0);
        let got = collect(ep, 2 * BURST as usize, &who);
        for &from in sites.iter().filter(|s| *s != me) {
            let link: Vec<_> = got.iter().copied().filter(|(f, _)| *f == from).collect();
            assert_eq!(
                link,
                expected_from(from),
                "{who}: link from {from} reordered"
            );
        }
    }

    for (me, mesh) in sites.iter().zip(&meshes) {
        let s = mesh.stats();
        assert!(
            s.frames_coalesced > 0,
            "site {}: nothing coalesced: {s}",
            me.0
        );
        assert!(
            s.bytes_saved > 0,
            "site {}: batching saved no bytes: {s}",
            me.0
        );
        assert_eq!(s.frames_rejected, 0, "site {}: {s}", me.0);
        assert!(
            mesh.batch_histogram().count() > 0,
            "site {}: batch histogram is empty",
            me.0
        );
    }
    for mesh in &mut meshes {
        mesh.shutdown();
    }
}

/// A frame with an arbitrary kind byte, which `encode_frame` cannot make.
fn raw_frame(version: u8, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&[version, kind]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Codec 1 is gone and nothing falls back to it or to codec 2, whose
/// snapshot reads this build would misread: the classic 4-byte Hello, a
/// Hello naming codec 1 or 2, and a kind-2 JSON data frame are each counted
/// in `frames_rejected` and get their connection closed — no panic, and
/// the link to a well-behaved peer keeps working throughout.
#[test]
fn codec_one_peers_are_refused_not_downgraded() {
    let (pa, pb) = (reserve_port(), reserve_port());
    let a_addr: SocketAddr = format!("127.0.0.1:{pa}").parse().unwrap();
    let b_addr: SocketAddr = format!("127.0.0.1:{pb}").parse().unwrap();
    let mut a =
        TcpMesh::start(TcpConfig::new(SiteId(1), a_addr).peer(SiteId(2), b_addr)).expect("bind a");
    let mut b =
        TcpMesh::start(TcpConfig::new(SiteId(2), b_addr).peer(SiteId(1), a_addr)).expect("bind b");
    let (ea, eb) = (a.endpoint(), b.endpoint());

    let round_trip = |seq: u64| {
        eb.send(SiteId(1), env(SiteId(2), SiteId(1), seq));
        let got = ea
            .recv_timeout(Duration::from_secs(10))
            .and_then(TransportEvent::into_message)
            .expect("the good link still delivers");
        assert_eq!(got.1, env(SiteId(2), SiteId(1), seq));
    };
    round_trip(0);

    let json = br#"{"from":9,"to":1,"clock":{"lamport":1,"site":9},"msg":"Heartbeat"}"#;
    let hello_then_json = [
        encode_frame(FrameKind::Hello, &encode_hello_v2(SiteId(9), CODEC_VERSION)),
        raw_frame(1, 2, json),
    ]
    .concat();
    let offenders: [(&str, Vec<u8>); 4] = [
        (
            "classic 4-byte hello",
            encode_frame(FrameKind::Hello, &SiteId(9).0.to_le_bytes()),
        ),
        (
            "hello naming codec 1",
            encode_frame(FrameKind::Hello, &encode_hello_v2(SiteId(9), 1)),
        ),
        (
            "hello naming codec 2",
            encode_frame(FrameKind::Hello, &encode_hello_v2(SiteId(9), 2)),
        ),
        ("kind-2 data frame", hello_then_json),
    ];
    for (n, (what, bytes)) in offenders.iter().enumerate() {
        let mut conn = TcpStream::connect(a_addr).expect("dial a");
        conn.write_all(bytes).expect("write offending bytes");
        // The reader rejects and returns, dropping its end: EOF here.
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut sink = [0u8; 16];
        match conn.read(&mut sink) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("{what}: connection left open: {other:?}"),
        }
        assert_eq!(
            a.stats().frames_rejected,
            n as u64 + 1,
            "{what}: not counted as rejected: {}",
            a.stats()
        );
        round_trip(n as u64 + 1);
    }
    assert!(
        ea.try_recv().is_none(),
        "an offending frame reached the engine"
    );
    assert_eq!(a.stats().peers_failed, 0);

    a.shutdown();
    b.shutdown();
}
