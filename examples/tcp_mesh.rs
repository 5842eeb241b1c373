//! The DECAF engine on the **real TCP mesh**: three sites, each with its
//! own [`decaf_net::tcp::TcpMesh`] bound to a loopback socket, exchanging
//! length-prefixed CRC-checked frames over actual kernel TCP connections.
//!
//! This is the single-process rehearsal of the paper's deployment shape
//! (one process per user, §5.2): the same wiring, codec, heartbeats and
//! failure detector that the `decaf-site` daemon uses across OS processes,
//! but with all three sites driven by threads here so the example is
//! self-contained. For the true multi-process version, see the
//! `decaf-site` binary and the "Running sites over TCP" section of the
//! README, plus `tests/tcp_transport.rs` which kills one of the processes.
//!
//! Run with: `cargo run -p decaf-apps --example tcp_mesh`

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use decaf_core::{wiring, ObjectName, Site, Transaction, TxnCtx, TxnError};
use decaf_net::tcp::{TcpConfig, TcpMesh};
use decaf_net::Node;
use decaf_vt::SiteId;

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

const USERS: u32 = 3;
const INCREMENTS_EACH: i64 = 10;

/// Grabs a free loopback port from the kernel. The listener is dropped
/// before the mesh rebinds it — fine for an example, the window is tiny.
fn reserve_port() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    l.local_addr().expect("local addr")
}

fn main() {
    println!(
        "TCP mesh counters: {USERS} sites on loopback sockets, {INCREMENTS_EACH} increments each\n"
    );

    // Reserve one listen address per site so every config can name every
    // peer before any mesh starts (the peer table a deployment would read
    // from configuration).
    let addrs: Vec<SocketAddr> = (0..USERS).map(|_| reserve_port()).collect();

    // Build and wire the sites up front, then move each onto its thread.
    let mut sites: Vec<Site> = (1..=USERS).map(|i| Site::new(SiteId(i))).collect();
    let objs: Vec<ObjectName> = sites.iter_mut().map(|s| s.create_int(0)).collect();
    {
        let mut parts: Vec<(&mut Site, ObjectName)> =
            sites.iter_mut().zip(objs.iter().copied()).collect();
        wiring::wire_replicas(&mut parts);
    }

    let mut handles = Vec::new();
    for (idx, (site, obj)) in sites.into_iter().zip(objs).enumerate() {
        let mut cfg = TcpConfig::new(site.id(), addrs[idx]);
        for (pidx, &addr) in addrs.iter().enumerate() {
            if pidx != idx {
                cfg = cfg.peer(SiteId(pidx as u32 + 1), addr);
            }
        }
        handles.push(std::thread::spawn(move || {
            let mut mesh = TcpMesh::start(cfg).expect("start mesh");
            let endpoint = mesh.endpoint();
            let mut node: Node = Node::new(site);
            let mut done = 0i64;
            let mut last: Option<decaf_core::TxnHandle> = None;
            let mut idle = 0u32;
            loop {
                // Submit work, paced on the previous gesture's outcome.
                let prior_done = last
                    .map(|h| node.site.txn_outcome(h).is_some())
                    .unwrap_or(true);
                if done < INCREMENTS_EACH && prior_done {
                    last = Some(node.site.execute(Box::new(Incr(obj))));
                    done += 1;
                }
                // The node loop the daemon runs: engine outbox -> sockets,
                // sockets -> engine, waiting up to 1 ms for traffic.
                let got = node
                    .pump(&endpoint, Duration::from_millis(1))
                    .expect("no log, no append to fail")
                    .received;

                // Quit once everything we can observe has settled.
                let target = i64::from(USERS) * INCREMENTS_EACH;
                let committed = node.site.read_int_committed(obj).unwrap_or(0);
                if done >= INCREMENTS_EACH
                    && committed >= target
                    && got == 0
                    && node.site.is_quiescent()
                {
                    idle += 1;
                    // Linger so slower peers can still converge off us.
                    if idle > 500 {
                        break;
                    }
                } else {
                    idle = 0;
                }
            }
            let value = node.site.read_int_committed(obj);
            let stats = mesh.stats();
            mesh.shutdown();
            (node.site.id(), value, stats)
        }));
    }

    println!("{:>6} {:>10}  transport", "site", "counter");
    let mut values = Vec::new();
    for h in handles {
        let (id, value, stats) = h.join().expect("site thread panicked");
        println!("{:>6} {:>10}  {stats}", id.0, value.unwrap_or(-1));
        values.push(value);
    }
    let expect = Some(i64::from(USERS) * INCREMENTS_EACH);
    assert!(
        values.iter().all(|v| *v == expect),
        "all replicas must commit {expect:?}: {values:?}"
    );
    println!("\nAll {USERS} replicas converged over real TCP sockets.");
}
