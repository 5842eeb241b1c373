//! Integration: the sans-I/O engine under *real* thread concurrency — one
//! thread per site, each running [`Node::pump`] (the daemon's loop) on its
//! own loopback [`TcpMesh`], mirroring the paper's one-JVM-per-user
//! deployment inside one process.

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use decaf_core::{wiring, EngineEvent, ObjectName, Site, Transaction, TxnCtx, TxnError};
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

struct Blind(ObjectName, i64);
impl Transaction for Blind {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.write_int(self.0, self.1)
    }
}

/// Runs `n` site threads, each submitting `per_site` transactions paced on
/// the previous outcome, then pumping until it has seen `per_site × n`
/// transactions commit and 300 quiet turns; returns each site's committed
/// value.
fn run_threads(n: u32, per_site: i64, blind: bool) -> Vec<Option<i64>> {
    // The kernel picks the ports; each listener is dropped just before its
    // mesh rebinds the address.
    let addrs: Vec<SocketAddr> = (0..n)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
            l.local_addr().expect("local addr")
        })
        .collect();
    let mut sites: Vec<Site> = (1..=n).map(|i| Site::new(SiteId(i))).collect();
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
            let (mut submitted, mut seen) = (0i64, 0i64);
            let mut last: Option<decaf_core::TxnHandle> = None;
            let mut idle = 0u32;
            while idle <= 300 {
                // Pace like a user: next gesture once the previous decided.
                let prior_done = last
                    .map(|h| node.site.txn_outcome(h).is_some())
                    .unwrap_or(true);
                if submitted < per_site && prior_done {
                    let txn: Box<dyn Transaction> = if blind {
                        Box::new(Blind(obj, (idx as i64) * 1000 + submitted))
                    } else {
                        Box::new(Incr(obj))
                    };
                    last = Some(node.site.execute(txn));
                    submitted += 1;
                }
                let pumped = node
                    .pump(&endpoint, Duration::from_millis(1))
                    .expect("no log, no append to fail");
                // Every replica commits every transaction exactly once.
                seen += pumped
                    .events
                    .iter()
                    .filter(|e| matches!(e, EngineEvent::TxnCommitted { .. }))
                    .count() as i64;
                let settled = seen >= per_site * i64::from(n) && node.site.is_quiescent();
                idle = if settled && pumped.received == 0 {
                    idle + 1
                } else {
                    0
                };
            }
            let value = node.site.read_int_committed(obj);
            mesh.shutdown();
            value
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("site thread panicked"))
        .collect()
}

#[test]
fn concurrent_increments_from_three_threads_are_exact() {
    let values = run_threads(3, 10, false);
    for v in &values {
        assert_eq!(*v, Some(30), "every replica must read 3 * 10: {values:?}");
    }
}

#[test]
fn concurrent_blind_writes_from_four_threads_converge() {
    let values = run_threads(4, 8, true);
    assert!(values[0].is_some());
    for v in &values {
        assert_eq!(*v, values[0], "replicas must converge: {values:?}");
    }
}

#[test]
fn two_threads_higher_volume() {
    let values = run_threads(2, 40, false);
    for v in &values {
        assert_eq!(*v, Some(80), "{values:?}");
    }
}
