//! One session: three sites on real loopback sockets, set up and verified,
//! run for a warm-up and a measured window, drained, checked, torn down.
//!
//! Each harness site is a [`Node`] thread with its own [`TcpMesh`] on an
//! ephemeral `127.0.0.1` port — real sockets, codec v2, default batching,
//! default `SiteConfig`, no data directory. In `daemon3` site 1 is a
//! `decaf-site` child process instead.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use decaf_core::{
    wiring, NodeRef, ObjectName, Site, TraceSink, TransportStats, UpdateNotification, View,
    ViewMode,
};
use decaf_net::tcp::{TcpConfig, TcpMesh};
use decaf_vt::SiteId;

use crate::daemon::{Daemon, DaemonReport};
use crate::node::{phase, Cmd, Node, NodeConfig, NodeLog, NodeShared, ObjKind, ObjValue, Probe};
use crate::workload::{apply, initial_state, Workload, DAEMON_SENTINEL, SITES};

/// How long set-up waits for one verification gesture to be seen
/// committed everywhere before giving up.
const SETUP_STEP_TIMEOUT: Duration = Duration::from_secs(20);
/// How long the drain waits for outstanding gestures to be decided.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Ring capacity of the trace sinks installed for `trace.sink_on_ratio`.
const SINK_CAPACITY: usize = 65_536;

/// The application's view: it does nothing, so what is measured is the
/// engine's notification machinery, not a renderer.
struct NoopView;

impl View for NoopView {
    fn update(&mut self, _n: &UpdateNotification<'_>) {}
}

/// What varies between sessions of one workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionOpts {
    /// Record spans, message records and captured envelopes.
    pub traced: bool,
    /// Install an enabled [`TraceSink`] on every engine and mesh.
    pub sink: bool,
}

struct NodeHandle {
    site: u32,
    shared: Arc<NodeShared>,
    cmds: Sender<Cmd>,
    thread: JoinHandle<NodeLog>,
}

/// Counters read at the edges of the measured window.
#[derive(Debug, Clone)]
pub struct Edge {
    /// When, on the process clock.
    pub t_ns: u64,
    /// One probe per harness site.
    pub probes: Vec<Probe>,
    /// Transport counters summed over the harness meshes.
    pub transport: TransportStats,
    /// CPU time the harness process has used so far.
    pub cpu_ns: u64,
}

/// A set-up, verified, running collaboration.
pub struct Session {
    workload: Workload,
    clock: Instant,
    nodes: Vec<NodeHandle>,
    meshes: Vec<TcpMesh>,
    sinks: Vec<TraceSink>,
    daemon: Option<Daemon>,
    /// Session start → set-up verified, in seconds.
    pub setup_s: f64,
}

/// Everything a finished session measured.
pub struct SessionData {
    /// The workload that ran.
    pub workload: Workload,
    /// One log per harness site.
    pub logs: Vec<NodeLog>,
    /// Start of the measured window.
    pub begin: Edge,
    /// End of the measured window.
    pub end: Edge,
    /// Committed state after the drain, one probe per harness site.
    pub final_probes: Vec<Probe>,
    /// Transport counters at teardown, summed over the harness meshes.
    pub final_transport: TransportStats,
    /// The trace sinks' loss counters, summed (0 unless `sink` was on).
    pub sink_dropped: u64,
    /// What the daemon printed (`daemon3` only).
    pub daemon: Option<DaemonReport>,
    /// Session start → set-up verified, in seconds.
    pub setup_s: f64,
}

/// A loopback address nobody listens on, for a mesh (or the daemon) to
/// bind a moment later. Every site must know every address before any
/// mesh starts, so the harness cannot hand over bound listeners, and a port
/// the kernel picked (`:0`) can be taken in between: it comes from the
/// ephemeral range, where a peer's dial gets its source port (seen once in
/// ~1 700 set-ups: `bind: Address already in use`). Ports below that range
/// (32768 up, by default) are only ever bound on purpose.
fn reserve_addr() -> Result<SocketAddr, String> {
    const FIRST: u32 = 10_000;
    const COUNT: u32 = 20_000;
    static NEXT: AtomicU32 = AtomicU32::new(0);
    // Start somewhere else in each process: two benchmarks side by side
    // then rarely probe the same port at the same moment.
    let base = std::process::id().wrapping_mul(7919);
    for _ in 0..COUNT {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let port = FIRST + base.wrapping_add(n) % COUNT;
        let addr = SocketAddr::from(([127, 0, 0, 1], port as u16));
        if TcpListener::bind(addr).is_ok() {
            return Ok(addr);
        }
    }
    Err(format!(
        "no free loopback port in {FIRST}..{}",
        FIRST + COUNT
    ))
}

fn sum_transport(meshes: &[TcpMesh]) -> TransportStats {
    let mut sum = TransportStats::default();
    for m in meshes {
        sum.merge(&m.stats());
    }
    sum
}

impl Session {
    /// Sets the collaboration up and verifies it: meshes bound, sites
    /// created and wired, views attached, node threads running, every
    /// link crossed by a committed gesture (which in `duel_list3` includes
    /// the list's 256 elements, everywhere), every primary at site 1.
    ///
    /// # Errors
    ///
    /// Returns what failed; nothing is left running.
    pub fn start(
        workload: Workload,
        seed: u64,
        opts: SessionOpts,
        clock: Instant,
    ) -> Result<Session, String> {
        let started = Instant::now();
        let addrs: Vec<SocketAddr> = SITES
            .iter()
            .map(|_| reserve_addr())
            .collect::<Result<_, _>>()?;
        let addr_of = |site: u32| addrs[(site - 1) as usize];
        let layout = workload.layout();
        let harness_sites: Vec<u32> = SITES
            .into_iter()
            .filter(|&s| !(workload.daemon_primary() && s == 1))
            .collect();

        let mut session = Session {
            workload,
            clock,
            nodes: Vec::new(),
            meshes: Vec::new(),
            sinks: Vec::new(),
            daemon: None,
            setup_s: 0.0,
        };
        let duel = Arc::new(AtomicU64::new(0));
        for &id in &harness_sites {
            let sink = if opts.sink {
                TraceSink::enabled(id, SINK_CAPACITY)
            } else {
                TraceSink::disabled()
            };
            let mut cfg = TcpConfig::new(SiteId(id), addr_of(id)).trace(sink.clone());
            for peer in SITES.into_iter().filter(|&p| p != id) {
                cfg = cfg.peer(SiteId(peer), addr_of(peer));
            }
            let mesh = TcpMesh::start(cfg).map_err(|e| format!("site {id}: bind: {e}"))?;

            let mut site = Site::new(SiteId(id));
            site.set_trace_sink(sink.clone());
            let mut names = Vec::new();
            for (j, kind) in layout.iter().enumerate() {
                let created = match kind {
                    ObjKind::Int => site.create_int(0),
                    ObjKind::Str => site.create_str(""),
                    ObjKind::List => site.create_list(),
                };
                assert_eq!(created, ObjectName::new(SiteId(id), j as u64));
                // The post-state of a committed join, as the daemon wires
                // its counter: one replica per site, same graph everywhere.
                let replicas: Vec<NodeRef> = SITES
                    .iter()
                    .map(|&s| NodeRef::new(SiteId(s), ObjectName::new(SiteId(s), j as u64)))
                    .collect();
                site.install_replica_graph(created, wiring::replica_graph_over(&replicas));
                names.push(created);
            }
            let watched = workload.watched(id);
            if !watched.is_empty() {
                let names: Vec<ObjectName> = watched.iter().map(|&j| names[j]).collect();
                site.attach_view(Box::new(NoopView), &names, ViewMode::Optimistic);
                site.attach_view(Box::new(NoopView), &names, ViewMode::Pessimistic);
            }

            let shared = Arc::new(NodeShared::default());
            let (cmds, cmd_rx) = mpsc::channel();
            let node = Node::new(
                NodeConfig {
                    clock,
                    layout: layout.clone(),
                    watched,
                    pacing: workload.pacing(id, &duel),
                    next_op: workload.generator(id, seed),
                    traced: opts.traced,
                },
                site,
                mesh.endpoint(),
                Arc::clone(&shared),
                cmd_rx,
            );
            let thread = std::thread::Builder::new()
                .name(format!("e2e-node-{id}"))
                .spawn(move || node.run())
                .map_err(|e| format!("site {id}: spawning node thread: {e}"))?;
            session.meshes.push(mesh);
            session.sinks.push(sink);
            session.nodes.push(NodeHandle {
                site: id,
                shared,
                cmds,
                thread,
            });
        }
        if workload.daemon_primary() {
            let peers: Vec<(u32, SocketAddr)> =
                harness_sites.iter().map(|&s| (s, addr_of(s))).collect();
            session.daemon = Some(Daemon::spawn(
                addr_of(1),
                &peers,
                DAEMON_SENTINEL,
                Duration::from_secs(170),
            )?);
        }

        if let Err(e) = session.verify() {
            session.abandon();
            return Err(e);
        }
        session.setup_s = started.elapsed().as_secs_f64();
        Ok(session)
    }

    fn node(&self, site: u32) -> &NodeHandle {
        self.nodes
            .iter()
            .find(|n| n.site == site)
            .expect("a harness site")
    }

    /// Polls every harness site's committed state until `done` accepts it.
    fn await_state(
        &self,
        what: &str,
        deadline: Instant,
        done: impl Fn(&[Probe]) -> bool,
    ) -> Result<Vec<Probe>, String> {
        loop {
            let probes = self.probe_all()?;
            if done(&probes) {
                return Ok(probes);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{}: {what}: not reached in time",
                    self.workload.name()
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Submits the set-up gestures stage by stage; a stage is done when
    /// every harness site's committed state is what its gestures imply.
    fn verify(&self) -> Result<(), String> {
        let name = self.workload.name();
        let mut expected = initial_state(&self.workload.layout());
        for stage in self.workload.setup_stages() {
            for (site, op) in stage {
                apply(&mut expected, &op);
                self.node(site)
                    .cmds
                    .send(Cmd::Submit(op))
                    .map_err(|_| format!("{name}: site {site} is gone"))?;
            }
            self.await_state(
                "a set-up gesture committed at every site",
                Instant::now() + SETUP_STEP_TIMEOUT,
                |probes| probes.iter().all(|p| p.values == expected),
            )?;
        }
        for (h, p) in self.nodes.iter().zip(self.probe_all()?) {
            if !p.primaries_at_1 {
                return Err(format!(
                    "{name}: site {}: a primary copy is not at site 1",
                    h.site
                ));
            }
        }
        Ok(())
    }

    fn probe_all(&self) -> Result<Vec<Probe>, String> {
        let replies: Vec<_> = self
            .nodes
            .iter()
            .map(|h| {
                let (tx, rx) = mpsc::channel();
                h.cmds
                    .send(Cmd::Probe(tx))
                    .map_err(|_| format!("site {} is gone", h.site))?;
                Ok(rx)
            })
            .collect::<Result<_, String>>()?;
        replies
            .into_iter()
            .map(|rx| {
                rx.recv_timeout(Duration::from_secs(10))
                    .map_err(|_| "a node did not answer a probe within 10 s".to_string())
            })
            .collect()
    }

    fn edge(&self) -> Result<Edge, String> {
        Ok(Edge {
            probes: self.probe_all()?,
            transport: sum_transport(&self.meshes),
            cpu_ns: crate::measure::process_cpu_ns(),
            t_ns: self.clock.elapsed().as_nanos() as u64,
        })
    }

    fn set_phase(&self, p: u8) {
        for h in &self.nodes {
            h.shared.phase.store(p, Ordering::Release);
        }
    }

    /// Runs the workload for `warmup` (discarded) and then `measure`, and
    /// stops submitting. Returns the edges of the measured window.
    ///
    /// # Errors
    ///
    /// Fails if a node stops answering.
    pub fn run(&self, warmup: Duration, measure: Duration) -> Result<(Edge, Edge), String> {
        let run_start = self.clock.elapsed() + Duration::from_millis(2);
        for h in &self.nodes {
            h.shared
                .run_start_ns
                .store(run_start.as_nanos() as u64, Ordering::Release);
        }
        self.set_phase(phase::RUN);
        std::thread::sleep(warmup);
        let begin = self.edge()?;
        std::thread::sleep(measure);
        let end = self.edge()?;
        self.set_phase(phase::HOLD);
        // A node that read RUN just before may still submit one gesture;
        // the drain must not start counting until every node has read HOLD.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self
            .nodes
            .iter()
            .any(|h| h.shared.phase_seen.load(Ordering::Acquire) != phase::HOLD)
        {
            if Instant::now() > deadline {
                return Err("a node did not leave the RUN phase within 10 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((begin, end))
    }

    /// Drains, reads the final state, ends the daemon cleanly, stops the
    /// nodes and the meshes, and hands back everything recorded.
    ///
    /// # Errors
    ///
    /// Fails if a node or the daemon does not finish; nothing is left
    /// running either way.
    pub fn finish(mut self, begin: Edge, end: Edge) -> Result<SessionData, String> {
        let final_probes = match self.drain_and_close().and_then(|()| self.probe_all()) {
            Ok(probes) => probes,
            Err(e) => {
                self.abandon();
                return Err(e);
            }
        };
        // Read before the daemon exits: its closing sockets are not faults.
        let final_transport = sum_transport(&self.meshes);
        let sink_dropped = self.sinks.iter().map(TraceSink::dropped).sum();
        // The daemon lingers before it exits; the nodes keep pumping.
        let daemon = self
            .daemon
            .take()
            .map(|d| d.finish(Duration::from_secs(20)))
            .transpose();
        let (workload, setup_s) = (self.workload, self.setup_s);
        let logs = self.teardown();
        Ok(SessionData {
            workload,
            logs,
            begin,
            end,
            final_probes,
            final_transport,
            sink_dropped,
            daemon: daemon?,
            setup_s,
        })
    }

    /// Waits for every gesture to be decided and every site to hold the
    /// same committed state; in `daemon3`, then adds the value that lets
    /// the daemon finish by itself.
    fn drain_and_close(&self) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let undecided = |s: &Session| {
            s.nodes
                .iter()
                .any(|h| h.shared.outstanding.load(Ordering::Acquire) > 0)
        };
        while undecided(self) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(500));
        }
        // Every origin now holds its own last commit, so equal states mean
        // every commit has arrived everywhere. Gestures still undecided, or
        // states still apart, at the deadline are not an error here: the
        // result counts the former and the checks report the latter.
        let same = |probes: &[Probe]| probes.windows(2).all(|w| w[0].values == w[1].values);
        let Ok(probes) = self.await_state("converged", deadline, same) else {
            return Ok(());
        };
        if self.daemon.is_some() {
            let ObjValue::Int(Some(count)) = probes[0].values[0] else {
                return Err("daemon3: the counter has no committed value".into());
            };
            let op = crate::node::Op::Add {
                obj: 0,
                by: DAEMON_SENTINEL,
            };
            self.node(2)
                .cmds
                .send(Cmd::Submit(op))
                .map_err(|_| "daemon3: site 2 is gone".to_string())?;
            let want = ObjValue::Int(Some(count + DAEMON_SENTINEL));
            self.await_state(
                "the closing write committed at every site",
                Instant::now() + SETUP_STEP_TIMEOUT,
                |probes| probes.iter().all(|p| p.values[0] == want),
            )?;
        }
        Ok(())
    }

    /// Tears a session down without measuring anything (set-up timing
    /// repeats, and error paths).
    pub fn abandon(mut self) {
        if let Some(mut d) = self.daemon.take() {
            d.kill();
        }
        self.teardown();
    }

    fn teardown(self) -> Vec<NodeLog> {
        self.set_phase(phase::STOP);
        let logs = self
            .nodes
            .into_iter()
            .map(|h| h.thread.join().expect("node thread panicked"))
            .collect();
        // Each shutdown joins link threads that wake at most every
        // heartbeat interval; do the three side by side.
        std::thread::scope(|s| {
            for mut mesh in self.meshes {
                s.spawn(move || mesh.shutdown());
            }
        });
        logs
    }
}
