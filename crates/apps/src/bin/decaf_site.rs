//! `decaf-site`: one DECAF replica as a standalone OS process on the TCP
//! mesh — the deployment shape of the paper's prototype (one JVM per user,
//! §5.2), reproduced over [`decaf_net::tcp`].
//!
//! Every process hosts one [`Site`], one shared replicated integer counter
//! (pre-wired across the mesh from the peer table, exactly the state a
//! committed join would have produced), and a [`Node`] — the site, its
//! commit log and the one loop that drives them — pumped against the
//! socket mesh.
//!
//! ```text
//! decaf-site --site 1 --listen 127.0.0.1:7101 \
//!            --peer 2=127.0.0.1:7102 --peer 3=127.0.0.1:7103 \
//!            --txns 5 [--on-fail-txns 2] [--linger-ms 1500]
//! ```
//!
//! Phases:
//!
//! 1. Submit `--txns` increment transactions, paced on the previous
//!    outcome, and wait until the committed counter reaches
//!    `txns × sites` (override: `--phase1-target`). Prints
//!    `phase1-done value=V`.
//! 2. If `--on-fail-txns K` is set: on a transport `SiteFailed`
//!    notification the failure is handed to the engine (§3.4 recovery),
//!    `site-failed S` is printed, K more increments are submitted, and the
//!    process waits for `phase1 + K × survivors` (override:
//!    `--final-target`). Prints `final value=V`.
//!
//! After finishing it keeps pumping for `--linger-ms` so slower peers can
//! still converge, then exits 0. Exit codes: 0 done, 1 timeout, 2 usage.
//!
//! Observability: `--trace-out PATH` enables structured tracing (engine and
//! transport share one sink), dumps the retained events as JSONL to `PATH`
//! on exit, and — together with `--summary-every-ms MS` — prints a periodic
//! one-line `trace-summary` histogram digest. Analyze the dump with
//! `decaf-trace-summarize`.
//!
//! Durability: `--data-dir DIR` makes the site crash-durable. On a fresh
//! directory it writes a baseline checkpoint to `DIR/wal.log` and then
//! appends every committed transaction, and fsyncs, before its commit
//! broadcast leaves the process: one fsync per turn of the node loop that
//! appended, however many commits the turn appended. On a directory holding an existing log
//! it *recovers*: newest checkpoint + committed suffix (any torn tail is
//! truncated to the longest valid record prefix; a log in another format
//! version is refused, exit 2, and left untouched), prints
//! `recovered wal-records=N value=V`, and runs the §3.4 rejoin/catch-up
//! protocol against its peers (`rejoin peers=N`). The end-of-run
//! `run-summary` gains WAL append counts and an fsync-latency histogram
//! (`wal-summary ... fsync-p50-us=`: one sample per sync, not per append),
//! and the final `exit value=V` line reports the committed counter at
//! process exit — after lingering, so converged peers print identical
//! values.
//!
//! Live telemetry: `--metrics-listen ADDR` starts a zero-dependency HTTP
//! responder thread serving `GET /metrics` (Prometheus text exposition
//! 0.0.4: every engine/transport counter plus the live latency histograms
//! as cumulative buckets, all labelled `site="N"`) and `GET /healthz`
//! (200 `ok` when serving, 503 `rejoining` while the §3.4 rejoin/catch-up
//! protocol is still in flight after a recovery). Prints
//! `metrics listening on ADDR` once bound; scrape with
//! `curl http://ADDR/metrics`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use decaf_core::{
    wiring, CommitLog, EngineEvent, NodeRef, ObjectName, Site, SiteConfig, SiteStats, TraceSink,
    Transaction, TransportStats, TxnCtx, TxnError, TxnHandle,
};
use decaf_net::tcp::{TcpConfig, TcpMesh};
use decaf_net::Node;
use decaf_trace::{metrics::PromText, Histogram};
use decaf_vt::SiteId;

/// The daemon's workload: increment the shared counter by one.
struct Incr(ObjectName);

impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

/// Creates the shared counter and pre-wires its replica graph from the
/// shared peer table: replica i is the first object created at site i,
/// so every process derives the identical graph.
fn init_counter(site: &mut Site, obj: ObjectName, ids: &[u32]) {
    let created = site.create_int(0);
    assert_eq!(created, obj, "first object at each site is (site, seq 0)");
    if ids.len() >= 2 {
        let nodes: Vec<NodeRef> = ids
            .iter()
            .map(|&i| NodeRef::new(SiteId(i), ObjectName::new(SiteId(i), 0)))
            .collect();
        site.install_replica_graph(obj, wiring::replica_graph_over(&nodes));
    }
}

// ---------------------------------------------------------------------------
// Live telemetry: the `/metrics` + `/healthz` plane
// ---------------------------------------------------------------------------

/// Everything the scrape plane exposes, refreshed by the driver loop each
/// iteration. One mutex, copied wholesale: the structs are plain counters
/// and fixed-size histograms, so a refresh is a few hundred bytes.
#[derive(Default)]
struct Telemetry {
    engine: SiteStats,
    transport: TransportStats,
    committed: i64,
    rejoining: bool,
    recovered: bool,
    /// (commit latency ns, view staleness ns, queue depth) from the sink.
    commit_lat: Histogram,
    view_lat: Histogram,
    queue_depth: Histogram,
    fsync_us: Histogram,
    wal_appends: u64,
    wal_bytes: u64,
    durable: bool,
}

/// Renders the Prometheus text exposition from one telemetry snapshot.
/// Every sample carries a `site` label so fleet scrapes aggregate cleanly.
fn render_metrics(site: u32, t: &Telemetry) -> String {
    let site_label = site.to_string();
    let l: &[(&str, &str)] = &[("site", &site_label)];
    let mut p = PromText::new();
    let e = &t.engine;
    p.counter(
        "decaf_txns_started_total",
        "Transactions submitted at this site.",
        l,
        e.txns_started,
    );
    p.counter(
        "decaf_commits_total",
        "Transactions committed (originated here).",
        l,
        e.txns_committed,
    );
    p.counter(
        "decaf_txns_aborted_conflict_total",
        "Conflict aborts of local transactions.",
        l,
        e.txns_aborted_conflict,
    );
    p.counter(
        "decaf_txns_aborted_user_total",
        "Application aborts (no retry).",
        l,
        e.txns_aborted_user,
    );
    p.counter(
        "decaf_retries_total",
        "Automatic re-executions performed.",
        l,
        e.retries,
    );
    p.counter(
        "decaf_opt_notifications_total",
        "Update notifications to optimistic views.",
        l,
        e.opt_notifications,
    );
    p.counter(
        "decaf_opt_commits_total",
        "Commit notifications to optimistic views.",
        l,
        e.opt_commits,
    );
    p.counter(
        "decaf_pess_notifications_total",
        "Update notifications to pessimistic views.",
        l,
        e.pess_notifications,
    );
    p.counter(
        "decaf_lost_updates_total",
        "Lost updates on optimistic views (paper 5.1.2).",
        l,
        e.lost_updates,
    );
    p.counter(
        "decaf_update_inconsistencies_total",
        "Optimistic updates whose transaction later aborted.",
        l,
        e.update_inconsistencies,
    );
    p.counter(
        "decaf_read_inconsistencies_total",
        "Straggler-after-notification events on optimistic views.",
        l,
        e.read_inconsistencies,
    );
    p.counter(
        "decaf_msgs_sent_total",
        "Protocol messages sent.",
        l,
        e.msgs_sent,
    );
    p.counter(
        "decaf_snapshot_requests_retired_total",
        "Snapshot CONFIRM-READ requests retired before they left the site.",
        l,
        e.snapshot_requests_retired,
    );
    p.counter(
        "decaf_snapshot_reads_sent_total",
        "Read items carried by snapshot CONFIRM-READ requests that left the site.",
        l,
        e.snapshot_reads_sent,
    );
    p.counter(
        "decaf_snapshot_reservations_merged_total",
        "Snapshot reads reserved by widening a reservation from the same lower bound.",
        l,
        e.snapshot_reservations_merged,
    );
    p.counter(
        "decaf_msgs_received_total",
        "Protocol messages received.",
        l,
        e.msgs_received,
    );
    p.counter(
        "decaf_gc_discarded_total",
        "History entries discarded by GC.",
        l,
        e.gc_discarded,
    );
    p.counter(
        "decaf_snapshot_reruns_total",
        "Snapshot re-runs after denied or invalidated guesses.",
        l,
        e.snapshot_reruns,
    );
    p.counter(
        "decaf_trace_events_dropped_total",
        "Trace events lost to ring overflow or sink contention.",
        l,
        e.trace_events_dropped + t.transport.trace_events_dropped,
    );
    let n = &t.transport;
    p.counter(
        "decaf_transport_bytes_in_total",
        "Payload + header bytes received.",
        l,
        n.bytes_in,
    );
    p.counter(
        "decaf_transport_bytes_out_total",
        "Payload + header bytes sent.",
        l,
        n.bytes_out,
    );
    p.counter(
        "decaf_transport_frames_in_total",
        "Well-formed frames received.",
        l,
        n.frames_in,
    );
    p.counter(
        "decaf_transport_frames_out_total",
        "Frames sent.",
        l,
        n.frames_out,
    );
    p.counter(
        "decaf_transport_frames_rejected_total",
        "Malformed frames rejected.",
        l,
        n.frames_rejected,
    );
    p.counter(
        "decaf_transport_reconnects_total",
        "Successful reconnections after a broken link.",
        l,
        n.reconnects,
    );
    p.counter(
        "decaf_transport_heartbeats_sent_total",
        "Keepalive frames sent.",
        l,
        n.heartbeats_sent,
    );
    p.counter(
        "decaf_transport_heartbeat_misses_total",
        "Heartbeat-silence expiries observed.",
        l,
        n.heartbeat_misses,
    );
    p.counter(
        "decaf_transport_peers_failed_total",
        "Peers declared fail-stopped (paper 3.4).",
        l,
        n.peers_failed,
    );
    p.counter(
        "decaf_transport_sends_dropped_total",
        "Outbound messages dropped (queue full or peer failed).",
        l,
        n.sends_dropped,
    );
    p.counter(
        "decaf_transport_frames_coalesced_total",
        "Envelopes that rode along in a Batch frame.",
        l,
        n.frames_coalesced,
    );
    p.counter(
        "decaf_transport_bytes_saved_total",
        "Frame-header bytes saved by coalescing.",
        l,
        n.bytes_saved,
    );
    p.gauge(
        "decaf_transport_queue_depth_hwm",
        "High-water mark of any per-peer outbound queue.",
        l,
        n.queue_depth_hwm,
    );
    p.gauge(
        "decaf_committed_value",
        "Committed shared-counter value.",
        l,
        t.committed.max(0) as u64,
    );
    p.gauge(
        "decaf_rejoining",
        "1 while the 3.4 rejoin/catch-up protocol is in flight.",
        l,
        u64::from(t.rejoining),
    );
    p.gauge(
        "decaf_recovered",
        "1 if this process recovered from a WAL at startup.",
        l,
        u64::from(t.recovered),
    );
    p.histogram(
        "decaf_commit_latency_ns",
        "TxnBegin to Commit latency at the origin.",
        l,
        &t.commit_lat,
    );
    p.histogram(
        "decaf_view_staleness_ns",
        "ViewOptimistic to ViewCommitted staleness.",
        l,
        &t.view_lat,
    );
    p.histogram(
        "decaf_queue_depth",
        "Sampled transport queue depths.",
        l,
        &t.queue_depth,
    );
    if t.durable {
        p.counter(
            "decaf_wal_appends_total",
            "Commit records fsynced to the WAL.",
            l,
            t.wal_appends,
        );
        p.gauge(
            "decaf_wal_bytes",
            "Current WAL length in bytes.",
            l,
            t.wal_bytes,
        );
        p.histogram(
            "decaf_wal_fsync_us",
            "WAL fsync latency, one sample per sync (a sync covers every commit a loop turn appended).",
            l,
            &t.fsync_us,
        );
    }
    p.finish()
}

/// One scrape connection: read the request head, answer `/metrics`,
/// `/healthz`, or 404, close. HTTP/1.0-style one-shot responses keep the
/// responder free of keep-alive state.
fn serve_scrape(mut conn: std::net::TcpStream, site: u32, shared: &Mutex<Telemetry>) {
    let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    // Read until the blank line ending the request head (or give up).
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let path = path.split('?').next().unwrap_or("");

    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => {
                let t = shared.lock().expect("telemetry lock");
                (
                    "200 OK",
                    decaf_trace::metrics::CONTENT_TYPE,
                    render_metrics(site, &t),
                )
            }
            "/healthz" => {
                let t = shared.lock().expect("telemetry lock");
                let body = format!(
                    "{}\nsite {site}\ncommitted {}\nrecovered {}\n",
                    if t.rejoining { "rejoining" } else { "ok" },
                    t.committed,
                    t.recovered,
                );
                // A rejoining site is alive but not yet caught up: 503 so
                // load balancers hold traffic until catch-up completes.
                let status = if t.rejoining {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                };
                (status, "text/plain; charset=utf-8", body)
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let _ = write!(
        conn,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = conn.write_all(body.as_bytes());
    let _ = conn.shutdown(std::net::Shutdown::Both);
}

/// Binds the scrape listener and serves it from one detached thread; the
/// thread dies with the process. Returns the bound address.
fn start_metrics_plane(
    addr: SocketAddr,
    site: u32,
    shared: Arc<Mutex<Telemetry>>,
) -> std::io::Result<SocketAddr> {
    let listener = std::net::TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name(format!("metrics-{site}"))
        .spawn(move || {
            for conn in listener.incoming() {
                match conn {
                    Ok(conn) => serve_scrape(conn, site, &shared),
                    Err(_) => continue,
                }
            }
        })
        .map(|_| bound)
}

/// Events the trace ring retains (`--trace-out`, `--summary-every-ms`);
/// the oldest are dropped beyond it.
const TRACE_RING: usize = 65_536;

#[derive(Debug)]
struct Args {
    site: u32,
    listen: SocketAddr,
    peers: BTreeMap<u32, SocketAddr>,
    txns: u64,
    on_fail_txns: u64,
    phase1_target: Option<i64>,
    final_target: Option<i64>,
    linger_ms: u64,
    max_runtime_ms: u64,
    trace_out: Option<PathBuf>,
    summary_every_ms: u64,
    data_dir: Option<PathBuf>,
    metrics_listen: Option<SocketAddr>,
}

fn usage() -> ! {
    eprintln!(
        "usage: decaf-site --site <id> --listen <addr> [--peer <id>=<addr>]... \\\n\
         \x20                [--txns N] [--on-fail-txns K] [--phase1-target V] \\\n\
         \x20                [--final-target V] [--linger-ms MS] [--max-runtime-ms MS] \\\n\
         \x20                [--trace-out PATH] [--summary-every-ms MS] \\\n\
         \x20                [--data-dir DIR] [--metrics-listen ADDR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut site = None;
    let mut listen = None;
    let mut peers = BTreeMap::new();
    let mut txns = 0u64;
    let mut on_fail_txns = 0u64;
    let mut phase1_target = None;
    let mut final_target = None;
    let mut linger_ms = 1500u64;
    let mut max_runtime_ms = 120_000u64;
    let mut trace_out = None;
    let mut summary_every_ms = 0u64;
    let mut data_dir = None;
    let mut metrics_listen = None;

    /// A flag's value, or the usage error if it does not parse.
    fn parsed<T: std::str::FromStr>(v: &str) -> T {
        v.parse().unwrap_or_else(|_| usage())
    }

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--site" => site = Some(parsed(&value())),
            "--listen" => listen = Some(parsed(&value())),
            "--peer" => {
                let v = value();
                let Some((id, addr)) = v.split_once('=') else {
                    usage();
                };
                peers.insert(parsed(id), parsed(addr));
            }
            "--txns" => txns = parsed(&value()),
            "--on-fail-txns" => on_fail_txns = parsed(&value()),
            "--phase1-target" => phase1_target = Some(parsed(&value())),
            "--final-target" => final_target = Some(parsed(&value())),
            "--linger-ms" => linger_ms = parsed(&value()),
            "--max-runtime-ms" => max_runtime_ms = parsed(&value()),
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            "--summary-every-ms" => summary_every_ms = parsed(&value()),
            "--data-dir" => data_dir = Some(PathBuf::from(value())),
            "--metrics-listen" => metrics_listen = Some(parsed(&value())),
            _ => usage(),
        }
    }
    let (Some(site), Some(listen)) = (site, listen) else {
        usage();
    };
    Args {
        site,
        listen,
        peers,
        txns,
        on_fail_txns,
        phase1_target,
        final_target,
        linger_ms,
        max_runtime_ms,
        trace_out,
        summary_every_ms,
        data_dir,
        metrics_listen,
    }
}

fn main() {
    let args = parse_args();
    let site_id = SiteId(args.site);

    // --- tracing: one sink shared by the engine and the transport ---
    let trace = if args.trace_out.is_some() || args.summary_every_ms > 0 {
        TraceSink::enabled(args.site, TRACE_RING)
    } else {
        TraceSink::disabled()
    };

    // --- engine: one site, one shared counter, pre-wired replicas ---
    // With --data-dir the site is durable: recover from an existing WAL
    // (restart), or initialize a fresh log with a baseline checkpoint.
    let obj = ObjectName::new(site_id, 0); // first object at each site
    let mut ids: Vec<u32> = args.peers.keys().copied().collect();
    ids.push(args.site);
    ids.sort_unstable();
    ids.dedup();
    let n_sites = ids.len() as i64;
    let site_cfg = SiteConfig {
        durable: args.data_dir.is_some(),
        ..SiteConfig::default()
    };
    let mut wal: Option<CommitLog> = None;
    let mut recovered = false;
    let mut site = if let Some(dir) = &args.data_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("decaf-site {}: creating {}: {e}", args.site, dir.display());
            std::process::exit(2);
        }
        if dir.join(CommitLog::FILE_NAME).exists() {
            let (rec, log) = match Site::recover(dir, site_cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "decaf-site {}: recovering from {}: {e}",
                        args.site,
                        dir.display()
                    );
                    std::process::exit(2);
                }
            };
            if rec.site.id() != site_id {
                eprintln!(
                    "decaf-site {}: {} belongs to site {}",
                    args.site,
                    dir.display(),
                    rec.site.id().0
                );
                std::process::exit(2);
            }
            wal = Some(log);
            recovered = true;
            let site = rec.site;
            // Contract line for the crash-restart integration test.
            println!(
                "recovered wal-records={} value={}",
                rec.replayed,
                site.read_int_committed(obj).unwrap_or(0)
            );
            site
        } else {
            let mut site = Site::with_config(site_id, site_cfg);
            init_counter(&mut site, obj, &ids);
            let cp = match site.drain_and_checkpoint() {
                Ok(cp) => cp,
                Err(e) => {
                    eprintln!("decaf-site {}: baseline checkpoint: {e:?}", args.site);
                    std::process::exit(2);
                }
            };
            let mut log = match CommitLog::open(dir) {
                Ok((log, _scan)) => log,
                Err(e) => {
                    eprintln!("decaf-site {}: opening {}: {e}", args.site, dir.display());
                    std::process::exit(2);
                }
            };
            if let Err(e) = log.append_checkpoint(&cp) {
                eprintln!("decaf-site {}: writing baseline checkpoint: {e}", args.site);
                std::process::exit(2);
            }
            wal = Some(log);
            site
        }
    } else {
        let mut site = Site::new(site_id);
        init_counter(&mut site, obj, &ids);
        site
    };
    site.set_trace_sink(trace.clone());
    let mut node = match wal {
        Some(log) => Node::durable(site, log),
        None => Node::new(site),
    };

    // --- transport: TCP mesh over the peer table ---
    let mut cfg = TcpConfig::new(site_id, args.listen).trace(trace.clone());
    for (&id, &addr) in &args.peers {
        cfg = cfg.peer(SiteId(id), addr);
    }
    let mut mesh = match TcpMesh::start(cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("decaf-site {}: cannot bind {}: {e}", args.site, args.listen);
            std::process::exit(2);
        }
    };
    println!(
        "decaf-site {} listening on {}",
        args.site,
        mesh.local_addr()
    );
    let endpoint = mesh.endpoint();

    // A recovered site announces itself and catches up before (well,
    // while) doing new work: gestures submitted mid-rejoin are deferred
    // by the engine until every peer has acknowledged.
    if recovered {
        let peers = node.site.begin_rejoin();
        println!("rejoin peers={peers}");
    }

    // --- telemetry plane: live /metrics + /healthz scrape endpoint ---
    let telemetry = Arc::new(Mutex::new(Telemetry {
        recovered,
        rejoining: node.site.is_rejoining(),
        durable: args.data_dir.is_some(),
        ..Telemetry::default()
    }));
    if let Some(addr) = args.metrics_listen {
        match start_metrics_plane(addr, args.site, Arc::clone(&telemetry)) {
            Ok(bound) => println!("metrics listening on {bound}"),
            Err(e) => {
                eprintln!("decaf-site {}: cannot bind metrics {addr}: {e}", args.site);
                std::process::exit(2);
            }
        }
    }

    let phase1_target = args.phase1_target.unwrap_or(args.txns as i64 * n_sites);
    let start = Instant::now();
    let max_runtime = Duration::from_millis(args.max_runtime_ms);

    let mut last: Option<TxnHandle> = None;
    let mut phase1_submitted = 0u64;
    let mut phase2_submitted = 0u64;
    let mut failed_sites: Vec<SiteId> = Vec::new();
    let mut phase1_done = args.txns == 0 && phase1_target == 0;
    let mut finished_at: Option<Instant> = None;
    let summary_every = Duration::from_millis(args.summary_every_ms);
    let mut next_summary = start + summary_every;
    loop {
        if start.elapsed() > max_runtime {
            eprintln!(
                "decaf-site {}: timeout after {:?}; committed={:?} transport: {}",
                args.site,
                start.elapsed(),
                node.site.read_int_committed(obj),
                mesh.stats()
            );
            std::process::exit(1);
        }

        // Submit work, paced like a user: next gesture once the previous
        // transaction's outcome is decided.
        let prior_done = last
            .map(|h| node.site.txn_outcome(h).is_some())
            .unwrap_or(true);
        if prior_done && finished_at.is_none() {
            if phase1_submitted < args.txns {
                last = Some(node.site.execute(Box::new(Incr(obj))));
                phase1_submitted += 1;
            } else if phase1_done
                && !failed_sites.is_empty()
                && phase2_submitted < args.on_fail_txns
            {
                last = Some(node.site.execute(Box::new(Incr(obj))));
                phase2_submitted += 1;
            }
        }

        // One turn of the node loop. A durable node appends every captured
        // commit and fsyncs once before any of their broadcasts leave the
        // process: a crash can tear the file tail, never lose an
        // acknowledged commit. The 1 ms wait for the first event doubles as
        // loop pacing.
        let pumped = match node.pump(&endpoint, Duration::from_millis(1)) {
            Ok(pumped) => pumped,
            Err(e) => {
                eprintln!("decaf-site {}: wal append: {e}", args.site);
                std::process::exit(1);
            }
        };
        for event in pumped.events {
            if let EngineEvent::SiteFailureHandled { failed } = event {
                println!("site-failed {}", failed.0);
                failed_sites.push(failed);
            }
        }
        let (wal_appends, fsync_hist) = node.wal_stats();

        // Refresh the scrape plane. Skipped entirely when no listener is
        // up — the lock is uncontended then, but why pay the copies.
        if args.metrics_listen.is_some() {
            let (commit_lat, view_lat, queue_depth) = trace.histograms();
            let mut t = telemetry.lock().expect("telemetry lock");
            t.engine = node.site.stats();
            t.transport = mesh.stats();
            t.committed = node.site.read_int_committed(obj).unwrap_or(0);
            t.rejoining = node.site.is_rejoining();
            t.commit_lat = commit_lat;
            t.view_lat = view_lat;
            t.queue_depth = queue_depth;
            t.fsync_us = fsync_hist.clone();
            t.wal_appends = wal_appends;
            t.wal_bytes = node.log().map_or(0, CommitLog::len_bytes);
        }

        // Periodic one-line histogram digest.
        if args.summary_every_ms > 0 && Instant::now() >= next_summary {
            println!("trace-summary {}", trace.summary());
            next_summary += summary_every;
        }

        // Phase transitions.
        let committed = node.site.read_int_committed(obj).unwrap_or(0);
        if !phase1_done && committed >= phase1_target {
            phase1_done = true;
            println!("phase1-done value={committed}");
        }
        if phase1_done && finished_at.is_none() {
            let survivors = n_sites - failed_sites.len() as i64;
            let final_target = args
                .final_target
                .unwrap_or(phase1_target + args.on_fail_txns as i64 * survivors);
            let phase2_quota_met =
                args.on_fail_txns == 0 || (!failed_sites.is_empty() && committed >= final_target);
            if phase2_quota_met && committed >= final_target {
                finished_at = Some(Instant::now());
                // One structured end-of-run summary. `final value=` (and
                // `phase1-done value=` / `site-failed` above) are a stable
                // contract the integration tests grep for.
                println!("final value={committed}");
                let t = mesh.stats();
                println!(
                    "run-summary site={} committed={committed} elapsed-ms={} failed-peers={} \
                     coalesced={} bytes-saved={}",
                    args.site,
                    start.elapsed().as_millis(),
                    failed_sites.len(),
                    t.frames_coalesced,
                    t.bytes_saved,
                );
                if let Some(log) = node.log() {
                    println!(
                        "wal-summary appends={wal_appends} bytes={} \
                         fsync-p50-us={} fsync-p99-us={} fsync-max-us={}",
                        log.len_bytes(),
                        fsync_hist.quantile(0.50),
                        fsync_hist.quantile(0.99),
                        fsync_hist.max(),
                    );
                }
                println!("transport: {}", mesh.stats());
                println!("engine: {}", node.site.stats());
                if trace.is_enabled() {
                    println!("trace-summary {}", trace.summary());
                }
            }
        }

        // Linger after finishing so slower peers can still converge off us.
        if let Some(at) = finished_at {
            if at.elapsed() > Duration::from_millis(args.linger_ms) {
                break;
            }
        }
    }
    // The committed counter at exit, after lingering: peers that stayed
    // up long enough print identical values here — the convergence
    // assertion the crash-restart integration test greps for.
    println!(
        "exit value={}",
        node.site.read_int_committed(obj).unwrap_or(0)
    );
    mesh.shutdown();

    // Dump the retained trace after the mesh threads have joined, so the
    // JSONL includes every transport event up to teardown.
    if let Some(path) = &args.trace_out {
        match std::fs::File::create(path) {
            Ok(mut f) => {
                if let Err(e) = trace.write_jsonl(&mut f) {
                    eprintln!("decaf-site {}: writing {}: {e}", args.site, path.display());
                } else {
                    println!(
                        "trace-out {} events={} dropped={}",
                        path.display(),
                        trace.snapshot().len(),
                        trace.dropped(),
                    );
                }
            }
            Err(e) => {
                eprintln!("decaf-site {}: creating {}: {e}", args.site, path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telemetry() -> Telemetry {
        let mut t = Telemetry::default();
        t.engine.txns_started = 12;
        t.engine.txns_committed = 10;
        t.transport.frames_out = 40;
        t.committed = 10;
        t.durable = true;
        t.wal_appends = 10;
        t.wal_bytes = 2048;
        t.commit_lat.record(1_500_000);
        t.commit_lat.record(9_000_000);
        t
    }

    /// Every line of the exposition is a comment or `name{labels} value`,
    /// histograms end with an `+Inf` bucket matching `_count`, and the
    /// counter the CI gate scrapes is present with the site label.
    #[test]
    fn metrics_exposition_is_well_formed() {
        let body = render_metrics(3, &sample_telemetry());
        assert!(body.contains("# TYPE decaf_commits_total counter"));
        assert!(body.contains("decaf_commits_total{site=\"3\"} 10"));
        assert!(body.contains("decaf_commit_latency_ns_bucket{site=\"3\",le=\"+Inf\"} 2"));
        assert!(body.contains("decaf_commit_latency_ns_count{site=\"3\"} 2"));
        assert!(body.contains("decaf_wal_appends_total{site=\"3\"} 10"));
        assert!(body.ends_with('\n'));
        for line in body.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name: {line}"
            );
        }
        // Durability off: the WAL family disappears rather than lying 0.
        let mut t = sample_telemetry();
        t.durable = false;
        assert!(!render_metrics(3, &t).contains("decaf_wal_"));
    }

    /// Boots the responder thread on an ephemeral port and scrapes it the
    /// way the CI gate does: plain HTTP over a TcpStream.
    #[test]
    fn metrics_plane_serves_scrapes() {
        use std::io::{Read as _, Write as _};

        let shared = Arc::new(Mutex::new(sample_telemetry()));
        let bound = start_metrics_plane("127.0.0.1:0".parse().unwrap(), 7, Arc::clone(&shared))
            .expect("ephemeral bind");

        let get = |path: &str| -> String {
            let mut conn = std::net::TcpStream::connect(bound).expect("connect scrape plane");
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            conn.read_to_string(&mut out).expect("read response");
            out
        };

        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains(decaf_trace::metrics::CONTENT_TYPE));
        assert!(metrics.contains("decaf_commits_total{site=\"7\"} 10"));

        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(health.contains("ok\nsite 7\n"));
        shared.lock().unwrap().rejoining = true;
        assert!(get("/healthz").starts_with("HTTP/1.1 503 "));

        assert!(get("/nope").starts_with("HTTP/1.1 404 "));
    }
}
