//! Experiment harnesses reproducing every quantitative claim of the DECAF
//! paper's evaluation (§5). Each `eN_*` function regenerates one
//! experiment's rows; the `src/bin/*` binaries print them as tables, and
//! `EXPERIMENTS.md` records paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use decaf_core::{RecordingView, SiteConfig, ViewMode};
use decaf_gvt::{GvtEnvelope, GvtEvent, GvtSite};
use decaf_net::sim::{Event, LatencyModel, SimNet, SimTime};
use decaf_trace::json::Value;
use decaf_vt::{SiteId, VirtualTime};
use decaf_workload::{
    ArrivalProcess, BlindWrite, LatencyTracker, NotificationTracker, RateWorkload, ReadModifyWrite,
    SimWorld, TxnKind, TxnMix,
};

/// Pretty-prints a table of (header, rows) with aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// The table as one JSON object:
/// `{"title":"...","headers":[...],"rows":[["..."],...]}`.
pub fn table_json(title: &str, headers: &[&str], rows: &[Vec<String>]) -> Value {
    Value::object([
        ("title", title.into()),
        ("headers", headers.to_vec().into()),
        (
            "rows",
            Value::Array(rows.iter().map(|row| row.clone().into()).collect()),
        ),
    ])
}

/// Prints [`table_json`] as one line on stdout.
pub fn print_table_json(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", table_json(title, headers, rows));
}

/// Prints the human table, or the [`print_table_json`] form when `--json`
/// is among the process arguments. Every bench binary routes its output
/// through this, so `e1-commit-latency --json | jq` works uniformly.
pub fn emit_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    if std::env::args().any(|a| a == "--json") {
        print_table_json(title, headers, rows);
    } else {
        print_table(title, headers, rows);
    }
}

// ===========================================================================
// E1 — commit latency (§5.1.1)
// ===========================================================================

/// One measured commit-latency row.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Network latency `t` in ms.
    pub t_ms: u64,
    /// Primary placement scenario.
    pub scenario: &'static str,
    /// Measured commit latency at the originating site (ms).
    pub origin_ms: f64,
    /// Measured commit latency at non-originating sites (ms, mean).
    pub remote_ms: f64,
    /// The paper's analytic expectation for the originator.
    pub expect_origin: f64,
    /// The paper's analytic expectation for the remote sites.
    pub expect_remote: f64,
}

/// Runs the E1 commit-latency experiment for one network latency.
pub fn e1_commit_latency(t_ms: u64) -> Vec<E1Row> {
    let t = SimTime::from_millis(t_ms);
    let mut rows = Vec::new();

    // (a) Multiple remote primaries: 4 sites; object A on {1,4}, B on
    // {2,4}; transaction at site 4 updates both → primaries 1 and 2 are
    // remote, no delegation. Commit at origin: 2t; remotes: 3t.
    {
        let mut world = SimWorld::new(4, LatencyModel::uniform(t));
        let a_objs = world.wire_int_subset(&[SiteId(1), SiteId(4)], 0);
        let b_objs = world.wire_int_subset(&[SiteId(2), SiteId(4)], 0);
        let (a4, b4) = (a_objs[&SiteId(4)], b_objs[&SiteId(4)]);
        struct Two(decaf_core::ObjectName, decaf_core::ObjectName);
        impl decaf_core::Transaction for Two {
            fn execute(
                &mut self,
                ctx: &mut decaf_core::TxnCtx<'_>,
            ) -> Result<(), decaf_core::TxnError> {
                let a = ctx.read_int(self.0)?;
                ctx.write_int(self.0, a + 1)?;
                let b = ctx.read_int(self.1)?;
                ctx.write_int(self.1, b + 1)
            }
        }
        world.site(SiteId(4)).execute(Box::new(Two(a4, b4)));
        world.run_to_quiescence();
        let mut lt = LatencyTracker::new();
        lt.ingest(&world.log);
        rows.push(E1Row {
            t_ms,
            scenario: "m remote primaries",
            origin_ms: LatencyTracker::mean_ms(&lt.at_origin),
            remote_ms: LatencyTracker::mean_ms(&lt.at_remote),
            expect_origin: 2.0 * t_ms as f64,
            expect_remote: 3.0 * t_ms as f64,
        });
    }

    // (b) Single primary == originating site: commits immediately at the
    // origin; replicas learn in t.
    {
        let mut world = SimWorld::new(2, LatencyModel::uniform(t));
        let objs = world.wire_int(0);
        let o1 = objs[0];
        world.site(SiteId(1)).execute(Box::new(ReadModifyWrite {
            object: o1,
            delta: 1,
        }));
        world.run_to_quiescence();
        let mut lt = LatencyTracker::new();
        lt.ingest(&world.log);
        rows.push(E1Row {
            t_ms,
            scenario: "primary = origin",
            origin_ms: LatencyTracker::mean_ms(&lt.at_origin),
            remote_ms: LatencyTracker::mean_ms(&lt.at_remote),
            expect_origin: 0.0,
            expect_remote: t_ms as f64,
        });
    }

    // (c) Single remote primary with delegate commit: the primary commits
    // in t, the originator in 2t, other replicas in 2t.
    {
        let mut world = SimWorld::new(3, LatencyModel::uniform(t));
        let objs = world.wire_int(0);
        let o2 = objs[1];
        world.site(SiteId(2)).execute(Box::new(ReadModifyWrite {
            object: o2,
            delta: 1,
        }));
        world.run_to_quiescence();
        let mut lt = LatencyTracker::new();
        lt.ingest(&world.log);
        rows.push(E1Row {
            t_ms,
            scenario: "single remote primary (delegated)",
            origin_ms: LatencyTracker::mean_ms(&lt.at_origin),
            remote_ms: LatencyTracker::mean_ms(&lt.at_remote),
            expect_origin: 2.0 * t_ms as f64,
            // primary commits in t, the third replica in 2t → mean 1.5t
            expect_remote: 1.5 * t_ms as f64,
        });
    }

    rows
}

// ===========================================================================
// E2 — view notification latency (§5.1.2)
// ===========================================================================

/// One view-latency row.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Network latency `t` in ms.
    pub t_ms: u64,
    /// Where the view lives.
    pub placement: &'static str,
    /// Measured optimistic update-notification latency (ms).
    pub optimistic_ms: f64,
    /// Measured pessimistic update-notification latency (ms).
    pub pessimistic_ms: f64,
    /// Paper expectation for the optimistic view.
    pub expect_opt: f64,
    /// Paper expectation for the pessimistic view.
    pub expect_pess: f64,
}

/// Runs the E2 view-notification experiment for one network latency.
///
/// Three sites share two objects; the transaction (at the non-primary site
/// 2) updates one of them; views are attached to **both** objects,
/// exercising the updated-object and viewed-but-not-updated paths of
/// §5.1.2. The delegate-commit optimization is disabled to match the
/// paper's analytic protocol (with delegation every figure improves by t;
/// the `a1_delegate` ablation quantifies that separately).
pub fn e2_view_latency(t_ms: u64) -> Vec<E2Row> {
    let t = SimTime::from_millis(t_ms);
    let config = SiteConfig {
        delegate_enabled: false,
        ..SiteConfig::default()
    };
    let mut out = Vec::new();
    for (placement, viewer) in [
        ("originator", SiteId(2)),
        ("non-originator (primary)", SiteId(1)),
        ("non-originator (replica)", SiteId(3)),
    ] {
        let mut world = SimWorld::with_config(3, LatencyModel::uniform(t), config);
        let x = world.wire_int(0);
        let y = world.wire_int(0);
        let watch = [x[(viewer.0 - 1) as usize], y[(viewer.0 - 1) as usize]];
        world.site(viewer).attach_view(
            Box::new(RecordingView::new(watch.to_vec())),
            &watch,
            ViewMode::Optimistic,
        );
        world.site(viewer).attach_view(
            Box::new(RecordingView::new(watch.to_vec())),
            &watch,
            ViewMode::Pessimistic,
        );
        let x2 = x[1];
        world.site(SiteId(2)).execute(Box::new(ReadModifyWrite {
            object: x2,
            delta: 1,
        }));
        world.run_to_quiescence();
        let mut nt = NotificationTracker::new();
        nt.ingest(&world.log);
        // §5.1.2: optimistic immediately at the originator, after t at
        // replicas; pessimistic 2t at the originator, no more than 3t at
        // non-originating sites.
        let (expect_opt, expect_pess) = match placement {
            "originator" => (0.0, 2.0 * t_ms as f64),
            _ => (t_ms as f64, 3.0 * t_ms as f64),
        };
        out.push(E2Row {
            t_ms,
            placement,
            optimistic_ms: nt.mean_ms(ViewMode::Optimistic),
            pessimistic_ms: nt.mean_ms(ViewMode::Pessimistic),
            expect_opt,
            expect_pess,
        });
    }
    out
}

// ===========================================================================
// E3 — lost updates under blind-write load (§5.2.2)
// ===========================================================================

/// One lost-update row.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Per-party update rate (updates per second).
    pub rate: f64,
    /// Updates committed in total.
    pub committed: u64,
    /// Lost updates observed by optimistic views.
    pub lost: u64,
    /// Lost-update rate.
    pub lost_rate: f64,
    /// Conflict rollbacks (the paper expects none for blind writes).
    pub rollbacks: u64,
    /// Update inconsistencies (expected 0).
    pub update_inconsistencies: u64,
}

/// Runs the E3 blind-write workload: two parties, optimistic views at both,
/// symmetric Poisson update streams at `rate`/s each, `t_ms` latency,
/// `seconds` of simulated time.
pub fn e3_lost_updates(rate: f64, t_ms: u64, seconds: u64, seed: u64) -> E3Row {
    let t = SimTime::from_millis(t_ms);
    let mut world = SimWorld::new(2, LatencyModel::uniform(t));
    let objs = world.wire_int(0);
    for (i, site) in [SiteId(1), SiteId(2)].into_iter().enumerate() {
        let watch = vec![objs[i]];
        world.site(site).attach_view(
            Box::new(RecordingView::new(watch.clone())),
            &watch,
            ViewMode::Optimistic,
        );
    }
    RateWorkload {
        parties: vec![
            (
                SiteId(1),
                ArrivalProcess::poisson(rate, seed),
                TxnMix::single(TxnKind::BlindWrite),
            ),
            (
                SiteId(2),
                ArrivalProcess::poisson(rate, seed.wrapping_add(1)),
                TxnMix::single(TxnKind::BlindWrite),
            ),
        ],
        duration: SimTime::from_secs(seconds),
    }
    .run(&mut world, &objs);
    let total = world.total_stats();
    let denom = total.opt_notifications + total.lost_updates;
    E3Row {
        rate,
        committed: total.txns_committed,
        lost: total.lost_updates,
        lost_rate: if denom == 0 {
            0.0
        } else {
            total.lost_updates as f64 / denom as f64
        },
        rollbacks: total.txns_aborted_conflict,
        update_inconsistencies: total.update_inconsistencies,
    }
}

// ===========================================================================
// E4 — rollback rate under read-write load (§5.2.2)
// ===========================================================================

/// One rollback-rate row.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Second party's update rate (first party is fixed at 1/s).
    pub b_rate: f64,
    /// Transactions submitted.
    pub started: u64,
    /// Conflict rollbacks.
    pub rollbacks: u64,
    /// Rollback rate.
    pub rollback_rate: f64,
    /// Update inconsistencies shown to optimistic views.
    pub update_inconsistencies: u64,
    /// Automatic retries performed.
    pub retries: u64,
}

/// Runs the E4 read-write workload: party A at 1/s, party B at `b_rate`/s,
/// both performing read-modify-write increments of the shared object.
pub fn e4_rollback_rate(b_rate: f64, t_ms: u64, seconds: u64, seed: u64) -> E4Row {
    let t = SimTime::from_millis(t_ms);
    let mut world = SimWorld::new(2, LatencyModel::uniform(t));
    let objs = world.wire_int(0);
    for (i, site) in [SiteId(1), SiteId(2)].into_iter().enumerate() {
        let watch = vec![objs[i]];
        world.site(site).attach_view(
            Box::new(RecordingView::new(watch.clone())),
            &watch,
            ViewMode::Optimistic,
        );
    }
    RateWorkload {
        parties: vec![
            (
                SiteId(1),
                ArrivalProcess::poisson(1.0, seed),
                TxnMix::single(TxnKind::ReadModifyWrite),
            ),
            (
                SiteId(2),
                ArrivalProcess::poisson(b_rate, seed.wrapping_add(1)),
                TxnMix::single(TxnKind::ReadModifyWrite),
            ),
        ],
        duration: SimTime::from_secs(seconds),
    }
    .run(&mut world, &objs);
    let total = world.total_stats();
    E4Row {
        b_rate,
        started: total.txns_started,
        rollbacks: total.txns_aborted_conflict,
        rollback_rate: if total.txns_started == 0 {
            0.0
        } else {
            total.txns_aborted_conflict as f64 / total.txns_started as f64
        },
        update_inconsistencies: total.update_inconsistencies,
        retries: total.retries,
    }
}

// ===========================================================================
// E5 — scalability vs a GVT global sweep (§5.1.3)
// ===========================================================================

/// One scalability row.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Number of chained 3-site replica sets.
    pub k: usize,
    /// Total network size (2k + 1 sites).
    pub sites: usize,
    /// DECAF mean commit latency (ms).
    pub decaf_ms: f64,
    /// GVT-baseline mean commit latency (ms).
    pub gvt_ms: f64,
}

/// Runs the §5.1.3 hypothetical: `k` chained replica sets
/// `{1,2,3}, {3,4,5}, {5,6,7}, …` on a network of `2k+1` sites; one blind
/// write per set, originated by the set's middle site. DECAF commits via
/// per-set primaries; the GVT baseline needs a network-wide sweep (period
/// `sweep_ms`).
pub fn e5_scalability(k: usize, t_ms: u64, sweep_ms: u64) -> E5Row {
    let n = 2 * k + 1;
    let t = SimTime::from_millis(t_ms);

    // ---- DECAF ----
    let decaf_ms = {
        let mut world = SimWorld::new(n as u32, LatencyModel::uniform(t));
        let mut set_objs = Vec::new();
        for i in 0..k {
            let members = [
                SiteId((2 * i + 1) as u32),
                SiteId((2 * i + 2) as u32),
                SiteId((2 * i + 3) as u32),
            ];
            set_objs.push((members, world.wire_int_subset(&members, 0)));
        }
        for (members, objs) in &set_objs {
            let mid = members[1];
            let obj = objs[&mid];
            world.site(mid).execute(Box::new(BlindWrite {
                object: obj,
                value: 1,
            }));
        }
        world.run_to_quiescence();
        let mut lt = LatencyTracker::new();
        lt.ingest(&world.log);
        let mut all = lt.at_origin.clone();
        all.extend(lt.at_remote.iter().copied());
        LatencyTracker::mean_ms(&all)
    };

    // ---- GVT baseline ----
    let gvt_ms = {
        let ring: Vec<SiteId> = (1..=n as u32).map(SiteId).collect();
        let mut sites: BTreeMap<SiteId, GvtSite> = ring
            .iter()
            .map(|id| (*id, GvtSite::new(*id, ring.clone())))
            .collect();
        for i in 0..k {
            let members = vec![
                SiteId((2 * i + 1) as u32),
                SiteId((2 * i + 2) as u32),
                SiteId((2 * i + 3) as u32),
            ];
            for m in &members {
                let s = sites.get_mut(m).expect("site exists");
                let o = s.create_int(&format!("set{i}"), 0);
                s.add_replicas(o, members.clone());
            }
        }
        let mut net: SimNet<GvtEnvelope> = SimNet::new(LatencyModel::uniform(t));
        // Periodic sweeps from site 1.
        let sweep_period = SimTime::from_millis(sweep_ms);
        net.set_timer(SiteId(1), sweep_period, 1);
        // Issue one write per set at t=0 (middle site).
        let mut exec_at: BTreeMap<VirtualTime, SimTime> = BTreeMap::new();
        let mut commit_lat: Vec<SimTime> = Vec::new();
        for i in 0..k {
            let mid = SiteId((2 * i + 2) as u32);
            let s = sites.get_mut(&mid).expect("site exists");
            let vt = s.write(decaf_gvt::GvtObject(format!("set{i}")), 1);
            exec_at.insert(vt, SimTime::ZERO);
        }
        let deadline = SimTime::from_secs(600);
        loop {
            // Flush outboxes (the baseline's own engine, not a decaf Site).
            for gvt in sites.values_mut() {
                for env in gvt.drain_outbox() {
                    net.send(env.from, env.to, env);
                }
                for ev in gvt.drain_events() {
                    if let GvtEvent::Committed { vt, .. } = ev {
                        if let Some(start) = exec_at.get(&vt) {
                            commit_lat.push(net.now().saturating_sub(*start));
                        }
                    }
                }
            }
            if commit_lat.len() >= 3 * k || net.now() > deadline {
                break;
            }
            match net.step() {
                Some(Event::Deliver { to, msg, .. }) => {
                    if let Some(gvt) = sites.get_mut(&to) {
                        gvt.handle_message(msg);
                    }
                }
                Some(Event::Timer { site, .. }) => {
                    if let Some(gvt) = sites.get_mut(&site) {
                        gvt.start_sweep();
                    }
                    net.set_timer(site, sweep_period, 1);
                }
                Some(Event::SiteFailed { .. }) | None => break,
            }
        }
        LatencyTracker::mean_ms(&commit_lat)
    };

    E5Row {
        k,
        sites: n,
        decaf_ms,
        gvt_ms,
    }
}

// ===========================================================================
// A1 — delegate-commit ablation (§3.1)
// ===========================================================================

/// One delegate-ablation row.
#[derive(Debug, Clone)]
pub struct A1Row {
    /// Network latency `t` in ms.
    pub t_ms: u64,
    /// Whether delegation was enabled.
    pub delegated: bool,
    /// Commit latency at the originator (ms).
    pub origin_ms: f64,
    /// Mean commit latency at non-originating sites (ms).
    pub remote_ms: f64,
    /// Protocol messages sent in total.
    pub msgs: u64,
}

/// Measures the delegate-commit optimization: a three-party collaboration
/// whose single remote primary either receives the delegation or not.
pub fn a1_delegate(t_ms: u64, delegated: bool) -> A1Row {
    let t = SimTime::from_millis(t_ms);
    let config = SiteConfig {
        delegate_enabled: delegated,
        ..SiteConfig::default()
    };
    let mut world = SimWorld::with_config(3, LatencyModel::uniform(t), config);
    let objs = world.wire_int(0);
    let o2 = objs[1];
    world.site(SiteId(2)).execute(Box::new(ReadModifyWrite {
        object: o2,
        delta: 1,
    }));
    world.run_to_quiescence();
    let mut lt = LatencyTracker::new();
    lt.ingest(&world.log);
    let total = world.total_stats();
    A1Row {
        t_ms,
        delegated,
        origin_ms: LatencyTracker::mean_ms(&lt.at_origin),
        remote_ms: LatencyTracker::mean_ms(&lt.at_remote),
        msgs: total.msgs_sent,
    }
}

// ===========================================================================
// A2 — direct vs indirect propagation ablation (§3.2)
// ===========================================================================

/// One propagation-ablation row.
#[derive(Debug, Clone)]
pub struct A2Row {
    /// Children embedded in the composite.
    pub n_children: usize,
    /// Replication graphs stored per site with indirect propagation
    /// (composite root only).
    pub graphs_indirect: usize,
    /// Replication graphs a direct scheme would store (one per object).
    pub graphs_direct: usize,
    /// Bytes of graph state shipped when a member joins, indirect.
    pub join_bytes_indirect: usize,
    /// Bytes of graph state a direct scheme would ship (n+1 graphs).
    pub join_bytes_direct: usize,
}

/// Measures the space argument of §3.2: with indirect propagation a
/// composite of `n` children keeps ONE replication graph; a direct scheme
/// would keep (and re-ship on membership changes) `n + 1`.
pub fn a2_propagation(n_children: usize) -> A2Row {
    use decaf_core::{Blueprint, ObjectName, Transaction, TxnCtx, TxnError};

    struct PushN(ObjectName, usize);
    impl Transaction for PushN {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            for i in 0..self.1 {
                ctx.list_push(self.0, Blueprint::Int(i as i64))?;
            }
            Ok(())
        }
    }

    let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(5)));
    // Build the composite at site 1, then join from site 2 via the real
    // protocol so the measured bytes are what actually travels.
    let list1 = world.site(SiteId(1)).create_list();
    let baseline_objects = world.site(SiteId(1)).object_count();
    world
        .site(SiteId(1))
        .execute(Box::new(PushN(list1, n_children)));
    let assoc = world.site(SiteId(1)).create_association();
    let rel = world
        .site(SiteId(1))
        .create_relation(assoc, "board", list1)
        .expect("relation");
    world.run_to_quiescence();
    let invitation = world
        .site(SiteId(1))
        .make_invitation(assoc, rel)
        .expect("invitation");
    let list2 = world.site(SiteId(2)).create_list();

    // Measure the join's graph bytes as what the wire carries: each node
    // loop counts its envelopes as it hands them to the network. (The
    // world's own `step` flushes again after a delivery, uncounted, so the
    // delivery is made here.)
    world.site(SiteId(2)).join(invitation, list2).expect("join");
    let mut join_bytes = 0usize;
    loop {
        let net = &mut world.net;
        for node in world.nodes.values_mut() {
            node.flush(|env| {
                join_bytes += decaf_net::wire::encode_envelope_v2(&env).len();
                net.send(env.from, env.to, env);
            })
            .expect("a node without a log appends nothing");
        }
        match world.net.step() {
            Some(Event::Deliver { from, to, msg, .. }) => {
                let node = world.nodes.get_mut(&to).expect("one of the two sites");
                node.deliver(decaf_net::TransportEvent::Message { from, msg });
            }
            Some(_) => {}
            None => break,
        }
    }

    let graphs_indirect = world.site(SiteId(1)).direct_graph_count() - (baseline_objects - 1) - 1;
    // -1 for the association object, minus pre-existing roots; what remains
    // is the composite's OWN graphs: exactly 1 with indirect propagation.
    let per_object = if n_children > 0 {
        join_bytes / (n_children + 1).max(1)
    } else {
        join_bytes
    };
    A2Row {
        n_children,
        graphs_indirect: graphs_indirect.max(1),
        graphs_direct: n_children + 1,
        join_bytes_indirect: join_bytes,
        join_bytes_direct: join_bytes + per_object * n_children,
    }
}

// ===========================================================================
// R1 — crash-recovery time vs WAL length (§3.4, DESIGN.md §S20)
// ===========================================================================

/// One crash-recovery timing row.
#[derive(Debug, Clone)]
pub struct R1Row {
    /// Committed transactions in the WAL at crash time.
    pub log_commits: u64,
    /// Bytes of the WAL at crash time (baseline checkpoint + commits).
    pub wal_bytes: u64,
    /// Wall time of the restart's local half: open the log, scan and
    /// CRC-check every frame, restore the checkpoint, replay the suffix.
    pub replay_ms: f64,
    /// Commit records actually replayed past the checkpoint.
    pub replayed: usize,
    /// Commits the surviving peer made while the site was down.
    pub missed: u64,
    /// Wall time of the networked half: §3.4 rejoin handshake plus the
    /// catch-up stream of the `missed` commits, to full quiescence.
    pub rejoin_ms: f64,
}

/// Measures what a crash costs at restart (DESIGN.md §S20): a durable replica
/// pair commits `log_commits` transactions (each fsynced to a real WAL
/// file under the system temp dir), one site "crashes" (is dropped), the
/// survivor declares it failed and commits `missed` more, and the victim is
/// rebuilt with [`decaf_core::Site::recover`] + `begin_rejoin`. Both halves
/// of the restart are timed separately; the function asserts the recovered
/// site converges on the survivor's value before reporting, so a wrong
/// recovery can never masquerade as a fast one.
pub fn r1_recovery(log_commits: u64, missed: u64) -> R1Row {
    r1_restart(log_commits, missed, true)
}

/// [`r1_recovery`] for a restart inside the transport's reconnect window:
/// the survivor keeps committing but never declares the fail-stop, so its
/// replication graph still names the victim when the rejoin arrives.
pub fn r1_recovery_in_window(log_commits: u64, missed: u64) -> R1Row {
    r1_restart(log_commits, missed, false)
}

/// One read-modify-write gesture: the shared counter goes up by one.
struct Incr(decaf_core::ObjectName);

impl decaf_core::Transaction for Incr {
    fn execute(&mut self, ctx: &mut decaf_core::TxnCtx<'_>) -> Result<(), decaf_core::TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

/// Carries everything the nodes have to say to each other, in process and
/// at once, until none has more. What is addressed to a node outside
/// `nodes` (a crashed site) is lost.
fn settle(nodes: &mut [&mut decaf_net::Node]) {
    loop {
        let mut moving = Vec::new();
        for node in nodes.iter_mut() {
            node.flush(|env| moving.push(env)).expect("append commit");
        }
        if moving.is_empty() {
            return;
        }
        for env in moving {
            if let Some(to) = nodes.iter_mut().find(|n| n.site.id() == env.to) {
                to.deliver(decaf_net::TransportEvent::Message {
                    from: env.from,
                    msg: env,
                });
            }
        }
    }
}

fn r1_restart(log_commits: u64, missed: u64, fail_stop: bool) -> R1Row {
    use decaf_core::{wiring, CommitLog, Site};
    use decaf_net::{Node, TransportEvent};
    use std::time::Instant;

    let cfg = SiteConfig {
        durable: true,
        ..SiteConfig::default()
    };
    let mut a = Site::with_config(SiteId(1), cfg);
    let mut b = Site::with_config(SiteId(2), cfg);
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);

    let dir = std::env::temp_dir().join(format!(
        "decaf-r1-{}-{log_commits}-{missed}-{fail_stop}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut log, _) = CommitLog::open(&dir).expect("open scratch WAL");
    log.append_checkpoint(&b.checkpoint().expect("freshly wired pair is quiescent"))
        .expect("baseline checkpoint");
    // The survivor keeps no log; the victim's is the file.
    let (mut a, mut b) = (Node::new(a), Node::durable(b, log));

    // Phase 1: both sites live, every commit fsynced to b's log.
    for _ in 0..log_commits {
        b.site.execute(Box::new(Incr(ob)));
        settle(&mut [&mut a, &mut b]);
    }
    let wal_bytes = b.log().expect("durable").len_bytes();
    drop(b); // crash: in-memory state gone, only the WAL survives

    // The survivor declares the failure and keeps committing, exactly the
    // state a SIGKILLed decaf-site finds on restart (past the reconnect
    // window; inside it no fail-stop has been declared yet). What it sends
    // meanwhile goes nowhere.
    if fail_stop {
        a.deliver(TransportEvent::SiteFailed { failed: SiteId(2) });
        a.flush(drop).expect("no log");
    }
    for _ in 0..missed {
        a.site.execute(Box::new(Incr(oa)));
        a.flush(drop).expect("no log");
    }

    // Restart, local half: scan + CRC + checkpoint restore + replay.
    let t0 = Instant::now();
    let (recovery, log) = Site::recover(&dir, cfg).expect("recover from WAL");
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replayed = recovery.replayed;
    let mut b = Node::durable(recovery.site, log);

    // Restart, networked half: rejoin handshake + catch-up stream.
    let t1 = Instant::now();
    b.site.begin_rejoin();
    settle(&mut [&mut a, &mut b]);
    let rejoin_ms = t1.elapsed().as_secs_f64() * 1e3;

    let expect = Some((log_commits + missed) as i64);
    assert_eq!(
        b.site.read_int_committed(ob),
        expect,
        "recovered site converged"
    );
    assert_eq!(a.site.read_int_committed(oa), expect, "survivor agrees");
    let _ = std::fs::remove_dir_all(&dir);
    R1Row {
        log_commits,
        wal_bytes,
        replay_ms,
        replayed,
        missed,
        rejoin_ms,
    }
}

// ===========================================================================
// O1 — cross-site propagation latency via the trace stitcher (DESIGN.md §S21)
// ===========================================================================

/// One per-origin propagation row: how long this site's committed updates
/// took to reach (and commit at) its remotes, skew-corrected.
#[derive(Debug, Clone)]
pub struct O1Row {
    /// Originating site.
    pub origin: u32,
    /// Propagation samples (one per `(committed VT, remote site)` pair).
    pub samples: u64,
    /// Median propagation latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile propagation latency, ms.
    pub p99_ms: f64,
    /// Maximum observed propagation latency, ms.
    pub max_ms: f64,
}

/// One O1 run's stitched digest.
#[derive(Debug, Clone)]
pub struct O1Summary {
    /// Per-origin propagation rows, ascending by site id.
    pub rows: Vec<O1Row>,
    /// Committed transactions during the gesture phase, all sites.
    pub committed: u64,
    /// End-to-end spans the stitcher reconstructed.
    pub spans: usize,
    /// Stitch holes (must be 0 on a kill-free quiescent run).
    pub incomplete: usize,
    /// Median of each critical-path component over every span's slowest
    /// leg, in ms: (queue, wire, re-execute, notify).
    pub critical_p50_ms: (f64, f64, f64, f64),
    /// Skew-corrected one-way wire latency merged over every directed
    /// link: (samples, p50 ms, p99 ms, max ms).
    pub wire: (u64, f64, f64, f64),
}

/// Runs the O1 observability experiment: an 8-site checked run (kill-free,
/// one-way latency `t_ms`, latency jitter fraction `jitter`) traced with
/// envelope span contexts, then stitched by [`decaf_trace::Stitcher`] into
/// per-origin propagation histograms and critical-path breakdowns. The
/// workload is blind writes over per-site counters — conflict-free, so
/// every gesture commits and the trace measures pure propagation rather
/// than retry storms. The run doubles as an oracle check: any violation —
/// including a trace hole flagged by the trace-completeness oracle —
/// panics.
pub fn o1_propagation(t_ms: u64, jitter: f64, seed: u64) -> O1Summary {
    let cfg = decaf_check::ScenarioConfig {
        sites: 8,
        objects: 8,
        txns_per_site: 4,
        gap_ms: 60,
        latency_ms: t_ms,
        jitter,
        w_increment: 0,
        w_blind_write: 1,
        w_guess_heavy: 0,
        ..decaf_check::ScenarioConfig::default()
    };
    let report = decaf_check::run_once(&cfg, &decaf_check::FaultPlan::quiet(), seed, None);
    assert!(
        report.violations.is_empty(),
        "kill-free run must uphold every oracle: {:?}",
        report.violations
    );
    let mut stitcher = decaf_trace::Stitcher::new();
    stitcher
        .observe_jsonl(&report.trace.join("\n"))
        .expect("harness trace parses");
    let stitched = stitcher.finish();

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut rows = Vec::new();
    for origin in 1..=cfg.sites {
        let mut merged = decaf_trace::Histogram::new();
        for ((from, _to), hist) in &stitched.propagation {
            if *from == origin {
                merged.merge(hist);
            }
        }
        let s = merged.summary();
        rows.push(O1Row {
            origin,
            samples: s.count,
            p50_ms: ms(s.p50),
            p99_ms: ms(s.p99),
            max_ms: ms(s.max),
        });
    }
    let mut wire = decaf_trace::Histogram::new();
    for link in stitched.links.values() {
        wire.merge(&link.latency);
    }
    let w = wire.summary();
    O1Summary {
        rows,
        committed: report.committed,
        spans: stitched.spans.len(),
        incomplete: stitched.incomplete.len(),
        critical_p50_ms: (
            ms(stitched.critical_queue.quantile(0.50)),
            ms(stitched.critical_wire.quantile(0.50)),
            ms(stitched.critical_reexec.quantile(0.50)),
            ms(stitched.critical_notify.quantile(0.50)),
        ),
        wire: (w.count, ms(w.p50), ms(w.p99), ms(w.max)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_matches_analytic_latencies_exactly() {
        for t in [10u64, 50] {
            for row in e1_commit_latency(t) {
                assert!(
                    (row.origin_ms - row.expect_origin).abs() < 1e-6,
                    "{} t={} origin {} != {}",
                    row.scenario,
                    t,
                    row.origin_ms,
                    row.expect_origin
                );
                assert!(
                    (row.remote_ms - row.expect_remote).abs() < 1e-6,
                    "{} t={} remote {} != {}",
                    row.scenario,
                    t,
                    row.remote_ms,
                    row.expect_remote
                );
            }
        }
    }

    #[test]
    fn e2_matches_analytic_latencies() {
        for row in e2_view_latency(20) {
            assert!(
                (row.optimistic_ms - row.expect_opt).abs() < 1e-6,
                "{}: opt {} != {}",
                row.placement,
                row.optimistic_ms,
                row.expect_opt
            );
            assert!(
                (row.pessimistic_ms - row.expect_pess).abs() < 1e-6,
                "{}: pess {} != {}",
                row.placement,
                row.pessimistic_ms,
                row.expect_pess
            );
        }
    }

    #[test]
    fn e3_blind_writes_never_roll_back() {
        let row = e3_lost_updates(1.0, 50, 30, 42);
        assert_eq!(row.rollbacks, 0);
        assert_eq!(row.update_inconsistencies, 0);
        assert!(row.committed > 20, "workload ran: {row:?}");
        assert!(row.lost_rate < 0.5, "sane loss: {row:?}");
    }

    #[test]
    fn e4_low_rate_has_low_rollbacks() {
        let slow = e4_rollback_rate(1.0 / 3.0, 50, 60, 42);
        assert!(
            slow.rollback_rate < 0.10,
            "rollback rate at 1/3 Hz should be small: {slow:?}"
        );
        let fast = e4_rollback_rate(2.0, 50, 60, 42);
        assert!(
            fast.rollback_rate > slow.rollback_rate,
            "rollbacks grow with rate: slow {slow:?} fast {fast:?}"
        );
    }

    #[test]
    fn e5_gvt_grows_with_network_decaf_does_not() {
        let small = e5_scalability(1, 20, 100);
        let large = e5_scalability(8, 20, 100);
        assert!(
            large.gvt_ms > small.gvt_ms * 1.5,
            "GVT latency must grow with network size: {small:?} {large:?}"
        );
        assert!(
            (large.decaf_ms - small.decaf_ms).abs() < 20.0 * 1.5,
            "DECAF latency must stay ~flat: {small:?} {large:?}"
        );
        assert!(large.gvt_ms > large.decaf_ms);
    }

    #[test]
    fn a1_delegation_saves_remote_latency() {
        let on = a1_delegate(20, true);
        let off = a1_delegate(20, false);
        assert!(
            on.remote_ms < off.remote_ms,
            "delegation must speed up remote commits: on {on:?} off {off:?}"
        );
        assert!(on.msgs <= off.msgs);
    }

    #[test]
    fn a2_indirect_keeps_one_graph() {
        let small = a2_propagation(2);
        let large = a2_propagation(32);
        assert_eq!(small.graphs_indirect, 1);
        assert_eq!(
            large.graphs_indirect, 1,
            "indirect: one graph regardless of n"
        );
        assert_eq!(large.graphs_direct, 33);
        assert!(large.join_bytes_direct > large.join_bytes_indirect);
    }

    #[test]
    fn o1_stitches_completely_with_analytic_uniform_latencies() {
        let s = o1_propagation(10, 0.0, 7);
        assert_eq!(s.incomplete, 0, "kill-free run must stitch with no holes");
        assert_eq!(s.committed as usize, s.spans, "every commit forms a span");
        for row in &s.rows {
            // 4 blind writes per origin, each propagating to 7 remotes.
            assert_eq!(row.samples, 28, "origin {}: {row:?}", row.origin);
        }
        // Uniform latency: the primary-origin site's commits reach every
        // remote exactly one hop later; delegated commits land everywhere
        // simultaneously (propagation 0). The log2 histogram's upper
        // bucket bound is capped at the observed max, so uniform samples
        // report exactly.
        assert!((s.rows[0].p50_ms - 10.0).abs() < 1e-9, "{:?}", s.rows[0]);
        assert!((s.rows[0].p99_ms - 10.0).abs() < 1e-9, "{:?}", s.rows[0]);
        for row in &s.rows[1..] {
            assert_eq!(row.max_ms, 0.0, "delegated commit: {row:?}");
        }
        let (_, p50, p99, _) = s.wire;
        assert!((p50 - 10.0).abs() < 1e-9 && (p99 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn r1_recovers_and_converges() {
        // Convergence is asserted inside r1_recovery; here we pin the
        // accounting: every logged commit replays, and the log grows with
        // the commit count.
        let small = r1_recovery(8, 4);
        assert_eq!(small.replayed, 8);
        assert_eq!(small.missed, 4);
        let large = r1_recovery(64, 4);
        assert_eq!(large.replayed, 64);
        assert!(
            large.wal_bytes > small.wal_bytes,
            "WAL grows with commits: {small:?} {large:?}"
        );
    }

    #[test]
    fn r1_in_window_restart_recovers_and_converges() {
        let small = r1_recovery_in_window(8, 4);
        assert_eq!(small.replayed, 8);
        assert_eq!(small.missed, 4);
        let large = r1_recovery_in_window(64, 4);
        assert_eq!(large.replayed, 64);
        assert!(
            large.wal_bytes > small.wal_bytes,
            "WAL grows with commits: {small:?} {large:?}"
        );
    }

    /// Three durable sites on the chain 1 - 2 - 3 commit, `victim` crashes,
    /// the survivors declare it failed, repair their graph and commit on;
    /// then the victim restarts from its WAL and rejoins. The survivors'
    /// live primary must re-admit it (§3.4: it rejoins "as a new member"):
    /// the catch-up reaches it, and so does a commit made at each site
    /// afterwards.
    fn restart_after_fail_stop_in_chain(victim: SiteId) {
        use decaf_core::{wiring, CommitLog, Site};
        use decaf_net::{Node, TransportEvent};

        let cfg = SiteConfig {
            durable: true,
            ..SiteConfig::default()
        };
        let mut sites: Vec<Site> = (1..=3).map(|i| Site::with_config(SiteId(i), cfg)).collect();
        let objs: Vec<_> = sites.iter_mut().map(|s| s.create_int(0)).collect();
        {
            let [s1, s2, s3] = &mut sites[..] else {
                unreachable!()
            };
            wiring::wire_replicas(&mut [(s1, objs[0]), (s2, objs[1]), (s3, objs[2])]);
        }
        let dir = |site: &Site| {
            std::env::temp_dir().join(format!(
                "decaf-r1-chain-{}-{}-{}",
                std::process::id(),
                victim.0,
                site.id().0
            ))
        };
        let mut nodes: Vec<Node> = sites
            .into_iter()
            .map(|site| {
                let _ = std::fs::remove_dir_all(dir(&site));
                let (mut log, _) = CommitLog::open(&dir(&site)).expect("open scratch WAL");
                log.append_checkpoint(&site.checkpoint().expect("freshly wired, quiescent"))
                    .expect("baseline checkpoint");
                Node::durable(site, log)
            })
            .collect();
        let obj = |node: &Node| objs[node.site.id().0 as usize - 1];
        let read = |nodes: &[Node]| -> Vec<Option<i64>> {
            nodes
                .iter()
                .map(|n| n.site.read_int_committed(obj(n)))
                .collect()
        };
        let commit_at = |nodes: &mut Vec<Node>, i: usize| {
            let o = obj(&nodes[i]);
            nodes[i].site.execute(Box::new(Incr(o)));
            settle(&mut nodes.iter_mut().collect::<Vec<_>>());
        };

        // Every site commits once, all live.
        for i in 0..3 {
            commit_at(&mut nodes, i);
        }
        assert_eq!(read(&nodes), vec![Some(3); 3]);

        // The crash: the victim's memory is gone, its WAL stays. The
        // survivors declare the failure, repair, and commit once each.
        let v = victim.0 as usize - 1;
        let victim_dir = dir(&nodes.remove(v).site);
        for node in nodes.iter_mut() {
            node.deliver(TransportEvent::SiteFailed { failed: victim });
        }
        settle(&mut nodes.iter_mut().collect::<Vec<_>>());
        for i in 0..2 {
            commit_at(&mut nodes, i);
        }

        // The restart, past any reconnect window: recover and rejoin.
        let (recovery, log) = Site::recover(&victim_dir, cfg).expect("recover from WAL");
        let mut back = Node::durable(recovery.site, log);
        assert_eq!(
            back.site.begin_rejoin(),
            2,
            "victim {victim}: rejoin contacts both"
        );
        nodes.insert(v, back);
        settle(&mut nodes.iter_mut().collect::<Vec<_>>());
        assert_eq!(read(&nodes), vec![Some(5); 3], "victim {victim}: caught up");

        // After the rejoin, one commit at each site reaches the other two.
        for i in 0..3 {
            commit_at(&mut nodes, i);
            assert_eq!(
                read(&nodes),
                vec![Some(6 + i as i64); 3],
                "victim {victim}: commit at site {} after the rejoin",
                i + 1
            );
        }
        for node in &nodes {
            let _ = std::fs::remove_dir_all(dir(&node.site));
        }
    }

    #[test]
    fn restart_after_fail_stop_of_primary_rejoins() {
        // Site 1 is the primary: the survivors repair through consensus.
        restart_after_fail_stop_in_chain(SiteId(1));
    }

    #[test]
    fn restart_after_fail_stop_of_chain_end_rejoins() {
        // Site 3 ends the chain: the live primary, site 1, repairs. (Site
        // 2's failure splits the survivors' graph: ROADMAP direction 7.)
        restart_after_fail_stop_in_chain(SiteId(3));
    }
}
