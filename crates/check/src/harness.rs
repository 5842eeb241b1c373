//! The run harness: executes one `(config, plan, seed)` triple over the
//! deterministic simulator and evaluates every applicable oracle.
//!
//! A run is fully deterministic: site state machines are pure, the
//! simulated network is seeded, the gesture mix is seeded, and trace
//! timestamps come from the simulated clock (manual-clock sinks). The
//! same triple therefore reproduces the same [`RunReport`] byte for
//! byte — including the merged JSONL trace — which is what makes
//! counterexample artifacts replayable.

use std::collections::{BTreeMap, BTreeSet};

use decaf_core::{
    append_frame, scan_wal, EngineEvent, ObjectName, RecordingView, Site, SiteConfig, TestMutation,
    TraceSink, ViewId, ViewLedgerEntry, ViewLedgerKind, ViewMode, WalRecord,
};
use decaf_net::sim::{LatencyModel, SimTime};
use decaf_net::Node;
use decaf_vt::{SiteId, VirtualTime};
use decaf_workload::{
    BlindWrite, GuessHeavy, MixOp, ReadModifyWrite, SimWorld, TxnKind, TxnMix, WorldStep,
};

use crate::config::ScenarioConfig;
use crate::oracle::{self, OracleKind, Violation};
use crate::plan::{FaultAction, FaultKind, FaultPlan};

/// Timer token for gesture submission (one stream per site).
const GESTURE_TOKEN: u64 = 0;
/// Timer tokens `FAULT_TOKEN_BASE + i` inject `plan.actions[i]`.
const FAULT_TOKEN_BASE: u64 = 1_000_000;
/// Timer tokens `RESTART_TOKEN_BASE + i` restart the site crashed by
/// `plan.actions[i]` (a [`FaultKind::CrashRestart`]).
const RESTART_TOKEN_BASE: u64 = 2_000_000;
/// Hard cap on simulator steps before the run is declared hung.
const STEP_BUDGET: u64 = 500_000;
/// Per-site trace buffer capacity.
const TRACE_CAPACITY: usize = 1 << 15;

/// What one checked run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Oracle violations, in detection order. Empty means the schedule
    /// upheld every applicable invariant.
    pub violations: Vec<Violation>,
    /// Simulator steps consumed.
    pub steps: u64,
    /// Transaction gestures submitted.
    pub gestures: u64,
    /// Transactions committed during the gesture phase (all sites).
    pub committed: u64,
    /// Conflict aborts (auto-retried) during the gesture phase.
    pub conflicts: u64,
    /// Sites still alive at the end.
    pub live: Vec<u32>,
    /// The run's merged `decaf-trace` JSONL, one event per line, ordered
    /// by simulated time (site id tie-break).
    pub trace: Vec<String>,
}

/// Runs one schedule: the scenario's seeded workload under `plan`'s
/// faults, with an optional engine [`TestMutation`] injected into every
/// site (for checker self-tests). Returns the oracle verdicts and the
/// run's trace.
pub fn run_once(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    mutation: Option<TestMutation>,
) -> RunReport {
    cfg.validate();
    let mut model = LatencyModel::uniform(SimTime::from_millis(cfg.latency_ms));
    if cfg.jitter > 0.0 {
        model = model.with_jitter(cfg.jitter, seed ^ 0x6a09_e667_f3bc_c909);
    }
    // Crash plans run durable sites: commits are captured as WAL records,
    // appended to the node's log at every flush — before the commit's
    // messages leave, as in the daemon — and restarts recover from them.
    // Other plans keep durability off so their traces and hot paths are
    // unchanged.
    let durable = plan.has_crashes();
    let site_cfg = SiteConfig {
        view_ledger: true,
        retry_budget: cfg.retry_budget,
        durable,
        ..SiteConfig::default()
    };
    let mut world = SimWorld::with_config(cfg.sites, model, site_cfg);
    if let Some(m) = mutation {
        for node in world.nodes.values_mut() {
            node.site.inject_test_mutation(m);
        }
    }

    // Wire the shared counters and let the wiring traffic settle before
    // measuring anything.
    let wired: Vec<Vec<ObjectName>> = (0..cfg.objects).map(|_| world.wire_int(0)).collect();
    world.run_to_quiescence();

    // Per-site local names of every counter, and the instrumented views.
    let mut locals: BTreeMap<SiteId, Vec<ObjectName>> = BTreeMap::new();
    for i in 0..cfg.sites {
        let id = SiteId(i + 1);
        let watch: Vec<ObjectName> = wired.iter().map(|o| o[i as usize]).collect();
        locals.insert(id, watch);
    }
    let mut opt_ids: BTreeMap<SiteId, ViewId> = BTreeMap::new();
    let mut pess_ids: BTreeMap<SiteId, ViewId> = BTreeMap::new();
    for (id, watch) in &locals {
        let site = world.site(*id);
        let opt = site.attach_view(
            Box::new(RecordingView::new(watch.clone())),
            watch,
            ViewMode::Optimistic,
        );
        let pess = site.attach_view(
            Box::new(RecordingView::new(watch.clone())),
            watch,
            ViewMode::Pessimistic,
        );
        opt_ids.insert(*id, opt);
        pess_ids.insert(*id, pess);
        // Manual-clock sinks: the harness stamps simulated time before
        // every step, so traces are byte-identical across same-seed runs,
        // in one process or in many: the engine and the simulator keep no
        // per-process hash key (DESIGN.md §8).
        site.set_trace_sink(TraceSink::enabled_manual(id.0, TRACE_CAPACITY));
    }
    // Per-site WAL images for crash plans: a byte buffer standing in for
    // the fsynced `wal.log` file, seeded with a baseline checkpoint taken
    // at the post-wiring quiescent point. Commits captured before the
    // baseline (wiring traffic) went to no log — recovery replays from the
    // newest checkpoint anyway.
    let mut wal_floor: BTreeMap<SiteId, usize> = BTreeMap::new();
    if durable {
        for id in locals.keys() {
            let (mut site, _) = world.nodes.remove(id).expect("known site").into_parts();
            let cp = site
                .drain_and_checkpoint()
                .expect("sites are quiescent after wiring");
            let mut buf = Vec::new();
            append_frame(&mut buf, &WalRecord::Checkpoint(Box::new(cp)));
            wal_floor.insert(*id, buf.len());
            world.nodes.insert(*id, Node::durable(site, buf));
        }
    }
    let log_baseline = world.log.len();
    let stats_baseline = world.total_stats();

    // Gesture streams: one seeded mix and one timer chain per site,
    // staggered by site id so streams interleave deterministically.
    let mut mixes: BTreeMap<SiteId, TxnMix> = BTreeMap::new();
    let mut remaining: BTreeMap<SiteId, u32> = BTreeMap::new();
    for id in locals.keys() {
        mixes.insert(
            *id,
            TxnMix::seeded(
                cfg.weights(),
                seed.wrapping_mul(0x0000_0100_0000_01b3) ^ u64::from(id.0),
            ),
        );
        remaining.insert(*id, cfg.txns_per_site);
        world.set_timer(
            *id,
            SimTime::from_millis(cfg.gap_ms + u64::from(id.0)),
            GESTURE_TOKEN,
        );
    }
    // Fault injections ride timers anchored at site 1 (never a victim).
    for (i, action) in plan.actions.iter().enumerate() {
        world.set_timer(
            SiteId(1),
            SimTime::from_millis(action.at_ms.max(1)),
            FAULT_TOKEN_BASE + i as u64,
        );
    }

    let mut live: BTreeSet<SiteId> = locals.keys().copied().collect();
    let mut crashed: BTreeSet<SiteId> = BTreeSet::new();
    // Stashed at restart, when the pre-crash site instance is replaced:
    // its view-ledger segments, trace events, and commit/conflict counters.
    let mut pess_stash: BTreeMap<u32, Vec<Vec<ViewLedgerEntry>>> = BTreeMap::new();
    let mut opt_stash: BTreeMap<u32, Vec<Vec<ViewLedgerEntry>>> = BTreeMap::new();
    let mut trace_stash = Vec::new();
    let mut committed_carry: u64 = 0;
    let mut conflicts_carry: u64 = 0;
    // Commit VTs each restarted site recovered from its WAL prefix, for
    // the crash-durability oracle.
    let mut recovered_vts: BTreeMap<u32, BTreeSet<VirtualTime>> = BTreeMap::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut steps: u64 = 0;
    let mut gestures: u64 = 0;
    let mut hung = false;

    while let Some(ws) = stamped_step(&mut world) {
        steps += 1;
        if steps > STEP_BUDGET {
            violations.push(Violation {
                oracle: OracleKind::Quiescence,
                site: None,
                detail: format!("step budget {STEP_BUDGET} exhausted before quiescence"),
            });
            hung = true;
            break;
        }
        let WorldStep::Timer { site, token, .. } = ws else {
            continue;
        };
        if token >= RESTART_TOKEN_BASE {
            let idx = (token - RESTART_TOKEN_BASE) as usize;
            let FaultKind::CrashRestart { site, torn, .. } = &plan.actions[idx].kind else {
                continue; // restart tokens are only ever scheduled for crashes
            };
            let id = SiteId(*site);
            if !crashed.contains(&id) {
                continue;
            }
            // Stash the dying instance's ledgers, trace, and counters —
            // they belong to the run even though the object is replaced.
            let (old, log) = world.nodes.remove(&id).expect("known site").into_parts();
            let st = old.stats();
            committed_carry += st.txns_committed;
            conflicts_carry += st.txns_aborted_conflict;
            trace_stash.extend(old.trace_sink().drain());
            let pess = old.view_ledger(pess_ids[&id]).unwrap_or_default();
            pess_stash.entry(id.0).or_default().push(pess);
            let opt = old.view_ledger(opt_ids[&id]).unwrap_or_default();
            opt_stash.entry(id.0).or_default().push(opt);
            // Torn tail: chop `torn` bytes off the WAL (never into the
            // baseline checkpoint), then recover the longest valid record
            // prefix — exactly what `CommitLog::open` does on disk.
            let mut buf = log.expect("crash plans are durable");
            let cut = buf.len().saturating_sub(*torn as usize).max(wal_floor[&id]);
            buf.truncate(cut);
            let scan = scan_wal(&buf).expect("self-written log is schema-clean");
            buf.truncate(scan.valid_len);
            recovered_vts
                .entry(id.0)
                .or_default()
                .extend(scan.records.iter().filter_map(|r| match r {
                    WalRecord::Commit(c) => Some(c.vt),
                    WalRecord::Checkpoint(_) => None,
                }));
            let recovery = Site::recover_from_records(scan.records, site_cfg)
                .expect("baseline checkpoint always survives the torn clamp");
            let mut fresh = recovery.site;
            if let Some(m) = mutation {
                fresh.inject_test_mutation(m);
            }
            // Fresh instrumented views over the same watch list; the
            // recovered store keeps the pre-crash object names.
            let watch = locals[&id].clone();
            let opt = fresh.attach_view(
                Box::new(RecordingView::new(watch.clone())),
                &watch,
                ViewMode::Optimistic,
            );
            let pess = fresh.attach_view(
                Box::new(RecordingView::new(watch.clone())),
                &watch,
                ViewMode::Pessimistic,
            );
            opt_ids.insert(id, opt);
            pess_ids.insert(id, pess);
            fresh.set_trace_sink(TraceSink::enabled_manual(id.0, TRACE_CAPACITY));
            fresh
                .trace_sink()
                .set_now_ns(world.now().as_micros() * 1000);
            world.net.restart_site(id);
            world.nodes.insert(id, Node::durable(fresh, buf));
            world.site(id).begin_rejoin();
            crashed.remove(&id);
            // Resume the site's gesture stream where it left off (gestures
            // submitted mid-rejoin are deferred by the engine).
            if remaining[&id] > 0 {
                world.set_timer(id, SimTime::from_millis(cfg.gap_ms), GESTURE_TOKEN);
            }
        } else if token >= FAULT_TOKEN_BASE {
            let idx = token - FAULT_TOKEN_BASE;
            let action = &plan.actions[idx as usize];
            if let FaultKind::CrashRestart { site, down_ms, .. } = &action.kind {
                let id = SiteId(*site);
                // Site 1 anchors the fault timers; keep at least two
                // sites actually up through any outage.
                if *site != 1
                    && live.contains(&id)
                    && !crashed.contains(&id)
                    && live.len() - crashed.len() > 2
                {
                    world.net.crash_site(id);
                    crashed.insert(id);
                    world.set_timer(
                        SiteId(1),
                        SimTime::from_millis((*down_ms).max(1)),
                        RESTART_TOKEN_BASE + idx,
                    );
                }
            } else {
                apply_fault(&mut world, &mut live, action);
            }
        } else if token == GESTURE_TOKEN && live.contains(&site) && !crashed.contains(&site) {
            let rem = remaining.get_mut(&site).expect("known site");
            if *rem == 0 {
                continue;
            }
            *rem -= 1;
            let index = cfg.txns_per_site - 1 - *rem;
            let op = mixes.get_mut(&site).expect("known site").next_op();
            if submit_gesture(&mut world, &locals, site, index, op) {
                gestures += 1;
            }
            if *rem > 0 {
                world.set_timer(site, SimTime::from_millis(cfg.gap_ms), GESTURE_TOKEN);
            }
        }
    }

    // Final drain: heal any open cut, then run the world dry so every
    // in-flight commit and view notification lands.
    if world.net.is_partitioned() {
        world.net.heal();
    }
    while !hung {
        match stamped_step(&mut world) {
            Some(_) => {
                steps += 1;
                if steps > STEP_BUDGET {
                    violations.push(Violation {
                        oracle: OracleKind::Quiescence,
                        site: None,
                        detail: format!("step budget {STEP_BUDGET} exhausted during final drain"),
                    });
                    hung = true;
                }
            }
            None => break,
        }
    }

    // ------------------------------------------------------------------
    // Oracles.
    // ------------------------------------------------------------------
    let strict = !plan.has_kills() && !plan.has_crashes();
    let live_ids: Vec<u32> = live.iter().map(|s| s.0).collect();

    // Per-step: no commit ever rolled back (any plan).
    let events: Vec<(u32, EngineEvent)> = world.log[log_baseline..]
        .iter()
        .map(|e| (e.site.0, e.event.clone()))
        .collect();
    violations.extend(oracle::check_no_commit_rollback(&events));

    // Committed VTs each site observed during the gesture window.
    let mut committed_at: BTreeMap<u32, BTreeSet<VirtualTime>> = BTreeMap::new();
    for (site, event) in &events {
        if let EngineEvent::TxnCommitted { vt, .. } = event {
            committed_at.entry(*site).or_default().insert(*vt);
        }
    }

    // Quiescence: every live site drained completely (any plan; §3.4
    // recovery must terminate too).
    if !hung {
        for id in &live {
            if !world.site(*id).is_quiescent() {
                let detail = world.site(*id).debug_stuck();
                violations.push(Violation {
                    oracle: OracleKind::Quiescence,
                    site: Some(id.0),
                    detail: format!("live site not quiescent after drain: {detail}"),
                });
            }
        }
    }

    // Convergence of every counter across live sites (any plan).
    for (j, names) in wired.iter().enumerate() {
        let digests: Vec<_> = live
            .iter()
            .map(|id| {
                let name = names[(id.0 - 1) as usize];
                (id.0, world.site(*id).committed_digest(name))
            })
            .collect();
        violations.extend(oracle::check_convergence(j, &digests));
    }

    // View oracles per live site; losslessness only for kill-free plans.
    for id in &live {
        let empty = BTreeSet::new();
        let committed = committed_at.get(&id.0).unwrap_or(&empty);
        let pess = world
            .site(*id)
            .view_ledger(pess_ids[id])
            .unwrap_or_default();
        violations.extend(oracle::check_pess_view(
            id.0,
            &pess,
            strict.then_some(committed),
        ));
        let opt = world.site(*id).view_ledger(opt_ids[id]).unwrap_or_default();
        violations.extend(oracle::check_opt_view(id.0, &opt, strict));
        violations.extend(oracle::check_gc(id.0, world.site(*id).gc_watermark()));
    }

    // Crash-plan oracles: no durably recovered commit may be lost, and
    // pessimistic notifications must stay lossless *through* the restart
    // boundary. Pre-crash ledger segments are checked structurally on
    // their own — no ordering constraint spans the boundary.
    if durable && !hung {
        for (site, segs) in &pess_stash {
            for seg in segs {
                violations.extend(oracle::check_pess_view(*site, seg, None));
            }
        }
        for (site, segs) in &opt_stash {
            for seg in segs {
                violations.extend(oracle::check_opt_view(*site, seg, false));
            }
        }
        let empty = BTreeSet::new();
        for id in &live {
            let committed = committed_at.get(&id.0).unwrap_or(&empty);
            let recovered = recovered_vts.get(&id.0).unwrap_or(&empty);
            let mut notified: BTreeSet<VirtualTime> = BTreeSet::new();
            let final_pess = world
                .site(*id)
                .view_ledger(pess_ids[id])
                .unwrap_or_default();
            let stashed = pess_stash.get(&id.0).map_or(&[][..], |s| s.as_slice());
            for seg in stashed.iter().chain(std::iter::once(&final_pess)) {
                notified.extend(seg.iter().filter_map(|e| match e.kind {
                    ViewLedgerKind::Update(_) => Some(e.ts),
                    ViewLedgerKind::Commit => None,
                }));
            }
            violations.extend(oracle::check_pess_coverage(
                id.0, &notified, committed, recovered,
            ));
        }
        for (site, vts) in &recovered_vts {
            let committed_now: BTreeSet<VirtualTime> = vts
                .iter()
                .filter(|vt| world.site(SiteId(*site)).committed_contains(**vt))
                .copied()
                .collect();
            violations.extend(oracle::check_crash_durability(*site, vts, &committed_now));
        }
    }

    // Merge the per-site traces into one time-ordered JSONL stream,
    // including events stashed from pre-crash site instances.
    let mut trace_events = trace_stash;
    let mut trace_dropped: u64 = 0;
    for id in locals.keys() {
        let sink = world.site(*id).trace_sink();
        trace_dropped += sink.dropped();
        trace_events.extend(sink.drain());
    }
    trace_events.sort_by_key(|e| (e.ts_ns, e.site));

    // Trace completeness (kill-free plans): every committed VT must have a
    // fully stitchable cross-site span. Skipped when a bounded ring
    // overflowed — a dropped event punches a legitimate hole — so the
    // oracle only ever fires on real instrumentation or delivery gaps.
    if strict && !hung && trace_dropped == 0 {
        violations.extend(oracle::check_trace_complete(&trace_events));
    }

    let trace: Vec<String> = trace_events.iter().map(|e| e.to_jsonl()).collect();

    let totals = world.total_stats();
    RunReport {
        violations,
        steps,
        gestures,
        committed: (totals.txns_committed + committed_carry)
            .saturating_sub(stats_baseline.txns_committed),
        conflicts: (totals.txns_aborted_conflict + conflicts_carry)
            .saturating_sub(stats_baseline.txns_aborted_conflict),
        live: live_ids,
        trace,
    }
}

/// Stamps every sink with the simulated time of the next event, then
/// advances the world one step.
fn stamped_step(world: &mut SimWorld) -> Option<WorldStep> {
    world.flush();
    let t = world.net.peek_time().unwrap_or_else(|| world.now());
    let ns = t.as_micros() * 1000;
    for node in world.nodes.values() {
        node.site.trace_sink().set_now_ns(ns);
    }
    world.step()
}

/// Applies one fault action to the running world.
fn apply_fault(world: &mut SimWorld, live: &mut BTreeSet<SiteId>, action: &FaultAction) {
    let max = world.nodes.len() as u32;
    match &action.kind {
        FaultKind::Partition { a, b } => {
            let ga: Vec<SiteId> = a
                .iter()
                .filter(|s| (1..=max).contains(*s))
                .map(|s| SiteId(*s))
                .collect();
            let gb: Vec<SiteId> = b
                .iter()
                .filter(|s| (1..=max).contains(*s))
                .map(|s| SiteId(*s))
                .collect();
            if !ga.is_empty() && !gb.is_empty() {
                world.net.partition(&ga, &gb);
            }
        }
        FaultKind::Heal => world.net.heal(),
        FaultKind::Kill { site } => {
            let id = SiteId(*site);
            // Site 1 anchors fault timers; always keep two survivors.
            if *site != 1 && live.contains(&id) && live.len() > 2 {
                world.fail_site(id);
                live.remove(&id);
            }
        }
        // Crash-restarts are handled inline by the run loop: they need
        // the WAL images and restart timers that live in its scope.
        FaultKind::CrashRestart { .. } => {}
    }
}

/// Submits the gesture `op` at `site`, targeting counters rotated by the
/// gesture `index`. Returns whether a transaction was actually submitted
/// (membership ops are driven by fault plans here, not the mix).
fn submit_gesture(
    world: &mut SimWorld,
    locals: &BTreeMap<SiteId, Vec<ObjectName>>,
    site: SiteId,
    index: u32,
    op: MixOp,
) -> bool {
    let watch = &locals[&site];
    let object = watch[index as usize % watch.len()];
    let kind = match op {
        MixOp::Txn(kind) => kind,
        MixOp::Join | MixOp::Leave => return false,
    };
    match kind {
        TxnKind::BlindWrite => world.site(site).execute(Box::new(BlindWrite {
            object,
            value: i64::from(site.0) * 1000 + i64::from(index),
        })),
        TxnKind::ReadModifyWrite => world
            .site(site)
            .execute(Box::new(ReadModifyWrite { object, delta: 1 })),
        TxnKind::GuessHeavy => world.site(site).execute(Box::new(GuessHeavy {
            reads: watch.clone(),
            write: object,
            delta: 1,
        })),
    };
    true
}
