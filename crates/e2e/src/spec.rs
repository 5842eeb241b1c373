//! The benchmark's contract as data: workload names and why each exists,
//! every metric's name and unit, and each end-to-end metric's regression
//! bound. `BENCHMARK.json` at the repository root says the same thing;
//! `tests/smoke.rs` fails when the two drift apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, unique over both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    e2e(name, unit, better, 0.0)
}

/// The four workloads: `(name, why)`. Names are final; later issues refer
/// to them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "whiteboard3",
        "open loop on one CPU, 200 blind writes/s at each of 3 sites (paper 5.1.2): ~20% of capacity, so latency is wire + batch linger + wake-ups and the conflict machinery is idle",
    ),
    (
        "duel_list3",
        "lock-step rounds in 2 s bouts on fresh engines: sites 2 and 3 each rotate one shared 256-element list, so every round is one RL/NC conflict, rollback and re-execution; engine-bound, few messages",
    ),
    (
        "saturate3",
        "closed loop, sites 2 and 3 keep 8 blind writes outstanding each, site 1 only checks: capacity; CPU-bound, so batching, codec, allocation and lock changes show here",
    ),
    (
        "daemon3",
        "site 1 is a real decaf-site process (primary of the shared counter), site 2 increments it one gesture at a time: the loop that ships, its 1 ms pacing and process set-up",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from the untraced run.
/// Commit, remote and view latencies are over gestures that originate at
/// the non-primary sites 2 and 3 — the one-round-trip case.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("commit_p50_us", "us", Lower, 0.25),
    e2e("remote_commit_p50_us", "us", Lower, 0.25),
    e2e("pess_view_p50_us", "us", Lower, 0.25),
    e2e("opt_view_p50_us", "us", Lower, 0.25),
    e2e("commits_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Per-layer metrics, reported by every workload from the traced run.
/// Layer = module. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [MetricSpec; 71] = [
    // decaf-core engine.
    layer("core.execute.count", "count", Lower),
    layer("core.execute.p50_ns", "ns", Lower),
    layer("core.execute.busy_ns", "ns", Lower),
    layer("core.handle.count", "count", Lower),
    layer("core.handle.busy_ns", "ns", Lower),
    layer("core.handle.txn.p50_ns", "ns", Lower),
    layer("core.handle.txn_check.p50_ns", "ns", Lower),
    layer("core.handle.confirm.p50_ns", "ns", Lower),
    layer("core.handle.deny.p50_ns", "ns", Lower),
    layer("core.handle.commit.p50_ns", "ns", Lower),
    layer("core.handle.abort.p50_ns", "ns", Lower),
    layer("core.handle.snap_confirm.p50_ns", "ns", Lower),
    layer("core.drain_outbox.busy_ns", "ns", Lower),
    layer("core.drain_outbox.env_per_call", "count", Higher),
    layer("core.drain_events.busy_ns", "ns", Lower),
    layer("core.busy_share", "share", Lower),
    layer("core.msgs_per_commit", "count", Lower),
    layer("core.retries_per_commit", "count", Lower),
    layer("core.conflict_aborts", "count", Lower),
    layer("core.view.opt_notifications", "count", Lower),
    layer("core.view.pess_notifications", "count", Lower),
    layer("core.view.lost_updates", "count", Lower),
    layer("core.view.pess_lost", "count", Lower),
    layer("core.view.snapshot_reruns", "count", Lower),
    layer("core.view.opt_matched_share", "share", Higher),
    layer("core.gc_discarded", "count", Higher),
    layer("core.history_len_end", "count", Lower),
    // decaf-net::tcp.
    layer("net.tcp.send.count", "count", Lower),
    layer("net.tcp.send.busy_ns", "ns", Lower),
    layer("net.tcp.recv.wait_ns", "ns", Lower),
    layer("net.tcp.recv.events_per_wake", "count", Higher),
    layer("net.tcp.transit_p50_us", "us", Lower),
    layer("net.tcp.transit_p90_us", "us", Lower),
    layer("net.tcp.frames_out", "count", Lower),
    layer("net.tcp.bytes_out", "B", Lower),
    layer("net.tcp.env_per_frame", "count", Higher),
    layer("net.tcp.bytes_per_commit", "B", Lower),
    layer("net.tcp.wire_ceiling_share", "share", Lower),
    layer("net.tcp.queue_depth_hwm", "count", Lower),
    layer("net.tcp.heartbeats_sent", "count", Lower),
    layer("net.tcp.sends_dropped", "count", Lower),
    layer("net.tcp.reconnects", "count", Lower),
    layer("net.tcp.peers_failed", "count", Lower),
    // decaf-net::wire, isolated replay of captured envelopes.
    layer("net.wire.encode_v2_ns", "ns", Lower),
    layer("net.wire.decode_v2_ns", "ns", Lower),
    layer("net.wire.bytes_per_env", "B", Lower),
    layer("net.wire.frame_ns", "ns", Lower),
    layer("net.wire.batch64_encode_ns_per_env", "ns", Lower),
    layer("net.wire.batch64_decode_ns_per_env", "ns", Lower),
    // decaf-vt, isolated.
    layer("vt.history.insert_ns", "ns", Lower),
    layer("vt.history.value_at_8_ns", "ns", Lower),
    layer("vt.history.value_at_1024_ns", "ns", Lower),
    layer("vt.reservation.check_write_ns", "ns", Lower),
    // decaf-trace.
    layer("trace.sink_on_ratio", "ratio", Lower),
    layer("trace.events_dropped", "count", Lower),
    // decaf-site, parsed from its stdout (daemon3 only).
    layer("apps.site.us_per_commit", "us", Lower),
    layer("apps.site.msgs_per_commit", "count", Lower),
    layer("apps.site.env_per_frame", "count", Higher),
    layer("apps.site.startup_ms", "ms", Lower),
    // The harness itself.
    layer("harness.late_p99_us", "us", Lower),
    layer("harness.span_overhead_ratio", "ratio", Lower),
    layer("harness.unexplained_share", "share", Lower),
    layer("harness.cpu_share", "share", Lower),
    // Failures over attempts, and the tails: too noisy on a shared box to
    // carry a bound.
    layer("failed_share", "share", Lower),
    layer("tail.commit_p90_us", "us", Lower),
    layer("tail.commit_p99_us", "us", Lower),
    layer("tail.remote_commit_p90_us", "us", Lower),
    layer("tail.remote_commit_p99_us", "us", Lower),
    layer("tail.pess_view_p90_us", "us", Lower),
    layer("tail.pess_view_p99_us", "us", Lower),
    layer("tail.opt_view_p90_us", "us", Lower),
];
