//! From a finished session's logs to numbers: the end-to-end metrics (a
//! post-run join on virtual time — one process clock, no skew estimate),
//! the output checks, and the per-layer metrics of a traced session.

use std::collections::{BTreeMap, HashMap};

use decaf_core::{SiteStats, TransportStats};
use decaf_vt::VirtualTime;

use crate::node::{Gesture, MsgRec, MsgTag, NodeLog, ObsKind, Span, SpanKind, NO_PARENT};
use crate::session::SessionData;
use crate::workload::{model_state, DAEMON_SENTINEL};

/// Segments of one long measured window: one per second, at least 5 and at
/// most 20. Every end-to-end latency and rate is computed per segment first.
/// (A workload run in bouts has one segment per bout instead.)
pub fn segment_count(data: &SessionData) -> usize {
    let window_ns = data.end.t_ns - data.begin.t_ns;
    ((window_ns as f64 / 1e9).round() as usize).clamp(5, 20)
}

/// Which of a run's per-segment values stands for the run in an end-to-end
/// metric: the 10th percentile from the good end — of twenty one-second
/// latency medians, about the second lowest. On the shared 2-core build
/// box interference comes in bursts of a second up to spells of minutes
/// (README, finding 11) and it only ever adds latency: the level the good
/// seconds agree on is the program's, and it repeated between runs two to
/// four times better than the median over segments did (README, "Bounds
/// and steadiness"). The tails keep the median over segments.
const QUIET: f64 = 0.1;

/// Share of pessimistic notifications the `pess.lossless` check lets the
/// seed engine lose. Isolated runs lose about 1 in 10⁵; two benchmarks
/// run side by side on two cores lost 4 in 10³.
pub const PESS_LOSS_TOLERANCE: f64 = 0.01;

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, in the unit `spec` gives its name.
    pub value: f64,
    /// How well the segments agree on `value`: the width of the band of
    /// segment values within 15 percentiles either side of the reported
    /// one, over the value — for a latency, (lower quartile − minimum) /
    /// value. NaN where the metric is not made of per-segment values.
    pub spread: f64,
    /// Samples behind the value (per segment, summed); 0 for plain counts.
    pub samples: u64,
}

impl Metric {
    /// A number that is not a median of segments.
    pub fn plain(value: f64) -> Metric {
        Metric {
            value,
            spread: f64::NAN,
            samples: 0,
        }
    }
}

/// Metrics by name.
pub type Metrics = BTreeMap<&'static str, Metric>;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The evidence, either way.
    pub detail: String,
}

/// Where the `q`-quantile sits in a sorted sample of `n` ≥ 1: the two
/// neighbouring indices and the weight of the upper one.
fn quantile_pos(n: usize, q: f64) -> (usize, usize, f64) {
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, (lo + 1).min(n - 1), pos.fract())
}

/// The `q`-quantile of `sorted` (ascending), linearly interpolated; 0 for
/// no samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let (lo, hi, frac) = quantile_pos(sorted.len(), q);
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The `q`-quantile of a small set of per-segment values, with their
/// spread.
fn over_segments(values: &[f64], samples: u64, q: f64) -> Metric {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return Metric {
            value: 0.0,
            spread: f64::NAN,
            samples,
        };
    }
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let (lo, hi, frac) = quantile_pos(v.len(), q);
        v[lo] * (1.0 - frac) + v[hi] * frac
    };
    Metric {
        value: at(q),
        spread: (at((q + 0.15).min(1.0)) - at((q - 0.15).max(0.0))) / at(q),
        samples,
    }
}

/// Latency samples of one segment, in nanoseconds.
#[derive(Debug, Default, Clone)]
struct Segment {
    commit: Vec<u64>,
    remote: Vec<u64>,
    pess: Vec<u64>,
    opt: Vec<u64>,
    /// Gestures decided `Committed` in this segment, all sites.
    commits: u64,
    /// The segment's length in seconds.
    secs: f64,
}

impl Segment {
    fn commits_per_s(&self) -> f64 {
        self.commits as f64 / self.secs
    }

    /// The four sample sets, indexed by [`COMMIT`] to [`OPT`].
    fn samples_mut(&mut self) -> [&mut Vec<u64>; 4] {
        [
            &mut self.commit,
            &mut self.remote,
            &mut self.pess,
            &mut self.opt,
        ]
    }
}

/// Indices into [`Segment::samples_mut`].
const COMMIT: usize = 0;
const REMOTE: usize = 1;
const PESS: usize = 2;
const OPT: usize = 3;

/// Selects one of a segment's sample sets.
type Pick = fn(&Segment) -> &Vec<u64>;

/// The join of gestures with what the other sites observed.
#[derive(Default)]
pub struct Joined {
    segments: Vec<Segment>,
    /// Workload gestures due in the window, all sites.
    pub attempted: u64,
    /// Of those, not committed by the end of the drain.
    pub failed: u64,
    /// (gesture, remote site) pairs with neither a `TxnCommitted` nor a
    /// pessimistic notification at the remote: the notifications the
    /// engine lost.
    pub missing_remote: u64,
    /// Pairs whose remote commit was timed by the pessimistic notification:
    /// the COMMIT overtook the TXN on another link, and on that path the
    /// engine applies the update as committed, notifies the views, and
    /// emits no `TxnCommitted`. Both carry the same stamp.
    pub remote_via_view: u64,
    /// Per harness site, over the whole session: commits on objects its
    /// pessimistic view watches, and notifications that view received.
    pub pess_counts: Vec<(u64, u64)>,
    /// Pairs with an optimistic notification carrying the gesture's VT.
    pub opt_matched: u64,
    /// All (gesture, remote site) pairs.
    pub pairs: u64,
    /// Of those, pairs where the remote's views watch the gesture's object.
    pub watched_pairs: u64,
    /// Open-loop lateness (`submit − due`) of the window's gestures.
    late: Vec<u64>,
}

/// First observation time of each VT, per site and kind.
fn index_obs(log: &NodeLog) -> [HashMap<VirtualTime, u64>; 3] {
    let mut idx: [HashMap<VirtualTime, u64>; 3] = Default::default();
    for o in &log.obs {
        let slot = match o.kind {
            ObsKind::RemoteCommit => 0,
            ObsKind::PessView => 1,
            ObsKind::OptView => 2,
        };
        idx[slot].entry(o.vt).or_insert(o.t_ns);
    }
    idx
}

fn in_window(g: &Gesture, t0: u64, t1: u64) -> bool {
    !g.setup && g.due_ns >= t0 && g.due_ns < t1
}

/// Joins every site's gestures with every other site's observations, over
/// a measured window cut into `segments` equal parts.
///
/// In a workload of lock-step rounds a latency sample is a *round's* mean,
/// not a gesture's: a `duel_list3` round has one gesture that commits at
/// its first attempt and one that is denied and re-executed, so gesture
/// latencies are two heaps a factor of two apart, the median sits on the
/// edge of one of them, and it moved with how the rounds happened to fall
/// (README, finding 12). The round's mean has one heap.
pub fn join(data: &SessionData, segments: usize) -> Joined {
    let (t0, t1) = (data.begin.t_ns, data.end.t_ns);
    let seg_ns = (t1 - t0) as f64 / segments as f64;
    let seg_of = |t: u64| (((t - t0) as f64 / seg_ns) as usize).min(segments - 1);
    let indexes: Vec<_> = data.logs.iter().map(index_obs).collect();
    let mut j = Joined {
        segments: vec![
            Segment {
                secs: seg_ns / 1e9,
                ..Segment::default()
            };
            segments
        ],
        ..Joined::default()
    };
    let by_round = data.workload.lock_step();
    // (round, kind) -> (segment, sum, count), filled only when `by_round`.
    let mut rounds: BTreeMap<(u64, usize), (usize, u64, u64)> = BTreeMap::new();
    for (o, log) in data.logs.iter().enumerate() {
        let mut next_round = 0;
        for g in &log.gestures {
            // The k-th workload gesture of a site belongs to round k.
            let round = next_round;
            next_round += u64::from(!g.setup);
            if !g.setup && g.committed && g.decided_ns >= t0 && g.decided_ns < t1 {
                j.segments[seg_of(g.decided_ns)].commits += 1;
            }
            if !in_window(g, t0, t1) {
                continue;
            }
            j.attempted += 1;
            j.late.push(g.submit_ns.saturating_sub(g.due_ns));
            if !g.committed {
                j.failed += 1;
                continue;
            }
            // Latencies are for the one-round-trip case: origin ≠ primary.
            if log.site == 1 {
                continue;
            }
            let seg = seg_of(g.due_ns);
            let mut put = |kind: usize, ns: u64| {
                if by_round {
                    let r = rounds.entry((round, kind)).or_insert((seg, 0, 0));
                    r.1 += ns;
                    r.2 += 1;
                } else {
                    j.segments[seg].samples_mut()[kind].push(ns);
                }
            };
            put(COMMIT, g.decided_ns - g.due_ns);
            for (r, idx) in indexes.iter().enumerate().filter(|(r, _)| *r != o) {
                j.pairs += 1;
                let since_due = |t: &u64| t.saturating_sub(g.due_ns);
                match (idx[0].get(&g.vt), idx[1].get(&g.vt)) {
                    (Some(t), _) => put(REMOTE, since_due(t)),
                    (None, Some(t)) => {
                        put(REMOTE, since_due(t));
                        j.remote_via_view += 1;
                    }
                    (None, None) => j.missing_remote += 1,
                }
                if !data.logs[r].watched.contains(&(g.op.obj() as usize)) {
                    continue;
                }
                j.watched_pairs += 1;
                if let Some(t) = idx[1].get(&g.vt) {
                    put(PESS, since_due(t));
                }
                if let Some(t) = idx[2].get(&g.vt) {
                    put(OPT, since_due(t));
                    j.opt_matched += 1;
                }
            }
        }
    }
    for ((_, kind), (seg, sum, n)) in rounds {
        j.segments[seg].samples_mut()[kind].push(sum / n);
    }
    j.pess_counts = data
        .logs
        .iter()
        .map(|l| {
            let commits = data
                .logs
                .iter()
                .flat_map(|origin| &origin.gestures)
                .filter(|g| g.committed && l.watched.contains(&(g.op.obj() as usize)))
                .count() as u64;
            let notified = l.obs.iter().filter(|o| o.kind == ObsKind::PessView).count() as u64;
            (commits, notified)
        })
        .collect();
    for seg in &mut j.segments {
        for v in seg.samples_mut() {
            v.sort_unstable();
        }
    }
    j.late.sort_unstable();
    j
}

impl Joined {
    /// The bouts of one run as one join: a segment per bout, counts summed.
    pub fn merged(bouts: Vec<Joined>) -> Joined {
        let mut all = Joined::default();
        for b in bouts {
            all.segments.extend(b.segments);
            all.attempted += b.attempted;
            all.failed += b.failed;
            all.missing_remote += b.missing_remote;
            all.remote_via_view += b.remote_via_view;
            all.pess_counts.extend(b.pess_counts);
            all.opt_matched += b.opt_matched;
            all.pairs += b.pairs;
            all.watched_pairs += b.watched_pairs;
            all.late.extend(b.late);
        }
        all.late.sort_unstable();
        all
    }

    /// The `over`-quantile over segments of each segment's `q`-quantile
    /// latency, in µs.
    fn latency(&self, pick: impl Fn(&Segment) -> &Vec<u64>, q: f64, over: f64) -> Metric {
        let per_seg: Vec<f64> = self
            .segments
            .iter()
            .map(&pick)
            .filter(|v| !v.is_empty())
            .map(|v| quantile(v, q) / 1e3)
            .collect();
        let samples = self.segments.iter().map(|s| pick(s).len() as u64).sum();
        over_segments(&per_seg, samples, over)
    }

    /// Pessimistic notifications the engine lost: commits on watched
    /// objects less notifications received, summed over the sites.
    pub fn pess_lost(&self) -> u64 {
        self.pess_counts
            .iter()
            .map(|(commits, notified)| commits.saturating_sub(*notified))
            .sum()
    }

    /// The end-to-end `commit_p50_us`.
    pub fn commit_p50_us(&self) -> f64 {
        self.latency(|s| &s.commit, 0.5, QUIET).value
    }

    /// The end-to-end `commits_per_s`: the good end is the high one.
    pub fn commits_per_s(&self) -> Metric {
        let per_seg: Vec<f64> = self.segments.iter().map(Segment::commits_per_s).collect();
        let commits = self.segments.iter().map(|s| s.commits).sum();
        over_segments(&per_seg, commits, 1.0 - QUIET)
    }

    /// The latency and rate metrics of the contract's end-to-end list
    /// (`setup_s` and `peak_rss_mb` are the caller's).
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::new();
        m.insert("commit_p50_us", self.latency(|s| &s.commit, 0.5, QUIET));
        m.insert(
            "remote_commit_p50_us",
            self.latency(|s| &s.remote, 0.5, QUIET),
        );
        m.insert("pess_view_p50_us", self.latency(|s| &s.pess, 0.5, QUIET));
        m.insert("opt_view_p50_us", self.latency(|s| &s.opt, 0.5, QUIET));
        m.insert("commits_per_s", self.commits_per_s());
        m
    }

    /// The per-segment values behind each number, one line per metric: a
    /// drift through the window, a change of level or one stalled segment
    /// shows here.
    pub fn segment_lines(&self) -> Vec<String> {
        let row = |name: &str, values: Vec<f64>| {
            let cells: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
            format!("segments {name:<24} {}", cells.join("  "))
        };
        let q = |pick: Pick, q: f64| -> Vec<f64> {
            self.segments
                .iter()
                .map(|s| quantile(pick(s), q) / 1e3)
                .collect()
        };
        vec![
            row("commit_p50_us", q(|s| &s.commit, 0.5)),
            row("tail.commit_p90_us", q(|s| &s.commit, 0.9)),
            row("remote_commit_p50_us", q(|s| &s.remote, 0.5)),
            row("pess_view_p50_us", q(|s| &s.pess, 0.5)),
            row("opt_view_p50_us", q(|s| &s.opt, 0.5)),
            row(
                "commits_per_s",
                self.segments.iter().map(Segment::commits_per_s).collect(),
            ),
        ]
    }

    /// Failures, tails and generator lateness: per-layer companions of the
    /// end-to-end list.
    pub fn tails(&self) -> Metrics {
        let mut m = Metrics::new();
        let share = |n: u64, d: u64| ratio(n as f64, d as f64);
        m.insert(
            "failed_share",
            Metric::plain(share(self.failed, self.attempted)),
        );
        let tails: [(&'static str, Pick, f64); 7] = [
            ("tail.commit_p90_us", |s| &s.commit, 0.9),
            ("tail.commit_p99_us", |s| &s.commit, 0.99),
            ("tail.remote_commit_p90_us", |s| &s.remote, 0.9),
            ("tail.remote_commit_p99_us", |s| &s.remote, 0.99),
            ("tail.pess_view_p90_us", |s| &s.pess, 0.9),
            ("tail.pess_view_p99_us", |s| &s.pess, 0.99),
            ("tail.opt_view_p90_us", |s| &s.opt, 0.9),
        ];
        for (name, pick, q) in tails {
            m.insert(name, self.latency(pick, q, 0.5));
        }
        m.insert(
            "core.view.pess_lost",
            Metric::plain(self.pess_lost() as f64),
        );
        m.insert(
            "core.view.opt_matched_share",
            Metric::plain(share(self.opt_matched, self.watched_pairs)),
        );
        m.insert(
            "harness.late_p99_us",
            Metric {
                value: quantile(&self.late, 0.99) / 1e3,
                spread: f64::NAN,
                samples: self.late.len() as u64,
            },
        );
        m
    }
}

/// Resident-set high-water mark of this process (`VmHWM`) less the bytes
/// the harness's own logs hold, in MB: the engines, the meshes and the
/// allocator's slack. Without the subtraction the logs — a few hundred
/// bytes per commit — are most of a `saturate3` run's resident set.
pub fn peak_rss_mb(data: &SessionData) -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    let logs: usize = data.logs.iter().map(NodeLog::heap_bytes).sum();
    (hwm_kb / 1024.0 - logs as f64 / (1024.0 * 1024.0)).max(0.0)
}

/// CPU time this process has used, user and system, in nanoseconds
/// (`/proc/self/stat`, fields 14 and 15, in 10 ms ticks).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count from its ')'.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000
}

fn sum_stats(probes: &[crate::node::Probe]) -> SiteStats {
    let mut sum = SiteStats::default();
    for p in probes {
        sum.merge(&p.stats);
    }
    sum
}

/// The output checks. A run is correct when all hold.
pub fn checks(data: &SessionData, j: &Joined) -> Vec<Check> {
    let mut out = Vec::new();
    let mut check = |name, ok, detail: String| out.push(Check { name, ok, detail });

    // 1. Every site ends with the state the gesture log implies.
    let gestures: Vec<&[Gesture]> = data.logs.iter().map(|l| l.gestures.as_slice()).collect();
    let model = model_state(&data.workload.layout(), &gestures);
    let diverged: Vec<String> = data
        .logs
        .iter()
        .zip(&data.final_probes)
        .filter_map(|(l, p)| {
            let j = p
                .values
                .iter()
                .zip(&model)
                .position(|(got, want)| got != want)?;
            Some(format!(
                "site {} object {j}: {:?} != {:?}",
                l.site, p.values[j], model[j]
            ))
        })
        .collect();
    check(
        "state.converged_on_model",
        diverged.is_empty(),
        format!(
            "{} sites hold the state a VT-order replay of {} committed gestures gives; differing: {diverged:?}",
            data.logs.len(),
            gestures.iter().flat_map(|g| g.iter()).filter(|g| g.committed).count(),
        ),
    );
    if let Some(d) = &data.daemon {
        let want = match model.first() {
            Some(crate::node::ObjValue::Int(v)) => *v,
            _ => None,
        };
        check(
            "daemon.exit_value",
            d.exit_value.is_some() && d.exit_value == want,
            format!(
                "decaf-site exit value={:?}, model {:?} (= {} + committed increments)",
                d.exit_value, want, DAEMON_SENTINEL
            ),
        );
        check(
            "daemon.no_faults",
            d.transport_faults == 0 && d.site_failures == 0,
            format!(
                "transport faults {}, site-failed lines {}",
                d.transport_faults, d.site_failures
            ),
        );
    }

    // 2. Pessimistic notifications: strictly VT-monotonic, one per commit.
    let total_committed = gestures
        .iter()
        .flat_map(|g| g.iter())
        .filter(|g| g.committed)
        .count();
    let monotonic = data.logs.iter().all(|log| {
        let pess: Vec<VirtualTime> = log
            .obs
            .iter()
            .filter(|o| o.kind == ObsKind::PessView)
            .map(|o| o.vt)
            .collect();
        pess.windows(2).all(|w| w[0] < w[1])
    });
    check(
        "pess.strictly_monotonic",
        monotonic,
        "pessimistic ViewUpdated VTs ascend at every site".into(),
    );
    // The seed engine loses a pessimistic notification now and then (see
    // the README: a COMMIT that overtakes its TXN can land below the
    // view's frontier). Counted exactly; the check fails only on a loss no
    // race explains, so that a change which breaks delivery is caught.
    let expected: u64 = j.pess_counts.iter().map(|(commits, _)| commits).sum();
    let tolerated = (expected as f64 * PESS_LOSS_TOLERANCE).floor();
    check(
        "pess.lossless",
        j.pess_counts.iter().all(|(commits, notified)| notified <= commits)
            && j.pess_lost() as f64 <= tolerated,
        format!(
            "(commits on watched objects, notifications) per site {:?}; lost {} (tolerated {tolerated}); of {} measured (gesture, remote) pairs {} saw no event and {} were timed by the view (COMMIT overtook TXN: no TxnCommitted)",
            j.pess_counts,
            j.pess_lost(),
            j.pairs,
            j.missing_remote,
            j.remote_via_view,
        ),
    );

    // 3. The transport stayed healthy.
    let t = &data.final_transport;
    let failures: u64 = data.logs.iter().map(|l| l.site_failures).sum();
    check(
        "transport.no_faults",
        t.sends_dropped + t.peers_failed + t.frames_rejected + t.reconnects + failures == 0,
        format!(
            "sends_dropped {} peers_failed {} frames_rejected {} reconnects {} SiteFailed {}",
            t.sends_dropped, t.peers_failed, t.frames_rejected, t.reconnects, failures
        ),
    );

    // 4. The harness's books agree with the engine's.
    let all: Vec<&Gesture> = gestures.iter().flat_map(|g| g.iter()).collect();
    let (aborted, undecided) = (
        all.iter()
            .filter(|g| g.decided_ns != 0 && !g.committed)
            .count(),
        all.iter().filter(|g| g.decided_ns == 0).count(),
    );
    let engine = sum_stats(&data.final_probes);
    check(
        "books.balance",
        all.len() == total_committed + aborted + undecided
            && engine.txns_started == all.len() as u64
            && engine.txns_committed == total_committed as u64,
        format!(
            "attempted {} = committed {total_committed} + aborted {aborted} + undecided {undecided}; engine started {} committed {}",
            all.len(),
            engine.txns_started,
            engine.txns_committed
        ),
    );
    out
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced session
// ---------------------------------------------------------------------------

fn delta(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64
}

/// `n / d`, or 0 where there is nothing to divide by.
pub fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Per-layer metrics that come from spans, message records and counter
/// deltas over the measured window of a traced session.
pub fn per_layer(data: &SessionData, j: &Joined) -> Metrics {
    let (t0, t1) = (data.begin.t_ns, data.end.t_ns);
    let wall_ns = (t1 - t0) as f64;
    let mut m = Metrics::new();
    let mut put = |name: &'static str, v: f64| {
        m.insert(name, Metric::plain(v));
    };

    // Spans by kind, window only.
    let mut durs: BTreeMap<SpanKind, Vec<u64>> = BTreeMap::new();
    let (mut outbox_envs, mut outbox_calls, mut recv_events, mut recv_wakes) =
        (0u64, 0u64, 0u64, 0u64);
    for s in data.logs.iter().flat_map(|l| &l.spans) {
        if s.start_ns < t0 || s.start_ns >= t1 {
            continue;
        }
        durs.entry(s.kind).or_default().push(s.end_ns - s.start_ns);
        match s.kind {
            SpanKind::DrainOutbox if s.n > 0 => {
                outbox_envs += u64::from(s.n);
                outbox_calls += 1;
            }
            SpanKind::Recv if s.n > 0 => {
                recv_events += u64::from(s.n);
                recv_wakes += 1;
            }
            _ => {}
        }
    }
    for v in durs.values_mut() {
        v.sort_unstable();
    }
    let busy = |k: SpanKind| durs.get(&k).map_or(0.0, |v| v.iter().sum::<u64>() as f64);
    let count = |k: SpanKind| durs.get(&k).map_or(0.0, |v| v.len() as f64);
    let p50 = |k: SpanKind| durs.get(&k).map_or(0.0, |v| quantile(v, 0.5));

    put("core.execute.count", count(SpanKind::Execute));
    put("core.execute.p50_ns", p50(SpanKind::Execute));
    put("core.execute.busy_ns", busy(SpanKind::Execute));
    let handle_busy: f64 = MsgTag::ALL.iter().map(|&t| busy(SpanKind::Handle(t))).sum();
    put(
        "core.handle.count",
        MsgTag::ALL
            .iter()
            .map(|&t| count(SpanKind::Handle(t)))
            .sum(),
    );
    put("core.handle.busy_ns", handle_busy);
    for (tag, name) in [
        (MsgTag::Txn, "core.handle.txn.p50_ns"),
        (MsgTag::TxnCheck, "core.handle.txn_check.p50_ns"),
        (MsgTag::Confirm, "core.handle.confirm.p50_ns"),
        (MsgTag::Deny, "core.handle.deny.p50_ns"),
        (MsgTag::Commit, "core.handle.commit.p50_ns"),
        (MsgTag::Abort, "core.handle.abort.p50_ns"),
        (MsgTag::SnapConfirm, "core.handle.snap_confirm.p50_ns"),
    ] {
        put(name, p50(SpanKind::Handle(tag)));
    }
    put("core.drain_outbox.busy_ns", busy(SpanKind::DrainOutbox));
    put(
        "core.drain_outbox.env_per_call",
        ratio(outbox_envs as f64, outbox_calls as f64),
    );
    put("core.drain_events.busy_ns", busy(SpanKind::DrainEvents));
    let core_busy = busy(SpanKind::Execute)
        + handle_busy
        + busy(SpanKind::DrainOutbox)
        + busy(SpanKind::DrainEvents);
    put(
        "core.busy_share",
        ratio(core_busy, data.logs.len() as f64 * wall_ns),
    );

    // Engine counters over the window.
    let (e0, e1) = (sum_stats(&data.begin.probes), sum_stats(&data.end.probes));
    let commits = delta(e0.txns_committed, e1.txns_committed);
    put(
        "core.msgs_per_commit",
        ratio(delta(e0.msgs_sent, e1.msgs_sent), commits),
    );
    put(
        "core.retries_per_commit",
        ratio(delta(e0.retries, e1.retries), commits),
    );
    put(
        "core.conflict_aborts",
        delta(e0.txns_aborted_conflict, e1.txns_aborted_conflict),
    );
    put(
        "core.view.opt_notifications",
        delta(e0.opt_notifications, e1.opt_notifications),
    );
    put(
        "core.view.pess_notifications",
        delta(e0.pess_notifications, e1.pess_notifications),
    );
    put(
        "core.view.lost_updates",
        delta(e0.lost_updates, e1.lost_updates),
    );
    put(
        "core.view.snapshot_reruns",
        delta(e0.snapshot_reruns, e1.snapshot_reruns),
    );
    put("core.gc_discarded", delta(e0.gc_discarded, e1.gc_discarded));
    put(
        "core.history_len_end",
        data.end.probes.iter().map(|p| p.history_len).sum::<u64>() as f64,
    );

    // Transport: spans, counters, and FIFO-matched transits.
    put("net.tcp.send.count", count(SpanKind::Send));
    put("net.tcp.send.busy_ns", busy(SpanKind::Send));
    put("net.tcp.recv.wait_ns", busy(SpanKind::Recv));
    put(
        "net.tcp.recv.events_per_wake",
        ratio(recv_events as f64, recv_wakes as f64),
    );
    let mut transits: Vec<u64> = link_pairs(&data.logs)
        .filter(|(out, _)| out.t_ns >= t0 && out.t_ns < t1)
        .map(|(out, inn)| inn.t_ns.saturating_sub(out.t_ns))
        .collect();
    transits.sort_unstable();
    put("net.tcp.transit_p50_us", quantile(&transits, 0.5) / 1e3);
    put("net.tcp.transit_p90_us", quantile(&transits, 0.9) / 1e3);
    let (n0, n1): (&TransportStats, &TransportStats) = (&data.begin.transport, &data.end.transport);
    let frames = delta(n0.frames_out, n1.frames_out);
    let bytes = delta(n0.bytes_out, n1.bytes_out);
    let heartbeats = delta(n0.heartbeats_sent, n1.heartbeats_sent);
    put("net.tcp.frames_out", frames);
    put("net.tcp.bytes_out", bytes);
    put(
        "net.tcp.env_per_frame",
        ratio(count(SpanKind::Send), frames - heartbeats),
    );
    put("net.tcp.bytes_per_commit", ratio(bytes, commits));
    // Share of a gigabit link the harness sites' outbound bytes would
    // take at the measured commit rate.
    put("net.tcp.wire_ceiling_share", ratio(bytes * 8.0, wall_ns));
    put("net.tcp.queue_depth_hwm", n1.queue_depth_hwm as f64);
    put("net.tcp.heartbeats_sent", heartbeats);
    put(
        "net.tcp.sends_dropped",
        data.final_transport.sends_dropped as f64,
    );
    put("net.tcp.reconnects", data.final_transport.reconnects as f64);
    put(
        "net.tcp.peers_failed",
        data.final_transport.peers_failed as f64,
    );

    // The daemon, from its stdout.
    let d = data.daemon.clone().unwrap_or_default();
    let all_commits = data
        .logs
        .iter()
        .flat_map(|l| &l.gestures)
        .filter(|g| g.committed)
        .count() as f64;
    put(
        "apps.site.us_per_commit",
        if data.daemon.is_some() {
            ratio(wall_ns / 1e3, j.commits_per_s().samples as f64)
        } else {
            0.0
        },
    );
    put(
        "apps.site.msgs_per_commit",
        ratio((d.msgs_sent + d.msgs_received) as f64, all_commits),
    );
    let data_frames = d.frames_out.saturating_sub(d.heartbeats_sent) as f64;
    put(
        "apps.site.env_per_frame",
        ratio(data_frames + d.coalesced as f64, data_frames),
    );
    put("apps.site.startup_ms", d.startup_ms);

    put("harness.unexplained_share", unexplained_share(data));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    put(
        "harness.cpu_share",
        ratio(
            data.end.cpu_ns.saturating_sub(data.begin.cpu_ns) as f64,
            wall_ns * cores,
        ),
    );
    m
}

/// Pairs the k-th envelope sent on each harness link with the k-th
/// received from that peer at the other end: links are FIFO.
fn link_pairs(logs: &[NodeLog]) -> impl Iterator<Item = (&MsgRec, &MsgRec)> {
    logs.iter().flat_map(move |a| {
        logs.iter()
            .filter(move |b| b.site != a.site)
            .flat_map(move |b| {
                let outs = a.msgs_out.iter().filter(move |r| r.peer == b.site);
                let ins = b.msgs_in.iter().filter(move |r| r.peer == a.site);
                outs.zip(ins)
            })
    })
}

/// For each gesture from a non-primary site that committed first time:
/// one minus the share of its due→commit time that the spans on its
/// blocking path account for — execute, drain, send, transit, the
/// primary's handle, drain, send, transit, the origin's handle, drain of
/// events. What is left is generator lateness, queueing behind other
/// messages, and anything no span covers. Median over gestures.
fn unexplained_share(data: &SessionData) -> f64 {
    let (t0, t1) = (data.begin.t_ns, data.end.t_ns);
    let by_site: HashMap<u32, &NodeLog> = data.logs.iter().map(|l| (l.site, l)).collect();
    // (sender site, index in its msgs_out) → the matching receive record.
    let mut arrival: HashMap<(u32, VirtualTime, MsgTag, u32), &MsgRec> = HashMap::new();
    for (out, inn) in link_pairs(&data.logs) {
        arrival.insert((inn.peer, out.vt, out.tag, out.peer), inn);
    }
    let dur = |log: &NodeLog, i: u32| -> u64 {
        log.spans
            .get(i as usize)
            .map_or(0, |s| s.end_ns - s.start_ns)
    };
    // The DrainOutbox span before span `i`, and the DrainEvents span after.
    let drain_before = |log: &NodeLog, i: u32| -> u64 {
        log.spans[..i as usize]
            .iter()
            .rev()
            .find(|s| s.kind == SpanKind::DrainOutbox)
            .map_or(0, |s| s.end_ns - s.start_ns)
    };
    let events_after = |log: &NodeLog, i: u32| -> u64 {
        log.spans[i as usize..]
            .iter()
            .find(|s| s.kind == SpanKind::DrainEvents)
            .map_or(0, |s| s.end_ns - s.start_ns)
    };
    let reply = |t: MsgTag| matches!(t, MsgTag::Confirm | MsgTag::Commit);
    // The primary's verdicts, by (addressee, transaction).
    let verdicts: HashMap<(u32, VirtualTime), &MsgRec> = by_site
        .get(&1)
        .map(|p| {
            p.msgs_out
                .iter()
                .filter(|r| reply(r.tag))
                .map(|r| ((r.peer, r.vt), r))
                .collect()
        })
        .unwrap_or_default();

    let mut shares = Vec::new();
    for log in data.logs.iter().filter(|l| l.site != 1) {
        let executes: HashMap<VirtualTime, &Span> = log
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Execute)
            .map(|s| (s.vt, s))
            .collect();
        let sent: HashMap<VirtualTime, &MsgRec> = log
            .msgs_out
            .iter()
            .filter(|r| r.peer == 1 && r.tag == MsgTag::TxnCheck)
            .map(|r| (r.vt, r))
            .collect();
        let replies: HashMap<VirtualTime, &MsgRec> = log
            .msgs_in
            .iter()
            .filter(|r| r.peer == 1 && reply(r.tag))
            .map(|r| (r.vt, r))
            .collect();
        for g in &log.gestures {
            if !(in_window(g, t0, t1) && g.committed && g.attempts == 1) {
                continue;
            }
            let total = g.decided_ns - g.due_ns;
            let (Some(exec), Some(out), Some(back)) =
                (executes.get(&g.vt), sent.get(&g.vt), replies.get(&g.vt))
            else {
                continue;
            };
            if total == 0 || out.span == NO_PARENT {
                continue;
            }
            let mut explained = (exec.end_ns - exec.start_ns)
                + drain_before(log, out.span)
                + dur(log, out.span)
                + dur(log, back.span)
                + events_after(log, back.span);
            // The primary's part, when the primary is a harness site.
            if let (Some(p), Some(arrived)) = (
                by_site.get(&1),
                arrival.get(&(log.site, g.vt, MsgTag::TxnCheck, 1)),
            ) {
                explained += arrived.t_ns.saturating_sub(out.t_ns) + dur(p, arrived.span);
                if let Some(resp) = verdicts.get(&(log.site, g.vt)) {
                    explained += drain_before(p, resp.span)
                        + dur(p, resp.span)
                        + back.t_ns.saturating_sub(resp.t_ns);
                }
            }
            shares.push(1.0 - (explained as f64 / total as f64).min(1.0));
        }
    }
    shares.sort_by(f64::total_cmp);
    match shares.len() {
        0 => 0.0,
        n => shares[n / 2],
    }
}

/// One line per span, for `<out>/<workload>.spans.jsonl`: name, start,
/// end, cause (the enclosing step's index at that site), site, and the
/// gesture the call was about (`site.index`, resolved through the VT).
pub fn write_spans(data: &SessionData, w: &mut impl std::io::Write) -> std::io::Result<()> {
    let gesture_of: HashMap<VirtualTime, String> = data
        .logs
        .iter()
        .flat_map(|l| {
            l.gestures
                .iter()
                .enumerate()
                .map(move |(i, g)| (g.vt, format!("{}.{i}", l.site)))
        })
        .collect();
    for log in &data.logs {
        for (i, s) in log.spans.iter().enumerate() {
            write!(
                w,
                "{{\"site\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"n\":{}",
                log.site,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.n
            )?;
            if s.parent != NO_PARENT {
                write!(w, ",\"cause\":{}", s.parent)?;
            }
            if let Some(g) = gesture_of.get(&s.vt) {
                write!(w, ",\"gesture\":\"{g}\"")?;
            }
            writeln!(w, "}}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7], 0.9), 7.0);
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.5), 3.0);
        assert!((quantile(&[0, 100], 0.9) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn segment_quantiles_and_spread() {
        let m = over_segments(&[10.0, 30.0, 20.0], 9, 0.5);
        assert_eq!((m.value, m.samples), (20.0, 9));
        // 35th to 65th percentile of 10, 20, 30: 17 to 23.
        assert!((m.spread - 0.3).abs() < 1e-9);
        assert_eq!(over_segments(&[10.0, 20.0], 0, 0.5).value, 15.0);
        assert_eq!(over_segments(&[], 0, 0.5).value, 0.0);
        // Twenty one-second values, three of them hit by a burst: the
        // quiet level is what the good seconds agree on.
        let mut secs = vec![700.0; 17];
        secs.extend([950.0, 1400.0, 9000.0]);
        let quiet = over_segments(&secs, 0, QUIET);
        assert_eq!((quiet.value, quiet.spread), (700.0, 0.0));
        assert!((over_segments(&secs, 0, 1.0 - QUIET).value - 995.0).abs() < 1e-6);
    }

    /// Two sites, two rounds; the window is [1000, 2000).
    fn two_rounds(workload: Workload) -> SessionData {
        use crate::node::Op;
        use crate::session::Edge;
        use decaf_vt::SiteId;
        let edge = |t_ns| Edge {
            t_ns,
            probes: Vec::new(),
            transport: TransportStats::default(),
            cpu_ns: 0,
        };
        let log = |site: u32, latencies: [u64; 2]| NodeLog {
            site,
            gestures: latencies
                .iter()
                .enumerate()
                .map(|(k, &l)| Gesture {
                    op: Op::Rotate { obj: 0, v: 0 },
                    setup: false,
                    due_ns: 1100 + 10 * k as u64,
                    submit_ns: 1100 + 10 * k as u64,
                    vt: VirtualTime::new(1 + k as u64, SiteId(site)),
                    attempts: 1,
                    decided_ns: 1100 + 10 * k as u64 + l,
                    committed: true,
                })
                .collect(),
            ..NodeLog::default()
        };
        SessionData {
            workload,
            logs: vec![log(2, [100, 300]), log(3, [500, 700])],
            begin: edge(1000),
            end: edge(2000),
            final_probes: Vec::new(),
            final_transport: TransportStats::default(),
            sink_dropped: 0,
            daemon: None,
            setup_s: 0.0,
        }
    }

    #[test]
    fn a_lock_step_sample_is_the_rounds_mean() {
        let per_gesture = join(&two_rounds(Workload::Saturate3), 1);
        assert_eq!(per_gesture.segments[0].commit, [100, 300, 500, 700]);
        let per_round = join(&two_rounds(Workload::DuelList3), 1);
        assert_eq!(per_round.segments[0].commit, [300, 500]);
        assert_eq!((per_round.attempted, per_round.failed), (4, 0));
        assert_eq!(per_round.segments[0].commits, 4);

        let merged = Joined::merged(vec![per_round, per_gesture]);
        assert_eq!(merged.segments.len(), 2);
        assert_eq!((merged.attempted, merged.pairs), (8, 8));
    }
}
