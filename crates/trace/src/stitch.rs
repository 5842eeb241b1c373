//! Multi-site trace stitching: reconstruct end-to-end causal spans from
//! per-site JSONL dumps.
//!
//! Each site's trace is stamped by its own clock (the sink's epoch is the
//! process start), so cross-site timestamps are not directly comparable.
//! The stitcher pairs every `MsgSend` with its matching `MsgRecv` by the
//! envelope-carried span key `(origin site, origin sequence)` and applies
//! the classic *minimum one-way delay* method: over a bidirectional link
//! `a↔b`, the smallest observed `recv − send` delta in each direction
//! brackets the clock offset, and under a symmetric-delay assumption the
//! offset is half their difference. Pairwise offsets are then propagated
//! breadth-first from the lowest site id, giving every site a correction
//! into one reference clock.
//!
//! With a common clock the stitcher assembles, for every committed
//! virtual time, the paper's end-to-end story (§4.1/§4.2): gesture →
//! local commit → each remote commit → pessimistic view notified, with
//! per-site-pair propagation histograms, a critical-path breakdown
//! (queueing vs wire vs re-execute vs notify), and anomaly flags
//! (stalled pessimistic frontier, rollback storms, WAL-fsync outliers).
//!
//! The whole pass is a pure function of the input events: feeding the
//! same dumps twice renders byte-identical reports, which is pinned by a
//! golden test against the deterministic simulator.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceKind};
use crate::hist::Histogram;
use crate::ParseError;

/// Sites with at least this many commits lacking *any* pessimistic view
/// notification (while the site demonstrably delivers notifications) are
/// flagged as a stalled pessimistic frontier.
const STALL_MIN_COMMITS: u64 = 4;

/// A site whose rollbacks reach this floor *and* outnumber its commits is
/// flagged as a rollback storm.
const STORM_MIN_ROLLBACKS: u64 = 8;

/// A commit→WAL-append delay is an outlier when it exceeds both this
/// factor times the median delay and [`WAL_OUTLIER_FLOOR_NS`].
const WAL_OUTLIER_FACTOR: u64 = 8;

/// Absolute floor below which a commit→WAL-append delay is never flagged.
const WAL_OUTLIER_FLOOR_NS: u64 = 1_000_000;

/// Cap on per-VT span lines in the rendered report (the full set stays in
/// [`StitchReport::spans`]); the cut is logged, never silent.
const RENDER_SPAN_CAP: usize = 64;

/// One remote site's leg of a committed VT's span. All `_ns` fields are in
/// the *reference* clock (lowest site id) after skew correction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteLeg {
    /// When the origin put the first span-keyed message for this VT toward
    /// this site on the wire.
    pub send_ns: Option<i64>,
    /// When this site's transport surfaced that message.
    pub recv_ns: Option<i64>,
    /// When this site committed the VT.
    pub commit_ns: Option<i64>,
    /// When this site's pessimistic view notification for the VT fired.
    pub view_ns: Option<i64>,
}

impl RemoteLeg {
    /// The leg's completion instant: view notification when present,
    /// otherwise the remote commit.
    pub fn completion_ns(&self) -> Option<i64> {
        self.view_ns.or(self.commit_ns)
    }
}

/// The reconstructed end-to-end span of one committed virtual time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// The committed VT `(lamport, site)` — also the span key.
    pub vt: (u64, u32),
    /// When the gesture began executing at the origin (reference clock).
    pub begin_ns: Option<i64>,
    /// When the origin published its optimistic guess.
    pub guess_ns: Option<i64>,
    /// When the origin committed locally.
    pub local_commit_ns: Option<i64>,
    /// When the origin's own pessimistic view notification fired.
    pub local_view_ns: Option<i64>,
    /// Per-remote-site legs, keyed by site id.
    pub remotes: BTreeMap<u32, RemoteLeg>,
    /// Gesture → last completion anywhere (reference clock), when both
    /// ends were observed.
    pub end_to_end_ns: Option<u64>,
}

/// Critical-path breakdown of one span: where the slowest leg spent its
/// time. All components are saturating (never negative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// The remote site on the slowest leg.
    pub site: u32,
    /// Gesture (guess when present, else begin) → wire send.
    pub queue_ns: u64,
    /// Wire send → remote receive, skew-corrected.
    pub wire_ns: u64,
    /// Remote receive → remote commit.
    pub reexec_ns: u64,
    /// Remote commit → remote view notification.
    pub notify_ns: u64,
}

/// One directed link's pairing digest.
#[derive(Debug, Clone, Default)]
pub struct LinkDigest {
    /// Send/recv pairs matched by span key.
    pub pairs: u64,
    /// Sends with no matching receive (lost or truncated trace).
    pub unmatched_sends: u64,
    /// Receives with no matching send.
    pub unmatched_recvs: u64,
    /// Smallest raw `recv − send` delta (clocks uncorrected).
    pub min_delta_ns: Option<i64>,
    /// Skew-corrected one-way latency distribution (negative corrected
    /// values clamp to 0).
    pub latency: Histogram,
}

/// Everything the stitcher reconstructed. Render with
/// [`render`](StitchReport::render); every collection is ordered, so the
/// rendering is a pure function of the input events.
#[derive(Debug, Clone, Default)]
pub struct StitchReport {
    /// Events observed.
    pub events: u64,
    /// Every site that emitted at least one event.
    pub sites: Vec<u32>,
    /// Estimated clock offset of each site relative to the reference site
    /// (the lowest id): `offset[s] = clock_s − clock_ref`.
    pub offsets_ns: BTreeMap<u32, i64>,
    /// Directed link digests keyed by `(from, to)`.
    pub links: BTreeMap<(u32, u32), LinkDigest>,
    /// Skew-corrected propagation latency per `(origin, remote)` pair:
    /// origin local commit → remote commit.
    pub propagation: BTreeMap<(u32, u32), Histogram>,
    /// Per-VT spans, ascending by `(lamport, site)`.
    pub spans: Vec<SpanSummary>,
    /// Critical path of each span that had a slowest remote leg, in span
    /// order.
    pub critical_paths: Vec<((u64, u32), CriticalPath)>,
    /// Aggregate critical-path component histograms
    /// (queueing, wire, re-execute, notify).
    pub critical_queue: Histogram,
    /// Aggregate wire component.
    pub critical_wire: Histogram,
    /// Aggregate re-execute component.
    pub critical_reexec: Histogram,
    /// Aggregate notify component.
    pub critical_notify: Histogram,
    /// Commit → `WalAppend` delay of every append whose commit was traced
    /// at the same site: one sample per persisted commit.
    pub wal_delay_ns: Histogram,
    /// Human-readable anomaly flags, sorted.
    pub anomalies: Vec<String>,
    /// Completeness violations: committed VTs whose cross-site span has a
    /// hole (missing origin commit, unreceived send, remote commit with
    /// no traced delivery). Sorted. Empty means every committed VT's span
    /// is fully reconstructible — the model checker's trace-completeness
    /// oracle gates on exactly this.
    pub incomplete: Vec<String>,
}

/// Streaming collector: feed events (in any order, from any number of
/// files), then call [`finish`](Stitcher::finish).
#[derive(Debug, Clone, Default)]
pub struct Stitcher {
    events: Vec<TraceEvent>,
}

impl Stitcher {
    /// An empty stitcher.
    pub fn new() -> Self {
        Stitcher::default()
    }

    /// Adds one event.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }

    /// Parses and folds a whole JSONL document; blank lines are skipped.
    /// Returns the number of events folded, or the first parse failure
    /// with its 1-based line number.
    pub fn observe_jsonl(&mut self, text: &str) -> Result<u64, (usize, ParseError)> {
        let mut n = 0;
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let ev = TraceEvent::from_jsonl(line).map_err(|e| (idx + 1, e))?;
            self.observe(&ev);
            n += 1;
        }
        Ok(n)
    }

    /// Like [`observe_jsonl`](Self::observe_jsonl), but folds every
    /// parseable line and returns the failures (1-based line numbers)
    /// instead of aborting at the first one.
    pub fn observe_jsonl_lossy(&mut self, text: &str) -> (u64, Vec<(usize, ParseError)>) {
        let mut n = 0;
        let mut bad = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match TraceEvent::from_jsonl(line) {
                Ok(ev) => {
                    self.observe(&ev);
                    n += 1;
                }
                Err(e) => bad.push((idx + 1, e)),
            }
        }
        (n, bad)
    }

    /// Runs the full stitching pass over everything observed.
    pub fn finish(&self) -> StitchReport {
        let mut events = self.events.clone();
        // Stable order first: everything downstream (pairing order, span
        // "first send" selection) must not depend on file feed order.
        events.sort_by_key(|e| (e.ts_ns, e.site, e.kind as u32, e.peer, e.span, e.vt, e.n));

        let mut report = StitchReport {
            events: events.len() as u64,
            ..StitchReport::default()
        };
        let sites: BTreeSet<u32> = events.iter().map(|e| e.site).collect();
        report.sites = sites.iter().copied().collect();
        if events.is_empty() {
            return report;
        }

        let pairing = pair_links(&events, &mut report);
        estimate_offsets(&sites, &mut report);
        corrected_link_latencies(&pairing, &mut report);
        assemble_spans(&events, &pairing, &mut report);
        flag_anomalies(&events, &mut report);
        report.anomalies.sort();
        report.incomplete.sort();
        report
    }
}

/// The send/recv events of one directed link, bucketed by span key, each
/// bucket in timestamp order.
type KeyedTimes = BTreeMap<(u32, u64), Vec<i64>>;

struct Pairing {
    /// Per directed link: matched `(send_ts, recv_ts)` raw-clock pairs.
    pairs: BTreeMap<(u32, u32), Vec<(i64, i64)>>,
    /// Per directed link and span key: sends with no matching recv.
    lost: BTreeMap<(u32, u32), Vec<(u32, u64)>>,
    /// First send per `(origin_site, span_key, to_site)`, raw clock.
    first_send: BTreeMap<(u32, (u32, u64), u32), i64>,
    /// First recv per `(site, span_key)`, raw clock.
    first_recv: BTreeMap<(u32, (u32, u64)), i64>,
}

fn pair_links(events: &[TraceEvent], report: &mut StitchReport) -> Pairing {
    let mut sends: BTreeMap<(u32, u32), KeyedTimes> = BTreeMap::new();
    let mut recvs: BTreeMap<(u32, u32), KeyedTimes> = BTreeMap::new();
    let mut pairing = Pairing {
        pairs: BTreeMap::new(),
        lost: BTreeMap::new(),
        first_send: BTreeMap::new(),
        first_recv: BTreeMap::new(),
    };
    for ev in events {
        let (Some(peer), Some((o, seq, _hop))) = (ev.peer, ev.span) else {
            continue;
        };
        let ts = ev.ts_ns as i64;
        match ev.kind {
            TraceKind::MsgSend => {
                sends
                    .entry((ev.site, peer))
                    .or_default()
                    .entry((o, seq))
                    .or_default()
                    .push(ts);
                pairing
                    .first_send
                    .entry((ev.site, (o, seq), peer))
                    .or_insert(ts);
            }
            TraceKind::MsgRecv => {
                recvs
                    .entry((peer, ev.site))
                    .or_default()
                    .entry((o, seq))
                    .or_default()
                    .push(ts);
                pairing.first_recv.entry((ev.site, (o, seq))).or_insert(ts);
            }
            _ => {}
        }
    }

    let links: BTreeSet<(u32, u32)> = sends.keys().chain(recvs.keys()).copied().collect();
    for link in links {
        let digest = report.links.entry(link).or_default();
        let s = sends.remove(&link).unwrap_or_default();
        let mut r = recvs.remove(&link).unwrap_or_default();
        for (key, s_times) in s {
            let r_times = r.remove(&key).unwrap_or_default();
            let matched = s_times.len().min(r_times.len());
            for i in 0..matched {
                let (st, rt) = (s_times[i], r_times[i]);
                digest.pairs += 1;
                let delta = rt - st;
                digest.min_delta_ns = Some(digest.min_delta_ns.map_or(delta, |m| m.min(delta)));
                pairing.pairs.entry(link).or_default().push((st, rt));
            }
            if s_times.len() > matched {
                digest.unmatched_sends += (s_times.len() - matched) as u64;
                for _ in matched..s_times.len() {
                    pairing.lost.entry(link).or_default().push(key);
                }
            }
            digest.unmatched_recvs += r_times.len().saturating_sub(matched) as u64;
        }
        for (_, r_times) in r {
            digest.unmatched_recvs += r_times.len() as u64;
        }
    }
    pairing
}

/// Pairwise skew via minimum one-way delay, then breadth-first offset
/// assignment from the reference site (lowest id). Sites unreachable over
/// any bidirectional link keep offset 0 and are flagged.
fn estimate_offsets(sites: &BTreeSet<u32>, report: &mut StitchReport) {
    // skew[(a, b)] (a < b) = clock_b − clock_a.
    let mut skew: BTreeMap<(u32, u32), i64> = BTreeMap::new();
    for (&(a, b), digest) in &report.links {
        if a >= b {
            continue;
        }
        let fwd = digest.min_delta_ns;
        let rev = report.links.get(&(b, a)).and_then(|d| d.min_delta_ns);
        let estimate = match (fwd, rev) {
            // min(recv_b − send_a) = delay + skew; with symmetric delays
            // the half-difference cancels the delay term.
            (Some(f), Some(r)) => Some((f - r) / 2),
            // One-directional link: attribute the whole minimum delta to
            // skew (an upper bound) and note the degraded estimate.
            (Some(f), None) => {
                report.anomalies.push(format!(
                    "skew({a},{b}): one-way traffic only, estimate degraded"
                ));
                Some(f)
            }
            (None, Some(r)) => {
                report.anomalies.push(format!(
                    "skew({a},{b}): one-way traffic only, estimate degraded"
                ));
                Some(-r)
            }
            (None, None) => None,
        };
        if let Some(s) = estimate {
            skew.insert((a, b), s);
        }
    }

    let Some(&reference) = sites.iter().next() else {
        return;
    };
    let mut offsets: BTreeMap<u32, i64> = BTreeMap::new();
    offsets.insert(reference, 0);
    let mut frontier = vec![reference];
    while let Some(a) = frontier.pop() {
        let base = offsets[&a];
        for (&(x, y), &s) in &skew {
            let (other, delta) = if x == a {
                (y, s)
            } else if y == a {
                (x, -s)
            } else {
                continue;
            };
            if let std::collections::btree_map::Entry::Vacant(e) = offsets.entry(other) {
                e.insert(base + delta);
                frontier.push(other);
            }
        }
    }
    for &s in sites {
        if !offsets.contains_key(&s) {
            if s != reference && report.links.keys().any(|&(a, b)| a == s || b == s) {
                report.anomalies.push(format!(
                    "site {s}: no skew path to reference, offset 0 assumed"
                ));
            }
            offsets.insert(s, 0);
        }
    }
    report.offsets_ns = offsets;
}

fn corrected_link_latencies(pairing: &Pairing, report: &mut StitchReport) {
    let offsets = report.offsets_ns.clone();
    for (&(a, b), pairs) in &pairing.pairs {
        let (oa, ob) = (offsets[&a], offsets[&b]);
        let digest = report.links.get_mut(&(a, b)).expect("link digest exists");
        for &(st, rt) in pairs {
            let corrected = (rt - ob) - (st - oa);
            digest.latency.record(corrected.max(0) as u64);
        }
    }
}

fn assemble_spans(events: &[TraceEvent], pairing: &Pairing, report: &mut StitchReport) {
    let offsets = report.offsets_ns.clone();
    let correct = |site: u32, ts: i64| ts - offsets.get(&site).copied().unwrap_or(0);

    // Committed VTs and every per-site instant that concerns them.
    let mut commits: BTreeMap<(u64, u32), BTreeMap<u32, i64>> = BTreeMap::new();
    let mut begins: BTreeMap<(u64, u32), i64> = BTreeMap::new();
    let mut guesses: BTreeMap<(u64, u32), i64> = BTreeMap::new();
    let mut views: BTreeMap<(u64, u32), BTreeMap<u32, i64>> = BTreeMap::new();
    for ev in events {
        let Some(vt) = ev.vt else { continue };
        let ts = ev.ts_ns as i64;
        match ev.kind {
            TraceKind::Commit => {
                commits.entry(vt).or_default().entry(ev.site).or_insert(ts);
            }
            TraceKind::TxnBegin if ev.site == vt.1 => {
                begins.entry(vt).or_insert(ts);
            }
            TraceKind::Guess if ev.site == vt.1 => {
                guesses.entry(vt).or_insert(ts);
            }
            TraceKind::ViewCommitted => {
                views.entry(vt).or_default().entry(ev.site).or_insert(ts);
            }
            _ => {}
        }
    }

    for (vt, per_site_commits) in &commits {
        let origin = vt.1;
        let key = (origin, vt.0);
        let mut span = SpanSummary {
            vt: *vt,
            begin_ns: begins.get(vt).map(|&t| correct(origin, t)),
            guess_ns: guesses.get(vt).map(|&t| correct(origin, t)),
            local_commit_ns: per_site_commits.get(&origin).map(|&t| correct(origin, t)),
            local_view_ns: views
                .get(vt)
                .and_then(|m| m.get(&origin))
                .map(|&t| correct(origin, t)),
            ..SpanSummary::default()
        };
        if span.local_commit_ns.is_none() {
            report.incomplete.push(format!(
                "vt={}@{}: no commit at origin {origin}",
                vt.0, vt.1
            ));
        }

        for (&site, &commit_ts) in per_site_commits {
            if site == origin {
                continue;
            }
            let leg = RemoteLeg {
                send_ns: pairing
                    .first_send
                    .get(&(origin, key, site))
                    .map(|&t| correct(origin, t)),
                recv_ns: pairing
                    .first_recv
                    .get(&(site, key))
                    .map(|&t| correct(site, t)),
                commit_ns: Some(correct(site, commit_ts)),
                view_ns: views
                    .get(vt)
                    .and_then(|m| m.get(&site))
                    .map(|&t| correct(site, t)),
            };
            if leg.recv_ns.is_none() {
                report.incomplete.push(format!(
                    "vt={}@{}: commit at site {site} but no traced delivery",
                    vt.0, vt.1
                ));
            }
            if let (Some(lc), Some(rc)) = (span.local_commit_ns, leg.commit_ns) {
                report
                    .propagation
                    .entry((origin, site))
                    .or_default()
                    .record((rc - lc).max(0) as u64);
            }
            span.remotes.insert(site, leg);
        }

        let start = span.begin_ns.or(span.guess_ns).or(span.local_commit_ns);
        let finish = span
            .remotes
            .values()
            .filter_map(RemoteLeg::completion_ns)
            .chain(span.local_view_ns)
            .chain(span.local_commit_ns)
            .max();
        span.end_to_end_ns = match (start, finish) {
            (Some(s), Some(f)) => Some((f - s).max(0) as u64),
            _ => None,
        };

        // Critical path: the remote leg finishing last.
        let slowest = span
            .remotes
            .iter()
            .filter_map(|(&s, leg)| leg.completion_ns().map(|c| (c, s, *leg)))
            .max_by_key(|&(c, s, _)| (c, s));
        if let Some((_, site, leg)) = slowest {
            let gesture = span.guess_ns.or(span.begin_ns);
            let sat = |a: Option<i64>, b: Option<i64>| match (a, b) {
                (Some(a), Some(b)) => (b - a).max(0) as u64,
                _ => 0,
            };
            let cp = CriticalPath {
                site,
                queue_ns: sat(gesture, leg.send_ns),
                wire_ns: sat(leg.send_ns, leg.recv_ns),
                reexec_ns: sat(leg.recv_ns, leg.commit_ns),
                notify_ns: sat(leg.commit_ns, leg.view_ns.or(leg.commit_ns)),
            };
            report.critical_queue.record(cp.queue_ns);
            report.critical_wire.record(cp.wire_ns);
            report.critical_reexec.record(cp.reexec_ns);
            report.critical_notify.record(cp.notify_ns);
            report.critical_paths.push((*vt, cp));
        }
        report.spans.push(span);
    }

    // Sends that never arrived are span holes too.
    for ((from, to), keys) in &pairing.lost {
        for (o, seq) in keys {
            report
                .incomplete
                .push(format!("span {seq}@{o}: send {from}->{to} never received"));
        }
    }
}

fn flag_anomalies(events: &[TraceEvent], report: &mut StitchReport) {
    let mut commits_per_site: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rollbacks_per_site: BTreeMap<u32, u64> = BTreeMap::new();
    let mut views_per_site: BTreeMap<u32, u64> = BTreeMap::new();
    let mut commit_ts: BTreeMap<(u32, (u64, u32)), i64> = BTreeMap::new();
    let mut viewed: BTreeSet<(u32, (u64, u32))> = BTreeSet::new();
    let mut wal_delays: Vec<(u32, (u64, u32), u64)> = Vec::new();
    for ev in events {
        match ev.kind {
            TraceKind::Commit => {
                *commits_per_site.entry(ev.site).or_default() += 1;
                if let Some(vt) = ev.vt {
                    commit_ts.entry((ev.site, vt)).or_insert(ev.ts_ns as i64);
                }
            }
            TraceKind::Rollback => *rollbacks_per_site.entry(ev.site).or_default() += 1,
            TraceKind::ViewCommitted => {
                *views_per_site.entry(ev.site).or_default() += 1;
                if let Some(vt) = ev.vt {
                    viewed.insert((ev.site, vt));
                }
            }
            TraceKind::WalAppend => {
                if let Some(vt) = ev.vt {
                    if let Some(&c) = commit_ts.get(&(ev.site, vt)) {
                        wal_delays.push((ev.site, vt, (ev.ts_ns as i64 - c).max(0) as u64));
                    }
                }
            }
            _ => {}
        }
    }

    // Stalled pessimistic frontier: a site that does deliver notifications
    // but has accumulated commits that never got one.
    for (&site, &views) in &views_per_site {
        if views == 0 {
            continue;
        }
        let unnotified = commit_ts
            .keys()
            .filter(|(s, vt)| *s == site && !viewed.contains(&(site, *vt)))
            .count() as u64;
        if unnotified >= STALL_MIN_COMMITS {
            report.anomalies.push(format!(
                "site {site}: stalled pessimistic frontier ({unnotified} commits never notified)"
            ));
        }
    }

    // Rollback storm.
    for (&site, &rb) in &rollbacks_per_site {
        let commits = commits_per_site.get(&site).copied().unwrap_or(0);
        if rb >= STORM_MIN_ROLLBACKS && rb > commits {
            report.anomalies.push(format!(
                "site {site}: rollback storm ({rb} rollbacks vs {commits} commits)"
            ));
        }
    }

    // WAL-fsync outliers: commit → WAL-append delays far beyond the median.
    for &(_, _, d) in &wal_delays {
        report.wal_delay_ns.record(d);
    }
    if !wal_delays.is_empty() {
        let p50 = report.wal_delay_ns.quantile(0.5);
        let threshold = (p50.saturating_mul(WAL_OUTLIER_FACTOR)).max(WAL_OUTLIER_FLOOR_NS);
        let outliers: Vec<&(u32, (u64, u32), u64)> = wal_delays
            .iter()
            .filter(|&&(_, _, d)| d > threshold)
            .collect();
        if let Some(worst) = outliers.iter().max_by_key(|&&&(_, _, d)| d) {
            report.anomalies.push(format!(
                "wal: {} fsync outlier(s) beyond {}us (worst {}us at site {} vt={}@{})",
                outliers.len(),
                threshold / 1_000,
                worst.2 / 1_000,
                worst.0,
                worst.1 .0,
                worst.1 .1,
            ));
        }
    }
}

impl StitchReport {
    /// Renders the deterministic plain-text report.
    pub fn render(&self) -> String {
        let mut o = String::with_capacity(4096);
        let us = |ns: u64| ns / 1_000;
        let ius = |ns: i64| ns / 1_000;
        let _ = writeln!(o, "decaf-trace-stitch report");
        let _ = writeln!(
            o,
            "events={} sites={:?} spans={} incomplete={}",
            self.events,
            self.sites,
            self.spans.len(),
            self.incomplete.len()
        );

        let _ = writeln!(o, "clock-offsets-us (relative to lowest site):");
        for (site, off) in &self.offsets_ns {
            let _ = writeln!(o, "  site {site}: {}", ius(*off));
        }

        let _ = writeln!(o, "links (directed, corrected one-way latency):");
        for ((a, b), d) in &self.links {
            let s = d.latency.summary();
            let _ = writeln!(
                o,
                "  {a}->{b}: pairs={} lost={} orphaned={} min-raw-us={} p50-us={} p99-us={} max-us={}",
                d.pairs,
                d.unmatched_sends,
                d.unmatched_recvs,
                d.min_delta_ns.map(ius).unwrap_or(0),
                us(s.p50),
                us(s.p99),
                us(s.max),
            );
        }

        let _ = writeln!(
            o,
            "propagation (origin->remote, local commit -> remote commit):"
        );
        for ((a, b), h) in &self.propagation {
            let s = h.summary();
            let _ = writeln!(
                o,
                "  {a}->{b}: n={} p50-us={} p95-us={} p99-us={} max-us={}",
                s.count,
                us(s.p50),
                us(s.p95),
                us(s.p99),
                us(s.max),
            );
        }

        let _ = writeln!(o, "critical-path (aggregate over slowest legs):");
        for (name, h) in [
            ("queueing", &self.critical_queue),
            ("wire", &self.critical_wire),
            ("re-execute", &self.critical_reexec),
            ("notify", &self.critical_notify),
        ] {
            let s = h.summary();
            let _ = writeln!(
                o,
                "  {name}: n={} p50-us={} p99-us={} max-us={}",
                s.count,
                us(s.p50),
                us(s.p99),
                us(s.max),
            );
        }

        let _ = writeln!(o, "spans:");
        for span in self.spans.iter().take(RENDER_SPAN_CAP) {
            let _ = write!(
                o,
                "  vt={}@{} e2e-us={}",
                span.vt.0,
                span.vt.1,
                span.end_to_end_ns
                    .map(us)
                    .map_or_else(|| "?".into(), |v| v.to_string()),
            );
            let base = span.begin_ns.or(span.guess_ns).or(span.local_commit_ns);
            let rel = |t: Option<i64>| match (base, t) {
                (Some(b), Some(t)) => ((t - b).max(0) as u64 / 1_000).to_string(),
                _ => "?".into(),
            };
            let _ = write!(o, " local[commit+{}us", rel(span.local_commit_ns));
            if span.local_view_ns.is_some() {
                let _ = write!(o, " view+{}us", rel(span.local_view_ns));
            }
            let _ = write!(o, "]");
            for (site, leg) in &span.remotes {
                let _ = write!(
                    o,
                    " {site}[recv+{}us commit+{}us",
                    rel(leg.recv_ns),
                    rel(leg.commit_ns)
                );
                if leg.view_ns.is_some() {
                    let _ = write!(o, " view+{}us", rel(leg.view_ns));
                }
                let _ = write!(o, "]");
            }
            let _ = writeln!(o);
        }
        if self.spans.len() > RENDER_SPAN_CAP {
            let _ = writeln!(
                o,
                "  ... {} more spans not rendered",
                self.spans.len() - RENDER_SPAN_CAP
            );
        }

        if !self.anomalies.is_empty() {
            let _ = writeln!(o, "anomalies:");
            for a in &self.anomalies {
                let _ = writeln!(o, "  - {a}");
            }
        }
        if !self.incomplete.is_empty() {
            let _ = writeln!(o, "incomplete:");
            for i in &self.incomplete {
                let _ = writeln!(o, "  - {i}");
            }
        }
        let _ = writeln!(
            o,
            "{}",
            if self.incomplete.is_empty() {
                "result: complete"
            } else {
                "result: INCOMPLETE"
            }
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        site: u32,
        ts_ns: u64,
        kind: TraceKind,
        vt: Option<(u64, u32)>,
        peer: Option<u32>,
        span: Option<(u32, u64, u32)>,
    ) -> TraceEvent {
        TraceEvent {
            site,
            ts_ns,
            kind,
            vt,
            peer,
            n: None,
            span,
        }
    }

    /// Two sites, site 2's clock running 1 ms ahead, symmetric 5 ms wire.
    fn two_site_skewed() -> Vec<TraceEvent> {
        let skew: u64 = 1_000_000; // clock_2 = clock_1 + 1ms
        let wire: u64 = 5_000_000;
        let key = Some((1, 10, 0));
        let vt = Some((10, 1));
        let mut evs = vec![
            ev(1, 0, TraceKind::TxnBegin, vt, None, None),
            ev(1, 100_000, TraceKind::Guess, vt, None, None),
            ev(1, 200_000, TraceKind::MsgSend, None, Some(2), key),
            ev(
                2,
                200_000 + wire + skew,
                TraceKind::MsgRecv,
                None,
                Some(1),
                key,
            ),
            ev(2, 300_000 + wire + skew, TraceKind::Commit, vt, None, key),
            ev(
                2,
                400_000 + wire + skew,
                TraceKind::ViewCommitted,
                vt,
                None,
                key,
            ),
            // Confirm travels back with the same span key.
            ev(
                2,
                310_000 + wire + skew,
                TraceKind::MsgSend,
                None,
                Some(1),
                key,
            ),
            ev(
                1,
                310_000 + 2 * wire,
                TraceKind::MsgRecv,
                None,
                Some(2),
                key,
            ),
            ev(1, 320_000 + 2 * wire, TraceKind::Commit, vt, None, key),
        ];
        evs.sort_by_key(|e| (e.site, e.ts_ns));
        evs
    }

    #[test]
    fn recovers_injected_skew_within_one_bucket() {
        let mut st = Stitcher::new();
        for e in two_site_skewed() {
            st.observe(&e);
        }
        let r = st.finish();
        // True skew is +1ms (site 2 ahead). The min one-way delay method
        // recovers it exactly here because delays are symmetric.
        assert_eq!(r.offsets_ns[&1], 0);
        assert_eq!(r.offsets_ns[&2], 1_000_000);
        // Corrected wire latency is the true 5ms.
        let l12 = &r.links[&(1, 2)];
        assert_eq!(l12.pairs, 1);
        assert_eq!(l12.latency.max(), 5_000_000);
        assert!(r.incomplete.is_empty(), "{:?}", r.incomplete);
    }

    #[test]
    fn report_is_deterministic_and_feed_order_free() {
        let evs = two_site_skewed();
        let mut a = Stitcher::new();
        for e in &evs {
            a.observe(e);
        }
        let mut b = Stitcher::new();
        for e in evs.iter().rev() {
            b.observe(e);
        }
        assert_eq!(a.finish().render(), b.finish().render());
    }

    #[test]
    fn span_assembly_names_every_leg() {
        let mut st = Stitcher::new();
        for e in two_site_skewed() {
            st.observe(&e);
        }
        let r = st.finish();
        assert_eq!(r.spans.len(), 1);
        let span = &r.spans[0];
        assert_eq!(span.vt, (10, 1));
        assert!(span.begin_ns.is_some());
        assert!(span.local_commit_ns.is_some());
        let leg = &span.remotes[&2];
        assert!(leg.recv_ns.is_some());
        assert!(leg.view_ns.is_some());
        // The span closes with the origin's own commit-on-confirm at
        // 320us + two wire crossings — later than the remote view.
        assert_eq!(span.end_to_end_ns, Some(320_000 + 2 * 5_000_000));
        // Propagation: local commit (at 320us + 2*wire)... origin commit is
        // *after* the remote commit here (commit-on-confirm), so the
        // clamped sample is 0.
        assert_eq!(r.propagation[&(1, 2)].count(), 1);
        // Critical path exists and attributes the wire correctly.
        assert_eq!(r.critical_paths.len(), 1);
        let (_, cp) = &r.critical_paths[0];
        assert_eq!(cp.site, 2);
        assert_eq!(cp.wire_ns, 5_000_000);
    }

    #[test]
    fn lost_send_is_flagged_incomplete() {
        let mut st = Stitcher::new();
        for e in two_site_skewed() {
            st.observe(&e);
        }
        // A send that never arrives anywhere.
        st.observe(&ev(
            1,
            999_000,
            TraceKind::MsgSend,
            None,
            Some(2),
            Some((1, 11, 0)),
        ));
        let r = st.finish();
        assert!(
            r.incomplete.iter().any(|s| s.contains("never received")),
            "{:?}",
            r.incomplete
        );
        assert!(r.render().contains("result: INCOMPLETE"));
    }

    #[test]
    fn remote_commit_without_delivery_is_incomplete() {
        let mut st = Stitcher::new();
        let vt = Some((4, 1));
        st.observe(&ev(1, 10, TraceKind::Commit, vt, None, None));
        st.observe(&ev(2, 20, TraceKind::Commit, vt, None, None));
        let r = st.finish();
        assert!(
            r.incomplete
                .iter()
                .any(|s| s.contains("no traced delivery")),
            "{:?}",
            r.incomplete
        );
    }

    #[test]
    fn rollback_storm_and_stalled_frontier_flags() {
        let mut st = Stitcher::new();
        for i in 0..STORM_MIN_ROLLBACKS + 1 {
            st.observe(&ev(3, i, TraceKind::Rollback, Some((i, 3)), None, None));
        }
        // Site 4: delivers one notification but 4+ commits never notified.
        st.observe(&ev(
            4,
            1,
            TraceKind::ViewCommitted,
            Some((100, 4)),
            None,
            None,
        ));
        for i in 0..STALL_MIN_COMMITS {
            st.observe(&ev(4, 10 + i, TraceKind::Commit, Some((i, 4)), None, None));
        }
        let r = st.finish();
        assert!(r.anomalies.iter().any(|a| a.contains("rollback storm")));
        assert!(
            r.anomalies
                .iter()
                .any(|a| a.contains("stalled pessimistic frontier")),
            "{:?}",
            r.anomalies
        );
    }

    #[test]
    fn wal_outlier_flagged() {
        let mut st = Stitcher::new();
        for i in 0..10u64 {
            let vt = Some((i, 1));
            st.observe(&ev(1, i * 1_000_000, TraceKind::Commit, vt, None, None));
            // Nine fast appends (~10us), one pathological 50ms straggler.
            let delay = if i == 9 { 50_000_000 } else { 10_000 };
            st.observe(&ev(
                1,
                i * 1_000_000 + delay,
                TraceKind::WalAppend,
                vt,
                None,
                None,
            ));
        }
        let r = st.finish();
        assert!(
            r.anomalies.iter().any(|a| a.contains("fsync outlier")),
            "{:?}",
            r.anomalies
        );
    }

    #[test]
    fn empty_input_renders_cleanly() {
        let r = Stitcher::new().finish();
        assert_eq!(r.events, 0);
        assert!(r.render().contains("result: complete"));
    }

    #[test]
    fn observe_jsonl_reports_line_numbers() {
        let mut st = Stitcher::new();
        let err = st.observe_jsonl("{\"site\":1,\"ts_ns\":1,\"kind\":\"Commit\"}\nnope\n");
        assert_eq!(err.unwrap_err().0, 2);
    }
}
