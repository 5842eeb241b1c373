//! Per-site statistics, matching the metrics the paper's benchmarks report
//! (§5.1.2, §5.2.2), plus transport-level counters for substrates that
//! carry the protocol over a real network.

use std::fmt;

/// Counters accumulated by one [`Site`](crate::Site).
///
/// The three "deviations from the ideal notification sequence" that an
/// optimistic view may experience (§5.1.2) are counted explicitly:
///
/// * [`lost_updates`](SiteStats::lost_updates) — an update message arrived
///   with a VT earlier than a previously processed update, so it yields no
///   notification;
/// * [`update_inconsistencies`](SiteStats::update_inconsistencies) — an
///   update was shown to a view but the writing transaction later rolled
///   back;
/// * [`read_inconsistencies`](SiteStats::read_inconsistencies) — a view
///   observing several objects was notified, and a straggling update to
///   another attached object then arrived with an earlier VT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SiteStats {
    /// Transactions submitted at this site (first executions, not retries).
    pub txns_started: u64,
    /// Transactions committed (originated here).
    pub txns_committed: u64,
    /// Conflict aborts of locally originated transactions (each normally
    /// followed by an automatic retry).
    pub txns_aborted_conflict: u64,
    /// Application aborts (no retry).
    pub txns_aborted_user: u64,
    /// Automatic re-executions performed.
    pub retries: u64,
    /// Update notifications delivered to optimistic views.
    pub opt_notifications: u64,
    /// Commit notifications delivered to optimistic views.
    pub opt_commits: u64,
    /// Update notifications delivered to pessimistic views.
    pub pess_notifications: u64,
    /// Lost updates (optimistic views), per §5.1.2 definition.
    pub lost_updates: u64,
    /// Updates shown optimistically whose transaction later aborted.
    pub update_inconsistencies: u64,
    /// Straggler-after-notification events on optimistic views.
    pub read_inconsistencies: u64,
    /// Protocol messages that left this site (a request taken back before
    /// the outbox was drained is not counted).
    pub msgs_sent: u64,
    /// Snapshot CONFIRM-READ requests taken out of the outbox because their
    /// snapshot was superseded, delivered or dropped before they left. Over
    /// `msgs_sent` it says how bursty the traffic to this site's views is.
    pub snapshot_requests_retired: u64,
    /// Read items (one per object guessed on) carried by the snapshot
    /// CONFIRM-READ requests that left this site; a retired request's items
    /// are not counted.
    pub snapshot_reads_sent: u64,
    /// Snapshot reads this site reserved as a primary by raising the `hi`
    /// of a reservation from the same `lo` instead of adding one
    /// (`ReservationSet::reserve_read`).
    pub snapshot_reservations_merged: u64,
    /// Protocol messages received by this site.
    pub msgs_received: u64,
    /// History entries discarded by garbage collection.
    pub gc_discarded: u64,
    /// Snapshot re-runs caused by denied or invalidated guesses.
    pub snapshot_reruns: u64,
    /// Trace events lost by the engine's trace sink (ring overflow or
    /// sink contention); 0 when tracing is disabled.
    pub trace_events_dropped: u64,
}

impl SiteStats {
    /// Rollback (conflict-abort) rate over started transactions, the
    /// paper's §5.2.2 rollback metric.
    pub fn rollback_rate(&self) -> f64 {
        if self.txns_started == 0 {
            0.0
        } else {
            self.txns_aborted_conflict as f64 / self.txns_started as f64
        }
    }

    /// Lost-update rate over optimistic deliveries plus losses (§5.2.2).
    pub fn lost_update_rate(&self) -> f64 {
        let denom = self.opt_notifications + self.lost_updates;
        if denom == 0 {
            0.0
        } else {
            self.lost_updates as f64 / denom as f64
        }
    }

    /// Folds `other`'s counters into `self`, for aggregating the stats of
    /// several sites (or several runs) into one fleet-wide total — the
    /// aggregation `decaf-trace-summarize` performs across trace files.
    pub fn merge(&mut self, other: &SiteStats) {
        self.txns_started += other.txns_started;
        self.txns_committed += other.txns_committed;
        self.txns_aborted_conflict += other.txns_aborted_conflict;
        self.txns_aborted_user += other.txns_aborted_user;
        self.retries += other.retries;
        self.opt_notifications += other.opt_notifications;
        self.opt_commits += other.opt_commits;
        self.pess_notifications += other.pess_notifications;
        self.lost_updates += other.lost_updates;
        self.update_inconsistencies += other.update_inconsistencies;
        self.read_inconsistencies += other.read_inconsistencies;
        self.msgs_sent += other.msgs_sent;
        self.snapshot_requests_retired += other.snapshot_requests_retired;
        self.msgs_received += other.msgs_received;
        self.gc_discarded += other.gc_discarded;
        self.snapshot_reruns += other.snapshot_reruns;
        self.trace_events_dropped += other.trace_events_dropped;
        self.snapshot_reads_sent += other.snapshot_reads_sent;
        self.snapshot_reservations_merged += other.snapshot_reservations_merged;
    }
}

impl fmt::Display for SiteStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txns {}/{} committed ({} conflict aborts, {} retries); \
             opt notif {} (+{} commits, {} lost, {} upd-inc, {} read-inc); \
             pess notif {}; msgs {}/{}; {} snapshot requests retired; trace dropped {}; \
             {} snapshot reads sent; {} snapshot reservations merged",
            self.txns_committed,
            self.txns_started,
            self.txns_aborted_conflict,
            self.retries,
            self.opt_notifications,
            self.opt_commits,
            self.lost_updates,
            self.update_inconsistencies,
            self.read_inconsistencies,
            self.pess_notifications,
            self.msgs_sent,
            self.msgs_received,
            self.snapshot_requests_retired,
            self.trace_events_dropped,
            self.snapshot_reads_sent,
            self.snapshot_reservations_merged,
        )
    }
}

/// Counters accumulated by one network transport endpoint.
///
/// The engine itself is sans-I/O, so byte- and frame-level accounting lives
/// with whichever substrate carries the [`Envelope`](crate::Envelope)s. The
/// TCP mesh in `decaf-net` fills in every field; the simulator has no
/// frames and keeps no such counters. Snapshots are taken with
/// `TcpMesh::stats()` and friends; this type is the plain-old-data exchange
/// format, mirroring how [`SiteStats`] reports engine-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TransportStats {
    /// Payload + header bytes received.
    pub bytes_in: u64,
    /// Payload + header bytes sent.
    pub bytes_out: u64,
    /// Well-formed frames received (all kinds, including heartbeats).
    pub frames_in: u64,
    /// Frames sent (all kinds, including heartbeats).
    pub frames_out: u64,
    /// Malformed frames rejected (bad magic/version/length/CRC or an
    /// undecodable payload).
    pub frames_rejected: u64,
    /// Successful reconnections to a peer after a broken link.
    pub reconnects: u64,
    /// Heartbeat (keepalive) frames sent.
    pub heartbeats_sent: u64,
    /// Heartbeat-silence expiries observed (a peer went quiet longer than
    /// the configured timeout).
    pub heartbeat_misses: u64,
    /// Peers declared fail-stopped (each produces one `SiteFailed`
    /// notification toward the engine, §3.4).
    pub peers_failed: u64,
    /// Outbound messages dropped because a peer's bounded queue was full
    /// or the peer was declared failed (and has not dialled back in).
    pub sends_dropped: u64,
    /// Trace events lost by the transport's trace sink (ring overflow or
    /// sink contention); 0 when tracing is disabled.
    pub trace_events_dropped: u64,
    /// High-water mark of any per-peer outbound queue depth observed.
    pub queue_depth_hwm: u64,
    /// Envelopes that rode along in a multi-envelope Batch frame instead of
    /// getting a frame (and header, and write) of their own: for a batch of
    /// `n` envelopes this counts `n - 1`.
    pub frames_coalesced: u64,
    /// Frame-header bytes saved by coalescing (each coalesced envelope
    /// avoids one fixed-size frame header).
    pub bytes_saved: u64,
}

impl TransportStats {
    /// Folds `other`'s counters into `self`, for aggregating endpoints
    /// across sites. Counters add; the queue-depth high-water mark takes
    /// the max (it is a level, not a flow).
    pub fn merge(&mut self, other: &TransportStats) {
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.frames_rejected += other.frames_rejected;
        self.reconnects += other.reconnects;
        self.heartbeats_sent += other.heartbeats_sent;
        self.heartbeat_misses += other.heartbeat_misses;
        self.peers_failed += other.peers_failed;
        self.sends_dropped += other.sends_dropped;
        self.trace_events_dropped += other.trace_events_dropped;
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.frames_coalesced += other.frames_coalesced;
        self.bytes_saved += other.bytes_saved;
    }
}

impl fmt::Display for TransportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frames {}/{} in/out ({} rejected); bytes {}/{}; \
             {} reconnects; hb {} sent, {} missed; {} peers failed; \
             {} sends dropped; qdepth hwm {}; trace dropped {}; \
             {} coalesced ({} bytes saved)",
            self.frames_in,
            self.frames_out,
            self.frames_rejected,
            self.bytes_in,
            self.bytes_out,
            self.reconnects,
            self.heartbeats_sent,
            self.heartbeat_misses,
            self.peers_failed,
            self.sends_dropped,
            self.queue_depth_hwm,
            self.trace_events_dropped,
            self.frames_coalesced,
            self.bytes_saved,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_stats_display_is_nonempty() {
        let t = TransportStats {
            frames_in: 3,
            reconnects: 1,
            ..Default::default()
        };
        let s = t.to_string();
        assert!(s.contains("3/0"));
        assert!(s.contains("1 reconnects"));
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let s = SiteStats::default();
        assert_eq!(s.rollback_rate(), 0.0);
        assert_eq!(s.lost_update_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = SiteStats {
            txns_started: 10,
            txns_aborted_conflict: 2,
            opt_notifications: 8,
            lost_updates: 2,
            ..Default::default()
        };
        assert!((s.rollback_rate() - 0.2).abs() < 1e-12);
        assert!((s.lost_update_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!SiteStats::default().to_string().is_empty());
    }

    #[test]
    fn display_reports_trace_and_queue_counters() {
        let t = TransportStats {
            trace_events_dropped: 7,
            queue_depth_hwm: 12,
            ..Default::default()
        };
        let s = t.to_string();
        assert!(s.contains("(0 rejected)"), "{s}");
        assert!(s.contains("qdepth hwm 12"), "{s}");
        assert!(s.contains("trace dropped 7"), "{s}");
        let e = SiteStats {
            trace_events_dropped: 3,
            snapshot_requests_retired: 4,
            snapshot_reads_sent: 5,
            snapshot_reservations_merged: 6,
            ..Default::default()
        };
        assert!(e.to_string().contains("trace dropped 3"));
        assert!(e.to_string().contains("; 4 snapshot requests retired;"));
        assert!(e.to_string().contains("; 5 snapshot reads sent;"));
        assert!(e.to_string().ends_with("; 6 snapshot reservations merged"));
    }

    #[test]
    fn site_stats_merge_adds_counters() {
        let a = SiteStats {
            txns_started: 4,
            txns_committed: 3,
            msgs_sent: 10,
            snapshot_requests_retired: 2,
            trace_events_dropped: 1,
            ..Default::default()
        };
        let b = SiteStats {
            txns_started: 6,
            txns_committed: 5,
            msgs_received: 2,
            snapshot_requests_retired: 3,
            snapshot_reads_sent: 7,
            snapshot_reservations_merged: 8,
            ..Default::default()
        };
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.snapshot_reads_sent, 7);
        assert_eq!(sum.snapshot_reservations_merged, 8);
        assert_eq!(sum.txns_started, 10);
        assert_eq!(sum.txns_committed, 8);
        assert_eq!(sum.msgs_sent, 10);
        assert_eq!(sum.msgs_received, 2);
        assert_eq!(sum.snapshot_requests_retired, 5);
        assert_eq!(sum.trace_events_dropped, 1);
    }

    #[test]
    fn transport_stats_merge_adds_counters_and_maxes_hwm() {
        let a = TransportStats {
            frames_in: 5,
            queue_depth_hwm: 3,
            frames_coalesced: 4,
            bytes_saved: 56,
            ..Default::default()
        };
        let b = TransportStats {
            frames_in: 7,
            queue_depth_hwm: 9,
            trace_events_dropped: 2,
            frames_coalesced: 6,
            bytes_saved: 84,
            ..Default::default()
        };
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.frames_in, 12);
        assert_eq!(sum.queue_depth_hwm, 9);
        assert_eq!(sum.trace_events_dropped, 2);
        assert_eq!(sum.frames_coalesced, 10);
        assert_eq!(sum.bytes_saved, 140);
    }

    #[test]
    fn transport_stats_display_reports_batching_counters() {
        let t = TransportStats {
            frames_coalesced: 9,
            bytes_saved: 126,
            ..Default::default()
        };
        let s = t.to_string();
        assert!(s.contains("9 coalesced (126 bytes saved)"), "{s}");
    }
}
