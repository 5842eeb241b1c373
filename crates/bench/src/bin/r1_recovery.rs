//! R1 — crash-recovery time vs WAL length (§3.4, DESIGN.md §S20).
//!
//! A durable replica pair commits N transactions (each fsynced to a real
//! WAL file), one site crashes, the survivor commits a fixed backlog, and
//! the victim restarts via `Site::recover` + the rejoin protocol. The two
//! halves of the restart — local scan-and-replay, networked catch-up —
//! are timed separately to show how each scales with log length.
//!
//! Two tables: the restart inside the reconnect window (the survivor never
//! declared the victim failed), then the restart after a declared
//! fail-stop, where the survivor first re-admits the victim into the graph
//! it repaired it out of. Both assert that the pair converges.

use decaf_bench::{emit_table, r1_recovery, r1_recovery_in_window, R1Row};

fn table(title: &str, run: fn(u64, u64) -> R1Row) {
    let missed = 128u64;
    let mut rows = Vec::new();
    for log_commits in [64u64, 512, 4096] {
        let r = run(log_commits, missed);
        rows.push(vec![
            r.log_commits.to_string(),
            format!("{:.1}", r.wal_bytes as f64 / 1024.0),
            format!("{:.2}", r.replay_ms),
            r.replayed.to_string(),
            r.missed.to_string(),
            format!("{:.2}", r.rejoin_ms),
            format!("{:.2}", r.replay_ms + r.rejoin_ms),
        ]);
    }
    emit_table(
        title,
        &[
            "log(commits)",
            "wal(KiB)",
            "replay(ms)",
            "replayed",
            "missed",
            "catch-up(ms)",
            "restart total(ms)",
        ],
        &rows,
    );
}

fn main() {
    table(
        "R1: restart cost vs WAL length, restart inside the reconnect window — scan+replay, then catch-up (§3.4)",
        r1_recovery_in_window,
    );
    table(
        "R1: restart cost vs WAL length, restart after a declared fail-stop — scan+replay, then catch-up (§3.4)",
        r1_recovery,
    );
}
