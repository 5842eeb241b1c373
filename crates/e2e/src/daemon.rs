//! The shipped `decaf-site` binary as site 1 of `daemon3`: spawned with
//! default flags, watched through the contract lines on its stdout.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the daemon printed by the time it exited.
#[derive(Debug, Clone, Default)]
pub struct DaemonReport {
    /// `exit value=V`: the committed counter when the process ended.
    pub exit_value: Option<i64>,
    /// Spawn → `listening on`.
    pub startup_ms: f64,
    /// From the `engine:` line.
    pub msgs_sent: u64,
    /// From the `engine:` line.
    pub msgs_received: u64,
    /// From the `transport:` line.
    pub frames_out: u64,
    /// From the `transport:` line: keepalive frames among `frames_out`.
    pub heartbeats_sent: u64,
    /// From the `transport:` line: envelopes that rode in another's frame.
    pub coalesced: u64,
    /// From the `transport:` line: rejected frames, reconnects, failed
    /// peers and dropped sends, summed. Must be 0.
    pub transport_faults: u64,
    /// `site-failed` lines. Must be 0.
    pub site_failures: u64,
}

impl DaemonReport {
    /// Folds one stdout line into the report.
    fn absorb(&mut self, line: &str) {
        if let Some(v) = line.strip_prefix("exit value=") {
            self.exit_value = v.trim().parse().ok();
        } else if line.starts_with("site-failed") {
            self.site_failures += 1;
        } else if let Some(rest) = line.strip_prefix("engine: ") {
            // "...; msgs SENT/RECEIVED; trace dropped N"
            if let Some((sent, received)) = pair_after(rest, "msgs ") {
                (self.msgs_sent, self.msgs_received) = (sent, received);
            }
        } else if let Some(rest) = line.strip_prefix("transport: ") {
            // "frames IN/OUT in/out (R rejected); …; N reconnects; hb N
            //  sent, …; N peers failed; N sends dropped; …; N coalesced (…)"
            if let Some((_, out)) = pair_after(rest, "frames ") {
                self.frames_out = out;
            }
            self.heartbeats_sent = field_after(rest, "hb ").unwrap_or(0);
            self.coalesced = count_before(rest, " coalesced").unwrap_or(0);
            // A count that cannot be read counts as a fault.
            self.transport_faults = [
                " rejected",
                " reconnects",
                " peers failed",
                " sends dropped",
            ]
            .iter()
            .map(|what| count_before(rest, what).unwrap_or(1))
            .sum();
        }
    }
}

/// A running `decaf-site` child.
pub struct Daemon {
    child: Child,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    report: DaemonReport,
}

/// Where the shipped binary is: beside this executable, or — under
/// `cargo test`, whose harness binary is a debug build — in the sibling
/// profile directory a preceding `cargo build --release` filled.
pub fn site_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    // Test binaries live one level down, in `deps/`.
    let profile_dir = if dir.ends_with("deps") {
        dir.parent().unwrap_or(dir)
    } else {
        dir
    };
    let name = format!("decaf-site{}", std::env::consts::EXE_SUFFIX);
    let mut tried = Vec::new();
    for candidate in [
        profile_dir.join(&name),
        profile_dir.join("../release").join(&name),
        profile_dir.join("../debug").join(&name),
    ] {
        if candidate.is_file() {
            return Ok(candidate);
        }
        tried.push(candidate.display().to_string());
    }
    Err(format!(
        "decaf-site not found (build it: cargo build --release -p decaf-apps --bin decaf-site); looked at {}",
        tried.join(", ")
    ))
}

impl Daemon {
    /// Spawns site 1 listening on `listen` with the two harness sites as
    /// peers, submitting nothing, finishing once the committed counter
    /// reaches `target`. Returns once it has printed `listening on`.
    pub fn spawn(
        listen: SocketAddr,
        peers: &[(u32, SocketAddr)],
        target: i64,
        max_runtime: Duration,
    ) -> Result<Daemon, String> {
        let bin = site_binary()?;
        let mut cmd = Command::new(&bin);
        cmd.args(["--site", "1", "--listen", &listen.to_string()]);
        for (id, addr) in peers {
            cmd.args(["--peer", &format!("{id}={addr}")]);
        }
        cmd.args(["--txns", "0", "--phase1-target", &target.to_string()]);
        cmd.args(["--max-runtime-ms", &max_runtime.as_millis().to_string()]);
        // The default 1.5 s linger only delays the exit: both peers have
        // every commit before the harness lets the daemon finish.
        cmd.args(["--linger-ms", "200"]);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("decaf-site-stdout".into())
            .spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawning stdout reader: {e}"))?;
        let mut daemon = Daemon {
            child,
            lines,
            reader: Some(reader),
            report: DaemonReport::default(),
        };
        if !daemon.read_until("decaf-site 1 listening on", Duration::from_secs(10)) {
            daemon.kill();
            return Err("decaf-site did not print `listening on` within 10 s".into());
        }
        daemon.report.startup_ms = spawned.elapsed().as_secs_f64() * 1e3;
        Ok(daemon)
    }

    /// Consumes stdout lines into the report until one starts with
    /// `prefix`; false on timeout or EOF.
    fn read_until(&mut self, prefix: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(line) = self.lines.recv_timeout(left) else {
                return false;
            };
            self.report.absorb(&line);
            if line.starts_with(prefix) {
                return true;
            }
        }
    }

    /// Waits for the daemon to finish by itself (it does once the counter
    /// reaches its target and it has lingered) and returns what it said.
    pub fn finish(mut self, timeout: Duration) -> Result<DaemonReport, String> {
        let clean = self.read_until("exit value=", timeout);
        if !clean {
            self.kill();
            return Err(format!(
                "decaf-site printed no `exit value=` within {timeout:?}"
            ));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        self.join_reader();
        if !status.success() {
            return Err(format!("decaf-site exited with {status}"));
        }
        Ok(self.report.clone())
    }

    /// Stops the child at once and reaps it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_reader();
    }

    fn join_reader(&mut self) {
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Never leave a child behind, whatever path dropped us.
        if self.reader.is_some() {
            self.kill();
        }
    }
}

/// The unsigned integer right after `key`.
fn field_after(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `A/B` right after `key`.
fn pair_after(line: &str, key: &str) -> Option<(u64, u64)> {
    let a = field_after(line, key)?;
    let rest = &line[line.find(key)? + key.len()..];
    let b = field_after(rest, "/")?;
    Some((a, b))
}

/// The unsigned integer right before `what`, as in `3 reconnects`.
fn count_before(line: &str, what: &str) -> Option<u64> {
    let head = &line[..line.find(what)?];
    let start = head
        .rfind(|c: char| !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    head[start..].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two summary lines as `decaf-site` prints them (their `Display`
    /// impls live in decaf-core's `stats.rs`).
    #[test]
    fn parses_the_daemon_summary_lines() {
        let mut r = DaemonReport::default();
        r.absorb("run-summary site=1 committed=9 elapsed-ms=4321 failed-peers=0 codec-v2-frames=7 coalesced=2 bytes-saved=10");
        r.absorb("site-failed 3");
        r.absorb("transport: frames 120/240 in/out (0 rejected); bytes 5000/9000; 0 reconnects; hb 3 sent, 0 missed; 0 peers failed; 0 sends dropped; qdepth hwm 4; trace dropped 0; 60 coalesced (800 bytes saved); 200 v2 frames");
        r.absorb("engine: txns 0/0 committed (0 conflict aborts, 0 retries); opt notif 0 (+0 commits, 0 lost, 0 upd-inc, 0 read-inc); pess notif 0; msgs 300/150; trace dropped 0");
        r.absorb("exit value=1099511627776");
        assert_eq!(
            (r.frames_out, r.coalesced, r.transport_faults),
            (240, 60, 0)
        );
        assert_eq!((r.heartbeats_sent, r.site_failures), (3, 1));
        assert_eq!((r.msgs_sent, r.msgs_received), (300, 150));
        assert_eq!(r.exit_value, Some(1 << 40));
        assert_eq!(count_before("9 reconnects", " reconnects"), Some(9));
        assert_eq!(pair_after("msgs 12/34;", "msgs "), Some((12, 34)));
    }
}
