//! Integration: three **real OS processes** (the `decaf-site` daemon) on a
//! loopback TCP mesh — the paper's deployment shape, one process per user
//! (§5.2).
//!
//! Choreography:
//!
//! 1. Spawn three `decaf-site` processes, each submitting read-write
//!    increment transactions against the shared replicated counter, and
//!    wait until every process reports `phase1-done value=6` (2 txns × 3
//!    sites). This proves commitment works across process boundaries and
//!    kernel sockets, not just in-process channels.
//! 2. SIGKILL site 3 — a genuine fail-stop crash, no goodbye message. The
//!    kill deliberately happens only *after* phase 1, while all sites are
//!    otherwise idle: the survivors' evidence of the crash is purely the
//!    transport's keepalive/reconnect machinery giving up.
//! 3. The survivors must observe the transport's `SiteFailed` verdict,
//!    run the §3.4 failure recovery, and then commit two more increments
//!    each (`final value=10` = 6 + 2 × 2 survivors), exiting 0.
//!
//! A second scenario exercises the durability path instead: site 3 runs
//! with `--data-dir`, is SIGKILLed after fsyncing phase 1 to its
//! write-ahead log, and is restarted from the same directory — it must
//! replay the log, rejoin via the §3.4 catch-up protocol, and converge
//! with the survivors on the identical final value.

use std::fs;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SITES: u32 = 3;
const TXNS: u64 = 2;
const ON_FAIL_TXNS: u64 = 2;
const PHASE1_TARGET: i64 = TXNS as i64 * SITES as i64; // 6
const FINAL_TARGET: i64 = PHASE1_TARGET + ON_FAIL_TXNS as i64 * (SITES as i64 - 1); // 10

struct Daemon {
    child: Child,
    log: PathBuf,
}

impl Daemon {
    fn log_contents(&self) -> String {
        fs::read_to_string(&self.log).unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_file(&self.log);
    }
}

/// Lets the kernel pick a free loopback port; the listener is dropped just
/// before the daemon rebinds it.
fn reserve_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    l.local_addr().expect("local addr").to_string()
}

/// Builds the shared parts of a `decaf-site` invocation: log redirection
/// (the `tag` keeps a restarted process's log distinct from its first
/// incarnation's), listen address, peer table, and the runtime ceiling.
/// Callers add the workload flags and spawn.
fn site_cmd(site: u32, tag: &str, addrs: &[String]) -> (Command, PathBuf) {
    let log = std::env::temp_dir().join(format!(
        "decaf-tcp-test-{}-site{site}{tag}.log",
        std::process::id()
    ));
    let out = fs::File::create(&log).expect("create log file");
    let err = out.try_clone().expect("clone log handle");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_decaf-site"));
    cmd.arg("--site")
        .arg(site.to_string())
        .arg("--listen")
        .arg(&addrs[(site - 1) as usize])
        .arg("--max-runtime-ms")
        .arg("60000")
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err);
    for peer in 1..=SITES {
        if peer != site {
            cmd.arg("--peer")
                .arg(format!("{peer}={}", addrs[(peer - 1) as usize]));
        }
    }
    (cmd, log)
}

fn spawn_site(site: u32, addrs: &[String]) -> Daemon {
    let (mut cmd, log) = site_cmd(site, "", addrs);
    cmd.arg("--txns")
        .arg(TXNS.to_string())
        .arg("--on-fail-txns")
        .arg(ON_FAIL_TXNS.to_string())
        .arg("--linger-ms")
        .arg("500");
    let child = cmd.spawn().expect("spawn decaf-site");
    Daemon { child, log }
}

/// Polls all daemons' logs until each contains `needle`, failing loudly on
/// timeout or if any daemon exits prematurely.
fn await_in_logs(daemons: &mut [Daemon], needle: &str, timeout: Duration) {
    let start = Instant::now();
    loop {
        if daemons.iter().all(|d| d.log_contents().contains(needle)) {
            return;
        }
        for d in daemons.iter_mut() {
            if let Ok(Some(status)) = d.child.try_wait() {
                panic!(
                    "daemon exited ({status}) before printing {needle:?}; log:\n{}",
                    d.log_contents()
                );
            }
        }
        assert!(
            start.elapsed() < timeout,
            "timed out waiting for {needle:?}; logs:\n{}",
            daemons
                .iter()
                .map(|d| d.log_contents())
                .collect::<Vec<_>>()
                .join("---\n")
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn wait_success(d: &mut Daemon) {
    let status = d.child.wait().expect("wait daemon");
    assert!(
        status.success(),
        "daemon exited {status}; log:\n{}",
        d.log_contents()
    );
}

#[test]
fn three_processes_converge_and_survive_a_sigkill() {
    let addrs: Vec<String> = (0..SITES).map(|_| reserve_addr()).collect();
    let mut daemons: Vec<Daemon> = (1..=SITES).map(|i| spawn_site(i, &addrs)).collect();

    // Phase 1: all three processes commit the full increment chain over
    // real sockets.
    await_in_logs(
        &mut daemons,
        &format!("phase1-done value={PHASE1_TARGET}"),
        Duration::from_secs(30),
    );

    // Fail-stop crash: SIGKILL site 3. No shutdown handshake — survivors
    // must detect the loss from keepalive silence + reconnect exhaustion.
    let mut victim = daemons.pop().unwrap();
    victim.child.kill().expect("sigkill site 3");
    let _ = victim.child.wait();

    // Survivors observe the transport-announced failure...
    await_in_logs(&mut daemons, "site-failed 3", Duration::from_secs(30));

    // ...complete §3.4 recovery, and commit the post-failure workload.
    await_in_logs(
        &mut daemons,
        &format!("final value={FINAL_TARGET}"),
        Duration::from_secs(30),
    );
    for d in daemons.iter_mut() {
        wait_success(d);
    }

    // Both survivors settled on the identical final value, and neither
    // socket stream ever produced a malformed frame.
    for d in &daemons {
        let log = d.log_contents();
        assert!(
            log.contains(&format!("final value={FINAL_TARGET}")),
            "survivor log:\n{log}"
        );
        assert!(log.contains("(0 rejected)"), "survivor log:\n{log}");
    }

    // The victim never printed a final value: it was killed, not finished.
    assert!(
        !victim.log_contents().contains("final value"),
        "victim log:\n{}",
        victim.log_contents()
    );
}

#[test]
fn durable_site_recovers_from_sigkill_and_rejoins() {
    // Crash durability, end to end over real processes and sockets:
    //
    // 1. Sites 1 and 2 run 3 txns each and wait for the grand total of 11
    //    (9 from phase 1 + 2 from the victim's second incarnation).
    // 2. Site 3 runs durable (`--data-dir`): every commit is fsynced to
    //    its write-ahead log before the commit broadcast leaves the
    //    process. It targets only the phase-1 total (9) and lingers long,
    //    so the SIGKILL below always lands before a clean exit.
    // 3. Once site 3 reports `phase1-done value=9` — by which point all 9
    //    commits are on disk, because the daemon drains the WAL ahead of
    //    the phase check in the same pump iteration — it gets SIGKILLed
    //    and immediately restarted from the same data dir and address.
    // 4. The restart must replay the log (`recovered wal-records=`), run
    //    the §3.4 rejoin/catch-up (`rejoin peers=2`), then commit 2 fresh
    //    txns. All three processes converge on 11 and exit 0 printing the
    //    identical `exit value=11`.
    let addrs: Vec<String> = (0..SITES).map(|_| reserve_addr()).collect();
    let data_dir =
        std::env::temp_dir().join(format!("decaf-tcp-test-{}-site3-wal", std::process::id()));
    let _ = fs::remove_dir_all(&data_dir);
    fs::create_dir_all(&data_dir).expect("create data dir");

    // Tagged logs: the kill test above runs concurrently in this process
    // and names its site 1 and 2 logs without a tag.
    let mut survivors: Vec<Daemon> = (1..=2)
        .map(|i| {
            let (mut cmd, log) = site_cmd(i, "-durable", &addrs);
            cmd.args([
                "--txns",
                "3",
                "--phase1-target",
                "11",
                "--linger-ms",
                "4000",
            ]);
            let child = cmd.spawn().expect("spawn survivor");
            Daemon { child, log }
        })
        .collect();
    let mut victim1 = {
        let (mut cmd, log) = site_cmd(3, "-run1", &addrs);
        cmd.args([
            "--txns",
            "3",
            "--phase1-target",
            "9",
            "--linger-ms",
            "30000",
        ]);
        cmd.arg("--data-dir").arg(&data_dir);
        let child = cmd.spawn().expect("spawn durable victim");
        Daemon { child, log }
    };

    await_in_logs(
        std::slice::from_mut(&mut victim1),
        "phase1-done value=9",
        Duration::from_secs(30),
    );
    victim1.child.kill().expect("sigkill durable site 3");
    let _ = victim1.child.wait();

    // Restart quickly — while the survivors' reconnect loops are still
    // retrying — from the same WAL and the same listen address. The new
    // incarnation submits 2 more txns once its rejoin completes.
    let mut victim2 = {
        let (mut cmd, log) = site_cmd(3, "-run2", &addrs);
        cmd.args([
            "--txns",
            "2",
            "--phase1-target",
            "11",
            "--linger-ms",
            "4000",
        ]);
        cmd.arg("--data-dir").arg(&data_dir);
        let child = cmd.spawn().expect("respawn durable victim");
        Daemon { child, log }
    };

    // Recovery contract lines: WAL replay restores the full phase-1 state
    // (all 9 commits were fsynced before `phase1-done` printed), then the
    // rejoin announcement goes to both peers.
    await_in_logs(
        std::slice::from_mut(&mut victim2),
        "recovered wal-records=",
        Duration::from_secs(30),
    );
    await_in_logs(
        std::slice::from_mut(&mut victim2),
        "rejoin peers=2",
        Duration::from_secs(30),
    );
    let recovered_line = victim2
        .log_contents()
        .lines()
        .find(|l| l.starts_with("recovered wal-records="))
        .expect("recovered line just awaited")
        .to_string();
    assert!(
        recovered_line.ends_with(" value=9"),
        "replay must restore the pre-crash committed value: {recovered_line}"
    );
    let replayed: u64 = recovered_line
        .strip_prefix("recovered wal-records=")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("parse wal-records count");
    assert!(
        replayed >= 9,
        "the WAL must hold at least the 9 phase-1 commits: {recovered_line}"
    );

    // Everyone — survivors and the restarted victim — converges on the
    // grand total and exits cleanly.
    await_in_logs(&mut survivors, "final value=11", Duration::from_secs(30));
    await_in_logs(
        std::slice::from_mut(&mut victim2),
        "final value=11",
        Duration::from_secs(30),
    );
    for d in survivors.iter_mut() {
        wait_success(d);
    }
    wait_success(&mut victim2);

    // Convergence through the restart: all three processes report the
    // identical committed value at exit.
    fn exit_value(log: &str) -> i64 {
        log.lines()
            .find_map(|l| l.strip_prefix("exit value="))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no exit value in log:\n{log}"))
    }
    let values: Vec<i64> = survivors
        .iter()
        .map(|d| exit_value(&d.log_contents()))
        .chain(std::iter::once(exit_value(&victim2.log_contents())))
        .collect();
    assert_eq!(values, vec![11, 11, 11], "exit values must agree");

    // The second incarnation kept appending to the same log file, and the
    // first never exited cleanly (it was killed mid-linger).
    assert!(
        victim2.log_contents().contains("wal-summary appends="),
        "victim log:\n{}",
        victim2.log_contents()
    );
    assert!(
        !victim1.log_contents().contains("exit value"),
        "victim run 1 log:\n{}",
        victim1.log_contents()
    );
    let _ = fs::remove_dir_all(&data_dir);
}

#[test]
fn durable_site_restarted_after_its_fail_stop_is_reopened_and_converges() {
    // The durable scenario above, but site 3 comes back only after both
    // survivors have declared it fail-stopped (`site-failed 3`): their
    // links to it are failed, and its `Hello` must reopen them, or the
    // answers to its rejoin request are dropped and it never converges.
    let addrs: Vec<String> = (0..SITES).map(|_| reserve_addr()).collect();
    let data_dir = std::env::temp_dir().join(format!(
        "decaf-tcp-test-{}-site3-wal-failstop",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&data_dir);
    fs::create_dir_all(&data_dir).expect("create data dir");
    let spawn = |site: u32, tag: &str, args: &[&str]| {
        let (mut cmd, log) = site_cmd(site, tag, &addrs);
        cmd.args(args);
        if site == 3 {
            cmd.arg("--data-dir").arg(&data_dir);
        }
        let child = cmd.spawn().expect("spawn decaf-site");
        Daemon { child, log }
    };
    let survivor_args = [
        "--txns",
        "3",
        "--phase1-target",
        "11",
        "--linger-ms",
        "4000",
    ];
    let mut survivors: Vec<Daemon> = (1..=2)
        .map(|i| spawn(i, "-failstop", &survivor_args))
        .collect();
    let mut victim1 = spawn(
        3,
        "-failstop-run1",
        &[
            "--txns",
            "3",
            "--phase1-target",
            "9",
            "--linger-ms",
            "30000",
        ],
    );
    await_in_logs(
        std::slice::from_mut(&mut victim1),
        "phase1-done value=9",
        Duration::from_secs(30),
    );
    victim1.child.kill().expect("sigkill durable site 3");
    let _ = victim1.child.wait();
    await_in_logs(&mut survivors, "site-failed 3", Duration::from_secs(30));

    let mut victim2 = spawn(
        3,
        "-failstop-run2",
        &[
            "--txns",
            "2",
            "--phase1-target",
            "11",
            "--linger-ms",
            "4000",
        ],
    );
    await_in_logs(
        std::slice::from_mut(&mut victim2),
        "rejoin peers=2",
        Duration::from_secs(30),
    );
    await_in_logs(&mut survivors, "final value=11", Duration::from_secs(30));
    await_in_logs(
        std::slice::from_mut(&mut victim2),
        "final value=11",
        Duration::from_secs(30),
    );
    for d in survivors.iter_mut().chain(std::iter::once(&mut victim2)) {
        wait_success(d);
        let log = d.log_contents();
        assert!(log.contains("exit value=11"), "log:\n{log}");
    }
    let _ = fs::remove_dir_all(&data_dir);
}

/// A log written by WAL format 1 (JSON payloads) is refused by name, with a
/// non-zero exit, and is left on disk exactly as it was — neither truncated
/// as a torn tail nor overwritten by a fresh baseline.
#[test]
fn version_one_wal_is_refused_and_left_untouched() {
    let data_dir =
        std::env::temp_dir().join(format!("decaf-tcp-test-{}-v1-wal", std::process::id()));
    let _ = fs::remove_dir_all(&data_dir);
    fs::create_dir_all(&data_dir).expect("create data dir");

    // One complete, CRC-valid format-1 frame: version 1 | kind 2
    // (checkpoint) | length | CRC over those six bytes and the payload.
    let payload = br#"{"site":1,"clock":{"site":1,"counter":0},"objects":[],"next_seq":0,"decided":[],"next_relation":0}"#;
    let mut frame = vec![1u8, 2];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut covered = frame.clone();
    covered.extend_from_slice(payload);
    frame.extend_from_slice(&decaf_core::codec::crc32(&covered).to_le_bytes());
    frame.extend_from_slice(payload);
    let wal = data_dir.join("wal.log");
    fs::write(&wal, &frame).expect("write v1 log");

    let out = Command::new(env!("CARGO_BIN_EXE_decaf-site"))
        .args(["--site", "1", "--listen", &reserve_addr(), "--txns", "1"])
        .arg("--data-dir")
        .arg(&data_dir)
        .stdin(Stdio::null())
        .output()
        .expect("run decaf-site");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "accepted a format-1 log: {stderr}");
    assert!(
        stderr.contains("wal frame has format version 1, this build reads 2"),
        "stderr: {stderr}"
    );
    assert_eq!(fs::read(&wal).expect("log still there"), frame);
    let _ = fs::remove_dir_all(&data_dir);
}

/// A number or address that does not parse is a usage error (exit 2), not
/// a silent fall-back to the default.
#[test]
fn unparseable_flag_values_are_usage_errors() {
    let addr = reserve_addr();
    let ok = ["--site", "1", "--listen", addr.as_str()];
    for flag in [
        "--site",
        "--listen",
        "--phase1-target",
        "--final-target",
        "--metrics-listen",
    ] {
        // The bad value comes last, so it overrides a good one before it.
        let out = Command::new(env!("CARGO_BIN_EXE_decaf-site"))
            .args(ok)
            .args([flag, "x"])
            .stdin(Stdio::null())
            .output()
            .expect("run decaf-site");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} x: {stderr}");
        assert!(stderr.contains("usage: decaf-site"), "{flag} x: {stderr}");
    }
}

#[test]
fn single_site_mesh_runs_standalone() {
    // Degenerate deployment: one process, no peers. The daemon must still
    // commit its local transactions (target = txns × 1) and exit cleanly.
    let addr = reserve_addr();
    let log = std::env::temp_dir().join(format!("decaf-tcp-test-{}-solo.log", std::process::id()));
    let out = fs::File::create(&log).expect("create log file");
    let err = out.try_clone().expect("clone log handle");
    let child = Command::new(env!("CARGO_BIN_EXE_decaf-site"))
        .args(["--site", "1", "--listen", &addr, "--txns", "3"])
        .args(["--linger-ms", "0", "--max-runtime-ms", "30000"])
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("spawn decaf-site");
    let mut d = Daemon { child, log };
    wait_success(&mut d);
    let contents = d.log_contents();
    assert!(contents.contains("final value=3"), "log:\n{contents}");
}
