//! `decaf-e2e`: run one workload, run all four, or compare two result
//! files. See the crate's `README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use decaf_e2e::json::{self, Value};
use decaf_e2e::report;
use decaf_e2e::run::{run, RunArgs};
use decaf_e2e::workload::Workload;

const USAGE: &str = "\
usage: decaf-e2e [run] --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--out <dir>]
       decaf-e2e all --seed <u64> --out <dir> [--seconds <n>] [--traced] [--smoke]
       decaf-e2e compare <a.json> <b.json>
workloads: whiteboard3 duel_list3 saturate3 daemon3";

/// Measured seconds per workload when `all` is not told otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 3.0;

/// `--flag value` pairs and bare flags, after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some("run" | "all" | "compare") => argv.remove(0),
        // The driver appends its flags straight after the command.
        Some(flag) if flag.starts_with("--") => "run".into(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match sub.as_str() {
        "run" => cmd_run(&Flags(argv)),
        "all" => cmd_all(&Flags(argv)),
        _ => cmd_compare(&argv),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("decaf-e2e: {e}");
            ExitCode::from(1)
        }
    }
}

/// Set in the environment of a run that [`rerun_on_one_cpu`] started.
const CONFINED: &str = "DECAF_E2E_CONFINED";

/// Runs this same command again under `taskset`, confined to the last CPU
/// this process may use (CPU 0 takes most interrupts), and returns its exit
/// code; the child's output goes where this process's would. `None` when
/// this already is that child, or `taskset` cannot be started: the run then
/// goes ahead here, unconfined.
fn rerun_on_one_cpu() -> Option<ExitCode> {
    if std::env::var_os(CONFINED).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: u32 = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let exit = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(CONFINED, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(exit.code().map_or(1, |c| c as u8)))
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or(USAGE)?;
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    // Not under `--smoke`, which `cargo test` runs as a debug build: three
    // debug-built sites on one CPU reorder enough for the engine to lose up
    // to 1 % of the pessimistic notifications (README, finding 5), at the
    // edge of what `pess.lossless` tolerates.
    if workload.one_cpu() && !flags.has("--smoke") {
        if let Some(code) = rerun_on_one_cpu() {
            return Ok(code);
        }
    }
    let args = RunArgs {
        workload,
        seed: flags.parsed("--seed")?.ok_or(USAGE)?,
        seconds: flags.parsed("--seconds")?.ok_or(USAGE)?,
        traced: match flags.value("--trace").ok_or(USAGE)? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        smoke: flags.has("--smoke"),
        out: flags.value("--out").map(PathBuf::from),
    };
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    run(&args)?.print();
    // A run whose outputs are wrong has still run: the result line says
    // `"correct": false` and the exit code stays 0.
    Ok(ExitCode::SUCCESS)
}

/// Runs the four workloads, each in a child process of its own so that
/// `peak_rss_mb` is per workload, and writes `<out>/e2e.json` (or
/// `e2e.traced.json`). Exits non-zero when any output check failed.
fn cmd_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.ok_or(USAGE)?;
    let out = PathBuf::from(flags.value("--out").ok_or(USAGE)?);
    let (traced, smoke) = (flags.has("--traced"), flags.has("--smoke"));
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&out);
        if smoke {
            cmd.arg("--smoke");
        }
        let child = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        if !child.status.success() {
            return Err(format!("{}: run exited with {}", w.name(), child.status));
        }
        let result =
            report::parse_child_output(&stdout).map_err(|e| format!("{}: {e}", w.name()))?;
        all_correct &= result.get("correct") == Some(&Value::Bool(true));
        workloads.push((w.name(), result));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("traced", Value::Bool(traced)),
        ("smoke", Value::Bool(smoke)),
        ("nproc", Value::Num(nproc as f64)),
        ("claim", Value::Null),
        ("workloads", Value::obj(workloads)),
    ]);
    let path = out.join(if traced {
        "e2e.traced.json"
    } else {
        "e2e.json"
    });
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("decaf-e2e: an output check failed");
        ExitCode::from(1)
    })
}

fn cmd_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(USAGE.into());
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let worse = report::compare(&load(a)?, &load(b)?)?;
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("decaf-e2e: {worse} metric(s) worse than the base by more than the bound");
        ExitCode::from(1)
    })
}
