//! One run of one workload: set-up (several times, for `setup_s`), the
//! measured sessions, the checks, and the report.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::measure::{self, Check, Joined, Metric, Metrics};
use crate::micro;
use crate::report::RunReport;
use crate::session::{Session, SessionData, SessionOpts};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workload::Workload;

/// How a run was asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every site's gesture stream.
    pub seed: u64,
    /// Total measured time, split over the run's sessions.
    pub seconds: f64,
    /// Per-layer run (spans on) instead of the end-to-end run.
    pub traced: bool,
    /// Shortest form that still reports every metric: one set-up, short
    /// warm-up, every CPU. Bounds do not apply to its numbers.
    pub smoke: bool,
    /// Where a traced run writes `<workload>.spans.jsonl`.
    pub out: Option<std::path::PathBuf>,
}

/// Set-ups timed per end-to-end run. `setup_s` is their mean without the
/// fastest and the slowest: set-up time comes in 20 ms steps (the mesh's
/// accept poll), and the median of a two-valued sample flips where the
/// trimmed mean moves by a fraction of a step.
const SETUP_REPEATS: usize = 16;

/// Load applied and discarded before the measured window: first touches
/// of memory, socket buffers, the engines' histories reaching their working
/// length — and, unconfined, the scheduler's first change of placement
/// (README, finding 9), which with 1 s of warm-up sat inside most windows.
/// A bout warms up for half a second: some hundred rounds.
fn warmup(args: &RunArgs, bout: bool) -> Duration {
    Duration::from_millis(match (args.smoke, args.traced, bout) {
        (true, _, _) => 300,
        (false, false, true) => 500,
        (false, false, false) => 5000,
        // Three sessions share a traced run's time; their numbers carry
        // no bound.
        (false, true, _) => 3000,
    })
}

fn trimmed_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let kept = match values.len() {
        0..=2 => &values[..],
        n => &values[1..n - 1],
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// One session from set-up to teardown, measured for `seconds`.
fn session(
    args: &RunArgs,
    opts: SessionOpts,
    warmup: Duration,
    seconds: f64,
    clock: Instant,
) -> Result<SessionData, String> {
    let s = Session::start(args.workload, args.seed, opts, clock)?;
    match s.run(warmup, Duration::from_secs_f64(seconds)) {
        Ok((begin, end)) => s.finish(begin, end),
        Err(e) => {
            s.abandon();
            Err(e)
        }
    }
}

/// Runs the workload and returns its report.
///
/// # Errors
///
/// Fails when the harness could not run at all: set-up did not verify, a
/// node or the daemon stopped answering. A run whose outputs are wrong is
/// not an error; its report says `correct: false`.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let clock = Instant::now();
    if args.traced {
        run_traced(args, clock)
    } else {
        run_end_to_end(args, clock)
    }
}

/// The checks of a run's bouts as one list: a check holds when it held in
/// every bout, and shows the first bout it failed in (or else the last).
fn merge_checks(per_bout: Vec<Vec<Check>>) -> Vec<Check> {
    let bouts = per_bout.len();
    let mut merged: Vec<Check> = Vec::new();
    for (b, checks) in per_bout.into_iter().enumerate() {
        for mut c in checks {
            if bouts > 1 {
                c.detail = format!("[bout {} of {bouts}] {}", b + 1, c.detail);
            }
            match merged.iter_mut().find(|m| m.name == c.name) {
                Some(m) if m.ok => *m = c,
                Some(_) => {}
                None => merged.push(c),
            }
        }
    }
    merged
}

fn run_end_to_end(args: &RunArgs, clock: Instant) -> Result<RunReport, String> {
    // One long session cut into one-second segments, or — where a session
    // slows as it runs — as many short ones as fill the time, a segment each.
    let bout = args.workload.bout_seconds();
    let bouts = bout.map_or(1, |b| (args.seconds / b).round().max(1.0) as usize);
    let window = args.seconds / bouts as f64;

    let (mut setups, mut joins, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    for b in 0..bouts {
        let warmup = warmup(args, bout.is_some());
        let data = session(args, SessionOpts::default(), warmup, window, clock)?;
        setups.push(data.setup_s);
        let segments = bout.map_or_else(|| measure::segment_count(&data), |_| 1);
        let joined = measure::join(&data, segments);
        checks.push(measure::checks(&data, &joined));
        // Read after the first session, in a process that has run nothing
        // else: later sessions raise the high-water mark only by what the
        // allocator kept of earlier ones (in `duel_list3` 90 MB after one
        // bout, 137 MB after ten).
        if b == 0 {
            peak_rss_mb = measure::peak_rss_mb(&data);
        }
        joins.push(joined);
    }
    if !args.smoke {
        for _ in setups.len()..SETUP_REPEATS {
            let s = Session::start(args.workload, args.seed, SessionOpts::default(), clock)?;
            setups.push(s.setup_s);
            s.abandon();
        }
    }
    let joined = Joined::merged(joins);
    let mut metrics = joined.end_to_end();
    metrics.insert(
        "setup_s",
        Metric {
            value: trimmed_mean(&mut setups),
            spread: f64::NAN,
            samples: setups.len() as u64,
        },
    );
    metrics.insert("peak_rss_mb", Metric::plain(peak_rss_mb));
    metrics.extend(joined.tails());
    Ok(RunReport {
        workload: args.workload.name(),
        attempted: joined.attempted,
        failed: joined.failed,
        checks: merge_checks(checks),
        listed: END_TO_END.iter().collect(),
        metrics,
        notes: joined.segment_lines(),
    })
}

/// The per-layer run: an untraced session, a traced one, and a traced one
/// with the program's own trace sinks on. The middle one gives the layer
/// numbers; the ratios between the three give what spans and sinks cost.
fn run_traced(args: &RunArgs, clock: Instant) -> Result<RunReport, String> {
    let warmup = warmup(args, false);
    let session = |opts, seconds| session(args, opts, warmup, seconds, clock);
    let join = |data: &SessionData| measure::join(data, measure::segment_count(data));
    let plain = session(SessionOpts::default(), args.seconds * 0.2)?;
    let traced = SessionOpts {
        traced: true,
        sink: false,
    };
    let spans = session(traced, args.seconds * 0.6)?;
    let sinks = session(
        SessionOpts {
            traced: true,
            sink: true,
        },
        args.seconds * 0.2,
    )?;

    let (j_plain, j_spans, j_sinks) = (join(&plain), join(&spans), join(&sinks));
    let mut metrics: Metrics = measure::per_layer(&spans, &j_spans);
    metrics.extend(j_spans.tails());
    metrics.insert(
        "harness.span_overhead_ratio",
        Metric::plain(measure::ratio(
            j_spans.commit_p50_us(),
            j_plain.commit_p50_us(),
        )),
    );
    metrics.insert(
        "trace.sink_on_ratio",
        Metric::plain(measure::ratio(
            j_sinks.commit_p50_us(),
            j_spans.commit_p50_us(),
        )),
    );
    metrics.insert(
        "trace.events_dropped",
        Metric::plain(sinks.sink_dropped as f64),
    );
    let captured: Vec<_> = spans
        .logs
        .iter()
        .flat_map(|l| l.captured.iter().cloned())
        .collect();
    metrics.extend(micro::wire(&captured));
    metrics.extend(micro::vt());

    if let Some(dir) = &args.out {
        write_span_file(dir, &spans)?;
    }

    let mut checks: Vec<Check> = Vec::new();
    for (label, data, j) in [
        ("untraced", &plain, &j_plain),
        ("traced", &spans, &j_spans),
        ("sinks-on", &sinks, &j_sinks),
    ] {
        checks.extend(measure::checks(data, j).into_iter().map(|mut c| {
            c.detail = format!("[{label}] {}", c.detail);
            c
        }));
    }
    Ok(RunReport {
        workload: args.workload.name(),
        attempted: j_plain.attempted + j_spans.attempted + j_sinks.attempted,
        failed: j_plain.failed + j_spans.failed + j_sinks.failed,
        checks,
        listed: PER_LAYER.iter().collect(),
        metrics,
        notes: j_spans.segment_lines(),
    })
}

fn write_span_file(dir: &Path, data: &SessionData) -> Result<(), String> {
    let path = dir.join(format!("{}.spans.jsonl", data.workload.name()));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    measure::write_spans(data, &mut w).map_err(io)?;
    std::io::Write::flush(&mut w).map_err(io)
}
