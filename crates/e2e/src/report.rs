//! What a run prints and what `compare` reads back.
//!
//! A run prints every metric by name with its unit, one line per output
//! check, a `detail` line (how well the segments agree on the value, and
//! the sample count, per metric) and, last, the result line the driver
//! reads. `all` gathers the result and detail lines of its children into
//! one file; `compare` sets two such files side by side.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::measure::{Check, Metric, Metrics};
use crate::spec::{Better, MetricSpec};

/// Prefix of the line that carries spreads and sample counts.
pub const DETAIL_PREFIX: &str = "detail ";

/// One finished run, ready to print.
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Gestures due in the measured windows.
    pub attempted: u64,
    /// Of those, not committed.
    pub failed: u64,
    /// The output checks.
    pub checks: Vec<Check>,
    /// The metrics the contract lists for this kind of run.
    pub listed: Vec<&'static MetricSpec>,
    /// Everything measured, listed or not.
    pub metrics: Metrics,
    /// Extra lines for the reader: per-segment values.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the last holding every listed metric.
    pub fn result_line(&self) -> String {
        let metrics = self.listed.iter().map(|spec| {
            let value = self.metrics.get(spec.name).map_or(0.0, |m| m.value);
            (
                spec.name,
                Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(spec.unit.into())),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_string()
    }

    /// The detail line: spread and sample count of each listed metric.
    pub fn detail_line(&self) -> String {
        let per_metric = self.listed.iter().filter_map(|spec| {
            let m = self.metrics.get(spec.name)?;
            Some((
                spec.name,
                Value::obj([
                    ("spread", Value::Num(m.spread)),
                    ("samples", Value::Num(m.samples as f64)),
                ]),
            ))
        });
        format!("{DETAIL_PREFIX}{}", Value::obj(per_metric))
    }

    /// Prints the human-readable table, the checks, and the two lines.
    pub fn print(&self) {
        println!(
            "# {} — attempted {} failed {}",
            self.workload, self.attempted, self.failed
        );
        for spec in &self.listed {
            let m = self
                .metrics
                .get(spec.name)
                .copied()
                .unwrap_or(Metric::plain(0.0));
            let spread = if m.spread.is_finite() {
                format!("  spread {:.3}", m.spread)
            } else {
                String::new()
            };
            let samples = if m.samples > 0 {
                format!("  n={}", m.samples)
            } else {
                String::new()
            };
            println!(
                "{:<40} {:>16.4} {:<6}{spread}{samples}",
                spec.name, m.value, spec.unit
            );
        }
        for note in &self.notes {
            println!("{note}");
        }
        for c in &self.checks {
            println!(
                "check {:<28} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        println!("{}", self.detail_line());
        println!("{}", self.result_line());
    }
}

/// Reads the result and detail lines out of a child's stdout and merges
/// them into one object per metric: `value`, `unit`, `spread`, `samples`.
///
/// # Errors
///
/// Fails if the last line is not a result line.
pub fn parse_child_output(stdout: &str) -> Result<Value, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let mut result = crate::json::parse(last)?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .map(crate::json::parse)
        .transpose()?;
    let Value::Obj(top) = &mut result else {
        return Err("result line is not an object".into());
    };
    if let (Some(Value::Obj(metrics)), Some(Value::Obj(detail))) = (top.get_mut("metrics"), detail)
    {
        for (name, extra) in detail {
            if let (Some(Value::Obj(m)), Value::Obj(extra)) = (metrics.get_mut(&name), extra) {
                m.extend(extra);
            }
        }
    }
    Ok(result)
}

/// How one metric of one workload compares between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// A spread wider than the bound: the runs cannot tell.
    Unresolved,
}

/// Judges `b` against base `a` for a metric with the given direction and
/// bound; `spread` is the wider of the two runs' segment spreads.
pub fn judge(spec: &MetricSpec, a: f64, b: f64, spread: f64) -> Verdict {
    if spread.is_finite() && spread > spec.bound {
        return Verdict::Unresolved;
    }
    let worse = match spec.better {
        Better::Lower => b > a * (1.0 + spec.bound),
        Better::Higher => b < a * (1.0 - spec.bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (workload, end-to-end metric) of two `all` result
/// files; returns how many rows are `worse`.
///
/// # Errors
///
/// Fails if a file lacks a workload or a metric the contract lists.
pub fn compare(a: &Value, b: &Value) -> Result<usize, String> {
    let workloads = |v: &Value| -> Result<BTreeMap<String, Value>, String> {
        v.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .ok_or_else(|| "no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let mut worse = 0;
    for (workload, _) in crate::spec::WORKLOADS {
        for spec in &crate::spec::END_TO_END {
            let field = |side: &BTreeMap<String, Value>, key: &str| -> Result<f64, String> {
                side.get(workload)
                    .and_then(|w| w.get("metrics"))
                    .and_then(|m| m.get(spec.name))
                    .and_then(|m| m.get(key))
                    .map(|v| v.as_f64().unwrap_or(f64::NAN))
                    .ok_or_else(|| format!("{workload}: no {}.{key}", spec.name))
            };
            let (va, vb) = (field(&wa, "value")?, field(&wb, "value")?);
            let spread = field(&wa, "spread")
                .unwrap_or(f64::NAN)
                .max(field(&wb, "spread").unwrap_or(f64::NAN));
            let verdict = judge(spec, va, vb, spread);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<12} {:<22} {va:>14.4} {vb:>14.4} {:>9.4} {:>6.2}  {}",
                spec.name,
                vb / va,
                spec.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lat = end_to_end("commit_p50_us").unwrap();
        let rate = end_to_end("commits_per_s").unwrap();
        assert_eq!(
            judge(lat, 100.0, 100.0 * (1.0 + lat.bound) - 0.1, 0.01),
            Verdict::Ok
        );
        assert_eq!(
            judge(lat, 100.0, 100.0 * (1.0 + lat.bound) + 0.1, 0.01),
            Verdict::Worse
        );
        assert_eq!(judge(lat, 100.0, 50.0, f64::NAN), Verdict::Ok);
        assert_eq!(
            judge(rate, 1000.0, 1000.0 * (1.0 - rate.bound) - 1.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(judge(rate, 1000.0, 2000.0, 0.0), Verdict::Ok);
        assert_eq!(
            judge(lat, 100.0, 500.0, lat.bound + 0.01),
            Verdict::Unresolved
        );
    }

    #[test]
    fn child_output_merges_detail_into_result() {
        let out = "# x\ncheck a ok\ndetail {\"m\":{\"spread\":0.5,\"samples\":9}}\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"m\":{\"value\":2,\"unit\":\"us\"}}}\n";
        let v = parse_child_output(out).unwrap();
        let m = v.get("metrics").unwrap().get("m").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(m.get("spread").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.get("samples").unwrap().as_f64(), Some(9.0));
        assert!(parse_child_output("no json here").is_err());
    }
}
