//! Compare mode: result sets from two commits, side by side.
//!
//! A result set is the captured standard output of benchmark runs, one
//! file per run or all runs in one file (or a directory of such files).
//! Each run prints a `{"config": …}` line naming its workload before its
//! result line, so the runs of a set are grouped by workload. For each
//! workload × metric, compare mode prints each side's quartiles, the
//! pairs the head side won (run *k* of base against run *k* of head), and
//! a verdict against the bound `BENCHMARK.json` fixes for the metric:
//!
//! * `improved`: head wins at least 9 in 10 pairs and the medians differ,
//!   in the better direction, by more than the base runs' interquartile
//!   distance;
//! * `unresolved`: the runs spread (interquartile distance over median,
//!   on either side) wider than the bound, and not every head run beats
//!   every base run;
//! * `no worse`: head's median is worse than base's by at most the bound;
//! * `worse`: otherwise.
//!
//! Per-layer metrics have no bound, so their verdict is `-`.

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Metric values of each run, grouped by workload, in input order.
pub type RunSet = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit as declared.
    pub unit: String,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// A comparison's outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pair rule.
    Improved,
    /// Not worse by more than the bound.
    NoWorse,
    /// Worse by more than the bound.
    Worse,
    /// Too noisy to tell at this bound.
    Unresolved,
    /// The metric has no bound.
    NoBound,
}

impl Verdict {
    /// The verdict as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Parse captured benchmark output into a run set.
pub fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut runs = RunSet::new();
    let mut workload: Option<String> = None;
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("bad JSON line {line:?}: {e}"))?;
        if let Some(config) = value.get("config") {
            workload = config
                .get("workload")
                .and_then(|w| w.as_str())
                .map(str::to_string);
        } else if let Some(metrics) = value.get("metrics").and_then(|m| m.as_object()) {
            let name = workload
                .take()
                .ok_or("a result line without a config line before it")?;
            let values = metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            runs.entry(name).or_default().push(values);
        }
    }
    Ok(runs)
}

/// Read a run set from a file, or from every file of a directory (in name
/// order).
pub fn read_runs(path: &Path) -> Result<RunSet, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut text = String::new();
    for file in files {
        text += &std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        text.push('\n');
    }
    parse_runs(&text)
}

/// The metrics of a `BENCHMARK.json`, end-to-end first.
pub fn parse_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut specs = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        let list = value
            .get(key)
            .and_then(|v| v.as_array())
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        for m in list {
            let field = |f: &str| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or(format!("{key} entry without {f}"))
            };
            specs.push(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound").and_then(|b| b.as_f64()),
            });
        }
    }
    Ok(specs)
}

/// Pairs head won, pairs run, and the verdict for one metric.
pub fn judge(
    base: &[f64],
    head: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> (usize, usize, Verdict) {
    // `gain` is positive when `to` is better than `from`.
    let gain = |from: f64, to: f64| {
        if lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|(b, h)| gain(**b, **h) > 0.0)
        .count();
    let Some(bound) = bound else {
        return (wins, pairs, Verdict::NoBound);
    };
    let (b1, base_median, b3) = quartiles(base);
    let (h1, head_median, h3) = quartiles(head);
    let spread = ((b3 - b1) / base_median.abs()).max((h3 - h1) / head_median.abs());
    let every_head_better = head.iter().all(|h| base.iter().all(|b| gain(*b, *h) > 0.0));
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && gain(base_median, head_median) > b3 - b1
    {
        Verdict::Improved
    } else if spread > bound && !every_head_better {
        Verdict::Unresolved
    } else if -gain(base_median, head_median) <= bound * base_median.abs() {
        Verdict::NoWorse
    } else {
        Verdict::Worse
    };
    (wins, pairs, verdict)
}

/// The comparison table of two run sets under a spec.
pub fn compare(base: &RunSet, head: &RunSet, specs: &[MetricSpec]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<32} {:>36} {:>36} {:>8} {:>7}  verdict",
        "workload", "metric", "base q1 / median / q3", "head q1 / median / q3", "change", "won"
    );
    for (workload, base_runs) in base {
        let Some(head_runs) = head.get(workload) else {
            let _ = writeln!(out, "{workload:<12} (no head runs)");
            continue;
        };
        for spec in specs {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&spec.name).copied())
                    .collect()
            };
            let (b, h) = (values(base_runs), values(head_runs));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let (wins, pairs, verdict) = judge(&b, &h, spec.lower_is_better, spec.bound);
            let fmt = |v: &[f64]| {
                let (q1, q2, q3) = quartiles(v);
                format!("{q1:.4} / {q2:.4} / {q3:.4}")
            };
            let _ = writeln!(
                out,
                "{workload:<12} {:<32} {:>36} {:>36} {:>+7.1}% {:>7}  {}",
                format!("{} ({})", spec.name, spec.unit),
                fmt(&b),
                fmt(&h),
                (median(&h) / median(&b) - 1.0) * 100.0,
                format!("{wins}/{pairs}"),
                verdict.label()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_each_verdict() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(judge(&base, &faster, true, Some(0.1)).2, Verdict::Improved);
        assert_eq!(judge(&base, &slower, true, Some(0.1)).2, Verdict::Worse);
        assert_eq!(judge(&base, &same, true, Some(0.1)).2, Verdict::NoWorse);
        // Higher is better: the faster side is now the worse one.
        assert_eq!(judge(&base, &faster, false, Some(0.1)).2, Verdict::Worse);
        assert_eq!(judge(&base, &slower, true, None).2, Verdict::NoBound);
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(judge(&noisy, &same, true, Some(0.1)).2, Verdict::Unresolved);
    }

    #[test]
    fn groups_results_by_the_config_line_before_them() {
        let text = "noise\n{\"config\":{\"workload\":\"a\"}}\n{\"attempted\":1,\"correct\":true,\"failed\":0,\"metrics\":{\"m\":{\"unit\":\"s\",\"value\":2}}}\n\
                    {\"config\":{\"workload\":\"a\"}}\n{\"attempted\":1,\"correct\":true,\"failed\":0,\"metrics\":{\"m\":{\"unit\":\"s\",\"value\":4}}}\n";
        let runs = parse_runs(text).unwrap();
        assert_eq!(runs["a"].len(), 2);
        assert_eq!(runs["a"][1]["m"], 4.0);
        assert!(parse_runs("{\"metrics\":{}}").is_err());
    }
}
