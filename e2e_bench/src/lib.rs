//! End-to-end benchmark of the RWS paper reproduction.
//!
//! One command runs one workload (`repro-paper`, `experiments` or
//! `load-storm`) through the workspace's public API, checks its outputs,
//! and prints every metric by name with its unit; the last line is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). An untraced
//! run (`--trace 0`) reports the end-to-end metrics, a traced run
//! (`--trace 1`) the per-layer ones. `compare` sets two commits' results
//! side by side. See `README.md` in this directory.

pub mod check;
pub mod compare;
pub mod config;
pub mod metrics;
pub mod process;
pub mod stats;
pub mod trace;
pub mod workloads;

use config::Args;
use metrics::{RunResult, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use workloads::Outcome;

/// The machine-readable result of a finished run.
pub fn result_of(args: &Args, outcome: &Outcome) -> RunResult {
    let failed = (outcome.failures.len() as u64 + outcome.quarantined).min(outcome.attempted);
    let mut metrics = BTreeMap::new();
    if args.trace {
        for (name, _) in PER_LAYER {
            metrics.insert(name, outcome.layers.get(name).copied().unwrap_or(0.0));
        }
    } else {
        let n = outcome.iter_ms.len();
        assert!(
            stats::reportable(n, 900),
            "{n} iterations cannot support a p90"
        );
        let sorted = stats::sorted(&outcome.iter_ms);
        let busy_s = outcome.iter_ms.iter().sum::<f64>() / 1e3;
        for (name, _) in END_TO_END {
            let value = match name {
                "setup_s" => stats::median(&outcome.setup_s),
                "iter_ms.p50" => stats::percentile(&sorted, 500),
                "iter_ms.p90" => stats::percentile(&sorted, 900),
                "work_per_s" => outcome.work / busy_s,
                "cpu_ms_per_iter" => outcome.cpu_ms / n as f64,
                "peak_rss_mb" => outcome.peak_rss_mb,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.insert(name, value);
        }
    }
    RunResult {
        correct: failed == 0 && outcome.failures.is_empty(),
        attempted: outcome.attempted.max(1),
        failed,
        metrics,
    }
}

/// The configuration record printed before the result: everything needed
/// to say what was measured.
pub fn config_record(args: &Args, outcome: &Outcome) -> String {
    let mut c = serde_json::Map::new();
    let w = args.workload;
    c.insert("workload".into(), w.name().into());
    c.insert("seed".into(), args.seed.into());
    c.insert("seed_role".into(), w.seed_role(args.seed).into());
    c.insert("default_seed".into(), w.default_seed().into());
    c.insert("held_out_seed".into(), w.held_out_seed().into());
    c.insert("trace".into(), args.trace.into());
    c.insert("seconds".into(), args.seconds.into());
    c.insert("iterations".into(), outcome.attempted.into());
    c.insert("setup_reps".into(), outcome.setup_s.len().into());
    c.insert(
        "available_parallelism".into(),
        std::thread::available_parallelism()
            .map_or(0, |p| p.get())
            .into(),
    );
    c.insert("pool_workers".into(), outcome.pool_workers.into());
    c.insert("store_shards".into(), outcome.store_shards.into());
    c.insert("steal_frac".into(), outcome.steal_frac.into());
    c.insert("git_commit".into(), config::GIT_COMMIT.into());
    c.insert("rustc".into(), config::RUSTC_VERSION.into());
    let mut top = serde_json::Map::new();
    top.insert("config".into(), c.into());
    serde_json::to_string(&serde_json::Value::Object(top)).expect("a JSON value always prints")
}

/// Human-readable metric lines: every metric with its unit, the sample
/// count, the work metric under its workload-specific name, and the
/// failed-operation share.
pub fn metric_lines(outcome: &Outcome, result: &RunResult) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, value) in &result.metrics {
        let unit = metrics::unit_of(name).expect("catalogued metric");
        lines.push(format!("metric {name} = {value} {unit}"));
        if *name == "work_per_s" {
            lines.push(format!(
                "metric {}_per_s = {value} 1/s (work_per_s of this workload)",
                outcome.work_unit
            ));
        }
    }
    if result.metrics.contains_key("trace.pairs") {
        lines.push(format!(
            "samples: {} iterations, half traced, half untraced",
            outcome.attempted
        ));
    } else {
        let n = outcome.iter_ms.len();
        let highest = stats::highest_reportable(n).map_or(0.0, |pm| pm as f64 / 10.0);
        lines.push(format!(
            "samples: {n} timed iterations (highest percentile with {} beyond it: p{highest}), {} set-up repetitions",
            stats::MIN_BEYOND,
            outcome.setup_s.len()
        ));
    }
    lines.push(format!(
        "host: {:.2}% of the machine's CPU time was stolen by the hypervisor during the loop",
        outcome.steal_frac * 100.0
    ));
    lines.push(format!(
        "metric failed_ops_frac = {} frac ({} of {})",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    ));
    lines
}
