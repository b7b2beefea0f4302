//! The metric catalogue (names and units, as `BENCHMARK.json` lists them)
//! and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("iter_ms.p50", "ms"),
    ("iter_ms.p90", "ms"),
    ("work_per_s", "1/s"),
    ("cpu_ms_per_iter", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not call reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("engine.pool_workers", "count"),
    ("engine.inline_vs_pooled", "ratio"),
    ("corpus.ms", "ms"),
    ("corpus.sites", "count"),
    ("corpus.html_mb", "MB"),
    ("corpus.mb_per_s", "MB/s"),
    ("classify.ms", "ms"),
    ("classify.pages", "count"),
    ("classify.mb_per_s", "MB/s"),
    ("html.tokenize_ms", "ms"),
    ("history.ms", "ms"),
    ("history.prs", "count"),
    ("pairs.ms", "ms"),
    ("pairs.total", "count"),
    ("survey.ms", "ms"),
    ("survey.responses", "count"),
    ("scenario.ms", "ms"),
    ("scenario.unattributed_ms", "ms"),
    ("run_all.ms", "ms"),
    ("experiment.table1.ms", "ms"),
    ("experiment.table2.ms", "ms"),
    ("experiment.table3.ms", "ms"),
    ("experiment.figure1.ms", "ms"),
    ("experiment.figure2.ms", "ms"),
    ("experiment.figure3.ms", "ms"),
    ("experiment.figure4.ms", "ms"),
    ("experiment.figure5.ms", "ms"),
    ("experiment.figure6.ms", "ms"),
    ("experiment.figure7.ms", "ms"),
    ("experiment.figure8.ms", "ms"),
    ("experiment.figure9.ms", "ms"),
    ("resolver.lookups", "count"),
    ("resolver.hit_ratio", "ratio"),
    ("net.serve_ns", "ns"),
    ("load.target_build_ms", "ms"),
    ("load.ms", "ms"),
    ("load.wire_requests", "count"),
    ("load.retries", "count"),
    ("load.retry_success_ratio", "ratio"),
    ("load.conn_reuse_ratio", "ratio"),
    ("load.decisions", "count"),
    ("load.inline_vs_pooled", "ratio"),
    ("supervision.tasks_run", "count"),
    ("supervision.quarantined", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.pairs", "count"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The machine-readable result: the last line a run prints.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Iterations run (timed and traced).
    pub attempted: u64,
    /// Quarantined tasks plus iterations that failed the output check.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// The result as one line of JSON.
    pub fn to_json_line(&self) -> String {
        let mut metrics = serde_json::Map::new();
        for (name, value) in &self.metrics {
            let mut m = serde_json::Map::new();
            m.insert("value".into(), (*value).into());
            m.insert(
                "unit".into(),
                unit_of(name).expect("only catalogued metrics").into(),
            );
            metrics.insert((*name).to_string(), m.into());
        }
        let mut top = serde_json::Map::new();
        top.insert("correct".into(), self.correct.into());
        top.insert("attempted".into(), self.attempted.into());
        top.insert("failed".into(), self.failed.into());
        top.insert("metrics".into(), metrics.into());
        serde_json::to_string(&serde_json::Value::Object(top)).expect("a JSON value always prints")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_carries_units() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", 0.5);
        let line = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        }
        .to_json_line();
        assert_eq!(
            line,
            r#"{"attempted":3,"correct":true,"failed":0,"metrics":{"setup_s":{"unit":"s","value":0.5}}}"#
        );
    }
}
