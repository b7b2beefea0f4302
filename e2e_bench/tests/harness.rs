//! Tests of the benchmark harness itself: percentile selection, the
//! output checks, the environment refusal, and agreement between the
//! metric catalogue and `BENCHMARK.json`.

use e2e_bench::check::{check_paper_order, check_same_load, check_same_reports, PAPER_ORDER};
use e2e_bench::compare::parse_spec;
use e2e_bench::config::{refuse_overrides, Workload, REFUSED_ENV};
use e2e_bench::metrics::{END_TO_END, PER_LAYER};
use e2e_bench::stats::{highest_reportable, percentile, reportable, samples_beyond, sorted};
use rws_paper::analysis::{PaperReproduction, Report, ScenarioConfig, Series};
use rws_paper::load::LoadReport;
use std::ffi::OsString;
use std::process::Command;

#[test]
fn p90_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(100, 900), 10);
    assert!(reportable(100, 900));
    assert!(!reportable(99, 900));
    assert!(reportable(20, 500));
    assert!(!reportable(19, 500));
    assert_eq!(highest_reportable(19), None);
    assert_eq!(highest_reportable(99), Some(500));
    assert_eq!(highest_reportable(100), Some(900));
    assert_eq!(highest_reportable(1_000), Some(990));
    assert_eq!(highest_reportable(10_000), Some(999));
}

#[test]
fn nearest_rank_percentiles_pick_a_sample() {
    let shuffled: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = sorted(&shuffled);
    assert_eq!(percentile(&s, 500), 50.0);
    assert_eq!(percentile(&s, 900), 90.0);
    assert_eq!(percentile(&s, 1000), 100.0);
    // Exactly ten samples lie beyond the p90.
    assert_eq!(s.iter().filter(|&&v| v > percentile(&s, 900)).count(), 10);
}

fn twelve_reports() -> Vec<Report> {
    PAPER_ORDER
        .iter()
        .map(|id| {
            let mut report = Report::new(*id, format!("report {id}"));
            report.notes.push("42 (36.8%) privacy-harming".into());
            report.series.push(Series::new("s", vec![(1.0, 2.0)]));
            report
        })
        .collect()
}

#[test]
fn output_check_rejects_a_perturbed_report() {
    let expected = twelve_reports();
    assert!(check_paper_order(&expected).is_ok());
    assert!(check_same_reports("t", &expected, &expected.clone()).is_ok());

    let mut perturbed = expected.clone();
    perturbed[6].series[0].points[0].1 = 2.000001;
    let err = check_same_reports("t", &expected, &perturbed).unwrap_err();
    assert!(err.contains("figure4"), "{err}");

    let mut short = expected.clone();
    short.pop();
    assert!(check_same_reports("t", &expected, &short).is_err());
    assert!(check_paper_order(&short).is_err());

    let mut swapped = expected.clone();
    swapped.swap(0, 1);
    assert!(check_paper_order(&swapped).is_err());
}

#[test]
fn output_check_rejects_a_perturbed_reproduction() {
    let reports = PaperReproduction::new(ScenarioConfig::small(61)).run_all();
    assert!(check_paper_order(&reports).is_ok());
    let mut perturbed = reports.clone();
    perturbed[1].notes.push("tampered".into());
    assert!(check_same_reports("t", &reports, &perturbed).is_err());
}

#[test]
fn output_check_rejects_a_perturbed_load_report() {
    let expected = LoadReport::new();
    let mut perturbed = expected.clone();
    perturbed.retries += 1;
    assert!(check_same_load("t", &expected, &expected.clone()).is_ok());
    assert!(check_same_load("t", &expected, &perturbed).is_err());
}

#[test]
fn refuses_pool_and_shard_overrides() {
    assert!(refuse_overrides(|_| None).is_ok());
    for name in REFUSED_ENV {
        let err = refuse_overrides(|n| (n == name).then(|| OsString::from("abc"))).unwrap_err();
        assert!(err.contains(name), "{err}");
    }
}

#[test]
fn binary_exits_nonzero_without_a_result_under_an_override() {
    for name in REFUSED_ENV {
        let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
            .args(["--workload", "experiments", "--seconds", "1"])
            .env(name, "4")
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("\"metrics\""), "{stdout}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(name));
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let specs = parse_spec(&text).unwrap();
    let catalogue: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let declared: Vec<(&str, &str)> = specs
        .iter()
        .map(|s| (s.name.as_str(), s.unit.as_str()))
        .collect();
    assert_eq!(declared, catalogue);
    let largest = specs.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
    let setup = specs.iter().find(|s| s.name == "setup_s").unwrap();
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    assert!(largest <= 0.25);

    let value: serde_json::Value = serde_json::from_str(&text).unwrap();
    let workloads = value["workloads"].as_array().unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for (w, spec) in Workload::ALL.iter().zip(workloads) {
        let why = spec["why"].as_str().unwrap();
        assert!(
            why.contains(&format!("default seed {}", w.default_seed())),
            "{why}"
        );
        assert!(
            why.contains(&format!("held-out seed {}", w.held_out_seed())),
            "{why}"
        );
    }
}
