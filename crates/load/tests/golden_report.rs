//! Golden regression: one small storm-with-retries run, pinned field for
//! field. The equivalence suites prove the execution paths agree with each
//! other; this pins what they agree *on*, so a rewrite of the client's
//! internals cannot shift any tally — a single extra rng draw, a reordered
//! lookup or a changed connection key shows up here as a named field.

use rws_corpus::{CorpusConfig, CorpusGenerator};
use rws_load::{FaultPlan, FaultScale, LoadEngine, LoadReport, LoadScale, LoadTarget, RetryPolicy};
use rws_stats::LatencyHistogram;

fn storm_report() -> (LoadEngine, LoadReport) {
    let corpus = CorpusGenerator::new(CorpusConfig::small(7)).generate();
    let target = LoadTarget::from_corpus(&corpus)
        .with_faults(FaultPlan::new(0x5EED, FaultScale::storm()))
        .with_retry(RetryPolicy::standard());
    let engine = LoadEngine::new(target, LoadScale::smoke());
    let report = engine.run(42);
    (engine, report)
}

/// The non-empty `(bucket, count)` pairs of a histogram, plus its count,
/// min, max and sum.
fn sparse(histogram: &LatencyHistogram) -> (Vec<(usize, u64)>, [u64; 4]) {
    let value = serde_json::to_value(histogram).unwrap();
    let buckets = value["buckets"]
        .as_array()
        .unwrap()
        .iter()
        .map(|count| count.as_u64().unwrap())
        .enumerate()
        .filter(|&(_, count)| count > 0)
        .collect();
    let totals = [
        histogram.count(),
        histogram.min(),
        histogram.max(),
        histogram.sum(),
    ];
    (buckets, totals)
}

#[test]
fn small_storm_report_is_pinned_field_for_field() {
    let (engine, r) = storm_report();

    assert_eq!(r.clients, 240);
    assert_eq!(r.sessions, 240);
    assert_eq!(r.fetch_calls, 2474);
    assert_eq!(r.wire_requests, 3661);
    assert_eq!(r.gets, 2248);
    assert_eq!(r.heads, 226);
    assert_eq!(r.well_known_probes, 584);
    assert_eq!(r.redirects_followed, 320);
    assert_eq!(r.status_2xx, 1835);
    assert_eq!(r.status_4xx, 420);
    assert_eq!(r.status_5xx, 151);
    let errors: Vec<(&str, u64)> = r.errors.iter().collect();
    assert_eq!(
        errors,
        vec![
            ("connection-refused", 17),
            ("host-not-found", 42),
            ("timeout", 9)
        ]
    );
    assert_eq!(r.retries, 806);
    assert_eq!(r.retry_successes, 243);
    assert_eq!(r.retry_failures, 26);
    assert_eq!(r.backoff_ms_total, 70333);
    assert_eq!(r.connections_opened, 1849);
    assert_eq!(r.connections_reused, 625);
    assert_eq!(r.decisions, 1720);
    let vendors: Vec<(&str, [u64; 4])> = r
        .vendors
        .iter()
        .map(|t| {
            (
                t.vendor.as_str(),
                [t.auto_grant, t.prompt, t.deny, t.shared],
            )
        })
        .collect();
    assert_eq!(
        vendors,
        vec![
            ("chrome-rws", [13, 1707, 0, 561]),
            ("chrome-legacy", [1720, 0, 0, 1720]),
            ("firefox", [780, 940, 0, 1076]),
            ("safari", [0, 1720, 0, 552]),
            ("brave", [0, 0, 1720, 0]),
        ]
    );
    assert_eq!(r.total_latency_ms, 135330);
    assert_eq!(r.sim_start_ms, 101);
    assert_eq!(r.sim_end_ms, 26567);
    assert_eq!(
        sparse(&r.latency),
        (
            vec![
                (40, 559),
                (42, 2),
                (44, 63),
                (52, 565),
                (54, 101),
                (56, 877),
                (58, 71),
                (74, 1),
                (78, 3),
                (79, 8),
                (80, 82),
                (81, 4),
                (107, 33),
                (108, 25),
                (117, 7),
                (118, 5),
            ],
            [2406, 40, 216, 135330]
        )
    );
    assert_eq!(
        sparse(&r.time_to_first_success),
        (
            vec![
                (122, 1),
                (139, 1),
                (140, 2),
                (141, 4),
                (142, 9),
                (143, 12),
                (144, 21),
                (145, 14),
                (146, 13),
                (147, 13),
                (148, 14),
                (149, 21),
                (150, 24),
                (151, 22),
                (152, 10),
                (153, 13),
                (154, 10),
                (155, 15),
                (156, 6),
                (157, 3),
                (158, 2),
                (159, 3),
                (160, 2),
                (161, 3),
                (162, 2),
                (163, 2),
                (169, 1),
            ],
            [243, 235, 659, 104681]
        )
    );
    assert_eq!(r.supervision.tasks_run, 2);
    assert_eq!(r.supervision.quarantined, 0);
    assert_eq!(r.supervision.cap_trips, 0);
    assert!(r.supervision.entries.is_empty());

    // The oracle path lands on the same pinned report.
    assert_eq!(engine.replay_sequential(42), r);
}
