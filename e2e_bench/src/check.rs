//! Output checks: the pooled run must equal its sequential twin, and
//! every reproduction yields the paper's twelve reports in paper order.

use rws_paper::analysis::Report;
use rws_paper::load::LoadReport;

/// The paper's tables and figures, in the order the paper presents them.
pub const PAPER_ORDER: [&str; 12] = [
    "table1", "table2", "table3", "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure7", "figure8", "figure9",
];

/// The reports are exactly the twelve experiments, in paper order.
pub fn check_paper_order(reports: &[Report]) -> Result<(), String> {
    let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
    if ids == PAPER_ORDER {
        Ok(())
    } else {
        Err(format!(
            "expected the 12 reports in paper order, got {ids:?}"
        ))
    }
}

/// `actual` equals `expected` report for report; the error names the
/// first report that differs.
pub fn check_same_reports(
    what: &str,
    expected: &[Report],
    actual: &[Report],
) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "{what}: {} reports, expected {}",
            actual.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(actual).find(|(e, a)| e != a) {
        None => Ok(()),
        Some((e, _)) => Err(format!("{what}: report {} differs", e.id)),
    }
}

/// A pooled load report equals the sequential replay's, field for field.
/// Simulated network errors and availability are outputs: they must match,
/// and are not failures.
pub fn check_same_load(
    what: &str,
    expected: &LoadReport,
    actual: &LoadReport,
) -> Result<(), String> {
    if expected == actual {
        Ok(())
    } else {
        Err(format!(
            "{what}: load report differs (wire requests {} vs {}, retries {} vs {})",
            actual.wire_requests, expected.wire_requests, actual.retries, expected.retries
        ))
    }
}

/// No supervised task was quarantined.
pub fn check_no_quarantine(what: &str, quarantined: u64) -> Result<(), String> {
    if quarantined == 0 {
        Ok(())
    } else {
        Err(format!("{what}: {quarantined} tasks quarantined"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantines_fail_the_check() {
        assert!(check_no_quarantine("x", 0).is_ok());
        assert!(check_no_quarantine("x", 1).is_err());
    }
}
