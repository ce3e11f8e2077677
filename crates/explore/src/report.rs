//! Flat-file reports of a suite sweep: CSV for spreadsheets/plots, JSON
//! for downstream tooling (including the `ftes-serve` HTTP service, which
//! returns [`suite_to_json`] bodies verbatim). JSON goes through the shared
//! escaping-aware writer in [`ftes_model::json`], so labels and names need
//! no character-set convention. Both formats render only facts of the
//! design — no wall clocks, no evaluator-kernel work counters, no memo
//! hit/miss counters — so they are byte-identical for any thread split of
//! the same suite.

use crate::suite::{CertifyVerdict, SuiteOutcome, VerifyOutcome};
use ftes_model::json::JsonWriter;
use std::fmt::Write;

/// Renders `verified` for CSV: `true` / `false` when scenarios were
/// replayed, `skipped` when verification was requested but the point ran
/// estimate-only (nothing to replay), `-` when it was not requested. The
/// two non-verdicts used to collapse into one `-`, which hid unverified
/// incumbents in reports that asked for verification.
fn verified_csv(v: VerifyOutcome) -> &'static str {
    match v {
        VerifyOutcome::Sound => "true",
        VerifyOutcome::Unsound => "false",
        VerifyOutcome::Skipped => "skipped",
        VerifyOutcome::NotRequested => "-",
    }
}

/// Renders `certified` for CSV with the same vocabulary as `verified`.
fn certified_csv(v: CertifyVerdict) -> &'static str {
    match v {
        CertifyVerdict::Certified(_) => "true",
        CertifyVerdict::Refuted(_) => "false",
        CertifyVerdict::Skipped => "skipped",
        CertifyVerdict::NotRequested => "-",
    }
}

/// Renders a suite outcome as CSV (header + one row per grid point).
pub fn suite_to_csv(outcome: &SuiteOutcome) -> String {
    let mut out = String::from(
        "processes,nodes,k,seed,fault_free,worst_case,deadline,schedulable,\
         slack_pct,pareto_size,verified,certified,exact_len,demoted\n",
    );
    for p in &outcome.points {
        let exact_len =
            p.certified.exact_len().map_or_else(|| "-".to_string(), |t| t.units().to_string());
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{:.2},{},{},{},{},{}",
            p.point.processes,
            p.point.nodes,
            p.point.k,
            p.point.seed,
            p.fault_free.units(),
            p.worst_case.units(),
            p.deadline.units(),
            p.schedulable,
            p.slack_pct,
            p.archive.len(),
            verified_csv(p.verified),
            certified_csv(p.certified),
            exact_len,
            p.demoted,
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders a suite outcome as a compact JSON document with a `points`
/// array, each point carrying its Pareto front and verification verdict.
pub fn suite_to_json(outcome: &SuiteOutcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("points");
    w.begin_array();
    for p in &outcome.points {
        w.begin_object();
        w.key("label");
        w.string(&p.point.label());
        w.key("processes");
        w.number_usize(p.point.processes);
        w.key("nodes");
        w.number_usize(p.point.nodes);
        w.key("k");
        w.number_u64(p.point.k as u64);
        w.key("seed");
        w.number_u64(p.point.seed);
        w.key("fault_free");
        w.number_i64(p.fault_free.units());
        w.key("worst_case");
        w.number_i64(p.worst_case.units());
        w.key("deadline");
        w.number_i64(p.deadline.units());
        w.key("schedulable");
        w.bool(p.schedulable);
        w.key("slack_pct");
        w.number_f64(p.slack_pct, 2);
        w.key("verified");
        match p.verified {
            VerifyOutcome::Sound => w.bool(true),
            VerifyOutcome::Unsound => w.bool(false),
            VerifyOutcome::Skipped => w.string("skipped"),
            VerifyOutcome::NotRequested => w.null(),
        }
        w.key("certified");
        match p.certified {
            CertifyVerdict::Certified(_) => w.bool(true),
            CertifyVerdict::Refuted(_) => w.bool(false),
            CertifyVerdict::Skipped => w.string("skipped"),
            CertifyVerdict::NotRequested => w.null(),
        }
        w.key("exact_len");
        match p.certified.exact_len() {
            Some(len) => w.number_i64(len.units()),
            None => w.null(),
        }
        w.key("demoted");
        w.number_u64(p.demoted as u64);
        w.key("pareto");
        w.begin_array();
        for (i, e) in p.archive.entries().iter().enumerate() {
            w.begin_object();
            w.key("worst_case");
            w.number_i64(e.objectives.worst_case.units());
            w.key("recovery_slack");
            w.number_i64(e.objectives.recovery_slack.units());
            w.key("table_cost");
            w.number_u64(e.objectives.table_cost);
            // The front admits only certified points or tags them: `true`
            // certified, `false` refuted by the exact schedule, `null`
            // not examined by the bounded walk.
            w.key("certified");
            match p.front_certified.get(i).copied().flatten() {
                Some(v) => w.bool(v),
                None => w.null(),
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_suite, ScenarioPoint, SuiteConfig, VerifyConfig};
    use crate::PortfolioConfig;
    use ftes_model::Time;

    fn outcome_with(verify: bool, certify: bool) -> SuiteOutcome {
        run_suite(&SuiteConfig {
            points: vec![ScenarioPoint { processes: 8, nodes: 2, k: 1, seed: 0 }],
            portfolio: PortfolioConfig::quick(1),
            point_parallelism: 1,
            slot: Time::new(8),
            verify: verify.then(|| VerifyConfig { samples: 8, ..VerifyConfig::default() }),
            certify,
        })
        .unwrap()
    }

    fn outcome(verify: bool) -> SuiteOutcome {
        outcome_with(verify, true)
    }

    /// Reports render design facts only: no memo hit/miss counter, whose
    /// values follow the thread split.
    fn assert_no_memo_counters(report: &str) {
        for word in ["cache", "hits", "misses", "hit_rate"] {
            assert!(!report.contains(word), "`{word}` in {report}");
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let csv = suite_to_csv(&outcome_with(false, false));
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "processes,nodes,k,seed,fault_free,worst_case,deadline,schedulable,slack_pct,\
             pareto_size,verified,certified,exact_len,demoted"
        );
        assert!(lines[1].starts_with("8,2,1,0,"));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        // Verification and certification off: both columns render as `-`.
        assert_eq!(lines[1].split(',').nth(10), Some("-"));
        assert_eq!(lines[1].split(',').nth(11), Some("-"));
        assert_eq!(lines[1].split(',').nth(12), Some("-"));
        assert_no_memo_counters(&csv);
    }

    #[test]
    fn csv_verified_and_certified_columns_carry_the_verdicts() {
        let csv = suite_to_csv(&outcome(true));
        let row = csv.trim_end().lines().nth(1).unwrap();
        let verified = row.split(',').nth(10).unwrap();
        assert!(verified == "true" || verified == "false", "{row}");
        let certified = row.split(',').nth(11).unwrap();
        assert!(certified == "true" || certified == "false", "{row}");
        // A certified/refuted point carries its exact length.
        let exact_len = row.split(',').nth(12).unwrap();
        assert!(exact_len.parse::<i64>().is_ok(), "{row}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = suite_to_json(&outcome_with(false, false));
        // Cheap structural checks (no JSON parser in the workspace).
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"label\"").count(), 1);
        assert!(json.contains("\"pareto\":["));
        assert!(json.contains("\"verified\":null"));
        assert!(json.contains("\"certified\":null"));
        assert!(json.contains("\"exact_len\":null"));
        assert!(json.contains("\"demoted\":0"));
        assert_no_memo_counters(&json);
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_verified_and_certified_fields_carry_the_verdicts() {
        let json = suite_to_json(&outcome(true));
        assert!(
            json.contains("\"verified\":true") || json.contains("\"verified\":false"),
            "{json}"
        );
        assert!(
            json.contains("\"certified\":true") || json.contains("\"certified\":false"),
            "{json}"
        );
        assert!(json.contains("\"exact_len\":"), "{json}");
        // Pareto entries are individually tagged.
        assert!(
            json.contains(",\"certified\":true}")
                || json.contains(",\"certified\":false}")
                || json.contains(",\"certified\":null}"),
            "{json}"
        );
    }

    #[test]
    fn skipped_is_distinct_from_not_requested() {
        // An oversized point with verification requested must render
        // `skipped` (there was nothing to replay), never `-` (not asked).
        // 60 processes at k=5 comfortably exceeds the FT-CPG node budget.
        let outcome = run_suite(&SuiteConfig {
            points: vec![ScenarioPoint { processes: 60, nodes: 4, k: 5, seed: 0 }],
            portfolio: PortfolioConfig::quick(1),
            point_parallelism: 1,
            slot: Time::new(8),
            verify: Some(VerifyConfig { samples: 4, ..VerifyConfig::default() }),
            certify: true,
        })
        .unwrap();
        let p = &outcome.points[0];
        assert_eq!(p.verified, crate::VerifyOutcome::Skipped, "{:?}", p.verified);
        assert_eq!(p.certified, CertifyVerdict::Skipped);
        let csv = suite_to_csv(&outcome);
        let row = csv.trim_end().lines().nth(1).unwrap();
        assert_eq!(row.split(',').nth(10), Some("skipped"), "{row}");
        assert_eq!(row.split(',').nth(11), Some("skipped"), "{row}");
        let json = suite_to_json(&outcome);
        assert!(json.contains("\"verified\":\"skipped\""), "{json}");
        assert!(json.contains("\"certified\":\"skipped\""), "{json}");
    }
}
