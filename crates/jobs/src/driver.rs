//! The "one executor, three drivers" layer: every job kind — a single
//! synthesis, an explore suite, a corpus batch — executes through one
//! function here, with one streaming-row contract and one cancellation
//! contract, no matter whether the caller is the serve daemon, `ftes
//! corpus run` or the explore CLI.
//!
//! Progress rows fire **in job order** (row `i` only after rows `0..i`):
//! the suite and the corpus both fan out through
//! `ftes::model::par::ordered_parallel`, and both report a run as
//! cancelled exactly when its delivered prefix is shorter than its input.
//! Resumed jobs pass the journaled row count as the watermark and re-emit
//! nothing below it. Rendered results are deterministic where the
//! underlying report is (`corpus_result_json` carries no wall clocks, so
//! a resumed corpus job's result is byte-identical to an uninterrupted
//! run's).

use crate::request::{parse_explore_request, JobRequest};
use ftes::corpus::{
    aggregate_to_json, parse_corpus_csv, run_corpus, CorpusJob, CorpusRow, CorpusRunConfig,
    CORPUS_CSV_HEADER,
};
use ftes::explore::{
    run_suite_streaming, suite_to_json, CertifyVerdict, PointOutcome, SuiteConfig, SuiteOutcome,
};
use ftes::json::JsonWriter;
use ftes::model::Time;
use ftes::sched::export::tables_to_csv;
use ftes::spec::{parse_spec, SystemSpec};
use ftes::{synthesize_system, FlowConfig, SystemConfiguration};
use std::sync::atomic::{AtomicBool, Ordering};

/// Why a job stopped short of a completed result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobInterrupt {
    /// The cancel flag was observed at a row boundary.
    Cancelled,
    /// The job failed; the message is the job's terminal error.
    Failed(String),
}

/// Runs one validated request to its rendered result, streaming progress
/// rows through `emit(index, row)` in index order. `prior_rows` is the
/// resume watermark: rows already journaled by an interrupted run — the
/// job recomputes deterministically but re-emits nothing below the
/// watermark, and a corpus job skips recomputing journaled specs
/// entirely.
///
/// # Errors
///
/// [`JobInterrupt::Cancelled`] when the cancel flag was observed at a row
/// boundary; [`JobInterrupt::Failed`] with the terminal error otherwise.
pub fn execute_request<F>(
    request: &JobRequest,
    prior_rows: &[String],
    cancel: &AtomicBool,
    mut emit: F,
) -> Result<String, JobInterrupt>
where
    F: FnMut(usize, &str) + Send,
{
    match request {
        JobRequest::Synthesize { spec } => {
            // A single synthesis has no row boundaries; the one
            // cancellation point is before the work starts.
            if cancel.load(Ordering::Acquire) {
                return Err(JobInterrupt::Cancelled);
            }
            let spec = parse_spec(spec).map_err(|e| JobInterrupt::Failed(format!("spec: {e}")))?;
            let flow = FlowConfig { strategy: spec.strategy, ..FlowConfig::default() };
            let psi = synthesize_system(
                &spec.app,
                &spec.platform,
                spec.fault_model,
                &spec.transparency,
                flow,
            )
            .map_err(|e| JobInterrupt::Failed(format!("synthesis: {e}")))?;
            Ok(render_synthesis(&spec, &psi))
        }
        JobRequest::ExploreSuite { params } => {
            let config = parse_explore_request(params).map_err(JobInterrupt::Failed)?;
            let outcome = drive_suite(&config, prior_rows.len(), cancel, &mut emit)?;
            Ok(suite_to_json(&outcome))
        }
        JobRequest::CorpusRun { jobs, workers } => {
            // Journaled rows parse back into completed-row state; their
            // specs are never recomputed (the corpus CSV *is* the
            // progress state, exactly as in `ftes corpus run`).
            let mut csv = String::from(CORPUS_CSV_HEADER);
            for row in prior_rows {
                csv.push('\n');
                csv.push_str(row);
            }
            csv.push('\n');
            let completed = parse_corpus_csv(&csv)
                .map_err(|e| JobInterrupt::Failed(format!("journaled rows: {e}")))?;
            let outcome =
                drive_corpus(jobs, *workers, &completed, cancel, |i, row| emit(i, &row.to_csv()))?;
            Ok(corpus_result_json(&outcome.rows))
        }
    }
}

/// Outcome of a [`drive_corpus`] run: the full in-order row set (resumed
/// prefix included) plus `(spec, message)` pairs for this run's tagged
/// error rows.
#[derive(Debug, Clone)]
pub struct CorpusDriveOutcome {
    /// All rows, in job order — `completed` first, then this run's.
    pub rows: Vec<CorpusRow>,
    /// Errors behind this run's [`ftes::corpus::CorpusVerdict::Error`]
    /// rows.
    pub errors: Vec<(String, String)>,
}

/// Runs the corpus jobs not already covered by `completed` (a prefix of
/// earlier results, matched by spec name) with `workers` bounded threads,
/// the calling thread included, delivering each *new* row through
/// `on_row` with its **global** job index. Cancellation is observed at row
/// boundaries; rows delivered before the flag was observed stay
/// delivered.
///
/// # Errors
///
/// [`JobInterrupt::Failed`] when `completed` is not a prefix of the
/// corpus (resuming foreign state would silently corrupt the report);
/// [`JobInterrupt::Cancelled`] when the cancel flag stopped the run short
/// of its last row (a flag set after the last row was delivered cancels
/// nothing).
pub fn drive_corpus<F>(
    all: &[CorpusJob],
    workers: usize,
    completed: &[CorpusRow],
    cancel: &AtomicBool,
    mut on_row: F,
) -> Result<CorpusDriveOutcome, JobInterrupt>
where
    F: FnMut(usize, &CorpusRow) + Send,
{
    if completed.len() > all.len() {
        return Err(JobInterrupt::Failed(format!(
            "{} completed rows exceed the corpus of {} jobs",
            completed.len(),
            all.len()
        )));
    }
    for (row, job) in completed.iter().zip(all) {
        if row.spec != job.name {
            return Err(JobInterrupt::Failed(format!(
                "completed row `{}` does not match corpus job `{}`",
                row.spec, job.name
            )));
        }
    }
    let skip = completed.len();
    let config = CorpusRunConfig { workers, ..CorpusRunConfig::default() };
    let (outcome, cancelled) =
        run_corpus(&all[skip..], &config, Some(cancel), |i, row| on_row(skip + i, row));
    if cancelled {
        return Err(JobInterrupt::Cancelled);
    }
    let mut rows = completed.to_vec();
    rows.extend(outcome.rows);
    Ok(CorpusDriveOutcome { rows, errors: outcome.errors })
}

/// Renders a completed corpus job's result: the full CSV document plus
/// the per-family aggregate. Deterministic — no wall-clock fields — so a
/// resumed run's result is byte-identical to an uninterrupted run's.
pub fn corpus_result_json(rows: &[CorpusRow]) -> String {
    let mut csv = String::from(CORPUS_CSV_HEADER);
    for row in rows {
        csv.push('\n');
        csv.push_str(&row.to_csv());
    }
    csv.push('\n');
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("specs");
    w.number_usize(rows.len());
    w.key("csv");
    w.string(&csv);
    w.key("aggregate");
    w.raw(aggregate_to_json(rows).trim_end());
    w.end_object();
    w.finish()
}

/// Runs a suite with streaming per-point progress rows: point `i`'s row
/// fires (in order) as soon as points `0..=i` are done, except rows below
/// `watermark`, which an interrupted run already journaled.
///
/// # Errors
///
/// [`JobInterrupt::Cancelled`] when the cancel flag stopped the sweep
/// short of its last point (as for [`drive_corpus`], a flag set after the
/// last row cancels nothing); [`JobInterrupt::Failed`] with the first
/// point error in grid order.
pub fn drive_suite<F>(
    config: &SuiteConfig,
    watermark: usize,
    cancel: &AtomicBool,
    mut on_row: F,
) -> Result<SuiteOutcome, JobInterrupt>
where
    F: FnMut(usize, &str) + Send,
{
    let outcome = run_suite_streaming(config, Some(cancel), |i, p| {
        if i >= watermark {
            on_row(i, &point_row(p));
        }
    })
    .map_err(|e| JobInterrupt::Failed(format!("explore: {e}")))?;
    outcome.ok_or(JobInterrupt::Cancelled)
}

/// One explore point's progress row:
/// `label,fault_free,worst_case,deadline,schedulable,certified,exact_len,demoted`.
/// Deterministic by construction (no wall-clock fields), so a resumed
/// suite job's row stream is byte-identical to an uninterrupted one's.
pub fn point_row(p: &PointOutcome) -> String {
    let certified = match p.certified {
        CertifyVerdict::Certified(_) => "true",
        CertifyVerdict::Refuted(_) => "false",
        CertifyVerdict::Skipped => "skipped",
        CertifyVerdict::NotRequested => "-",
    };
    let exact_len =
        p.certified.exact_len().map_or_else(|| "-".to_string(), |t| t.units().to_string());
    format!(
        "{},{},{},{},{},{},{},{}",
        p.point.label(),
        p.fault_free.units(),
        p.worst_case.units(),
        p.deadline.units(),
        p.schedulable,
        certified,
        exact_len,
        p.demoted
    )
}

/// Renders the synthesis result document (the `/synthesize` reply body —
/// moved here from `ftes-serve` so the daemon's synchronous path and the
/// job executor render one format).
pub fn render_synthesis(spec: &SystemSpec, psi: &SystemConfiguration) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("strategy");
    w.string(&spec.strategy.to_string());
    w.key("k");
    w.number_u64(spec.fault_model.k() as u64);
    w.key("processes");
    w.number_usize(spec.app.process_count());
    w.key("nodes");
    w.number_usize(spec.platform.architecture().node_count());
    w.key("schedulable");
    w.bool(psi.schedulable);
    w.key("deadline");
    w.number_i64(spec.app.deadline().units());
    w.key("worst_case");
    w.number_i64(psi.worst_case_length().units());
    w.key("fault_free");
    w.number_i64(psi.estimate.fault_free_length.units());
    w.key("estimated_worst_case");
    w.number_i64(psi.estimate.worst_case_length.units());
    w.key("recovery_slack");
    w.number_i64(psi.estimate.recovery_slack().units());
    let fault_free = psi.estimate.fault_free_length;
    w.key("slack_pct");
    if fault_free > Time::ZERO {
        w.number_f64(100.0 * psi.estimate.recovery_slack().as_f64() / fault_free.as_f64(), 2);
    } else {
        w.number_f64(0.0, 2);
    }
    w.key("policies");
    w.begin_array();
    for (pid, policy) in psi.policies.iter() {
        w.begin_object();
        w.key("process");
        w.string(spec.app.process(pid).name());
        w.key("policy");
        w.string(&format!("{:?}", policy.kind()));
        w.key("node");
        w.number_usize(psi.mapping.node_of(pid).index());
        w.key("replicas");
        w.number_u64(policy.replica_count() as u64);
        w.end_object();
    }
    w.end_array();
    w.key("exact");
    w.bool(psi.exact.is_some());
    // The certify-and-repair contract: `certified:true` incumbents are
    // exact-schedulable; everything else ships explicitly tagged with the
    // exact length when one was computed.
    w.key("certified");
    w.bool(psi.certification.is_certified());
    w.key("exact_len");
    match psi.certification.exact_len() {
        Some(len) => w.number_i64(len.units()),
        None => w.null(),
    }
    w.key("repair_rounds");
    w.number_u64(psi.repair_rounds as u64);
    w.key("calibration_milli");
    w.number_u64(psi.calibration_milli);
    match psi.exact.as_ref() {
        Some(exact) => {
            w.key("table_entries");
            w.number_usize(exact.tables.entry_count());
            w.key("tables_csv");
            w.string(&tables_to_csv(&exact.tables, &exact.cpg));
        }
        None => {
            w.key("table_entries");
            w.number_usize(0);
            w.key("tables_csv");
            w.null();
        }
    }
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(name: &str, deadline: i64) -> CorpusJob {
        CorpusJob {
            name: name.to_string(),
            family: "test".to_string(),
            text: format!(
                "nodes 2\nslot 8\ndeadline {deadline}\nk 1\nstrategy mxr\n\
                 process A wcet 10 12 alpha 1 mu 1 chi 1\n\
                 process B wcet 8 8 alpha 1 mu 1 chi 1\n\
                 message m0 A B 1\n"
            ),
        }
    }

    #[test]
    fn resumed_corpus_drive_matches_uninterrupted_run() {
        let jobs: Vec<CorpusJob> =
            (0..4).map(|i| tiny_job(&format!("t{i}.ftes"), 200 + i)).collect();
        let cancel = AtomicBool::new(false);
        let full = drive_corpus(&jobs, 1, &[], &cancel, |_, _| {}).unwrap();
        // Resume from the first two rows: only the remainder recomputes,
        // delivered with global indices, and the merged rows are equal.
        let mut seen = Vec::new();
        let resumed = drive_corpus(&jobs, 2, &full.rows[..2], &cancel, |i, row| {
            seen.push((i, row.spec.clone()));
        })
        .unwrap();
        assert_eq!(seen, vec![(2, "t2.ftes".to_string()), (3, "t3.ftes".to_string())]);
        assert_eq!(resumed.rows, full.rows);
        assert_eq!(corpus_result_json(&resumed.rows), corpus_result_json(&full.rows));
    }

    #[test]
    fn foreign_completed_state_is_refused() {
        let jobs = vec![tiny_job("a.ftes", 300), tiny_job("b.ftes", 300)];
        let cancel = AtomicBool::new(false);
        let full = drive_corpus(&jobs, 1, &[], &cancel, |_, _| {}).unwrap();
        let mut wrong = full.rows.clone();
        wrong[0].spec = "other.ftes".to_string();
        let err = drive_corpus(&jobs, 1, &wrong[..1], &cancel, |_, _| {}).unwrap_err();
        assert!(matches!(err, JobInterrupt::Failed(ref m) if m.contains("does not match")));
        let err = drive_corpus(&jobs[..1], 1, &full.rows, &cancel, |_, _| {}).unwrap_err();
        assert!(matches!(err, JobInterrupt::Failed(ref m) if m.contains("exceed")));
    }

    #[test]
    fn pre_set_cancel_flag_cancels_at_the_first_boundary() {
        let jobs = vec![tiny_job("a.ftes", 300)];
        let cancel = AtomicBool::new(true);
        let err = drive_corpus(&jobs, 1, &[], &cancel, |_, _| {}).unwrap_err();
        assert_eq!(err, JobInterrupt::Cancelled);
        let req = JobRequest::Synthesize { spec: jobs[0].text.clone() };
        assert_eq!(execute_request(&req, &[], &cancel, |_, _| {}), Err(JobInterrupt::Cancelled));
    }

    #[test]
    fn a_cancel_from_the_last_row_cancels_nothing() {
        // The flag lands after every row was delivered: both drivers
        // complete, because a run is cancelled exactly when its delivered
        // prefix is short.
        let jobs = vec![tiny_job("a.ftes", 300), tiny_job("b.ftes", 301)];
        let cancel = AtomicBool::new(false);
        let outcome = drive_corpus(&jobs, 1, &[], &cancel, |i, _| {
            if i + 1 == jobs.len() {
                cancel.store(true, Ordering::Release);
            }
        })
        .expect("a corpus whose last row was delivered completes");
        assert_eq!(outcome.rows.len(), jobs.len());

        let config = parse_explore_request("processes=8 nodes=2 k=1 rounds=2 iters=4").unwrap();
        let cancel = AtomicBool::new(false);
        let last = config.points.len() - 1;
        let outcome = drive_suite(&config, 0, &cancel, |i, _| {
            if i == last {
                cancel.store(true, Ordering::Release);
            }
        })
        .expect("a suite whose last row was delivered completes");
        assert_eq!(outcome.points.len(), config.points.len());
    }

    #[test]
    fn execute_request_runs_every_kind_and_streams_rows() {
        let cancel = AtomicBool::new(false);
        let spec_text = tiny_job("x", 400).text;
        let result =
            execute_request(&JobRequest::Synthesize { spec: spec_text }, &[], &cancel, |_, _| {})
                .unwrap();
        assert!(result.starts_with("{\"strategy\":\"MXR\""), "{result}");
        assert!(result.contains("\"certified\":"), "{result}");

        let jobs = vec![tiny_job("a.ftes", 300), tiny_job("b.ftes", 301)];
        let mut rows = Vec::new();
        let result = execute_request(
            &JobRequest::CorpusRun { jobs: jobs.clone(), workers: 1 },
            &[],
            &cancel,
            |i, row| rows.push((i, row.to_string())),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0);
        assert!(rows[0].1.starts_with("test,a.ftes,"), "{}", rows[0].1);
        assert!(result.contains("\"specs\":2"), "{result}");
        assert!(result.contains("\"aggregate\":{"), "{result}");

        // Resume: the journaled first row suppresses its recompute and
        // the final result is byte-identical.
        let prior = vec![rows[0].1.clone()];
        let mut resumed_rows = Vec::new();
        let resumed = execute_request(
            &JobRequest::CorpusRun { jobs, workers: 1 },
            &prior,
            &cancel,
            |i, row| resumed_rows.push((i, row.to_string())),
        )
        .unwrap();
        assert_eq!(resumed_rows.len(), 1);
        assert_eq!(resumed_rows[0].0, 1);
        assert_eq!(resumed, result);

        let mut point_rows = Vec::new();
        let result = execute_request(
            &JobRequest::ExploreSuite { params: "processes=8 nodes=2 k=1 rounds=2 iters=4".into() },
            &[],
            &cancel,
            |i, row| point_rows.push((i, row.to_string())),
        )
        .unwrap();
        assert_eq!(point_rows.len(), 1);
        assert!(point_rows[0].1.starts_with("p8_n2_k1_s0,"), "{}", point_rows[0].1);
        assert!(result.contains("\"points\":["), "{result}");
    }
}
