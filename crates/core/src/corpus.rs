//! Corpus batch driver: stream every spec of a scenario corpus through
//! the explore+certify synthesis pipeline with bounded parallel workers,
//! in-order incremental reporting and deterministic aggregation.
//!
//! The corpus itself comes from [`ftes_gen::corpus`] (named families,
//! deterministically seeded) or from any directory of `.ftes` files; this
//! module owns what happens *after* generation:
//!
//! * [`run_corpus`] — bounded, cancellable workers over the job list.
//!   Each job is parsed and synthesized through the full
//!   certify-and-repair flow ([`synthesize_system`]); completed rows are
//!   delivered to the caller **in job order** as their prefix completes,
//!   so a CSV sink can append incrementally and a killed run loses at
//!   most the in-flight suffix.
//! * [`CorpusRow`] — one result row. The CSV encoding deliberately
//!   excludes wall-clock fields: equal corpora produce **byte-identical
//!   CSV for any worker count** (the corpus analogue of the explore
//!   determinism contract, pinned by `tests/corpus.rs`).
//! * [`parse_corpus_csv`] — reads rows back, which is how `ftes corpus
//!   run` resumes an interrupted run (the CSV *is* the progress state)
//!   and how aggregation covers rows computed by earlier invocations.
//! * [`aggregate_to_json`] — per-family and total aggregates (certified /
//!   refuted / estimate-only counts, schedulability percentage, average
//!   certified exact length, repair rounds) built on
//!   [`CertificationCounters`].

use crate::spec::parse_spec;
use crate::{synthesize_system, Certification, FlowConfig};
use ftes_model::json::JsonWriter;
use ftes_model::par::ordered_parallel;
use ftes_sched::CertificationCounters;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicBool;

/// One corpus job: a named `.ftes` document tagged with its family.
///
/// `name` and `family` land verbatim in CSV rows, so they must be
/// CSV-safe: no commas, no line breaks ([`CorpusJob::csv_safe`]). The
/// directory loader behind `ftes corpus run` rejects offending file
/// names up front; direct library callers are checked again in
/// [`run_corpus`], which turns an unsafe label into a tagged error row
/// rather than emitting a row the parser can never read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusJob {
    /// Spec name (file name for directory-backed corpora).
    pub name: String,
    /// Family label carried into the report (`unknown` when the document
    /// has no corpus header and the caller knows nothing better).
    pub family: String,
    /// The `.ftes` document text.
    pub text: String,
}

impl CorpusJob {
    /// Extracts the family name from a generated document's identity
    /// header (`# corpus: family=<name> …`), if present. A token that
    /// would be unsafe to embed in a CSV row is treated as "no header".
    pub fn family_from_header(text: &str) -> Option<&str> {
        let first = text.lines().next()?;
        let rest = first.strip_prefix("# corpus: family=")?;
        let end = rest.find(' ').unwrap_or(rest.len());
        let family = &rest[..end];
        CorpusJob::csv_safe(family).then_some(family)
    }

    /// Whether a label can be embedded in a corpus CSV row verbatim
    /// (the format is plain comma-separated, no quoting).
    pub fn csv_safe(label: &str) -> bool {
        !label.contains(',') && !label.contains('\n') && !label.contains('\r')
    }
}

/// Tunables of a corpus run.
#[derive(Debug, Clone, Copy)]
pub struct CorpusRunConfig {
    /// Bounded worker count, the calling thread included (clamped to the
    /// job count; 0 behaves as 1).
    pub workers: usize,
    /// Flow configuration applied to every job. The spec's own `strategy`
    /// directive always wins over `flow.strategy`.
    pub flow: FlowConfig,
}

impl Default for CorpusRunConfig {
    fn default() -> Self {
        CorpusRunConfig { workers: 1, flow: FlowConfig::default() }
    }
}

/// Certification verdict vocabulary of a corpus row — the
/// certified-or-tagged contract flattened for flat-file reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusVerdict {
    /// Exact-certified schedulable.
    Certified,
    /// Exact schedule misses a deadline (ships explicitly refuted).
    Refuted,
    /// FT-CPG over the size budget: estimate-only regime, no exact
    /// verdict exists.
    Skipped,
    /// The spec failed to parse or the flow errored; the row is tagged,
    /// never silently dropped (details in [`CorpusOutcome::errors`]).
    Error,
}

impl CorpusVerdict {
    /// Stable CSV value (`true` / `false` / `skipped` / `error` — the
    /// same vocabulary as the explore reports).
    pub fn as_csv(self) -> &'static str {
        match self {
            CorpusVerdict::Certified => "true",
            CorpusVerdict::Refuted => "false",
            CorpusVerdict::Skipped => "skipped",
            CorpusVerdict::Error => "error",
        }
    }

    fn from_csv(s: &str) -> Option<CorpusVerdict> {
        Some(match s {
            "true" => CorpusVerdict::Certified,
            "false" => CorpusVerdict::Refuted,
            "skipped" => CorpusVerdict::Skipped,
            "error" => CorpusVerdict::Error,
            _ => return None,
        })
    }
}

impl std::fmt::Display for CorpusVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_csv())
    }
}

/// One spec's result row.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusRow {
    /// Family label.
    pub family: String,
    /// Spec name.
    pub spec: String,
    /// Process count.
    pub processes: usize,
    /// Platform node count.
    pub nodes: usize,
    /// Fault budget.
    pub k: u32,
    /// Synthesis strategy (lowercase).
    pub strategy: String,
    /// Global deadline.
    pub deadline: i64,
    /// Estimated worst-case schedule length of the shipped incumbent.
    pub estimate_worst_case: i64,
    /// Exact conditional schedule length, when one was computed.
    pub exact_len: Option<i64>,
    /// The certified-or-tagged verdict.
    pub certified: CorpusVerdict,
    /// Calibrated repair searches the certify-and-repair loop ran.
    pub repair_rounds: u32,
    /// Per-instance estimator calibration factor (milli-units).
    pub calibration_milli: u64,
    /// Whether the shipped incumbent meets its deadline (exact verdict
    /// when one exists, estimate otherwise).
    pub schedulable: bool,
}

/// Header line of the corpus CSV. No wall-clock columns by design: the
/// report must be byte-identical for any worker count.
pub const CORPUS_CSV_HEADER: &str = "family,spec,processes,nodes,k,strategy,deadline,\
estimate_worst_case,exact_len,certified,repair_rounds,calibration_milli,schedulable";

impl CorpusRow {
    /// Renders the row as one CSV line (no trailing newline).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.family,
            self.spec,
            self.processes,
            self.nodes,
            self.k,
            self.strategy,
            self.deadline,
            self.estimate_worst_case,
            self.exact_len.map_or_else(|| "-".to_string(), |v| v.to_string()),
            self.certified.as_csv(),
            self.repair_rounds,
            self.calibration_milli,
            self.schedulable,
        )
    }

    fn from_csv(line: &str) -> Result<CorpusRow, String> {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 13 {
            return Err(format!("expected 13 CSV fields, got {}: `{line}`", fields.len()));
        }
        let num = |i: usize| -> Result<i64, String> {
            fields[i].parse().map_err(|_| format!("bad number `{}` in `{line}`", fields[i]))
        };
        Ok(CorpusRow {
            family: fields[0].to_string(),
            spec: fields[1].to_string(),
            processes: num(2)? as usize,
            nodes: num(3)? as usize,
            k: num(4)? as u32,
            strategy: fields[5].to_string(),
            deadline: num(6)?,
            estimate_worst_case: num(7)?,
            exact_len: if fields[8] == "-" { None } else { Some(num(8)?) },
            certified: CorpusVerdict::from_csv(fields[9])
                .ok_or_else(|| format!("bad verdict `{}` in `{line}`", fields[9]))?,
            repair_rounds: num(10)? as u32,
            calibration_milli: num(11)? as u64,
            schedulable: match fields[12] {
                "true" => true,
                "false" => false,
                other => return Err(format!("bad bool `{other}` in `{line}`")),
            },
        })
    }

    /// The row's certification outcome in the
    /// [`CertificationCounters::record`] vocabulary; `None` for
    /// [`CorpusVerdict::Error`] rows, which carry no outcome.
    fn certification_outcome(&self) -> Option<Option<bool>> {
        match self.certified {
            CorpusVerdict::Certified => Some(Some(true)),
            CorpusVerdict::Refuted => Some(Some(false)),
            CorpusVerdict::Skipped => Some(None),
            CorpusVerdict::Error => None,
        }
    }
}

/// Outcome of one [`run_corpus`] invocation (the rows of *this* run; a
/// resumed run's earlier rows live in the CSV the caller re-reads).
#[derive(Debug, Clone)]
pub struct CorpusOutcome {
    /// Result rows, in job order.
    pub rows: Vec<CorpusRow>,
    /// Corpus-level certification counters over this run's rows
    /// ([`CorpusVerdict::Error`] rows carry no certification outcome and
    /// are excluded; they surface in [`CorpusOutcome::errors`]).
    pub counters: CertificationCounters,
    /// `(spec name, message)` for rows tagged [`CorpusVerdict::Error`].
    pub errors: Vec<(String, String)>,
}

/// Parses a corpus CSV document (header + rows) back into rows.
///
/// # Errors
///
/// Returns a description when the header or any row does not parse — the
/// resumable `ftes corpus run` driver treats that as "not our file" and
/// refuses to resume onto it.
pub fn parse_corpus_csv(text: &str) -> Result<Vec<CorpusRow>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(header) if header == CORPUS_CSV_HEADER => {}
        Some(other) => return Err(format!("unexpected CSV header `{other}`")),
        None => return Err("empty CSV".to_string()),
    }
    lines.map(CorpusRow::from_csv).collect()
}

/// Crash-tolerant variant of [`parse_corpus_csv`] for resuming: returns
/// the longest parseable *prefix* of rows, discarding a torn tail — a
/// final line with no terminating newline (the writer died between the
/// row bytes and the `\n`, or mid-row) or any line that no longer
/// parses. The boolean reports whether anything was discarded, so the
/// caller can tell the operator the run lost (only) its in-flight
/// suffix.
///
/// # Errors
///
/// Still errors when the *header* is wrong — a foreign file is never
/// silently truncated into a corpus report.
pub fn recover_corpus_csv(text: &str) -> Result<(Vec<CorpusRow>, bool), String> {
    let mut lines = text.split('\n');
    match lines.next() {
        Some(header) if header == CORPUS_CSV_HEADER => {}
        Some(other) => return Err(format!("unexpected CSV header `{other}`")),
        None => return Err("empty CSV".to_string()),
    }
    // With a well-formed file, `split('\n')` yields one trailing empty
    // string; a torn tail shows up as a non-empty final chunk (complete
    // row or not, its newline never made it to disk — trusting it would
    // make the next append merge two rows into one line).
    let chunks: Vec<&str> = lines.collect();
    let (body, torn_tail) = match chunks.split_last() {
        Some((last, body)) => (body, !last.is_empty()),
        None => (&chunks[..], false),
    };
    let mut rows = Vec::with_capacity(body.len());
    let mut discarded = torn_tail;
    for line in body {
        match CorpusRow::from_csv(line) {
            Ok(row) => rows.push(row),
            Err(_) => {
                discarded = true;
                break;
            }
        }
    }
    Ok((rows, discarded))
}

/// Runs every job through the certify-and-repair synthesis flow with
/// `config.workers` bounded parallel workers.
///
/// `on_row(index, row)` fires **in job order** — row `i` is delivered
/// only after rows `0..i` — as soon as that prefix is complete, so
/// callers can stream rows to an append-only CSV and stay resumable.
/// Parse and flow failures become [`CorpusVerdict::Error`] rows rather
/// than panics or dropped jobs (the certified-or-tagged contract extends
/// to infrastructure failures).
///
/// When `cancel` is observed set, workers stop claiming jobs at the next
/// row boundary (jobs already in flight finish but are not delivered past
/// the cancelled prefix). The returned outcome covers exactly the rows
/// `on_row` saw — a contiguous prefix of the job list — and the boolean
/// reports whether the run was cut short, which is exactly when that
/// prefix is shorter than the job list. A cancelled run is resumable:
/// re-running the undelivered suffix yields the rows an uninterrupted run
/// would have produced, byte-identically.
pub fn run_corpus<F>(
    jobs: &[CorpusJob],
    config: &CorpusRunConfig,
    cancel: Option<&AtomicBool>,
    mut on_row: F,
) -> (CorpusOutcome, bool)
where
    F: FnMut(usize, &CorpusRow) + Send,
{
    let mut outcome = CorpusOutcome {
        rows: Vec::with_capacity(jobs.len()),
        counters: CertificationCounters::default(),
        errors: Vec::new(),
    };
    let delivered = ordered_parallel(
        jobs.len(),
        config.workers,
        cancel,
        |i| run_job(&jobs[i], config),
        |i, (row, error)| {
            on_row(i, &row);
            match row.certification_outcome() {
                Some(verdict) => outcome.counters.record(verdict, row.repair_rounds as u64),
                None => outcome.errors.push((
                    row.spec.clone(),
                    error.unwrap_or_else(|| "unknown failure".to_string()),
                )),
            }
            outcome.rows.push(row);
            ControlFlow::Continue(())
        },
    );
    (outcome, delivered < jobs.len())
}

/// Replaces CSV-breaking characters so even a mislabeled job's error row
/// survives a round-trip through the report.
fn csv_sanitized(label: &str) -> String {
    label.replace([',', '\n', '\r'], "_")
}

/// Parses and synthesizes one job; failures come back as tagged error
/// rows with the message alongside.
fn run_job(job: &CorpusJob, config: &CorpusRunConfig) -> (CorpusRow, Option<String>) {
    let error_row = |message: String| {
        (
            CorpusRow {
                family: csv_sanitized(&job.family),
                spec: csv_sanitized(&job.name),
                processes: 0,
                nodes: 0,
                k: 0,
                strategy: "-".to_string(),
                deadline: 0,
                estimate_worst_case: 0,
                exact_len: None,
                certified: CorpusVerdict::Error,
                repair_rounds: 0,
                calibration_milli: 0,
                schedulable: false,
            },
            Some(message),
        )
    };
    // A CSV-unsafe label would produce a row the parser can never read
    // back, breaking resume and final aggregation after the whole run
    // already paid for synthesis — refuse the job up front instead.
    if !CorpusJob::csv_safe(&job.name) || !CorpusJob::csv_safe(&job.family) {
        return error_row(format!(
            "label `{}` (family `{}`) contains CSV-breaking characters (comma/newline)",
            csv_sanitized(&job.name),
            csv_sanitized(&job.family),
        ));
    }
    let spec = match parse_spec(&job.text) {
        Ok(spec) => spec,
        Err(e) => return error_row(format!("parse: {e}")),
    };
    let flow = FlowConfig { strategy: spec.strategy, ..config.flow };
    let psi = match synthesize_system(
        &spec.app,
        &spec.platform,
        spec.fault_model,
        &spec.transparency,
        flow,
    ) {
        Ok(psi) => psi,
        Err(e) => return error_row(format!("synthesis: {e}")),
    };
    let certified = match psi.certification {
        Certification::Certified { .. } => CorpusVerdict::Certified,
        Certification::Refuted { .. } => CorpusVerdict::Refuted,
        Certification::Uncertifiable => CorpusVerdict::Skipped,
    };
    (
        CorpusRow {
            family: job.family.clone(),
            spec: job.name.clone(),
            processes: spec.app.process_count(),
            nodes: spec.platform.architecture().node_count(),
            k: spec.fault_model.k(),
            strategy: spec.strategy.to_string().to_ascii_lowercase(),
            deadline: spec.app.deadline().units(),
            estimate_worst_case: psi.estimate.worst_case_length.units(),
            exact_len: psi.certification.exact_len().map(|t| t.units()),
            certified,
            repair_rounds: psi.repair_rounds,
            calibration_milli: psi.calibration_milli,
            schedulable: psi.schedulable,
        },
        None,
    )
}

/// Per-family aggregate of a complete row set.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAggregate {
    /// Group label (a family name, a strategy, …).
    pub name: String,
    /// Rows in the group.
    pub specs: u64,
    /// Certification counters over the group's non-error rows.
    pub counters: CertificationCounters,
    /// Rows tagged [`CorpusVerdict::Error`].
    pub errors: u64,
    /// Rows whose shipped incumbent meets its deadline.
    pub schedulable: u64,
    /// Mean exact length of the certified rows (`None` when none
    /// certified).
    pub avg_certified_exact_len: Option<f64>,
}

impl GroupAggregate {
    /// Schedulable fraction of the group's rows, in percent (the
    /// schedulability column of the paper-style tables).
    pub fn schedulable_pct(&self) -> f64 {
        if self.specs == 0 {
            return 0.0;
        }
        100.0 * self.schedulable as f64 / self.specs as f64
    }
}

/// Groups rows by family (sorted by family name — deterministic for any
/// row order) and computes the paper-table aggregates.
pub fn aggregate(rows: &[CorpusRow]) -> Vec<GroupAggregate> {
    aggregate_by(rows, |r| &r.family)
}

/// [`aggregate`] over an arbitrary grouping key — the `fig_paper_tables`
/// harness uses it to tabulate by policy class (strategy) as well as by
/// family. Groups come back sorted by key, deterministic for any row
/// order.
pub fn aggregate_by<'a>(
    rows: &'a [CorpusRow],
    key: impl Fn(&'a CorpusRow) -> &'a str,
) -> Vec<GroupAggregate> {
    let mut keys: Vec<&str> = rows.iter().map(&key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|group| {
            let members = rows.iter().filter(|r| key(r) == group);
            let mut agg = GroupAggregate {
                name: group.to_string(),
                specs: 0,
                counters: CertificationCounters::default(),
                errors: 0,
                schedulable: 0,
                avg_certified_exact_len: None,
            };
            let mut exact_sum = 0i64;
            for row in members {
                agg.specs += 1;
                agg.schedulable += row.schedulable as u64;
                match row.certification_outcome() {
                    Some(outcome) => agg.counters.record(outcome, row.repair_rounds as u64),
                    None => agg.errors += 1,
                }
                if row.certified == CorpusVerdict::Certified {
                    exact_sum += row.exact_len.unwrap_or(0);
                }
            }
            if agg.counters.certified > 0 {
                agg.avg_certified_exact_len =
                    Some(exact_sum as f64 / agg.counters.certified as f64);
            }
            agg
        })
        .collect()
}

/// Renders per-family and total aggregates of a complete row set as a
/// deterministic JSON document (no wall-clock fields; equal row sets
/// yield identical bytes).
pub fn aggregate_to_json(rows: &[CorpusRow]) -> String {
    let per_family = aggregate(rows);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("specs");
    w.number_usize(rows.len());
    w.key("families");
    w.begin_array();
    for agg in &per_family {
        write_group_json(&mut w, agg);
    }
    w.end_array();
    let totals =
        per_family.iter().fold(CertificationCounters::default(), |acc, a| acc.merged(a.counters));
    w.key("totals");
    w.begin_object();
    write_counters(&mut w, totals);
    w.key("errors");
    w.number_u64(per_family.iter().map(|a| a.errors).sum());
    w.key("certified_pct");
    w.number_f64(totals.certified_pct(), 2);
    w.end_object();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

fn write_counters(w: &mut JsonWriter, c: CertificationCounters) {
    w.key("certified");
    w.number_u64(c.certified);
    w.key("refuted");
    w.number_u64(c.refuted);
    w.key("uncertifiable");
    w.number_u64(c.uncertifiable);
    w.key("repair_rounds");
    w.number_u64(c.repair_rounds);
}

/// Writes one [`GroupAggregate`] as a complete JSON object. Shared by
/// [`aggregate_to_json`] and the `fig_paper_tables` harness so
/// `corpus_results.json` and `BENCH_corpus.json` cannot drift apart
/// structurally: a field added to the aggregate shows up in both.
pub fn write_group_json(w: &mut JsonWriter, agg: &GroupAggregate) {
    w.begin_object();
    w.key("name");
    w.string(&agg.name);
    w.key("specs");
    w.number_u64(agg.specs);
    write_counters(w, agg.counters);
    w.key("errors");
    w.number_u64(agg.errors);
    w.key("schedulable");
    w.number_u64(agg.schedulable);
    w.key("schedulable_pct");
    w.number_f64(agg.schedulable_pct(), 2);
    w.key("certified_pct");
    w.number_f64(agg.counters.certified_pct(), 2);
    w.key("avg_certified_exact_len");
    match agg.avg_certified_exact_len {
        Some(v) => w.number_f64(v, 2),
        None => w.null(),
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

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
    fn rows_arrive_in_order_and_aggregate() {
        let jobs: Vec<CorpusJob> =
            (0..4).map(|i| tiny_job(&format!("t{i}.ftes"), 200 + i)).collect();
        let mut seen = Vec::new();
        let (outcome, cancelled) =
            run_corpus(&jobs, &CorpusRunConfig::default(), None, |i, row| {
                seen.push((i, row.spec.clone()));
            });
        assert!(!cancelled);
        assert_eq!(seen, (0..4).map(|i| (i, format!("t{i}.ftes"))).collect::<Vec<_>>());
        assert_eq!(outcome.rows.len(), 4);
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.counters.total(), 4);
        assert_eq!(outcome.counters.certified, 4, "tiny loose-deadline jobs certify");
        for row in &outcome.rows {
            assert_eq!(row.certified, CorpusVerdict::Certified);
            assert!(row.schedulable);
            assert_eq!(row.strategy, "mxr");
        }
    }

    #[test]
    fn csv_is_byte_identical_across_worker_counts() {
        let jobs: Vec<CorpusJob> =
            (0..6).map(|i| tiny_job(&format!("t{i}.ftes"), 150 + 7 * i)).collect();
        let render = |workers: usize| {
            let mut csv = format!("{CORPUS_CSV_HEADER}\n");
            run_corpus(
                &jobs,
                &CorpusRunConfig { workers, ..Default::default() },
                None,
                |_, row| {
                    csv.push_str(&row.to_csv());
                    csv.push('\n');
                },
            );
            csv
        };
        let serial = render(1);
        assert_eq!(serial, render(4));
        // And the CSV round-trips.
        let rows = parse_corpus_csv(&serial).unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].to_csv(), serial.lines().nth(1).unwrap());
    }

    #[test]
    fn cancellation_cuts_the_run_at_a_row_boundary_and_stays_resumable() {
        let jobs: Vec<CorpusJob> =
            (0..5).map(|i| tiny_job(&format!("t{i}.ftes"), 200 + i)).collect();
        // A pre-set flag cancels before any work.
        let cancel = AtomicBool::new(true);
        let mut delivered = 0usize;
        let (outcome, cancelled) =
            run_corpus(&jobs, &CorpusRunConfig::default(), Some(&cancel), |_, _| {
                delivered += 1;
            });
        assert!(cancelled);
        assert_eq!((outcome.rows.len(), delivered), (0, 0));
        assert_eq!(outcome.counters.total(), 0);

        // Cancelling after the second row: the outcome is exactly the
        // delivered prefix, and re-running the suffix reproduces the
        // uninterrupted run byte-identically.
        let (full, _) = run_corpus(&jobs, &CorpusRunConfig::default(), None, |_, _| {});
        let cancel = AtomicBool::new(false);
        let mut prefix = Vec::new();
        let (outcome, cancelled) =
            run_corpus(&jobs, &CorpusRunConfig::default(), Some(&cancel), |i, row| {
                prefix.push(row.to_csv());
                if i == 1 {
                    cancel.store(true, Ordering::Relaxed);
                }
            });
        assert!(cancelled);
        assert!(outcome.rows.len() < jobs.len());
        assert_eq!(outcome.rows.len(), prefix.len());
        let skip = outcome.rows.len();
        let (resumed, resumed_cancelled) =
            run_corpus(&jobs[skip..], &CorpusRunConfig::default(), None, |_, _| {});
        assert!(!resumed_cancelled);
        let merged: Vec<String> =
            outcome.rows.iter().chain(resumed.rows.iter()).map(CorpusRow::to_csv).collect();
        assert_eq!(merged, full.rows.iter().map(CorpusRow::to_csv).collect::<Vec<_>>());
    }

    #[test]
    fn parse_and_flow_failures_become_tagged_error_rows() {
        let jobs = vec![
            tiny_job("good.ftes", 500),
            CorpusJob {
                name: "bad.ftes".to_string(),
                family: "test".to_string(),
                text: "nodes 2\nbogus directive\n".to_string(),
            },
        ];
        let (outcome, _) = run_corpus(&jobs, &CorpusRunConfig::default(), None, |_, _| {});
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.rows[1].certified, CorpusVerdict::Error);
        assert!(!outcome.rows[1].schedulable);
        assert_eq!(outcome.errors.len(), 1);
        assert!(outcome.errors[0].1.contains("parse"), "{:?}", outcome.errors);
        // Error rows stay out of the certification counters.
        assert_eq!(outcome.counters.total(), 1);
        // And survive a CSV round-trip.
        let csv = format!(
            "{CORPUS_CSV_HEADER}\n{}\n{}\n",
            outcome.rows[0].to_csv(),
            outcome.rows[1].to_csv()
        );
        let rows = parse_corpus_csv(&csv).unwrap();
        assert_eq!(rows, outcome.rows);
    }

    #[test]
    fn csv_unsafe_labels_become_tagged_error_rows() {
        let jobs = vec![CorpusJob {
            name: "a,b.ftes".to_string(),
            family: "te,st".to_string(),
            text: "nodes 1\ndeadline 10\nk 0\nprocess p wcet 5\n".to_string(),
        }];
        let (outcome, _) = run_corpus(&jobs, &CorpusRunConfig::default(), None, |_, _| {});
        let row = &outcome.rows[0];
        // Refused before synthesis, with sanitized labels so the row
        // itself still round-trips through the report.
        assert_eq!(row.certified, CorpusVerdict::Error);
        assert_eq!(row.spec, "a_b.ftes");
        assert_eq!(row.family, "te_st");
        assert!(outcome.errors[0].1.contains("CSV-breaking"), "{:?}", outcome.errors);
        let csv = format!("{CORPUS_CSV_HEADER}\n{}\n", row.to_csv());
        assert_eq!(parse_corpus_csv(&csv).unwrap()[0], *row);
        // The header extractor refuses unsafe family tokens outright.
        assert!(!CorpusJob::csv_safe("a,b"));
        assert_eq!(CorpusJob::family_from_header("# corpus: family=a,b index=0 seed=7\n"), None);
    }

    #[test]
    fn bad_csv_is_rejected_not_resumed_onto() {
        assert!(parse_corpus_csv("").is_err());
        assert!(parse_corpus_csv("some,other,header\n").is_err());
        let bad_row = format!("{CORPUS_CSV_HEADER}\nonly,three,fields\n");
        assert!(parse_corpus_csv(&bad_row).is_err());
        let bad_verdict = format!("{CORPUS_CSV_HEADER}\nf,s,1,1,1,mxr,10,10,-,maybe,0,1000,true\n");
        assert!(parse_corpus_csv(&bad_verdict).is_err());
    }

    #[test]
    fn recovery_keeps_the_parseable_prefix_and_discards_torn_tails() {
        let row = "f,s.ftes,4,2,1,mxr,100,50,60,true,0,1000,true";
        // Well-formed: full parse, nothing discarded.
        let clean = format!("{CORPUS_CSV_HEADER}\n{row}\n{row}\n");
        let (rows, discarded) = recover_corpus_csv(&clean).unwrap();
        assert_eq!((rows.len(), discarded), (2, false));
        // Killed between the row bytes and the newline: the final line
        // parses but its newline never hit disk — it must be discarded
        // (an append would merge two rows into one line).
        let unterminated = format!("{CORPUS_CSV_HEADER}\n{row}\n{row}");
        let (rows, discarded) = recover_corpus_csv(&unterminated).unwrap();
        assert_eq!((rows.len(), discarded), (1, true));
        // Killed mid-row: the partial line is discarded.
        let partial = format!("{CORPUS_CSV_HEADER}\n{row}\nf,s2.ftes,4,2");
        let (rows, discarded) = recover_corpus_csv(&partial).unwrap();
        assert_eq!((rows.len(), discarded), (1, true));
        // Header only, with and without its newline.
        assert_eq!(recover_corpus_csv(&format!("{CORPUS_CSV_HEADER}\n")).unwrap(), (vec![], false));
        assert_eq!(recover_corpus_csv(CORPUS_CSV_HEADER).unwrap(), (vec![], false));
        // A foreign file is still refused, never truncated into shape.
        assert!(recover_corpus_csv("some,other,header\nx\n").is_err());
        assert!(recover_corpus_csv("").is_err());
    }

    #[test]
    fn family_from_header_reads_generated_documents() {
        assert_eq!(
            CorpusJob::family_from_header("# corpus: family=automotive index=3 seed=7\nnodes 2\n"),
            Some("automotive")
        );
        assert_eq!(CorpusJob::family_from_header("# plain comment\n"), None);
        assert_eq!(CorpusJob::family_from_header(""), None);
    }

    #[test]
    fn aggregate_groups_by_family_deterministically() {
        let row =
            |family: &str, certified: CorpusVerdict, exact: Option<i64>, sched: bool| CorpusRow {
                family: family.to_string(),
                spec: format!("{family}.ftes"),
                processes: 4,
                nodes: 2,
                k: 1,
                strategy: "mxr".to_string(),
                deadline: 100,
                estimate_worst_case: 50,
                exact_len: exact,
                certified,
                repair_rounds: 1,
                calibration_milli: 1000,
                schedulable: sched,
            };
        let rows = vec![
            row("b", CorpusVerdict::Certified, Some(60), true),
            row("a", CorpusVerdict::Refuted, Some(120), false),
            row("b", CorpusVerdict::Certified, Some(80), true),
            row("a", CorpusVerdict::Error, None, false),
        ];
        let aggs = aggregate(&rows);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].name, "a");
        assert_eq!((aggs[0].counters.refuted, aggs[0].errors), (1, 1));
        assert_eq!(aggs[0].avg_certified_exact_len, None);
        assert_eq!(aggs[0].schedulable_pct(), 0.0);
        assert_eq!(aggs[1].name, "b");
        assert_eq!(aggs[1].counters.certified, 2);
        assert_eq!(aggs[1].avg_certified_exact_len, Some(70.0));
        assert_eq!(aggs[1].schedulable, 2);
        assert_eq!(aggs[1].schedulable_pct(), 100.0);

        // The generalized key: grouping by strategy collapses both
        // families into one group with the same totals.
        let by_strategy = aggregate_by(&rows, |r| &r.strategy);
        assert_eq!(by_strategy.len(), 1);
        assert_eq!(by_strategy[0].name, "mxr");
        assert_eq!(by_strategy[0].specs, 4);
        assert_eq!(by_strategy[0].counters.certified, 2);

        let json = aggregate_to_json(&rows);
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"avg_certified_exact_len\":70.00"));
        assert!(json.contains("\"totals\""));
        // Deterministic for permuted input.
        let mut shuffled = rows.clone();
        shuffled.swap(0, 3);
        shuffled.swap(1, 2);
        assert_eq!(json, aggregate_to_json(&shuffled));
    }
}
