//! The `ftes explore` subcommand: parallel design-space exploration over a
//! §6-style scenario grid, with summary / CSV / JSON output.
//!
//! ```text
//! USAGE:
//!   ftes explore [--grid paper] [--seeds N]
//!   ftes explore --processes N --nodes N --k K [--seeds N]
//!
//! TUNING:
//!   --seed N       master seed (default 1)
//!   --threads N    portfolio workers run concurrently per point
//!                  (default: all cores)
//!   --point-par N  grid points explored concurrently (default 1)
//!   --rounds N     portfolio synchronization rounds (default 4)
//!   --iters N      iterations per worker per round (default 30)
//!
//! OUTPUT:
//!   --csv | --json print machine-readable results instead of the summary
//!   --out FILE     write the chosen format to FILE as well
//!   (wall time, evaluator-kernel and estimate-cache counters go to
//!   stderr, never into the report, whose bytes are identical for any
//!   thread split)
//!
//! CERTIFICATION:
//!   incumbents are exact-certified by default (and demoted down the
//!   Pareto front when refuted); --no-certify reports raw estimator
//!   winners, --verify additionally fault-injects the reported incumbent,
//!   --certify-guided moves certification inside the search loop (an
//!   incumbent must survive an incremental exact run before it becomes
//!   best; refuted states are demoted during search, not after)
//! ```

use ftes::explore::{
    paper_grid, suite_to_csv, suite_to_json, CertifyVerdict, PortfolioConfig, ScenarioPoint,
    SuiteConfig, SuiteOutcome, VerifyConfig, VerifyOutcome,
};
use ftes::model::Time;
use ftes::sched::EvaluatorStats;
use ftes_jobs::{drive_suite, JobInterrupt};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Output format of the subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreFormat {
    /// Human-readable per-point summary (default).
    Summary,
    /// The CSV report of `ftes-explore`.
    Csv,
    /// The JSON report of `ftes-explore`.
    Json,
}

/// A fully parsed `ftes explore` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreCommand {
    /// The suite to run.
    pub suite: SuiteConfig,
    /// Output format.
    pub format: ExploreFormat,
    /// Optional output file for the formatted report.
    pub out: Option<String>,
    /// Trace outputs (`--trace FILE` / `--folded FILE`): per-iteration
    /// search events and certification spans from the whole suite run.
    pub trace: crate::TraceCapture,
}

impl ExploreCommand {
    /// Parses the arguments following the `explore` keyword.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, malformed
    /// numbers or contradictory grid selections.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut args = args.to_vec();
        let trace = crate::TraceCapture::take_from(&mut args)?;
        let args = &args[..];
        let mut processes: Option<usize> = None;
        let mut nodes: Option<usize> = None;
        let mut k: Option<u32> = None;
        let mut seeds: u64 = 1;
        let mut grid_paper = false;
        let mut portfolio = PortfolioConfig::default();
        let mut point_parallelism = 1usize;
        let mut format = ExploreFormat::Summary;
        let mut out = None;
        let mut verify = None;
        let mut certify = true;

        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
            args.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            let arg = args[i].as_str();
            match arg {
                "--grid" => {
                    let v = value(args, i, arg)?;
                    if v != "paper" {
                        return Err(format!("unknown grid `{v}` (only `paper`)"));
                    }
                    grid_paper = true;
                    i += 2;
                }
                "--processes" | "--nodes" | "--k" | "--seeds" | "--seed" | "--threads"
                | "--point-par" | "--rounds" | "--iters" => {
                    let v = value(args, i, arg)?;
                    let n: u64 = v.parse().map_err(|_| format!("bad number `{v}` for {arg}"))?;
                    match arg {
                        "--processes" => processes = Some(n as usize),
                        "--nodes" => nodes = Some(n as usize),
                        "--k" => k = Some(n as u32),
                        "--seeds" => seeds = n.max(1),
                        "--seed" => portfolio.seed = n,
                        "--threads" => portfolio.threads = (n as usize).max(1),
                        "--point-par" => point_parallelism = (n as usize).max(1),
                        "--rounds" => portfolio.rounds = (n as usize).max(1),
                        "--iters" => portfolio.iterations_per_round = (n as usize).max(1),
                        _ => unreachable!("arm guards the flag set"),
                    }
                    i += 2;
                }
                "--verify" => {
                    verify = Some(VerifyConfig::default());
                    i += 1;
                }
                "--no-certify" => {
                    certify = false;
                    i += 1;
                }
                "--certify-guided" => {
                    portfolio.certify_guided = true;
                    i += 1;
                }
                "--csv" => {
                    format = ExploreFormat::Csv;
                    i += 1;
                }
                "--json" => {
                    format = ExploreFormat::Json;
                    i += 1;
                }
                "--out" => {
                    out = Some(value(args, i, arg)?);
                    i += 2;
                }
                other => return Err(format!("unknown explore flag `{other}`")),
            }
        }

        let custom = processes.is_some() || nodes.is_some() || k.is_some();
        if grid_paper && custom {
            return Err("--grid paper conflicts with --processes/--nodes/--k".into());
        }
        let points = if custom {
            let processes = processes.ok_or("--processes is required for a custom point")?;
            let nodes = nodes.ok_or("--nodes is required for a custom point")?;
            let k = k.ok_or("--k is required for a custom point")?;
            (0..seeds).map(|seed| ScenarioPoint { processes, nodes, k, seed }).collect()
        } else {
            paper_grid(seeds)
        };

        Ok(ExploreCommand {
            suite: SuiteConfig {
                points,
                portfolio,
                point_parallelism,
                slot: Time::new(8),
                verify,
                certify,
            },
            format,
            out,
            trace,
        })
    }

    /// Runs the suite and renders output. Returns `true` when every point
    /// was schedulable (drives the process exit code).
    ///
    /// # Errors
    ///
    /// Propagates exploration failures and output-file IO errors.
    pub fn execute(&self) -> Result<bool, Box<dyn std::error::Error>> {
        // The CLI is a thin client of the same suite driver the serve
        // daemon's job executor runs (watermark 0, cancellation never
        // requested): one code path computes every explore report.
        let never_cancelled = AtomicBool::new(false);
        // The trace goes to stderr and side files only, so the stdout
        // report contract is untouched.
        let (outcome, wall) = self.trace.run(|| {
            let started = Instant::now();
            let outcome = drive_suite(&self.suite, 0, &never_cancelled, |_, _| {});
            (outcome, started.elapsed())
        })?;
        let outcome = outcome.map_err(|interrupt| match interrupt {
            JobInterrupt::Failed(message) => message,
            JobInterrupt::Cancelled => {
                unreachable!("the CLI never sets the cancel flag")
            }
        })?;
        eprintln!("{}", kernel_line(&outcome, wall));
        let rendered = match self.format {
            ExploreFormat::Summary => summarize(&outcome),
            ExploreFormat::Csv => suite_to_csv(&outcome),
            ExploreFormat::Json => suite_to_json(&outcome),
        };
        print!("{rendered}");
        if let Some(path) = &self.out {
            std::fs::write(path, &rendered)?;
        }
        Ok(outcome.points.iter().all(|p| p.schedulable))
    }
}

/// The stderr diagnostics line: the run's wall time, evaluator-kernel work
/// and estimate-cache traffic. All depend on the host or the thread split,
/// so they stay out of every rendered report.
fn kernel_line(outcome: &SuiteOutcome, wall: Duration) -> String {
    let evals = outcome.points.iter().fold(EvaluatorStats::default(), |a, p| a.merged(p.evals));
    let cache = outcome.total_cache();
    let secs = wall.as_secs_f64();
    let rate = if secs > 0.0 { evals.evaluations() as f64 / secs } else { 0.0 };
    format!(
        "explore: {} points in {} ms; {} kernel evaluations from {} evaluators \
         ({} reused, {rate:.0} evals/s); estimate cache {} hits, {} misses ({:.1}%)",
        outcome.points.len(),
        wall.as_millis(),
        evals.evaluations(),
        evals.constructions,
        evals.reused(),
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate(),
    )
}

/// The human-readable per-point table.
fn summarize(outcome: &SuiteOutcome) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>10} {:>10} {:>8} {:>7} {:>9} {:>9} {:>8}",
        "point",
        "nodes",
        "k",
        "fault-free",
        "worst-case",
        "slack%",
        "pareto",
        "certified",
        "exact",
        "verified",
    );
    for p in &outcome.points {
        let verified = match p.verified {
            VerifyOutcome::Sound => "sound",
            VerifyOutcome::Unsound => "UNSOUND",
            VerifyOutcome::Skipped => "skipped",
            VerifyOutcome::NotRequested => "-",
        };
        let certified = match p.certified {
            CertifyVerdict::Certified(_) => {
                if p.demoted > 0 {
                    "demoted"
                } else {
                    "yes"
                }
            }
            CertifyVerdict::Refuted(_) => "REFUTED",
            CertifyVerdict::Skipped => "skipped",
            CertifyVerdict::NotRequested => "-",
        };
        let exact =
            p.certified.exact_len().map_or_else(|| "-".to_string(), |t| t.units().to_string());
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>10} {:>10} {:>8.1} {:>7} {:>9} {:>9} {:>8} {}",
            p.point.label(),
            p.point.nodes,
            p.point.k,
            p.fault_free.units(),
            p.worst_case.units(),
            p.slack_pct,
            p.archive.len(),
            certified,
            exact,
            verified,
            if p.schedulable { "" } else { "  ** MISSES DEADLINE **" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<ExploreCommand, String> {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        ExploreCommand::parse(&args)
    }

    #[test]
    fn default_is_the_paper_grid() {
        let cmd = parse(&[]).unwrap();
        assert_eq!(cmd.suite.points.len(), 5);
        assert_eq!(cmd.format, ExploreFormat::Summary);
        assert_eq!(cmd.suite.points[0].processes, 20);
        assert_eq!(cmd.suite.points[4].k, 7);
    }

    #[test]
    fn custom_point_with_seeds() {
        let cmd = parse(&[
            "--processes",
            "12",
            "--nodes",
            "3",
            "--k",
            "2",
            "--seeds",
            "3",
            "--seed",
            "9",
            "--threads",
            "2",
            "--rounds",
            "2",
            "--iters",
            "5",
            "--json",
            "--verify",
        ])
        .unwrap();
        assert_eq!(cmd.suite.points.len(), 3);
        assert!(cmd.suite.points.iter().all(|p| p.processes == 12 && p.k == 2));
        assert_eq!(cmd.suite.portfolio.seed, 9);
        assert_eq!(cmd.suite.portfolio.rounds, 2);
        assert_eq!(cmd.format, ExploreFormat::Json);
        assert_eq!(cmd.suite.verify, Some(VerifyConfig::default()));
        assert!(cmd.suite.certify, "certification is on by default");
    }

    #[test]
    fn no_certify_flag_disables_certification() {
        let cmd = parse(&["--no-certify"]).unwrap();
        assert!(!cmd.suite.certify);
        assert!(parse(&[]).unwrap().suite.certify);
    }

    #[test]
    fn certify_guided_flag_enables_in_loop_certification() {
        let cmd = parse(&["--certify-guided"]).unwrap();
        assert!(cmd.suite.portfolio.certify_guided);
        assert!(!parse(&[]).unwrap().suite.portfolio.certify_guided, "guided is opt-in");
    }

    #[test]
    fn conflicting_and_malformed_flags_error() {
        assert!(parse(&["--grid", "paper", "--processes", "10"]).is_err());
        assert!(parse(&["--grid", "fig9"]).is_err());
        assert!(parse(&["--processes", "ten"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--processes", "10", "--nodes", "2"]).is_err(), "missing --k");
    }

    #[test]
    fn kernel_line_carries_the_estimate_cache_counters() {
        let cmd = parse(&[
            "--processes",
            "8",
            "--nodes",
            "2",
            "--k",
            "1",
            "--threads",
            "1",
            "--rounds",
            "2",
            "--iters",
            "4",
        ])
        .unwrap();
        let outcome = ftes::explore::run_suite(&cmd.suite).unwrap();
        let cache = outcome.total_cache();
        assert!(cache.hits > 0 && cache.misses > 0, "{cache:?}");
        let line = kernel_line(&outcome, Duration::from_millis(250));
        assert!(line.starts_with("explore: 1 points in 250 ms; "), "{line}");
        let counters = format!(
            "; estimate cache {} hits, {} misses ({:.1}%)",
            cache.hits,
            cache.misses,
            100.0 * cache.hit_rate()
        );
        assert!(line.ends_with(&counters), "{line}");
        // The summary table is a report: no memo counter in it.
        assert!(!summarize(&outcome).contains("cache"));
    }

    #[test]
    fn execute_runs_a_tiny_point_end_to_end() {
        let cmd = parse(&[
            "--processes",
            "8",
            "--nodes",
            "2",
            "--k",
            "1",
            "--threads",
            "2",
            "--rounds",
            "2",
            "--iters",
            "4",
            "--csv",
        ])
        .unwrap();
        let ok = cmd.execute().unwrap();
        // Small generated instances with the default deadline factor are
        // schedulable; the exact flag value matters less than the run
        // completing and producing consistent output.
        let _ = ok;
    }
}
