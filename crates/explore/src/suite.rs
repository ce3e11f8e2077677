//! Scenario-suite runner: the paper's §6 experiment grid, swept in
//! parallel with deterministic per-point seeds.
//!
//! Each grid point is an independent synthesis problem — generate a random
//! application of the requested size (seeded, so exactly reproducible),
//! build a platform, run the portfolio exploration, and record the
//! incumbent and the Pareto front. Points fan out through
//! [`ordered_parallel`], the calling thread among the workers; because
//! every point derives its own seed from `(suite seed, point)` the results
//! are identical no matter how the points are interleaved.

use crate::cache::{fnv1a64, CacheStats, StateKey};
use crate::portfolio::{explore, ExploreError, PortfolioConfig};
use crate::ParetoArchive;
use ftes_ftcpg::{build_ftcpg, BuildConfig, CopyMapping, CpgError, FtCpg};
use ftes_gen::{generate_application, GeneratorConfig};
use ftes_model::par::ordered_parallel;
use ftes_model::{Application, FaultModel, Time, Transparency};
use ftes_opt::Synthesized;
use ftes_sched::{
    schedule_ftcpg, CertOutcome, Certifier, CertifyConfig, ConditionalSchedule, EvaluatorStats,
    SchedConfig,
};
use ftes_sim::verify_sampled;
use ftes_tdma::Platform;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicBool;

/// One point of the experiment grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioPoint {
    /// Number of application processes (the paper sweeps 20–100).
    pub processes: usize,
    /// Number of computation nodes (2–6).
    pub nodes: usize,
    /// Fault budget `k` (3–7).
    pub k: u32,
    /// Workload seed (averaging dimension of the §6 experiments).
    pub seed: u64,
}

impl ScenarioPoint {
    /// Compact label, e.g. `p40_n4_k4_s2` (processes, nodes, k, seed).
    pub fn label(&self) -> String {
        format!("p{}_n{}_k{}_s{}", self.processes, self.nodes, self.k, self.seed)
    }

    fn seed_material(&self) -> [u8; 28] {
        let mut bytes = [0u8; 28];
        bytes[..8].copy_from_slice(&(self.processes as u64).to_le_bytes());
        bytes[8..16].copy_from_slice(&(self.nodes as u64).to_le_bytes());
        bytes[16..20].copy_from_slice(&self.k.to_le_bytes());
        bytes[20..28].copy_from_slice(&self.seed.to_le_bytes());
        bytes
    }
}

/// The §6 sweep (20–100 processes, 2–6 nodes, k = 3–7), `seeds_per_point`
/// workloads per size — the grid behind Fig. 7's averages.
pub fn paper_grid(seeds_per_point: u64) -> Vec<ScenarioPoint> {
    let base = [(20, 4, 3), (40, 4, 4), (60, 5, 5), (80, 6, 6), (100, 6, 7)];
    let mut points = Vec::with_capacity(base.len() * seeds_per_point.max(1) as usize);
    for (processes, nodes, k) in base {
        for seed in 0..seeds_per_point.max(1) {
            points.push(ScenarioPoint { processes, nodes, k, seed });
        }
    }
    points
}

/// Fault-injection verification of suite incumbents (see
/// [`SuiteConfig::verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Pseudo-random fault scenarios replayed per point (the fault-free
    /// scenario is always included on top).
    pub samples: usize,
    /// Scenario-sampling seed (independent of the search seed, so turning
    /// verification on never perturbs exploration results).
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig { samples: 64, seed: 0x5eed }
    }
}

/// Configuration of a suite run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteConfig {
    /// The grid points to sweep.
    pub points: Vec<ScenarioPoint>,
    /// Portfolio tunables applied at every point (each point re-derives its
    /// own seed from `portfolio.seed` and the point, so sharing the config
    /// never correlates points).
    pub portfolio: PortfolioConfig,
    /// How many points run concurrently, the calling thread running one of
    /// them (each point is already parallel inside; see
    /// [`PortfolioConfig::threads`]).
    pub point_parallelism: usize,
    /// TDMA slot length of the generated platforms.
    pub slot: Time,
    /// When set, each point's reported incumbent is fault-injected with
    /// [`ftes_sim::verify_sampled`]: sampled scenarios are replayed against
    /// the exact conditional schedule. The outcome lands in
    /// [`PointOutcome::verified`]; incumbents that verify unsound are
    /// demoted (see [`SuiteConfig::certify`]), never reported as winners.
    pub verify: Option<VerifyConfig>,
    /// Exact certification of reported incumbents (on by default): each
    /// point's winner must be exact-certified schedulable, or the point
    /// walks down its Pareto front (bounded) until a candidate certifies.
    /// Points whose FT-CPG exceeds the size budget are tagged
    /// [`CertifyVerdict::Skipped`] — the estimate-only regime.
    pub certify: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            points: paper_grid(1),
            portfolio: PortfolioConfig::default(),
            point_parallelism: 1,
            slot: Time::new(8),
            verify: None,
            certify: true,
        }
    }
}

/// Exact-certification verdict of a reported suite incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyVerdict {
    /// Certification was disabled ([`SuiteConfig::certify`] = false).
    NotRequested,
    /// The FT-CPG exceeded the size budget (or the certification work
    /// budget ran out) — no exact verdict exists.
    Skipped,
    /// The exact conditional schedule meets every deadline.
    Certified(Time),
    /// The exact conditional schedule misses a deadline; the carried value
    /// is the exact length the estimate under-priced.
    Refuted(Time),
}

impl CertifyVerdict {
    /// The exact schedule length, when one was computed.
    pub fn exact_len(&self) -> Option<Time> {
        match self {
            CertifyVerdict::Certified(len) | CertifyVerdict::Refuted(len) => Some(*len),
            _ => None,
        }
    }

    /// `true` when the incumbent is exact-certified schedulable.
    pub fn is_certified(&self) -> bool {
        matches!(self, CertifyVerdict::Certified(_))
    }
}

/// Fault-injection verdict of a reported suite incumbent. Distinguishes
/// "not requested" from "requested but there was nothing to replay"
/// (estimate-only regime), which a plain `Option<bool>` conflated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Verification was not requested ([`SuiteConfig::verify`] unset).
    NotRequested,
    /// Requested, but there was nothing informative to replay: the FT-CPG
    /// exceeded the size budget (no exact schedule exists), or the
    /// reported winner was already exactly refuted (its deadline miss is
    /// known without sampling).
    Skipped,
    /// Replayed scenarios surfaced no violation.
    Sound,
    /// Replayed scenarios surfaced violations.
    Unsound,
}

impl VerifyOutcome {
    /// The boolean verdict, when scenarios were actually replayed.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            VerifyOutcome::Sound => Some(true),
            VerifyOutcome::Unsound => Some(false),
            _ => None,
        }
    }
}

/// Outcome of one grid point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The grid point.
    pub point: ScenarioPoint,
    /// Fault-free root-schedule length of the incumbent.
    pub fault_free: Time,
    /// Estimated worst-case length of the incumbent.
    pub worst_case: Time,
    /// The generated application's deadline.
    pub deadline: Time,
    /// Whether the incumbent's estimated worst case meets the deadline.
    pub schedulable: bool,
    /// Recovery slack as a percentage of the fault-free length.
    pub slack_pct: f64,
    /// The Pareto front of the point.
    pub archive: ParetoArchive,
    /// Always zero: the portfolio keeps no estimate cache (every worker
    /// scores its whole neighborhood on its own kernel). The field stays
    /// only because `perfbench` still reads it.
    pub cache: CacheStats,
    /// Certify-guided admit-cache counters of the point (all zero unless
    /// [`PortfolioConfig::certify_guided`] is on). They depend on the
    /// thread split — workers that miss the same state concurrently each
    /// count a miss — so no report renders them.
    pub certify_cache: CacheStats,
    /// Evaluator-kernel counters of the point (constructions, evaluations,
    /// reuse), summed over the workers' kernels. They do not depend on the
    /// thread split, but no report renders them: they measure work, not
    /// the design.
    pub evals: EvaluatorStats,
    /// Exact-certification verdict of the reported incumbent.
    pub certified: CertifyVerdict,
    /// Fault-injection verdict of the reported incumbent.
    pub verified: VerifyOutcome,
    /// Pareto-front candidates skipped before the reported incumbent:
    /// `n > 0` means the first `n` candidates were refuted or unsound and
    /// the point was demoted to the `n`-th front entry. 0 means either the
    /// estimator's own winner was accepted, *or* every examined candidate
    /// failed and the point ships its original winner explicitly tagged —
    /// the `certified`/`verified` columns distinguish the two.
    pub demoted: u32,
    /// Per-entry certification verdicts aligned with
    /// [`PointOutcome::archive`]`.entries()`: `Some(true)` certified,
    /// `Some(false)` refuted, `None` not examined (or no exact schedule).
    pub front_certified: Vec<Option<bool>>,
}

/// Outcome of a whole suite sweep.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Per-point outcomes, in grid order.
    pub points: Vec<PointOutcome>,
}

impl SuiteOutcome {
    /// Deterministic fingerprint of the whole sweep: per point, its label
    /// plus the archive signature.
    pub fn signature(&self) -> Vec<(String, Vec<(crate::Objectives, u64)>)> {
        self.points.iter().map(|p| (p.point.label(), p.archive.signature())).collect()
    }
}

/// Runs the scenario suite.
///
/// # Errors
///
/// Propagates the first [`ExploreError`] (grid order) if any point fails;
/// workload generation failures surface as
/// [`ExploreError::BadConfig`].
pub fn run_suite(config: &SuiteConfig) -> Result<SuiteOutcome, ExploreError> {
    Ok(run_suite_streaming(config, None, |_, _| {})?.expect("no cancel flag was provided"))
}

/// Streaming, cancellable form of [`run_suite`]: `on_point(index, point)`
/// fires **in grid order** — point `i` is delivered only after points
/// `0..i` — as soon as that prefix is complete, the same in-order
/// callback contract the corpus runner uses. Passing a cancel flag stops
/// the sweep at the next point boundary (points already in flight finish
/// but are not delivered past the cancelled prefix).
///
/// Returns `Ok(None)` when the sweep was cancelled, which is exactly when
/// fewer than all points were delivered, otherwise `Ok(Some(outcome))`
/// with every point, identical to [`run_suite`].
///
/// # Errors
///
/// Propagates the first [`ExploreError`] (grid order) if any point fails;
/// the sweep stops there, and points that error are never delivered to
/// `on_point`.
pub fn run_suite_streaming<F>(
    config: &SuiteConfig,
    cancel: Option<&AtomicBool>,
    mut on_point: F,
) -> Result<Option<SuiteOutcome>, ExploreError>
where
    F: FnMut(usize, &PointOutcome) + Send,
{
    // Split the thread budget across concurrent points instead of letting
    // every point fan out at full width (point_parallelism × threads would
    // oversubscribe the machine).
    let concurrent = config.point_parallelism.clamp(1, config.points.len().max(1));
    let threads_per_point = (config.portfolio.threads / concurrent).max(1);
    let mut points = Vec::with_capacity(config.points.len());
    let mut error = None;
    let delivered = ordered_parallel(
        config.points.len(),
        concurrent,
        cancel,
        |i| run_point(config, config.points[i], threads_per_point),
        |i, result| match result {
            Ok(point) => {
                on_point(i, &point);
                points.push(point);
                ControlFlow::Continue(())
            }
            Err(e) => {
                error = Some(e);
                ControlFlow::Break(())
            }
        },
    );
    if let Some(e) = error {
        return Err(e);
    }
    Ok((delivered == config.points.len()).then_some(SuiteOutcome { points }))
}

/// Bound on the certify-and-demote walk down a point's Pareto front: the
/// estimator's incumbent plus at most this many demotions are examined
/// before the point gives up and ships the first candidate, tagged.
const MAX_DEMOTIONS: usize = 4;

fn run_point(
    config: &SuiteConfig,
    point: ScenarioPoint,
    threads: usize,
) -> Result<PointOutcome, ExploreError> {
    let gen_config = GeneratorConfig::new(point.processes, point.nodes);
    let app = generate_application(&gen_config, point.seed)
        .map_err(|e| ExploreError::BadConfig(format!("workload {}: {e}", point.label())))?;
    let platform = Platform::homogeneous(point.nodes, config.slot)
        .map_err(|e| ExploreError::BadConfig(format!("platform {}: {e}", point.label())))?;

    // Per-point portfolio seed: deterministic in (suite seed, point).
    // The thread split never affects results (see the determinism contract).
    let portfolio = PortfolioConfig {
        seed: config.portfolio.seed ^ fnv1a64(&point.seed_material()),
        threads,
        ..config.portfolio.clone()
    };
    // The search phase is one span on the point's thread; it closes before
    // the post-hoc certifications, whose spans stay roots.
    let exploration = {
        let _span = ftes_obs::span(ftes_obs::names::OPTIMIZE);
        explore(&app, &platform, point.k, &portfolio)?
    };
    let walk = certify_and_demote(config, &app, &platform, point, &exploration)?;
    let reported = &walk.reported;

    let estimate = reported.estimate;
    let fault_free = estimate.fault_free_length;
    let worst_case = estimate.worst_case_length;
    let slack_pct = if fault_free > Time::ZERO {
        100.0 * estimate.recovery_slack().as_f64() / fault_free.as_f64()
    } else {
        0.0
    };
    // Certified points are schedulable by the exact contract; refuted
    // points are not, no matter what the estimate claims. Only the
    // estimate-only regime still judges on the estimator.
    let schedulable = match walk.certified {
        CertifyVerdict::Certified(_) => true,
        CertifyVerdict::Refuted(_) => false,
        _ => worst_case <= app.deadline(),
    };
    Ok(PointOutcome {
        point,
        fault_free,
        worst_case,
        deadline: app.deadline(),
        schedulable,
        slack_pct,
        archive: exploration.archive,
        cache: CacheStats::default(),
        certify_cache: exploration.certify,
        evals: exploration.evals,
        certified: walk.certified,
        verified: walk.verified,
        demoted: walk.demoted,
        front_certified: walk.front_certified,
    })
}

/// Result of the certify-and-demote walk of one grid point.
struct WalkOutcome {
    reported: Synthesized,
    certified: CertifyVerdict,
    verified: VerifyOutcome,
    demoted: u32,
    front_certified: Vec<Option<bool>>,
}

/// Walks the point's candidates — the exploration incumbent first, then the
/// Pareto front in canonical order — and reports the first one with no
/// negative exact evidence: not refuted by certification, not unsound under
/// fault injection. Candidates with explicit negative evidence are demoted;
/// when every examined candidate fails, the walk ships the *first* one,
/// explicitly tagged, so a bad winner can never masquerade as sound.
fn certify_and_demote(
    config: &SuiteConfig,
    app: &Application,
    platform: &Platform,
    point: ScenarioPoint,
    exploration: &crate::Exploration,
) -> Result<WalkOutcome, ExploreError> {
    let label = point.label();
    let transparency = Transparency::none();
    let bad = |e: &dyn std::fmt::Display| ExploreError::BadConfig(format!("certify {label}: {e}"));
    let mut certifier = config.certify.then(|| {
        Certifier::new(
            app,
            platform,
            FaultModel::new(point.k),
            &transparency,
            CertifyConfig::default(),
        )
    });

    // Candidate order: the incumbent, then front entries not identical to
    // it (bounded). Fallback candidates are materialized lazily — copies
    // are only derived once the previous candidate was actually rejected,
    // so the common certify-first-try path pays nothing for the walk.
    let incumbent_key = StateKey::encode(&exploration.best.mapping, &exploration.best.policies);
    let fallbacks: Vec<&crate::ArchiveEntry> = exploration
        .archive
        .entries()
        .iter()
        .filter(|e| e.key != incumbent_key)
        .take(MAX_DEMOTIONS)
        .collect();

    let mut first: Option<(Synthesized, CertifyVerdict, VerifyOutcome)> = None;
    let mut accepted: Option<(usize, Synthesized, CertifyVerdict, VerifyOutcome)> = None;
    let mut verdict_by_key: Vec<(StateKey, bool)> = Vec::new();
    for walked in 0..=fallbacks.len() {
        let (key, candidate) = if walked == 0 {
            (incumbent_key.clone(), exploration.best.clone())
        } else {
            let entry = fallbacks[walked - 1];
            let copies = CopyMapping::from_base(
                app,
                platform.architecture(),
                &entry.mapping,
                &entry.policies,
            )
            .map_err(|e| bad(&e))?;
            (
                entry.key.clone(),
                Synthesized {
                    mapping: entry.mapping.clone(),
                    policies: entry.policies.clone(),
                    copies,
                    estimate: entry.estimate,
                },
            )
        };
        // 1. Exact certification (when enabled), keeping the artifacts so
        //    fault injection replays the very schedule that was certified.
        let (certified, artifacts) = match &mut certifier {
            None => (CertifyVerdict::NotRequested, None),
            Some(c) => {
                match c.certify(&candidate.copies, &candidate.policies).map_err(|e| bad(&e))? {
                    CertOutcome::Exact { exact_len, deadline_met } => {
                        let verdict = if deadline_met {
                            CertifyVerdict::Certified(exact_len)
                        } else {
                            CertifyVerdict::Refuted(exact_len)
                        };
                        verdict_by_key.push((key.clone(), deadline_met));
                        (verdict, c.take_artifacts(&candidate.copies, &candidate.policies))
                    }
                    CertOutcome::OverBudget => (CertifyVerdict::Skipped, None),
                }
            }
        };
        // 2. Fault injection (when requested) on the exact schedule. An
        //    exactly-refuted candidate skips the replay: its deadline miss
        //    is already known exactly, the candidate is rejected either
        //    way, and replaying a refuted schedule would only rediscover
        //    the same miss at sampling cost.
        let verified = match &config.verify {
            None => VerifyOutcome::NotRequested,
            Some(_) if matches!(certified, CertifyVerdict::Refuted(_)) => VerifyOutcome::Skipped,
            Some(vc) => {
                let artifacts = match artifacts {
                    Some(a) => Some(a),
                    // Certification off (or its artifacts already spent):
                    // build the schedule directly for the replay.
                    None if !matches!(certified, CertifyVerdict::Skipped) => {
                        build_exact(app, platform, point, &candidate, &transparency)?
                    }
                    None => None,
                };
                match artifacts {
                    None => VerifyOutcome::Skipped,
                    Some((cpg, schedule)) => {
                        let verdict = verify_sampled(
                            app,
                            &cpg,
                            &schedule,
                            &transparency,
                            vc.samples,
                            vc.seed,
                        )
                        .map_err(|e| bad(&e))?;
                        if verdict.is_sound() {
                            VerifyOutcome::Sound
                        } else {
                            VerifyOutcome::Unsound
                        }
                    }
                }
            }
        };
        if first.is_none() {
            first = Some((candidate.clone(), certified, verified));
        }
        // Acceptance: demote only on explicit negative exact evidence. The
        // estimate-only regime (Skipped) has no evidence either way and
        // must accept — there is nothing better to walk toward.
        let rejected =
            matches!(certified, CertifyVerdict::Refuted(_)) || verified == VerifyOutcome::Unsound;
        if !rejected {
            accepted = Some((walked, candidate, certified, verified));
            break;
        }
    }

    let (demoted, reported, certified, verified) = match accepted {
        Some((walked, candidate, certified, verified)) => {
            (walked as u32, candidate, certified, verified)
        }
        None => {
            let (candidate, certified, verified) =
                first.expect("the walk examined at least the incumbent");
            (0, candidate, certified, verified)
        }
    };
    let front_certified = exploration
        .archive
        .entries()
        .iter()
        .map(|e| verdict_by_key.iter().find(|(k, _)| *k == e.key).map(|&(_, ok)| ok))
        .collect();
    Ok(WalkOutcome { reported, certified, verified, demoted, front_certified })
}

/// Builds one candidate's FT-CPG and exact schedule for fault injection
/// when certification did not already provide them. `Ok(None)` = the graph
/// exceeded the size budget (estimate-only regime — nothing to replay).
fn build_exact(
    app: &Application,
    platform: &Platform,
    point: ScenarioPoint,
    candidate: &Synthesized,
    transparency: &Transparency,
) -> Result<Option<(FtCpg, ConditionalSchedule)>, ExploreError> {
    let label = point.label();
    let cpg = match build_ftcpg(
        app,
        &candidate.policies,
        &candidate.copies,
        FaultModel::new(point.k),
        transparency,
        BuildConfig::default(),
    ) {
        Ok(cpg) => cpg,
        Err(CpgError::GraphTooLarge { .. }) => return Ok(None),
        Err(e) => return Err(ExploreError::BadConfig(format!("verify {label}: {e}"))),
    };
    let schedule = schedule_ftcpg(app, &cpg, platform, SchedConfig::default())
        .map_err(|e| ExploreError::BadConfig(format!("verify {label}: {e}")))?;
    Ok(Some((cpg, schedule)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite(point_parallelism: usize, threads: usize) -> SuiteConfig {
        SuiteConfig {
            points: vec![
                ScenarioPoint { processes: 8, nodes: 2, k: 1, seed: 0 },
                ScenarioPoint { processes: 10, nodes: 3, k: 2, seed: 1 },
            ],
            portfolio: PortfolioConfig { threads, ..PortfolioConfig::quick(3) },
            point_parallelism,
            slot: Time::new(8),
            verify: None,
            certify: true,
        }
    }

    #[test]
    fn suite_runs_all_points_in_order() {
        let outcome = run_suite(&tiny_suite(1, 1)).unwrap();
        assert_eq!(outcome.points.len(), 2);
        assert_eq!(outcome.points[0].point.processes, 8);
        assert_eq!(outcome.points[1].point.processes, 10);
        for p in &outcome.points {
            assert!(p.worst_case >= p.fault_free);
            assert!(!p.archive.is_empty());
            // Tiny instances fit the FT-CPG budget: every reported winner
            // is exact-certified (possibly after demotion) or refuted —
            // never silently unexamined.
            assert!(
                matches!(p.certified, CertifyVerdict::Certified(_) | CertifyVerdict::Refuted(_)),
                "{}: {:?}",
                p.point.label(),
                p.certified
            );
            if let CertifyVerdict::Certified(exact) = p.certified {
                assert!(p.schedulable, "certified implies schedulable");
                assert!(exact <= p.deadline, "certified exact length meets the deadline");
            }
            // Front tags align with the archive; entries the walk examined
            // carry verdicts (the incumbent itself may sit outside the
            // archive when an objective tie broke to a different key).
            assert_eq!(p.front_certified.len(), p.archive.len());
            assert!(p.evals.evaluations() > 0, "points must report kernel work");
            assert!(p.evals.reused() > 0, "worker kernels must be reused within a point");
        }
    }

    #[test]
    fn certify_guided_points_report_admit_counters() {
        let mut config = tiny_suite(1, 1);
        config.portfolio.certify_guided = true;
        let outcome = run_suite(&config).unwrap();
        assert!(
            outcome.points.iter().any(|p| p.certify_cache.misses > 0),
            "guided points must certify incumbents during the search"
        );
        // Guided incumbents were already gated on exact evidence, so the
        // post-hoc walk never needs to demote past a refuted winner.
        for p in &outcome.points {
            assert!(
                matches!(p.certified, CertifyVerdict::Certified(_)) || p.worst_case > p.deadline,
                "{}: {:?}",
                p.point.label(),
                p.certified
            );
        }
        // The baseline suite has zero admit-cache traffic.
        let baseline = run_suite(&tiny_suite(1, 1)).unwrap();
        assert!(baseline.points.iter().all(|p| p.certify_cache == CacheStats::default()));
    }

    #[test]
    fn certification_off_reports_not_requested() {
        let outcome = run_suite(&SuiteConfig { certify: false, ..tiny_suite(1, 1) }).unwrap();
        for p in &outcome.points {
            assert_eq!(p.certified, CertifyVerdict::NotRequested);
            assert_eq!(p.demoted, 0);
            assert!(p.front_certified.iter().all(Option::is_none));
        }
    }

    #[test]
    fn unsound_or_refuted_winners_are_demoted_not_reported() {
        // Regression: an incumbent whose exact schedule refutes the
        // estimate (or whose fault-injection replay is unsound) must not be
        // reported as the point's winner while a certifiable front entry
        // exists. Sweep a band of seeds so the test keeps pinning the
        // behavior even as search tuning shifts which seeds exhibit the
        // gap; every demoted point must land on a certified-sound winner
        // or ship explicitly tagged.
        let mut demotions = 0;
        for seed in 0..12 {
            let outcome = run_suite(&SuiteConfig {
                points: vec![ScenarioPoint { processes: 10, nodes: 2, k: 2, seed }],
                verify: Some(VerifyConfig { samples: 16, ..VerifyConfig::default() }),
                ..tiny_suite(1, 1)
            })
            .unwrap();
            let p = &outcome.points[0];
            demotions += p.demoted;
            if p.demoted > 0 {
                // A demoted point landed on a front entry with no
                // negative evidence — the headline behavior.
                assert!(p.certified.is_certified(), "{seed}: {:?}", p.certified);
                assert_eq!(p.verified, VerifyOutcome::Sound, "{seed}");
            }
            match (p.certified, p.verified) {
                // Accepted: no negative exact evidence may remain.
                (CertifyVerdict::Certified(_), VerifyOutcome::Sound) => {}
                // All examined candidates failed: the point ships the
                // estimator's winner explicitly tagged, never silently
                // (an exactly-refuted winner's replay is skipped — its
                // deadline miss needs no sampling).
                (CertifyVerdict::Refuted(_), _) | (_, VerifyOutcome::Unsound) => {
                    assert_eq!(p.demoted, 0, "a failed walk reports the tagged incumbent");
                    assert!(!p.schedulable || p.verified == VerifyOutcome::Unsound);
                }
                other => panic!("unexpected verdict pair {other:?}"),
            }
        }
        // The band must actually exercise demotion (seed 10 demotes by 2
        // today); if search tuning ever makes every seed certify or fail
        // first try, widen the band rather than weakening this.
        assert!(demotions >= 1, "the seed band no longer exercises demotion");
    }

    #[test]
    fn streaming_delivers_points_in_order_and_matches_run_suite() {
        let config = tiny_suite(2, 4);
        let mut streamed = Vec::new();
        let outcome = run_suite_streaming(&config, None, |i, p| {
            streamed.push((i, p.point.label(), p.archive.signature()));
        })
        .unwrap()
        .expect("no cancel flag was provided");
        assert_eq!(streamed.len(), outcome.points.len());
        for (at, (i, label, signature)) in streamed.iter().enumerate() {
            assert_eq!(at, *i, "callbacks fire in grid order");
            assert_eq!(*label, outcome.points[at].point.label());
            assert_eq!(*signature, outcome.points[at].archive.signature());
        }
        // Streaming is observationally the plain runner.
        assert_eq!(outcome.signature(), run_suite(&config).unwrap().signature());
    }

    #[test]
    fn a_pre_set_cancel_flag_stops_the_sweep_before_any_point() {
        let cancel = std::sync::atomic::AtomicBool::new(true);
        let mut delivered = 0usize;
        let outcome =
            run_suite_streaming(&tiny_suite(1, 1), Some(&cancel), |_, _| delivered += 1).unwrap();
        assert!(outcome.is_none(), "a cancelled sweep returns no outcome");
        assert_eq!(delivered, 0);
    }

    #[test]
    fn a_failing_point_stops_the_sweep_with_its_error() {
        let good = tiny_suite(1, 1).points[0];
        let config = SuiteConfig {
            points: vec![good, ScenarioPoint { processes: 0, ..good }, good],
            ..tiny_suite(1, 1)
        };
        let mut seen = Vec::new();
        let result = run_suite_streaming(&config, None, |i, _| seen.push(i));
        match result {
            Err(ExploreError::BadConfig(message)) => {
                assert!(message.contains("application has no processes"), "{message}");
            }
            other => {
                panic!("expected the empty workload's error, got {:?}", other.map(|o| o.is_some()))
            }
        }
        assert_eq!(seen, vec![0], "only the point before the failure is delivered");
    }

    #[test]
    fn paper_grid_matches_the_section6_ranges() {
        let grid = paper_grid(2);
        assert_eq!(grid.len(), 10);
        for p in &grid {
            assert!((20..=100).contains(&p.processes));
            assert!((2..=6).contains(&p.nodes));
            assert!((3..=7).contains(&p.k));
        }
    }

    #[test]
    fn point_parallelism_is_observationally_pure() {
        let serial = run_suite(&tiny_suite(1, 1)).unwrap();
        let parallel = run_suite(&tiny_suite(2, 4)).unwrap();
        assert_eq!(serial.signature(), parallel.signature());
    }

    #[test]
    fn verification_reports_sound_incumbents_without_perturbing_archives() {
        let off = run_suite(&tiny_suite(1, 1)).unwrap();
        let on = run_suite(&SuiteConfig {
            verify: Some(VerifyConfig { samples: 16, ..VerifyConfig::default() }),
            ..tiny_suite(1, 1)
        })
        .unwrap();
        // Same archives: verification only demotes *reported* winners; it
        // never perturbs the explored front.
        assert_eq!(off.signature(), on.signature());
        for p in &off.points {
            assert_eq!(p.verified, VerifyOutcome::NotRequested);
        }
        for p in &on.points {
            // Tiny instances fit the FT-CPG budget, so either scenarios
            // were actually replayed, or the reported winner shipped
            // exactly refuted — whose replay is skipped by design (its
            // deadline miss is already known exactly). Never a silent
            // non-verdict.
            let refuted = matches!(p.certified, CertifyVerdict::Refuted(_));
            assert!(
                p.verified.as_bool().is_some() || (refuted && p.verified == VerifyOutcome::Skipped),
                "{}: {:?} / {:?}",
                p.point.label(),
                p.certified,
                p.verified
            );
        }
        // The verdict itself is deterministic across parallelism.
        let again = run_suite(&SuiteConfig {
            verify: Some(VerifyConfig { samples: 16, ..VerifyConfig::default() }),
            ..tiny_suite(2, 4)
        })
        .unwrap();
        let verdicts = |o: &SuiteOutcome| o.points.iter().map(|p| p.verified).collect::<Vec<_>>();
        assert_eq!(verdicts(&on), verdicts(&again));
    }
}
