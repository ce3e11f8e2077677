//! The certify-and-repair loop: exact certification of search incumbents,
//! with bounded calibrated re-search when certification refutes them.
//!
//! The searches in this crate optimize against the fast root-schedule
//! estimator, which is optimistic relative to the exact conditional
//! schedule — so an incumbent whose *estimated* worst case meets the
//! deadline can still be unschedulable in the exact schedule tables. The
//! loop here closes that gap:
//!
//! 1. synthesize an incumbent with the chosen strategy (estimator-driven,
//!    unchanged);
//! 2. certify it on the exact conditional schedule through a
//!    [`Certifier`] (memoized, work-budgeted);
//! 3. on refutation, fold the observed `exact / estimate` ratio into the
//!    search's acceptance (see `SearchConfig::calibration_milli`) and
//!    re-search from the refuted incumbent with a re-derived seed — the
//!    calibrated objective now sorts configurations predicted
//!    unschedulable *after* every predicted-schedulable one, steering the
//!    search back toward the certified-feasible frontier;
//! 4. repeat up to [`RepairConfig::max_rounds`] times; if no round
//!    certifies, return the refuted incumbent with the smallest exact
//!    length, explicitly tagged.
//!
//! Instances whose FT-CPG exceeds the size budget short-circuit to the
//! estimate-only regime (the paper's large-scale experiments) — there is
//! no exact schedule to certify against, and the outcome says so.

use crate::{
    search, synthesize_with, BestGuard, EngineKind, OptError, PolicyMoves, SearchConfig, Strategy,
    Synthesized,
};
use ftes_model::Time;
use ftes_sched::{CertOutcome, Certifier, SystemEvaluator};

/// Tunables of the certify-and-repair loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// Calibrated re-searches allowed after a refuted certification. Zero
    /// disables repair (incumbents are still certified and tagged).
    pub max_rounds: u32,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig { max_rounds: 2 }
    }
}

/// When exact certification runs relative to the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CertifyMode {
    /// Certify the finished incumbent only, repairing refutations by
    /// calibrated re-search — the classic loop.
    #[default]
    PostHoc,
    /// Certify incumbents *while* the search runs: a candidate whose
    /// estimate meets the deadline may only displace the search's best
    /// after an incremental, bounded certification admits it (refuted
    /// states are demoted during the search, so the returned incumbent is
    /// already certified and the post-hoc loop usually answers from the
    /// verdict memo with zero repair rounds).
    Guided,
}

/// Result of a certified synthesis: the incumbent plus its exact verdict.
#[derive(Debug, Clone)]
pub struct CertifiedSynthesis {
    /// The returned incumbent. When `outcome` is certified this is the
    /// first configuration that passed exact certification; when refuted
    /// it is the refuted configuration with the smallest exact length.
    pub best: Synthesized,
    /// The incumbent's exact verdict.
    pub outcome: CertOutcome,
    /// Calibrated repair searches actually run.
    pub repair_rounds: u32,
    /// Final calibration factor (milli-units; 1000 = estimator never
    /// under-priced an incumbent on this instance).
    pub calibration_milli: u64,
}

/// [`synthesize_with`](crate::synthesize_with) followed by the
/// certify-and-repair loop: the returned incumbent is exact-certified
/// schedulable, or explicitly tagged with its exact verdict when repair
/// rounds (or the certifier's budget) ran out. `mode` picks where the
/// certification runs: `PostHoc` is the classic loop, `Guided` threads an
/// incremental bounded certification guard through the search itself (see
/// [`CertifyMode::Guided`]).
///
/// The certifier must be built for the same `(app, platform, k)` instance
/// as the evaluator; transparency lives in the certifier.
///
/// # Panics
///
/// Panics if the certifier and evaluator disagree on the fault budget
/// (a caller bug, not an input error).
///
/// # Errors
///
/// Propagates search errors and hard certification failures (anything but
/// size/work-budget overruns, which degrade to
/// [`CertOutcome::OverBudget`]).
pub fn synthesize_certified(
    evaluator: &mut SystemEvaluator,
    certifier: &mut Certifier,
    strategy: Strategy,
    config: SearchConfig,
    repair: RepairConfig,
    mode: CertifyMode,
) -> Result<CertifiedSynthesis, OptError> {
    assert_eq!(evaluator.k(), certifier.k(), "certifier built for a different fault budget");
    let deadline = evaluator.app().deadline();
    let mut incumbent = synthesize_with(
        evaluator,
        strategy,
        config,
        certify_guard(mode, certifier, deadline).as_mut().map(|guard| guard as BestGuard<'_>),
    )?;
    // Only MXR explores policies; the fixed-policy strategies repair by
    // remapping alone, mirroring their original search space.
    let policy_moves =
        if strategy == Strategy::Mxr { PolicyMoves::Full } else { PolicyMoves::None };

    let mut rounds = 0u32;
    let mut best_refuted: Option<(Synthesized, Time)> = None;
    loop {
        match certifier
            .certify(&incumbent.copies, &incumbent.policies)
            .map_err(certify_to_opt_error)?
        {
            CertOutcome::Exact { exact_len, deadline_met } => {
                certifier.record_estimate(exact_len, incumbent.estimate.worst_case_length);
                if deadline_met {
                    return Ok(CertifiedSynthesis {
                        best: incumbent,
                        outcome: CertOutcome::Exact { exact_len, deadline_met },
                        repair_rounds: rounds,
                        calibration_milli: certifier.calibration_milli(),
                    });
                }
                let better = best_refuted.as_ref().is_none_or(|&(_, len)| exact_len < len);
                if better {
                    best_refuted = Some((incumbent.clone(), exact_len));
                }
            }
            CertOutcome::OverBudget => {
                // Estimate-only regime (or exhausted certifier): nothing
                // exact to repair against; return the best refuted
                // configuration if one was measured, else the incumbent.
                let (best, outcome) = match best_refuted {
                    Some((refuted, len)) => {
                        (refuted, CertOutcome::Exact { exact_len: len, deadline_met: false })
                    }
                    None => (incumbent, CertOutcome::OverBudget),
                };
                return Ok(CertifiedSynthesis {
                    best,
                    outcome,
                    repair_rounds: rounds,
                    calibration_milli: certifier.calibration_milli(),
                });
            }
        }
        if rounds >= repair.max_rounds {
            let (best, exact_len) = best_refuted.expect("refuted at least once to get here");
            return Ok(CertifiedSynthesis {
                best,
                outcome: CertOutcome::Exact { exact_len, deadline_met: false },
                repair_rounds: rounds,
                calibration_milli: certifier.calibration_milli(),
            });
        }
        rounds += 1;
        ftes_obs::counter(ftes_obs::names::REPAIR_ROUND, 1);
        // Calibrated repair search from the refuted incumbent: a fresh
        // seed per round (golden-ratio mix keeps rounds decorrelated but
        // deterministic), acceptance inflating estimates by the measured
        // factor. When the refutation came from estimator under-pricing
        // the start state is itself penalized under the calibrated
        // objective (its inflated estimate exceeds the deadline), so any
        // predicted-schedulable configuration displaces it. Refutations
        // the factor cannot model — a missed *local* deadline, or the
        // pessimistic-inversion tail where exact ≤ estimate — leave the
        // calibration at 1, and the round repairs by reseeded
        // diversification alone.
        let cfg = SearchConfig {
            seed: config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rounds as u64),
            calibration_milli: certifier.calibration_milli(),
            ..config
        };
        let mut guard = certify_guard(mode, certifier, deadline);
        let guard = guard.as_mut().map(|guard| guard as BestGuard<'_>);
        incumbent = search(evaluator, EngineKind::Tabu, incumbent, policy_moves, cfg, guard)?.0;
    }
}

/// The certify-guided admission guard, in [`CertifyMode::Guided`] only:
/// [`Certifier::admits`] on every candidate that would displace the
/// search's best, demoting refuted states during the search.
fn certify_guard(
    mode: CertifyMode,
    certifier: &mut Certifier,
    deadline: Time,
) -> Option<impl FnMut(&Synthesized) -> Result<bool, OptError> + '_> {
    (mode == CertifyMode::Guided).then_some(move |cand: &Synthesized| {
        let estimate = cand.estimate.worst_case_length;
        certifier
            .admits(&cand.copies, &cand.policies, estimate, deadline)
            .map_err(certify_to_opt_error)
    })
}

/// Maps hard certification failures onto [`OptError`] (graph and schedule
/// layers already have variants there).
fn certify_to_opt_error(e: ftes_sched::CertifyError) -> OptError {
    match e {
        ftes_sched::CertifyError::Cpg(e) => OptError::Cpg(e),
        ftes_sched::CertifyError::Sched(e) => OptError::Sched(e),
        // `CertifyError` is non-exhaustive; future variants surface as an
        // infeasibility with the full message rather than being swallowed.
        other => OptError::NoFeasibleConfiguration(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ftcpg::BuildConfig;
    use ftes_model::{samples, FaultModel, Time, Transparency};
    use ftes_sched::{CertifyConfig, SystemEvaluator};
    use ftes_tdma::Platform;

    fn fig3_setup(k: u32) -> (SystemEvaluator, Certifier) {
        let (app, arch) = samples::fig3();
        let nodes = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(nodes, Time::new(8)).unwrap()).unwrap();
        let evaluator = SystemEvaluator::new(&app, &platform, k);
        let certifier = Certifier::new(
            &app,
            &platform,
            FaultModel::new(k),
            &Transparency::none(),
            CertifyConfig::default(),
        );
        (evaluator, certifier)
    }

    fn quick() -> SearchConfig {
        SearchConfig { iterations: 20, neighborhood: 10, ..SearchConfig::default() }
    }

    #[test]
    fn feasible_instances_certify_without_repair() {
        let (mut evaluator, mut certifier) = fig3_setup(2);
        let result = synthesize_certified(
            &mut evaluator,
            &mut certifier,
            Strategy::Mxr,
            quick(),
            RepairConfig::default(),
            CertifyMode::PostHoc,
        )
        .unwrap();
        assert!(result.outcome.is_certified(), "{:?}", result.outcome);
        assert_eq!(result.repair_rounds, 0);
        assert!(result.outcome.exact_len().is_some());
        assert!(result.calibration_milli >= 1000);
        result.best.policies.validate(2).unwrap();
    }

    #[test]
    fn oversized_graphs_degrade_to_the_estimate_only_regime() {
        let (mut evaluator, _) = fig3_setup(2);
        let (app, arch) = samples::fig3();
        let nodes = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(nodes, Time::new(8)).unwrap()).unwrap();
        let mut certifier = Certifier::new(
            &app,
            &platform,
            FaultModel::new(2),
            &Transparency::none(),
            CertifyConfig { cpg: BuildConfig { node_limit: 2 }, ..CertifyConfig::default() },
        );
        let result = synthesize_certified(
            &mut evaluator,
            &mut certifier,
            Strategy::Mxr,
            quick(),
            RepairConfig::default(),
            CertifyMode::PostHoc,
        )
        .unwrap();
        assert_eq!(result.outcome, CertOutcome::OverBudget);
        assert_eq!(result.repair_rounds, 0);
        assert_eq!(result.calibration_milli, 1000);
    }

    #[test]
    fn repair_is_bounded_and_deterministic() {
        let (mut evaluator, mut certifier) = fig3_setup(2);
        let repair = RepairConfig { max_rounds: 1 };
        let a = synthesize_certified(
            &mut evaluator,
            &mut certifier,
            Strategy::Mxr,
            quick(),
            repair,
            CertifyMode::PostHoc,
        )
        .unwrap();
        let (mut evaluator, mut certifier) = fig3_setup(2);
        let b = synthesize_certified(
            &mut evaluator,
            &mut certifier,
            Strategy::Mxr,
            quick(),
            repair,
            CertifyMode::PostHoc,
        )
        .unwrap();
        assert_eq!(a.best.estimate, b.best.estimate);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.repair_rounds, b.repair_rounds);
        assert!(a.repair_rounds <= 1);
    }

    fn generated_setup(seed: u64) -> (SystemEvaluator, Certifier) {
        let app =
            ftes_gen::generate_application(&ftes_gen::GeneratorConfig::new(10, 3), seed).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let evaluator = SystemEvaluator::new(&app, &platform, 1);
        let certifier = Certifier::new(
            &app,
            &platform,
            FaultModel::new(1),
            &Transparency::none(),
            CertifyConfig::default(),
        );
        (evaluator, certifier)
    }

    #[test]
    fn guided_mode_certifies_incumbents_during_the_search() {
        // A generated instance whose deadline the search can meet: improving
        // candidates look schedulable, so the guard certifies them on
        // acceptance — incrementally, against the certifier's anchor — and
        // the final post-hoc check answers from the verdict memo.
        let (mut evaluator, mut certifier) = generated_setup(0);
        let cfg = SearchConfig { iterations: 25, neighborhood: 12, ..SearchConfig::default() };
        let result = synthesize_certified(
            &mut evaluator,
            &mut certifier,
            Strategy::Mxr,
            cfg,
            RepairConfig::default(),
            CertifyMode::Guided,
        )
        .unwrap();
        assert!(result.outcome.is_certified(), "{:?}", result.outcome);
        assert_eq!(result.repair_rounds, 0, "guided incumbents are already certified");
        let stats = certifier.stats();
        assert!(stats.cache_hits > 0, "post-hoc check must hit the memo: {stats:?}");
        assert!(stats.incremental_builds > 0, "guided runs rebuild from the anchor: {stats:?}");
        result.best.policies.validate(1).unwrap();
    }

    #[test]
    fn guided_mode_is_deterministic() {
        let cfg = SearchConfig { iterations: 25, neighborhood: 12, ..SearchConfig::default() };
        let run = || {
            let (mut evaluator, mut certifier) = generated_setup(3);
            synthesize_certified(
                &mut evaluator,
                &mut certifier,
                Strategy::Mxr,
                cfg,
                RepairConfig::default(),
                CertifyMode::Guided,
            )
            .map(|r| {
                let s = certifier.stats();
                // Everything but wall-clock must replay exactly.
                let counters =
                    (s.requests, s.cache_hits, s.exact_runs, s.incremental_builds, s.pruned_runs);
                (r.best.estimate, r.outcome, r.repair_rounds, counters)
            })
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
