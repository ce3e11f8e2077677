//! The four synthesis strategies compared in the paper's Fig. 7.
//!
//! * **MXR** — the paper's approach \[13\]: tabu search over both mapping and
//!   fault-tolerance policy assignment (re-execution, replication, or a
//!   combination per process).
//! * **MX** — mapping optimized, but policies fixed to re-execution only.
//! * **MR** — mapping optimized, but policies fixed to active replication
//!   only (processes whose mapping restrictions make replication impossible
//!   fall back to re-execution and the fallback count is reported).
//! * **SFX** — the straightforward solution of §1: the mapping is optimized
//!   while *ignoring* fault tolerance, then re-execution is bolted on
//!   without re-optimizing.

use crate::{
    constructive_mapping, search, BestGuard, EngineKind, OptError, PolicyMoves, SearchConfig,
    Synthesized,
};
use ftes_ft::PolicyAssignment;
use ftes_model::Application;
use ftes_sched::SystemEvaluator;
use ftes_tdma::Platform;
use std::fmt;

/// One of the Fig. 7 synthesis strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Mapping + policy assignment optimization (the paper's approach).
    Mxr,
    /// Mapping optimization with re-execution only.
    Mx,
    /// Mapping optimization with active replication only.
    Mr,
    /// Fault-oblivious mapping with re-execution bolted on.
    Sfx,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Mxr => "MXR",
            Strategy::Mx => "MX",
            Strategy::Mr => "MR",
            Strategy::Sfx => "SFX",
        };
        write!(f, "{s}")
    }
}

/// Synthesizes a configuration with the chosen strategy.
///
/// # Errors
///
/// Returns [`OptError::NoFeasibleConfiguration`] when even the fallback
/// initial state cannot be built, and propagates evaluation errors.
///
/// # Examples
///
/// ```
/// use ftes_gen::{generate_application, GeneratorConfig};
/// use ftes_model::Time;
/// use ftes_opt::{synthesize, SearchConfig, Strategy};
/// use ftes_tdma::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = generate_application(&GeneratorConfig::new(20, 3), 7)?;
/// let platform = Platform::homogeneous(3, Time::new(8))?;
/// let cfg = SearchConfig { iterations: 30, ..SearchConfig::default() };
/// let mxr = synthesize(&app, &platform, 2, Strategy::Mxr, cfg)?;
/// let mx = synthesize(&app, &platform, 2, Strategy::Mx, cfg)?;
/// assert!(mxr.estimate.worst_case_length <= mx.estimate.worst_case_length);
/// # Ok(())
/// # }
/// ```
pub fn synthesize(
    app: &Application,
    platform: &Platform,
    k: u32,
    strategy: Strategy,
    config: SearchConfig,
) -> Result<Synthesized, OptError> {
    let mut evaluator = SystemEvaluator::new(app, platform, k);
    synthesize_with(&mut evaluator, strategy, config, None)
}

/// [`synthesize`] over a caller-provided evaluator kernel: the whole
/// multi-phase search (e.g. MXR's MX bootstrap plus the full search)
/// shares one evaluator, and the flow layer can hand in a warm one.
///
/// `guard` (the certify-guided hook, see [`BestGuard`]) guards the
/// strategy's final tabu search: MXR's full search, MX's and MR's mapping
/// search. Bootstrap phases stay unguarded: MXR's MX seed explores plain
/// re-execution mappings, and SFX's phase 1 optimizes a fault-oblivious
/// `k = 0` objective the guard cannot judge, so SFX ignores it.
///
/// # Errors
///
/// Same as [`synthesize`], plus guard failures.
pub fn synthesize_with(
    evaluator: &mut SystemEvaluator,
    strategy: Strategy,
    config: SearchConfig,
    guard: Option<BestGuard<'_>>,
) -> Result<Synthesized, OptError> {
    let k = evaluator.k();
    let (initial, policy_moves) = match strategy {
        // Phase 1: the MX solution (mapping search under re-execution)
        // seeds the full search, so MXR is never worse than MX — the same
        // bootstrapping the authors' heuristic uses.
        Strategy::Mxr => {
            (synthesize_with(evaluator, Strategy::Mx, config, None)?, PolicyMoves::Full)
        }
        Strategy::Mx | Strategy::Mr => {
            let app = evaluator.app();
            let mapping = constructive_mapping(app, evaluator.platform().architecture())?;
            let policies = if strategy == Strategy::Mx {
                PolicyAssignment::uniform_reexecution(app, k)
            } else {
                PolicyAssignment::uniform_replication(app, k)
            };
            (Synthesized::evaluate_with(evaluator, mapping, policies)?, PolicyMoves::None)
        }
        Strategy::Sfx => {
            // Phase 1: fault-oblivious mapping (k = 0 objective) — a
            // different fault budget needs its own kernel.
            let mut no_ft_eval = SystemEvaluator::new(evaluator.app(), evaluator.platform(), 0);
            let mapping =
                constructive_mapping(no_ft_eval.app(), no_ft_eval.platform().architecture())?;
            let no_ft = PolicyAssignment::uniform_reexecution(no_ft_eval.app(), 0);
            let initial = Synthesized::evaluate_with(&mut no_ft_eval, mapping, no_ft)?;
            let (tuned, _) = search(
                &mut no_ft_eval,
                EngineKind::Tabu,
                initial,
                PolicyMoves::None,
                config,
                None,
            )?;
            // Phase 2: bolt re-execution on without re-optimizing.
            let policies = PolicyAssignment::uniform_reexecution(evaluator.app(), k);
            return Synthesized::evaluate_with(evaluator, tuned.mapping, policies);
        }
    };
    Ok(search(evaluator, EngineKind::Tabu, initial, policy_moves, config, guard)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::{samples, Time};

    fn quick_cfg(seed: u64) -> SearchConfig {
        SearchConfig { iterations: 25, neighborhood: 12, seed, ..SearchConfig::default() }
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::Mxr.to_string(), "MXR");
        assert_eq!(Strategy::Sfx.to_string(), "SFX");
    }

    #[test]
    fn mr_works_even_with_restricted_processes() {
        // P3 can only run on N1; MR co-locates its replicas there.
        let (app, arch) = samples::fig3();
        let nodes = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(nodes, Time::new(8)).unwrap()).unwrap();
        let s = synthesize(&app, &platform, 1, Strategy::Mr, quick_cfg(0)).unwrap();
        s.policies.validate(1).unwrap();
        for (_, p) in s.policies.iter() {
            assert_eq!(p.replica_count(), 1, "MR replicates everything");
        }
    }

    #[test]
    fn mxr_dominates_fixed_policies_on_random_instances() {
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let mut mxr_wins = 0;
        for seed in 0..3u64 {
            let app = generate_application(&GeneratorConfig::new(15, 3), seed).unwrap();
            let k = 2;
            let mxr = synthesize(&app, &platform, k, Strategy::Mxr, quick_cfg(seed)).unwrap();
            let mx = synthesize(&app, &platform, k, Strategy::Mx, quick_cfg(seed)).unwrap();
            let mr = synthesize(&app, &platform, k, Strategy::Mr, quick_cfg(seed)).unwrap();
            // MXR's search space contains MX's and starts from the same
            // initial state, so it can only be at least as good.
            assert!(mxr.estimate.worst_case_length <= mx.estimate.worst_case_length);
            if mxr.estimate.worst_case_length < mr.estimate.worst_case_length {
                mxr_wins += 1;
            }
        }
        assert!(mxr_wins >= 2, "MXR beats MR on most random instances");
    }

    #[test]
    fn sfx_is_no_better_than_mxr_on_average() {
        // SFX maps while ignoring fault tolerance; on average the FT-aware
        // MXR must do at least as well (the §1 motivation for design
        // optimization). Individual seeds may tie.
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let mut sfx_total = 0i64;
        let mut mxr_total = 0i64;
        for seed in 0..4u64 {
            let app = generate_application(&GeneratorConfig::new(15, 3), seed).unwrap();
            let sfx = synthesize(&app, &platform, 2, Strategy::Sfx, quick_cfg(seed)).unwrap();
            let mxr = synthesize(&app, &platform, 2, Strategy::Mxr, quick_cfg(seed)).unwrap();
            sfx_total += sfx.estimate.worst_case_length.units();
            mxr_total += mxr.estimate.worst_case_length.units();
        }
        // Allow 2% slack: with the tiny unit-test search budget the two
        // heuristics can land within noise of each other; the full-budget
        // Fig. 7 harness measures the real gap.
        assert!(
            (mxr_total as f64) <= (sfx_total as f64) * 1.02,
            "MXR avg {mxr_total} vs SFX avg {sfx_total}"
        );
    }

    #[test]
    fn synthesized_configurations_tolerate_k() {
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let app = generate_application(&GeneratorConfig::new(12, 3), 5).unwrap();
        for strategy in [Strategy::Mxr, Strategy::Mx, Strategy::Mr, Strategy::Sfx] {
            let s = synthesize(&app, &platform, 2, strategy, quick_cfg(1)).unwrap();
            s.policies.validate(2).unwrap();
        }
    }
}
