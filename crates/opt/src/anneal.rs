//! Alternative search engines over the same move space as the tabu search:
//! greedy steepest descent and simulated annealing. These back the search
//! ablation (`fig_ablation_search`): the paper commits to tabu search for
//! MXR \[13\]; the ablation quantifies how much the choice of metaheuristic
//! matters on our workloads.

use crate::search::{objective, Neighborhood};
use crate::{MoveSpace, OptError, PolicyMoves, SearchConfig, Synthesized};
use ftes_model::Application;
use ftes_sched::{Estimate, SystemEvaluator};
use ftes_tdma::Platform;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Objective trace of a search: the best objective value after each
/// iteration (worst-case schedule length units).
pub type SearchTrace = Vec<i64>;

/// Greedy steepest descent: per iteration, sample the neighborhood and take
/// the best move only if it improves the current state; stop early when a
/// full iteration finds no improvement.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn greedy_descent(
    app: &Application,
    platform: &Platform,
    k: u32,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
) -> Result<(Synthesized, SearchTrace), OptError> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut evaluator = SystemEvaluator::new(app, platform, k);
    let space = MoveSpace::new(app, k, policy_moves, config.max_checkpoints);
    let mut hood = Neighborhood::new(&space, &evaluator, &initial);
    evaluator.evaluate(&initial.copies, &initial.policies)?;
    let mut current = initial;
    let mut trace = SearchTrace::with_capacity(config.iterations);
    for _ in 0..config.iterations {
        // Sample the whole neighborhood, then score it in one batch pass.
        hood.sample(&evaluator, &current, config, &mut rng);
        let scores = hood.score(&mut evaluator);
        let mut best_move: Option<(usize, Estimate)> = None;
        for (i, estimate) in scores.iter().enumerate() {
            let Some(estimate) = estimate else { continue };
            let to_beat = best_move.as_ref().map_or(&current.estimate, |(_, b)| b);
            if objective(estimate) < objective(to_beat) {
                best_move = Some((i, *estimate));
            }
        }
        ftes_obs::counter(ftes_obs::names::SEARCH_ITER, 1);
        match best_move {
            Some((i, estimate)) => {
                ftes_obs::counter(ftes_obs::names::SEARCH_ACCEPT, 1);
                hood.accept(&evaluator, i, &mut current, estimate)?;
                // Re-anchor the delta base at the accepted state.
                evaluator.evaluate(&current.copies, &current.policies)?;
            }
            None => {
                ftes_obs::counter(ftes_obs::names::SEARCH_REJECT, 1);
                trace.push(current.estimate.worst_case_length.units());
                break;
            }
        }
        trace.push(current.estimate.worst_case_length.units());
    }
    Ok((current, trace))
}

/// Simulated annealing over the same neighborhood: accept improving moves
/// always, worsening moves with probability `exp(−Δ/T)`, with geometric
/// cooling from an initial temperature proportional to the initial
/// objective.
///
/// Like the portfolio workers in `ftes-explore`, each outer iteration
/// samples its whole neighborhood from the iteration-start state, scores
/// it in one batch pass, then walks the candidates sequentially applying
/// the Metropolis acceptance rule (so `Δ` is measured against the evolving
/// current state). Every candidate is a neighbor of the iteration-start
/// state, so the walk ends on the last accepted candidate.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn simulated_annealing(
    app: &Application,
    platform: &Platform,
    k: u32,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
) -> Result<(Synthesized, SearchTrace), OptError> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut evaluator = SystemEvaluator::new(app, platform, k);
    let space = MoveSpace::new(app, k, policy_moves, config.max_checkpoints);
    let mut hood = Neighborhood::new(&space, &evaluator, &initial);
    evaluator.evaluate(&initial.copies, &initial.policies)?;
    let mut current = initial.clone();
    let mut best = initial;
    let mut trace = SearchTrace::with_capacity(config.iterations);
    // Initial temperature: 5% of the initial objective; floor of 1.
    let mut temperature = (best.estimate.worst_case_length.as_f64() * 0.05).max(1.0);
    let cooling = 0.95f64;
    for _ in 0..config.iterations {
        // Sample and batch-score the neighborhood of the iteration-start
        // state, then apply the acceptance walk over the scored candidates.
        hood.sample(&evaluator, &current, config, &mut rng);
        let scores = hood.score(&mut evaluator);
        let mut walk = current.estimate;
        let mut last_accepted: Option<(usize, Estimate)> = None;
        for (i, estimate) in scores.iter().enumerate() {
            let Some(estimate) = estimate else { continue };
            let delta = (estimate.worst_case_length - walk.worst_case_length).as_f64();
            let accept = delta <= 0.0 || rng.gen_bool((-delta / temperature).exp().min(1.0));
            ftes_obs::counter(ftes_obs::names::SEARCH_ITER, 1);
            ftes_obs::counter(
                if accept {
                    ftes_obs::names::SEARCH_ACCEPT
                } else {
                    ftes_obs::names::SEARCH_REJECT
                },
                1,
            );
            if accept {
                walk = *estimate;
                last_accepted = Some((i, *estimate));
                if objective(estimate) < best.objective() {
                    let mut improved = current.clone();
                    hood.write(&evaluator, i, &mut improved, *estimate)?;
                    best = improved;
                }
            }
        }
        if let Some((i, estimate)) = last_accepted {
            hood.accept(&evaluator, i, &mut current, estimate)?;
            // Re-anchor the delta base at the walk's final state so the
            // next iteration's batch diffs against it.
            evaluator.evaluate(&current.copies, &current.policies)?;
        }
        temperature = (temperature * cooling).max(1e-3);
        trace.push(best.estimate.worst_case_length.units());
    }
    Ok((best, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ft::PolicyAssignment;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::{Mapping, Time};

    fn setup(seed: u64) -> (Application, Platform, Synthesized) {
        let app = generate_application(&GeneratorConfig::new(12, 3), seed).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let initial = Synthesized::evaluate(&app, &platform, mapping, policies, 2).unwrap();
        (app, platform, initial)
    }

    fn cfg(seed: u64) -> SearchConfig {
        SearchConfig { iterations: 20, neighborhood: 10, seed, ..SearchConfig::default() }
    }

    #[test]
    fn greedy_never_worsens_and_trace_is_monotone() {
        let (app, platform, initial) = setup(0);
        let start = initial.objective();
        let (result, trace) =
            greedy_descent(&app, &platform, 2, initial, PolicyMoves::Full, cfg(0)).unwrap();
        assert!(result.objective() <= start);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "greedy trace is non-increasing");
        }
    }

    #[test]
    fn annealing_best_never_worse_than_initial() {
        let (app, platform, initial) = setup(1);
        let start = initial.objective();
        let (result, trace) =
            simulated_annealing(&app, &platform, 2, initial, PolicyMoves::Full, cfg(1)).unwrap();
        assert!(result.objective() <= start);
        assert_eq!(trace.len(), 20);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "best-so-far trace is non-increasing");
        }
        result.policies.validate(2).unwrap();
    }

    #[test]
    fn engines_are_deterministic_in_seed() {
        let (app, platform, initial) = setup(2);
        let (a, ta) =
            simulated_annealing(&app, &platform, 2, initial.clone(), PolicyMoves::Full, cfg(7))
                .unwrap();
        let (b, tb) =
            simulated_annealing(&app, &platform, 2, initial, PolicyMoves::Full, cfg(7)).unwrap();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(ta, tb);
    }
}
