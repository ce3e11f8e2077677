//! Global checkpoint-count optimization (paper §6, Fig. 8; technique of
//! \[15\]).
//!
//! The baseline of Fig. 8 computes the optimal number of checkpoints for
//! each process *in isolation* with the closed form of Punnekkat et al.
//! \[27\] ([`ftes_ft::RecoveryScheme::optimal_checkpoints_local`]). That
//! local optimum minimizes the process's own worst-case time but ignores
//! the schedule: checkpoints of processes off the critical path inflate the
//! fault-free schedule without buying recovery slack where it matters.
//!
//! The global optimizer starts from the local optimum and greedily applies
//! ±1-checkpoint moves, accepting whichever move most reduces the
//! *estimated worst-case schedule length* of the whole application, until
//! no move improves (or the iteration cap is reached).

use crate::search::objective;
use crate::{OptError, Synthesized};
use ftes_ft::{Policy, PolicyAssignment};
use ftes_ftcpg::{ChangeSets, CopyMapping};
use ftes_model::{Application, Mapping};
use ftes_sched::{Estimate, SystemEvaluator};
use ftes_tdma::Platform;

/// Result of the checkpoint-optimization comparison for one instance.
#[derive(Debug, Clone)]
pub struct CheckpointComparison {
    /// Configuration using the per-process local optimum \[27\].
    pub local: Synthesized,
    /// Configuration after global optimization \[15\].
    pub global: Synthesized,
}

impl CheckpointComparison {
    /// Percentage improvement of the global optimization over the local
    /// baseline, measured on the worst-case schedule length — the "average
    /// % deviation" series of Fig. 8.
    pub fn improvement_percent(&self) -> f64 {
        let base = self.local.estimate.worst_case_length.as_f64();
        if base <= 0.0 {
            return 0.0;
        }
        100.0 * (base - self.global.estimate.worst_case_length.as_f64()) / base
    }
}

/// Builds the local-optimum checkpointing configuration (\[27\], the Fig. 8
/// baseline) on a fixed mapping.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn checkpointing_local(
    app: &Application,
    platform: &Platform,
    mapping: Mapping,
    k: u32,
    max_checkpoints: u32,
) -> Result<Synthesized, OptError> {
    let policies = PolicyAssignment::local_checkpointing(app, k, max_checkpoints)?;
    Synthesized::evaluate(app, platform, mapping, policies, k)
}

/// Globally optimizes checkpoint counts starting from `initial`
/// (greedy steepest descent over ±1 moves, \[15\]).
///
/// Only single-copy checkpointing policies are touched; replicated
/// processes keep their plans.
///
/// # Panics
///
/// Panics if `initial.copies` is not the [`CopyMapping::from_base`]
/// placement of its mapping and policies, as every [`Synthesized`]
/// constructor builds it (a caller bug: the descent reuses that placement
/// for every candidate).
///
/// # Errors
///
/// Propagates evaluation errors: the first failing candidate of a step, in
/// candidate order.
pub fn optimize_checkpoints_global(
    app: &Application,
    platform: &Platform,
    initial: Synthesized,
    k: u32,
    max_checkpoints: u32,
    max_iterations: usize,
) -> Result<Synthesized, OptError> {
    let derived =
        CopyMapping::from_base(app, platform.architecture(), &initial.mapping, &initial.policies)?;
    assert_eq!(derived, initial.copies, "descent states carry their derived copy placement");
    // One kernel for the whole descent. Placement load counts WCETs only,
    // so a one-copy policy change moves no copy row: each step scores its
    // ±1-checkpoint candidates as one batch of policy-only change sets over
    // the accepted state, and commits the one it accepts.
    let mut evaluator = SystemEvaluator::new(app, platform, k);
    evaluator.evaluate(&initial.copies, &initial.policies)?;
    let mut best = initial;
    for _ in 0..max_iterations {
        let mut moves = Vec::new();
        for (pid, _) in app.processes() {
            let policy = best.policies.policy(pid);
            if policy.copies().len() != 1 {
                continue;
            }
            let plan = policy.copies()[0];
            for delta in [-1i64, 1] {
                let x = plan.checkpoints as i64 + delta;
                if x < 0 || x > i64::from(max_checkpoints) {
                    continue;
                }
                moves.push((pid, Policy::checkpointing(plan.recoveries, x as u32)));
            }
        }
        let mut sets = ChangeSets::new();
        for (pid, policy) in &moves {
            sets.push(*pid, best.copies.copies_of(*pid), Some(policy));
            sets.close();
        }
        let mut improved: Option<(usize, Estimate)> = None;
        for (i, estimate) in evaluator.evaluate_changes(&sets).into_iter().enumerate() {
            let estimate = estimate?;
            let to_beat = improved.map_or(best.estimate, |(_, chosen)| chosen);
            if objective(&estimate) < objective(&to_beat) {
                improved = Some((i, estimate));
            }
        }
        let Some((i, estimate)) = improved else { break };
        // Move the kernel's anchor along the accepted change set.
        let committed = evaluator.commit(sets.get(i))?;
        debug_assert_eq!(committed, estimate, "a commit scores as its batch did");
        let (pid, policy) = moves.swap_remove(i);
        best.policies.set(pid, policy);
        best.estimate = estimate;
    }
    Ok(best)
}

/// Runs the full Fig. 8 comparison on one instance: local baseline \[27\] vs
/// global optimization \[15\], on the same mapping.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn compare_checkpointing(
    app: &Application,
    platform: &Platform,
    mapping: Mapping,
    k: u32,
    max_checkpoints: u32,
) -> Result<CheckpointComparison, OptError> {
    let local = checkpointing_local(app, platform, mapping, k, max_checkpoints)?;
    let global = optimize_checkpoints_global(app, platform, local.clone(), k, max_checkpoints, 64)?;
    Ok(CheckpointComparison { local, global })
}

/// Fault-tolerance overhead of a configuration relative to a fault-free
/// baseline length: `FTO = (worst − baseline) / baseline · 100%` (the
/// Fig. 7/8 metric).
pub fn fault_tolerance_overhead(s: &Synthesized, baseline_fault_free: ftes_model::Time) -> f64 {
    s.estimate.fault_tolerance_overhead(baseline_fault_free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::{samples, ProcessId, Time};

    #[test]
    fn global_never_worse_than_local() {
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        for seed in 0..4u64 {
            let app = generate_application(&GeneratorConfig::new(20, 3), seed).unwrap();
            let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
            let cmp = compare_checkpointing(&app, &platform, mapping, 3, 16).unwrap();
            assert!(
                cmp.global.estimate.worst_case_length <= cmp.local.estimate.worst_case_length,
                "greedy descent can only improve (seed {seed})"
            );
            assert!(cmp.improvement_percent() >= 0.0);
            cmp.global.policies.validate(3).unwrap();
        }
    }

    #[test]
    fn global_optimization_finds_improvements_somewhere() {
        // Across a handful of instances, the global pass should strictly
        // improve at least one (the Fig. 8 effect).
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let mut improvements = 0;
        for seed in 0..6u64 {
            let app = generate_application(&GeneratorConfig::new(25, 3), seed).unwrap();
            let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
            let cmp = compare_checkpointing(&app, &platform, mapping, 3, 16).unwrap();
            if cmp.improvement_percent() > 0.0 {
                improvements += 1;
            }
        }
        assert!(improvements > 0, "global checkpointing must beat local somewhere");
    }

    #[test]
    fn replicated_processes_are_left_alone() {
        let (app, arch) = samples::fig3();
        let node_count = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(node_count, Time::new(8)).unwrap())
                .unwrap();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let k = 1;
        let mut policies = PolicyAssignment::local_checkpointing(&app, k, 8).unwrap();
        policies.set(ProcessId::new(0), Policy::replication(k));
        let initial = Synthesized::evaluate(&app, &platform, mapping, policies, k).unwrap();
        let out = optimize_checkpoints_global(&app, &platform, initial, k, 8, 16).unwrap();
        assert_eq!(out.policies.policy(ProcessId::new(0)).replica_count(), 1);
    }

    #[test]
    fn fto_helper_matches_estimate() {
        let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
        let (app, _) = samples::fig3();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let s = checkpointing_local(&app, &platform, mapping, 2, 8).unwrap();
        let fto = fault_tolerance_overhead(&s, s.estimate.fault_free_length);
        assert!(fto >= 0.0);
    }
}
