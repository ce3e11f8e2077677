//! Fast worst-case schedule-length estimation ("root schedule + recovery
//! slack") for use inside the design-optimization loops (paper §6).
//!
//! Exact conditional scheduling explodes combinatorially for the paper's
//! 100-process, k = 7 experiments, so — like the authors' own heuristics —
//! the optimizer evaluates candidate configurations with a two-part bound:
//!
//! 1. **Root schedule**: list-schedule the fault-free scenario, with every
//!    copy (including all active replicas) running its fault-free
//!    checkpointed time `E(n) = C + n(χ + α)`, messages in the sender's
//!    TDMA slots, successors starting when the *first* copy of each
//!    predecessor has delivered.
//! 2. **Recovery slack**: the adversary concentrates all `k` faults on one
//!    process; the slack of a process is the extra delay it suffers when
//!    all `k` faults hit it (for replicated processes, via the adversarial
//!    join analysis), and that delay pushes the process's whole downstream
//!    chain. The estimate is therefore
//!    `max(makespan, max_i (downstream_finish_i + δ_i(k)))`, where
//!    `downstream_finish_i` is the completion of the latest transitive
//!    successor of `i` in the root schedule. Concentrating the budget on
//!    one process dominates splitting it for (super)linear per-fault costs,
//!    and slack on one processor is shared — the same argument behind the
//!    authors' shared recovery slacks.
//!
//! The estimator is a *ranking heuristic* for the optimizer, not a
//! certified bound: the exact schedule tables also pay for multi-process
//! recovery cascades that serialize on a shared CPU, so the estimate is
//! optimistic (increasingly so with `k`). Schedulability of the final
//! configuration is always judged on the exact conditional schedule when
//! one is built. Calibration is measured in `tests/` and EXPERIMENTS.md.
//!
//! The implementation lives in the reusable
//! [`SystemEvaluator`](crate::SystemEvaluator) kernel and its entry points
//! — full (`evaluate`, which anchors a state), commit (`commit`, which
//! moves the anchor along one change set) and neighborhood
//! (`evaluate_changes`, which re-schedules each change set's suffix off
//! one shared schedule-prefix image and leaves the anchor in place); this
//! module
//! keeps the [`Estimate`] value type and the one-shot compatibility
//! wrapper, which constructs a throwaway kernel and runs a single full
//! pass.

use crate::{SchedError, SystemEvaluator};
use ftes_ft::PolicyAssignment;
use ftes_ftcpg::CopyMapping;
use ftes_model::{Application, ProcessId, Time};
use ftes_tdma::Platform;

/// Result of the fast schedule-length estimation.
///
/// `Estimate` is a plain value type — `Copy`, `Hash`, `Ord` — so it can be
/// stored, compared and ordered as is, and serialize into flat CSV/JSON
/// rows without any conversion layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Estimate {
    /// Makespan of the fault-free root schedule.
    pub fault_free_length: Time,
    /// Estimated worst-case schedule length under `k` faults.
    pub worst_case_length: Time,
    /// The process on which the adversary concentrates the faults.
    pub critical_process: ProcessId,
}

impl Estimate {
    /// The fault-tolerance overhead `FTO = (worst − fault_free) /
    /// fault_free`, the paper's Fig. 7/8 metric, in percent.
    pub fn fault_tolerance_overhead(&self, baseline_fault_free: Time) -> f64 {
        if baseline_fault_free <= Time::ZERO {
            return 0.0;
        }
        100.0 * (self.worst_case_length - baseline_fault_free).as_f64()
            / baseline_fault_free.as_f64()
    }

    /// The recovery slack `worst_case − fault_free`: the schedule length the
    /// configuration reserves purely for fault handling.
    pub fn recovery_slack(&self) -> Time {
        self.worst_case_length - self.fault_free_length
    }
}

/// Estimates the worst-case schedule length of a configuration.
///
/// This is the one-shot compatibility wrapper over
/// [`SystemEvaluator`](crate::SystemEvaluator): it constructs a fresh
/// kernel and evaluates once. Hot callers (the optimization loops, the
/// exploration workers, the service) hold a kernel instead and amortize the
/// construction across thousands of evaluations.
///
/// # Errors
///
/// Returns [`SchedError::Tdma`] when a message cannot be scheduled on the
/// bus and [`SchedError::Ft`] when the fault budget can silence a replica
/// set (invalid policy).
///
/// # Examples
///
/// ```
/// use ftes_ft::PolicyAssignment;
/// use ftes_ftcpg::CopyMapping;
/// use ftes_model::{samples, Mapping, Time};
/// use ftes_sched::estimate_schedule_length;
/// use ftes_tdma::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (app, arch) = samples::fig3();
/// let mapping = Mapping::cheapest(&app, &arch)?;
/// let policies = PolicyAssignment::uniform_reexecution(&app, 2);
/// let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)?;
/// let platform = Platform::homogeneous(2, Time::new(8))?;
/// let est = estimate_schedule_length(&app, &platform, &copies, &policies, 2)?;
/// assert!(est.worst_case_length > est.fault_free_length);
/// # Ok(())
/// # }
/// ```
pub fn estimate_schedule_length(
    app: &Application,
    platform: &Platform,
    copies: &CopyMapping,
    policies: &PolicyAssignment,
    k: u32,
) -> Result<Estimate, SchedError> {
    SystemEvaluator::new(app, platform, k).evaluate(copies, policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ft::Policy;
    use ftes_model::{samples, Mapping};

    fn fig3_estimate(k: u32, policies: &PolicyAssignment) -> Estimate {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let copies = CopyMapping::from_base(&app, &arch, &mapping, policies).unwrap();
        let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
        estimate_schedule_length(&app, &platform, &copies, policies, k).unwrap()
    }

    #[test]
    fn fault_free_matches_no_slack() {
        let (app, _) = samples::fig3();
        let policies = PolicyAssignment::uniform_reexecution(&app, 0);
        let est = fig3_estimate(0, &policies);
        assert_eq!(est.fault_free_length, est.worst_case_length);
    }

    #[test]
    fn slack_grows_with_k() {
        let (app, _) = samples::fig3();
        let mut prev = Time::ZERO;
        for k in 1..=4 {
            let policies = PolicyAssignment::uniform_reexecution(&app, k);
            let est = fig3_estimate(k, &policies);
            let slack = est.worst_case_length - est.fault_free_length;
            assert!(slack > prev, "slack must grow with k (k={k})");
            prev = slack;
        }
    }

    #[test]
    fn checkpointing_reduces_estimated_worst_case() {
        // Single heavy process (C = 60, α = µ = 10, χ = 5), k = 5: the
        // checkpointed worst case W(4, 5) = 295 clearly beats re-execution
        // W(0, 5) = 460.
        let (app, arch) = samples::fig1_process(1);
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let platform = Platform::homogeneous(1, Time::new(8)).unwrap();
        let k = 5;
        let est = |policies: &PolicyAssignment| {
            let copies = CopyMapping::from_base(&app, &arch, &mapping, policies).unwrap();
            estimate_schedule_length(&app, &platform, &copies, policies, k).unwrap()
        };
        let e_re = est(&PolicyAssignment::uniform_reexecution(&app, k));
        let e_ck = est(&PolicyAssignment::local_checkpointing(&app, k, 16).unwrap());
        assert_eq!(e_re.worst_case_length, Time::new(460));
        assert!(
            e_ck.worst_case_length < e_re.worst_case_length,
            "checkpointing shrinks recovery slack: {} vs {}",
            e_ck.worst_case_length,
            e_re.worst_case_length
        );
    }

    #[test]
    fn replication_trades_fault_free_for_slack() {
        // Replication needs k+1 distinct nodes; with two nodes use k = 1.
        // P3 is restricted to N1, keep re-execution there.
        let (app, _) = samples::fig3();
        let k = 1;
        let mut repl = PolicyAssignment::uniform_replication(&app, k);
        repl.set(ProcessId::new(2), Policy::reexecution(k));
        let e_rp = fig3_estimate(k, &repl);
        let e_re = fig3_estimate(k, &PolicyAssignment::uniform_reexecution(&app, k));
        // Replication occupies at least as much fault-free schedule (every
        // replica runs even without faults, §3.2) ...
        assert!(e_rp.fault_free_length >= e_re.fault_free_length);
        // ... but absorbs faults with no more slack than re-execution (the
        // second replica is already running when the first dies; here the
        // critical process is P3, which stays re-executed in both configs,
        // so the slacks tie).
        let slack_rp = e_rp.worst_case_length - e_rp.fault_free_length;
        let slack_re = e_re.worst_case_length - e_re.fault_free_length;
        assert!(
            slack_rp <= slack_re,
            "replication slack {slack_rp} must not exceed re-execution slack {slack_re}"
        );
        assert_eq!(e_rp.critical_process, ProcessId::new(2), "P3 dominates the slack");
    }

    #[test]
    fn critical_process_is_the_most_expensive_recovery() {
        let (app, _) = samples::fig3();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let est = fig3_estimate(2, &policies);
        // P3 has the largest WCET (60) => largest re-execution slack.
        assert_eq!(est.critical_process, ProcessId::new(2));
    }

    #[test]
    fn fto_metric() {
        let (app, _) = samples::fig3();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let est = fig3_estimate(2, &policies);
        let nf = fig3_estimate(0, &PolicyAssignment::uniform_reexecution(&app, 0));
        let fto = est.fault_tolerance_overhead(nf.fault_free_length);
        assert!(fto > 0.0);
    }
}
