//! Fault-tolerance policy assignment (paper §4, Fig. 4): the four functions
//! `P` (policy kind), `Q` (replica count), `R` (recoveries per copy) and `X`
//! (checkpoints per copy), folded into one validated [`Policy`] value per
//! process.

use crate::{FtError, RecoveryScheme};
use ftes_model::{Application, ProcessId, Time};

/// The policy kind `P(Pi)` of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Time redundancy only: rollback recovery with checkpointing
    /// (re-execution is the single-checkpoint special case, §3.1).
    Checkpointing,
    /// Space redundancy only: active replication (§3.2).
    Replication,
    /// Both: replicated copies that may themselves be checkpointed (Fig. 4c).
    ReplicationAndCheckpointing,
}

/// Fault-tolerance plan for one copy (the original or a replica) of a
/// process: how many recoveries `R` it may perform and with how many
/// checkpoints `X` it runs.
///
/// `checkpoints = 0` encodes `X(Pi) = 0` (§4): the copy is not
/// checkpointed; a recovery restores the initial inputs and re-executes the
/// whole process (plain re-execution, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CopyPlan {
    /// Number of recoveries `R` this copy may perform (faults it absorbs).
    pub recoveries: u32,
    /// Number of checkpoints `X` (= execution segments).
    pub checkpoints: u32,
}

impl CopyPlan {
    /// A copy that is never recovered (pure replica, Fig. 4b: `R = 0`,
    /// `X = 0`).
    pub const fn plain() -> Self {
        CopyPlan { recoveries: 0, checkpoints: 0 }
    }

    /// A copy recovering up to `recoveries` times at re-execution
    /// granularity (`X = 0`).
    pub const fn reexecuted(recoveries: u32) -> Self {
        CopyPlan { recoveries, checkpoints: 0 }
    }

    /// A checkpointed copy.
    pub const fn checkpointed(recoveries: u32, checkpoints: u32) -> Self {
        CopyPlan { recoveries, checkpoints }
    }

    /// Worst-case execution length of this copy under `scheme`.
    pub fn worst_case_time(self, scheme: RecoveryScheme) -> Time {
        scheme.worst_case_time(self.checkpoints, self.recoveries)
    }
}

/// The complete fault-tolerance policy of one process: one [`CopyPlan`] per
/// copy (original + `Q` replicas).
///
/// A policy *tolerates* `k` faults iff an adversary distributing `k` faults
/// over the copies cannot kill them all: copy `j` dies only after
/// `rj + 1` faults, so the policy survives iff `Σ(rj + 1) > k`
/// (equivalently `Q + Σrj ≥ k`). For the paper's canonical assignments:
///
/// * pure checkpointing (Fig. 4a): 1 copy, `r = k` — tolerates `k`;
/// * pure replication (Fig. 4b): `k + 1` copies, `r = 0` — tolerates `k`;
/// * combined (Fig. 4c, `k = 2`): 2 copies with `r = {0, 1}` — tolerates 2.
///
/// # Examples
///
/// ```
/// use ftes_ft::{CopyPlan, Policy};
///
/// let fig4c = Policy::from_copies(vec![
///     CopyPlan::plain(),
///     CopyPlan::checkpointed(1, 2),
/// ]).expect("at least one copy");
/// assert!(fig4c.tolerates(2));
/// assert!(!fig4c.tolerates(3));
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Policy {
    copies: Vec<CopyPlan>,
}

// `clone_from` reuses the copy-plan storage (a derived `Clone` would
// reallocate): search kernels overwrite policies in place per candidate.
impl Clone for Policy {
    fn clone(&self) -> Self {
        Policy { copies: self.copies.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.copies.clone_from(&source.copies);
    }
}

impl Policy {
    /// Pure checkpointing: one copy with `recoveries` recoveries and
    /// `checkpoints` checkpoints (Fig. 4a). `checkpoints = 0` degenerates to
    /// plain re-execution.
    pub fn checkpointing(recoveries: u32, checkpoints: u32) -> Self {
        Policy { copies: vec![CopyPlan::checkpointed(recoveries, checkpoints)] }
    }

    /// Pure re-execution: one copy, `recoveries` recoveries, no checkpoints.
    pub fn reexecution(recoveries: u32) -> Self {
        Policy { copies: vec![CopyPlan::reexecuted(recoveries)] }
    }

    /// Pure active replication tolerating `k` faults: `k + 1` plain copies
    /// (Fig. 4b).
    pub fn replication(k: u32) -> Self {
        Policy { copies: vec![CopyPlan::plain(); (k + 1) as usize] }
    }

    /// Arbitrary combination (Fig. 4c): explicit per-copy plans.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::NoCopies`] for an empty list.
    pub fn from_copies(copies: Vec<CopyPlan>) -> Result<Self, FtError> {
        if copies.is_empty() {
            return Err(FtError::NoCopies);
        }
        Ok(Policy { copies })
    }

    /// The policy kind `P(Pi)`.
    pub fn kind(&self) -> PolicyKind {
        let replicated = self.copies.len() > 1;
        let checkpointed = self.copies.iter().any(|c| c.recoveries > 0);
        match (replicated, checkpointed) {
            (true, true) => PolicyKind::ReplicationAndCheckpointing,
            (true, false) => PolicyKind::Replication,
            _ => PolicyKind::Checkpointing,
        }
    }

    /// The replica count `Q(Pi)` (copies beyond the original).
    pub fn replica_count(&self) -> u32 {
        (self.copies.len() - 1) as u32
    }

    /// The per-copy plans (index 0 is the original process).
    pub fn copies(&self) -> &[CopyPlan] {
        &self.copies
    }

    /// Total faults the policy can absorb before all copies are dead:
    /// `Σ(rj + 1) − 1`.
    pub fn tolerated_faults(&self) -> u32 {
        self.copies.iter().map(|c| c.recoveries + 1).sum::<u32>() - 1
    }

    /// Returns `true` if the policy tolerates `k` faults.
    pub fn tolerates(&self, k: u32) -> bool {
        self.tolerated_faults() >= k
    }

    /// Validates the policy against a fault budget.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::InsufficientPolicy`] if `k` faults can kill every
    /// copy.
    pub fn validate(&self, k: u32) -> Result<(), FtError> {
        if !self.tolerates(k) {
            return Err(FtError::InsufficientPolicy { k, tolerated: self.tolerated_faults() });
        }
        Ok(())
    }

    /// Worst-case completion time of the *slowest copy* under `scheme`
    /// (with active replication all copies run even without faults, §3.2,
    /// so the slowest copy bounds the process's contribution to the
    /// schedule when copies run in parallel on distinct nodes).
    pub fn worst_case_copy_time(&self, scheme: RecoveryScheme) -> Time {
        self.copies.iter().map(|c| c.worst_case_time(scheme)).max().unwrap_or(Time::ZERO)
    }
}

/// The per-process policy assignment `F = <P, Q, R, X>` for a whole
/// application (§6).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct PolicyAssignment {
    policies: Vec<Policy>,
}

// Forwards `clone_from` to every policy, so re-anchoring an evaluator on a
// new assignment reuses the old one's storage.
impl Clone for PolicyAssignment {
    fn clone(&self) -> Self {
        PolicyAssignment { policies: self.policies.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.policies.clone_from(&source.policies);
    }
}

impl PolicyAssignment {
    /// Wraps one policy per process.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::AssignmentArityMismatch`] if the count differs
    /// from the application's process count.
    pub fn new(app: &Application, policies: Vec<Policy>) -> Result<Self, FtError> {
        if policies.len() != app.process_count() {
            return Err(FtError::AssignmentArityMismatch {
                got: policies.len(),
                expected: app.process_count(),
            });
        }
        Ok(PolicyAssignment { policies })
    }

    /// Every process re-executed up to `k` times (the paper's MX strategy).
    pub fn uniform_reexecution(app: &Application, k: u32) -> Self {
        PolicyAssignment { policies: vec![Policy::reexecution(k); app.process_count()] }
    }

    /// Every process actively replicated `k` times (the MR strategy).
    pub fn uniform_replication(app: &Application, k: u32) -> Self {
        PolicyAssignment { policies: vec![Policy::replication(k); app.process_count()] }
    }

    /// Every process checkpointed with its local optimum \[27\] for `k` faults
    /// on its cheapest node — the Fig. 8 baseline.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::InvalidDuration`] if a process has degenerate
    /// WCET/overheads (cannot happen for a validated application).
    pub fn local_checkpointing(
        app: &Application,
        k: u32,
        max_checkpoints: u32,
    ) -> Result<Self, FtError> {
        let mut policies = Vec::with_capacity(app.process_count());
        for (_, p) in app.processes() {
            let wcet = p
                .candidate_nodes()
                .filter_map(|n| p.wcet_on(n))
                .min()
                .expect("validated application has a feasible node");
            let scheme = RecoveryScheme::for_process(p, wcet)?;
            let n = scheme.optimal_checkpoints_local(k, max_checkpoints);
            policies.push(Policy::checkpointing(k, n));
        }
        Ok(PolicyAssignment { policies })
    }

    /// The policy of one process.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn policy(&self, p: ProcessId) -> &Policy {
        &self.policies[p.index()]
    }

    /// Replaces the policy of one process.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set(&mut self, p: ProcessId, policy: Policy) {
        self.policies[p.index()] = policy;
    }

    /// Replaces the policy of one process with a copy of `policy`, reusing
    /// the replaced policy's storage.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_from(&mut self, p: ProcessId, policy: &Policy) {
        self.policies[p.index()].clone_from(policy);
    }

    /// Iterator over `(ProcessId, &Policy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &Policy)> {
        self.policies.iter().enumerate().map(|(i, p)| (ProcessId::new(i), p))
    }

    /// Validates every process policy against the fault budget `k`.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::ProcessPolicy`] naming the first offending
    /// process.
    pub fn validate(&self, k: u32) -> Result<(), FtError> {
        for (pid, policy) in self.iter() {
            policy.validate(k).map_err(|e| FtError::ProcessPolicy(pid, Box::new(e)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::samples;

    #[test]
    fn fig4_policies() {
        // Fig. 4a: checkpointing with k = 2 recoveries, 3 checkpoints.
        let a = Policy::checkpointing(2, 3);
        assert_eq!(a.kind(), PolicyKind::Checkpointing);
        assert_eq!(a.replica_count(), 0);
        assert!(a.tolerates(2));

        // Fig. 4b: replication, k = 2 => 3 copies.
        let b = Policy::replication(2);
        assert_eq!(b.kind(), PolicyKind::Replication);
        assert_eq!(b.replica_count(), 2);
        assert!(b.tolerates(2) && !b.tolerates(3));

        // Fig. 4c: two copies, R = {0, 1}.
        let c = Policy::from_copies(vec![CopyPlan::plain(), CopyPlan::checkpointed(1, 2)]).unwrap();
        assert_eq!(c.kind(), PolicyKind::ReplicationAndCheckpointing);
        assert_eq!(c.replica_count(), 1);
        assert!(c.tolerates(2));
    }

    #[test]
    fn reexecution_is_uncheckpointed_recovery() {
        let p = Policy::reexecution(3);
        assert_eq!(p.copies(), &[CopyPlan { recoveries: 3, checkpoints: 0 }]);
        assert_eq!(p.kind(), PolicyKind::Checkpointing);
        assert!(p.tolerates(3));
    }

    #[test]
    fn adversarial_tolerance_bound() {
        // Two copies with r = {1, 1}: adversary needs 2 faults per copy.
        let p =
            Policy::from_copies(vec![CopyPlan::reexecuted(1), CopyPlan::reexecuted(1)]).unwrap();
        assert_eq!(p.tolerated_faults(), 3);
        assert!(p.tolerates(3));
        assert_eq!(p.validate(4).unwrap_err(), FtError::InsufficientPolicy { k: 4, tolerated: 3 });
    }

    #[test]
    fn malformed_policies_rejected() {
        assert_eq!(Policy::from_copies(vec![]).unwrap_err(), FtError::NoCopies);
    }

    #[test]
    fn worst_case_copy_time_takes_slowest() {
        let scheme =
            RecoveryScheme::new(Time::new(60), Time::new(10), Time::new(10), Time::new(5)).unwrap();
        let p = Policy::from_copies(vec![CopyPlan::plain(), CopyPlan::checkpointed(1, 2)]).unwrap();
        // plain copy: E(0) = 70; checkpointed copy: W(2, 1) = 130.
        assert_eq!(p.worst_case_copy_time(scheme), Time::new(130));
    }

    #[test]
    fn assignment_construction_and_validation() {
        let (app, _) = samples::fig3();
        let mx = PolicyAssignment::uniform_reexecution(&app, 2);
        mx.validate(2).unwrap();
        assert!(mx.validate(3).is_err());

        let mr = PolicyAssignment::uniform_replication(&app, 2);
        mr.validate(2).unwrap();
        for (_, pol) in mr.iter() {
            assert_eq!(pol.kind(), PolicyKind::Replication);
        }

        assert!(matches!(
            PolicyAssignment::new(&app, vec![Policy::reexecution(1)]),
            Err(FtError::AssignmentArityMismatch { got: 1, expected: 5 })
        ));
    }

    #[test]
    fn local_checkpointing_uses_punnekkat_optimum() {
        let (app, _) = samples::fig3();
        let pa = PolicyAssignment::local_checkpointing(&app, 2, 16).unwrap();
        pa.validate(2).unwrap();
        for (pid, pol) in pa.iter() {
            assert_eq!(pol.kind(), PolicyKind::Checkpointing);
            let p = app.process(pid);
            let wcet = p.candidate_nodes().filter_map(|n| p.wcet_on(n)).min().unwrap();
            let scheme = RecoveryScheme::for_process(p, wcet).unwrap();
            assert_eq!(pol.copies()[0].checkpoints, scheme.optimal_checkpoints_local(2, 16));
        }
    }

    #[test]
    fn set_and_policy_accessors() {
        let (app, _) = samples::fig3();
        let mut pa = PolicyAssignment::uniform_reexecution(&app, 1);
        pa.set(ProcessId::new(2), Policy::replication(1));
        assert_eq!(pa.policy(ProcessId::new(2)).kind(), PolicyKind::Replication);
        assert_eq!(pa.policy(ProcessId::new(0)).kind(), PolicyKind::Checkpointing);
    }
}
