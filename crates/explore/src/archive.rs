//! Pareto archive over the §3.3 design trade-off.
//!
//! The paper's transparency discussion (§3.3) frames synthesis as a
//! three-way tension: worst-case schedule length, the slack reserved for
//! fault handling, and the size of the conditional schedule tables the
//! nodes must store. The archive keeps every non-dominated candidate the
//! portfolio visits, so one exploration yields the whole trade-off front
//! instead of a single incumbent.
//!
//! **Order independence.** The archive's final contents are a pure function
//! of the *set* of inserted entries: dominance does not depend on insertion
//! order, and ties on the full objective vector are broken by the smallest
//! canonical state encoding. This is what makes the engine's results
//! reproducible regardless of thread count.

use crate::cache::StateKey;
use ftes_ft::{Policy, PolicyAssignment};
use ftes_model::{Mapping, Time};
use ftes_opt::Move;
use ftes_sched::Estimate;

/// The minimized objective vector of one candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Objectives {
    /// Estimated worst-case schedule length under `k` faults.
    pub worst_case: Time,
    /// Recovery slack `worst_case − fault_free`: time reserved purely for
    /// fault handling (the §6 fault-tolerance-overhead numerator).
    pub recovery_slack: Time,
    /// Schedule-table size proxy: potential executions across all copies
    /// (see [`table_cost`]), the §3.3 memory axis.
    pub table_cost: u64,
}

impl Objectives {
    /// Objectives of an evaluated candidate.
    pub fn of(estimate: &Estimate, policies: &PolicyAssignment) -> Self {
        Objectives::with_table_cost(estimate, table_cost(policies))
    }

    /// Objectives of an evaluated candidate whose [`table_cost`] is known.
    pub(crate) fn with_table_cost(estimate: &Estimate, table_cost: u64) -> Self {
        Objectives {
            worst_case: estimate.worst_case_length,
            recovery_slack: estimate.recovery_slack(),
            table_cost,
        }
    }

    /// `true` when `self` is at least as good on every axis and strictly
    /// better on at least one.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let le = self.worst_case <= other.worst_case
            && self.recovery_slack <= other.recovery_slack
            && self.table_cost <= other.table_cost;
        le && self != other
    }
}

/// Schedule-table size proxy of a policy assignment: the number of distinct
/// execution variants the conditional tables must provision — for each copy
/// of each process, its fault-free start plus one re-activation per
/// recovery, each multiplied by the copy's checkpoint segments.
///
/// This tracks the FT-CPG node count (and therefore table entries) without
/// building the graph, which would defeat the point of a fast in-loop
/// objective.
pub fn table_cost(policies: &PolicyAssignment) -> u64 {
    policies.iter().map(|(_, policy)| policy_table_cost(policy)).sum()
}

/// One process's share of [`table_cost`]: the execution variants of its
/// policy's copies.
fn policy_table_cost(policy: &Policy) -> u64 {
    policy.copies().iter().map(|c| (1 + c.recoveries as u64) * c.checkpoints.max(1) as u64).sum()
}

/// [`table_cost`] of the state `mv` leads to from a state with `policies`
/// and table cost `cost`, without building it: a remap keeps the cost, a
/// repolicy trades the process's old policy share for the new one's.
pub(crate) fn table_cost_after(cost: u64, policies: &PolicyAssignment, mv: Move<'_>) -> u64 {
    match mv {
        Move::Remap { .. } => cost,
        Move::Repolicy { process, policy } => {
            cost - policy_table_cost(policies.policy(process)) + policy_table_cost(policy)
        }
    }
}

/// One archived non-dominated candidate.
#[derive(Debug, Clone)]
pub struct ArchiveEntry {
    /// Objective vector (minimized).
    pub objectives: Objectives,
    /// Process mapping `M` of the candidate.
    pub mapping: Mapping,
    /// Policy assignment `F` of the candidate.
    pub policies: PolicyAssignment,
    /// The candidate's estimate.
    pub estimate: Estimate,
    /// Canonical state key (identity + deterministic tie-break).
    pub key: StateKey,
}

impl ArchiveEntry {
    /// Builds an entry from an evaluated candidate state.
    pub fn new(mapping: Mapping, policies: PolicyAssignment, estimate: Estimate) -> Self {
        let key = StateKey::encode(&mapping, &policies);
        let objectives = Objectives::of(&estimate, &policies);
        ArchiveEntry { objectives, mapping, policies, estimate, key }
    }
}

/// The set of non-dominated candidates seen so far, kept in canonical
/// `(objectives, key)` order.
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive {
    entries: Vec<ArchiveEntry>,
}

impl ParetoArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether [`insert`](ParetoArchive::insert) would admit a candidate
    /// with these objectives and key: no entry dominates it, and none ties
    /// it on every objective with a canonically smaller or equal key. Lets
    /// a caller build an entry only when it will be kept.
    pub fn admits(&self, objectives: &Objectives, key: &StateKey) -> bool {
        !self.entries.iter().any(|existing| {
            existing.objectives.dominates(objectives)
                || (existing.objectives == *objectives && existing.key <= *key)
        })
    }

    /// Offers a candidate. Returns `true` if it was admitted (see
    /// [`admits`](ParetoArchive::admits)). Admission evicts every entry the
    /// candidate dominates.
    pub fn insert(&mut self, entry: ArchiveEntry) -> bool {
        if !self.admits(&entry.objectives, &entry.key) {
            return false;
        }
        self.entries.retain(|e| {
            let evicted = entry.objectives.dominates(&e.objectives)
                || (e.objectives == entry.objectives && entry.key < e.key);
            !evicted
        });
        let at = self
            .entries
            .partition_point(|e| (e.objectives, &e.key) < (entry.objectives, &entry.key));
        self.entries.insert(at, entry);
        true
    }

    /// Merges another archive in (used at portfolio round barriers).
    pub fn merge(&mut self, other: ParetoArchive) {
        for entry in other.entries {
            self.insert(entry);
        }
    }

    /// The non-dominated entries in canonical order.
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// Number of archived candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been archived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry minimizing `(worst_case, recovery_slack, table_cost, key)`
    /// — the single-objective incumbent the paper's §6 metric would pick.
    pub fn best_by_worst_case(&self) -> Option<&ArchiveEntry> {
        // Canonical order sorts by the objective tuple first, so the head
        // entry is exactly the lexicographic minimum.
        self.entries.first()
    }

    /// A compact, deterministic fingerprint `(objectives, key hash)` per
    /// entry: what the determinism tests and reports compare.
    pub fn signature(&self) -> Vec<(Objectives, u64)> {
        self.entries.iter().map(|e| (e.objectives, e.key.hash64())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ft::PolicyAssignment;
    use ftes_model::{samples, Mapping, NodeId, ProcessId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn entry(worst: i64, slack: i64, seed_policy_k: u32) -> ArchiveEntry {
        // Distinct `seed_policy_k` gives distinct keys and table costs.
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, seed_policy_k);
        let estimate = Estimate {
            fault_free_length: Time::new(worst - slack),
            worst_case_length: Time::new(worst),
            critical_process: ProcessId::new(0),
        };
        ArchiveEntry::new(mapping, policies, estimate)
    }

    #[test]
    fn dominance_is_strict() {
        let a = entry(100, 20, 1).objectives;
        let b = entry(100, 20, 1).objectives;
        assert!(!a.dominates(&b), "equal vectors do not dominate");
        let worse = entry(120, 30, 1).objectives;
        assert!(a.dominates(&worse));
        assert!(!worse.dominates(&a));
    }

    #[test]
    fn archive_keeps_only_non_dominated() {
        let mut archive = ParetoArchive::new();
        assert!(archive.insert(entry(100, 30, 2)));
        // Dominated: strictly worse everywhere (same k => same table cost).
        assert!(!archive.insert(entry(120, 40, 2)));
        // Trade-off: worse worst-case but smaller table (k=1).
        assert!(archive.insert(entry(110, 35, 1)));
        assert_eq!(archive.len(), 2);
        // A dominator evicts.
        assert!(archive.insert(entry(90, 20, 2)));
        assert!(archive.entries().iter().all(|e| e.objectives.worst_case != Time::new(100)));
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let pool = [
            entry(100, 30, 2),
            entry(90, 25, 3),
            entry(110, 20, 1),
            entry(95, 40, 2),
            entry(90, 25, 3),
        ];
        // All 2^… permutations are overkill; rotate + reverse covers the
        // interesting interleavings.
        let mut signatures = Vec::new();
        for rot in 0..pool.len() {
            let mut archive = ParetoArchive::new();
            for i in 0..pool.len() {
                archive.insert(pool[(i + rot) % pool.len()].clone());
            }
            signatures.push(archive.signature());
            let mut reversed = ParetoArchive::new();
            for e in pool.iter().rev() {
                reversed.insert(e.clone());
            }
            signatures.push(reversed.signature());
        }
        assert!(signatures.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn best_by_worst_case_is_lexicographic_min() {
        let mut archive = ParetoArchive::new();
        archive.insert(entry(110, 10, 1));
        archive.insert(entry(90, 50, 3));
        assert_eq!(archive.best_by_worst_case().unwrap().objectives.worst_case, Time::new(90));
    }

    #[test]
    fn admits_agrees_with_insert() {
        // Distinct states under one policy assignment, offered with random
        // objectives from a narrow range: dominated offers, evicting ones
        // and objective ties between distinct keys all come up.
        let (app, arch) = samples::fig3();
        let policies = PolicyAssignment::uniform_reexecution(&app, 1);
        let cheapest = Mapping::cheapest(&app, &arch).unwrap();
        let mappings: Vec<Mapping> = app
            .processes()
            .flat_map(|(p, _)| (0..arch.node_count()).map(move |n| (p, NodeId::new(n))))
            .filter_map(|(p, n)| cheapest.with_move(&app, &arch, p, n).ok())
            .collect();
        assert!(mappings.len() > 3);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (mut admitted, mut refused) = (0, 0);
        for _ in 0..200 {
            let mut archive = ParetoArchive::new();
            for _ in 0..30 {
                let mut draw = || Time::new(rng.gen_range(0..4));
                let (worst_case, recovery_slack) = (draw(), draw());
                let objectives =
                    Objectives { worst_case, recovery_slack, table_cost: rng.gen_range(0..4) };
                let mapping = mappings[rng.gen_range(0..mappings.len())].clone();
                let key = StateKey::encode(&mapping, &policies);
                let estimate = Estimate {
                    fault_free_length: worst_case - recovery_slack,
                    worst_case_length: worst_case,
                    critical_process: ProcessId::new(0),
                };
                let admits = archive.admits(&objectives, &key);
                let policies = policies.clone();
                let entry = ArchiveEntry { objectives, mapping, policies, estimate, key };
                assert_eq!(admits, archive.insert(entry));
                (admitted, refused) =
                    (admitted + usize::from(admits), refused + usize::from(!admits));
            }
        }
        assert!(admitted > 0 && refused > 0);
    }

    #[test]
    fn table_cost_counts_potential_executions() {
        let (app, _) = samples::fig3();
        let reexec = PolicyAssignment::uniform_reexecution(&app, 2);
        // 5 processes × one copy × (1 + 2 recoveries) × max(0,1) segments.
        assert_eq!(table_cost(&reexec), 15);
        let repl = PolicyAssignment::uniform_replication(&app, 2);
        // 5 processes × three plain copies.
        assert_eq!(table_cost(&repl), 15);
        let ckpt = PolicyAssignment::local_checkpointing(&app, 2, 16).unwrap();
        assert!(table_cost(&ckpt) > 15, "checkpoint segments multiply entries");
    }
}
