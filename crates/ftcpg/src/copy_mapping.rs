//! Mapping of every process *copy* (original + replicas) to a computation
//! node — the extension of `M: V → N` to the replica set `VR` (paper §6,
//! items 2 and 3 of the problem formulation).

use crate::{ChangeSets, CpgError};
use ftes_ft::{Policy, PolicyAssignment};
use ftes_model::{Application, Architecture, Mapping, NodeId, Process, ProcessId, Time};

/// Node assignment for every copy of every process.
///
/// Row `p` has one entry per copy of `p`'s policy (index 0 = the original
/// process, 1.. = replicas). Validated invariants:
///
/// * arity matches the policy's copy count,
/// * every copy sits on a node where the process has a WCET.
///
/// Replicas *prefer* pairwise distinct nodes (spatial redundancy, §3.2),
/// but sharing is permitted: transient faults hit individual executions,
/// not nodes, and the paper's fault model allows `k` to exceed the node
/// count (§2, footnote 1) — pure replication then necessarily co-locates
/// copies.
#[derive(Debug, PartialEq, Eq)]
pub struct CopyMapping {
    rows: Vec<Vec<NodeId>>,
}

// Forwards `clone_from` row by row, so re-anchoring an evaluator on a new
// placement reuses the old one's storage.
impl Clone for CopyMapping {
    fn clone(&self) -> Self {
        CopyMapping { rows: self.rows.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows.clone_from(&source.rows);
    }
}

impl CopyMapping {
    /// Validates and wraps an explicit per-copy assignment.
    ///
    /// # Errors
    ///
    /// Returns [`CpgError::CopyArityMismatch`] or
    /// [`CpgError::InfeasibleCopyMapping`] when the invariants are
    /// violated.
    pub fn new(
        app: &Application,
        policies: &PolicyAssignment,
        rows: Vec<Vec<NodeId>>,
    ) -> Result<Self, CpgError> {
        if rows.len() != app.process_count() {
            return Err(CpgError::CopyArityMismatch {
                process: ProcessId::new(rows.len().min(app.process_count())),
                got: rows.len(),
                expected: app.process_count(),
            });
        }
        for (i, row) in rows.iter().enumerate() {
            let pid = ProcessId::new(i);
            let copies = policies.policy(pid).copies().len();
            if row.len() != copies {
                return Err(CpgError::CopyArityMismatch {
                    process: pid,
                    got: row.len(),
                    expected: copies,
                });
            }
            let proc = app.process(pid);
            for &node in row {
                if proc.wcet_on(node).is_none() {
                    return Err(CpgError::InfeasibleCopyMapping(pid, node));
                }
            }
        }
        Ok(CopyMapping { rows })
    }

    /// Derives a copy mapping from a base process mapping: copy 0 follows
    /// the base mapping; replicas are placed greedily on the feasible node
    /// with the smallest accumulated load, preferring nodes not yet used by
    /// this process (distinct placement when possible).
    ///
    /// Placement is load-coupled: the load a replica sees includes every
    /// original and every earlier process's replicas, so remapping or
    /// re-policying one process can move *other* processes' replicas.
    /// [`PlacementLoad::derive`] re-derives only the rows such a change
    /// touches, under the same rule.
    ///
    /// # Errors
    ///
    /// Propagates [`CpgError::CopyArityMismatch`] (unreachable for
    /// consistent inputs).
    pub fn from_base(
        app: &Application,
        arch: &Architecture,
        base: &Mapping,
        policies: &PolicyAssignment,
    ) -> Result<Self, CpgError> {
        let mut load = base.load(app, arch.node_count());
        let rows = app
            .processes()
            .map(|(pid, proc)| {
                let copies = policies.policy(pid).copies().len();
                let mut row = Vec::with_capacity(copies);
                row.push(base.node_of(pid));
                place_replicas(proc, copies, &mut row, 0, &mut load);
                row
            })
            .collect();
        Ok(CopyMapping { rows })
    }

    /// Node of copy `copy` of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `copy` is out of range.
    pub fn node_of(&self, p: ProcessId, copy: usize) -> NodeId {
        self.rows[p.index()][copy]
    }

    /// Node of copy `copy` of process `p`, or `None` where the row or the
    /// entry is missing.
    pub(crate) fn get(&self, p: ProcessId, copy: usize) -> Option<NodeId> {
        self.rows.get(p.index())?.get(copy).copied()
    }

    /// Overwrites process `p`'s row in place (change sets write and revert
    /// through this; the caller keeps the row valid).
    pub(crate) fn overwrite_row(&mut self, p: ProcessId, row: &[NodeId]) {
        let slot = &mut self.rows[p.index()];
        slot.clear();
        slot.extend_from_slice(row);
    }

    /// All copy nodes of process `p` (index 0 = original).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn copies_of(&self, p: ProcessId) -> &[NodeId] {
        &self.rows[p.index()]
    }

    /// The base mapping restricted to copy 0 of every process.
    ///
    /// # Errors
    ///
    /// Propagates [`ftes_model::ModelError`] if the restriction is somehow
    /// infeasible (cannot happen for a validated copy mapping).
    pub fn base_mapping(
        &self,
        app: &Application,
        arch: &Architecture,
    ) -> Result<Mapping, ftes_model::ModelError> {
        Mapping::new(app, arch, self.rows.iter().map(|r| r[0]).collect())
    }
}

/// The replica placement rule, shared by [`CopyMapping::from_base`] and
/// [`PlacementLoad::derive`]: grows `row[start..]` (which holds the
/// original) to `copies` entries, each replica on the feasible node
/// minimizing (copies of this process already there, accumulated load,
/// node index), and charges each replica's WCET to `load`.
pub(crate) fn place_replicas(
    proc: &Process,
    copies: usize,
    row: &mut Vec<NodeId>,
    start: usize,
    load: &mut [Time],
) {
    while row.len() - start < copies {
        let placed = &row[start..];
        let next = proc
            .candidate_nodes()
            .min_by_key(|n| {
                let reuse = placed.iter().filter(|&&r| r == *n).count();
                (reuse, load[n.index()], n.index())
            })
            .expect("validated processes have a feasible node");
        load[next.index()] += proc.wcet_on(next).expect("feasible node");
        row.push(next);
    }
}

/// The inputs of replica placement that a one-process move can perturb:
/// the per-node load of the base mapping and the processes with replicas.
///
/// A search keeps one in step with its current state, so each candidate
/// move's copy placement is derived as a change set — the rows that differ
/// from the current state — instead of a whole new [`CopyMapping`]. Only
/// replicated processes can see their rows move (their placement reads
/// the load), so a move is re-placed in O(replicated · copies · nodes).
#[derive(Debug, Clone)]
pub struct PlacementLoad {
    /// Per node: WCET of the originals mapped there.
    load: Vec<Time>,
    /// Processes with more than one copy, ascending.
    replicated: Vec<ProcessId>,
    /// The successor state's running load during a derivation.
    next_load: Vec<Time>,
}

impl PlacementLoad {
    /// The placement inputs of a `(base, policies)` state.
    pub fn new(
        app: &Application,
        arch: &Architecture,
        base: &Mapping,
        policies: &PolicyAssignment,
    ) -> Self {
        let replicated =
            policies.iter().filter(|(_, p)| p.copies().len() > 1).map(|(pid, _)| pid).collect();
        PlacementLoad { load: base.load(app, arch.node_count()), replicated, next_load: Vec::new() }
    }

    /// Closes into `out` the change set of moving `process` to base node
    /// `node` with `copies` copies (and, when `policy` is given, that new
    /// policy), against `current` — the copy placement of the state this
    /// load describes. The set holds `process`'s successor row plus the row
    /// of every other process whose placement differs, ascending: exactly
    /// the rows where [`CopyMapping::from_base`] of the successor differs
    /// from `current`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a feasible node of `process`.
    #[allow(clippy::too_many_arguments)]
    pub fn derive<'p>(
        &mut self,
        app: &Application,
        current: &CopyMapping,
        process: ProcessId,
        node: NodeId,
        copies: usize,
        policy: Option<&'p Policy>,
        out: &mut ChangeSets<'p>,
    ) {
        let from = current.copies_of(process)[0];
        if copies <= 1 && self.replicated.iter().all(|&q| q == process) {
            // Nothing in the successor is replicated: no other row moves.
            out.push(process, &[node], policy);
            out.close();
            return;
        }
        self.next_load.clone_from(&self.load);
        if from != node {
            let proc = app.process(process);
            self.next_load[from.index()] -= proc.wcet_on(from).expect("mapped node is feasible");
            self.next_load[node.index()] += proc.wcet_on(node).expect("target node is feasible");
        }
        // Re-place in process order, as `from_base` does: the moved process
        // at its own position, every other replicated process compared with
        // its current row. Unreplicated rows cannot move.
        let mut moved = false;
        for &q in &self.replicated {
            if !moved && process <= q {
                out.push_placed(app, process, node, copies, policy, None, &mut self.next_load);
                moved = true;
                if q == process {
                    continue;
                }
            }
            let row = current.copies_of(q);
            out.push_placed(app, q, row[0], row.len(), None, Some(row), &mut self.next_load);
        }
        if !moved {
            out.push_placed(app, process, node, copies, policy, None, &mut self.next_load);
        }
        out.close();
    }

    /// Steps the load to the successor of an accepted move: `process` moved
    /// from base node `from` to `to` and now has `copies` copies.
    pub fn commit(
        &mut self,
        app: &Application,
        process: ProcessId,
        from: NodeId,
        to: NodeId,
        copies: usize,
    ) {
        if from != to {
            let proc = app.process(process);
            self.load[from.index()] -= proc.wcet_on(from).expect("mapped node is feasible");
            self.load[to.index()] += proc.wcet_on(to).expect("target node is feasible");
        }
        match (self.replicated.binary_search(&process), copies > 1) {
            (Ok(at), false) => {
                self.replicated.remove(at);
            }
            (Err(at), true) => self.replicated.insert(at, process),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ft::{Policy, PolicyAssignment};
    use ftes_model::samples;

    fn fig3_setup(k: u32) -> (Application, Architecture, Mapping, PolicyAssignment) {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        (app, arch, mapping, policies)
    }

    #[test]
    fn from_base_single_copy_follows_base() {
        let (app, arch, mapping, policies) = fig3_setup(2);
        let cm = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        for (pid, _) in app.processes() {
            assert_eq!(cm.copies_of(pid), &[mapping.node_of(pid)]);
        }
        assert_eq!(cm.base_mapping(&app, &arch).unwrap(), mapping);
    }

    #[test]
    fn from_base_places_replicas_on_distinct_nodes() {
        let (app, arch, mapping, mut policies) = fig3_setup(1);
        // Replicate P1 (id 0) once: two copies on the two nodes.
        policies.set(ProcessId::new(0), Policy::replication(1));
        let cm = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let copies = cm.copies_of(ProcessId::new(0));
        assert_eq!(copies.len(), 2);
        assert_ne!(copies[0], copies[1]);
    }

    #[test]
    fn replication_of_restricted_process_shares_its_node() {
        let (app, arch, mapping, mut policies) = fig3_setup(1);
        // P3 (id 2) can only run on N1 -> both copies share it (the k >
        // node-count regime of §2, footnote 1).
        policies.set(ProcessId::new(2), Policy::replication(1));
        let cm = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        assert_eq!(cm.copies_of(ProcessId::new(2)), &[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn remapping_an_unreplicated_process_moves_another_replica() {
        use crate::ChangeSets;
        use ftes_model::{ApplicationBuilder, ProcessSpec};
        // Three identical nodes; A (replicated once) on N0, B on N1. A's
        // replica takes the least-loaded node, N2 — until B moves there.
        let mut builder = ApplicationBuilder::new(3);
        let a = builder.add_process(ProcessSpec::uniform("A", Time::new(10), 3));
        let b = builder.add_process(ProcessSpec::uniform("B", Time::new(10), 3));
        let app = builder.deadline(Time::new(100)).build().unwrap();
        let arch = Architecture::homogeneous(3).unwrap();
        let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mapping = Mapping::new(&app, &arch, vec![n0, n1]).unwrap();
        let mut policies = PolicyAssignment::uniform_reexecution(&app, 1);
        policies.set(a, Policy::replication(1));
        let before = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        assert_eq!(before.copies_of(a), &[n0, n2]);

        let moved = mapping.with_move(&app, &arch, b, n2).unwrap();
        let after = CopyMapping::from_base(&app, &arch, &moved, &policies).unwrap();
        assert_eq!(after.copies_of(a), &[n0, n1], "B's load pushed A's replica off N2");
        assert_eq!(after.copies_of(b), &[n2]);

        // The incremental derivation emits both rows, ascending.
        let mut load = PlacementLoad::new(&app, &arch, &mapping, &policies);
        let mut sets = ChangeSets::new();
        load.derive(&app, &before, b, n2, 1, None, &mut sets);
        let derived: Vec<_> =
            sets.get(0).iter().map(|(p, row, pol)| (p, row.to_vec(), pol)).collect();
        assert_eq!(derived, vec![(a, vec![n0, n1], None), (b, vec![n2], None)]);
        // Committing the move leaves the load where a fresh one starts.
        load.commit(&app, b, n1, n2, 1);
        let fresh = PlacementLoad::new(&app, &arch, &moved, &policies);
        assert_eq!((&load.load, &load.replicated), (&fresh.load, &fresh.replicated));
    }

    #[test]
    fn explicit_rows_validated() {
        let (app, _arch, _mapping, mut policies) = fig3_setup(1);
        policies.set(ProcessId::new(0), Policy::replication(1));
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        // Wrong arity for P1.
        let bad = CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0], vec![n0], vec![n0], vec![n0], vec![n0]],
        );
        assert!(matches!(bad, Err(CpgError::CopyArityMismatch { .. })));
        // Shared node for two copies is allowed.
        CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0, n0], vec![n0], vec![n0], vec![n0], vec![n0]],
        )
        .unwrap();
        // Infeasible node for P3 (id 2).
        let bad = CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0, n1], vec![n0], vec![n1], vec![n0], vec![n0]],
        );
        assert!(matches!(bad, Err(CpgError::InfeasibleCopyMapping(..))));
        // A valid one.
        let ok = CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0, n1], vec![n0], vec![n0], vec![n0], vec![n0]],
        )
        .unwrap();
        assert_eq!(ok.node_of(ProcessId::new(0), 1), n1);
    }
}
