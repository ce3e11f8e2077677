//! Change sets: the sparse difference between two `(CopyMapping,
//! PolicyAssignment)` states, process by process.
//!
//! A search move touches one process, but through load-coupled replica
//! placement it can shift other processes' replicas too. A change set
//! records exactly the processes whose copy row or policy differs — each
//! with its successor row and, when it changed, its successor policy — so
//! an evaluator can score a neighbor by writing the set into its anchored
//! state, scoring, and restoring ([`ChangeUndo`]), without ever building
//! the neighbor as a whole configuration.

use crate::CopyMapping;
use ftes_ft::{Policy, PolicyAssignment};
use ftes_model::{Application, NodeId, ProcessId, Time};

/// One changed process of a change set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Change<'p> {
    process: ProcessId,
    /// The successor copy row at `nodes[start..end]`.
    start: u32,
    end: u32,
    /// The successor policy, when it differs.
    policy: Option<&'p Policy>,
}

/// A batch of change sets in flat storage (one neighborhood's worth),
/// reusable across batches without reallocating. Policies are borrowed for
/// `'p` — from a search's move space, or from the states being diffed.
///
/// Sets are built one at a time: [`push`](ChangeSets::push) entries in
/// ascending process order, then [`close`](ChangeSets::close) the set.
#[derive(Debug, Clone, Default)]
pub struct ChangeSets<'p> {
    /// End offset into `entries` of every closed set.
    set_end: Vec<u32>,
    entries: Vec<Change<'p>>,
    nodes: Vec<NodeId>,
}

impl<'p> ChangeSets<'p> {
    /// An empty batch.
    pub fn new() -> Self {
        ChangeSets::default()
    }

    /// Drops every set, keeping the storage.
    pub fn clear(&mut self) {
        self.set_end.clear();
        self.entries.clear();
        self.nodes.clear();
    }

    /// Number of closed sets.
    pub fn len(&self) -> usize {
        self.set_end.len()
    }

    /// `true` when no set is closed.
    pub fn is_empty(&self) -> bool {
        self.set_end.is_empty()
    }

    /// The `i`-th closed set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> ChangeSet<'_, 'p> {
        let start = if i == 0 { 0 } else { self.set_end[i - 1] as usize };
        ChangeSet { entries: &self.entries[start..self.set_end[i] as usize], nodes: &self.nodes }
    }

    /// The closed sets, in the order they were closed.
    pub fn iter(&self) -> impl Iterator<Item = ChangeSet<'_, 'p>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Adds `process` with successor copy row `row` (and successor policy
    /// `policy`, when it changes) to the open set. Entries of one set come
    /// in ascending process order.
    pub fn push(&mut self, process: ProcessId, row: &[NodeId], policy: Option<&'p Policy>) {
        let start = self.nodes.len();
        self.nodes.extend_from_slice(row);
        self.push_entry(process, start, policy);
    }

    /// Closes the open set (possibly empty: the state itself).
    pub fn close(&mut self) {
        self.set_end.push(self.entries.len() as u32);
    }

    /// Closes a set holding every process whose copy row or policy differs
    /// between `from` and `to`, with `to`'s values.
    pub fn push_diff(
        &mut self,
        app: &Application,
        from: (&CopyMapping, &PolicyAssignment),
        to: (&'p CopyMapping, &'p PolicyAssignment),
    ) {
        for (pid, _) in app.processes() {
            let row = to.0.copies_of(pid);
            let policy = to.1.policy(pid);
            let policy_changed = policy != from.1.policy(pid);
            if policy_changed || row != from.0.copies_of(pid) {
                self.push(pid, row, policy_changed.then_some(policy));
            }
        }
        self.close();
    }

    /// Places `process` — original on `origin`, `copies` copies in all —
    /// under the running successor `load`, and adds it to the open set
    /// unless its row equals `current`. The load is charged either way.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_placed(
        &mut self,
        app: &Application,
        process: ProcessId,
        origin: NodeId,
        copies: usize,
        policy: Option<&'p Policy>,
        current: Option<&[NodeId]>,
        load: &mut [Time],
    ) {
        let start = self.nodes.len();
        self.nodes.push(origin);
        crate::copy_mapping::place_replicas(
            app.process(process),
            copies,
            &mut self.nodes,
            start,
            load,
        );
        if current.is_some_and(|row| row == &self.nodes[start..]) {
            self.nodes.truncate(start);
            return;
        }
        self.push_entry(process, start, policy);
    }

    fn push_entry(&mut self, process: ProcessId, start: usize, policy: Option<&'p Policy>) {
        let open = self.set_end.last().map_or(0, |&e| e as usize);
        debug_assert!(
            self.entries[open..].last().is_none_or(|c| c.process < process),
            "change-set entries come in ascending process order"
        );
        let end = self.nodes.len() as u32;
        self.entries.push(Change { process, start: start as u32, end, policy });
    }
}

/// One change set of a [`ChangeSets`] batch.
#[derive(Debug, Clone, Copy)]
pub struct ChangeSet<'a, 'p> {
    entries: &'a [Change<'p>],
    nodes: &'a [NodeId],
}

impl<'a, 'p> ChangeSet<'a, 'p> {
    /// The changed processes, ascending.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + 'a {
        self.entries.iter().map(|c| c.process)
    }

    /// Every changed process with its successor row and — when it differs —
    /// its successor policy, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &'a [NodeId], Option<&'p Policy>)> + 'a {
        let nodes = self.nodes;
        self.entries
            .iter()
            .map(move |c| (c.process, &nodes[c.start as usize..c.end as usize], c.policy))
    }

    /// The processes whose policy changes, with their successor policy,
    /// ascending.
    pub fn policies(&self) -> impl Iterator<Item = (ProcessId, &'p Policy)> + 'a {
        self.entries.iter().filter_map(|c| c.policy.map(|p| (c.process, p)))
    }

    /// Writes the set's rows and policies into a state.
    ///
    /// # Panics
    ///
    /// Panics if a process is out of range for the state.
    pub fn write(&self, copies: &mut CopyMapping, policies: &mut PolicyAssignment) {
        for (process, row, policy) in self.iter() {
            copies.overwrite_row(process, row);
            if let Some(policy) = policy {
                policies.set_from(process, policy);
            }
        }
    }
}

/// What writing a [`ChangeSet`] over a state overwrites: record it, write
/// the set, and [`revert`](ChangeUndo::revert) restores the state exactly.
/// Reusable without reallocating.
#[derive(Debug, Clone, Default)]
pub struct ChangeUndo {
    /// `(process, start, end)`: the overwritten row at `nodes[start..end]`.
    rows: Vec<(ProcessId, u32, u32)>,
    nodes: Vec<NodeId>,
    /// Processes whose policy is overwritten, parallel to the first
    /// `policy_processes.len()` slots of `policies`.
    policy_processes: Vec<ProcessId>,
    /// Overwritten policies; slots past the used prefix are spare storage.
    policies: Vec<Policy>,
}

impl ChangeUndo {
    /// Records the values `set` would overwrite in the given state.
    pub fn record(
        &mut self,
        set: ChangeSet<'_, '_>,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
    ) {
        self.rows.clear();
        self.nodes.clear();
        self.policy_processes.clear();
        for (process, _, policy) in set.iter() {
            let start = self.nodes.len() as u32;
            self.nodes.extend_from_slice(copies.copies_of(process));
            self.rows.push((process, start, self.nodes.len() as u32));
            if policy.is_some() {
                let old = policies.policy(process);
                match self.policies.get_mut(self.policy_processes.len()) {
                    Some(slot) => slot.clone_from(old),
                    None => self.policies.push(old.clone()),
                }
                self.policy_processes.push(process);
            }
        }
    }

    /// Restores the recorded values.
    pub fn revert(&self, copies: &mut CopyMapping, policies: &mut PolicyAssignment) {
        for &(process, start, end) in &self.rows {
            copies.overwrite_row(process, &self.nodes[start as usize..end as usize]);
        }
        for (&process, policy) in self.policy_processes.iter().zip(&self.policies) {
            policies.set_from(process, policy);
        }
    }
}
