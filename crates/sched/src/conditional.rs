//! Conditional quasi-static list scheduling of an FT-CPG (paper §5.2).
//!
//! Every FT-CPG node receives one start time, valid in its guard context;
//! synchronization nodes (frozen processes/messages) receive a single start
//! time that holds in *all* scenarios. Two reservations may share a
//! processor or bus window only if their guards are mutually exclusive.
//! Condition values produced on one node are broadcast on the bus before
//! any other node may act on them (§5.2's condition broadcast).

use crate::{worst_case_delivery, BusTable, JoinMemo, ReplicaLadder, ResourceTable, SchedError};
use ftes_ftcpg::{CpgNodeId, CpgNodeKind, FtCpg, Location};
use ftes_model::{Application, NodeId, Time};
use ftes_tdma::Platform;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tunables of the conditional scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Bus time needed to broadcast one condition value to all nodes
    /// (§5.2). Zero disables broadcast modelling.
    pub condition_broadcast_time: Time,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { condition_broadcast_time: Time::new(1) }
    }
}

/// One scheduled condition broadcast on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Broadcast {
    /// The conditional node whose outcome is broadcast.
    pub cond: CpgNodeId,
    /// Bus transmission start.
    pub start: Time,
    /// Bus transmission end.
    pub end: Time,
}

/// A conditional schedule: start/end times for every FT-CPG node plus the
/// condition broadcasts — the information content of the schedule tables of
/// Fig. 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionalSchedule {
    start: Vec<Time>,
    end: Vec<Time>,
    broadcasts: Vec<Broadcast>,
    length: Time,
}

impl ConditionalSchedule {
    /// Start time of a node (in its guard context).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn start(&self, id: CpgNodeId) -> Time {
        self.start[id.index()]
    }

    /// Completion time of a node (in its guard context).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn end(&self, id: CpgNodeId) -> Time {
        self.end[id.index()]
    }

    /// The scheduled condition broadcasts.
    pub fn broadcasts(&self) -> &[Broadcast] {
        &self.broadcasts
    }

    /// Broadcast completion of a condition, if one was scheduled.
    pub fn broadcast_end(&self, cond: CpgNodeId) -> Option<Time> {
        self.broadcasts.iter().find(|b| b.cond == cond).map(|b| b.end)
    }

    /// Worst-case schedule length over all fault scenarios: every node's
    /// completion is the worst case of its own context, so the maximum over
    /// nodes bounds every scenario.
    pub fn length(&self) -> Time {
        self.length
    }

    /// `true` iff the worst-case length meets the global deadline.
    pub fn meets_deadline(&self, deadline: Time) -> bool {
        self.length <= deadline
    }
}

/// A deadline violated by the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineViolation {
    /// The violating FT-CPG node.
    pub node: CpgNodeId,
    /// Its completion time.
    pub completion: Time,
    /// The deadline it misses (global or local).
    pub deadline: Time,
}

/// Checks the global deadline and all local process deadlines against a
/// conditional schedule, returning every violation.
pub fn check_deadlines(
    app: &Application,
    cpg: &FtCpg,
    schedule: &ConditionalSchedule,
) -> Vec<DeadlineViolation> {
    let mut out = Vec::new();
    for (id, node) in cpg.iter() {
        let completion = schedule.end(id);
        if completion > app.deadline() {
            out.push(DeadlineViolation { node: id, completion, deadline: app.deadline() });
        }
        if let CpgNodeKind::ProcessCopy { process, .. } = node.kind {
            if let Some(dl) = app.process(process).local_deadline() {
                if completion > dl {
                    out.push(DeadlineViolation { node: id, completion, deadline: dl });
                }
            }
        }
    }
    out
}

/// Schedules an FT-CPG on a platform, producing the conditional schedule
/// from which the distributed schedule tables (Fig. 6) are derived.
///
/// # Errors
///
/// Returns [`SchedError::Tdma`] if a bus transmission cannot be placed,
/// [`SchedError::NoSender`] for malformed bus nodes, and
/// [`SchedError::Ft`] if a replica join can be silenced within the budget
/// (invalid policy).
///
/// # Examples
///
/// ```
/// use ftes_ftcpg::{build_ftcpg, BuildConfig, CopyMapping};
/// use ftes_ft::PolicyAssignment;
/// use ftes_model::{samples, FaultModel, Mapping, Time, Transparency};
/// use ftes_sched::{schedule_ftcpg, SchedConfig};
/// use ftes_tdma::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (app, arch) = samples::fig1_process(1);
/// let mapping = Mapping::cheapest(&app, &arch)?;
/// let policies = PolicyAssignment::uniform_reexecution(&app, 1);
/// let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)?;
/// let cpg = build_ftcpg(&app, &policies, &copies, FaultModel::new(1),
///                       &Transparency::none(), BuildConfig::default())?;
/// let platform = Platform::homogeneous(1, Time::new(10))?;
/// let schedule = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default())?;
/// // Worst case: one fault => W(0,1) = 70 + 70 = 140.
/// assert_eq!(schedule.length(), Time::new(140));
/// # Ok(())
/// # }
/// ```
pub fn schedule_ftcpg(
    app: &Application,
    cpg: &FtCpg,
    platform: &Platform,
    config: SchedConfig,
) -> Result<ConditionalSchedule, SchedError> {
    match schedule_ftcpg_bounded(app, cpg, platform, config, None, None)? {
        BoundedSchedule::Complete(schedule) => Ok(schedule),
        BoundedSchedule::Exceeded { .. } => unreachable!("no bound was given"),
    }
}

/// Result of a bound-carrying scheduler run (see
/// [`schedule_ftcpg_bounded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedSchedule {
    /// The schedule completed within the bound (or no bound was given) —
    /// bit-identical to what [`schedule_ftcpg`] produces for the same
    /// inputs.
    Complete(ConditionalSchedule),
    /// Refutation exit: some placed node already completes after the
    /// bound. Placements are final once made and the schedule length is
    /// the maximum completion, so `lower_bound` is a proven lower bound on
    /// the full schedule's length — the remaining scenario branches were
    /// never scheduled.
    Exceeded {
        /// Largest completion placed before the early exit (`> bound`).
        lower_bound: Time,
    },
}

/// [`schedule_ftcpg`] with bound-and-prune and a fault-scenario subtree
/// memo, the exact-scheduler half of incremental certification.
///
/// `bound` carries the incumbent's deadline: as soon as any placed node
/// completes after it, the run exits with [`BoundedSchedule::Exceeded`]
/// instead of scheduling every remaining scenario to completion. Complete
/// runs are bit-identical to the unbounded scheduler. `memo`, when given,
/// memoizes replica-join worst-case deliveries across runs (the delivery
/// is a pure function of its canonical subtree key, so memoized results are
/// bit-identical too).
///
/// # Errors
///
/// Exactly those of [`schedule_ftcpg`] (an early exit can only *skip*
/// later failures, never introduce one; callers treating `Exceeded` as
/// refutation never observe the difference — both refute).
pub fn schedule_ftcpg_bounded(
    app: &Application,
    cpg: &FtCpg,
    platform: &Platform,
    config: SchedConfig,
    bound: Option<Time>,
    memo: Option<&mut JoinMemo>,
) -> Result<BoundedSchedule, SchedError> {
    Scheduler::new(app, cpg, platform, config)?.run(bound, memo)
}

struct Scheduler<'a> {
    app: &'a Application,
    cpg: &'a FtCpg,
    config: SchedConfig,
    cpus: Vec<ResourceTable>,
    bus: BusTable,
    /// Sender node for every bus-located node (resolved once).
    senders: Vec<Option<NodeId>>,
    /// Conditions whose value is needed on another node than the producer.
    remote_needed: Vec<bool>,
    /// Priority: longest path (by duration) from the node to any leaf.
    rank: Vec<Time>,
    start: Vec<Time>,
    end: Vec<Time>,
    broadcast_end: Vec<Option<Time>>,
    broadcasts: Vec<Broadcast>,
}

impl<'a> Scheduler<'a> {
    fn new(
        app: &'a Application,
        cpg: &'a FtCpg,
        platform: &'a Platform,
        config: SchedConfig,
    ) -> Result<Self, SchedError> {
        let n = cpg.node_count();
        let senders = resolve_senders(cpg)?;
        let remote_needed = compute_remote_needs(cpg, &senders);
        let rank = compute_ranks(cpg);
        Ok(Scheduler {
            app,
            cpg,
            config,
            cpus: vec![ResourceTable::new(); platform.architecture().node_count()],
            bus: BusTable::new(platform.bus().clone()),
            senders,
            remote_needed,
            rank,
            start: vec![Time::ZERO; n],
            end: vec![Time::ZERO; n],
            broadcast_end: vec![None; n],
            broadcasts: Vec::new(),
        })
    }

    fn run(
        mut self,
        bound: Option<Time>,
        mut memo: Option<&mut JoinMemo>,
    ) -> Result<BoundedSchedule, SchedError> {
        let n = self.cpg.node_count();
        let mut indegree: Vec<usize> =
            (0..n).map(|i| self.cpg.incoming(CpgNodeId::new(i)).count()).collect();
        // Max-heap ordered by (shallowest fault context, longest remaining
        // path, smallest id). Scheduling low-fault-count contexts first
        // keeps the no-fault trace compact — the quasi-static principle
        // behind the paper's schedule tables: recoveries extend the
        // schedule, they do not displace the fault-free scenario.
        let key = |s: &Self, i: usize| {
            (Reverse(s.cpg.node(CpgNodeId::new(i)).guard.fault_count()), s.rank[i], Reverse(i))
        };
        let mut ready: BinaryHeap<(Reverse<u32>, Time, Reverse<usize>)> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| key(&self, i))
            .collect();
        let mut scheduled = 0usize;
        while let Some((_, _, Reverse(i))) = ready.pop() {
            let id = CpgNodeId::new(i);
            self.place(id, memo.as_deref_mut())?;
            // Bound-and-prune: placements are final, and the schedule
            // length is the maximum completion — one completion past the
            // bound already refutes, whatever the unscheduled scenarios
            // would add.
            if let Some(b) = bound {
                let end = self.end[i];
                if end > b {
                    return Ok(BoundedSchedule::Exceeded { lower_bound: end });
                }
            }
            scheduled += 1;
            for e in self.cpg.outgoing(id) {
                let t = e.to.index();
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    ready.push(key(&self, t));
                }
            }
        }
        debug_assert_eq!(scheduled, n, "FT-CPG is acyclic");
        let length = self.end.iter().copied().max().unwrap_or(Time::ZERO);
        Ok(BoundedSchedule::Complete(ConditionalSchedule {
            start: self.start,
            end: self.end,
            broadcasts: self.broadcasts,
            length,
        }))
    }

    /// Earliest start respecting data dependencies, releases and condition
    /// visibility.
    fn earliest_start(&self, id: CpgNodeId) -> Time {
        let node = self.cpg.node(id);
        let mut est = Time::ZERO;
        for e in self.cpg.incoming(id) {
            est = est.max(self.end[e.from.index()]);
        }
        // Release times constrain the first execution attempt.
        if let CpgNodeKind::ProcessCopy { process, attempt: 1, .. } = node.kind {
            est = est.max(self.app.process(process).release());
        }
        // A node may only be activated once every condition in its guard is
        // known locally: conditions produced on other CPUs must have been
        // broadcast (§5.2).
        if let Some(here) = self.cpu_of(id) {
            for lit in node.guard.literals() {
                let producer_cpu = match self.cpg.node(lit.cond).location {
                    Location::Node(n) => Some(n),
                    _ => None,
                };
                if producer_cpu != Some(here) {
                    if let Some(b) = self.broadcast_end[lit.cond.index()] {
                        est = est.max(b);
                    }
                }
            }
        }
        est
    }

    /// The CPU on which a node consumes condition values: its execution node
    /// for process copies, the sender for bus messages.
    fn cpu_of(&self, id: CpgNodeId) -> Option<NodeId> {
        match self.cpg.node(id).location {
            Location::Node(n) => Some(n),
            Location::Bus => self.senders[id.index()],
            Location::None => None,
        }
    }

    fn place(&mut self, id: CpgNodeId, memo: Option<&mut JoinMemo>) -> Result<(), SchedError> {
        let node = self.cpg.node(id).clone();
        let est = self.earliest_start(id);
        match (&node.kind, node.location) {
            (CpgNodeKind::ReplicaJoin { .. }, _) => {
                let t = self.join_time(id, memo)?;
                self.start[id.index()] = t;
                self.end[id.index()] = t;
            }
            (_, Location::Node(cpu)) => {
                let s = self.cpus[cpu.index()].earliest_fit(est, node.duration, &node.guard);
                self.cpus[cpu.index()].reserve(s, s + node.duration, node.guard.clone());
                self.start[id.index()] = s;
                self.end[id.index()] = s + node.duration;
                if node.conditional && self.remote_needed[id.index()] {
                    self.schedule_broadcast(id, cpu)?;
                }
            }
            (_, Location::Bus) => {
                let sender = self.senders[id.index()].ok_or(SchedError::NoSender(id))?;
                let (s, e) = self.bus.earliest_window(sender, est, node.duration, &node.guard)?;
                self.bus.reserve(s, e, node.guard.clone());
                self.start[id.index()] = s;
                self.end[id.index()] = e;
            }
            (_, Location::None) => {
                self.start[id.index()] = est;
                self.end[id.index()] = est + node.duration;
            }
        }
        Ok(())
    }

    fn schedule_broadcast(&mut self, cond: CpgNodeId, cpu: NodeId) -> Result<(), SchedError> {
        let dur = self.config.condition_broadcast_time;
        if dur <= Time::ZERO {
            return Ok(());
        }
        let guard = self.cpg.node(cond).guard.clone();
        let (s, e) = self.bus.earliest_window(cpu, self.end[cond.index()], dur, &guard)?;
        self.bus.reserve(s, e, guard);
        self.broadcast_end[cond.index()] = Some(e);
        self.broadcasts.push(Broadcast { cond, start: s, end: e });
        Ok(())
    }

    /// Worst-case delivery time of a replica join by
    /// [`worst_case_delivery`] (memo-backed when a [`JoinMemo`] is supplied
    /// — same value either way, the delivery is pure).
    fn join_time(&self, join: CpgNodeId, memo: Option<&mut JoinMemo>) -> Result<Time, SchedError> {
        let (_, chains) = self
            .cpg
            .joins()
            .iter()
            .find(|(j, _)| *j == join)
            .expect("join metadata recorded during construction");
        let budget = self.cpg.fault_budget() - self.cpg.node(join).guard.fault_count();
        let ladders: Vec<ReplicaLadder> = chains
            .iter()
            .map(|chain| ReplicaLadder {
                ladder: chain.iter().map(|&a| self.end[a.index()]).collect(),
                killable: self.cpg.node(*chain.last().expect("chains are non-empty")).conditional,
            })
            .collect();
        let delivery = match memo {
            Some(memo) => memo.delivery(&ladders, budget),
            None => worst_case_delivery(&ladders, budget),
        };
        delivery.ok_or({
            SchedError::Ft(ftes_ft::FtError::InsufficientPolicy { k: budget, tolerated: 0 })
        })
    }
}

/// Resolves, for every bus-located node, the computation node whose TDMA
/// slots carry it (the producing process's node; for replicated producers,
/// the first replica's node — see DESIGN.md's substitution notes).
fn resolve_senders(cpg: &FtCpg) -> Result<Vec<Option<NodeId>>, SchedError> {
    let mut senders = vec![None; cpg.node_count()];
    for (id, node) in cpg.iter() {
        if node.location != Location::Bus {
            continue;
        }
        let mut sender = None;
        for e in cpg.incoming(id) {
            sender = trace_sender(cpg, e.from);
            if sender.is_some() {
                break;
            }
        }
        senders[id.index()] = Some(sender.ok_or(SchedError::NoSender(id))?);
    }
    Ok(senders)
}

/// Walks back from a message's source to a located process copy.
fn trace_sender(cpg: &FtCpg, from: CpgNodeId) -> Option<NodeId> {
    match cpg.node(from).location {
        Location::Node(n) => Some(n),
        _ => cpg.incoming(from).find_map(|e| trace_sender(cpg, e.from)),
    }
}

/// Marks conditions whose value some differently-located node needs.
fn compute_remote_needs(cpg: &FtCpg, senders: &[Option<NodeId>]) -> Vec<bool> {
    let cpu = |id: CpgNodeId| match cpg.node(id).location {
        Location::Node(n) => Some(n),
        Location::Bus => senders[id.index()],
        Location::None => None,
    };
    let mut needed = vec![false; cpg.node_count()];
    for (id, node) in cpg.iter() {
        let here = cpu(id);
        for lit in node.guard.literals() {
            let producer = cpu(lit.cond);
            if producer.is_some() && here.is_some() && producer != here {
                needed[lit.cond.index()] = true;
            }
        }
    }
    needed
}

/// Longest path (sum of durations) from each node to any leaf; the list
/// scheduler's priority (partial critical path, as in the CPG scheduling of
/// \[7\]).
fn compute_ranks(cpg: &FtCpg) -> Vec<Time> {
    let n = cpg.node_count();
    let mut rank = vec![Time::ZERO; n];
    for i in (0..n).rev() {
        let id = CpgNodeId::new(i);
        let down = cpg.outgoing(id).map(|e| rank[e.to.index()]).max().unwrap_or(Time::ZERO);
        rank[i] = cpg.node(id).duration + down;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ft::{Policy, PolicyAssignment};
    use ftes_ftcpg::{build_ftcpg, BuildConfig, CopyMapping};
    use ftes_model::{samples, FaultModel, Mapping, ProcessId, Transparency};

    fn schedule_sample(
        k: u32,
        transparency: &Transparency,
    ) -> (Application, FtCpg, ConditionalSchedule) {
        let (app, arch, _) = samples::fig5();
        let mapping = Mapping::new(&app, &arch, samples::fig5_mapping()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(k),
            transparency,
            BuildConfig::default(),
        )
        .unwrap();
        let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
        let sched = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default()).unwrap();
        (app, cpg, sched)
    }

    #[test]
    fn single_process_chain_times() {
        let (app, arch) = samples::fig1_process(1);
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap();
        let platform = Platform::homogeneous(1, Time::new(10)).unwrap();
        let sched = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default()).unwrap();
        let chain: Vec<_> = cpg.copies_of_process(ProcessId::new(0)).collect();
        // Attempts execute back to back: 0..70, 70..150, 150..220.
        assert_eq!(sched.start(chain[0]), Time::ZERO);
        assert_eq!(sched.end(chain[0]), Time::new(70));
        assert_eq!(sched.start(chain[1]), Time::new(70));
        assert_eq!(sched.end(chain[1]), Time::new(150));
        assert_eq!(sched.end(chain[2]), Time::new(220));
        // Schedule length = W(0, 2).
        assert_eq!(sched.length(), Time::new(220));
        assert!(sched.meets_deadline(app.deadline()));
    }

    #[test]
    fn precedence_and_resource_invariants_hold() {
        let t = Transparency::none();
        let (_, cpg, sched) = schedule_sample(2, &t);
        // Data dependencies respected.
        for e in cpg.edges() {
            assert!(
                sched.start(e.to) >= sched.end(e.from),
                "{} must finish before {} starts",
                cpg.name(e.from),
                cpg.name(e.to)
            );
        }
        // Compatible-guard overlap never happens on a CPU.
        let nodes: Vec<_> = cpg.iter().collect();
        for (i, (ida, a)) in nodes.iter().enumerate() {
            for (idb, b) in nodes.iter().skip(i + 1) {
                let same_cpu = match (a.location, b.location) {
                    (Location::Node(x), Location::Node(y)) => x == y,
                    (Location::Bus, Location::Bus) => true,
                    _ => false,
                };
                if !same_cpu || a.duration == Time::ZERO || b.duration == Time::ZERO {
                    continue;
                }
                let overlap =
                    sched.start(*ida) < sched.end(*idb) && sched.start(*idb) < sched.end(*ida);
                if overlap {
                    assert!(
                        a.guard.excludes(&b.guard),
                        "{} and {} overlap with compatible guards",
                        cpg.name(*ida),
                        cpg.name(*idb)
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_nodes_have_single_start_time() {
        let (app, arch, transparency) = samples::fig5();
        let _ = (app, arch);
        let (_, cpg, sched) = schedule_sample(2, &transparency);
        // Every sync node's start is >= all of its predecessors' ends (the
        // max over all scenarios), by construction; check it is a single
        // well-defined value placed after every input.
        for s in cpg.sync_nodes() {
            for e in cpg.incoming(s) {
                assert!(sched.start(s) >= sched.end(e.from));
            }
        }
    }

    #[test]
    fn transparency_increases_schedule_length() {
        let flexible = schedule_sample(2, &Transparency::none()).2.length();
        let (_, _, t_full) = samples::fig5();
        let frozen = schedule_sample(2, &t_full).2.length();
        let fully = schedule_sample(2, &Transparency::fully_transparent()).2.length();
        assert!(
            frozen >= flexible,
            "freezing P3/m2/m3 cannot shorten the worst case ({frozen} < {flexible})"
        );
        assert!(fully >= frozen, "full transparency is the slowest ({fully} < {frozen})");
    }

    #[test]
    fn replication_schedules_and_joins() {
        let (app, arch) = samples::fig1_process(3);
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let mut policies = PolicyAssignment::uniform_reexecution(&app, 2);
        policies.set(ProcessId::new(0), Policy::replication(2));
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap();
        let platform = Platform::homogeneous(3, Time::new(10)).unwrap();
        let sched = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default()).unwrap();
        // All three replicas run in parallel starting at 0 and end at
        // E(0) = 70; the adversary can kill two, delivery stays 70.
        let (join, chains) = &cpg.joins()[0];
        for c in chains {
            assert_eq!(sched.start(c[0]), Time::ZERO, "replicas run in parallel");
        }
        assert_eq!(sched.end(*join), Time::new(70));
        // Replication beats re-execution here: W(0,2) = 220 for a single
        // copy vs 70 for three replicas.
        assert!(sched.length() < Time::new(220));
    }

    #[test]
    fn condition_broadcasts_are_scheduled_for_remote_consumers() {
        let t = {
            let (_, _, t) = samples::fig5();
            t
        };
        let (_, cpg, sched) = schedule_sample(2, &t);
        // P1 runs on N1; P4 on N2 is guarded by P1's conditions, so P1's
        // conditions must be broadcast.
        let p1_conds: Vec<_> = cpg
            .copies_of_process(ProcessId::new(0))
            .filter(|&id| cpg.node(id).conditional)
            .collect();
        assert!(!p1_conds.is_empty());
        for c in &p1_conds {
            assert!(
                sched.broadcast_end(*c).is_some(),
                "condition of {} must be broadcast",
                cpg.name(*c)
            );
        }
        // Broadcast happens after the producing copy completes.
        for b in sched.broadcasts() {
            assert!(b.start >= sched.end(b.cond));
            assert!(b.end > b.start);
        }
    }

    #[test]
    fn deadline_checking_reports_violations() {
        let (app, arch) = samples::fig1_process(1);
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap();
        let platform = Platform::homogeneous(1, Time::new(10)).unwrap();
        let sched = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default()).unwrap();
        // Deadline 1000: fine. Artificial deadline 100: the second and
        // third attempts (ending at 150 and 220) violate.
        assert!(check_deadlines(&app, &cpg, &sched).is_empty());
        let mut b = ftes_model::ApplicationBuilder::new(1);
        b.add_process(ftes_model::ProcessSpec::uniform("P1", Time::new(60), 1).overheads(
            Time::new(10),
            Time::new(10),
            Time::new(5),
        ));
        let tight = b.deadline(Time::new(100)).build().unwrap();
        let violations = check_deadlines(&tight, &cpg, &sched);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().all(|v| v.completion > v.deadline));
    }

    #[test]
    fn bounded_runs_complete_bit_identically_and_prune_refutations() {
        let t = Transparency::none();
        let (app, cpg, unbounded) = schedule_sample(2, &t);
        let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
        // A bound at (or above) the true length completes bit-identically,
        // with and without a memo.
        let mut memo = JoinMemo::new();
        for memo_arg in [None, Some(&mut memo)] {
            let complete = schedule_ftcpg_bounded(
                &app,
                &cpg,
                &platform,
                SchedConfig::default(),
                Some(unbounded.length()),
                memo_arg,
            )
            .unwrap();
            assert_eq!(complete, BoundedSchedule::Complete(unbounded.clone()));
        }
        // A bound below the true length refutes early with a sound lower
        // bound: some real completion exceeds it, none is overstated.
        let tight = unbounded.length() - Time::new(1);
        let exceeded = schedule_ftcpg_bounded(
            &app,
            &cpg,
            &platform,
            SchedConfig::default(),
            Some(tight),
            None,
        )
        .unwrap();
        let BoundedSchedule::Exceeded { lower_bound } = exceeded else {
            panic!("a sub-length bound must refute");
        };
        assert!(lower_bound > tight);
        assert!(lower_bound <= unbounded.length(), "lower bound must be a real completion");
    }

    #[test]
    fn memoized_scheduling_is_bit_identical_across_repeats() {
        let (app, arch) = samples::fig1_process(3);
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let mut policies = PolicyAssignment::uniform_reexecution(&app, 2);
        policies.set(ProcessId::new(0), Policy::replication(2));
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap();
        let platform = Platform::homogeneous(3, Time::new(10)).unwrap();
        let plain = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default()).unwrap();
        let mut memo = JoinMemo::new();
        for round in 0..3 {
            let memoized = schedule_ftcpg_bounded(
                &app,
                &cpg,
                &platform,
                SchedConfig::default(),
                None,
                Some(&mut memo),
            )
            .unwrap();
            assert_eq!(memoized, BoundedSchedule::Complete(plain.clone()), "round {round}");
        }
        assert_eq!(memo.misses(), 1, "one join computed once");
        assert_eq!(memo.hits(), 2, "repeat rounds hit the subtree memo");
    }

    #[test]
    fn release_times_delay_first_attempts() {
        let mut b = ftes_model::ApplicationBuilder::new(1);
        b.add_process(
            ftes_model::ProcessSpec::uniform("P1", Time::new(10), 1).release(Time::new(50)),
        );
        let app = b.deadline(Time::new(200)).build().unwrap();
        let arch = ftes_model::Architecture::homogeneous(1).unwrap();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 1);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(1),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap();
        let platform = Platform::homogeneous(1, Time::new(10)).unwrap();
        let sched = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default()).unwrap();
        let first = cpg.copies_of_process(ProcessId::new(0)).next().unwrap();
        assert_eq!(sched.start(first), Time::new(50));
    }
}
