//! Construction of the fault-tolerant conditional process graph from an
//! application, a copy mapping, a policy assignment, the fault model and the
//! transparency requirements (paper §5.1, Fig. 5).
//!
//! # Construction model
//!
//! Processes are visited in topological order. For every process we track
//! its *output contexts*: the scenario classes (guards) under which its
//! output becomes available, together with the FT-CPG node producing it.
//!
//! * A process's **arrival contexts** are the consistent conjunctions of its
//!   predecessors' message output contexts, pruned to the fault budget `k`
//!   (joined one predecessor at a time through a guard trie, `ArrivalJoin`).
//! * In each arrival context, each copy (original + replicas) unrolls into a
//!   **recovery chain** of execution attempts `Pi^m`. An attempt is
//!   *conditional* (produces condition `F_{Pi^m}`) while the remaining
//!   budget `k − faults(guard)` is positive; its fault edge leads to the
//!   next attempt while the copy still has recoveries (`attempt ≤ R`), and
//!   is a dead end otherwise (the copy dies; only replicas can reach this —
//!   validated single-copy policies exhaust the budget first).
//! * Attempt durations follow the Fig. 1 algebra: the first attempt runs the
//!   fault-free time `E(n) = C + n(χ+α)`; each recovery runs
//!   `µ + ⌈C/n⌉ + α`, with the final (regular) recovery dropping `α`.
//! * **Frozen processes** get a synchronization node joining all arrival
//!   contexts; their chain then starts from the unconditional guard with the
//!   full budget (matching `P3^1..P3^3` in Fig. 5b).
//! * **Frozen messages** get a synchronization node joining all producer
//!   outcomes.
//! * **Replicated processes** get a `ReplicaJoin` per arrival context;
//!   replica fault conditions do not escape to downstream guards (the
//!   scheduler bounds the join time adversarially), which keeps replication
//!   a fault-containment boundary, consistent with §3.2/§3.3.
//!
//! # Node count
//!
//! Every entry point ([`build_ftcpg`], [`build_ftcpg_anchored`],
//! [`CpgAnchor::rebuild`]) first counts the nodes the build would place
//! (`node_count`) and answers [`CpgError::GraphTooLarge`] without building
//! when the count exceeds [`BuildConfig::node_limit`]. The count reads no
//! guard and no mapping: it tracks, per message `m`, only the set `S_m` of
//! processes whose conditions can appear in its output guards.
//!
//! * A process's arrival set `S` is the union of its predecessors' `S_m`.
//!   With `s = |S|`, it has `C(f+s−1, f)` arrival contexts at each fault
//!   count `f ≤ k`.
//! * A frozen process adds its sync node and empties `S`.
//! * A single copy with `R` recoveries unrolls `min(R+1, k−f+1)` attempts
//!   per arrival at `f`, with one output each, and joins `S`. A replicated
//!   process adds `1 + Σ_j min(R_j+1, k−f+1)` nodes (the chains and the
//!   join) per arrival, with one output; `S` is unchanged, because replica
//!   conditions do not escape the join.
//! * Each outgoing message adds one node per output and gets `S_m = S`. A
//!   frozen message adds its sync node and gets `S_m = ∅`.
//!
//! **Why it is exact.** Read a context as its fault-count vector: how often
//! each process of its condition set failed. Every message's output
//! contexts are exactly the vectors over `S_m` whose total is at most `k`,
//! by induction in topological order:
//!
//! * Take one output context of each of two predecessor messages. If they
//!   agree on every shared condition process, they ran each shared process
//!   on the same nodes: that process's arrival context is fixed by its own
//!   condition set, which lies inside the shared set. So they carry the
//!   same literals there and are consistent, and their conjunction is the
//!   union vector. If they disagree, they conflict at the first shared
//!   process, in topological order, where they differ: one saw a fault
//!   where the other saw none. So the arrival contexts are the vectors
//!   over `S` within the budget, which gives the binomial.
//! * A validated single copy has `R ≥ k`, so in an arrival at `f` it
//!   outputs one context per `n ∈ 0..=k−f`: the vectors over `S ∪ {P}`.
//!   A replicated process outputs its arrival, and a frozen node restarts
//!   from one empty context.
//!
//! Arrival contexts above 64 faults are left out, so for `k > 64` the count
//! is a lower bound. Debug builds assert after every successful build that
//! the count equals the node count for `k ≤ 64` and does not exceed it
//! otherwise.
//!
//! **Feasibility.** The count answers only when every copy the build would
//! place is feasible: its copy-mapping entry exists, the process has a
//! WCET on that node and its recovery scheme is valid. After the policy
//! and transparency checks, `GraphTooLarge` is then the only error the
//! build could return, so answering it early changes no result. Otherwise
//! the count declines and the build decides: a malformed copy row panics
//! or errors exactly where it would without the count.

use crate::{
    CopyMapping, CpgEdge, CpgError, CpgNode, CpgNodeId, CpgNodeKind, FtCpg, Guard, Literal,
    Location,
};
use ftes_ft::{CopyPlan, PolicyAssignment, RecoveryScheme};
use ftes_model::{Application, FaultModel, MessageId, ProcessId, Time, Transparency};

/// Tunables for FT-CPG construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Hard cap on the number of FT-CPG nodes; construction fails with
    /// [`CpgError::GraphTooLarge`] beyond it. The builder counts a
    /// configuration's nodes exactly before building it, so one over the cap
    /// gets that error without being built (see the builder's node count).
    /// The exact conditional scheduler is meant for small/medium instances —
    /// large instances use the estimator in `ftes-sched`.
    pub node_limit: usize,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig { node_limit: 100_000 }
    }
}

/// Builds the FT-CPG for a fully decided system configuration.
///
/// # Errors
///
/// Returns [`CpgError`] if the policy assignment cannot tolerate `k` faults,
/// the transparency declarations are out of range, or the graph exceeds
/// [`BuildConfig::node_limit`].
///
/// # Examples
///
/// ```
/// use ftes_ftcpg::{build_ftcpg, BuildConfig, CopyMapping};
/// use ftes_ft::PolicyAssignment;
/// use ftes_model::{samples, FaultModel, Mapping};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (app, arch, transparency) = samples::fig5();
/// let mapping = Mapping::new(&app, &arch, samples::fig5_mapping())?;
/// let policies = PolicyAssignment::uniform_reexecution(&app, 2);
/// let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)?;
/// let cpg = build_ftcpg(
///     &app,
///     &policies,
///     &copies,
///     FaultModel::new(2),
///     &transparency,
///     BuildConfig::default(),
/// )?;
/// assert!(cpg.node_count() > app.process_count());
/// cpg.check_invariants().map_err(std::io::Error::other)?;
/// # Ok(())
/// # }
/// ```
pub fn build_ftcpg(
    app: &Application,
    policies: &PolicyAssignment,
    copies: &CopyMapping,
    fault_model: FaultModel,
    transparency: &Transparency,
    config: BuildConfig,
) -> Result<FtCpg, CpgError> {
    policies.validate(fault_model.k())?;
    transparency.validate(app)?;
    let count = check_size(app, policies, copies, fault_model.k(), transparency, config)?;
    Ok(fresh_builder(app, policies, copies, fault_model.k(), transparency, config)
        .run(0, count)?
        .graph)
}

/// Builds the FT-CPG like [`build_ftcpg`] and additionally returns a
/// [`CpgAnchor`]: a reusable snapshot of the construction that lets later
/// configurations differing in only a few processes rebuild incrementally
/// via [`CpgAnchor::rebuild`].
///
/// # Errors
///
/// Exactly those of [`build_ftcpg`].
pub fn build_ftcpg_anchored(
    app: &Application,
    policies: &PolicyAssignment,
    copies: &CopyMapping,
    fault_model: FaultModel,
    transparency: &Transparency,
    config: BuildConfig,
) -> Result<(FtCpg, CpgAnchor), CpgError> {
    policies.validate(fault_model.k())?;
    transparency.validate(app)?;
    let count = check_size(app, policies, copies, fault_model.k(), transparency, config)?;
    let parts = fresh_builder(app, policies, copies, fault_model.k(), transparency, config)
        .run(0, count)?;
    let anchor = CpgAnchor {
        graph: parts.graph.clone(),
        copies: copies.clone(),
        policies: policies.clone(),
        checkpoints: parts.checkpoints,
        msg_outputs: parts.msg_outputs,
        process_variant: parts.process_variant,
        message_variant: parts.message_variant,
    };
    Ok((parts.graph, anchor))
}

fn fresh_builder<'a>(
    app: &'a Application,
    policies: &'a PolicyAssignment,
    copies: &'a CopyMapping,
    k: u32,
    transparency: &'a Transparency,
    config: BuildConfig,
) -> Builder<'a> {
    Builder {
        app,
        policies,
        copies,
        k,
        transparency,
        config,
        graph: FtCpg { fault_budget: k, ..FtCpg::default() },
        process_variant: vec![0; app.process_count()],
        message_variant: vec![0; app.message_count()],
        msg_outputs: vec![Vec::new(); app.message_count()],
        checkpoints: Vec::with_capacity(app.process_count()),
        join: ArrivalJoin::default(),
    }
}

/// Reuse accounting of one [`CpgAnchor::rebuild`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildStats {
    /// Topological positions (processes) of the application.
    pub total_positions: usize,
    /// Positions restored from the anchor instead of being rebuilt.
    pub reused_positions: usize,
    /// FT-CPG nodes restored from the anchor's shared prefix.
    pub reused_nodes: usize,
}

/// Per-topological-position construction checkpoint: the graph extents
/// *before* that position's build step ran.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    nodes: usize,
    edges: usize,
    joins: usize,
}

/// A reusable anchor of one FT-CPG construction: the built graph plus the
/// builder state at every topological position, so a **delta**
/// configuration — one differing from the anchored `(copies, policies)` in
/// a few processes — can be rebuilt by restoring the shared prefix and
/// re-running construction only from the first position a change can
/// reach.
///
/// Dirtiness propagates *backwards* one hop: a message's construction
/// (during its producer's step) reads the **successor's** policy and
/// placement to decide internal-vs-bus routing, so the first rebuilt
/// position is the minimum over every changed process `q` of `pos(q)` and
/// the positions of `q`'s predecessors. Everything before that position is
/// bit-identical to the anchor by construction and is restored by
/// truncating clones (out-edge lists are cut at the checkpoint's edge
/// count; in-edges of prefix nodes are complete because edges always
/// target the node created in the same step).
///
/// The rebuild contract is **bit-for-bit equality with
/// [`build_ftcpg`]** — graphs *and* errors — for the same `(app, fault
/// model, transparency, config)` the anchor was built with;
/// `tests/certifier_equality.rs` property-tests the contract end to end.
#[derive(Debug, Clone)]
pub struct CpgAnchor {
    graph: FtCpg,
    copies: CopyMapping,
    policies: PolicyAssignment,
    checkpoints: Vec<Checkpoint>,
    msg_outputs: Vec<Vec<OutputCtx>>,
    process_variant: Vec<u32>,
    message_variant: Vec<u32>,
}

impl CpgAnchor {
    /// The anchored graph (the FT-CPG of the anchored configuration).
    pub fn graph(&self) -> &FtCpg {
        &self.graph
    }

    /// Rebuilds the FT-CPG for a delta configuration, reusing the prefix
    /// shared with the anchored one, and re-anchors on the result.
    ///
    /// `app`, `fault_model`, `transparency` and `config` must be the ones
    /// the anchor was built with — only `(copies, policies)` may differ
    /// (the certifier's per-instance discipline). On error the anchor is
    /// left unchanged and still valid.
    ///
    /// # Errors
    ///
    /// Exactly those of [`build_ftcpg`] on the same inputs.
    pub fn rebuild(
        &mut self,
        app: &Application,
        policies: &PolicyAssignment,
        copies: &CopyMapping,
        fault_model: FaultModel,
        transparency: &Transparency,
        config: BuildConfig,
    ) -> Result<(FtCpg, RebuildStats), CpgError> {
        policies.validate(fault_model.k())?;
        transparency.validate(app)?;
        let order = app.topological_order();
        let n = order.len();
        let mut pos = vec![0usize; app.process_count()];
        for (i, &pid) in order.iter().enumerate() {
            pos[pid.index()] = i;
        }
        // First topological position any change can reach: a dirty process
        // itself, or a predecessor of one (whose message-build step reads
        // the dirty process's policy/placement).
        let mut first = n;
        for (pid, _) in app.processes() {
            let clean = copies.copies_of(pid) == self.copies.copies_of(pid)
                && policies.policy(pid) == self.policies.policy(pid);
            if !clean {
                first = first.min(pos[pid.index()]);
                for &(p, _) in app.predecessors(pid) {
                    first = first.min(pos[p.index()]);
                }
            }
        }
        if first == n {
            // The configuration is the anchored one.
            let stats = RebuildStats {
                total_positions: n,
                reused_positions: n,
                reused_nodes: self.graph.node_count(),
            };
            return Ok((self.graph.clone(), stats));
        }
        let count = check_size(app, policies, copies, fault_model.k(), transparency, config)?;
        let cp = self.checkpoints[first];
        let cut_edges = |lists: &[Vec<usize>]| -> Vec<Vec<usize>> {
            lists
                .iter()
                .map(|l| {
                    // Edge indices per node are appended in increasing
                    // order; the checkpoint's edge count is the cut.
                    let keep = l.partition_point(|&e| e < cp.edges);
                    l[..keep].to_vec()
                })
                .collect()
        };
        let graph = FtCpg {
            nodes: self.graph.nodes[..cp.nodes].to_vec(),
            edges: self.graph.edges[..cp.edges].to_vec(),
            out_edges: cut_edges(&self.graph.out_edges[..cp.nodes]),
            in_edges: cut_edges(&self.graph.in_edges[..cp.nodes]),
            names: self.graph.names[..cp.nodes].to_vec(),
            joins: self.graph.joins[..cp.joins].to_vec(),
            fault_budget: fault_model.k(),
        };
        // Variant counters and message outputs are touched only during
        // their owner's (the producer's, for messages) step: prefix values
        // are final, dirty-region values restart from scratch. Dirty-region
        // message outputs are assigned before any consumer reads them, so
        // leaving them empty is safe.
        let mut process_variant = vec![0u32; app.process_count()];
        let mut message_variant = vec![0u32; app.message_count()];
        let mut msg_outputs: Vec<Vec<OutputCtx>> = vec![Vec::new(); app.message_count()];
        for (pid, _) in app.processes() {
            if pos[pid.index()] < first {
                process_variant[pid.index()] = self.process_variant[pid.index()];
                for &(_, mid) in app.successors(pid) {
                    message_variant[mid.index()] = self.message_variant[mid.index()];
                    msg_outputs[mid.index()] = self.msg_outputs[mid.index()].clone();
                }
            }
        }
        let parts = Builder {
            app,
            policies,
            copies,
            k: fault_model.k(),
            transparency,
            config,
            graph,
            process_variant,
            message_variant,
            msg_outputs,
            checkpoints: self.checkpoints[..first].to_vec(),
            join: ArrivalJoin::default(),
        }
        .run(first, count)?;
        let stats =
            RebuildStats { total_positions: n, reused_positions: first, reused_nodes: cp.nodes };
        self.graph = parts.graph.clone();
        self.copies = copies.clone();
        self.policies = policies.clone();
        self.checkpoints = parts.checkpoints;
        self.msg_outputs = parts.msg_outputs;
        self.process_variant = parts.process_variant;
        self.message_variant = parts.message_variant;
        Ok((parts.graph, stats))
    }
}

/// Answers [`CpgError::GraphTooLarge`] when the node count exceeds the node
/// limit; otherwise returns the count, when it answered, for the post-build
/// check.
fn check_size(
    app: &Application,
    policies: &PolicyAssignment,
    copies: &CopyMapping,
    k: u32,
    transparency: &Transparency,
    config: BuildConfig,
) -> Result<Option<u64>, CpgError> {
    match node_count(app, policies, copies, k, transparency, config.node_limit) {
        Some(count) if count > config.node_limit as u64 => {
            Err(CpgError::GraphTooLarge { limit: config.node_limit })
        }
        count => Ok(count),
    }
}

/// Fault counts the node count tracks. Arrival contexts with more faults are
/// left out, which makes the count a lower bound past it; a fault budget
/// that large makes any single-copy chain longer than a practical node
/// limit anyway.
const BOUND_MAX_FAULTS: u32 = 64;

/// The module doc's node count: the number of nodes the builder would build
/// (a lower bound when `k` exceeds [`BOUND_MAX_FAULTS`]), or `None` when
/// some copy the build would place is infeasible (the build then decides).
/// Counting stops once the total passes `stop_above`; the value returned
/// then only exceeds it.
fn node_count(
    app: &Application,
    policies: &PolicyAssignment,
    copies: &CopyMapping,
    k: u32,
    transparency: &Transparency,
    stop_above: usize,
) -> Option<u64> {
    let mut rows = policies.iter();
    let feasible = app.processes().all(|(pid, proc)| {
        rows.next().is_some_and(|(_, policy)| {
            (0..policy.copies().len()).all(|copy| {
                copies
                    .get(pid, copy)
                    .and_then(|node| proc.wcet_on(node))
                    .is_some_and(|wcet| RecoveryScheme::for_process(proc, wcet).is_ok())
            })
        })
    });
    if !feasible {
        return None;
    }
    let words = app.process_count().div_ceil(64);
    // Per message: the processes whose conditions its output guards carry.
    let mut sets = vec![0u64; app.message_count() * words];
    let mut set = vec![0u64; words];
    let mut total = 0u64;
    for &pid in app.topological_order() {
        set.fill(0);
        for &(_, mid) in app.predecessors(pid) {
            for (s, &c) in set.iter_mut().zip(&sets[mid.index() * words..][..words]) {
                *s |= c;
            }
        }
        if transparency.is_process_frozen(pid) {
            total = total.saturating_add(1);
            set.fill(0);
        }
        let plans = policies.policy(pid).copies();
        let s: u64 = set.iter().map(|w| u64::from(w.count_ones())).sum();
        let (mut a, mut produced) = (1u64, 0u64);
        for f in 0..=k.min(BOUND_MAX_FAULTS) {
            // `a` arrival contexts at `f`: the fault-count vectors over the
            // `s` processes that sum to `f`, C(f+s−1, f), which is
            // C(f+s−2, f−1)·(f+s−1)/f.
            if f > 0 {
                let next = u128::from(a) * u128::from(u64::from(f) + s - 1) / u128::from(f);
                a = u64::try_from(next).unwrap_or(u64::MAX);
            }
            if a == 0 {
                // No conditions: one fault-free arrival only.
                break;
            }
            // Attempts of a copy with `r` recoveries in an arrival at `f`.
            let attempts = |r: u32| u64::from(r.min(k - f)) + 1;
            if let [plan] = plans {
                let outputs = a.saturating_mul(attempts(plan.recoveries));
                total = total.saturating_add(outputs);
                produced = produced.saturating_add(outputs);
            } else {
                let nodes =
                    plans.iter().fold(1, |n: u64, p| n.saturating_add(attempts(p.recoveries)));
                total = total.saturating_add(a.saturating_mul(nodes));
                produced = produced.saturating_add(a);
            }
        }
        if plans.len() == 1 {
            set[pid.index() / 64] |= 1 << (pid.index() % 64);
        }
        for &(_, mid) in app.successors(pid) {
            let conds = &mut sets[mid.index() * words..][..words];
            if transparency.is_message_frozen(mid) {
                total = total.saturating_add(1);
                conds.fill(0);
            } else {
                total = total.saturating_add(produced);
                conds.copy_from_slice(&set);
            }
        }
        if total > stop_above as u64 {
            break;
        }
    }
    Some(total)
}

/// One "output becomes available" event: scenario guard, producing node and
/// the literal to place on edges leaving that node (the success outcome of a
/// conditional producer).
#[derive(Debug, Clone)]
struct OutputCtx {
    guard: Guard,
    source: CpgNodeId,
    edge_cond: Option<Literal>,
}

/// An arrival context of a process: the guard under which all inputs are
/// available and the message nodes providing them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ArrivalCtx {
    guard: Guard,
    sources: Vec<CpgNodeId>,
}

/// Absent link in the [`ArrivalJoin`] trie arena.
const NONE: u32 = u32::MAX;

/// The arrival join: every consistent conjunction of an arrival context
/// with an output context of the next predecessor message, pruned to the
/// fault budget `k`, in (arrival, output) order.
///
/// The output guards go into a prefix trie over their sorted literal
/// lists, kept as a flat arena: one literal per node, first-child /
/// next-sibling links, and a chain of the outputs whose guard ends at each
/// node. Each arrival context walks the trie once with its own literals
/// marked in a condition-indexed table, pruning a subtree at the first
/// literal that contradicts the arrival guard or pushes the conjunction's
/// fault count past `k`. A walk costs the prefixes that survive rather
/// than one merge per output, and only accepted pairs allocate a guard.
/// The hits are re-sorted by output index, so the result is exactly the
/// nested loop's. The buffers are reused across a construction run.
#[derive(Debug, Default)]
struct ArrivalJoin {
    /// Literal of each trie node; node 0 is the root, whose slot is unused.
    lits: Vec<Literal>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    /// First output whose guard ends at each node; `next_end` chains the
    /// others, per output.
    first_end: Vec<u32>,
    next_end: Vec<u32>,
    /// Per condition: 0 if the walking arrival guard leaves it free, else
    /// 1 + the outcome it requires. Covers every condition in the trie.
    marks: Vec<u8>,
    /// Trie nodes still to visit, with the conjunction's fault count there.
    stack: Vec<(u32, u32)>,
    /// Outputs joinable with the walking arrival context.
    hits: Vec<u32>,
}

impl ArrivalJoin {
    fn join(&mut self, arrivals: &[ArrivalCtx], outputs: &[OutputCtx], k: u32) -> Vec<ArrivalCtx> {
        self.build_trie(outputs);
        let mut next = Vec::new();
        for a in arrivals {
            self.walk(&a.guard, k);
            for &i in &self.hits {
                let o = &outputs[i as usize];
                let guard = a
                    .guard
                    .and_within(&o.guard, k)
                    .expect("the trie walk admits only consistent pairs within the budget");
                let mut sources = Vec::with_capacity(a.sources.len() + 1);
                sources.extend_from_slice(&a.sources);
                sources.push(o.source);
                next.push(ArrivalCtx { guard, sources });
            }
        }
        next
    }

    fn build_trie(&mut self, outputs: &[OutputCtx]) {
        self.lits.clear();
        self.first_child.clear();
        self.next_sibling.clear();
        self.first_end.clear();
        self.next_end.clear();
        self.next_end.resize(outputs.len(), NONE);
        self.push_node(Literal::no_fault(CpgNodeId::new(0)), NONE);
        for (i, o) in outputs.iter().enumerate() {
            let mut node = 0;
            for &lit in o.guard.literals() {
                node = self.child(node, lit);
            }
            self.next_end[i] = self.first_end[node];
            self.first_end[node] = i as u32;
        }
    }

    /// The child of `node` carrying `lit`, created if missing. A new child
    /// goes first in its sibling list: consecutive outputs mostly extend
    /// the path the previous one created.
    fn child(&mut self, node: usize, lit: Literal) -> usize {
        let mut c = self.first_child[node];
        while c != NONE {
            if self.lits[c as usize] == lit {
                return c as usize;
            }
            c = self.next_sibling[c as usize];
        }
        let c = self.lits.len();
        self.push_node(lit, self.first_child[node]);
        self.first_child[node] = c as u32;
        if self.marks.len() <= lit.cond.index() {
            self.marks.resize(lit.cond.index() + 1, 0);
        }
        c
    }

    fn push_node(&mut self, lit: Literal, next_sibling: u32) {
        self.lits.push(lit);
        self.first_child.push(NONE);
        self.next_sibling.push(next_sibling);
        self.first_end.push(NONE);
    }

    /// Fills `hits`, ascending, with the outputs whose guard is consistent
    /// with `guard` in a conjunction of at most `k` faults.
    fn walk(&mut self, guard: &Guard, k: u32) {
        self.hits.clear();
        // Conditions past the table's end are in no output guard, so they
        // cannot conflict and need no mark.
        for l in guard.literals() {
            if let Some(m) = self.marks.get_mut(l.cond.index()) {
                *m = 1 + u8::from(l.fault);
            }
        }
        let faults = guard.fault_count();
        if faults <= k {
            self.stack.push((0, faults));
        }
        while let Some((node, faults)) = self.stack.pop() {
            let mut end = self.first_end[node as usize];
            while end != NONE {
                self.hits.push(end);
                end = self.next_end[end as usize];
            }
            let mut c = self.first_child[node as usize];
            while c != NONE {
                let lit = self.lits[c as usize];
                let faults = match self.marks[lit.cond.index()] {
                    0 => Some(faults + u32::from(lit.fault)),
                    m if m == 1 + u8::from(lit.fault) => Some(faults),
                    _ => None,
                };
                if let Some(faults) = faults.filter(|&f| f <= k) {
                    self.stack.push((c, faults));
                }
                c = self.next_sibling[c as usize];
            }
        }
        for l in guard.literals() {
            if let Some(m) = self.marks.get_mut(l.cond.index()) {
                *m = 0;
            }
        }
        self.hits.sort_unstable();
    }
}

/// The nested loop the trie join replaced, kept as its test oracle.
#[cfg(test)]
fn nested_loop_join(arrivals: &[ArrivalCtx], outputs: &[OutputCtx], k: u32) -> Vec<ArrivalCtx> {
    let mut next = Vec::new();
    for a in arrivals {
        for o in outputs {
            if let Some(g) = a.guard.and(&o.guard) {
                if g.fault_count() <= k {
                    let mut sources = a.sources.clone();
                    sources.push(o.source);
                    next.push(ArrivalCtx { guard: g, sources });
                }
            }
        }
    }
    next
}

struct ChainResult {
    attempt_nodes: Vec<CpgNodeId>,
    outcomes: Vec<OutputCtx>,
}

struct Builder<'a> {
    app: &'a Application,
    policies: &'a PolicyAssignment,
    copies: &'a CopyMapping,
    k: u32,
    transparency: &'a Transparency,
    config: BuildConfig,
    graph: FtCpg,
    process_variant: Vec<u32>,
    message_variant: Vec<u32>,
    msg_outputs: Vec<Vec<OutputCtx>>,
    checkpoints: Vec<Checkpoint>,
    join: ArrivalJoin,
}

/// Everything a finished construction run produces: the graph plus the
/// per-position state a [`CpgAnchor`] snapshots.
struct BuiltParts {
    graph: FtCpg,
    checkpoints: Vec<Checkpoint>,
    msg_outputs: Vec<Vec<OutputCtx>>,
    process_variant: Vec<u32>,
    message_variant: Vec<u32>,
}

impl Builder<'_> {
    /// Builds every topological position from `start` on; `count` is the
    /// node count the entry point computed, checked against the result in
    /// debug builds.
    fn run(mut self, start: usize, count: Option<u64>) -> Result<BuiltParts, CpgError> {
        let order = self.app.topological_order();
        for &pid in &order[start..] {
            self.step(pid)?;
        }
        debug_assert_eq!(self.graph.check_invariants(), Ok(()));
        let (nodes, exact) = (self.graph.nodes.len() as u64, self.k <= BOUND_MAX_FAULTS);
        debug_assert!(
            count.is_none_or(|c| if exact { c == nodes } else { c <= nodes }),
            "node count {count:?} disagrees with the built node count {nodes}"
        );
        Ok(BuiltParts {
            graph: self.graph,
            checkpoints: self.checkpoints,
            msg_outputs: self.msg_outputs,
            process_variant: self.process_variant,
            message_variant: self.message_variant,
        })
    }

    /// One topological position: the process's copies in every arrival
    /// context, then the messages to its successors.
    fn step(&mut self, pid: ProcessId) -> Result<(), CpgError> {
        self.checkpoints.push(Checkpoint {
            nodes: self.graph.nodes.len(),
            edges: self.graph.edges.len(),
            joins: self.graph.joins.len(),
        });
        let arrivals = self.arrival_contexts(pid);
        let outputs = self.build_process(pid, arrivals)?;
        for &(succ, mid) in self.app.successors(pid) {
            self.msg_outputs[mid.index()] = self.build_message(pid, succ, mid, &outputs)?;
        }
        Ok(())
    }

    fn arrival_contexts(&mut self, pid: ProcessId) -> Vec<ArrivalCtx> {
        let mut arrivals = vec![ArrivalCtx { guard: Guard::always(), sources: Vec::new() }];
        for &(_, mid) in self.app.predecessors(pid) {
            arrivals = self.join.join(&arrivals, &self.msg_outputs[mid.index()], self.k);
        }
        arrivals
    }

    fn build_process(
        &mut self,
        pid: ProcessId,
        mut arrivals: Vec<ArrivalCtx>,
    ) -> Result<Vec<OutputCtx>, CpgError> {
        // Frozen process: all arrival contexts feed one synchronization node
        // and the chain restarts from the unconditional guard (Fig. 5b, P3).
        if self.transparency.is_process_frozen(pid) {
            let name = format!("{}^S", self.app.process(pid).name());
            let sync = self.add_node(
                CpgNodeKind::ProcessSync { process: pid },
                name,
                Guard::always(),
                Time::ZERO,
                Location::None,
                false,
            )?;
            for a in &arrivals {
                for &src in &a.sources {
                    let cond = self.success_literal(src);
                    self.add_edge(src, sync, cond);
                }
            }
            arrivals = vec![ArrivalCtx { guard: Guard::always(), sources: vec![sync] }];
        }

        let policy = self.policies.policy(pid).clone();
        let mut outputs = Vec::new();
        let mut join_variant = 0u32;
        for arrival in arrivals {
            if policy.copies().len() == 1 {
                let chain = self.build_chain(pid, 0, policy.copies()[0], &arrival)?;
                outputs.extend(chain.outcomes);
            } else {
                let mut chains = Vec::new();
                let mut all_outcomes = Vec::new();
                for (j, &plan) in policy.copies().iter().enumerate() {
                    let chain = self.build_chain(pid, j as u32, plan, &arrival)?;
                    chains.push(chain.attempt_nodes);
                    all_outcomes.extend(chain.outcomes);
                }
                join_variant += 1;
                let name = format!("{}^J{}", self.app.process(pid).name(), join_variant);
                let join = self.add_node(
                    CpgNodeKind::ReplicaJoin { process: pid, variant: join_variant },
                    name,
                    arrival.guard.clone(),
                    Time::ZERO,
                    Location::None,
                    false,
                )?;
                for o in &all_outcomes {
                    self.add_edge(o.source, join, o.edge_cond);
                }
                self.graph.joins.push((join, chains));
                outputs.push(OutputCtx { guard: arrival.guard, source: join, edge_cond: None });
            }
        }
        Ok(outputs)
    }

    /// Unrolls the recovery chain of one copy in one arrival context.
    fn build_chain(
        &mut self,
        pid: ProcessId,
        copy: u32,
        plan: CopyPlan,
        arrival: &ArrivalCtx,
    ) -> Result<ChainResult, CpgError> {
        let proc = self.app.process(pid);
        let exec_node = self.copies.node_of(pid, copy as usize);
        let wcet =
            proc.wcet_on(exec_node).ok_or(CpgError::InfeasibleCopyMapping(pid, exec_node))?;
        let scheme = RecoveryScheme::for_process(proc, wcet)?;
        let n = plan.checkpoints;
        let seg = scheme.segment_length(n);

        let mut guard = arrival.guard.clone();
        let mut attempt_nodes = Vec::new();
        let mut outcomes = Vec::new();
        let mut prev: Option<CpgNodeId> = None;
        let mut attempt = 1u32;
        let replicated = self.policies.policy(pid).copies().len() > 1;
        loop {
            let budget = self.k - guard.fault_count();
            let at_risk = budget > 0;
            let can_recover = attempt <= plan.recoveries;
            let duration = if attempt == 1 {
                scheme.fault_free_time(n)
            } else if at_risk {
                scheme.mu() + seg + scheme.alpha()
            } else {
                // Final possible recovery: its error detection can never
                // fire (budget exhausted), per the Fig. 1c accounting.
                scheme.mu() + seg
            };
            self.process_variant[pid.index()] += 1;
            let variant = self.process_variant[pid.index()];
            let name = if replicated {
                format!("{}({})^{}", proc.name(), copy + 1, attempt)
            } else {
                format!("{}^{}", proc.name(), variant)
            };
            let node = self.add_node(
                CpgNodeKind::ProcessCopy { process: pid, copy, attempt, variant },
                name,
                guard.clone(),
                duration,
                Location::Node(exec_node),
                at_risk,
            )?;
            attempt_nodes.push(node);
            match prev {
                None => {
                    for &src in &arrival.sources {
                        let cond = self.success_literal(src);
                        self.add_edge(src, node, cond);
                    }
                }
                Some(p) => self.add_edge(p, node, Some(Literal::fault(p))),
            }
            if at_risk {
                let success = guard
                    .and_literal(Literal::no_fault(node))
                    .expect("fresh condition cannot contradict");
                outcomes.push(OutputCtx {
                    guard: success,
                    source: node,
                    edge_cond: Some(Literal::no_fault(node)),
                });
                if can_recover {
                    guard = guard
                        .and_literal(Literal::fault(node))
                        .expect("fresh condition cannot contradict");
                    prev = Some(node);
                    attempt += 1;
                    continue;
                }
                // Dead end: the copy dies on a further fault. Only replicas
                // reach this (validated single-copy policies have R >= k).
                debug_assert!(replicated, "single-copy chain must exhaust the budget");
                break;
            }
            outcomes.push(OutputCtx { guard: guard.clone(), source: node, edge_cond: None });
            break;
        }
        Ok(ChainResult { attempt_nodes, outcomes })
    }

    fn build_message(
        &mut self,
        pid: ProcessId,
        succ: ProcessId,
        mid: MessageId,
        outputs: &[OutputCtx],
    ) -> Result<Vec<OutputCtx>, CpgError> {
        let msg = self.app.message(mid);
        // A message stays node-internal only when both endpoints are
        // un-replicated and share a node; any replica involvement forces the
        // bus (conservative, §4).
        let single_ends = self.policies.policy(pid).copies().len() == 1
            && self.policies.policy(succ).copies().len() == 1;
        let internal = single_ends && self.copies.node_of(pid, 0) == self.copies.node_of(succ, 0);
        let (duration, location) = if internal {
            (Time::ZERO, Location::None)
        } else {
            (msg.transmission(), Location::Bus)
        };

        if self.transparency.is_message_frozen(mid) {
            let name = format!("{}^S", msg.name());
            let sync = self.add_node(
                CpgNodeKind::MessageSync { message: mid },
                name,
                Guard::always(),
                duration,
                location,
                false,
            )?;
            for o in outputs {
                self.add_edge(o.source, sync, o.edge_cond);
            }
            return Ok(vec![OutputCtx { guard: Guard::always(), source: sync, edge_cond: None }]);
        }

        let mut msg_ctxs = Vec::with_capacity(outputs.len());
        for o in outputs {
            self.message_variant[mid.index()] += 1;
            let variant = self.message_variant[mid.index()];
            let name = format!("{}^{}", msg.name(), variant);
            let node = self.add_node(
                CpgNodeKind::MessageCopy { message: mid, variant },
                name,
                o.guard.clone(),
                duration,
                location,
                false,
            )?;
            self.add_edge(o.source, node, o.edge_cond);
            msg_ctxs.push(OutputCtx { guard: o.guard.clone(), source: node, edge_cond: None });
        }
        Ok(msg_ctxs)
    }

    /// The success literal of a conditional source (for edges leaving it on
    /// the no-fault branch); `None` for regular sources.
    fn success_literal(&self, src: CpgNodeId) -> Option<Literal> {
        if self.graph.node(src).conditional {
            Some(Literal::no_fault(src))
        } else {
            None
        }
    }

    fn add_node(
        &mut self,
        kind: CpgNodeKind,
        name: String,
        guard: Guard,
        duration: Time,
        location: Location,
        conditional: bool,
    ) -> Result<CpgNodeId, CpgError> {
        if self.graph.nodes.len() >= self.config.node_limit {
            return Err(CpgError::GraphTooLarge { limit: self.config.node_limit });
        }
        let id = CpgNodeId::new(self.graph.nodes.len());
        self.graph.nodes.push(CpgNode { kind, guard, duration, location, conditional });
        self.graph.names.push(name);
        self.graph.out_edges.push(Vec::new());
        self.graph.in_edges.push(Vec::new());
        Ok(id)
    }

    fn add_edge(&mut self, from: CpgNodeId, to: CpgNodeId, condition: Option<Literal>) {
        let idx = self.graph.edges.len();
        self.graph.edges.push(CpgEdge { from, to, condition });
        self.graph.out_edges[from.index()].push(idx);
        self.graph.in_edges[to.index()].push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ft::Policy;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::{samples, Architecture, Mapping, MessageId, NodeId};
    use proptest::prelude::*;

    fn fig5_cpg(k: u32) -> (Application, FtCpg) {
        let (app, arch, transparency) = samples::fig5();
        let mapping = Mapping::new(&app, &arch, samples::fig5_mapping()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(k),
            &transparency,
            BuildConfig::default(),
        )
        .unwrap();
        (app, cpg)
    }

    #[test]
    fn fig5_copy_counts_match_paper() {
        let (app, cpg) = fig5_cpg(2);
        cpg.check_invariants().unwrap();
        let copies = |i: usize| cpg.copies_of_process(ProcessId::new(i)).count();
        // Fig. 5b: P1 has 3 copies; P2 (internal edge from P1) has 6;
        // P3 (frozen) has 3; P4 (fed by bus message m1 from P1) has 6.
        assert_eq!(copies(0), 3, "P1 copies");
        assert_eq!(copies(1), 6, "P2 copies");
        assert_eq!(copies(2), 3, "P3 copies (frozen resets contexts)");
        assert_eq!(copies(3), 6, "P4 copies");
        // m1 (P1 -> P4): one copy per P1 outcome.
        assert_eq!(cpg.copies_of_message(ftes_model::MessageId::new(1)).count(), 3);
        // m2, m3 frozen: one sync node each.
        assert_eq!(cpg.copies_of_message(ftes_model::MessageId::new(2)).count(), 1);
        assert_eq!(cpg.copies_of_message(ftes_model::MessageId::new(3)).count(), 1);
        // Two sync-message nodes + one sync-process node.
        assert_eq!(cpg.sync_nodes().count(), 3);
        let _ = app;
    }

    #[test]
    fn fig5_k1_is_smaller() {
        let (_, cpg1) = fig5_cpg(1);
        let (_, cpg2) = fig5_cpg(2);
        assert!(cpg1.node_count() < cpg2.node_count());
        cpg1.check_invariants().unwrap();
        // k = 1: P1 has 2 copies; P2 contexts: !F11 (budget 1 -> 2 copies),
        // F11 (budget 0 -> 1 copy) = 3 copies.
        assert_eq!(cpg1.copies_of_process(ProcessId::new(0)).count(), 2);
        assert_eq!(cpg1.copies_of_process(ProcessId::new(1)).count(), 3);
    }

    #[test]
    fn fault_free_graph_has_no_conditions() {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 0);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::fault_free(),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap();
        assert_eq!(cpg.conditional_nodes().count(), 0);
        // One copy per process, one copy per message.
        assert_eq!(
            cpg.iter().filter(|(_, n)| matches!(n.kind, CpgNodeKind::ProcessCopy { .. })).count(),
            app.process_count()
        );
        cpg.check_invariants().unwrap();
    }

    #[test]
    fn durations_follow_fig1_algebra() {
        // Single process, k = 2, re-execution: attempts E(1), µ+C+α, µ+C.
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
        let durs: Vec<i64> = cpg
            .copies_of_process(ProcessId::new(0))
            .map(|id| cpg.node(id).duration.units())
            .collect();
        // E(0) = 60 + 10 = 70; recovery = 10 + 60 + 10 = 80; final = 70.
        assert_eq!(durs, vec![70, 80, 70]);
        // Worst-case sum equals W(1, 2) from the algebra.
        let scheme =
            RecoveryScheme::new(Time::new(60), Time::new(10), Time::new(10), Time::new(5)).unwrap();
        assert_eq!(Time::new(durs.iter().sum()), scheme.worst_case_time(0, 2));
    }

    #[test]
    fn replication_produces_join_nodes() {
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
        assert_eq!(cpg.joins().len(), 1);
        let (join, chains) = &cpg.joins()[0];
        assert_eq!(chains.len(), 3, "three replicas");
        for c in chains {
            assert_eq!(c.len(), 1, "plain replicas have single-attempt chains");
        }
        // The join guard is unconditional and replica conditions do not
        // escape downstream.
        assert!(cpg.node(*join).guard.is_always());
        // Replicas are conditional (they can be hit while budget remains).
        for c in chains {
            assert!(cpg.node(c[0]).conditional);
        }
        cpg.check_invariants().unwrap();
    }

    #[test]
    fn replicated_checkpointed_combined_policy() {
        let (app, arch) = samples::fig1_process(2);
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let mut policies = PolicyAssignment::uniform_reexecution(&app, 2);
        // Fig. 4c: two copies, R = {0, 1}, second copy checkpointed twice.
        policies.set(
            ProcessId::new(0),
            Policy::from_copies(vec![
                ftes_ft::CopyPlan::plain(),
                ftes_ft::CopyPlan::checkpointed(1, 2),
            ])
            .unwrap(),
        );
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
        let (_, chains) = &cpg.joins()[0];
        assert_eq!(chains[0].len(), 1, "plain copy");
        assert_eq!(chains[1].len(), 2, "checkpointed copy recovers once");
        cpg.check_invariants().unwrap();
    }

    #[test]
    fn node_limit_is_enforced() {
        let (app, arch, transparency) = samples::fig5();
        let mapping = Mapping::new(&app, &arch, samples::fig5_mapping()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let err = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &transparency,
            BuildConfig { node_limit: 3 },
        )
        .unwrap_err();
        assert_eq!(err, CpgError::GraphTooLarge { limit: 3 });
    }

    #[test]
    fn insufficient_policy_rejected() {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 1);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let err = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(3),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CpgError::Ft(_)));
    }

    #[test]
    fn guards_on_alternative_paths_are_disjoint() {
        let (_, cpg) = fig5_cpg(2);
        // For every conditional node, children on the fault branch exclude
        // children on the no-fault branch.
        for cond in cpg.conditional_nodes() {
            let fault_children: Vec<_> = cpg
                .outgoing(cond)
                .filter(|e| e.condition == Some(Literal::fault(cond)))
                .map(|e| e.to)
                .collect();
            let ok_children: Vec<_> = cpg
                .outgoing(cond)
                .filter(|e| e.condition == Some(Literal::no_fault(cond)))
                .map(|e| e.to)
                .collect();
            for &f in &fault_children {
                for &s in &ok_children {
                    let (gf, gs) = (&cpg.node(f).guard, &cpg.node(s).guard);
                    // Sync nodes absorb guards; skip unconditional children.
                    if !gf.is_always() && !gs.is_always() {
                        assert!(
                            gf.excludes(gs),
                            "fault/no-fault children of {} must be disjoint",
                            cpg.name(cond)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn internal_vs_bus_messages() {
        let (app, cpg) = fig5_cpg(2);
        let _ = app;
        // m0 (P1 -> P2, both on N1) is internal: zero duration, no location.
        for id in cpg.copies_of_message(ftes_model::MessageId::new(0)) {
            assert_eq!(cpg.node(id).duration, Time::ZERO);
            assert_eq!(cpg.node(id).location, Location::None);
        }
        // m1 (P1 on N1 -> P4 on N2) rides the bus.
        for id in cpg.copies_of_message(ftes_model::MessageId::new(1)) {
            assert_eq!(cpg.node(id).duration, Time::new(1));
            assert_eq!(cpg.node(id).location, Location::Bus);
        }
    }

    #[test]
    fn anchored_rebuild_is_bit_identical_to_fresh_builds() {
        let (app, arch, transparency) = samples::fig5();
        let mapping = Mapping::new(&app, &arch, samples::fig5_mapping()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let k = FaultModel::new(2);
        let (base, mut anchor) = build_ftcpg_anchored(
            &app,
            &policies,
            &copies,
            k,
            &transparency,
            BuildConfig::default(),
        )
        .unwrap();
        assert_eq!(&base, anchor.graph());
        // Walk a chain of one-process policy deltas; every rebuild must
        // equal a from-scratch construction of the same configuration.
        for step in 0..app.process_count() * 2 {
            let target = ProcessId::new(step % app.process_count());
            let mut next = policies.clone();
            let policy =
                if step % 2 == 0 { Policy::checkpointing(2, 2) } else { Policy::replication(2) };
            next.set(target, policy);
            let next_copies = CopyMapping::from_base(&app, &arch, &mapping, &next).unwrap();
            let (rebuilt, stats) = anchor
                .rebuild(&app, &next, &next_copies, k, &transparency, BuildConfig::default())
                .unwrap();
            let fresh =
                build_ftcpg(&app, &next, &next_copies, k, &transparency, BuildConfig::default())
                    .unwrap();
            assert_eq!(rebuilt, fresh, "step {step} diverged from the monolithic build");
            assert_eq!(stats.total_positions, app.process_count());
            assert!(stats.reused_positions <= stats.total_positions);
            // Re-anchor back on the base configuration too (the search's
            // revert move) and re-check.
            let (back, _) = anchor
                .rebuild(&app, &policies, &copies, k, &transparency, BuildConfig::default())
                .unwrap();
            assert_eq!(back, base, "step {step} revert diverged");
        }
    }

    #[test]
    fn anchored_rebuild_reuses_the_shared_prefix() {
        // A chain app: dirtying the last process must reuse every earlier
        // position (minus the one-hop backward reach of its predecessor).
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 1);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let k = FaultModel::new(1);
        let t = Transparency::none();
        let (_, mut anchor) =
            build_ftcpg_anchored(&app, &policies, &copies, k, &t, BuildConfig::default()).unwrap();
        let last = *app.topological_order().last().unwrap();
        let mut next = policies.clone();
        next.set(last, Policy::checkpointing(1, 2));
        let next_copies = CopyMapping::from_base(&app, &arch, &mapping, &next).unwrap();
        let (_, stats) =
            anchor.rebuild(&app, &next, &next_copies, k, &t, BuildConfig::default()).unwrap();
        assert!(
            stats.reused_positions > 0 && stats.reused_nodes > 0,
            "a trailing delta must reuse a prefix: {stats:?}"
        );
        // An unchanged configuration reuses everything.
        let (_, stats) =
            anchor.rebuild(&app, &next, &next_copies, k, &t, BuildConfig::default()).unwrap();
        assert_eq!(stats.reused_positions, stats.total_positions);
    }

    /// A generated application (new, chainy or wide by `seed`) on a
    /// homogeneous architecture, under a mix of re-execution,
    /// checkpointing, replication and combined policies, with a frozen
    /// process in a quarter of the seeds and a frozen message in another
    /// quarter.
    fn mixed_instance(
        seed: u64,
        n: usize,
        nodes: usize,
        k: u32,
    ) -> (Application, Architecture, PolicyAssignment, Transparency) {
        let config = match seed % 3 {
            0 => GeneratorConfig::new(n, nodes),
            1 => GeneratorConfig::chainy(n, nodes),
            _ => GeneratorConfig::wide(n, nodes),
        };
        let app = generate_application(&config, seed).expect("generator config in range");
        let arch = Architecture::homogeneous(nodes).expect("non-empty architecture");
        let mut policies = PolicyAssignment::uniform_reexecution(&app, k);
        for i in 0..n {
            let policy = match (seed as usize + i) % 5 {
                0 => Policy::replication(k),
                1 => Policy::checkpointing(k, 2),
                2 if k > 0 => {
                    Policy::from_copies(vec![CopyPlan::reexecuted(k - 1), CopyPlan::plain()])
                        .expect("non-empty copy list")
                }
                _ => Policy::reexecution(k),
            };
            policies.set(ProcessId::new(i), policy);
        }
        let mut transparency = Transparency::none();
        if seed.is_multiple_of(4) {
            transparency.freeze_process(ProcessId::new(seed as usize % n));
        } else if seed % 4 == 1 && app.message_count() > 0 {
            transparency.freeze_message(MessageId::new(seed as usize % app.message_count()));
        }
        (app, arch, policies, transparency)
    }

    #[test]
    fn the_node_count_is_exact_on_a_diamond() {
        // A → {B, C} → D. D's inputs share A's conditions, so its arrival
        // contexts are the fault-count vectors over {A, B, C} (1, 3 and 6
        // at 0, 1 and 2 faults), not the pairs of its inputs' contexts.
        use ftes_model::{ApplicationBuilder, ProcessSpec};
        let mut b = ApplicationBuilder::new(2);
        let [a, pb, c, d] = ["A", "B", "C", "D"]
            .map(|name| b.add_process(ProcessSpec::uniform(name, Time::new(10), 2)));
        for (name, from, to) in [("ab", a, pb), ("ac", a, c), ("bd", pb, d), ("cd", c, d)] {
            b.add_message(name, from, to, Time::new(1)).unwrap();
        }
        let app = b.deadline(Time::new(1000)).build().unwrap();
        let arch = Architecture::homogeneous(2).unwrap();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let t = Transparency::none();
        for (k, nodes) in [(1, 23), (2, 48), (3, 87)] {
            let policies = PolicyAssignment::uniform_reexecution(&app, k);
            let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
            let count = node_count(&app, &policies, &copies, k, &t, usize::MAX);
            assert_eq!(count, Some(nodes), "k = {k}");
            let fm = FaultModel::new(k);
            let cpg =
                build_ftcpg(&app, &policies, &copies, fm, &t, BuildConfig::default()).unwrap();
            assert_eq!(cpg.node_count() as u64, nodes, "k = {k}");
        }
    }

    #[test]
    fn past_64_faults_the_node_count_is_a_lower_bound() {
        // Arrival contexts above 64 faults are not counted: at k = 65 the
        // count falls short of the graph, which still builds.
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 65);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let t = Transparency::none();
        let count = node_count(&app, &policies, &copies, 65, &t, usize::MAX).unwrap();
        let config = BuildConfig { node_limit: 200_000 };
        let cpg = build_ftcpg(&app, &policies, &copies, FaultModel::new(65), &t, config).unwrap();
        assert!(count < cpg.node_count() as u64, "{count} vs {}", cpg.node_count());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_short_copy_row_is_left_to_the_build() {
        // Copies placed for one copy per process, built under a policy that
        // replicates the first process: its replica rows are missing.
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let single = PolicyAssignment::uniform_reexecution(&app, 2);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &single).unwrap();
        let mut policies = single.clone();
        policies.set(app.topological_order()[0], Policy::replication(2));
        let t = Transparency::none();
        assert_eq!(node_count(&app, &policies, &copies, 2, &t, usize::MAX), None);
        // The count declines, so the build decides: it places the original
        // within the one-node limit and panics at the missing replica
        // entry, instead of answering `GraphTooLarge`.
        let _ = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &t,
            BuildConfig { node_limit: 1 },
        );
    }

    #[test]
    fn an_infeasible_copy_is_left_to_the_build() {
        // P3 has no WCET on N2: the count declines and the build reports the
        // infeasible copy it reaches before the node limit (the whole graph
        // has 53 nodes).
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let mut copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let p3 = ProcessId::new(2);
        copies.overwrite_row(p3, &[NodeId::new(1)]);
        let t = Transparency::none();
        assert_eq!(node_count(&app, &policies, &copies, 2, &t, usize::MAX), None);
        let err = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &t,
            BuildConfig { node_limit: 40 },
        )
        .unwrap_err();
        assert_eq!(err, CpgError::InfeasibleCopyMapping(p3, NodeId::new(1)));
    }

    proptest! {
        /// The node count equals the built node count, and with the node
        /// limit at the count every entry point builds, while one below it
        /// every entry point answers `GraphTooLarge` (a rebuild leaving its
        /// anchor as it was), on random applications under mixed policies
        /// with frozen processes and messages.
        #[test]
        fn the_node_count_is_exact_and_answers_over_budget(
            seed in 0u64..1000,
            n in 4usize..30,
            nodes in 2usize..4,
            k in 0u32..6,
        ) {
            let (app, arch, policies, t) = mixed_instance(seed, n, nodes, k);
            let mapping = Mapping::cheapest(&app, &arch).expect("generated apps are mappable");
            let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)
                .expect("placement on a homogeneous architecture is feasible");
            let fm = FaultModel::new(k);
            let count = node_count(&app, &policies, &copies, k, &t, usize::MAX)
                .expect("every copy is feasible");
            let built = build_ftcpg(&app, &policies, &copies, fm, &t, BuildConfig {
                node_limit: 20_000,
            });
            match &built {
                Ok(cpg) => prop_assert_eq!(count, cpg.node_count() as u64),
                Err(e) => {
                    prop_assert_eq!(e, &CpgError::GraphTooLarge { limit: 20_000 });
                    prop_assert!(count > 20_000);
                }
            }

            // Anchor on all-replication placements where they fit the limit.
            let light = PolicyAssignment::uniform_replication(&app, k);
            let light_copies = CopyMapping::from_base(&app, &arch, &mapping, &light)
                .expect("placement on a homogeneous architecture is feasible");
            let limits = if built.is_ok() { vec![count, count - 1] } else { vec![count - 1] };
            for limit in limits {
                let config = BuildConfig { node_limit: limit as usize };
                let want = match &built {
                    Ok(cpg) if limit == count => Ok(cpg.clone()),
                    _ => Err(CpgError::GraphTooLarge { limit: limit as usize }),
                };
                prop_assert_eq!(&build_ftcpg(&app, &policies, &copies, fm, &t, config), &want);
                prop_assert_eq!(
                    &build_ftcpg_anchored(&app, &policies, &copies, fm, &t, config).map(|(g, _)| g),
                    &want
                );
                if let Ok((anchored, mut anchor)) =
                    build_ftcpg_anchored(&app, &light, &light_copies, fm, &t, config)
                {
                    prop_assert_eq!(
                        &anchor.rebuild(&app, &policies, &copies, fm, &t, config).map(|(g, _)| g),
                        &want
                    );
                    if want.is_err() {
                        prop_assert_eq!(anchor.graph(), &anchored);
                    }
                    let (back, _) = anchor
                        .rebuild(&app, &light, &light_copies, fm, &t, config)
                        .expect("the anchored configuration fits");
                    prop_assert_eq!(back, anchored);
                }
            }
        }

        /// Remapping processes under fixed policies changes durations and
        /// locations only: the node count and every node's guard stay.
        #[test]
        fn remapping_keeps_every_guard(
            seed in 0u64..1000,
            n in 4usize..30,
            nodes in 2usize..4,
            k in 0u32..6,
            picks in proptest::collection::vec(0usize..16, 30),
        ) {
            let (app, arch, policies, t) = mixed_instance(seed, n, nodes, k);
            let cheapest = Mapping::cheapest(&app, &arch).expect("generated apps are mappable");
            let remapped: Vec<NodeId> = app
                .processes()
                .map(|(pid, proc)| {
                    let candidates: Vec<NodeId> = proc.candidate_nodes().collect();
                    candidates[picks[pid.index()] % candidates.len()]
                })
                .collect();
            let remapped = Mapping::new(&app, &arch, remapped).expect("candidate nodes are feasible");
            let build = |mapping: &Mapping| {
                let copies = CopyMapping::from_base(&app, &arch, mapping, &policies)
                    .expect("placement on a homogeneous architecture is feasible");
                build_ftcpg(&app, &policies, &copies, FaultModel::new(k), &t, BuildConfig {
                    node_limit: 20_000,
                })
            };
            match (build(&cheapest), build(&remapped)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.node_count(), b.node_count());
                    for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
                        prop_assert_eq!(&x.guard, &y.guard);
                    }
                }
                (a, b) => prop_assert_eq!(a.map(|g| g.node_count()), b.map(|g| g.node_count())),
            }
        }

        /// The trie join returns the nested loop's contexts in the nested
        /// loop's order, on the arrival and output lists met while building
        /// random applications under mixed policies with frozen processes
        /// and messages.
        #[test]
        fn trie_join_equals_the_nested_loop(
            seed in 0u64..1000,
            n in 4usize..20,
            nodes in 2usize..4,
            k in 0u32..6,
        ) {
            let (app, arch, policies, transparency) = mixed_instance(seed, n, nodes, k);
            let mapping = Mapping::cheapest(&app, &arch).expect("generated apps are mappable");
            let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)
                .expect("placement on a homogeneous architecture is feasible");
            let mut builder = fresh_builder(
                &app,
                &policies,
                &copies,
                k,
                &transparency,
                BuildConfig { node_limit: 20_000 },
            );
            for &pid in app.topological_order() {
                let mut arrivals =
                    vec![ArrivalCtx { guard: Guard::always(), sources: Vec::new() }];
                for &(_, mid) in app.predecessors(pid) {
                    let outputs = &builder.msg_outputs[mid.index()];
                    let oracle = nested_loop_join(&arrivals, outputs, k);
                    prop_assert_eq!(&builder.join.join(&arrivals, outputs, k), &oracle);
                    arrivals = oracle;
                }
                if builder.step(pid).is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn fixed_mapping_feasibility_checked() {
        // Build a custom mapping that sends P3 (restricted to N1) to N1 but
        // asserts the error path by corrupting the copy mapping arity via
        // the public API is impossible; instead check infeasible copy error
        // through build_chain by a handcrafted mapping on fig3.
        let (app, arch) = samples::fig3();
        let assign =
            vec![NodeId::new(0), NodeId::new(0), NodeId::new(0), NodeId::new(0), NodeId::new(0)];
        let mapping = Mapping::new(&app, &arch, assign).unwrap();
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
        cpg.check_invariants().unwrap();
        let _ = Architecture::homogeneous(2).unwrap();
    }
}
