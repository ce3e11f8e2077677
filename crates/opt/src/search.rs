//! The serial search over mapping and policy-assignment moves (the MXR
//! optimization of \[13\], §6, and the annealing and greedy variants the
//! search ablation compares it with).
//!
//! A state is a base mapping plus one policy per process; replicas are
//! placed by [`CopyMapping::from_base`] and the state is evaluated with the
//! root-schedule estimator. A search step never builds its candidates as
//! states: its [`Neighborhood`] draws moves from a [`MoveSpace`]
//! precomputed once per search, derives each move's change set (the rows
//! and policy that differ from the current state) with [`PlacementLoad`]
//! and scores the sets in one batch over the evaluator's anchored current
//! state; the engine's [`Acceptance::step`] chooses, and only the accepted
//! move is written into the current state and committed to the evaluator.
//! The `ftes-explore` portfolio workers drive the same [`Neighborhood`].
//! Moves:
//!
//! * **remap** — move one (non-fixed) process to another feasible node;
//! * **repolicy** — switch one process among its candidate policies
//!   (re-execution, replication, replication+checkpointed original).

use crate::{Acceptance, EngineKind, OptError, Scored};
use ftes_ft::{CopyPlan, Policy, PolicyAssignment};
use ftes_ftcpg::{ChangeSets, CopyMapping, PlacementLoad};
use ftes_model::{Application, Architecture, Mapping, NodeId, ProcessId, Time};
use ftes_sched::{Estimate, SystemEvaluator};
use ftes_tdma::Platform;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Tunables of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Total iterations.
    pub iterations: usize,
    /// Tabu tenure (iterations a touched process stays tabu; ignored by
    /// the other engines).
    pub tenure: usize,
    /// Number of candidate moves sampled per iteration.
    pub neighborhood: usize,
    /// Cap on checkpoint counts considered by candidate policies.
    pub max_checkpoints: u32,
    /// Seed for the move sampler (deterministic searches).
    pub seed: u64,
    /// Estimator calibration factor in milli-units (1000 = trust the
    /// estimator as-is; values above 1000 inflate estimates before judging
    /// them against the deadline). The certify-and-repair loop measures the
    /// factor as the worst observed `exact / estimate` ratio and re-searches
    /// with it, so acceptance stops preferring configurations whose
    /// estimated worst case only *looks* schedulable. At the default 1000
    /// the search behaves exactly as the uncalibrated engine.
    pub calibration_milli: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            iterations: 120,
            tenure: 8,
            neighborhood: 24,
            max_checkpoints: 16,
            seed: 1,
            calibration_milli: 1000,
        }
    }
}

impl SearchConfig {
    /// `true` when the estimated worst case, inflated by the calibration
    /// factor, exceeds the deadline — the acceptance penalty flag of the
    /// calibrated objective. Always `false` at the default factor of 1000,
    /// so uncalibrated searches are bit-for-bit unchanged.
    fn calibrated_over_deadline(&self, estimate: &Estimate, deadline: Time) -> bool {
        self.calibration_milli > 1000
            && (estimate.worst_case_length.units() as i128) * (self.calibration_milli as i128)
                > (deadline.units() as i128) * 1000
    }

    /// The calibrated search objective: states predicted unschedulable
    /// under the calibration factor sort after every predicted-schedulable
    /// state; within a class the usual (worst-case, fault-free) order
    /// applies.
    fn calibrated_objective(&self, estimate: &Estimate, deadline: Time) -> (bool, Time, Time) {
        let (worst, fault_free) = objective(estimate);
        (self.calibrated_over_deadline(estimate, deadline), worst, fault_free)
    }
}

/// A synthesized configuration: mapping, policies, derived copy placement
/// and its estimated worst-case schedule length.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// Base process mapping `M`.
    pub mapping: Mapping,
    /// Fault-tolerance policy assignment `F`.
    pub policies: PolicyAssignment,
    /// Copy placement (original + replicas).
    pub copies: CopyMapping,
    /// Estimated fault-free and worst-case schedule lengths.
    pub estimate: Estimate,
}

impl Synthesized {
    /// Evaluates a (mapping, policies) state with a one-shot evaluator.
    ///
    /// Hot paths hold a [`SystemEvaluator`] and use
    /// [`Synthesized::evaluate_with`] instead, amortizing the kernel's
    /// construction across a whole search.
    ///
    /// # Errors
    ///
    /// Propagates estimator and copy-placement errors.
    pub fn evaluate(
        app: &Application,
        platform: &Platform,
        mapping: Mapping,
        policies: PolicyAssignment,
        k: u32,
    ) -> Result<Self, OptError> {
        let mut evaluator = SystemEvaluator::new(app, platform, k);
        Synthesized::evaluate_with(&mut evaluator, mapping, policies)
    }

    /// Evaluates a (mapping, policies) state through a reusable evaluator
    /// kernel, anchoring it as the kernel's base state.
    ///
    /// # Errors
    ///
    /// Propagates estimator and copy-placement errors.
    pub fn evaluate_with(
        evaluator: &mut SystemEvaluator,
        mapping: Mapping,
        policies: PolicyAssignment,
    ) -> Result<Self, OptError> {
        let copies = CopyMapping::from_base(
            evaluator.app(),
            evaluator.platform().architecture(),
            &mapping,
            &policies,
        )?;
        let estimate = evaluator.evaluate(&copies, &policies)?;
        Ok(Synthesized { mapping, policies, copies, estimate })
    }

    /// The optimization objective: worst-case length, fault-free length as
    /// tie-break.
    pub fn objective(&self) -> (Time, Time) {
        objective(&self.estimate)
    }
}

/// The optimization objective of an estimate (see [`Synthesized::objective`]).
pub(crate) fn objective(estimate: &Estimate) -> (Time, Time) {
    (estimate.worst_case_length, estimate.fault_free_length)
}

/// Which policies a move may assign (strategy restriction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMoves {
    /// Policies are frozen; only remapping moves are explored.
    None,
    /// The full candidate set: re-execution, replication, combined.
    Full,
}

/// Candidate policies of one process under fault budget `k`: re-execution,
/// the checkpointed single copy (when the process has a useful local
/// checkpoint count), pure replication, then the combined policies.
pub fn candidate_policies(
    app: &Application,
    p: ProcessId,
    k: u32,
    max_checkpoints: u32,
) -> Vec<Policy> {
    let mut out = shared_candidates(k);
    if let Some(checkpointed) = checkpointed_candidate(app, p, k, max_checkpoints) {
        out.insert(1, checkpointed);
    }
    out
}

/// The candidate policies every process shares: re-execution, then (for
/// `k > 0`) pure replication and the combined policies.
fn shared_candidates(k: u32) -> Vec<Policy> {
    let mut out = vec![Policy::reexecution(k)];
    if k == 0 {
        return out;
    }
    // Pure replication (Fig. 4b). Replicas may share nodes when the
    // process's candidate set is small (see CopyMapping).
    out.push(Policy::replication(k));
    // Combined (Fig. 4c): q replicas, the original absorbs the remaining
    // k − q faults by re-execution.
    for q in 1..k {
        let mut copies = vec![CopyPlan::reexecuted(k - q)];
        copies.extend(std::iter::repeat_n(CopyPlan::plain(), q as usize));
        out.push(Policy::from_copies(copies).expect("non-empty copy list"));
    }
    out
}

/// The one per-process candidate: a checkpointed single copy with the
/// local optimum X (a cheap, good default; the global checkpoint pass
/// refines it), when that optimum uses any checkpoint.
fn checkpointed_candidate(
    app: &Application,
    p: ProcessId,
    k: u32,
    max_checkpoints: u32,
) -> Option<Policy> {
    if k == 0 {
        return None;
    }
    let proc = app.process(p);
    let min_wcet = proc
        .candidate_nodes()
        .filter_map(|n| proc.wcet_on(n))
        .min()
        .expect("validated application");
    let scheme = ftes_ft::RecoveryScheme::for_process(proc, min_wcet).ok()?;
    let x = scheme.optimal_checkpoints_local(k, max_checkpoints);
    (x > 0).then(|| Policy::checkpointing(k, x))
}

/// One transformation of a candidate `(mapping, policies)` state — the
/// neighborhood vocabulary shared by every search (the serial [`search`]
/// and the parallel portfolio workers of `ftes-explore`).
/// Drawn from a [`MoveSpace`], whose policies it borrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move<'s> {
    /// Move one process to another feasible node.
    Remap {
        /// The process being remapped.
        process: ProcessId,
        /// The target node.
        to: NodeId,
    },
    /// Switch one process to another candidate policy.
    Repolicy {
        /// The process whose policy changes.
        process: ProcessId,
        /// The new fault-tolerance policy.
        policy: &'s Policy,
    },
}

impl<'s> Move<'s> {
    /// The process the move touches (the unit of tabu bookkeeping).
    pub fn process(&self) -> ProcessId {
        match self {
            Move::Remap { process, .. } | Move::Repolicy { process, .. } => *process,
        }
    }

    /// Whether the move applies on `arch`: a remap's target must be a node
    /// of the architecture. For a move a [`MoveSpace`] drew from a valid
    /// state this is the one mapping check [`apply_move`] can fail, so a
    /// move that fits applies.
    pub fn fits(&self, arch: &Architecture) -> bool {
        match self {
            Move::Remap { to, .. } => to.index() < arch.node_count(),
            Move::Repolicy { .. } => true,
        }
    }

    /// Closes into `out` the move's change set against `current`, the copy
    /// placement of the state `load` describes: the rows (and policy) where
    /// the successor's [`CopyMapping::from_base`] placement differs from
    /// `current`, as [`PlacementLoad::derive`] defines them.
    ///
    /// # Panics
    ///
    /// Panics if a remap targets a node that is not feasible for its
    /// process ([`apply_move`] rejects such a move).
    // Inlined so that `Neighborhood::derive`, on every search's hot path,
    // derives each move without an extra call.
    #[inline]
    pub fn derive(
        self,
        app: &Application,
        load: &mut PlacementLoad,
        current: &CopyMapping,
        out: &mut ChangeSets<'s>,
    ) {
        let row = current.copies_of(self.process());
        match self {
            Move::Remap { process, to } => {
                load.derive(app, current, process, to, row.len(), None, out);
            }
            Move::Repolicy { process, policy } => {
                let copies = policy.copies().len();
                load.derive(app, current, process, row[0], copies, Some(policy), out);
            }
        }
    }
}

/// The move vocabulary of one search, derived once from the application:
/// each process's remap targets and candidate policies. Only the
/// checkpointed candidate differs between processes, so the others are
/// stored once — O(k² + n · nodes) in all.
#[derive(Debug, Clone)]
pub struct MoveSpace {
    policy_moves: PolicyMoves,
    /// Remap targets of process `p` at `nodes[node_end[p - 1]..node_end[p]]`
    /// (none for a fixed process: it never remaps).
    nodes: Vec<NodeId>,
    node_end: Vec<u32>,
    /// Re-execution, replication and combined candidates, in
    /// [`candidate_policies`] order.
    shared: Vec<Policy>,
    /// Each process's checkpointed candidate, when it has one.
    checkpointed: Vec<Option<Policy>>,
}

impl MoveSpace {
    /// The moves of a search under fault budget `k`, with checkpoint counts
    /// of candidate policies capped at `max_checkpoints`.
    pub fn new(app: &Application, k: u32, policy_moves: PolicyMoves, max_checkpoints: u32) -> Self {
        let mut nodes = Vec::new();
        let mut node_end = Vec::with_capacity(app.process_count());
        let mut checkpointed = Vec::with_capacity(app.process_count());
        for (pid, proc) in app.processes() {
            if proc.fixed_node().is_none() {
                nodes.extend(proc.candidate_nodes());
            }
            node_end.push(nodes.len() as u32);
            checkpointed.push(checkpointed_candidate(app, pid, k, max_checkpoints));
        }
        MoveSpace { policy_moves, nodes, node_end, shared: shared_candidates(k), checkpointed }
    }

    /// Samples one move from the neighborhood of a state **without
    /// evaluating it**; `None` for degenerate samples (no-op moves, fixed
    /// or single-node processes). Draws a process, then — only when policy
    /// moves are on — a fair coin for repolicy over remap, then the target.
    pub fn sample(
        &self,
        mapping: &Mapping,
        policies: &PolicyAssignment,
        rng: &mut ChaCha8Rng,
    ) -> Option<Move<'_>> {
        let p = ProcessId::new(rng.gen_range(0..self.node_end.len()));
        if self.policy_moves == PolicyMoves::Full && rng.gen_bool(0.5) {
            let own = self.checkpointed[p.index()].as_ref();
            let i = rng.gen_range(0..self.shared.len() + usize::from(own.is_some()));
            // `candidate_policies` order: the checkpointed candidate sits
            // right after re-execution.
            let policy = match own {
                Some(own) if i == 1 => own,
                Some(_) if i > 1 => &self.shared[i - 1],
                _ => &self.shared[i],
            };
            if policies.policy(p) == policy {
                return None;
            }
            Some(Move::Repolicy { process: p, policy })
        } else {
            let start = if p.index() == 0 { 0 } else { self.node_end[p.index() - 1] as usize };
            let nodes = &self.nodes[start..self.node_end[p.index()] as usize];
            if nodes.len() < 2 {
                return None;
            }
            let to = nodes[rng.gen_range(0..nodes.len())];
            if to == mapping.node_of(p) {
                return None;
            }
            Some(Move::Remap { process: p, to })
        }
    }
}

/// Applies a move to a `(mapping, policies)` state, returning the successor
/// state or `None` when the move is infeasible (e.g. the remap violates a
/// mapping restriction).
pub fn apply_move(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    policies: &PolicyAssignment,
    mv: Move<'_>,
) -> Option<(Mapping, PolicyAssignment)> {
    match mv {
        Move::Remap { process, to } => {
            let mapping = mapping.with_move(app, arch, process, to).ok()?;
            Some((mapping, policies.clone()))
        }
        Move::Repolicy { process, policy } => {
            let mut policies = policies.clone();
            policies.set(process, policy.clone());
            Some((mapping.clone(), policies))
        }
    }
}

/// The one neighborhood machinery of every search: it samples a state's
/// moves from a [`MoveSpace`], derives their change sets against the copy
/// placement the evaluator keeps anchored, scores them in one
/// [`SystemEvaluator::evaluate_changes`] pass and commits the walked one.
/// The serial [`search`] and the portfolio workers of `ftes-explore` both
/// drive it, each over its own evaluator, so a candidate exists only as a
/// move plus its change set. The evaluator holds the anchored placement;
/// the neighborhood holds the placement inputs ([`PlacementLoad`]) of the
/// same state and the last sample, reused across iterations.
#[derive(Debug)]
pub struct Neighborhood<'s> {
    space: &'s MoveSpace,
    load: PlacementLoad,
    moves: Vec<Move<'s>>,
    sets: ChangeSets<'s>,
}

impl<'s> Neighborhood<'s> {
    /// A neighborhood over `space` of the state `(mapping, policies)`, at
    /// whose [`CopyMapping::from_base`] placement `evaluator` must be
    /// anchored.
    pub fn new(
        space: &'s MoveSpace,
        evaluator: &SystemEvaluator,
        mapping: &Mapping,
        policies: &PolicyAssignment,
    ) -> Self {
        let (app, arch) = (evaluator.app(), evaluator.platform().architecture());
        debug_assert_eq!(
            CopyMapping::from_base(app, arch, mapping, policies).ok().as_ref(),
            Some(evaluator.anchored_copies()),
            "the evaluator is anchored at the state's derived copy placement"
        );
        Neighborhood {
            space,
            load: PlacementLoad::new(app, arch, mapping, policies),
            moves: Vec::new(),
            sets: ChangeSets::new(),
        }
    }

    /// Anchors `evaluator` and the placement inputs at `(mapping, policies)`
    /// by a full pass, returning its estimate: how a search moves to a state
    /// that is not one move away (an adopted incumbent).
    ///
    /// # Errors
    ///
    /// Propagates estimator and copy-placement errors, leaving the
    /// evaluator and the neighborhood where they were.
    pub fn anchor(
        &mut self,
        evaluator: &mut SystemEvaluator,
        mapping: &Mapping,
        policies: &PolicyAssignment,
    ) -> Result<Estimate, OptError> {
        let (app, arch) = (evaluator.app(), evaluator.platform().architecture());
        let copies = CopyMapping::from_base(app, arch, mapping, policies)?;
        let load = PlacementLoad::new(app, arch, mapping, policies);
        let estimate = evaluator.evaluate(&copies, policies)?;
        self.load = load;
        Ok(estimate)
    }

    /// Samples up to `n` moves of the anchored state `(mapping, policies)`
    /// **without deriving or scoring them**. Degenerate samples and remaps
    /// off the architecture are skipped; deriving and scoring never draw
    /// from `rng`.
    pub fn sample(
        &mut self,
        evaluator: &SystemEvaluator,
        mapping: &Mapping,
        policies: &PolicyAssignment,
        n: usize,
        rng: &mut ChaCha8Rng,
    ) {
        let arch = evaluator.platform().architecture();
        self.moves.clear();
        for _ in 0..n {
            let Some(mv) = self.space.sample(mapping, policies, rng) else { continue };
            if mv.fits(arch) {
                self.moves.push(mv);
            }
        }
    }

    /// The sampled moves, in sample order.
    pub fn moves(&self) -> &[Move<'s>] {
        &self.moves
    }

    /// Derives every sampled move's change set ([`Move::derive`]) against
    /// the evaluator's anchored copy placement.
    pub fn derive(&mut self, evaluator: &SystemEvaluator) {
        let (app, current) = (evaluator.app(), evaluator.anchored_copies());
        self.sets.clear();
        for mv in &self.moves {
            mv.derive(app, &mut self.load, current, &mut self.sets);
        }
    }

    /// Scores the derived change sets in one
    /// [`SystemEvaluator::evaluate_changes`] pass over the anchored state:
    /// one estimate per sampled move, in sample order. `None` marks a
    /// neighbor whose evaluation fails (e.g. a policy the bus cannot
    /// carry): the move is simply not available.
    pub fn score(&self, evaluator: &mut SystemEvaluator) -> Vec<Option<Estimate>> {
        evaluator.evaluate_changes(&self.sets).into_iter().map(Result::ok).collect()
    }

    /// Walks the `i`-th sampled move: commits its change set to the
    /// evaluator ([`SystemEvaluator::commit`], re-scheduling only the
    /// suffix the move dirties), then steps the placement inputs along the
    /// move from the anchored rows. Returns the walked state's estimate,
    /// the one its change set scored; a failed commit leaves both the
    /// evaluator and the neighborhood where they were.
    ///
    /// # Errors
    ///
    /// The error the evaluator reports for the walked state.
    pub fn commit(
        &mut self,
        evaluator: &mut SystemEvaluator,
        i: usize,
    ) -> Result<Estimate, OptError> {
        let process = self.moves[i].process();
        let from = evaluator.anchored_copies().copies_of(process)[0];
        let estimate = evaluator.commit(self.sets.get(i))?;
        let row = evaluator.anchored_copies().copies_of(process);
        self.load.commit(evaluator.app(), process, from, row[0], row.len());
        Ok(estimate)
    }

    /// Writes candidate `i` with its `estimate` over `state`, the state it
    /// was sampled from.
    fn write(
        &self,
        evaluator: &SystemEvaluator,
        i: usize,
        state: &mut Synthesized,
        estimate: Estimate,
    ) -> Result<(), OptError> {
        if let Move::Remap { process, to } = self.moves[i] {
            let arch = evaluator.platform().architecture();
            state.mapping = state.mapping.with_move(evaluator.app(), arch, process, to)?;
        }
        self.sets.get(i).write(&mut state.copies, &mut state.policies);
        state.estimate = estimate;
        Ok(())
    }
}

/// Admission guard consulted before a candidate may displace the search's
/// best-so-far state — the certify-guided hook. `Ok(true)` admits the
/// candidate as the new best; `Ok(false)` demotes it: the walk still
/// continues from it (it stays the *current* state), but it can never be
/// returned as the search's answer. The always-admit guard reproduces the
/// unguarded search bit for bit.
pub type BestGuard<'a> = &'a mut dyn FnMut(&Synthesized) -> Result<bool, OptError>;

/// Objective trace of a search: the best objective value after each
/// iteration (worst-case schedule length units).
pub type SearchTrace = Vec<i64>;

/// Runs `engine` from `initial` over a caller-provided evaluator kernel,
/// minimizing the calibrated objective (see
/// [`SearchConfig::calibration_milli`]). Returns the best state found and
/// the objective trace.
///
/// Each iteration samples the neighborhood of the current state, scores it
/// in one batch pass, lets [`Acceptance::step`] pick where the walk goes,
/// writes that move into the current state and commits its change set to
/// the kernel ([`SystemEvaluator::commit`]), which re-schedules only the
/// suffix the move dirties. `guard`, when given, decides whether a candidate that beats the
/// best may become it (see [`BestGuard`]).
///
/// # Errors
///
/// Propagates evaluation errors and guard failures; the initial state must
/// be feasible.
pub fn search(
    evaluator: &mut SystemEvaluator,
    engine: EngineKind,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
    mut guard: Option<BestGuard<'_>>,
) -> Result<(Synthesized, SearchTrace), OptError> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let deadline = evaluator.app().deadline();
    let scored = |estimate: &Estimate| Scored {
        worst_case: estimate.worst_case_length,
        objective: config.calibrated_objective(estimate, deadline),
    };
    let space =
        MoveSpace::new(evaluator.app(), evaluator.k(), policy_moves, config.max_checkpoints);
    // Anchor the evaluator at the search's starting state.
    evaluator.evaluate(&initial.copies, &initial.policies)?;
    let mut hood = Neighborhood::new(&space, evaluator, &initial.mapping, &initial.policies);
    let processes = evaluator.app().process_count();
    let mut acceptance =
        Acceptance::new(engine, processes, config.tenure, initial.estimate.worst_case_length);
    let mut current = initial.clone();
    let mut best = initial;
    let mut trace = SearchTrace::with_capacity(config.iterations);
    let mut candidates = Vec::with_capacity(config.neighborhood);

    for _ in 0..config.iterations {
        // Sample the whole neighborhood, then score it in one batch pass,
        // keeping the feasible candidates in sample order.
        hood.sample(evaluator, &current.mapping, &current.policies, config.neighborhood, &mut rng);
        hood.derive(evaluator);
        let scores = hood.score(evaluator).into_iter().enumerate();
        let feasible: Vec<(usize, Estimate)> =
            scores.filter_map(|(i, estimate)| Some((i, estimate?))).collect();
        candidates.clear();
        candidates.extend(
            feasible.iter().map(|&(i, estimate)| (hood.moves()[i].process(), scored(&estimate))),
        );
        let step = acceptance.step(
            &candidates,
            scored(&current.estimate),
            scored(&best.estimate).objective,
            &mut rng,
            |c| {
                let Some(guard) = guard.as_mut() else { return Ok(true) };
                let (i, estimate) = feasible[c];
                let mut candidate = current.clone();
                hood.write(evaluator, i, &mut candidate, estimate)?;
                guard(&candidate)
            },
        )?;
        if let Some(c) = step.promoted {
            let (i, estimate) = feasible[c];
            best = current.clone();
            hood.write(evaluator, i, &mut best, estimate)?;
        }
        if let Some(c) = step.walk {
            let (i, estimate) = feasible[c];
            hood.write(evaluator, i, &mut current, estimate)?;
            let committed = hood.commit(evaluator, i)?;
            debug_assert_eq!(committed, estimate, "a commit scores as its batch did");
        }
        trace.push(best.estimate.worst_case_length.units());
    }
    Ok((best, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructive_mapping;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::samples;

    fn setup(k: u32) -> (Application, Platform, Synthesized) {
        let (app, arch) = samples::fig3();
        let node_count = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(node_count, Time::new(8)).unwrap())
                .unwrap();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let initial = Synthesized::evaluate(&app, &platform, mapping, policies, k).unwrap();
        (app, platform, initial)
    }

    /// A generated 12-process system on 3 nodes at k = 2, from uniform
    /// re-execution on its cheapest mapping.
    fn generated(seed: u64) -> (Application, Platform, Synthesized) {
        let app = generate_application(&GeneratorConfig::new(12, 3), seed).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let initial = Synthesized::evaluate(&app, &platform, mapping, policies, 2).unwrap();
        (app, platform, initial)
    }

    /// Runs `engine` from `initial` on a fresh kernel, unguarded.
    fn run(
        app: &Application,
        platform: &Platform,
        k: u32,
        engine: EngineKind,
        initial: Synthesized,
        policy_moves: PolicyMoves,
        config: SearchConfig,
    ) -> (Synthesized, SearchTrace) {
        let mut evaluator = SystemEvaluator::new(app, platform, k);
        search(&mut evaluator, engine, initial, policy_moves, config, None).unwrap()
    }

    fn short(seed: u64) -> SearchConfig {
        SearchConfig { iterations: 20, neighborhood: 10, seed, ..SearchConfig::default() }
    }

    #[test]
    fn candidate_policies_tolerate_k() {
        let (app, _) = samples::fig3();
        // Replication is always among the candidates (replicas may share a
        // node); every candidate tolerates k.
        for k in 1..=3 {
            for (pid, _) in app.processes() {
                let cands = candidate_policies(&app, pid, k, 16);
                assert!(cands.iter().any(|p| p.replica_count() == k));
                for c in cands {
                    assert!(c.tolerates(k), "candidate must tolerate k={k}");
                }
            }
        }
    }

    #[test]
    fn k_zero_has_single_candidate() {
        let (app, _) = samples::fig3();
        let cands = candidate_policies(&app, ProcessId::new(0), 0, 16);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0], Policy::reexecution(0));
    }

    #[test]
    fn tabu_search_never_worsens_the_best() {
        let (app, platform, initial) = setup(2);
        let initial_obj = initial.objective();
        let cfg = SearchConfig { iterations: 40, ..SearchConfig::default() };
        let (result, _) =
            run(&app, &platform, 2, EngineKind::Tabu, initial, PolicyMoves::Full, cfg);
        assert!(result.objective() <= initial_obj);
        result.policies.validate(2).unwrap();
    }

    #[test]
    fn mapping_only_search_keeps_policies() {
        let (app, platform, initial) = setup(1);
        let before: Vec<_> = initial.policies.iter().map(|(_, p)| p.clone()).collect();
        let cfg = SearchConfig { iterations: 30, ..SearchConfig::default() };
        let (result, _) =
            run(&app, &platform, 1, EngineKind::Tabu, initial, PolicyMoves::None, cfg);
        let after: Vec<_> = result.policies.iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(before, after, "PolicyMoves::None must not touch policies");
    }

    #[test]
    fn guard_admissions_control_the_returned_best() {
        let (app, platform, initial) = setup(2);
        let cfg = SearchConfig { iterations: 30, ..SearchConfig::default() };
        let guarded = |admit: bool, calls: &mut u32| {
            let mut evaluator = SystemEvaluator::new(&app, &platform, 2);
            let mut guard = |_: &Synthesized| {
                *calls += 1;
                Ok(admit)
            };
            search(
                &mut evaluator,
                EngineKind::Tabu,
                initial.clone(),
                PolicyMoves::Full,
                cfg,
                Some(&mut guard),
            )
            .unwrap()
        };
        // An always-true guard reproduces the unguarded search bit for bit,
        // and is consulted once per attempted best displacement.
        let mut calls = 0u32;
        let (admitted, trace_a) = guarded(true, &mut calls);
        let (unguarded, trace_b) =
            run(&app, &platform, 2, EngineKind::Tabu, initial.clone(), PolicyMoves::Full, cfg);
        assert!(calls > 0, "the walk must try to displace the best at least once");
        assert_eq!(admitted.estimate, unguarded.estimate);
        assert_eq!(trace_a, trace_b);
        // An always-false guard demotes every candidate: the best never
        // moves off the initial state.
        let (demoted, _) = guarded(false, &mut calls);
        assert_eq!(demoted.estimate, initial.estimate);
        assert_eq!(demoted.mapping, initial.mapping);
    }

    #[test]
    fn search_is_deterministic_in_seed() {
        let (app, platform, initial) = setup(2);
        let cfg = SearchConfig { iterations: 25, seed: 99, ..SearchConfig::default() };
        let once =
            || run(&app, &platform, 2, EngineKind::Tabu, initial.clone(), PolicyMoves::Full, cfg);
        let ((a, trace_a), (b, trace_b)) = (once(), once());
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn engines_are_deterministic_in_seed() {
        let (app, platform, initial) = generated(2);
        for engine in [EngineKind::Anneal, EngineKind::Greedy] {
            let once =
                || run(&app, &platform, 2, engine, initial.clone(), PolicyMoves::Full, short(7));
            let ((a, trace_a), (b, trace_b)) = (once(), once());
            assert_eq!(a.estimate, b.estimate, "{engine}");
            assert_eq!(a.mapping, b.mapping, "{engine}");
            assert_eq!(trace_a, trace_b, "{engine}");
        }
    }

    #[test]
    fn greedy_never_worsens_and_trace_is_monotone() {
        let (app, platform, initial) = generated(0);
        let start = initial.objective();
        let (result, trace) =
            run(&app, &platform, 2, EngineKind::Greedy, initial, PolicyMoves::Full, short(0));
        assert!(result.objective() <= start);
        assert_eq!(trace.len(), 20, "greedy runs its whole iteration budget");
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "greedy trace is non-increasing");
        }
    }

    /// One change set's entries: process, successor row and policy.
    type Entries = Vec<(ProcessId, Vec<NodeId>, Option<Policy>)>;

    /// The change sets a neighborhood last derived.
    fn derived(hood: &Neighborhood<'_>) -> Vec<Entries> {
        let rows = |set: ftes_ftcpg::ChangeSet<'_, '_>| {
            set.iter().map(|(p, row, policy)| (p, row.to_vec(), policy.cloned())).collect()
        };
        hood.sets.iter().map(rows).collect()
    }

    #[test]
    fn a_committed_neighborhood_equals_a_fresh_one() {
        // A replicated start, so a move's change set can shift other
        // processes' replicas too.
        let app = generate_application(&GeneratorConfig::new(12, 3), 5).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let arch = platform.architecture();
        let k = 2;
        let space = MoveSpace::new(&app, k, PolicyMoves::Full, 8);
        // A fresh evaluator anchored at a state, its neighborhood and the
        // state's estimate.
        let fresh = |(mapping, policies): &(Mapping, PolicyAssignment)| {
            let mut evaluator = SystemEvaluator::new(&app, &platform, k);
            let state =
                Synthesized::evaluate_with(&mut evaluator, mapping.clone(), policies.clone());
            let hood = Neighborhood::new(&space, &evaluator, mapping, policies);
            (evaluator, hood, state.unwrap().estimate)
        };
        let sample = |hood: &mut Neighborhood<'_>,
                      evaluator: &SystemEvaluator,
                      (mapping, policies): &(Mapping, PolicyAssignment),
                      rng: &mut ChaCha8Rng| {
            hood.sample(evaluator, mapping, policies, 16, rng);
            hood.derive(evaluator);
        };
        let initial = (
            constructive_mapping(&app, arch).unwrap(),
            PolicyAssignment::uniform_replication(&app, k),
        );
        let (mut evaluator, mut hood, mut estimate) = fresh(&initial);
        let mut current = initial.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (mut walks, mut walked) = (0, false);
        for _ in 0..40 {
            // A walk leaves the evaluator anchored at the walked state, with
            // the estimate its change set scored.
            let (mut theirs, mut their_hood, their_estimate) = fresh(&current);
            assert_eq!(evaluator.anchored_copies(), theirs.anchored_copies());
            assert_eq!(estimate, their_estimate);
            // Both neighborhoods sample the same moves and derive them:
            // equal sets mean equal placement inputs, equal scores equal
            // anchors.
            let mut same = rng.clone();
            sample(&mut hood, &evaluator, &current, &mut rng);
            sample(&mut their_hood, &theirs, &current, &mut same);
            assert_eq!(hood.moves(), their_hood.moves());
            assert_eq!(derived(&hood), derived(&their_hood));
            let scored = hood.score(&mut evaluator);
            assert_eq!(scored, their_hood.score(&mut theirs));
            walked = false;
            let Some(i) = scored.iter().position(Option::is_some) else { continue };
            let mv = hood.moves()[i];
            current = apply_move(&app, arch, &current.0, &current.1, mv).unwrap();
            estimate = hood.commit(&mut evaluator, i).unwrap();
            assert_eq!(Some(estimate), scored[i]);
            (walks, walked) = (walks + 1, true);
        }
        let (theirs, _, _) = fresh(&current);
        assert_eq!(evaluator.anchored_copies(), theirs.anchored_copies());
        // One evaluation per walk, and the walks were committed by suffix
        // passes: only commits whose sets reach position 0 run a full one.
        let stats = evaluator.stats();
        assert!(walks > 20, "{walks} walks");
        assert_eq!(stats.evaluations(), 1 + walks + stats.batch_candidates);
        assert!(stats.delta_evals > walks / 2, "{stats:?}");
        let commit_passes = stats.full_evals - 1 - stats.delta_fallbacks;
        assert!(commit_passes < walks);

        // A walk followed by an anchor elsewhere (an adopted incumbent): one
        // full pass, after which the neighborhood derives as a fresh one.
        assert!(walked, "the last iteration walks");
        hood.anchor(&mut evaluator, &initial.0, &initial.1).unwrap();
        assert_eq!(evaluator.stats().full_evals, stats.full_evals + 1);
        assert_eq!(evaluator.stats().evaluations(), stats.evaluations() + 1);
        let (theirs, mut their_hood, _) = fresh(&initial);
        assert_eq!(evaluator.anchored_copies(), theirs.anchored_copies());
        let mut same = rng.clone();
        sample(&mut hood, &evaluator, &initial, &mut rng);
        sample(&mut their_hood, &theirs, &initial, &mut same);
        assert_eq!(derived(&hood), derived(&their_hood));
    }

    #[test]
    fn annealing_best_never_worse_than_initial() {
        let (app, platform, initial) = generated(1);
        let start = initial.objective();
        let (result, trace) =
            run(&app, &platform, 2, EngineKind::Anneal, initial, PolicyMoves::Full, short(1));
        assert!(result.objective() <= start);
        assert_eq!(trace.len(), 20);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "best-so-far trace is non-increasing");
        }
        result.policies.validate(2).unwrap();
    }
}
