//! The parallel portfolio engine: diversified search workers, each scoring
//! on its own evaluator kernel, with incumbent broadcasting at
//! deterministic round barriers.
//!
//! ## Design
//!
//! A portfolio run is a sequence of **rounds**. Within a round every worker
//! advances independently — its trajectory depends only on its own seeded
//! RNG, its engine and the round-start incumbent. Workers run through
//! [`ordered_parallel`], the calling thread among them. Each owns one
//! evaluator kernel anchored at its current state and scores a sampled
//! neighborhood the way the serial `ftes-opt` search does. A neighbor
//! stays a [`Move`] of the current state plus its successor's
//! [`StateKey`], patched from the current state's key in time
//! proportional to the move ([`NeighborKeys`]). Every sampled move is
//! derived as a change set ([`Move::derive`]) and the whole neighborhood
//! is scored in one
//! [`evaluate_changes`](SystemEvaluator::evaluate_changes) pass. A
//! neighbor's objectives come from its estimate and the current state's
//! table cost, so a `(mapping, policies)` state is built only for the few
//! neighbors a worker keeps: the one it walks to, a new best, one the
//! certify-guided gate must certify, and one its Pareto archive admits.
//! The kernel follows a walk at once, as the serial search's does: it
//! commits the walked move's change set ([`SystemEvaluator::commit`]),
//! re-scheduling only the suffix the move dirties; only a worker that
//! adopts the round's incumbent re-derives its placement and takes a full
//! pass.
//! The engine's acceptance is `ftes-opt`'s too: each worker holds one
//! [`Acceptance`] (tabu, simulated annealing or greedy descent) and steps
//! it once per iteration, ordering candidates by (worst case, fault-free
//! length, [`StateKey`]) and admitting a new best through the
//! certify-guided gate when that is on. At the round barrier the
//! per-worker archives merge
//! (order-independent, see [`ParetoArchive`]), the global incumbent is
//! recomputed with a canonical tie-break, and workers whose current state
//! is worse than the incumbent adopt it.
//!
//! ## Determinism
//!
//! Thread scheduling can reorder *when* workers run but never *which*
//! states each worker visits or scores: within a round a worker shares
//! nothing it writes except the certify-guided admit cache, whose verdicts
//! are pure facts of the state, archives are order-independent sets, and
//! all cross-worker communication happens at barriers with canonical
//! tie-breaks. Hence: same seed ⇒ identical best state, identical Pareto
//! archive and identical kernel counters for **any** thread count — the
//! property `tests/determinism.rs` locks in.

use crate::archive::{table_cost, table_cost_after, ArchiveEntry, Objectives, ParetoArchive};
use crate::cache::{CacheStats, CertifyCache, NeighborKeys, StateKey};
use ftes_ft::PolicyAssignment;
use ftes_ftcpg::{ChangeSets, CopyMapping, PlacementLoad};
use ftes_model::par::ordered_parallel;
use ftes_model::{Application, Architecture, FaultModel, Mapping, Time, Transparency};
use ftes_opt::{
    apply_move, constructive_mapping, Acceptance, EngineKind, Move, MoveSpace, OptError,
    PolicyMoves, Scored, Synthesized,
};
use ftes_sched::{Certifier, CertifyConfig, Estimate, EvaluatorStats, SystemEvaluator};
use ftes_tdma::Platform;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::convert::Infallible;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Mutex;
use std::time::Instant;

/// Error produced by the exploration engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExploreError {
    /// The initial configuration could not be constructed or evaluated.
    Infeasible(OptError),
    /// The configuration is structurally invalid (empty portfolio, zero
    /// rounds, …).
    BadConfig(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Infeasible(e) => write!(f, "no feasible starting point: {e}"),
            ExploreError::BadConfig(msg) => write!(f, "bad exploration config: {msg}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Infeasible(e) => Some(e),
            ExploreError::BadConfig(_) => None,
        }
    }
}

impl From<OptError> for ExploreError {
    fn from(e: OptError) -> Self {
        ExploreError::Infeasible(e)
    }
}

/// One diversified worker of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Which engine the worker runs.
    pub engine: EngineKind,
    /// Mixed into the portfolio seed so workers decorrelate.
    pub seed_offset: u64,
    /// Candidate moves sampled (and batch-evaluated) per iteration.
    pub neighborhood: usize,
    /// Tabu tenure (ignored by non-tabu engines).
    pub tenure: usize,
}

/// The default diversified portfolio: two tabu workers with different
/// tenures/neighborhoods, one annealer, one greedy descender.
pub fn default_portfolio() -> Vec<WorkerSpec> {
    vec![
        WorkerSpec { engine: EngineKind::Tabu, seed_offset: 1, neighborhood: 24, tenure: 8 },
        WorkerSpec { engine: EngineKind::Tabu, seed_offset: 2, neighborhood: 12, tenure: 4 },
        WorkerSpec { engine: EngineKind::Anneal, seed_offset: 3, neighborhood: 16, tenure: 0 },
        WorkerSpec { engine: EngineKind::Greedy, seed_offset: 4, neighborhood: 32, tenure: 0 },
    ]
}

/// Tunables of a portfolio exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// The diversified workers (must be non-empty).
    pub workers: Vec<WorkerSpec>,
    /// Synchronization rounds (incumbent broadcast + archive merge).
    pub rounds: usize,
    /// Search iterations each worker runs per round.
    pub iterations_per_round: usize,
    /// Total threads the engine may occupy, the calling thread included
    /// (bounds how many workers run concurrently; each worker scores its
    /// neighborhoods on its own kernel, so there is no per-candidate
    /// fan-out below the workers).
    pub threads: usize,
    /// Cap on checkpoint counts in candidate policies.
    pub max_checkpoints: u32,
    /// Master seed; worker seeds derive from it and their `seed_offset`.
    pub seed: u64,
    /// Certify-guided incumbents: candidates that would become a worker's
    /// best under the estimate are incrementally exact-certified against
    /// the deadline first (bounded, memo-backed), and refuted states are
    /// demoted *during* the search instead of post hoc. Worker certifiers
    /// run unbudgeted, so verdicts are pure facts of the state, shared
    /// through an admit cache, and trajectories stay
    /// thread-count-deterministic.
    pub certify_guided: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            workers: default_portfolio(),
            rounds: 4,
            iterations_per_round: 30,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            max_checkpoints: 16,
            seed: 1,
            certify_guided: false,
        }
    }
}

impl PortfolioConfig {
    /// A down-scaled configuration for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        PortfolioConfig {
            rounds: 2,
            iterations_per_round: 8,
            threads: 2,
            seed,
            ..PortfolioConfig::default()
        }
    }
}

/// Result of one portfolio exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The single-objective incumbent, rebuilt as a full [`Synthesized`]
    /// configuration (mapping, policies, replica placement, estimate).
    pub best: Synthesized,
    /// The Pareto front over (worst-case, recovery slack, table cost).
    pub archive: ParetoArchive,
    /// Evaluator-kernel counters (constructions, full/delta evaluations,
    /// reuse) summed over the workers' kernels, one per worker. A kernel
    /// scores only its own worker's trajectory, so they do not depend on
    /// the thread split.
    pub evals: EvaluatorStats,
    /// Certify-guided admit-cache counters (all zero when
    /// [`PortfolioConfig::certify_guided`] is off). Workers that miss the
    /// same state concurrently each count a miss, so these follow the
    /// thread split: in-memory diagnostics only.
    pub certify: CacheStats,
}

/// A worker's private search state between rounds.
struct Worker<'s> {
    spec: WorkerSpec,
    rng: ChaCha8Rng,
    current: Candidate,
    best: Candidate,
    acceptance: Acceptance,
    kernel: Kernel<'s>,
    clock: PhaseClock,
}

/// A candidate state plus its evaluation (always feasible by construction).
#[derive(Clone)]
struct Candidate {
    mapping: Mapping,
    policies: PolicyAssignment,
    estimate: ftes_sched::Estimate,
    key: StateKey,
}

impl Candidate {
    /// Search objective (see [`scored`]).
    fn objective(&self) -> (Time, Time, &StateKey) {
        self.scored().objective
    }

    /// The candidate as the engines' [`Acceptance::step`] judges it.
    fn scored(&self) -> Scored<(Time, Time, &StateKey)> {
        scored(&self.estimate, &self.key)
    }
}

/// A state with `estimate` and `key` as [`Acceptance::step`] judges it. The
/// objective is the worst case, the fault-free length as tie-break, and the
/// canonical key as the final deterministic tie-break.
fn scored<'k>(estimate: &Estimate, key: &'k StateKey) -> Scored<(Time, Time, &'k StateKey)> {
    let worst_case = estimate.worst_case_length;
    Scored { worst_case, objective: (worst_case, estimate.fault_free_length, key) }
}

/// One worker's evaluator kernel, anchored at one state, plus that state's
/// copy placement and placement inputs — what [`Move::derive`] derives the
/// change sets of its neighbors from.
struct Kernel<'s> {
    evaluator: SystemEvaluator,
    key: StateKey,
    copies: CopyMapping,
    load: PlacementLoad,
    /// The change sets of the last scored neighborhood, in sample order.
    sets: ChangeSets<'s>,
}

impl<'s> Kernel<'s> {
    /// A kernel anchored at `(mapping, policies)`, with that state's
    /// estimate.
    fn new(
        app: &Application,
        platform: &Platform,
        k: u32,
        mapping: &Mapping,
        policies: &PolicyAssignment,
    ) -> Result<(Kernel<'s>, Estimate), OptError> {
        let mut evaluator = SystemEvaluator::new(app, platform, k);
        let state = Synthesized::evaluate_with(&mut evaluator, mapping.clone(), policies.clone())?;
        let kernel = Kernel {
            evaluator,
            key: StateKey::encode(mapping, policies),
            copies: state.copies,
            load: PlacementLoad::new(app, platform.architecture(), mapping, policies),
            sets: ChangeSets::new(),
        };
        Ok((kernel, state.estimate))
    }

    /// Anchors at `state`. The state the kernel is anchored at costs
    /// nothing (keys are collision-free, so equal keys are equal states);
    /// any other state (an adopted incumbent) is placed afresh and takes a
    /// full pass.
    fn anchor(&mut self, state: &Candidate) {
        if self.key == state.key {
            return;
        }
        let (app, arch) = (self.evaluator.app(), self.evaluator.platform().architecture());
        self.copies = CopyMapping::from_base(app, arch, &state.mapping, &state.policies)
            .expect("a scored state has a copy placement");
        self.load = PlacementLoad::new(app, arch, &state.mapping, &state.policies);
        self.evaluator
            .evaluate(&self.copies, &state.policies)
            .expect("a state scored feasible evaluates feasible");
        self.key.clone_from(&state.key);
    }

    /// Scores `moves` of the anchored state, returning every neighbor's
    /// estimate in input order (`None` = infeasible): each move's change
    /// set is derived into [`Kernel::sets`] and the whole neighborhood is
    /// scored in one [`SystemEvaluator::evaluate_changes`] pass, as the
    /// serial search scores its own. `clock` charges the derivation to
    /// [`Phase::Derive`] and the pass to [`Phase::Kernel`].
    fn score(&mut self, moves: &[Move<'s>], clock: &mut PhaseClock) -> Vec<Option<Estimate>> {
        let app = self.evaluator.app();
        self.sets.clear();
        for mv in moves {
            mv.derive(app, &mut self.load, &self.copies, &mut self.sets);
        }
        clock.lap(Phase::Derive);
        let scores = self.evaluator.evaluate_changes(&self.sets);
        clock.lap(Phase::Kernel);
        scores.into_iter().map(Result::ok).collect()
    }

    /// Moves the anchor to `state` along `mv`, the `i`-th move of the last
    /// scored neighborhood, as the serial search's `Neighborhood::accept`
    /// does: writes its change set's rows over the copy placement, steps
    /// the placement inputs along the move and commits the set to the
    /// evaluator, re-scheduling only the suffix it dirties.
    fn commit(&mut self, i: usize, mv: Move<'_>, state: &Candidate) {
        let process = mv.process();
        let from = self.copies.copies_of(process)[0];
        let set = self.sets.get(i);
        set.write_rows(&mut self.copies);
        let row = self.copies.copies_of(process);
        self.load.commit(self.evaluator.app(), process, from, row[0], row.len());
        let committed =
            self.evaluator.commit(set).expect("a state scored feasible commits feasible");
        debug_assert_eq!(committed, state.estimate, "a commit scores as its batch did");
        self.key.clone_from(&state.key);
    }
}

/// The phases of a worker's iteration that a [`PhaseClock`] tells apart,
/// in [`PHASE_COUNTERS`] order.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Moving the kernel's anchor: the walked move's commit or, after an
    /// adoption, a full pass.
    Anchor,
    /// Sampling the neighborhood's moves.
    Sample,
    /// Keying each move's successor.
    Key,
    /// Deriving each move's change set.
    Derive,
    /// The kernel's [`SystemEvaluator::evaluate_changes`] pass.
    Kernel,
    /// Pareto-archive offers, with the entries they build.
    Archive,
    /// The acceptance step, with the kept states it builds.
    Accept,
}

/// The trace counter each [`Phase`]'s summed nanoseconds are emitted on.
const PHASE_COUNTERS: [&str; 7] = [
    ftes_obs::names::SEARCH_ANCHOR_NS,
    ftes_obs::names::SEARCH_SAMPLE_NS,
    ftes_obs::names::SEARCH_KEY_NS,
    ftes_obs::names::SEARCH_DERIVE_NS,
    ftes_obs::names::SEARCH_KERNEL_NS,
    ftes_obs::names::SEARCH_ARCHIVE_NS,
    ftes_obs::names::SEARCH_ACCEPT_NS,
];

/// Wall time per [`Phase`] of one worker's iterations, summed across its
/// rounds. Laps are contiguous, so every nanosecond of a round lands in
/// one phase. The clock reads time only while tracing is on; with the gate
/// off a lap is one branch.
#[derive(Debug, Default)]
struct PhaseClock {
    /// The last phase boundary, when timing.
    last: Option<Instant>,
    ns: [u64; PHASE_COUNTERS.len()],
}

impl PhaseClock {
    /// Starts a round at a phase boundary, timing it if tracing is on.
    fn start(&mut self) {
        // ftes-lint: allow(determinism) reason="phase timings feed trace counters only, never result bytes"
        self.last = ftes_obs::enabled().then(Instant::now);
    }

    /// Charges the time since the last boundary to `phase`.
    fn lap(&mut self, phase: Phase) {
        if let Some(last) = self.last.as_mut() {
            // ftes-lint: allow(determinism) reason="phase timings feed trace counters only, never result bytes"
            let now = Instant::now();
            self.ns[phase as usize] += now.duration_since(*last).as_nanos() as u64;
            *last = now;
        }
    }
}

/// The certify-guided admission gate of one worker: an incremental
/// [`Certifier`] (anchored FT-CPG rebuilds + subtree memo, unbudgeted so
/// verdicts are pure facts of the state) behind the shared admit cache.
struct Guard<'a> {
    certifier: &'a mut Certifier,
    cache: &'a CertifyCache,
    app: &'a Application,
    arch: &'a Architecture,
    deadline: Time,
}

impl Guard<'_> {
    /// Whether the state keyed `key`, estimated at `estimate`, may become a
    /// worker's best, by [`Certifier::admits`] behind the shared admit
    /// cache. `state` builds the candidate's `(mapping, policies)`; it runs
    /// only when the verdict must be computed.
    fn admits(
        &mut self,
        estimate: Time,
        key: &StateKey,
        state: impl FnOnce() -> (Mapping, PolicyAssignment),
    ) -> bool {
        // The rule admits a state estimated past the deadline untested, so
        // such a state takes no admit-cache slot.
        if estimate > self.deadline {
            return true;
        }
        if let Some(admit) = self.cache.get(key) {
            return admit;
        }
        // A placement or certification failure is no exact evidence either
        // way: admit, degrading to the estimate-only regime rather than
        // aborting the search.
        let (mapping, policies) = state();
        let admit = match CopyMapping::from_base(self.app, self.arch, &mapping, &policies) {
            Ok(copies) => {
                self.certifier.admits(&copies, &policies, estimate, self.deadline).unwrap_or(true)
            }
            Err(_) => true,
        };
        self.cache.insert(key, admit);
        admit
    }
}

/// Runs the parallel portfolio exploration.
///
/// # Errors
///
/// Returns [`ExploreError::BadConfig`] for an empty portfolio or a zero
/// round/iteration budget, and [`ExploreError::Infeasible`] when no feasible
/// starting configuration exists.
pub fn explore(
    app: &Application,
    platform: &Platform,
    k: u32,
    config: &PortfolioConfig,
) -> Result<Exploration, ExploreError> {
    if config.workers.is_empty() {
        return Err(ExploreError::BadConfig("portfolio has no workers".into()));
    }
    if config.rounds == 0 || config.iterations_per_round == 0 {
        return Err(ExploreError::BadConfig("rounds and iterations must be positive".into()));
    }

    // Deterministic feasible starting point (same as the serial strategies).
    let mapping = constructive_mapping(app, platform.architecture())
        .map_err(|e| ExploreError::Infeasible(OptError::from(e)))?;
    let policies = PolicyAssignment::uniform_reexecution(app, k);
    // One evaluator kernel per worker for the whole run, each anchored at
    // the starting state.
    let (kernels, estimates): (Vec<Kernel>, Vec<Estimate>) = config
        .workers
        .iter()
        .map(|_| Kernel::new(app, platform, k, &mapping, &policies))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| {
            ExploreError::Infeasible(OptError::NoFeasibleConfiguration(
                "initial re-execution configuration is infeasible".into(),
            ))
        })?
        .into_iter()
        .unzip();
    let key = StateKey::encode(&mapping, &policies);
    let initial = Candidate { mapping, policies, estimate: estimates[0], key };
    let space = MoveSpace::new(app, k, PolicyMoves::Full, config.max_checkpoints);

    let worker_count = config.workers.len();

    let workers: Vec<Mutex<Worker>> = config
        .workers
        .iter()
        .zip(kernels)
        .enumerate()
        .map(|(i, (spec, kernel))| {
            // Decorrelate workers: golden-ratio mix of master seed, offset
            // and index.
            let seed = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(spec.seed_offset)
                .wrapping_add((i as u64) << 32);
            let processes = app.process_count();
            let worst_case = initial.estimate.worst_case_length;
            Mutex::new(Worker {
                spec: *spec,
                rng: ChaCha8Rng::seed_from_u64(seed),
                current: initial.clone(),
                best: initial.clone(),
                acceptance: Acceptance::new(spec.engine, processes, spec.tenure, worst_case),
                kernel,
                clock: PhaseClock::default(),
            })
        })
        .collect();

    let mut archive = ParetoArchive::new();
    archive.insert(ArchiveEntry::new(
        initial.mapping.clone(),
        initial.policies.clone(),
        initial.estimate,
    ));

    // Certify-guided mode: one incremental certifier per worker (anchors
    // and subtree memos are worker-local and stay warm across rounds), one
    // shared admit cache. The work budget is unlimited on purpose — a
    // budget would make verdicts depend on which worker certified first,
    // breaking the thread-count determinism contract.
    let certify_cache = CertifyCache::new();
    let certifiers: Option<Vec<Mutex<Certifier>>> = config.certify_guided.then(|| {
        (0..worker_count)
            .map(|_| {
                Mutex::new(Certifier::new(
                    app,
                    platform,
                    FaultModel::new(k),
                    &Transparency::none(),
                    CertifyConfig { max_exact_runs: u64::MAX, ..CertifyConfig::default() },
                ))
            })
            .collect()
    });

    for _ in 0..config.rounds {
        // Workers advance in parallel; each round archive merges in worker
        // order.
        ordered_parallel(
            worker_count,
            config.threads,
            None,
            |i| {
                let mut worker = workers[i].lock().expect("worker state poisoned");
                let mut certifier = certifiers
                    .as_ref()
                    .map(|slots| slots[i].lock().expect("worker certifier poisoned"));
                let guard = certifier.as_mut().map(|certifier| Guard {
                    certifier,
                    cache: &certify_cache,
                    app,
                    arch: platform.architecture(),
                    deadline: app.deadline(),
                });
                run_round(app, platform.architecture(), config, &space, &mut worker, guard)
            },
            |_, local| {
                archive.merge(local);
                ControlFlow::Continue(())
            },
        );
        // Barrier: recompute the incumbent with a canonical tie-break and
        // broadcast it to workers that fell behind.
        let incumbent = workers
            .iter()
            .map(|w| w.lock().expect("worker state poisoned").best.clone())
            .min_by(|a, b| a.objective().cmp(&b.objective()))
            .expect("portfolio is non-empty");
        for slot in &workers {
            let mut worker = slot.lock().expect("worker state poisoned");
            if incumbent.objective() < worker.best.objective() {
                worker.best = incumbent.clone();
            }
            if incumbent.objective() < worker.current.objective() {
                worker.current = incumbent.clone();
            }
        }
    }

    let mut workers: Vec<Worker> =
        workers.into_iter().map(|w| w.into_inner().expect("worker state poisoned")).collect();
    let best = workers
        .iter()
        .map(|w| &w.best)
        .min_by(|a, b| a.objective().cmp(&b.objective()))
        .expect("portfolio is non-empty")
        .clone();
    // Rebuild the full synthesized configuration (replica placement) for
    // the winner; its feasibility was established when it was evaluated.
    let best =
        Synthesized::evaluate_with(&mut workers[0].kernel.evaluator, best.mapping, best.policies)?;
    for (phase, name) in PHASE_COUNTERS.iter().enumerate() {
        ftes_obs::counter(name, workers.iter().map(|w| w.clock.ns[phase]).sum());
    }
    let evals = workers
        .iter()
        .map(|w| w.kernel.evaluator.stats())
        .fold(EvaluatorStats::default(), EvaluatorStats::merged);

    Ok(Exploration { best, archive, evals, certify: certify_cache.stats() })
}

/// Advances one worker by `iterations_per_round` batched iterations,
/// charging each phase of an iteration to the worker's [`PhaseClock`].
fn run_round<'s>(
    app: &Application,
    arch: &Architecture,
    config: &PortfolioConfig,
    space: &'s MoveSpace,
    worker: &mut Worker<'s>,
    mut guard: Option<Guard<'_>>,
) -> ParetoArchive {
    let mut local_archive = ParetoArchive::new();
    worker.clock.start();

    for _ in 0..config.iterations_per_round {
        // 1. Anchor the kernel at the current state. After a walk it is
        // anchored there already; only an adopted incumbent moves it.
        worker.kernel.anchor(&worker.current);
        worker.clock.lap(Phase::Anchor);

        // 2. Sample the whole neighborhood without evaluating. A neighbor
        // stays a move of the current state, keyed by the state it leads to.
        let current = &worker.current;
        let (mapping, policies) = (&current.mapping, &current.policies);
        let mut moves = Vec::with_capacity(worker.spec.neighborhood);
        for _ in 0..worker.spec.neighborhood {
            let Some(mv) = space.sample(mapping, policies, &mut worker.rng) else { continue };
            if mv.fits(arch) {
                moves.push(mv);
            }
        }
        worker.clock.lap(Phase::Sample);
        let neighbors = NeighborKeys::new(&current.key, mapping, policies);
        let keys: Vec<StateKey> = moves.iter().map(|&mv| neighbors.key(mv)).collect();
        worker.clock.lap(Phase::Key);

        // 3. Score the neighborhood as change sets in one kernel pass, and
        // keep the feasible neighbors, in sample order. Each is offered to
        // the archive by its objectives; only an admitted one is built as a
        // state.
        let estimates = worker.kernel.score(&moves, &mut worker.clock);
        let cost = table_cost(policies);
        let mut feasible: Vec<(usize, Estimate)> = Vec::with_capacity(moves.len());
        for (i, estimate) in estimates.into_iter().enumerate() {
            let Some(estimate) = estimate else { continue };
            let table_cost = table_cost_after(cost, policies, moves[i]);
            let objectives = Objectives::with_table_cost(&estimate, table_cost);
            if local_archive.admits(&objectives, &keys[i]) {
                let (mapping, policies) = successor(app, arch, current, moves[i]);
                let key = keys[i].clone();
                local_archive.insert(ArchiveEntry { objectives, mapping, policies, estimate, key });
            }
            feasible.push((i, estimate));
        }
        worker.clock.lap(Phase::Archive);

        // 4. The engine's acceptance step. A candidate that beats the best
        // becomes it only if the certify-guided gate (when on) admits it; a
        // demoted candidate is still walked through, and the kernel commits
        // the walk at once.
        let judged: Vec<_> = feasible
            .iter()
            .map(|(i, estimate)| (moves[*i].process(), scored(estimate, &keys[*i])))
            .collect();
        let Ok(step) = worker.acceptance.step(
            &judged,
            current.scored(),
            worker.best.objective(),
            &mut worker.rng,
            |j| {
                let (i, estimate) = feasible[j];
                Ok::<_, Infallible>(guard.as_mut().is_none_or(|guard| {
                    let state = || successor(app, arch, current, moves[i]);
                    guard.admits(estimate.worst_case_length, &keys[i], state)
                }))
            },
        );
        let keep = |j: usize| {
            let (i, estimate) = feasible[j];
            let (mapping, policies) = successor(app, arch, current, moves[i]);
            Candidate { mapping, policies, estimate, key: keys[i].clone() }
        };
        if let Some(j) = step.promoted {
            worker.best = keep(j);
        }
        if let Some(j) = step.walk {
            worker.current = keep(j);
            worker.clock.lap(Phase::Accept);
            let i = feasible[j].0;
            worker.kernel.commit(i, moves[i], &worker.current);
            worker.clock.lap(Phase::Anchor);
        }
        worker.clock.lap(Phase::Accept);
    }
    local_archive
}

/// The state `mv` leads to from `state`: built only for a neighbor a worker
/// keeps.
fn successor(
    app: &Application,
    arch: &Architecture,
    state: &Candidate,
    mv: Move<'_>,
) -> (Mapping, PolicyAssignment) {
    apply_move(app, arch, &state.mapping, &state.policies, mv).expect("a move that fits applies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ftcpg::ChangeSet;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::samples;

    fn fig3_platform() -> (Application, Platform) {
        let (app, arch) = samples::fig3();
        let nodes = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(nodes, Time::new(8)).unwrap()).unwrap();
        (app, platform)
    }

    /// Fig. 3 at k = 2 and a kernel anchored at its cheapest mapping under
    /// uniform re-execution.
    fn fig3_kernel<'s>() -> (Application, Platform, Mapping, PolicyAssignment, Kernel<'s>) {
        let (app, platform) = fig3_platform();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let (kernel, _) = Kernel::new(&app, &platform, 2, &mapping, &policies).unwrap();
        (app, platform, mapping, policies, kernel)
    }

    #[test]
    fn batch_matches_fresh_evaluation() {
        let (app, platform, mapping, policies, mut kernel) = fig3_kernel();
        let arch = platform.architecture();
        let space = MoveSpace::new(&app, 2, PolicyMoves::Full, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let moves: Vec<_> = (0..48)
            .filter_map(|_| space.sample(&mapping, &policies, &mut rng))
            .filter(|mv| mv.fits(arch))
            .collect();
        let key = StateKey::encode(&mapping, &policies);
        let neighbors = NeighborKeys::new(&key, &mapping, &policies);
        let keys: Vec<_> = moves.iter().map(|&mv| neighbors.key(mv)).collect();
        let scored = kernel.score(&moves, &mut PhaseClock::default());
        let mut fresh = SystemEvaluator::new(&app, &platform, 2);
        for ((&mv, key), estimate) in moves.iter().zip(&keys).zip(&scored) {
            let (m, p) = apply_move(&app, arch, &mapping, &policies, mv).unwrap();
            assert_eq!(*key, StateKey::encode(&m, &p));
            let oracle = Synthesized::evaluate_with(&mut fresh, m, p).ok();
            assert_eq!(*estimate, oracle.map(|s| s.estimate), "duplicates included");
        }
        let mut distinct = keys.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() < moves.len(), "the sample must repeat a state");
        // The kernel scored every move, repeats included.
        assert_eq!(kernel.evaluator.stats().batch_candidates, moves.len() as u64);
    }

    /// Random walks over random applications (k 0–3), calling `f` with
    /// each state, a move of it and the move's successor. Policy moves
    /// draw every candidate policy (re-execution, replication, combined,
    /// checkpointed), and the walk goes on from each successor, so later
    /// moves leave mixed policies too.
    fn random_moves(
        mut f: impl FnMut(&Mapping, &PolicyAssignment, Move<'_>, &Mapping, &PolicyAssignment),
    ) {
        for seed in 0..24u64 {
            let (nodes, k) = (2 + (seed % 3) as usize, (seed % 4) as u32);
            let app = generate_application(&GeneratorConfig::new(10, nodes), seed).unwrap();
            let arch = Architecture::homogeneous(nodes).unwrap();
            let space = MoveSpace::new(&app, k, PolicyMoves::Full, 8);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut mapping = constructive_mapping(&app, &arch).unwrap();
            let mut policies = PolicyAssignment::uniform_reexecution(&app, k);
            for _ in 0..200 {
                let Some(mv) = space.sample(&mapping, &policies, &mut rng) else { continue };
                let (m, p) = apply_move(&app, &arch, &mapping, &policies, mv).unwrap();
                f(&mapping, &policies, mv, &m, &p);
                (mapping, policies) = (m, p);
            }
        }
    }

    #[test]
    fn keys_of_moves_equal_keys_of_their_successors() {
        // Moves seen: remaps, then repolicies from and to replicated and
        // from and to checkpointed policies.
        let mut seen = [0usize; 5];
        let replicated = |p: &ftes_ft::Policy| p.copies().len() > 1;
        let checkpointed = |p: &ftes_ft::Policy| p.copies().iter().any(|c| c.checkpoints > 0);
        random_moves(|mapping, policies, mv, m, p| {
            let state = StateKey::encode(mapping, policies);
            let key = NeighborKeys::new(&state, mapping, policies).key(mv);
            assert_eq!(key, StateKey::encode(m, p), "{mv:?}");
            assert_eq!(key.hash64(), StateKey::encode(m, p).hash64());
            let (from, to) = (policies.policy(mv.process()), p.policy(mv.process()));
            let kinds = match mv {
                Move::Remap { .. } => [true, false, false, false, false],
                Move::Repolicy { .. } => {
                    [false, replicated(from), replicated(to), checkpointed(from), checkpointed(to)]
                }
            };
            for (count, kind) in seen.iter_mut().zip(kinds) {
                *count += usize::from(kind);
            }
        });
        assert!(seen.iter().all(|&count| count > 0), "{seen:?}");
    }

    #[test]
    fn table_cost_after_a_move_equals_the_successors() {
        random_moves(|_, policies, mv, _, p| {
            assert_eq!(
                table_cost_after(table_cost(policies), policies, mv),
                table_cost(p),
                "{mv:?}"
            );
        });
    }

    #[test]
    fn a_committed_kernel_equals_a_fresh_one() {
        // A replicated start, so a move's change set can shift other
        // processes' replicas too.
        let app = generate_application(&GeneratorConfig::new(12, 3), 5).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let arch = platform.architecture();
        let k = 2;
        let space = MoveSpace::new(&app, k, PolicyMoves::Full, 8);
        let mapping = constructive_mapping(&app, arch).unwrap();
        let policies = PolicyAssignment::uniform_replication(&app, k);
        let (mut kernel, estimate) = Kernel::new(&app, &platform, k, &mapping, &policies).unwrap();
        let key = StateKey::encode(&mapping, &policies);
        let initial = Candidate { mapping, policies, estimate, key };
        let mut current = initial.clone();
        let (mut rng, clock) = (ChaCha8Rng::seed_from_u64(3), &mut PhaseClock::default());
        let (mut walks, mut walked) = (0, false);
        for _ in 0..40 {
            // A walk leaves the kernel anchored at the walked state.
            let before = kernel.evaluator.stats();
            kernel.anchor(&current);
            assert_eq!(kernel.evaluator.stats(), before);
            let (mut fresh, estimate) =
                Kernel::new(&app, &platform, k, &current.mapping, &current.policies).unwrap();
            assert_eq!(kernel.copies, fresh.copies);
            assert_eq!(estimate, current.estimate);
            let moves: Vec<_> = (0..16)
                .filter_map(|_| space.sample(&current.mapping, &current.policies, &mut rng))
                .filter(|mv| mv.fits(arch))
                .collect();
            // Both kernels derive and score every move: equal sets mean
            // equal placement inputs, equal scores equal anchors.
            let scored = kernel.score(&moves, clock);
            assert_eq!(scored, fresh.score(&moves, clock));
            let sets = |kernel: &Kernel<'_>| -> Vec<_> {
                let rows = |set: ChangeSet<'_, '_>| -> Vec<_> {
                    set.iter().map(|(p, row, policy)| (p, row.to_vec(), policy.cloned())).collect()
                };
                kernel.sets.iter().map(rows).collect()
            };
            assert_eq!(sets(&kernel), sets(&fresh));
            walked = false;
            let Some(i) = scored.iter().position(Option::is_some) else { continue };
            let (mapping, policies) = successor(&app, arch, &current, moves[i]);
            let key =
                NeighborKeys::new(&current.key, &current.mapping, &current.policies).key(moves[i]);
            current = Candidate { mapping, policies, estimate: scored[i].unwrap(), key };
            kernel.commit(i, moves[i], &current);
            (walks, walked) = (walks + 1, true);
        }
        let (fresh, _) =
            Kernel::new(&app, &platform, k, &current.mapping, &current.policies).unwrap();
        assert_eq!(kernel.copies, fresh.copies);
        // One evaluation per walk, and the walks were committed by suffix
        // passes: only commits whose sets reach position 0 run a full one.
        let stats = kernel.evaluator.stats();
        assert!(walks > 20, "{walks} walks");
        assert_eq!(stats.evaluations(), 1 + walks + stats.batch_candidates);
        assert!(stats.delta_evals > walks / 2, "{stats:?}");
        let commit_passes = stats.full_evals - 1 - stats.delta_fallbacks;
        assert!(commit_passes < walks);

        // A walk followed by an adoption of another state: a full pass at
        // the adopted state.
        assert!(walked, "the last iteration walks");
        kernel.anchor(&initial);
        assert_eq!(kernel.evaluator.stats().full_evals, stats.full_evals + 1);
        assert_eq!(kernel.evaluator.stats().evaluations(), stats.evaluations() + 1);
        let (fresh, _) =
            Kernel::new(&app, &platform, k, &initial.mapping, &initial.policies).unwrap();
        assert_eq!(kernel.copies, fresh.copies);
        // Anchoring the anchored state again costs nothing.
        kernel.anchor(&initial);
        assert_eq!(kernel.evaluator.stats().evaluations(), stats.evaluations() + 1);
    }

    #[test]
    fn each_worker_scores_on_one_reused_kernel() {
        let (app, platform) = fig3_platform();
        for threads in [1, 3] {
            let config = PortfolioConfig { threads, ..PortfolioConfig::quick(2) };
            let result = explore(&app, &platform, 1, &config).unwrap();
            assert_eq!(result.evals.constructions, config.workers.len() as u64);
            assert!(result.evals.delta_evals > 0, "neighbors are scored as change sets");
            assert!(result.evals.reused() > 0);
        }
    }

    #[test]
    fn explore_beats_or_matches_the_initial_state() {
        let (app, platform) = fig3_platform();
        let initial_mapping = constructive_mapping(&app, platform.architecture()).unwrap();
        let initial = Synthesized::evaluate(
            &app,
            &platform,
            initial_mapping,
            PolicyAssignment::uniform_reexecution(&app, 2),
            2,
        )
        .unwrap();
        let result = explore(&app, &platform, 2, &PortfolioConfig::quick(5)).unwrap();
        assert!(result.best.estimate.worst_case_length <= initial.estimate.worst_case_length);
        result.best.policies.validate(2).unwrap();
        assert!(!result.archive.is_empty());
        assert!(result.evals.batch_candidates > 0);
    }

    #[test]
    fn archive_front_is_mutually_non_dominated() {
        let app = generate_application(&GeneratorConfig::new(10, 3), 3).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let result = explore(&app, &platform, 2, &PortfolioConfig::quick(9)).unwrap();
        let entries = result.archive.entries();
        for a in entries {
            for b in entries {
                assert!(!a.objectives.dominates(&b.objectives) || a.objectives == b.objectives);
            }
        }
        // The incumbent is on the front.
        let best = result.archive.best_by_worst_case().unwrap();
        assert_eq!(best.estimate.worst_case_length, result.best.estimate.worst_case_length);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let app = generate_application(&GeneratorConfig::new(12, 3), 7).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let run = |threads: usize| {
            let config = PortfolioConfig { threads, ..PortfolioConfig::quick(11) };
            explore(&app, &platform, 2, &config).unwrap()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.archive.signature(), parallel.archive.signature());
        assert_eq!(serial.best.estimate, parallel.best.estimate);
        assert_eq!(serial.best.mapping, parallel.best.mapping);
        assert_eq!(serial.evals, parallel.evals);
    }

    #[test]
    fn certify_guided_results_do_not_depend_on_thread_count() {
        let app = generate_application(&GeneratorConfig::new(12, 3), 7).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let run = |threads: usize| {
            let config =
                PortfolioConfig { threads, certify_guided: true, ..PortfolioConfig::quick(11) };
            explore(&app, &platform, 1, &config).unwrap()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.archive.signature(), parallel.archive.signature());
        assert_eq!(serial.best.estimate, parallel.best.estimate);
        assert_eq!(serial.best.mapping, parallel.best.mapping);
        assert_eq!(serial.evals, parallel.evals);
        assert!(
            serial.certify.misses > 0,
            "the guided run must actually certify incumbents: {:?}",
            serial.certify
        );
    }

    #[test]
    fn certify_guided_incumbent_is_exactly_schedulable_or_estimate_refuted() {
        let app = generate_application(&GeneratorConfig::new(10, 3), 3).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let config = PortfolioConfig { certify_guided: true, ..PortfolioConfig::quick(5) };
        let result = explore(&app, &platform, 1, &config).unwrap();
        // The guard admits two classes of best: exact-certified states, and
        // states the estimate itself already prices past the deadline
        // (certifying those cannot change their ranking). Either way the
        // reported incumbent can never be an estimate-optimistic fraud that
        // a bounded exact run had already refuted.
        if result.best.estimate.worst_case_length <= app.deadline() {
            let mut certifier = Certifier::new(
                &app,
                &platform,
                FaultModel::new(1),
                &Transparency::none(),
                CertifyConfig::default(),
            );
            let verdict = certifier.certify(&result.best.copies, &result.best.policies).unwrap();
            assert!(verdict.is_certified(), "guided incumbent must certify: {verdict:?}");
        }
    }

    #[test]
    fn certify_guided_off_reports_zero_certify_counters() {
        let (app, platform) = fig3_platform();
        let result = explore(&app, &platform, 1, &PortfolioConfig::quick(2)).unwrap();
        assert_eq!(result.certify, CacheStats::default());
    }

    #[test]
    fn bad_configs_are_rejected() {
        let (app, platform) = fig3_platform();
        let empty = PortfolioConfig { workers: vec![], ..PortfolioConfig::quick(1) };
        assert!(matches!(explore(&app, &platform, 1, &empty), Err(ExploreError::BadConfig(_))));
        let zero = PortfolioConfig { rounds: 0, ..PortfolioConfig::quick(1) };
        assert!(matches!(explore(&app, &platform, 1, &zero), Err(ExploreError::BadConfig(_))));
    }
}
