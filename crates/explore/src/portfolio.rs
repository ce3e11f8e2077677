//! The parallel portfolio engine: diversified search workers over a shared
//! estimate cache, with incumbent broadcasting at deterministic round
//! barriers.
//!
//! ## Design
//!
//! A portfolio run is a sequence of **rounds**. Within a round every worker
//! advances independently — its trajectory depends only on its own seeded
//! RNG, its engine (tabu / simulated annealing / greedy descent, reusing
//! the move vocabulary `ftes-opt` exposes) and the round-start incumbent.
//! Workers run on scoped threads and score each sampled neighborhood in
//! one pass through the [batched evaluator](crate::evaluate_batch) — the
//! shared [`EstimateCache`] is probed first, only misses reach the warm
//! kernel. At the round barrier the per-worker archives merge
//! (order-independent, see [`ParetoArchive`]), the global incumbent is
//! recomputed with a canonical tie-break, and workers whose current state
//! is worse than the incumbent adopt it.
//!
//! ## Determinism
//!
//! Thread scheduling can reorder *when* states are evaluated but never
//! *which* states each worker visits: the cache returns identical values
//! regardless of who computed them, archives are order-independent sets,
//! and all cross-worker communication happens at barriers with canonical
//! tie-breaks. Hence: same seed ⇒ identical best state and identical
//! Pareto archive for **any** thread count — the property
//! `tests/determinism.rs` locks in.

use crate::archive::{ArchiveEntry, ParetoArchive};
use crate::cache::{CacheStats, CertifyCache, CertifyProbe, EstimateCache, StateKey};
use crate::pool::{evaluate_batch_keyed, evaluate_state, indexed_parallel, EvaluatorPool};
use ftes_ft::PolicyAssignment;
use ftes_ftcpg::CopyMapping;
use ftes_model::{Application, Architecture, FaultModel, Mapping, Time, Transparency};
use ftes_opt::{
    apply_move, constructive_mapping, CandidateMove, MoveSpace, OptError, PolicyMoves, Synthesized,
};
use ftes_sched::{BoundedCert, CertOutcome, Certifier, CertifyConfig, EvaluatorStats};
use ftes_tdma::Platform;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Mutex;

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

/// The metaheuristic a portfolio worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Tabu search (the paper's MXR engine) with per-worker tenure.
    Tabu,
    /// Simulated annealing with geometric cooling.
    Anneal,
    /// Greedy steepest descent (only improving moves).
    Greedy,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Tabu => "tabu",
            EngineKind::Anneal => "anneal",
            EngineKind::Greedy => "greedy",
        };
        write!(f, "{s}")
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
    /// Total threads the engine may occupy (bounds how many workers run
    /// concurrently; each worker scores its neighborhoods through one warm
    /// kernel, so there is no per-candidate fan-out below the workers).
    pub threads: usize,
    /// Cap on checkpoint counts in candidate policies.
    pub max_checkpoints: u32,
    /// Master seed; worker seeds derive from it and their `seed_offset`.
    pub seed: u64,
    /// Certify-guided incumbents: candidates that would become a worker's
    /// best under the estimate are incrementally exact-certified against
    /// the deadline first (bounded, memo-backed), and refuted states are
    /// demoted *during* the search instead of post hoc. Worker certifiers
    /// run unbudgeted and verdicts are shared through a pending-reserving
    /// cache, so trajectories and counters stay thread-count-deterministic.
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
    /// Estimate-cache counters for the whole run.
    pub cache: CacheStats,
    /// Evaluator-kernel counters (constructions, full/delta evaluations,
    /// reuse) aggregated over the per-thread pool.
    pub evals: EvaluatorStats,
    /// Certify-guided admit-cache counters (all zero when
    /// [`PortfolioConfig::certify_guided`] is off). Deterministic for any
    /// thread count, like the estimate-cache counters.
    pub certify: CacheStats,
}

/// A worker's private search state between rounds.
struct Worker {
    spec: WorkerSpec,
    rng: ChaCha8Rng,
    current: Candidate,
    best: Candidate,
    tabu_until: Vec<usize>,
    iteration: usize,
    temperature: f64,
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
    fn new(mapping: Mapping, policies: PolicyAssignment, estimate: ftes_sched::Estimate) -> Self {
        let key = StateKey::encode(&mapping, &policies);
        Candidate { mapping, policies, estimate, key }
    }

    /// Search objective: worst case, fault-free tie-break, canonical key as
    /// the final deterministic tie-break.
    fn objective(&self) -> (Time, Time, &StateKey) {
        (self.estimate.worst_case_length, self.estimate.fault_free_length, &self.key)
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
    /// Whether `candidate` may become a worker's best. Demotes (returns
    /// `false`) only on explicit negative exact evidence: a bounded run
    /// that pruned past the deadline, or an exact schedule that misses it.
    fn admits(&mut self, candidate: &Candidate) -> bool {
        // The estimate already prices the candidate past the deadline:
        // certifying cannot improve the verdict the ranking gives it, so
        // admit untested (mirrors the repair-loop guard in `ftes-opt`).
        if candidate.estimate.worst_case_length > self.deadline {
            return true;
        }
        match self.cache.probe_or_reserve(&candidate.key) {
            CertifyProbe::Ready(admit) => admit,
            CertifyProbe::Pending | CertifyProbe::Reserved => {
                let admit = self.certify(candidate);
                self.cache.resolve(candidate.key.clone(), admit);
                admit
            }
        }
    }

    fn certify(&mut self, candidate: &Candidate) -> bool {
        let copies = match CopyMapping::from_base(
            self.app,
            self.arch,
            &candidate.mapping,
            &candidate.policies,
        ) {
            Ok(copies) => copies,
            // Candidates reached here evaluated feasible; a placement
            // failure means no exact evidence either way — admit.
            Err(_) => return true,
        };
        match self.certifier.certify_bounded(&copies, &candidate.policies, self.deadline) {
            Ok(BoundedCert::Verdict(CertOutcome::Exact { exact_len, deadline_met })) => {
                self.certifier.record_estimate(exact_len, candidate.estimate.worst_case_length);
                deadline_met
            }
            // Estimate-only regime (FT-CPG over the size budget): no exact
            // evidence — admit, exactly like the post-hoc walk would.
            Ok(BoundedCert::Verdict(CertOutcome::OverBudget)) => true,
            Ok(BoundedCert::Pruned { .. }) => false,
            // Hard construction/scheduling failures degrade to the
            // estimate-only regime rather than aborting the search.
            Err(_) => true,
        }
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
    let initial_mapping = constructive_mapping(app, platform.architecture())
        .map_err(|e| ExploreError::Infeasible(OptError::from(e)))?;
    let initial_policies = PolicyAssignment::uniform_reexecution(app, k);
    // One warm evaluator kernel per evaluation thread for the whole run.
    let pool = EvaluatorPool::new(app, platform, k, config.threads.max(1));
    let initial_estimate = pool
        .with(0, |ev| evaluate_state(ev, &initial_mapping, &initial_policies))
        .ok_or_else(|| {
            ExploreError::Infeasible(OptError::NoFeasibleConfiguration(
                "initial re-execution configuration is infeasible".into(),
            ))
        })?;
    let initial = Candidate::new(initial_mapping, initial_policies, initial_estimate);

    let cache = EstimateCache::new();
    let space = MoveSpace::new(app, k, PolicyMoves::Full, config.max_checkpoints);
    // Seed the cache with the initial state so workers hit it immediately.
    cache.get_or_compute(initial.key.clone(), || Some(initial.estimate));

    let worker_count = config.workers.len();
    let worker_threads = config.threads.clamp(1, worker_count);

    let workers: Vec<Mutex<Worker>> = config
        .workers
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            // Decorrelate workers: golden-ratio mix of master seed, offset
            // and index.
            let seed = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(spec.seed_offset)
                .wrapping_add((i as u64) << 32);
            Mutex::new(Worker {
                spec: *spec,
                rng: ChaCha8Rng::seed_from_u64(seed),
                current: initial.clone(),
                best: initial.clone(),
                tabu_until: vec![0; app.process_count()],
                iteration: 0,
                temperature: (initial.estimate.worst_case_length.as_f64() * 0.05).max(1.0),
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
        // Workers advance in parallel; each returns its round archive.
        let round_archives: Vec<ParetoArchive> =
            indexed_parallel(worker_count, worker_threads, |thread, i| {
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
                run_round(app, platform, config, &space, &cache, &pool, thread, &mut worker, guard)
            });
        for local in round_archives {
            archive.merge(local);
        }
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

    let best = workers
        .into_iter()
        .map(|w| w.into_inner().expect("worker state poisoned").best)
        .min_by(|a, b| a.objective().cmp(&b.objective()))
        .expect("portfolio is non-empty");
    // Rebuild the full synthesized configuration (replica placement) for
    // the winner; its feasibility was established when it was evaluated.
    let best = pool.with(0, |ev| Synthesized::evaluate_with(ev, best.mapping, best.policies))?;

    Ok(Exploration {
        best,
        archive,
        cache: cache.stats(),
        evals: pool.stats(),
        certify: certify_cache.stats(),
    })
}

/// Advances one worker by `iterations_per_round` batched iterations.
/// `thread` is the worker's scoped-thread slot, passed through as the
/// preferred evaluator-pool slot so concurrent workers keep their own warm
/// kernel.
#[allow(clippy::too_many_arguments)]
fn run_round(
    app: &Application,
    platform: &Platform,
    config: &PortfolioConfig,
    space: &MoveSpace,
    cache: &EstimateCache,
    pool: &EvaluatorPool,
    thread: usize,
    worker: &mut Worker,
    mut guard: Option<Guard<'_>>,
) -> ParetoArchive {
    let arch = platform.architecture();
    let mut local_archive = ParetoArchive::new();

    for _ in 0..config.iterations_per_round {
        // 1. Sample the whole neighborhood without evaluating. Candidates
        // stay whole states: the estimate cache keys on them.
        let mut moves = Vec::with_capacity(worker.spec.neighborhood);
        for _ in 0..worker.spec.neighborhood {
            let current = &worker.current;
            if let Some(mv) = space.sample(&current.mapping, &current.policies, &mut worker.rng) {
                moves.push(CandidateMove::from(mv));
            }
        }
        let mut move_idxs = Vec::with_capacity(moves.len());
        let mut batch: Vec<(Mapping, PolicyAssignment)> = Vec::with_capacity(moves.len());
        for (i, mv) in moves.iter().enumerate() {
            if let Some(state) =
                apply_move(app, arch, &worker.current.mapping, &worker.current.policies, mv)
            {
                move_idxs.push(i);
                batch.push(state);
            }
        }

        // 2. One cache-backed kernel batch pass for the whole neighborhood,
        // anchored at the worker's current state; keys come back alongside
        // so candidates need no re-encoding.
        let anchor = (&worker.current.mapping, &worker.current.policies);
        let keyed = evaluate_batch_keyed(pool, cache, Some(anchor), &batch, thread);

        // 3. Feasible candidates, in sample order.
        let mut candidates: Vec<(usize, Candidate)> = Vec::with_capacity(batch.len());
        for ((move_idx, (mapping, policies)), (key, estimate)) in
            move_idxs.into_iter().zip(batch).zip(keyed)
        {
            if let Some(estimate) = estimate {
                let candidate = Candidate { mapping, policies, estimate, key };
                local_archive.insert(ArchiveEntry::new(
                    candidate.mapping.clone(),
                    candidate.policies.clone(),
                    candidate.estimate,
                ));
                candidates.push((move_idx, candidate));
            }
        }

        // 4. Engine-specific acceptance.
        match worker.spec.engine {
            EngineKind::Tabu => accept_tabu(worker, &mut guard, &moves, candidates),
            EngineKind::Greedy => accept_greedy(worker, &mut guard, candidates),
            EngineKind::Anneal => accept_anneal(worker, &mut guard, candidates),
        }
        worker.iteration += 1;
    }
    local_archive
}

/// Promotes `candidate` to the worker's best if it wins the objective and —
/// in certify-guided mode — survives the exact admission gate. A demoted
/// candidate still becomes `current` in the accept functions (the search
/// walks through it), it just can never be reported as an incumbent.
fn touch_best(worker: &mut Worker, guard: &mut Option<Guard<'_>>, candidate: &Candidate) {
    if candidate.objective() < worker.best.objective() {
        if let Some(guard) = guard.as_mut() {
            if !guard.admits(candidate) {
                return;
            }
        }
        worker.best = candidate.clone();
    }
}

fn accept_tabu(
    worker: &mut Worker,
    guard: &mut Option<Guard<'_>>,
    moves: &[CandidateMove],
    candidates: Vec<(usize, Candidate)>,
) {
    let iteration = worker.iteration;
    let mut chosen: Option<(usize, Candidate)> = None;
    for (move_idx, candidate) in candidates {
        let process = moves[move_idx].process();
        let aspiration = candidate.objective() < worker.best.objective();
        if worker.tabu_until[process.index()] > iteration && !aspiration {
            continue;
        }
        let better =
            chosen.as_ref().map(|(_, c)| candidate.objective() < c.objective()).unwrap_or(true);
        if better {
            chosen = Some((move_idx, candidate));
        }
    }
    if let Some((move_idx, next)) = chosen {
        worker.tabu_until[moves[move_idx].process().index()] = iteration + worker.spec.tenure;
        touch_best(worker, guard, &next);
        worker.current = next;
    }
}

fn accept_greedy(
    worker: &mut Worker,
    guard: &mut Option<Guard<'_>>,
    candidates: Vec<(usize, Candidate)>,
) {
    // Same rule as the serial `greedy_descent`: take the best sampled move,
    // and only if it strictly improves the current state.
    let mut best_move: Option<Candidate> = None;
    for (_, candidate) in candidates {
        let improves = match &best_move {
            Some(best) => candidate.objective() < best.objective(),
            None => candidate.objective() < worker.current.objective(),
        };
        if improves {
            best_move = Some(candidate);
        }
    }
    if let Some(next) = best_move {
        touch_best(worker, guard, &next);
        worker.current = next;
    }
}

fn accept_anneal(
    worker: &mut Worker,
    guard: &mut Option<Guard<'_>>,
    candidates: Vec<(usize, Candidate)>,
) {
    for (_, candidate) in candidates {
        let delta = (candidate.estimate.worst_case_length
            - worker.current.estimate.worst_case_length)
            .as_f64();
        let accept =
            delta <= 0.0 || worker.rng.gen_bool((-delta / worker.temperature).exp().min(1.0));
        if accept {
            touch_best(worker, guard, &candidate);
            worker.current = candidate;
        }
    }
    worker.temperature = (worker.temperature * 0.95).max(1e-3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::samples;

    fn fig3_platform() -> (Application, Platform) {
        let (app, arch) = samples::fig3();
        let nodes = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(nodes, Time::new(8)).unwrap()).unwrap();
        (app, platform)
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
        assert!(result.cache.misses > 0);
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
        // The admit-cache accounting is part of the deterministic surface:
        // the pending reservation pins one miss per unique admitted state.
        assert_eq!(serial.certify, parallel.certify);
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
    fn cache_hits_accumulate_across_workers() {
        let (app, platform) = fig3_platform();
        let result = explore(&app, &platform, 1, &PortfolioConfig::quick(2)).unwrap();
        assert!(result.cache.hits > 0, "portfolio revisits states; the cache must absorb them");
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
