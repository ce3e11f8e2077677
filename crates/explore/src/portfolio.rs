//! The parallel portfolio engine: diversified search workers over a shared
//! estimate cache, with incumbent broadcasting at deterministic round
//! barriers.
//!
//! ## Design
//!
//! A portfolio run is a sequence of **rounds**. Within a round every worker
//! advances independently — its trajectory depends only on its own seeded
//! RNG, its engine and the round-start incumbent. Workers run on scoped
//! threads. Each owns one evaluator kernel anchored at its current state
//! and scores a sampled neighborhood the way the serial `ftes-opt` search
//! does: the shared [`EstimateCache`] is probed for every candidate state
//! first, and only the misses are derived as change sets
//! ([`Move::derive`]) and scored in one
//! [`evaluate_changes`](SystemEvaluator::evaluate_changes) pass. The
//! engine's acceptance is `ftes-opt`'s too: each worker holds one
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
//! Thread scheduling can reorder *when* states are evaluated but never
//! *which* states each worker visits: the cache returns identical values
//! regardless of who computed them, archives are order-independent sets,
//! and all cross-worker communication happens at barriers with canonical
//! tie-breaks. Hence: same seed ⇒ identical best state and identical
//! Pareto archive for **any** thread count — the property
//! `tests/determinism.rs` locks in.

use crate::archive::{ArchiveEntry, ParetoArchive};
use crate::cache::{CacheStats, CertifyCache, EstimateCache, Probe, StateKey};
use ftes_ft::PolicyAssignment;
use ftes_ftcpg::{ChangeSets, CopyMapping, PlacementLoad};
use ftes_model::{Application, Architecture, FaultModel, Mapping, ProcessId, Time, Transparency};
use ftes_opt::{
    apply_move, constructive_mapping, Acceptance, EngineKind, Move, MoveSpace, OptError,
    PolicyMoves, Scored, Synthesized,
};
use ftes_sched::{Certifier, CertifyConfig, Estimate, EvaluatorStats, SystemEvaluator};
use ftes_tdma::Platform;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
// ftes-lint: allow(determinism) reason="in-batch duplicate lookup only; entries are never iterated into results"
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// concurrently; each worker scores its neighborhoods on its own
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
    /// reuse) summed over the workers' kernels, one per worker.
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
    acceptance: Acceptance,
    kernel: Kernel,
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
    /// Search objective: worst case, fault-free tie-break, canonical key as
    /// the final deterministic tie-break.
    fn objective(&self) -> (Time, Time, &StateKey) {
        (self.estimate.worst_case_length, self.estimate.fault_free_length, &self.key)
    }

    /// The candidate as the engines' [`Acceptance::step`] judges it.
    fn scored(&self) -> Scored<(Time, Time, &StateKey)> {
        Scored { worst_case: self.estimate.worst_case_length, objective: self.objective() }
    }
}

/// One worker's evaluator kernel, anchored at one state, plus that state's
/// copy placement and placement inputs — what [`Move::derive`] derives the
/// change sets of its neighbors from.
struct Kernel {
    evaluator: SystemEvaluator,
    key: StateKey,
    copies: CopyMapping,
    load: PlacementLoad,
}

impl Kernel {
    /// A kernel anchored at `(mapping, policies)`, with that state's
    /// estimate.
    fn new(
        app: &Application,
        platform: &Platform,
        k: u32,
        mapping: &Mapping,
        policies: &PolicyAssignment,
    ) -> Result<(Kernel, Estimate), OptError> {
        let mut evaluator = SystemEvaluator::new(app, platform, k);
        let state = Synthesized::evaluate_with(&mut evaluator, mapping.clone(), policies.clone())?;
        let kernel = Kernel {
            evaluator,
            key: StateKey::encode(mapping, policies),
            copies: state.copies,
            load: PlacementLoad::new(app, platform.architecture(), mapping, policies),
        };
        Ok((kernel, state.estimate))
    }

    /// Re-anchors at `state` unless the kernel is anchored there already
    /// (keys are collision-free, so equal keys are equal states).
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
        self.key = state.key.clone();
    }

    /// Scores `neighbors` — moves of the anchored state, each with the state
    /// it leads to — through `cache`, returning every neighbor's key and
    /// estimate in input order (`None` = infeasible).
    ///
    /// Every key is probed first, in input order, reserving the misses; only
    /// the misses are derived as change sets and scored, in one
    /// [`SystemEvaluator::evaluate_changes`] pass, and their results are
    /// published back. A key sampled twice in the batch is scored once (the
    /// repeat probe hits this batch's own reservation and takes the first
    /// occurrence's result); a key another worker is still computing counts
    /// as the hit it would be sequentially, and is scored here rather than
    /// waited on.
    fn score(
        &mut self,
        cache: &EstimateCache,
        neighbors: &[(Move<'_>, Mapping, PolicyAssignment)],
    ) -> Vec<(StateKey, Option<Estimate>)> {
        let app = self.evaluator.app();
        let mut out: Vec<(StateKey, Option<Estimate>)> = Vec::with_capacity(neighbors.len());
        let mut misses: Vec<usize> = Vec::new();
        let mut sets = ChangeSets::new();
        let mut first_at: HashMap<StateKey, usize> = HashMap::new();
        let mut dup_of: Vec<(usize, usize)> = Vec::new();
        for (i, (mv, mapping, policies)) in neighbors.iter().enumerate() {
            let key = StateKey::encode(mapping, policies);
            if let Some(&src) = first_at.get(&key) {
                probe(cache, &key);
                dup_of.push((i, src));
                out.push((key, None));
                continue;
            }
            first_at.insert(key.clone(), i);
            match probe(cache, &key) {
                Probe::Ready(value) => out.push((key, value)),
                Probe::Pending | Probe::Reserved => {
                    mv.derive(app, &mut self.load, &self.copies, &mut sets);
                    misses.push(i);
                    out.push((key, None));
                }
            }
        }
        if !sets.is_empty() {
            for (&i, result) in misses.iter().zip(self.evaluator.evaluate_changes(&sets)) {
                out[i].1 = result.ok();
            }
        }
        // `resolve` never overwrites a value another worker published first.
        for &i in &misses {
            cache.resolve(out[i].0.clone(), out[i].1);
        }
        for (dup, src) in dup_of {
            out[dup].1 = out[src].1;
        }
        out
    }
}

/// Probes the estimate cache, reporting the probe on the
/// `cache.estimate_hit`/`cache.estimate_miss` trace counters.
fn probe(cache: &EstimateCache, key: &StateKey) -> Probe<Option<Estimate>> {
    let probe = cache.probe_or_reserve(key);
    let name = match probe {
        Probe::Reserved => ftes_obs::names::ESTIMATE_CACHE_MISS,
        Probe::Ready(_) | Probe::Pending => ftes_obs::names::ESTIMATE_CACHE_HIT,
    };
    ftes_obs::counter(name, 1);
    probe
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
    /// Whether `candidate` may become a worker's best, by
    /// [`Certifier::admits`] behind the shared admit cache.
    fn admits(&mut self, candidate: &Candidate) -> bool {
        let estimate = candidate.estimate.worst_case_length;
        // The rule admits a state estimated past the deadline untested, so
        // such a state takes no admit-cache slot.
        if estimate > self.deadline {
            return true;
        }
        match self.cache.probe_or_reserve(&candidate.key) {
            Probe::Ready(admit) => admit,
            Probe::Pending | Probe::Reserved => {
                // A placement or certification failure is no exact evidence
                // either way: admit, degrading to the estimate-only regime
                // rather than aborting the search.
                let (mapping, policies) = (&candidate.mapping, &candidate.policies);
                let admit = match CopyMapping::from_base(self.app, self.arch, mapping, policies) {
                    Ok(copies) => self
                        .certifier
                        .admits(&copies, policies, estimate, self.deadline)
                        .unwrap_or(true),
                    Err(_) => true,
                };
                self.cache.resolve(candidate.key.clone(), admit);
                admit
            }
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

    let cache = EstimateCache::new();
    let space = MoveSpace::new(app, k, PolicyMoves::Full, config.max_checkpoints);
    // Seed the cache with the initial state so workers hit it immediately.
    probe(&cache, &initial.key);
    cache.resolve(initial.key.clone(), Some(initial.estimate));

    let worker_count = config.workers.len();
    let worker_threads = config.threads.clamp(1, worker_count);

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
            indexed_parallel(worker_count, worker_threads, |i| {
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
                run_round(app, platform.architecture(), config, &space, &cache, &mut worker, guard)
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
    let evals = workers
        .iter()
        .map(|w| w.kernel.evaluator.stats())
        .fold(EvaluatorStats::default(), EvaluatorStats::merged);

    Ok(Exploration { best, archive, cache: cache.stats(), evals, certify: certify_cache.stats() })
}

/// Advances one worker by `iterations_per_round` batched iterations.
fn run_round(
    app: &Application,
    arch: &Architecture,
    config: &PortfolioConfig,
    space: &MoveSpace,
    cache: &EstimateCache,
    worker: &mut Worker,
    mut guard: Option<Guard<'_>>,
) -> ParetoArchive {
    let mut local_archive = ParetoArchive::new();

    for _ in 0..config.iterations_per_round {
        // 1. Anchor the kernel at the current state, which changes only on
        // an accepted move or when the worker adopts the incumbent.
        worker.kernel.anchor(&worker.current);

        // 2. Sample the whole neighborhood without evaluating. Candidates
        // stay whole states: the estimate cache keys on them.
        let mut neighbors = Vec::with_capacity(worker.spec.neighborhood);
        for _ in 0..worker.spec.neighborhood {
            let (mapping, policies) = (&worker.current.mapping, &worker.current.policies);
            let Some(mv) = space.sample(mapping, policies, &mut worker.rng) else { continue };
            if let Some((mapping, policies)) = apply_move(app, arch, mapping, policies, mv) {
                neighbors.push((mv, mapping, policies));
            }
        }

        // 3. Probe the cache, score the misses as change sets in one kernel
        // pass, and keep the feasible candidates, in sample order.
        let scored = worker.kernel.score(cache, &neighbors);
        let mut candidates: Vec<(ProcessId, Candidate)> = Vec::with_capacity(neighbors.len());
        for ((mv, mapping, policies), (key, estimate)) in neighbors.into_iter().zip(scored) {
            if let Some(estimate) = estimate {
                let candidate = Candidate { mapping, policies, estimate, key };
                local_archive.insert(ArchiveEntry::new(
                    candidate.mapping.clone(),
                    candidate.policies.clone(),
                    candidate.estimate,
                ));
                candidates.push((mv.process(), candidate));
            }
        }

        // 4. The engine's acceptance step. A candidate that beats the best
        // becomes it only if the certify-guided gate (when on) admits it; a
        // demoted candidate is still walked through.
        let judged: Vec<_> = candidates.iter().map(|(p, c)| (*p, c.scored())).collect();
        let Ok(step) = worker.acceptance.step(
            &judged,
            worker.current.scored(),
            worker.best.objective(),
            &mut worker.rng,
            |i| {
                Ok::<_, Infallible>(
                    guard.as_mut().is_none_or(|guard| guard.admits(&candidates[i].1)),
                )
            },
        );
        if let Some(i) = step.promoted {
            worker.best = candidates[i].1.clone();
        }
        if let Some(i) = step.walk {
            worker.current = candidates.swap_remove(i).1;
        }
    }
    local_archive
}

/// Runs `f(0..n)` across up to `threads` scoped threads, returning results
/// in index order. Work is claimed from a shared atomic counter, so uneven
/// item costs balance automatically — no channels, no pool object to keep
/// alive, and the results never depend on which thread computed them (the
/// property every determinism guarantee in this crate leans on).
pub(crate) fn indexed_parallel<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let f = &f;
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, v) in bucket {
            slots[i] = Some(v);
        }
    }
    slots.into_iter().map(|s| s.expect("every index claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::samples;
    use ftes_opt::candidate_policies;

    fn fig3_platform() -> (Application, Platform) {
        let (app, arch) = samples::fig3();
        let nodes = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(nodes, Time::new(8)).unwrap()).unwrap();
        (app, platform)
    }

    /// Fig. 3 at k = 2 and a kernel anchored at its cheapest mapping under
    /// uniform re-execution.
    fn fig3_kernel() -> (Application, Platform, Mapping, PolicyAssignment, Kernel) {
        let (app, platform) = fig3_platform();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let (kernel, _) = Kernel::new(&app, &platform, 2, &mapping, &policies).unwrap();
        (app, platform, mapping, policies, kernel)
    }

    #[test]
    fn indexed_parallel_preserves_order() {
        for threads in [1, 2, 7] {
            let out = indexed_parallel(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(indexed_parallel(0, 4, |i| i).is_empty());
    }

    #[test]
    fn batch_matches_fresh_evaluation() {
        let (app, platform, mapping, policies, mut kernel) = fig3_kernel();
        let arch = platform.architecture();
        let space = MoveSpace::new(&app, 2, PolicyMoves::Full, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let neighbors: Vec<_> = (0..48)
            .filter_map(|_| space.sample(&mapping, &policies, &mut rng))
            .filter_map(|mv| {
                apply_move(&app, arch, &mapping, &policies, mv).map(|(m, p)| (mv, m, p))
            })
            .collect();
        let cache = EstimateCache::new();
        let scored = kernel.score(&cache, &neighbors);
        let mut fresh = SystemEvaluator::new(&app, &platform, 2);
        let mut keys = Vec::new();
        for ((_, m, p), (key, estimate)) in neighbors.iter().zip(&scored) {
            let oracle = Synthesized::evaluate_with(&mut fresh, m.clone(), p.clone()).ok();
            assert_eq!(*estimate, oracle.map(|s| s.estimate), "duplicates included");
            assert_eq!(*key, StateKey::encode(m, p));
            keys.push(key.clone());
        }
        keys.sort();
        keys.dedup();
        assert!(keys.len() < neighbors.len(), "the sample must repeat a state");
        // One entry and one miss per distinct state; the kernel scores
        // exactly the misses.
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (keys.len(), keys.len() as u64));
        assert_eq!(kernel.evaluator.stats().batch_candidates, stats.misses);
    }

    #[test]
    fn duplicates_are_filled_when_the_rest_of_the_batch_hits() {
        let (app, platform, mapping, policies, mut kernel) = fig3_kernel();
        let arch = platform.architecture();
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let (c0, c1) = (candidate_policies(&app, p0, 2, 16), candidate_policies(&app, p1, 2, 16));
        let [a, b] = [(p0, &c0[1]), (p1, &c1[1])].map(|(process, policy)| {
            let mv = Move::Repolicy { process, policy };
            let (m, p) = apply_move(&app, arch, &mapping, &policies, mv).unwrap();
            (mv, m, p)
        });
        let cache = EstimateCache::new();
        let first = kernel.score(&cache, &[a.clone(), b.clone()]);
        assert!(first.iter().all(|(_, estimate)| estimate.is_some()));
        // Every key of this batch hits the cache; the repeated `a` must
        // still read its first occurrence's estimate, not infeasibility.
        let again = kernel.score(&cache, &[a.clone(), b, a]);
        assert_eq!(again, vec![first[0].clone(), first[1].clone(), first[0].clone()]);
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
