//! Bit-identity pin for the search engines.
//!
//! FNV-1a digests over the `Debug` text of what every search entry point
//! returns — mapping, policies, copy placement, estimate, objective trace —
//! for a fixed seeded set of systems: three generator shapes, 2–4 nodes,
//! k 0–3. The engines covered are `synthesize_with` under MX, MR and MXR,
//! `synthesize_certified` post hoc and guided, the one serial `search`
//! entry point under each of its tabu, greedy and annealing engines, one
//! `explore()` portfolio run, and the Fig. 8 checkpoint descent
//! (`compare_checkpointing`, and `optimize_checkpoints_global` from partly
//! replicated starts). Starts mix replicated policies in, so replica
//! placement (whose load coupling lets one move shift other processes'
//! replicas) is on the trajectories.
//!
//! The digests pin the search trajectories themselves: any change to which
//! move is sampled, which candidate is accepted or which estimate is
//! computed shows up here. A deliberate change to search behaviour must
//! re-record them (the failure message prints the new values). Each
//! engine's results and its counters (the evaluator kernel's
//! `EvaluatorStats` afterwards, and the portfolio's memo counters) are
//! digested apart, so a change that scores the same candidates another
//! way (another tier of pass, say) can re-record the counters digests and
//! keep every results digest.

use ftes::explore::{explore, PortfolioConfig};
use ftes::ft::{Policy, PolicyAssignment};
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{Application, FaultModel, Mapping, ProcessId, Time, Transparency};
use ftes::opt::{
    candidate_policies, compare_checkpointing, optimize_checkpoints_global, search,
    synthesize_certified, synthesize_with, CertifyMode, EngineKind, PolicyMoves, RepairConfig,
    SearchConfig, Strategy, Synthesized,
};
use ftes::sched::{Certifier, CertifyConfig, SystemEvaluator};
use ftes::tdma::Platform;
use std::fmt::{self, Write as _};

/// Digest of `synthesize_with` under MX, MR and MXR.
const STRATEGY_DIGEST: u64 = 0x1ab2_98f9_2180_fcd4;
/// Digest of the evaluator-kernel counters after each `synthesize_with`.
const STRATEGY_EVALS_DIGEST: u64 = 0xd56a_b0fa_d8ee_ef9c;
/// Digest of `synthesize_certified`, post hoc and guided.
const CERTIFIED_DIGEST: u64 = 0x7a81_4bdb_74b1_e00e;
/// Digest of the evaluator-kernel counters after each
/// `synthesize_certified`.
const CERTIFIED_EVALS_DIGEST: u64 = 0xe61c_1448_7ec6_0340;
/// Digest of the traced tabu, greedy and annealing engines from mixed
/// (partly replicated) starts.
const ENGINE_DIGEST: u64 = 0xa97f_4927_b1fe_3087;
/// Digest of the evaluator-kernel counters after each tabu run.
const ENGINE_EVALS_DIGEST: u64 = 0x6469_faaf_201f_16ab;
/// Digest of one portfolio exploration's results: best state and Pareto
/// archive (state keys by their bytes).
const EXPLORE_DIGEST: u64 = 0x5e52_f9bd_6aca_524a;
/// Digest of the same exploration's counters: evaluator kernel and
/// certify-guided admit cache.
const EXPLORE_EVALS_DIGEST: u64 = 0xcb0b_e961_3eb4_bb1a;
/// Digest of the Fig. 8 checkpoint descent: the local-vs-global comparison
/// and the global descent from partly replicated starts.
const CHECKPOINT_DIGEST: u64 = 0xb688_3053_a2d7_9bab;

const SEEDS: u64 = 9;
const MAX_K: u32 = 3;

/// FNV-1a (64-bit) fed through `fmt::Write`, so `Debug` text is hashed as
/// it is formatted instead of being collected first.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// 8–15 processes on 2–4 nodes, rotating the generator shape.
fn system(seed: u64) -> (Application, Platform) {
    let n = 8 + (seed * 5 % 8) as usize;
    let nodes = 2 + (seed % 3) as usize;
    let config = match seed % 3 {
        0 => GeneratorConfig::new(n, nodes),
        1 => GeneratorConfig::chainy(n, nodes),
        _ => GeneratorConfig::wide(n, nodes),
    };
    let app = generate_application(&config, 9_100 + seed).expect("generator config in range");
    let platform = Platform::homogeneous(nodes, Time::new(8)).expect("non-empty platform");
    (app, platform)
}

fn search_config(seed: u64) -> SearchConfig {
    SearchConfig { iterations: 24, neighborhood: 12, seed: 31 + seed, ..SearchConfig::default() }
}

/// Re-execution everywhere except every third process (rotated by `salt`),
/// which takes its replication candidate.
fn replicated_mix(app: &Application, k: u32, salt: u64) -> PolicyAssignment {
    let mut policies = PolicyAssignment::uniform_reexecution(app, k);
    for i in 0..app.process_count() {
        if (salt as usize + i).is_multiple_of(3) {
            let p = ProcessId::new(i);
            let cands = candidate_policies(app, p, k, 16);
            if let Some(rep) = cands.iter().find(|c| c.replica_count() == k) {
                policies.set(p, rep.clone());
            }
        }
    }
    policies
}

/// Counts replicated processes in a finished configuration, so the set is
/// known to keep exercising replica placement.
fn replicated(result: &Synthesized) -> usize {
    result.policies.iter().filter(|(_, p)| p.replica_count() > 0).count()
}

#[test]
fn strategies_match_the_recorded_digest() {
    let (mut digest, mut evals) = (Fnv::new(), Fnv::new());
    let mut replicas = 0;
    for seed in 0..SEEDS {
        let (app, platform) = system(seed);
        for k in 0..=MAX_K {
            for strategy in [Strategy::Mx, Strategy::Mr, Strategy::Mxr] {
                let mut evaluator = SystemEvaluator::new(&app, &platform, k);
                let result = synthesize_with(&mut evaluator, strategy, search_config(seed), None);
                if let Ok(s) = &result {
                    replicas += replicated(s);
                }
                writeln!(digest, "seed {seed} k {k} {strategy}: {result:?}").unwrap();
                writeln!(evals, "seed {seed} k {k} {strategy}: {:?}", evaluator.stats()).unwrap();
            }
        }
    }
    assert!(replicas >= 50, "only {replicas} replicated processes in the results");
    assert_eq!(digest.0, STRATEGY_DIGEST, "strategy digest changed: {:#x}", digest.0);
    assert_eq!(evals.0, STRATEGY_EVALS_DIGEST, "strategy counter digest changed: {:#x}", evals.0);
}

#[test]
fn certified_synthesis_matches_the_recorded_digest() {
    let (mut digest, mut evals) = (Fnv::new(), Fnv::new());
    for seed in 0..SEEDS {
        let (app, platform) = system(seed);
        for k in 0..=MAX_K {
            for mode in [CertifyMode::PostHoc, CertifyMode::Guided] {
                let mut evaluator = SystemEvaluator::new(&app, &platform, k);
                let mut certifier = Certifier::new(
                    &app,
                    &platform,
                    FaultModel::new(k),
                    &Transparency::none(),
                    CertifyConfig::default(),
                );
                let result = synthesize_certified(
                    &mut evaluator,
                    &mut certifier,
                    Strategy::Mxr,
                    search_config(seed),
                    RepairConfig::default(),
                    mode,
                );
                writeln!(digest, "seed {seed} k {k} {mode:?}: {result:?}").unwrap();
                writeln!(evals, "seed {seed} k {k} {mode:?}: {:?}", evaluator.stats()).unwrap();
            }
        }
    }
    assert_eq!(digest.0, CERTIFIED_DIGEST, "certified digest changed: {:#x}", digest.0);
    assert_eq!(evals.0, CERTIFIED_EVALS_DIGEST, "certified counter digest changed: {:#x}", evals.0);
}

#[test]
fn engines_match_the_recorded_digest() {
    let (mut digest, mut evals) = (Fnv::new(), Fnv::new());
    let mut replicas = 0;
    for seed in 0..SEEDS {
        let (app, platform) = system(seed);
        let arch = platform.architecture();
        let mapping = Mapping::cheapest(&app, arch).expect("generated apps are mappable");
        for k in 0..=MAX_K {
            let policies = replicated_mix(&app, k, seed + u64::from(k));
            let initial = match Synthesized::evaluate(&app, &platform, mapping.clone(), policies, k)
            {
                Ok(initial) => initial,
                Err(e) => {
                    writeln!(digest, "seed {seed} k {k} initial: {e:?}").unwrap();
                    continue;
                }
            };
            let cfg = search_config(seed);
            let run = |engine| {
                let mut evaluator = SystemEvaluator::new(&app, &platform, k);
                let result =
                    search(&mut evaluator, engine, initial.clone(), PolicyMoves::Full, cfg, None);
                (result, evaluator.stats())
            };
            let (tabu, stats) = run(EngineKind::Tabu);
            if let Ok((s, _)) = &tabu {
                replicas += replicated(s);
            }
            writeln!(digest, "seed {seed} k {k} tabu: {tabu:?}").unwrap();
            writeln!(evals, "seed {seed} k {k} tabu: {stats:?}").unwrap();
            let (greedy, _) = run(EngineKind::Greedy);
            writeln!(digest, "seed {seed} k {k} greedy: {greedy:?}").unwrap();
            let (anneal, _) = run(EngineKind::Anneal);
            writeln!(digest, "seed {seed} k {k} anneal: {anneal:?}").unwrap();
        }
    }
    assert!(replicas >= 20, "only {replicas} replicated processes in the results");
    assert_eq!(digest.0, ENGINE_DIGEST, "engine digest changed: {:#x}", digest.0);
    assert_eq!(evals.0, ENGINE_EVALS_DIGEST, "engine counter digest changed: {:#x}", evals.0);
}

#[test]
fn exploration_matches_the_recorded_digest() {
    let (app, platform) = system(4);
    let config = PortfolioConfig { threads: 1, certify_guided: true, ..PortfolioConfig::quick(5) };
    let outcome = explore(&app, &platform, 2, &config).expect("feasible exploration");
    let mut results = Fnv::new();
    writeln!(results, "{:?} {:?}", outcome.best, outcome.archive).unwrap();
    let mut evals = Fnv::new();
    writeln!(evals, "{:?} {:?}", outcome.evals, outcome.certify).unwrap();
    assert_eq!(results.0, EXPLORE_DIGEST, "exploration digest changed: {:#x}", results.0);
    assert_eq!(evals.0, EXPLORE_EVALS_DIGEST, "exploration counter digest changed: {:#x}", evals.0);
}

#[test]
fn checkpoint_descents_match_the_recorded_digest() {
    let mut digest = Fnv::new();
    let (mut replicas, mut improved) = (0, 0);
    for seed in 0..SEEDS {
        let (app, platform) = system(seed);
        let mapping = Mapping::cheapest(&app, platform.architecture()).expect("mappable");
        for k in 1..=MAX_K {
            let cmp = compare_checkpointing(&app, &platform, mapping.clone(), k, 16);
            if let Ok(cmp) = &cmp {
                improved += usize::from(cmp.improvement_percent() > 0.0);
            }
            writeln!(digest, "seed {seed} k {k} compare: {cmp:?}").unwrap();

            // The local optimum with every third process replicated: the
            // descent must leave those alone and step around them.
            let mut policies = PolicyAssignment::local_checkpointing(&app, k, 16).unwrap();
            for i in (seed as usize % 3..app.process_count()).step_by(3) {
                policies.set(ProcessId::new(i), Policy::replication(k));
            }
            let initial = Synthesized::evaluate(&app, &platform, mapping.clone(), policies, k);
            let global = initial.and_then(|initial| {
                replicas += replicated(&initial);
                let start = initial.objective();
                let global = optimize_checkpoints_global(&app, &platform, initial, k, 16, 64);
                if let Ok(g) = &global {
                    improved += usize::from(g.objective() < start);
                }
                global
            });
            writeln!(digest, "seed {seed} k {k} global: {global:?}").unwrap();
        }
    }
    assert!(replicas >= 50, "only {replicas} replicated processes in the starts");
    assert!(improved >= 40, "only {improved} descents improved on their start");
    assert_eq!(digest.0, CHECKPOINT_DIGEST, "checkpoint digest changed: {:#x}", digest.0);
}
