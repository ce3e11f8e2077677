//! The two subsystem-level guarantees of `ftes-explore`:
//!
//! 1. **Determinism**: the same scenario suite + seed produces an
//!    *identical* Pareto archive and byte-identical CSV/JSON reports
//!    regardless of thread count or point parallelism.
//! 2. **Estimate correctness**: the estimates the workers' kernels score
//!    as change sets agree exactly with freshly computed ones on every
//!    state the exploration archives.

use ftes_explore::{
    explore, paper_grid, run_suite, suite_to_csv, suite_to_json, PortfolioConfig, ScenarioPoint,
    SuiteConfig, SuiteOutcome,
};
use ftes_gen::{generate_application, GeneratorConfig};
use ftes_model::Time;
use ftes_opt::Synthesized;
use ftes_sched::SystemEvaluator;
use ftes_tdma::Platform;

fn suite(point_parallelism: usize, threads: usize, seed: u64) -> SuiteConfig {
    SuiteConfig {
        points: vec![
            ScenarioPoint { processes: 10, nodes: 2, k: 1, seed: 0 },
            ScenarioPoint { processes: 12, nodes: 3, k: 2, seed: 1 },
            ScenarioPoint { processes: 14, nodes: 3, k: 3, seed: 2 },
        ],
        portfolio: PortfolioConfig { threads, ..PortfolioConfig::quick(seed) },
        point_parallelism,
        slot: Time::new(8),
        verify: None,
        certify: true,
    }
}

/// Runs `config(point_parallelism, threads)` at every split and asserts the
/// raw `suite_to_csv`/`suite_to_json` bytes — nothing stripped — and the
/// archive signatures (the reports do not render state hashes) equal the
/// single-threaded baseline's. The reports render design facts only: the
/// CSV has the documented header, and neither report mentions a memo
/// counter. Returns the baseline.
fn assert_split_invariant(
    config: impl Fn(usize, usize) -> SuiteConfig,
    splits: &[(usize, usize)],
) -> SuiteOutcome {
    let baseline = run_suite(&config(1, 1)).unwrap();
    let (csv, json) = (suite_to_csv(&baseline), suite_to_json(&baseline));
    assert_eq!(
        csv.lines().next(),
        Some(
            "processes,nodes,k,seed,fault_free,worst_case,deadline,schedulable,slack_pct,\
             pareto_size,verified,certified,exact_len,demoted"
        )
    );
    for word in ["cache", "hits", "misses", "hit_rate"] {
        assert!(!csv.contains(word) && !json.contains(word), "a report renders `{word}`");
    }
    for &(point_parallelism, threads) in splits {
        let other = run_suite(&config(point_parallelism, threads)).unwrap();
        let split = format!("pp={point_parallelism}, t={threads}");
        assert_eq!(baseline.signature(), other.signature(), "archives differ at {split}");
        assert_eq!(csv, suite_to_csv(&other), "CSV bytes differ at {split}");
        assert_eq!(json, suite_to_json(&other), "JSON bytes differ at {split}");
    }
    baseline
}

#[test]
fn suite_is_deterministic_across_thread_counts() {
    assert_split_invariant(
        |point_parallelism, threads| suite(point_parallelism, threads, 17),
        &[(1, 2), (1, 4), (2, 2), (3, 1), (3, 8)],
    );
}

#[test]
fn certify_guided_suite_renders_identical_bytes_across_thread_counts() {
    let baseline = assert_split_invariant(
        |point_parallelism, threads| {
            let mut config = suite(point_parallelism, threads, 17);
            config.points.truncate(2); // k <= 2 keeps the exact runs cheap
            config.portfolio.certify_guided = true;
            config
        },
        &[(1, 2), (1, 4), (2, 2), (2, 8)],
    );
    assert!(
        baseline.points.iter().any(|p| p.certify_cache.misses > 0),
        "the guided sweep must actually certify incumbents"
    );
}

#[test]
fn different_seeds_explore_differently() {
    // Sanity check that the determinism above is not vacuous (i.e. the
    // engine is actually seed-sensitive somewhere in this workload set).
    let a = run_suite(&suite(1, 2, 17)).unwrap();
    let b = run_suite(&suite(1, 2, 18)).unwrap();
    let visited =
        |s: &SuiteOutcome| -> Vec<u64> { s.points.iter().map(|p| p.evals.evaluations()).collect() };
    // Same grid, different portfolio seed: the searched trajectories (and
    // so the estimator workload) should differ even if the optima agree.
    assert!(
        visited(&a) != visited(&b) || a.signature() != b.signature(),
        "two seeds produced bit-identical explorations — suspicious"
    );
}

#[test]
fn cached_estimates_match_fresh_computation() {
    let app = generate_application(&GeneratorConfig::new(12, 3), 5).unwrap();
    let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
    let k = 2;
    let result = explore(&app, &platform, k, &PortfolioConfig::quick(23)).unwrap();
    let mut evaluator = SystemEvaluator::new(&app, &platform, k);

    // Every archived state's estimate must equal a from-scratch evaluation.
    for entry in result.archive.entries() {
        let fresh = Synthesized::evaluate_with(
            &mut evaluator,
            entry.mapping.clone(),
            entry.policies.clone(),
        )
        .expect("archived states are feasible");
        assert_eq!(entry.estimate, fresh.estimate, "scoring must never distort an estimate");
    }
}

#[test]
fn paper_grid_end_to_end_smoke() {
    // One real §6-sized point (the smallest), kept cheap: proves the grid
    // plumbing works at paper scale, not just on toy graphs.
    let mut points = paper_grid(1);
    points.truncate(1); // 20 processes, 4 nodes, k = 3
    let config = SuiteConfig {
        points,
        portfolio: PortfolioConfig {
            rounds: 2,
            iterations_per_round: 6,
            threads: 4,
            ..PortfolioConfig::quick(1)
        },
        point_parallelism: 1,
        slot: Time::new(8),
        verify: None,
        certify: true,
    };
    let outcome = run_suite(&config).unwrap();
    assert_eq!(outcome.points.len(), 1);
    let p = &outcome.points[0];
    assert_eq!((p.point.processes, p.point.nodes, p.point.k), (20, 4, 3));
    assert!(p.worst_case > p.fault_free, "k = 3 must cost slack");
    assert!(p.evals.batch_candidates > 0, "the workers' kernels must score neighbors");
}
