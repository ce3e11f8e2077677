//! Ablation: metaheuristic choice for the MXR design-space search.
//!
//! The paper's MXR uses tabu search \[13\]; this ablation runs greedy
//! steepest descent, tabu search and simulated annealing over the same
//! move space and budget on identical instances, reporting the average
//! final objective (estimated worst-case length) and the iteration at
//! which each engine last improved.
//!
//! Run with: `cargo run --release -p ftes-bench --bin fig_ablation_search
//! [seeds]`

use ftes::ft::PolicyAssignment;
use ftes::model::Mapping;
use ftes::opt::{search, EngineKind, PolicyMoves, SearchConfig, SearchTrace, Synthesized};
use ftes::sched::SystemEvaluator;
use ftes_bench::{mean, platform, workload, ExperimentPoint};

fn main() {
    let seeds: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let point = ExperimentPoint { processes: 30, nodes: 4, k: 3 };
    let plat = platform(point.nodes);
    let cfg = SearchConfig { iterations: 80, neighborhood: 16, ..SearchConfig::default() };
    println!(
        "# Ablation — search engines on the MXR move space (n={}, k={}, {} iterations)",
        point.processes, point.k, cfg.iterations
    );
    println!("{:<10} | {:>12} | {:>14}", "engine", "avg objective", "last improve");

    let mut rows: Vec<(&str, EngineKind, Vec<f64>, Vec<f64>)> = vec![
        ("greedy", EngineKind::Greedy, vec![], vec![]),
        ("tabu", EngineKind::Tabu, vec![], vec![]),
        ("annealing", EngineKind::Anneal, vec![], vec![]),
    ];
    for seed in 0..seeds {
        let app = workload(point, seed);
        let mapping = Mapping::cheapest(&app, plat.architecture()).expect("mappable");
        let policies = PolicyAssignment::uniform_reexecution(&app, point.k);
        let initial = Synthesized::evaluate(&app, &plat, mapping, policies, point.k)
            .expect("initial state evaluates");
        let cfg = SearchConfig { seed, ..cfg };
        for (_, engine, objectives, improves) in &mut rows {
            let mut evaluator = SystemEvaluator::new(&app, &plat, point.k);
            let (result, trace): (Synthesized, SearchTrace) =
                search(&mut evaluator, *engine, initial.clone(), PolicyMoves::Full, cfg, None)
                    .expect("engine runs");
            objectives.push(result.estimate.worst_case_length.as_f64());
            let last_improve =
                trace.windows(2).rposition(|w| w[1] < w[0]).map(|i| i + 1).unwrap_or(0);
            improves.push(last_improve as f64);
        }
    }
    for (name, _, objectives, improves) in &rows {
        println!("{name:<10} | {:>12.1} | {:>14.1}", mean(objectives), mean(improves));
    }
    // The ranking is read off the rows above, never assumed: which engine
    // wins depends on the instances and the budget.
    let (winner, _, objectives, _) =
        rows.iter().min_by(|a, b| mean(&a.2).total_cmp(&mean(&b.2))).expect("three engines ran");
    println!("# lowest average objective: {winner} ({:.1})", mean(objectives));
}
