//! Scaling harness for the `ftes-explore` portfolio engine: wall-clock
//! speedup over the serial MXR synthesis at matched evaluation budgets,
//! swept over thread counts.
//!
//! Output is CSV (`point,engine,threads,wall_ms,worst_case,speedup`), one
//! block per experiment point, with the serial baseline as `threads=0`.
//! The portfolio's search budget (workers × rounds × iterations) matches
//! the serial iteration count, so the speedup column isolates the
//! parallel machinery rather than comparing different search effort.
//!
//! Run with: `cargo run --release -p ftes-bench --bin fig_explore_scaling
//! [seeds-per-point]`

use ftes::explore::{default_portfolio, explore, PortfolioConfig, WorkerSpec};
use ftes::opt::{synthesize, SearchConfig, Strategy};
use ftes_bench::{fig7_points, mean, platform, workload};
use std::time::Instant;

/// The default worker mix with every neighborhood pinned to `width`, so the
/// portfolio's evaluation budget exactly matches the serial baseline's.
fn matched_workers(width: usize) -> Vec<WorkerSpec> {
    default_portfolio().into_iter().map(|w| WorkerSpec { neighborhood: width, ..w }).collect()
}

fn main() {
    let seeds: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut threads: Vec<usize> = vec![1, 2, 4, 8, cores];
    threads.sort_unstable();
    threads.dedup();
    threads.retain(|&t| t <= cores.max(8));

    println!("# explore scaling — portfolio exploration vs serial MXR ({seeds} seeds/point)");
    println!("point,engine,threads,wall_ms,worst_case,speedup");

    for point in fig7_points() {
        let plat = platform(point.nodes);
        // Matched budgets: 4 workers × 4 rounds × 6 iterations = 96 serial
        // iterations, every worker pinned to the serial neighborhood width.
        let serial_cfg =
            SearchConfig { iterations: 96, neighborhood: 16, ..SearchConfig::default() };
        let portfolio_cfg = |threads: usize, seed: u64| PortfolioConfig {
            workers: matched_workers(serial_cfg.neighborhood),
            rounds: 4,
            iterations_per_round: 6,
            threads,
            seed,
            ..PortfolioConfig::default()
        };

        let mut serial_ms = Vec::new();
        let mut serial_wc = Vec::new();
        for seed in 0..seeds {
            let app = workload(point, seed);
            let cfg = SearchConfig { seed, ..serial_cfg };
            let started = Instant::now();
            let s = synthesize(&app, &plat, point.k, Strategy::Mxr, cfg)
                .expect("synthesis on generated instances succeeds");
            serial_ms.push(started.elapsed().as_secs_f64() * 1e3);
            serial_wc.push(s.estimate.worst_case_length.units() as f64);
        }
        let baseline_ms = mean(&serial_ms);
        println!(
            "n{}_k{},serial_mxr,0,{:.1},{:.0},1.00",
            point.processes,
            point.k,
            baseline_ms,
            mean(&serial_wc)
        );

        for &t in &threads {
            let mut ms = Vec::new();
            let mut wc = Vec::new();
            for seed in 0..seeds {
                let app = workload(point, seed);
                let started = Instant::now();
                let result = explore(&app, &plat, point.k, &portfolio_cfg(t, seed))
                    .expect("exploration on generated instances succeeds");
                ms.push(started.elapsed().as_secs_f64() * 1e3);
                wc.push(result.best.estimate.worst_case_length.units() as f64);
            }
            println!(
                "n{}_k{},portfolio,{},{:.1},{:.0},{:.2}",
                point.processes,
                point.k,
                t,
                mean(&ms),
                mean(&wc),
                baseline_ms / mean(&ms).max(1e-9),
            );
        }
    }
    println!("# speedup = serial_mxr wall / portfolio wall (same machine, same budget)");
}
