//! `explore_grid`: the paper's §6 grid (20–100 processes, k 3–7) through
//! the portfolio explorer on one thread, one point at a time, with exact
//! certification on — the path where incumbents' FT-CPGs are built and
//! come back over budget, which no corpus spec reaches.

use crate::stats::{mean, median, pct, ratio, splitmix, summarize};
use crate::trace::{self, Layers};
use crate::{Figures, Report};
use ftes::explore::{
    paper_grid, run_suite, run_suite_streaming, CacheStats, CertifyVerdict, Objectives,
    PointOutcome, PortfolioConfig, SuiteConfig,
};
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::obs::{self, names};
use ftes::sched::{EvaluatorStats, SystemEvaluator};
use ftes::tdma::Platform;
use std::time::{Duration, Instant};

/// Workload seeds per grid size (the `paper_grid(2)` shape).
const SEEDS_PER_POINT: u64 = 2;
/// Portfolio threads of the measured passes: one, because a second busy
/// thread on a shared two-vCPU host times its neighbours as much as the
/// program. The set-up reference runs on two, so any dependence on the
/// thread split still shows as a mismatch.
const THREADS: usize = 1;
const REFERENCE_THREADS: usize = 2;

/// The grid in a seeded order. Instances and search seeds stay the
/// paper's: a point's result and cost do not depend on its position, so
/// every seed measures the same work and the figures hold across seeds.
fn config(seed: u64, threads: usize) -> SuiteConfig {
    let mut points = paper_grid(SEEDS_PER_POINT);
    let mut rng = seed;
    for i in (1..points.len()).rev() {
        points.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    SuiteConfig {
        points,
        portfolio: PortfolioConfig { threads, ..PortfolioConfig::default() },
        point_parallelism: 1,
        certify: true,
        ..SuiteConfig::default()
    }
}

/// Everything about a point that must not depend on the run or the thread
/// split: its label, archive signature and shipped verdict.
type PointKey = (String, Vec<(Objectives, u64)>, CertifyVerdict, i64, bool, u32);

fn key(p: &PointOutcome) -> PointKey {
    (
        p.point.label(),
        p.archive.signature(),
        p.certified,
        p.worst_case.units(),
        p.schedulable,
        p.demoted,
    )
}

struct Pass {
    latencies_ms: Vec<f64>,
    outcomes: Vec<PointOutcome>,
    mismatched: u64,
}

/// One suite pass, delivered point by point. Markers bracket each point,
/// so the checks between points are excluded from its time.
fn pass(config: &SuiteConfig, reference: &[PointKey]) -> Result<Pass, String> {
    let mut p = Pass { latencies_ms: Vec::new(), outcomes: Vec::new(), mismatched: 0 };
    obs::counter(trace::PASS_START, 0);
    let mut last = Instant::now();
    run_suite_streaming(config, None, |i, point| {
        p.latencies_ms.push(last.elapsed().as_secs_f64() * 1e3);
        obs::counter(trace::POINT_DONE, i as u64);
        if reference.get(i) != Some(&key(point)) {
            eprintln!(
                "explore_grid: point {} differs from the {REFERENCE_THREADS}-thread reference",
                point.point.label()
            );
            p.mismatched += 1;
        }
        p.outcomes.push(point.clone());
        obs::counter(trace::RESUME, i as u64);
        last = Instant::now();
    })
    .map_err(|e| e.to_string())?;
    Ok(p)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    // Set-up: the grid and the 2-thread reference pass every measured pass
    // must match point for point.
    let started = Instant::now();
    let measured = config(seed, THREADS);
    let reference: Vec<PointKey> = match run_suite(&config(seed, REFERENCE_THREADS)) {
        Ok(outcome) => outcome.points.iter().map(key).collect(),
        Err(e) => {
            eprintln!("explore_grid: reference pass failed: {e}");
            Vec::new()
        }
    };
    let mut report = Report::new(started.elapsed().as_secs_f64());
    let points = measured.points.len() as u64;
    let window_ms = seconds as f64 * 1e3;

    // Whole passes only, so every run times each point equally often; a
    // pass starts only if it should end inside the window. A traced run
    // alternates plain and traced passes.
    let started = Instant::now();
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); measured.points.len()];
    let mut plain_walls: Vec<f64> = Vec::new();
    let mut traced_passes: Vec<(f64, Layers, Pass)> = Vec::new();
    let mut first: Option<Vec<PointOutcome>> = None;
    let mut last_wall = 0.0;
    while first.is_none()
        || started.elapsed().as_secs_f64() * 1e3 + last_wall <= window_ms
        || (traced && traced_passes.is_empty())
    {
        let tracing = traced && plain_walls.len() > traced_passes.len();
        let mut layers = tracing.then(Layers::default);
        obs::set_enabled(tracing);
        let result = match layers.as_mut() {
            Some(l) => drained(l, || pass(&measured, &reference)),
            None => pass(&measured, &reference),
        };
        obs::set_enabled(false);
        let p = match result {
            Ok(p) => p,
            Err(e) => {
                eprintln!("explore_grid: pass failed: {e}");
                report.attempted += points;
                report.failed += points;
                break;
            }
        };
        report.attempted += p.latencies_ms.len() as u64;
        report.failed += p.mismatched;
        last_wall = p.latencies_ms.iter().sum::<f64>();
        if first.is_none() {
            first = Some(p.outcomes.clone());
        }
        match layers {
            Some(mut l) => {
                l.drain();
                traced_passes.push((last_wall, l, p));
            }
            None => {
                plain_walls.push(last_wall);
                for (times, &ms) in per_point.iter_mut().zip(&p.latencies_ms) {
                    times.push(ms);
                }
            }
        }
    }

    let first = first.unwrap_or_default();
    let n = first.len().max(1) as f64;
    // Ten points are too few for tail percentiles over raw timings: each
    // point's median time across passes is one sample.
    let timed: usize = per_point.iter().map(Vec::len).sum();
    let total_ms: f64 = per_point.iter().flatten().sum();
    let lat = summarize(&per_point.iter().map(|t| median(t)).collect::<Vec<_>>());
    report.figures = Figures::quality(
        first.iter().filter(|p| p.certified.is_certified()).count() as f64 / n,
        first.iter().filter(|p| p.schedulable).count() as f64 / n,
        mean(
            &first
                .iter()
                .map(|p| {
                    p.certified.exact_len().unwrap_or(p.worst_case).as_f64() / p.deadline.as_f64()
                })
                .collect::<Vec<_>>(),
        ),
    )
    .with("throughput_per_s", ratio(timed as f64, total_ms / 1e3))
    .with("latency_ms_p50", lat.p50)
    .with("latency_ms_p90", lat.p90)
    .with("miss_latency_ms_p50", lat.p50);
    let slowest =
        (0..lat.n).max_by(|&a, &b| median(&per_point[a]).total_cmp(&median(&per_point[b])));
    report.note(format!(
        "explore_grid: {points} points/pass, {timed} timed points, percentiles over {} \
         per-point medians, slowest {}",
        lat.n,
        slowest.map_or_else(String::new, |i| format!(
            "{} ({:?}) {:.1} ms",
            measured.points[i].label(),
            first.get(i).map(|p| p.certified),
            median(&per_point[i])
        )),
    ));

    if traced {
        let overhead = pct(
            median(&traced_passes.iter().map(|t| t.0).collect::<Vec<_>>()),
            median(&plain_walls),
        ) - 100.0;
        let per_pass: Vec<Figures> =
            traced_passes.iter().map(|(_, l, p)| layer_figures(l, p)).collect();
        report.figures.extend(
            Figures::median_of(&per_pass)
                .with("obs.trace_overhead_pct", overhead)
                .with("sched.evaluator_new_us", evaluator_new_us(&measured)),
        );
    }
    report
}

/// Runs `f` on a scoped thread while this thread drains the event stream
/// every 20 ms: a point's search and certification on one thread fill its
/// ring buffer long before the point ends.
fn drained<T: Send>(layers: &mut Layers, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let handle = s.spawn(f);
        while !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(20));
            layers.drain();
        }
        handle.join().expect("explore pass panicked")
    })
}

/// Splits each point's interval on its thread into the search phase (up to
/// the first certification) and the certification spans that follow.
fn layer_figures(l: &Layers, p: &Pass) -> Figures {
    let mut start_ns = None;
    let (mut wall, mut search, mut certify) = (0u64, 0u64, 0u64);
    for m in &l.marks {
        match m.name {
            trace::PASS_START | trace::RESUME => start_ns = Some(m.ts_ns),
            trace::POINT_DONE => {
                let Some(start) = start_ns.take() else { continue };
                let certs: Vec<_> = l
                    .roots
                    .iter()
                    .filter(|r| {
                        r.tid == m.tid
                            && r.name == names::CERTIFY
                            && r.start_ns >= start
                            && r.end_ns <= m.ts_ns
                    })
                    .collect();
                let first_cert = certs.iter().map(|r| r.start_ns).min().unwrap_or(m.ts_ns);
                wall += m.ts_ns - start;
                search += first_cert - start;
                certify += certs.iter().map(|r| r.end_ns - r.start_ns).sum::<u64>();
            }
            _ => {}
        }
    }
    let points = p.outcomes.len() as f64;
    let evals = p.outcomes.iter().fold(EvaluatorStats::default(), |a, o| a.merged(o.evals));
    let cache = p.outcomes.iter().fold(CacheStats::default(), |a, o| a.merged(o.cache));
    let (wall, search_ms) = (wall as f64, search as f64 / 1e6);
    Figures::default()
        .with_evaluator(&evals, points)
        .with_program_layers(l, points)
        .with("opt.optimize_ms", search_ms / points)
        .with("opt.ns_per_evaluation", ratio(search as f64, evals.evaluations() as f64))
        .with("explore.search_ms", search_ms / points)
        .with("explore.cache_hit_rate", cache.hit_rate())
        .with("explore.evals_per_search_s", ratio(evals.evaluations() as f64, search_ms / 1e3))
        .with("explore.certify_share", pct(certify as f64, wall))
        .with("trace.attributed_pct", pct((search + certify) as f64, wall))
        .with("trace.opt_share_pct", pct(search as f64, wall))
        .with("trace.certify_share_pct", pct(certify as f64, wall))
}

/// `SystemEvaluator::new` on each point's generated system (the same
/// generator and platform the suite builds), median of five per point.
fn evaluator_new_us(config: &SuiteConfig) -> f64 {
    let per_point: Vec<f64> = config
        .points
        .iter()
        .filter_map(|p| {
            let app =
                generate_application(&GeneratorConfig::new(p.processes, p.nodes), p.seed).ok()?;
            let platform = Platform::homogeneous(p.nodes, config.slot).ok()?;
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let started = Instant::now();
                    std::hint::black_box(SystemEvaluator::new(&app, &platform, p.k));
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            Some(median(&times))
        })
        .collect();
    mean(&per_point)
}
