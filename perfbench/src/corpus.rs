//! `corpus`: the scenario corpus, parsed and synthesized one spec after
//! another on one thread with the default flow and each spec's strategy —
//! what a designer pays per spec where every FT-CPG fits the budget.

use crate::stats::{mean, median, pct, ratio, summarize};
use crate::trace::{self, Layers};
use crate::{Figures, Report};
use ftes::gen::corpus::{generate_corpus, Family};
use ftes::obs::{self, names};
use ftes::sched::{EvaluatorStats, SystemEvaluator};
use ftes::sim::{verify_exhaustive, SimError};
use ftes::spec::{parse_spec, SystemSpec};
use ftes::{synthesize_system_timed, Certification, FlowConfig, FlowTimings, SystemConfiguration};
use std::time::{Duration, Instant};

/// Corpora per run, each 25 specs (five per family) from its own master
/// seed: more draws per run keep the mix, and so every figure, steady
/// across seeds.
const CORPORA: u64 = 32;
/// Set-up repetitions; `setup_s` is their median. One set-up takes a few
/// milliseconds, so a handful of repetitions would still time the clock
/// ramp right after process start.
const SETUPS: usize = 21;
/// Scenario budget of the exhaustive replay oracle; larger spaces are not
/// replayed (and not counted in `sim.replayed`).
const REPLAY_LIMIT: usize = 200_000;

pub struct Spec {
    pub name: String,
    pub text: String,
}

/// `corpora` scenario corpora (25 specs each, five per family), each from
/// its own master seed derived from `seed`.
pub fn inputs(seed: u64, corpora: u64) -> Vec<Spec> {
    (0..corpora)
        .flat_map(|j| {
            generate_corpus(&Family::ALL, seed.wrapping_mul(corpora).wrapping_add(j))
                .expect("the built-in corpus families always generate")
        })
        .map(|c| Spec { name: c.file_name, text: c.text })
        .collect()
}

struct Outcome {
    spec: SystemSpec,
    psi: SystemConfiguration,
    timings: FlowTimings,
    evals: EvaluatorStats,
}

/// One spec through the three public entry points, each in a bench span.
fn synthesize(text: &str) -> Result<Outcome, String> {
    let spec = {
        let _span = obs::span(trace::PARSE);
        parse_spec(text).map_err(|e| format!("parse: {e}"))?
    };
    let mut evaluator = {
        let _span = obs::span(trace::EVALUATOR_NEW);
        SystemEvaluator::new(&spec.app, &spec.platform, spec.fault_model.k())
    };
    let config = FlowConfig { strategy: spec.strategy, ..FlowConfig::default() };
    let (psi, timings) = {
        let _span = obs::span(trace::FLOW);
        synthesize_system_timed(&mut evaluator, spec.fault_model, &spec.transparency, config)
            .map_err(|e| format!("synthesis: {e}"))?
    };
    Ok(Outcome { spec, psi, timings, evals: evaluator.stats() })
}

/// The deterministic part of a result: what must repeat on every pass.
fn row(psi: &SystemConfiguration) -> String {
    format!(
        "{:?} wcl={} est={} sched={} repair={} calib={}",
        psi.certification,
        psi.worst_case_length().units(),
        psi.estimate.worst_case_length.units(),
        psi.schedulable,
        psi.repair_rounds,
        psi.calibration_milli
    )
}

/// One full pass; `layers` set = traced (drained after every spec, outside
/// the timed region).
struct Pass {
    latencies_ms: Vec<f64>,
    rows: Vec<Option<String>>,
    outcomes: Vec<Outcome>,
    /// Summed `FlowTimings::optimize`: search time with certification excluded.
    optimize: Duration,
    evals: EvaluatorStats,
}

fn pass(specs: &[Spec], stop: Option<Instant>, mut layers: Option<&mut Layers>) -> Pass {
    let mut p = Pass {
        latencies_ms: Vec::with_capacity(specs.len()),
        rows: Vec::with_capacity(specs.len()),
        outcomes: Vec::new(),
        optimize: Duration::ZERO,
        evals: EvaluatorStats::default(),
    };
    for (id, spec) in specs.iter().enumerate() {
        if stop.is_some_and(|s| Instant::now() >= s) {
            break;
        }
        let started = Instant::now();
        let result = {
            let _span = obs::span(trace::ITEM);
            obs::counter(trace::ITEM_ID, id as u64);
            synthesize(&spec.text)
        };
        p.latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Some(l) = layers.as_deref_mut() {
            l.drain();
        }
        match result {
            Ok(o) => {
                p.rows.push(Some(row(&o.psi)));
                p.optimize += o.timings.optimize;
                p.evals = p.evals.merged(o.evals);
                p.outcomes.push(o);
            }
            Err(e) => {
                eprintln!("corpus: {}: {e}", spec.name);
                p.rows.push(None);
            }
        }
    }
    p
}

/// Rows that failed or differ from the first pass.
fn mismatches(first: &[Option<String>], rows: &[Option<String>]) -> u64 {
    rows.iter().zip(first).filter(|(r, f)| r.is_none() || r != f).count() as u64
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut specs = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        specs = inputs(seed, CORPORA);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut report = Report::new(median(&setups));
    let window = Duration::from_secs(seconds);

    // Pass 0 is the untimed warm-up and the reference every later pass must
    // repeat, and the source of the quality figures and of the replay
    // oracle's inputs.
    let first = pass(&specs, None, None);
    let mut per_spec: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut timed = 0usize;
    let mut attempted = specs.len() as u64;
    let mut failed = first.rows.iter().filter(|r| r.is_none()).count() as u64;
    let mut traced_passes: Vec<(f64, Layers, Pass)> = Vec::new();
    let mut plain_walls: Vec<f64> = Vec::new();
    // A traced run alternates plain and traced full passes, so the two
    // sides see the same machine state and their walls give the overhead.
    let started = Instant::now();
    while started.elapsed() < window
        || plain_walls.is_empty()
        || (traced && traced_passes.is_empty())
    {
        let mut layers = (traced && plain_walls.len() > traced_passes.len()).then(Layers::default);
        obs::set_enabled(layers.is_some());
        let p = pass(&specs, (!traced).then(|| started + window), layers.as_mut());
        obs::set_enabled(false);
        attempted += p.rows.len() as u64;
        failed += mismatches(&first.rows, &p.rows);
        let wall = p.latencies_ms.iter().sum::<f64>();
        match layers {
            Some(mut l) => {
                l.drain();
                traced_passes.push((wall, l, p));
            }
            None => {
                plain_walls.push(wall);
                timed += p.latencies_ms.len();
                for (times, &ms) in per_spec.iter_mut().zip(&p.latencies_ms) {
                    times.push(ms);
                }
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    // The oracle: replay every certified verdict of pass 0, untimed.
    let replay_started = Instant::now();
    let mut replayed = 0u64;
    for o in &first.outcomes {
        let (Certification::Certified { .. }, Some(exact)) = (o.psi.certification, &o.psi.exact)
        else {
            continue;
        };
        match verify_exhaustive(
            &o.spec.app,
            &exact.cpg,
            &exact.schedule,
            &o.spec.transparency,
            REPLAY_LIMIT,
        ) {
            Ok(v) if v.is_sound() => replayed += 1,
            Ok(v) => {
                eprintln!("corpus: certified verdict replays unsound: {:?}", v.violations.first());
                replayed += 1;
                failed += 1;
            }
            Err(SimError::TooManyScenarios(_)) => {}
            Err(e) => {
                eprintln!("corpus: replay failed: {e}");
                failed += 1;
            }
        }
    }
    let verify_ms = replay_started.elapsed().as_secs_f64() * 1e3;
    report.attempted = attempted;
    report.failed = failed;

    let n = first.outcomes.len().max(1) as f64;
    // Each spec's median over the timed passes is one sample, so a pause
    // that hits one pass does not reach the percentiles.
    let lat = summarize(
        &per_spec.iter().filter(|t| !t.is_empty()).map(|t| median(t)).collect::<Vec<_>>(),
    );
    let quality = Figures::quality(
        first.outcomes.iter().filter(|o| o.psi.certification.is_certified()).count() as f64 / n,
        first.outcomes.iter().filter(|o| o.psi.schedulable).count() as f64 / n,
        mean(
            &first
                .outcomes
                .iter()
                .map(|o| o.psi.worst_case_length().as_f64() / o.spec.app.deadline().as_f64())
                .collect::<Vec<_>>(),
        ),
    );
    report.figures = quality
        .with("throughput_per_s", timed as f64 / wall_s)
        .with("latency_ms_p50", lat.p50)
        .with("latency_ms_p90", lat.p90)
        .with("miss_latency_ms_p50", lat.p50);
    report.note(format!(
        "corpus: {} specs/pass, {timed} timed specs, percentiles over {} per-spec medians, \
         p{} = {:.3} ms",
        specs.len(),
        lat.n,
        lat.tail_pct,
        lat.tail
    ));

    if traced {
        let overhead = pct(
            median(&traced_passes.iter().map(|t| t.0).collect::<Vec<_>>()),
            median(&plain_walls),
        ) - 100.0;
        let per_pass: Vec<Figures> = traced_passes
            .iter()
            .map(|(wall_ms, l, p)| layer_figures(*wall_ms, l, p, specs.len()))
            .collect();
        report.figures.extend(
            Figures::median_of(&per_pass)
                .with("obs.trace_overhead_pct", overhead)
                .with("sim.replayed", replayed as f64)
                .with("sim.verify_ms", verify_ms),
        );
    }
    report
}

fn layer_figures(wall_ms: f64, l: &Layers, p: &Pass, items: usize) -> Figures {
    let items = items as f64;
    let evals = p.evals.evaluations() as f64;
    let optimize_ms = p.optimize.as_secs_f64() * 1e3;
    let covered = l.total_ms(trace::ITEM) - l.self_ms(trace::ITEM);
    Figures::default()
        .with("spec.parse_us", 1e3 * ratio(l.total_ms(trace::PARSE), l.spans(trace::PARSE)))
        .with(
            "sched.evaluator_new_us",
            1e3 * ratio(l.total_ms(trace::EVALUATOR_NEW), l.spans(trace::EVALUATOR_NEW)),
        )
        .with_evaluator(&p.evals, items)
        .with("opt.optimize_ms", optimize_ms / items)
        .with("opt.ns_per_evaluation", 1e6 * ratio(optimize_ms, evals))
        .with_program_layers(l, items)
        .with("trace.attributed_pct", pct(covered, wall_ms))
        .with("trace.opt_share_pct", pct(optimize_ms, wall_ms))
        .with("trace.certify_share_pct", pct(l.total_ms(names::CERTIFY), wall_ms))
}
