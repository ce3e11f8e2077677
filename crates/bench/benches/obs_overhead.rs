//! Criterion bench for the tracing instrumentation's overhead on the
//! synthesis hot path: one move scored as a one-set `evaluate_changes`
//! call on `specs/mixed20.ftes` (the `delta_ns` regime recorded in
//! `BENCH_estimate.json`; the change set is diffed once, outside the timed
//! loop) with the trace gate off and on.
//!
//! The disabled path of every span/counter is one relaxed atomic load
//! and a branch, so `disabled_ns` must stay within noise of the
//! `delta_ns` baseline (< 2%). The run records its numbers to
//! `BENCH_obs.json` at the workspace root (CI uploads it as an artifact
//! alongside `BENCH_estimate.json`).

use criterion::{criterion_group, Criterion};
use ftes::ft::PolicyAssignment;
use ftes::ftcpg::{ChangeSets, CopyMapping};
use ftes::json::JsonWriter;
use ftes::model::{Mapping, NodeId};
use ftes::sched::SystemEvaluator;
use ftes::spec::{parse_spec, SystemSpec};
use std::time::Instant;

const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/mixed20.ftes");
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_estimate.json");

struct Instance {
    spec: SystemSpec,
    policies: PolicyAssignment,
    copies: CopyMapping,
    moved_copies: CopyMapping,
}

fn instance() -> Instance {
    let text = std::fs::read_to_string(SPEC_PATH).expect("specs/mixed20.ftes exists");
    let spec = parse_spec(&text).expect("mixed20 parses");
    let arch = spec.platform.architecture();
    let mapping = Mapping::cheapest(&spec.app, arch).expect("mixed20 is mappable");
    let policies = PolicyAssignment::uniform_reexecution(&spec.app, spec.fault_model.k());
    let copies = CopyMapping::from_base(&spec.app, arch, &mapping, &policies).expect("feasible");
    let (p, to) = spec
        .app
        .processes()
        .find_map(|(p, proc)| {
            if proc.fixed_node().is_some() {
                return None;
            }
            let others: Vec<NodeId> =
                proc.candidate_nodes().filter(|&n| n != mapping.node_of(p)).collect();
            others.first().map(|&n| (p, n))
        })
        .expect("mixed20 has movable processes");
    let moved = mapping.with_move(&spec.app, arch, p, to).expect("candidate node");
    let moved_copies =
        CopyMapping::from_base(&spec.app, arch, &moved, &policies).expect("feasible");
    Instance { spec, policies, copies, moved_copies }
}

/// The moved state's change set against the base state.
fn moved(inst: &Instance) -> ChangeSets<'_> {
    let mut sets = ChangeSets::new();
    let base = (&inst.copies, &inst.policies);
    sets.push_diff(&inst.spec.app, base, (&inst.moved_copies, &inst.policies));
    sets
}

fn bench_obs_overhead(c: &mut Criterion) {
    let inst = instance();
    let k = inst.spec.fault_model.k();
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(40);

    let mut evaluator = SystemEvaluator::new(&inst.spec.app, &inst.spec.platform, k);
    evaluator.evaluate(&inst.copies, &inst.policies).unwrap();

    let moved = moved(&inst);
    ftes::obs::set_enabled(false);
    group.bench_function("batch_evaluate_1_tracing_disabled", |b| {
        b.iter(|| evaluator.evaluate_changes(&moved))
    });

    ftes::obs::set_enabled(true);
    group.bench_function("batch_evaluate_1_tracing_enabled", |b| {
        b.iter(|| evaluator.evaluate_changes(&moved))
    });
    ftes::obs::set_enabled(false);
    // Keep the rings from pinning a full buffer of bench events.
    ftes::obs::drain();
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);

/// Median nanoseconds per call over `iters` timed calls (one warm-up).
fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The `delta_ns` baseline out of `BENCH_estimate.json`, when present.
fn baseline_delta_ns() -> Option<u64> {
    let text = std::fs::read_to_string(BASELINE_PATH).ok()?;
    let json = ftes::obs::validate::parse_json(&text).ok()?;
    Some(json.get("delta_ns")?.as_num()? as u64)
}

/// Re-measures both gates and writes `BENCH_obs.json`.
fn write_report() {
    let inst = instance();
    let k = inst.spec.fault_model.k();
    let iters = 300;

    let mut evaluator = SystemEvaluator::new(&inst.spec.app, &inst.spec.platform, k);
    evaluator.evaluate(&inst.copies, &inst.policies).unwrap();

    let moved = moved(&inst);
    let mut score = || {
        evaluator.evaluate_changes(&moved).remove(0).unwrap();
    };
    ftes::obs::set_enabled(false);
    let disabled = median_ns(iters, &mut score);
    ftes::obs::set_enabled(true);
    let enabled = median_ns(iters, &mut score);
    ftes::obs::set_enabled(false);
    let captured = ftes::obs::drain().len();
    assert!(captured > 0, "the enabled run must actually capture events");
    assert!(
        evaluator.stats().delta_evals > 0,
        "the recorded move must exercise the delta fast path"
    );

    let baseline = baseline_delta_ns();
    let overhead_pct =
        baseline.map(|b| (disabled as f64 - b as f64) * 100.0 / b.max(1) as f64).unwrap_or(0.0);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("obs_overhead");
    w.key("spec");
    w.string("specs/mixed20.ftes");
    w.key("iters");
    w.number_usize(iters);
    w.key("disabled_ns");
    w.number_u64(disabled);
    w.key("enabled_ns");
    w.number_u64(enabled);
    w.key("baseline_delta_ns");
    w.number_u64(baseline.unwrap_or(0));
    w.key("overhead_pct_vs_baseline");
    w.number_f64(overhead_pct, 2);
    w.key("enabled_overhead_pct");
    w.number_f64((enabled as f64 - disabled as f64) * 100.0 / disabled.max(1) as f64, 2);
    w.end_object();
    let mut body = w.finish();
    body.push('\n');
    std::fs::write(REPORT_PATH, &body).expect("write BENCH_obs.json");
    println!("wrote {REPORT_PATH}");
    println!("{body}");
}

fn main() {
    benches();
    write_report();
}
