//! Criterion bench for the evaluation kernel on `specs/mixed20.ftes`:
//! cold construct+evaluate vs reused-evaluator vs one move scored alone vs
//! a whole neighborhood scored in one batch — the regimes of the synthesis
//! hot loop. Every incremental number goes through the kernel's one
//! incremental path, `evaluate_changes` (a one-set call for a single
//! move), over change sets diffed from whole states once, outside the
//! timed loops, so the numbers time scoring alone.
//!
//! Besides the console medians, the run records its numbers to
//! `BENCH_estimate.json` at the workspace root, continuing the performance
//! trajectory of the estimator (CI uploads the file as an artifact and
//! fails the build if scoring a neighborhood in one batch ever costs more
//! per candidate than scoring it one candidate per call).

use criterion::{criterion_group, Criterion};
use ftes::ft::{Policy, PolicyAssignment};
use ftes::ftcpg::{ChangeSets, CopyMapping};
use ftes::json::JsonWriter;
use ftes::model::{Mapping, NodeId};
use ftes::sched::SystemEvaluator;
use ftes::spec::{parse_spec, SystemSpec};
use std::time::Instant;

const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/mixed20.ftes");
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_estimate.json");

struct Instance {
    spec: SystemSpec,
    mapping: Mapping,
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
    // A representative neighborhood move: remap the first movable process
    // to a different candidate node (the searches score such moves all day).
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
    Instance { spec, mapping, policies, copies, moved_copies }
}

/// One batch of change sets: each of `states` diffed against the
/// instance's base state.
fn change_sets<'p>(
    inst: &Instance,
    states: &[(&'p CopyMapping, &'p PolicyAssignment)],
) -> ChangeSets<'p> {
    let mut sets = ChangeSets::new();
    for &state in states {
        sets.push_diff(&inst.spec.app, (&inst.copies, &inst.policies), state);
    }
    sets
}

/// A deterministic `size`-candidate neighborhood of the instance's base
/// state: every movable (process, node) remap plus one replication
/// repolicy per process, cycled if `size` exceeds the distinct move count
/// — the same move vocabulary the search engines sample.
fn neighborhood(inst: &Instance, size: usize) -> Vec<(CopyMapping, PolicyAssignment)> {
    let app = &inst.spec.app;
    let arch = inst.spec.platform.architecture();
    let k = inst.spec.fault_model.k();
    let mut moves: Vec<(CopyMapping, PolicyAssignment)> = Vec::new();
    for (p, proc) in app.processes() {
        if proc.fixed_node().is_none() {
            for to in proc.candidate_nodes() {
                if to == inst.mapping.node_of(p) {
                    continue;
                }
                let Ok(m) = inst.mapping.with_move(app, arch, p, to) else { continue };
                let Ok(c) = CopyMapping::from_base(app, arch, &m, &inst.policies) else { continue };
                moves.push((c, inst.policies.clone()));
            }
        }
        let repolicy = Policy::replication(k);
        if *inst.policies.policy(p) != repolicy {
            let mut pols = inst.policies.clone();
            pols.set(p, repolicy);
            let Ok(c) = CopyMapping::from_base(app, arch, &inst.mapping, &pols) else { continue };
            moves.push((c, pols));
        }
    }
    assert!(!moves.is_empty(), "mixed20 must yield candidate moves");
    (0..size).map(|i| moves[i % moves.len()].clone()).collect()
}

fn bench_estimate_throughput(c: &mut Criterion) {
    let inst = instance();
    let k = inst.spec.fault_model.k();
    let mut group = c.benchmark_group("estimate_throughput");
    group.sample_size(40);

    group.bench_function("cold_construct_evaluate", |b| {
        b.iter(|| {
            SystemEvaluator::new(&inst.spec.app, &inst.spec.platform, k)
                .evaluate(&inst.copies, &inst.policies)
                .unwrap()
        })
    });

    let mut reused = SystemEvaluator::new(&inst.spec.app, &inst.spec.platform, k);
    group.bench_function("reused_evaluate", |b| {
        b.iter(|| reused.evaluate(&inst.copies, &inst.policies).unwrap())
    });

    let mut delta = SystemEvaluator::new(&inst.spec.app, &inst.spec.platform, k);
    delta.evaluate(&inst.copies, &inst.policies).unwrap();
    let moved = change_sets(&inst, &[(&inst.moved_copies, &inst.policies)]);
    group.bench_function("batch_evaluate_1", |b| b.iter(|| delta.evaluate_changes(&moved)));

    let neigh = neighborhood(&inst, 24);
    let refs: Vec<(&CopyMapping, &PolicyAssignment)> = neigh.iter().map(|(c, p)| (c, p)).collect();
    let sets = change_sets(&inst, &refs);
    let mut batch = SystemEvaluator::new(&inst.spec.app, &inst.spec.platform, k);
    batch.evaluate(&inst.copies, &inst.policies).unwrap();
    group.bench_function("batch_evaluate_24", |b| b.iter(|| batch.evaluate_changes(&sets)));
    group.finish();

    assert!(delta.stats().delta_evals > 0, "the bench move must exercise the delta fast path");
    assert!(batch.stats().delta_evals > 0, "the batch must exercise the delta fast path");
}

criterion_group!(benches, bench_estimate_throughput);

/// Median nanoseconds per call of each of `calls`, over `iters` rounds
/// that time one call of each in turn (after one warm-up round), so
/// machine-speed drift during the run hits every regime alike.
fn median_ns<const N: usize>(iters: usize, mut calls: [&mut dyn FnMut(); N]) -> [u64; N] {
    calls.iter_mut().for_each(|call| call());
    let mut samples = [(); N].map(|_| Vec::with_capacity(iters));
    for _ in 0..iters {
        for (call, samples) in calls.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            call();
            samples.push(start.elapsed().as_nanos() as u64);
        }
    }
    samples.map(|mut samples| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Re-measures the regimes and writes `BENCH_estimate.json`.
fn write_report() {
    let inst = instance();
    let k = inst.spec.fault_model.k();
    let (app, platform, copies, policies) =
        (&inst.spec.app, &inst.spec.platform, &inst.copies, &inst.policies);
    let iters = 300;

    // One fixed mid-schedule move scored alone (`delta_ns`) next to a
    // from-scratch kernel and a reused one, each timed in its own warm loop.
    let anchored = || {
        let mut kernel = SystemEvaluator::new(app, platform, k);
        kernel.evaluate(copies, policies).unwrap();
        kernel
    };
    let mut kernel = anchored();
    let moved = change_sets(&inst, &[(&inst.moved_copies, policies)]);
    let [cold] = median_ns(
        iters,
        [&mut || drop(SystemEvaluator::new(app, platform, k).evaluate(copies, policies))],
    );
    let [reused] = median_ns(iters, [&mut || drop(kernel.evaluate(copies, policies))]);
    let [delta] = median_ns(iters, [&mut || drop(kernel.evaluate_changes(&moved))]);
    // Guard the recorded number: if the move ever degenerated into the
    // noop/fallback path (e.g. the spec changed and the moved process now
    // sits at position 0), the timing above would not measure suffix
    // re-scheduling and must not be published as `delta_ns`.
    assert!(kernel.stats().delta_evals > 0, "the recorded move must exercise the delta fast path");
    assert!(kernel.evaluate_changes(&moved)[0].is_ok(), "the recorded move must score");

    // The batch path at neighborhood sizes 8, 24 and 64 (24 is the default
    // `SearchConfig::neighborhood`, the `batch_ns` headline number), on
    // kernels anchored at the base state: the search-loop regime of one
    // anchor and whole neighborhoods of change sets against it. Its
    // apples-to-apples baseline is the *same* 24 candidates scored as 24
    // one-candidate calls (`delta_ns` above is one fixed move — a different
    // workload from a whole neighborhood, whose candidates dirty the
    // schedule at every depth). The four are timed in alternation.
    let hoods = [8, 24, 64].map(|size| neighborhood(&inst, size));
    let refs = hoods.each_ref().map(|hood| {
        hood.iter().map(|(c, p)| (c, p)).collect::<Vec<(&CopyMapping, &PolicyAssignment)>>()
    });
    let [s8, s24, s64] = refs.each_ref().map(|refs| change_sets(&inst, refs));
    let singles: Vec<_> = refs[1].iter().map(|&state| change_sets(&inst, &[state])).collect();
    let mut kernels = [(); 4].map(|_| anchored());
    let [k8, k24, k64, single] = &mut kernels;
    let [batch8, batch24, batch64, seq] = median_ns(
        iters,
        [
            &mut || drop(k8.evaluate_changes(&s8)),
            &mut || drop(k24.evaluate_changes(&s24)),
            &mut || drop(k64.evaluate_changes(&s64)),
            &mut || singles.iter().for_each(|set| drop(single.evaluate_changes(set))),
        ],
    );
    let (batch8, batch24, batch64, seq) = (batch8 / 8, batch24 / 24, batch64 / 64, seq / 24);
    for kernel in &kernels {
        assert!(kernel.stats().delta_evals > 0, "the batch must exercise the delta fast path");
    }
    // One batch must never cost more per candidate than one call per
    // candidate over the same neighborhood (CI re-checks this from the
    // recorded fields; both sides are measured in the same process, in
    // alternation, so the comparison is robust to machine-speed drift).
    assert!(
        batch24 <= seq,
        "batch path ({batch24} ns/candidate) regressed below one-candidate calls ({seq} ns/candidate)"
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("estimate_throughput");
    w.key("spec");
    w.string("specs/mixed20.ftes");
    w.key("processes");
    w.number_usize(inst.spec.app.process_count());
    w.key("nodes");
    w.number_usize(inst.spec.platform.architecture().node_count());
    w.key("k");
    w.number_u64(k as u64);
    w.key("iters");
    w.number_usize(iters);
    w.key("cold_ns");
    w.number_u64(cold);
    w.key("reused_ns");
    w.number_u64(reused);
    w.key("delta_ns");
    w.number_u64(delta);
    w.key("seq_ns");
    w.number_u64(seq);
    w.key("batch8_ns");
    w.number_u64(batch8);
    w.key("batch_ns");
    w.number_u64(batch24);
    w.key("batch64_ns");
    w.number_u64(batch64);
    w.key("speedup_reused");
    w.number_f64(cold as f64 / reused.max(1) as f64, 2);
    w.key("speedup_delta");
    w.number_f64(cold as f64 / delta.max(1) as f64, 2);
    w.key("speedup_batch");
    w.number_f64(cold as f64 / batch24.max(1) as f64, 2);
    w.key("speedup_batch_vs_seq");
    w.number_f64(seq as f64 / batch24.max(1) as f64, 2);
    w.end_object();
    let mut body = w.finish();
    body.push('\n');
    std::fs::write(REPORT_PATH, &body).expect("write BENCH_estimate.json");
    println!("wrote {REPORT_PATH}");
    println!("{body}");
}

fn main() {
    benches();
    write_report();
}
