//! The repository benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, outputs checked for correctness.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|explore_grid|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures with tracing off and reports the end-to-end
//! metrics; `--trace 1` makes the separate traced run and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `DESIGN.md` records
//! why each workload exists and which layer should move which metric.

mod corpus;
mod explore;
mod serve;
mod stats;
mod trace;

use stats::{median, ratio, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Layers;

/// End-to-end metrics, reported by every workload (`--trace 0`). The
/// certified share is a per-layer figure: the paper grid ships no certified
/// point (its FT-CPGs exceed the budget), and an end-to-end metric is never 0.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("miss_latency_ms_p50", "ms"),
    ("schedulable_pct", "%"),
    ("wcl_over_deadline", "ratio"),
];

/// Per-layer metrics (`--trace 1`). Per-item figures are per synthesized
/// item: a spec (`corpus`), a grid point (`explore_grid`) or a cache-missing
/// request (`serve_mix`). A layer a workload does not reach reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("spec.parse_us", "us"),
    ("sched.evaluator_new_us", "us"),
    ("sched.evaluations", "count/item"),
    ("sched.delta_share", "ratio"),
    ("sched.fallbacks", "count/item"),
    ("sched.batch_candidates", "count/item"),
    ("opt.optimize_ms", "ms/item"),
    ("opt.ns_per_evaluation", "ns"),
    ("opt.search_iters", "count/item"),
    ("opt.accept_ratio", "ratio"),
    ("opt.repair_rounds", "count/item"),
    ("certify.certified_pct", "%"),
    ("certify.ms", "ms/item"),
    ("certify.requests", "count/item"),
    ("certify.memo_hits", "count/item"),
    ("certify.incremental_builds", "count/item"),
    ("certify.pruned", "count/item"),
    ("certify.subtree_hits", "count/item"),
    ("certify.overbudget", "count/item"),
    ("ftcpg.cpg_ms", "ms/item"),
    ("ftcpg.overbudget_cpg_ms", "ms/item"),
    ("sched.schedule_ms", "ms/item"),
    ("explore.search_ms", "ms/item"),
    ("explore.cache_hit_rate", "ratio"),
    ("explore.evals_per_search_s", "1/s"),
    ("explore.certify_share", "%"),
    ("serve.server_p50_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.bank_hit_rate", "ratio"),
    ("serve.phase_optimize_ms", "ms/item"),
    ("serve.rejected_429", "count"),
    ("serve.transport_us", "us"),
    ("serve.gen_late_ms_p99", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.dropped_events", "count"),
    ("trace.attributed_pct", "%"),
    ("trace.opt_share_pct", "%"),
    ("trace.certify_share_pct", "%"),
    ("sim.replayed", "count"),
    ("sim.verify_ms", "ms"),
];

/// Named metric values a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Figures(BTreeMap<&'static str, f64>);

impl Figures {
    pub fn with(mut self, name: &'static str, value: f64) -> Figures {
        self.0.insert(name, value);
        self
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every figure of `other`.
    pub fn extend(&mut self, other: Figures) {
        self.0.extend(other.0);
    }

    /// The design-quality figures; fractions in `[0, 1]` become percentages.
    pub fn quality(certified: f64, schedulable: f64, wcl_over_deadline: f64) -> Figures {
        Figures::default()
            .with("certify.certified_pct", 100.0 * certified)
            .with("schedulable_pct", 100.0 * schedulable)
            .with("wcl_over_deadline", wcl_over_deadline)
    }

    /// Per-name median over several measurements of the same figures.
    pub fn median_of(all: &[Figures]) -> Figures {
        let mut out = Figures::default();
        for name in all.iter().flat_map(|f| f.0.keys()) {
            out.0.insert(name, median(&all.iter().map(|f| f.get(name)).collect::<Vec<_>>()));
        }
        out
    }

    /// Evaluator-kernel counters (`EvaluatorStats`) per item.
    pub fn with_evaluator(self, s: &ftes::sched::EvaluatorStats, items: f64) -> Figures {
        let evaluations = s.evaluations() as f64;
        self.with("sched.evaluations", ratio(evaluations, items))
            .with("sched.delta_share", ratio(s.delta_evals as f64, evaluations))
            .with("sched.fallbacks", ratio(s.delta_fallbacks as f64, items))
            .with("sched.batch_candidates", ratio(s.batch_candidates as f64, items))
    }

    /// Search, certifier, FT-CPG and conditional-scheduler figures from the
    /// program's own spans and counters, per item.
    pub fn with_program_layers(self, l: &Layers, items: f64) -> Figures {
        use ftes::obs::names;
        let accepts = l.counter(names::SEARCH_ACCEPT);
        let per_item = |v: f64| ratio(v, items);
        self.with("opt.search_iters", per_item(l.counter(names::SEARCH_ITER)))
            .with("opt.accept_ratio", ratio(accepts, accepts + l.counter(names::SEARCH_REJECT)))
            .with("opt.repair_rounds", per_item(l.counter(names::REPAIR_ROUND)))
            .with("certify.ms", per_item(l.total_ms(names::CERTIFY)))
            .with("certify.requests", per_item(l.spans(names::CERTIFY)))
            .with("certify.memo_hits", per_item(l.counter(names::CERTIFY_MEMO_HIT)))
            .with("certify.incremental_builds", per_item(l.counter(names::CERTIFY_INCREMENTAL)))
            .with("certify.pruned", per_item(l.counter(names::CERTIFY_PRUNE)))
            .with("certify.subtree_hits", per_item(l.counter(names::CERTIFY_SUBTREE_HIT)))
            .with("certify.overbudget", per_item(l.overbudget as f64))
            .with("ftcpg.cpg_ms", per_item(l.total_ms(names::CPG)))
            .with("ftcpg.overbudget_cpg_ms", per_item(l.overbudget_cpg_ns as f64 / 1e6))
            .with("sched.schedule_ms", per_item(l.total_ms(names::SCHEDULE)))
    }
}

/// What one workload run measured.
pub struct Report {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end and per-layer figures; `main` reports the set asked for.
    pub figures: Figures,
    notes: Vec<String>,
}

impl Report {
    pub fn new(setup_s: f64) -> Report {
        Report { setup_s, attempted: 0, failed: 0, figures: Figures::default(), notes: Vec::new() }
    }

    /// A line for the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number `{value}`"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "corpus" => corpus::run(args.seed, args.seconds, args.trace),
        "explore_grid" => explore::run(args.seed, args.seconds, args.trace),
        "serve_mix" => match serve::run(args.seed, args.seconds, args.trace) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: serve_mix: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("error: unknown workload `{other}` (corpus|explore_grid|serve_mix)");
            return ExitCode::from(2);
        }
    };
    report.figures.extend(
        Figures::default()
            .with("setup_s", report.setup_s)
            .with("obs.dropped_events", ftes::obs::dropped_events() as f64),
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = names
        .iter()
        .map(|&(name, unit)| Metric::new(name, report.figures.get(name), unit))
        .collect();
    println!("workload {} seed {} seconds {}", args.workload, args.seed, args.seconds);
    for line in &report.notes {
        println!("  {line}");
    }
    println!(
        "  failed_pct = {} % ({} of {} operations)",
        stats::pct(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    for m in &metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", stats::result_json(report.attempted.max(1), report.failed, &metrics));
    ExitCode::SUCCESS
}
