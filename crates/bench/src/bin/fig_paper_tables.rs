//! Regenerates the paper's §6-style comparison tables from the pinned
//! scenario corpus: every member of every built-in family (master seed
//! [`ftes::gen::corpus::DEFAULT_CORPUS_SEED`]) is streamed through the
//! certify-guided synthesis flow ([`CertifyMode::Guided`]: incumbents are
//! incrementally certified *inside* the search and refuted states demoted
//! during search, so the post-hoc repair loop has almost nothing left to
//! do) by the corpus batch driver, then the aggregates the paper reports —
//! schedulability percentage, average certified schedule length, repair
//! rounds — are tabulated per family and per policy class (synthesis
//! strategy), and recorded to `BENCH_corpus.json` at the workspace root
//! (uploaded as a CI artifact per run, so the corpus-quality trajectory
//! is preserved).
//!
//! Run with: `cargo run --release -p ftes-bench --bin fig_paper_tables`

use ftes::corpus::{
    aggregate_by, run_corpus, write_group_json, CorpusJob, CorpusRunConfig, GroupAggregate,
};
use ftes::gen::corpus::{generate_corpus, Family, DEFAULT_CORPUS_SEED};
use ftes::json::JsonWriter;
use ftes::opt::CertifyMode;
use ftes::sched::CertificationCounters;
use ftes::FlowConfig;
use std::time::Instant;

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_corpus.json");

fn main() {
    let corpus = generate_corpus(&Family::ALL, DEFAULT_CORPUS_SEED)
        .expect("built-in families are non-degenerate");
    let jobs: Vec<CorpusJob> = corpus
        .iter()
        .map(|s| CorpusJob {
            name: s.file_name.clone(),
            family: s.family.name().to_string(),
            text: s.text.clone(),
        })
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "running the pinned corpus: {} specs, {} families, seed {}, {} workers",
        jobs.len(),
        Family::ALL.len(),
        DEFAULT_CORPUS_SEED,
        workers
    );
    let config = CorpusRunConfig {
        workers,
        flow: FlowConfig { certify: CertifyMode::Guided, ..FlowConfig::default() },
    };
    let started = Instant::now();
    let (outcome, _) = run_corpus(&jobs, &config, None, |i, row| {
        eprintln!(
            "  [{:>2}/{}] {:<24} certified={} exact={}",
            i + 1,
            jobs.len(),
            row.spec,
            row.certified,
            row.exact_len.map_or_else(|| "-".to_string(), |v| v.to_string()),
        );
    });
    let wall = started.elapsed();
    for (spec, message) in &outcome.errors {
        eprintln!("  ERROR {spec}: {message}");
    }

    let by_family = aggregate_by(&outcome.rows, |r| &r.family);
    let by_strategy = aggregate_by(&outcome.rows, |r| &r.strategy);

    println!("# Paper-style comparison tables — pinned corpus, seed {DEFAULT_CORPUS_SEED}");
    println!();
    print_table("family", &by_family);
    println!();
    print_table("policy class", &by_strategy);
    println!();
    println!(
        "{} specs in {} ms; certification totals: {} certified / {} refuted / {} estimate-only, \
         {} repair rounds, {} errors",
        outcome.rows.len(),
        wall.as_millis(),
        outcome.counters.certified,
        outcome.counters.refuted,
        outcome.counters.uncertifiable,
        outcome.counters.repair_rounds,
        outcome.errors.len(),
    );

    let body = render_report(
        outcome.rows.len(),
        &by_family,
        &by_strategy,
        &outcome.counters,
        outcome.errors.len(),
    );
    std::fs::write(REPORT_PATH, &body).expect("write BENCH_corpus.json");
    println!("wrote {REPORT_PATH}");
}

/// One §6-style comparison table: schedulability %, certified %, average
/// certified exact schedule length, repair rounds.
fn print_table(label: &str, groups: &[GroupAggregate]) {
    println!(
        "| {label:<12} | specs | schedulable % | certified % | avg certified length | repair rounds |"
    );
    println!(
        "|{}|------:|--------------:|------------:|---------------------:|--------------:|",
        "-".repeat(14)
    );
    for agg in groups {
        println!(
            "| {:<12} | {:>5} | {:>12.1}% | {:>10.1}% | {:>20} | {:>13} |",
            agg.name,
            agg.specs,
            agg.schedulable_pct(),
            agg.counters.certified_pct(),
            agg.avg_certified_exact_len.map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
            agg.counters.repair_rounds,
        );
    }
}

/// The machine-readable record: per-family and per-strategy groups plus
/// totals. Wall-clock deliberately excluded so equal corpora produce
/// equal records.
fn render_report(
    specs: usize,
    by_family: &[GroupAggregate],
    by_strategy: &[GroupAggregate],
    totals: &CertificationCounters,
    errors: usize,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("corpus_seed");
    w.number_u64(DEFAULT_CORPUS_SEED);
    w.key("specs");
    w.number_usize(specs);
    // Recorded so the CI re-check (and any human reading the artifact)
    // knows which flow produced these totals: guided mode is what keeps
    // repair_rounds near zero.
    w.key("certify_mode");
    w.string("guided");
    for (section, groups) in [("families", by_family), ("strategies", by_strategy)] {
        w.key(section);
        w.begin_array();
        for agg in groups {
            // The shared encoder keeps this record structurally identical
            // to the per-family objects in corpus_results.json.
            write_group_json(&mut w, agg);
        }
        w.end_array();
    }
    w.key("totals");
    w.begin_object();
    w.key("certified");
    w.number_u64(totals.certified);
    w.key("refuted");
    w.number_u64(totals.refuted);
    w.key("uncertifiable");
    w.number_u64(totals.uncertifiable);
    w.key("repair_rounds");
    w.number_u64(totals.repair_rounds);
    w.key("certified_pct");
    w.number_f64(totals.certified_pct(), 2);
    w.key("errors");
    w.number_usize(errors);
    w.end_object();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}
