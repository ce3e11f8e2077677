//! # ftes-explore
//!
//! Parallel design-space exploration for the FTES synthesis flow — the
//! scale layer over `ftes-opt`'s serial searches.
//!
//! The paper's §6 synthesis evaluates one candidate `(mapping, policy)`
//! state at a time; the 100-process / k = 7 experiment grid is therefore
//! bounded by single-core estimator throughput. This crate lifts that
//! limit with three cooperating pieces:
//!
//! * **Change-set neighborhood scoring** — a search iteration samples its
//!   whole neighborhood first as moves (via the move primitives `ftes-opt`
//!   exposes), keys each by the state it leads to without building that
//!   state ([`StateKey`], a canonical, collision-free encoding patched from
//!   the current state's key in time proportional to the move), derives
//!   every move's change set (`Move::derive`) and scores all of them in
//!   one `SystemEvaluator::evaluate_changes` pass over the worker's own
//!   kernel, anchored at its current state — the path the serial
//!   `ftes-opt` search takes. The kernel follows an accepted move by
//!   committing its change set (`SystemEvaluator::commit`). Workers
//!   parallelize above it through `ftes_model::par::ordered_parallel`.
//! * **Pareto archive** ([`ParetoArchive`]) — every visited candidate is
//!   offered to an order-independent non-dominated archive over the §3.3
//!   trade-off (worst-case length, recovery slack, schedule-table size),
//!   so one run yields the whole front.
//! * **Portfolio of diversified searchers** ([`explore`]) — tabu /
//!   simulated-annealing / greedy workers ([`EngineKind`]) with distinct
//!   seeds and tunables run concurrently, sharing incumbents at
//!   deterministic round barriers (and, in certify-guided mode, admit
//!   verdicts through a [`CertifyCache`]). Each worker steps `ftes-opt`'s
//!   `Acceptance`, the one definition of the three engines' acceptance
//!   rules the serial search uses too.
//!
//! A [scenario-suite runner](run_suite) sweeps the §6 experiment grid
//! ([`paper_grid`]: 20–100 processes, 2–6 nodes, k = 3–7) with
//! deterministic per-point seeds and renders [CSV](suite_to_csv) /
//! [JSON](suite_to_json) reports.
//!
//! ## Determinism contract
//!
//! For a fixed configuration (seed included), [`explore`] and
//! [`run_suite`] return identical incumbents and identical Pareto
//! archives for **any** `threads` / `point_parallelism` values. Worker
//! trajectories never depend on thread interleaving: each worker scores
//! on its own kernel, the admit cache only memoizes pure functions,
//! archives are order-independent sets, and all cross-worker
//! communication happens at round barriers with canonical (`StateKey`)
//! tie-breaks. So the workers' kernel counters ([`PointOutcome::evals`])
//! do not depend on the split either, while the admit-cache hit/miss
//! counters ([`PointOutcome::certify_cache`]) do. The rendered reports are
//! byte-identical for any split: they carry no wall clocks, no
//! evaluator-kernel work counters and no memo hit/miss counters.
//!
//! ## Example
//!
//! ```
//! use ftes_explore::{explore, PortfolioConfig};
//! use ftes_gen::{generate_application, GeneratorConfig};
//! use ftes_model::Time;
//! use ftes_tdma::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = generate_application(&GeneratorConfig::new(12, 3), 1)?;
//! let platform = Platform::homogeneous(3, Time::new(8))?;
//! let config = PortfolioConfig::quick(42);
//! let result = explore(&app, &platform, 2, &config)?;
//! assert!(result.best.estimate.worst_case_length >= result.best.estimate.fault_free_length);
//! assert!(!result.archive.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archive;
mod cache;
mod portfolio;
mod report;
mod suite;

pub use archive::{table_cost, ArchiveEntry, Objectives, ParetoArchive};
pub use cache::{fnv1a64, CacheStats, CertifyCache, StateCache, StateKey};
pub use ftes_opt::EngineKind;
pub use portfolio::{
    default_portfolio, explore, Exploration, ExploreError, PortfolioConfig, WorkerSpec,
};
pub use report::{suite_to_csv, suite_to_json};
pub use suite::{
    paper_grid, run_suite, run_suite_streaming, CertifyVerdict, PointOutcome, ScenarioPoint,
    SuiteConfig, SuiteOutcome, VerifyConfig, VerifyOutcome,
};
