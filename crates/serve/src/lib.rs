//! # ftes-serve
//!
//! Synthesis-as-a-service: a resident, concurrent front end for the FTES
//! synthesis flow. The CLI rebuilds all state per invocation; this crate
//! keeps a process warm and amortizes results across requests — the
//! service layer of the ROADMAP's "serves heavy traffic" north star.
//!
//! Everything is hand-rolled over `std` (the workspace is
//! dependency-free by necessity): an HTTP/1.1 subset on
//! `std::net::TcpListener`, an acceptor + worker thread pool, a bounded
//! job queue whose overflow answers `429` instead of queueing unbounded
//! latency, and a sharded LRU result cache keyed by a canonical hash of
//! the *parsed* request — two differently-formatted but equivalent `.ftes`
//! documents share one entry and receive byte-identical bodies.
//!
//! ## Endpoints
//!
//! | endpoint | body | reply |
//! |----------|------|-------|
//! | `POST /synthesize` | a `.ftes` document | schedule summary, policies, exact tables CSV |
//! | `POST /explore` | `key=value` grid parameters | `202` + job id (async suite run) |
//! | `POST /corpus/run` | `family=…` `seed=…` `workers=…` | `202` + job id (async corpus run) |
//! | `GET /corpus` | — | the built-in scenario-family catalog |
//! | `POST /jobs` | a `.ftes` document | `202` + job id (async synthesis) |
//! | `GET /jobs` | — | id-ordered job summaries |
//! | `GET /jobs/<id>` | — | state, progress rows, terminal result |
//! | `DELETE /jobs/<id>` | — | cancel at the next row boundary |
//! | `GET /healthz` | — | liveness + queue facts |
//! | `GET /metrics` | — | request counts, cache hit rate, queue + job-executor stats, p50/p90/p99 latency (overall and per endpoint) |
//! | `GET /metrics?format=prometheus` | — | the same snapshot in Prometheus text exposition format |
//!
//! Long-running work (`/explore`, `/corpus/run`, `POST /jobs`) goes
//! through a single journaled [`ftes_jobs::JobExecutor`]: submissions
//! return `202` immediately, progress streams into `GET /jobs/<id>` one
//! row at a time, and a `kill -9`'d daemon restarted on the same
//! `--journal` directory resumes incomplete jobs and replays completed
//! ones byte-identically. A full job queue answers `429` with a
//! `Retry-After` header and the current depth in the body.
//!
//! ## Determinism contract
//!
//! `/synthesize` bodies are pure functions of the parsed request: the
//! same spec produces the same bytes whether computed by any worker
//! thread or replayed from cache, and the embedded schedule tables are
//! byte-identical to the `ftes <spec> --csv` CLI output
//! (`tests/service.rs` locks both in). Job results inherit the same
//! contract: a completed `/explore` job's `result` is byte-identical to
//! `ftes explore --json`, and a `/corpus/run` job's CSV matches an
//! uninterrupted `ftes corpus run` — whether computed fresh, resumed
//! after a crash, or replayed from the journal.
//!
//! ## Example
//!
//! ```
//! use ftes_serve::{start, LoadConfig, run_load, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = start(ServeConfig::default())?;
//! let report = run_load(&LoadConfig {
//!     requests: 4,
//!     clients: 2,
//!     ..LoadConfig::against(server.addr().to_string())
//! })?;
//! assert_eq!(report.failed, 0);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod evalbank;
mod handlers;
pub mod http;
mod load;
mod metrics;
mod prometheus;
mod queue;
mod server;
mod sync;

pub use cache::{CacheKey, FlightGuard, Lookup, ResultCache};
pub use evalbank::{BankStats, EvaluatorBank};
pub use ftes_jobs::parse_explore_request;
pub use handlers::PROMETHEUS_CONTENT_TYPE;
pub use load::{
    default_spec_mix, read_response, read_response_full, request, run_load, EndpointDelta,
    JobsReport, LoadConfig, LoadReport,
};
pub use metrics::{Endpoint, EndpointLatency, Metrics, MetricsSnapshot, Phase, PhaseSnapshot};
pub use prometheus::{render_prometheus, validate_prometheus};
pub use queue::BoundedQueue;
pub use server::{start, ServeConfig, Server, Shared};
