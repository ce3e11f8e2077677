//! The span and counter taxonomy.
//!
//! Every instrumented site in the workspace names its events from this one
//! module, so traces from different entry points (CLI synthesis, explore
//! suites, corpus jobs, the serve daemon) speak the same vocabulary and the
//! docs (`docs/observability.md`) can enumerate it exhaustively. Names are
//! `&'static str` so recording an event stores a pointer, not bytes.
//!
//! Dotted prefixes group related events: `search.*` for per-iteration
//! search introspection, `certify.*` for the exact-certification pipeline,
//! `eval.*` for the estimator kernel, `job.*`/`journal.*` for the job
//! subsystem and `serve.*` for the daemon.

// ---- synthesis flow spans (nested: parse > synthesize > optimize, with
// certify/cpg/schedule nested under the search wherever the certifier runs)

/// Spec text → application + platform model.
pub const PARSE: &str = "parse";
/// The whole synthesis flow for one spec (search + certification).
pub const SYNTHESIZE: &str = "synthesize";
/// Design-space search: the flow's search phase, or one explore point's
/// portfolio search.
pub const OPTIMIZE: &str = "optimize";
/// One exact certification of a candidate (memoized; see `certify.memo_hit`).
pub const CERTIFY: &str = "certify";
/// FT-CPG construction (or the size bound that answers an over-budget
/// graph without building it).
pub const CPG: &str = "cpg";
/// Exact conditional scheduling of the built FT-CPG.
pub const SCHEDULE: &str = "schedule";

// ---- search iteration counters (one event per decision, recorded from
// the inner loop — cheap: the disabled path is a load-and-branch)

/// A search iteration finished (any strategy).
pub const SEARCH_ITER: &str = "search.iter";
/// The iteration's best move was accepted (incumbent or aspiration).
pub const SEARCH_ACCEPT: &str = "search.accept";
/// The iteration's best move was rejected / only diversified.
pub const SEARCH_REJECT: &str = "search.reject";

// ---- portfolio round phases: nanoseconds per phase summed over an
// explore() run's workers, emitted once when the run ends (counted only
// while tracing is on)

/// Moving each worker's kernel anchor: walked moves' commits and, after an
/// adoption, full passes.
pub const SEARCH_ANCHOR_NS: &str = "search.anchor_ns";
/// Sampling neighborhood moves.
pub const SEARCH_SAMPLE_NS: &str = "search.sample_ns";
/// Keying each move's successor state.
pub const SEARCH_KEY_NS: &str = "search.key_ns";
/// Deriving each sampled move's change set.
pub const SEARCH_DERIVE_NS: &str = "search.derive_ns";
/// The kernels' `evaluate_changes` passes.
pub const SEARCH_KERNEL_NS: &str = "search.kernel_ns";
/// Pareto-archive offers, with the entries they build.
pub const SEARCH_ARCHIVE_NS: &str = "search.archive_ns";
/// Acceptance steps, with the kept states they build.
pub const SEARCH_ACCEPT_NS: &str = "search.accept_ns";
/// A certify-and-repair round ran after the search refuted an estimate.
pub const REPAIR_ROUND: &str = "certify.repair_round";
/// Certification answered from the verdict memo instead of scheduling.
pub const CERTIFY_MEMO_HIT: &str = "certify.memo_hit";
/// An uncached certification rebuilt its FT-CPG incrementally from the
/// certifier's anchor (prefix restored, only dirty subgraphs rebuilt).
pub const CERTIFY_INCREMENTAL: &str = "certify.incremental";
/// A bounded certification refuted early: a placed node already exceeds
/// the bound, so the remaining scenarios were never scheduled.
pub const CERTIFY_PRUNE: &str = "certify.prune";
/// A replica-join worst-case delivery was answered from the fault-scenario
/// subtree memo instead of being recomputed.
pub const CERTIFY_SUBTREE_HIT: &str = "certify.subtree_hit";
/// An uncached certification's FT-CPG came back over the node budget, so
/// nothing was scheduled (the verdict is estimate-only).
pub const CERTIFY_OVERBUDGET: &str = "certify.overbudget";

// ---- estimator kernel counters (the neighborhood-scoring hot path)

/// Incremental (suffix-only) evaluation scored a candidate.
pub const EVAL_DELTA: &str = "eval.delta";
/// A candidate was scored by a full pass instead of a suffix.
pub const EVAL_FALLBACK: &str = "eval.fallback";
/// An anchoring full evaluation ran (`SystemEvaluator::evaluate`).
pub const EVAL_FULL: &str = "eval.full";
/// One neighborhood-scoring call ran: `SystemEvaluator::evaluate_changes`,
/// directly or through its full-state front end `evaluate_batch`, for one
/// candidate or many.
pub const EVAL_BATCH: &str = "eval.batch";
/// Candidates scored by a batched evaluation (counter delta per batch).
pub const EVAL_BATCH_CANDIDATES: &str = "eval.batch_candidates";

// ---- job lifecycle (`ftes-jobs`): queued → running → row* → terminal

/// A job was accepted into the bounded queue.
pub const JOB_QUEUED: &str = "job.queued";
/// A worker picked the job up (span: covers the whole run).
pub const JOB_RUN: &str = "job.run";
/// The job streamed one result row.
pub const JOB_ROW: &str = "job.row";
/// The job reached a terminal state (done / failed / cancelled).
pub const JOB_TERMINAL: &str = "job.terminal";
/// One journal append, frame + flush (span; see also `journal.bytes`).
pub const JOURNAL_APPEND: &str = "journal.append";
/// Bytes appended to the journal (counter delta per append).
pub const JOURNAL_BYTES: &str = "journal.bytes";

// ---- serve daemon

/// One HTTP request, read → route → write (span, worker thread).
pub const SERVE_REQUEST: &str = "serve.request";

// ---- derived groups

/// The names every traced end-to-end synthesis must emit, in pipeline
/// order. CI's `check_trace --pipeline` gate asserts exactly this list,
/// so the gate and the taxonomy cannot drift apart: adding a pipeline
/// stage here tightens CI in the same commit.
pub const SYNTHESIS_PIPELINE: &[&str] =
    &[PARSE, SYNTHESIZE, OPTIMIZE, CERTIFY, CPG, SCHEDULE, SEARCH_ITER, EVAL_DELTA, EVAL_BATCH];
