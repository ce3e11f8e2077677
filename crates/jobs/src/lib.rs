//! Crash-safe streaming job subsystem for the fault-tolerant synthesis
//! flows.
//!
//! One executor, three drivers: the serve daemon's job endpoints, the
//! `ftes corpus run` CLI and the explore suite runner all execute
//! through the same [`JobExecutor`] over the same typed [`JobRequest`]s
//! (`Synthesize`, `ExploreSuite`, `CorpusRun`), so progress-row
//! streaming, cancellation and resume behave identically no matter who
//! drives.
//!
//! ## Crash-safety invariant
//!
//! Every observable state transition — acceptance, each progress row,
//! the terminal result — is appended to a length-prefixed, checksummed
//! [`Journal`] *before* it becomes visible, and flushed per record.
//! Opening a journal recovers the longest valid record prefix (a torn
//! tail from `kill -9` is truncated, never parsed). On restart, terminal
//! jobs replay their results byte-identically and unfinished jobs
//! re-enqueue with their journaled rows as the resume watermark, so a
//! resumed deterministic job produces exactly the bytes an uninterrupted
//! run would have.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod executor;
mod journal;
mod request;

pub use driver::{
    corpus_result_json, drive_corpus, drive_suite, execute_request, point_row, render_synthesis,
    CorpusDriveOutcome, JobInterrupt,
};
pub use executor::{
    ExecutorStats, JobExecutor, JobExecutorConfig, JobSnapshot, JobState, JobSummary, SubmitError,
};
pub use journal::{Journal, JournalRecord, TerminalStatus, JOURNAL_MAGIC};
pub use request::{limits, parse_explore_request, JobKind, JobRequest};
