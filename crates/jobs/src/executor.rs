//! The crash-safe job executor: a bounded, cancellable queue of typed
//! jobs drained by worker threads, with every state transition journaled.
//!
//! ## Lifecycle of a job
//!
//! [`submit`](JobExecutor::submit) validates the request, journals an
//! acceptance record and enqueues the job (`Queued`). A worker claims it
//! (`Running`) and streams its progress rows — each row is journaled
//! *before* it becomes visible in [`status`](JobExecutor::status), so the
//! on-disk watermark never trails the observable one. The terminal
//! transition (`Completed` / `Failed` / `Cancelled`) journals the
//! rendered result (or error) in the same record.
//!
//! ## Crash recovery
//!
//! [`JobExecutor::new`] with a journal directory replays the journal:
//! terminal jobs are restored verbatim (their results replay
//! byte-identically — the `replayed` counter), and accepted-but-
//! unfinished jobs re-enqueue with their journaled rows as the resume
//! watermark (the `resumed` counter). A daemon killed with `kill -9`
//! mid-job therefore finishes that job on restart, and deterministic
//! results (corpus runs) come out byte-identical to an uninterrupted
//! run — pinned by tests here and by the CI kill-resume smoke.

use crate::driver::{execute_request, JobInterrupt};
use crate::journal::{Journal, JournalRecord, TerminalStatus};
use crate::request::{JobKind, JobRequest};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Tunables of the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobExecutorConfig {
    /// Bounded pending-queue capacity; submissions beyond it are rejected
    /// with [`SubmitError::QueueFull`] (the caller's 429).
    pub queue_capacity: usize,
    /// Job worker threads. Jobs are heavyweight (an explore sweep fans
    /// out internally), so the default is one.
    pub workers: usize,
    /// Journal directory; `None` runs without crash safety (tests, ad-hoc
    /// CLI use). The journal file is `<dir>/jobs.journal`.
    pub journal_dir: Option<PathBuf>,
}

impl Default for JobExecutorConfig {
    fn default() -> Self {
        JobExecutorConfig { queue_capacity: 16, workers: 1, journal_dir: None }
    }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished with a rendered result.
    Completed,
    /// Finished with an error.
    Failed,
    /// Cancelled at a row boundary (or straight out of the queue).
    Cancelled,
}

impl JobState {
    /// Stable lowercase label (JSON fields, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed | JobState::Cancelled)
    }
}

/// A point-in-time copy of one job's observable state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: u64,
    /// The job kind.
    pub kind: JobKind,
    /// Current lifecycle state.
    pub state: JobState,
    /// Progress rows accumulated so far, in order.
    pub rows: Vec<String>,
    /// The rendered result (`Completed` only).
    pub result: Option<String>,
    /// The terminal error (`Failed` only).
    pub error: Option<String>,
    /// Whether this job was re-enqueued from the journal on startup.
    pub resumed: bool,
}

/// A row of [`JobExecutor::list`]: the snapshot without the row/result
/// payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSummary {
    /// The job id.
    pub id: u64,
    /// The job kind.
    pub kind: JobKind,
    /// Current lifecycle state.
    pub state: JobState,
    /// Progress rows accumulated so far.
    pub rows_done: usize,
}

/// Executor-level counters for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Jobs waiting for a worker.
    pub queue_depth: usize,
    /// The configured pending-queue bound.
    pub queue_capacity: usize,
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently running.
    pub running: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs that were cancelled.
    pub cancelled: u64,
    /// Unfinished jobs re-enqueued from the journal on startup.
    pub resumed: u64,
    /// Terminal jobs restored byte-identically from the journal on
    /// startup.
    pub replayed: u64,
    /// Current journal size in bytes (0 without a journal).
    pub journal_bytes: u64,
    /// Records appended (and flushed) by this process (0 without a
    /// journal; replayed records don't count).
    pub journal_appends: u64,
    /// Cumulative microseconds spent appending + flushing journal
    /// records — the daemon's journal fsync-path budget.
    pub journal_append_us: u64,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue is at capacity; `depth` is its current length
    /// (the caller's `Retry-After` payload).
    QueueFull {
        /// Jobs currently pending.
        depth: usize,
    },
    /// The request failed submit-time validation.
    Invalid(String),
    /// The acceptance record could not be journaled — accepting the job
    /// anyway would break the resume contract, so the submission fails.
    Journal(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => write!(f, "job queue full ({depth} pending)"),
            SubmitError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            SubmitError::Journal(msg) => write!(f, "journal append failed: {msg}"),
        }
    }
}

struct JobEntry {
    request: JobRequest,
    state: JobState,
    rows: Vec<String>,
    result: Option<String>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
    resumed: bool,
}

struct ExecState {
    jobs: BTreeMap<u64, JobEntry>,
    pending: VecDeque<u64>,
    next_id: u64,
    journal: Option<Journal>,
    resumed: u64,
    replayed: u64,
}

struct Inner {
    state: Mutex<ExecState>,
    ready: Condvar,
    stop: AtomicBool,
    capacity: usize,
}

/// The crash-safe streaming job executor (see the module docs).
pub struct JobExecutor {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl JobExecutor {
    /// Opens the journal (when configured), replays it — restoring
    /// terminal jobs and re-enqueueing unfinished ones — and spawns the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Journal I/O failures (directory creation, open, torn-tail
    /// truncation).
    pub fn new(config: &JobExecutorConfig) -> io::Result<JobExecutor> {
        let mut state = ExecState {
            jobs: BTreeMap::new(),
            pending: VecDeque::new(),
            next_id: 1,
            journal: None,
            resumed: 0,
            replayed: 0,
        };
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir)?;
            let (journal, records, _truncated) = Journal::open(&dir.join("jobs.journal"))?;
            replay(&mut state, records);
            state.journal = Some(journal);
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            capacity: config.queue_capacity.max(1),
        });
        let workers = config.workers.max(1);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("ftes-jobs-worker-{i}"))
                .spawn(move || worker_loop(&worker_inner));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind the partial pool: a half-spawned executor
                    // would strand accepted jobs, so fail construction
                    // whole and leave the journal as the source of truth.
                    inner.stop.store(true, Ordering::Release);
                    inner.ready.notify_all();
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(JobExecutor { inner, handles: Mutex::new(handles) })
    }

    /// Validates, journals and enqueues one request; returns the job id.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&self, request: JobRequest) -> Result<u64, SubmitError> {
        request.validate().map_err(SubmitError::Invalid)?;
        let mut state = self.lock();
        if state.pending.len() >= self.inner.capacity {
            return Err(SubmitError::QueueFull { depth: state.pending.len() });
        }
        let id = state.next_id;
        state.next_id += 1;
        // Journal the acceptance *before* the job becomes visible: a job
        // the journal never saw would vanish on restart.
        if let Some(journal) = state.journal.as_mut() {
            journal
                .append(&JournalRecord::Accept { id, request: request.clone() })
                .map_err(|e| SubmitError::Journal(e.to_string()))?;
        }
        state.jobs.insert(
            id,
            JobEntry {
                request,
                state: JobState::Queued,
                rows: Vec::new(),
                result: None,
                error: None,
                cancel: Arc::new(AtomicBool::new(false)),
                resumed: false,
            },
        );
        state.pending.push_back(id);
        drop(state);
        ftes_obs::counter(ftes_obs::names::JOB_QUEUED, 1);
        self.inner.ready.notify_one();
        Ok(id)
    }

    /// Requests cancellation. `None` = unknown id; `Some(false)` = already
    /// terminal (nothing to cancel); `Some(true)` = cancelled out of the
    /// queue immediately, or flagged for the running worker to stop at
    /// the next row boundary.
    pub fn cancel(&self, id: u64) -> Option<bool> {
        let mut state = self.lock();
        let entry = state.jobs.get(&id)?;
        let (entry_state, cancel) = (entry.state, Arc::clone(&entry.cancel));
        match entry_state {
            JobState::Completed | JobState::Failed | JobState::Cancelled => Some(false),
            JobState::Running => {
                cancel.store(true, Ordering::Release);
                Some(true)
            }
            JobState::Queued => {
                state.pending.retain(|&p| p != id);
                finish(&mut state, id, TerminalStatus::Cancelled, String::new());
                Some(true)
            }
        }
    }

    /// A point-in-time snapshot of one job.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let state = self.lock();
        let entry = state.jobs.get(&id)?;
        Some(JobSnapshot {
            id,
            kind: entry.request.kind(),
            state: entry.state,
            rows: entry.rows.clone(),
            result: entry.result.clone(),
            error: entry.error.clone(),
            resumed: entry.resumed,
        })
    }

    /// All known jobs in id order, without their payloads.
    pub fn list(&self) -> Vec<JobSummary> {
        let state = self.lock();
        state
            .jobs
            .iter()
            .map(|(&id, entry)| JobSummary {
                id,
                kind: entry.request.kind(),
                state: entry.state,
                rows_done: entry.rows.len(),
            })
            .collect()
    }

    /// Executor counters for `/metrics`.
    pub fn stats(&self) -> ExecutorStats {
        let state = self.lock();
        let mut stats = ExecutorStats {
            queue_depth: state.pending.len(),
            queue_capacity: self.inner.capacity,
            resumed: state.resumed,
            replayed: state.replayed,
            journal_bytes: state.journal.as_ref().map_or(0, Journal::bytes),
            journal_appends: state.journal.as_ref().map_or(0, Journal::appends),
            journal_append_us: state.journal.as_ref().map_or(0, Journal::append_micros),
            ..ExecutorStats::default()
        };
        for entry in state.jobs.values() {
            match entry.state {
                JobState::Queued => stats.queued += 1,
                JobState::Running => stats.running += 1,
                JobState::Completed => stats.completed += 1,
                JobState::Failed => stats.failed += 1,
                JobState::Cancelled => stats.cancelled += 1,
            }
        }
        stats
    }

    /// Stops the worker pool and joins it. In-flight jobs finish first
    /// (their terminal records reach the journal); still-queued jobs stay
    /// journaled without a terminal record, so the next start re-enqueues
    /// them — a graceful stop loses no accepted work. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.ready.notify_all();
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn lock(&self) -> MutexGuard<'_, ExecState> {
        lock_state(&self.inner)
    }
}

/// Lock the executor state, recovering from a poisoned mutex. The
/// critical sections guarded by this lock contain no panicking
/// operations (enforced by ftes-lint's panic-freedom rule), so poisoning
/// is already next to impossible; if it ever happens anyway, refusing
/// the lock forever would turn one panic into a permanently wedged
/// daemon, while the journal keeps the durable state consistent either
/// way — recovery is strictly better than propagation here.
fn lock_state(inner: &Inner) -> MutexGuard<'_, ExecState> {
    inner.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Drop for JobExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rebuilds executor state from surviving journal records.
fn replay(state: &mut ExecState, records: Vec<JournalRecord>) {
    for record in records {
        match record {
            JournalRecord::Accept { id, request } => {
                state.next_id = state.next_id.max(id + 1);
                state.jobs.insert(
                    id,
                    JobEntry {
                        request,
                        state: JobState::Queued,
                        rows: Vec::new(),
                        result: None,
                        error: None,
                        cancel: Arc::new(AtomicBool::new(false)),
                        resumed: false,
                    },
                );
            }
            JournalRecord::Row { id, index, row } => {
                if let Some(entry) = state.jobs.get_mut(&id) {
                    // Rows are journaled densely in order; anything else
                    // means a foreign/corrupt record — skip it rather
                    // than corrupting the watermark.
                    if !entry.state.is_terminal() && index as usize == entry.rows.len() {
                        entry.rows.push(row);
                    }
                }
            }
            JournalRecord::Done { id, status, result } => {
                if let Some(entry) = state.jobs.get_mut(&id) {
                    entry.state = match status {
                        TerminalStatus::Completed => {
                            entry.result = Some(result);
                            JobState::Completed
                        }
                        TerminalStatus::Failed => {
                            entry.error = Some(result);
                            JobState::Failed
                        }
                        TerminalStatus::Cancelled => JobState::Cancelled,
                    };
                    state.replayed += 1;
                }
            }
        }
    }
    // Accepted-but-unfinished jobs re-enqueue in id (acceptance) order,
    // with their journaled rows as the resume watermark.
    for (&id, entry) in state.jobs.iter_mut() {
        if entry.state == JobState::Queued {
            entry.resumed = true;
            state.resumed += 1;
            state.pending.push_back(id);
        }
    }
}

/// Journals and applies one terminal transition. Taking [`TerminalStatus`]
/// (not [`JobState`]) makes non-terminal arguments unrepresentable —
/// no runtime "terminal states only" check to get wrong. Journal append
/// failures are swallowed deliberately: the in-memory state must still
/// advance (a wedged journal must not wedge the daemon), and on restart
/// the job simply re-runs — resume-too-much is safe, forget is not.
fn finish(state: &mut ExecState, id: u64, status: TerminalStatus, payload: String) {
    if let Some(journal) = state.journal.as_mut() {
        let _ = journal.append(&JournalRecord::Done { id, status, result: payload.clone() });
    }
    // A missing entry means the id was never accepted (a bookkeeping bug,
    // caught by tests): nothing observable to update, and panicking in a
    // worker would be strictly worse than dropping the transition.
    let Some(entry) = state.jobs.get_mut(&id) else { return };
    entry.state = match status {
        TerminalStatus::Completed => JobState::Completed,
        TerminalStatus::Failed => JobState::Failed,
        TerminalStatus::Cancelled => JobState::Cancelled,
    };
    ftes_obs::counter(ftes_obs::names::JOB_TERMINAL, 1);
    match status {
        TerminalStatus::Completed => entry.result = Some(payload),
        TerminalStatus::Failed => entry.error = Some(payload),
        TerminalStatus::Cancelled => {}
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim the next pending job (or exit on shutdown).
        let (id, request, prior_rows, cancel) = {
            let mut state = lock_state(inner);
            loop {
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                let claimed = state.pending.pop_front().and_then(|id| {
                    let entry = state.jobs.get_mut(&id)?;
                    entry.state = JobState::Running;
                    Some((id, entry.request.clone(), entry.rows.clone(), Arc::clone(&entry.cancel)))
                });
                // A pending id without an entry would be a bookkeeping
                // bug; the `?` above drops it instead of killing the
                // worker, and the loop claims the next job.
                if let Some(claimed) = claimed {
                    break claimed;
                }
                if state.pending.is_empty() {
                    state = inner.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        // Execute without holding the lock; each emitted row takes it
        // briefly to journal-then-publish.
        let _job_span = ftes_obs::span(ftes_obs::names::JOB_RUN);
        let emit = |index: usize, row: &str| {
            ftes_obs::counter(ftes_obs::names::JOB_ROW, 1);
            let mut state = lock_state(inner);
            if let Some(journal) = state.journal.as_mut() {
                let _ = journal.append(&JournalRecord::Row {
                    id,
                    index: index as u64,
                    row: row.to_string(),
                });
            }
            if let Some(entry) = state.jobs.get_mut(&id) {
                debug_assert_eq!(entry.rows.len(), index, "rows stream densely in order");
                entry.rows.push(row.to_string());
            }
        };
        let outcome = execute_request(&request, &prior_rows, &cancel, emit);
        let (status, payload) = match outcome {
            Ok(result) => (TerminalStatus::Completed, result),
            Err(JobInterrupt::Cancelled) => (TerminalStatus::Cancelled, String::new()),
            Err(JobInterrupt::Failed(message)) => (TerminalStatus::Failed, message),
        };
        let mut state = lock_state(inner);
        finish(&mut state, id, status, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::time::{Duration, Instant};

    fn tiny_spec(deadline: i64) -> String {
        format!(
            "nodes 2\nslot 8\ndeadline {deadline}\nk 1\nstrategy mxr\n\
             process A wcet 10 12 alpha 1 mu 1 chi 1\n\
             process B wcet 8 8 alpha 1 mu 1 chi 1\n\
             message m0 A B 1\n"
        )
    }

    fn corpus_request(n: usize) -> JobRequest {
        use ftes::corpus::CorpusJob;
        JobRequest::CorpusRun {
            jobs: (0..n)
                .map(|i| CorpusJob {
                    name: format!("t{i}.ftes"),
                    family: "test".to_string(),
                    text: tiny_spec(200 + i as i64),
                })
                .collect(),
            workers: 1,
        }
    }

    fn wait_terminal(executor: &JobExecutor, id: u64) -> JobSnapshot {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let snap = executor.status(id).expect("job exists");
            if snap.state.is_terminal() {
                return snap;
            }
            assert!(Instant::now() < deadline, "job {id} never reached a terminal state");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ftes-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_poll_result_without_a_journal() {
        let executor = JobExecutor::new(&JobExecutorConfig::default()).unwrap();
        let id = executor.submit(corpus_request(3)).unwrap();
        assert_eq!(id, 1);
        let snap = wait_terminal(&executor, id);
        assert_eq!(snap.state, JobState::Completed);
        assert_eq!(snap.rows.len(), 3);
        assert!(snap.rows[0].starts_with("test,t0.ftes,"));
        let result = snap.result.expect("completed jobs carry a result");
        assert!(result.contains("\"specs\":3"), "{result}");
        assert_eq!(executor.list().len(), 1);
        let stats = executor.stats();
        assert_eq!((stats.completed, stats.resumed, stats.replayed), (1, 0, 0));
        assert_eq!(stats.journal_bytes, 0);
        executor.shutdown();
    }

    #[test]
    fn invalid_requests_and_full_queues_are_rejected() {
        // Zero workers would still spawn one; use a running job to plug
        // the single worker so the queue actually fills.
        let executor = JobExecutor::new(&JobExecutorConfig {
            queue_capacity: 1,
            ..JobExecutorConfig::default()
        })
        .unwrap();
        let err = executor.submit(JobRequest::Synthesize { spec: "bogus".into() }).unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)), "{err:?}");

        // Fill: one job occupies the worker, one sits in the queue; the
        // third submission must bounce with the current depth.
        let a = executor.submit(corpus_request(50)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while executor.status(a).unwrap().state == JobState::Queued {
            assert!(Instant::now() < deadline, "the worker never claimed the first job");
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = executor.submit(corpus_request(50)).unwrap();
        match executor.submit(corpus_request(1)) {
            Err(SubmitError::QueueFull { depth }) => assert_eq!(depth, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert!(executor.cancel(a).is_some());
        assert!(executor.cancel(b).is_some());
        executor.shutdown();
    }

    #[test]
    fn cancellation_stops_at_a_row_boundary() {
        let executor = JobExecutor::new(&JobExecutorConfig::default()).unwrap();
        // Unknown ids and terminal jobs.
        assert_eq!(executor.cancel(99), None);
        let done = executor.submit(corpus_request(1)).unwrap();
        wait_terminal(&executor, done);
        assert_eq!(executor.cancel(done), Some(false));

        // A long corpus job: cancel once the first row lands; the job must
        // end Cancelled with only a prefix of rows.
        let id = executor.submit(corpus_request(40)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let snap = executor.status(id).unwrap();
            if !snap.rows.is_empty() || snap.state.is_terminal() {
                break;
            }
            assert!(Instant::now() < deadline, "no rows ever arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(executor.cancel(id), Some(true));
        let snap = wait_terminal(&executor, id);
        assert_eq!(snap.state, JobState::Cancelled);
        assert!(snap.rows.len() < 40, "cancellation must cut the row stream short");
        assert!(snap.result.is_none());
        executor.shutdown();
    }

    #[test]
    fn queued_jobs_cancel_immediately() {
        let executor = JobExecutor::new(&JobExecutorConfig::default()).unwrap();
        let running = executor.submit(corpus_request(30)).unwrap();
        let queued = executor.submit(corpus_request(1)).unwrap();
        // The worker is busy with `running`; the queued job cancels
        // without ever starting.
        assert_eq!(executor.cancel(queued), Some(true));
        let snap = executor.status(queued).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        assert!(snap.rows.is_empty());
        executor.cancel(running);
        wait_terminal(&executor, running);
        executor.shutdown();
    }

    #[test]
    fn restart_replays_terminal_jobs_and_resumes_unfinished_ones() {
        let dir = temp_dir("resume");
        let config =
            JobExecutorConfig { journal_dir: Some(dir.clone()), workers: 1, queue_capacity: 16 };

        // Uninterrupted reference result for the same corpus.
        let reference = {
            let executor = JobExecutor::new(&JobExecutorConfig::default()).unwrap();
            let id = executor.submit(corpus_request(4)).unwrap();
            let snap = wait_terminal(&executor, id);
            executor.shutdown();
            snap.result.unwrap()
        };

        // Run one job to completion under the journal.
        let completed_id = {
            let executor = JobExecutor::new(&config).unwrap();
            let id = executor.submit(corpus_request(4)).unwrap();
            wait_terminal(&executor, id);
            executor.shutdown();
            id
        };

        // Simulate a crash mid-second-job: hand-build the journal state of
        // an accepted job with two journaled rows and no terminal record
        // (a real kill -9 is exercised by the CI smoke; here we construct
        // the exact surviving-record shape).
        {
            let (mut journal, records, _) = Journal::open(&dir.join("jobs.journal")).unwrap();
            assert!(records.iter().any(|r| matches!(r, JournalRecord::Done { .. })));
            let request = corpus_request(4);
            journal.append(&JournalRecord::Accept { id: 2, request: request.clone() }).unwrap();
            // Journal the first two rows exactly as the executor would
            // have: recompute them via a plain run.
            let executor = JobExecutor::new(&JobExecutorConfig::default()).unwrap();
            let id = executor.submit(request).unwrap();
            let snap = wait_terminal(&executor, id);
            executor.shutdown();
            for (i, row) in snap.rows.iter().take(2).enumerate() {
                journal
                    .append(&JournalRecord::Row { id: 2, index: i as u64, row: row.clone() })
                    .unwrap();
            }
        }

        // Restart: job 1 replays its result byte-identically; job 2
        // resumes from its watermark and completes with the same bytes as
        // the uninterrupted reference.
        let executor = JobExecutor::new(&config).unwrap();
        let replayed = executor.status(completed_id).unwrap();
        assert_eq!(replayed.state, JobState::Completed);
        assert_eq!(replayed.result.as_deref(), Some(reference.as_str()));
        assert!(!replayed.resumed);

        let resumed = wait_terminal(&executor, 2);
        assert_eq!(resumed.state, JobState::Completed);
        assert!(resumed.resumed, "job 2 was re-enqueued from the journal");
        assert_eq!(resumed.rows.len(), 4);
        assert_eq!(resumed.result.as_deref(), Some(reference.as_str()));

        let stats = executor.stats();
        assert_eq!((stats.resumed, stats.replayed), (1, 1));
        assert!(stats.journal_bytes > 0);
        // Fresh submissions never collide with journaled ids.
        let next = executor.submit(corpus_request(1)).unwrap();
        assert_eq!(next, 3);
        wait_terminal(&executor, next);
        executor.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_an_explore_job_to_the_uninterrupted_bytes() {
        let dir = temp_dir("resume-explore");
        let config =
            JobExecutorConfig { journal_dir: Some(dir.clone()), workers: 1, queue_capacity: 16 };
        // Two grid points on two threads: the resumed run recomputes the
        // whole suite on a fresh thread split and must still render the
        // uninterrupted bytes.
        let request = JobRequest::ExploreSuite {
            params: "processes=8 nodes=2 k=1 seeds=2 rounds=2 iters=4 threads=2".into(),
        };
        let reference = {
            let executor = JobExecutor::new(&JobExecutorConfig::default()).unwrap();
            let id = executor.submit(request.clone()).unwrap();
            let snap = wait_terminal(&executor, id);
            executor.shutdown();
            assert_eq!(snap.rows.len(), 2);
            snap
        };

        // The surviving records of a crash after the first row.
        {
            std::fs::create_dir_all(&dir).unwrap();
            let (mut journal, _, _) = Journal::open(&dir.join("jobs.journal")).unwrap();
            journal.append(&JournalRecord::Accept { id: 1, request }).unwrap();
            let row = reference.rows[0].clone();
            journal.append(&JournalRecord::Row { id: 1, index: 0, row }).unwrap();
        }

        let executor = JobExecutor::new(&config).unwrap();
        let resumed = wait_terminal(&executor, 1);
        executor.shutdown();
        assert_eq!(resumed.state, JobState::Completed);
        assert!(resumed.resumed, "job 1 was re-enqueued from the journal");
        assert_eq!(resumed.rows, reference.rows);
        assert_eq!(resumed.result, reference.result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_leaves_queued_jobs_journaled_for_the_next_start() {
        let dir = temp_dir("handoff");
        let config =
            JobExecutorConfig { journal_dir: Some(dir.clone()), workers: 1, queue_capacity: 16 };
        {
            let executor = JobExecutor::new(&config).unwrap();
            let _running = executor.submit(corpus_request(10)).unwrap();
            let _queued = executor.submit(corpus_request(2)).unwrap();
            executor.shutdown();
            // The in-flight job finished (its Done is journaled); the
            // queued one never started.
        }
        let executor = JobExecutor::new(&config).unwrap();
        let snap = wait_terminal(&executor, 2);
        assert_eq!(snap.state, JobState::Completed);
        assert!(snap.resumed);
        assert_eq!(snap.rows.len(), 2);
        executor.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_dir_must_be_usable() {
        // A journal path that collides with an existing *file* fails fast.
        let dir = temp_dir("badjournal");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("jobs.journal"), b"not a journal at all").unwrap();
        let err = JobExecutor::new(&JobExecutorConfig {
            journal_dir: Some(dir.clone()),
            ..JobExecutorConfig::default()
        });
        assert!(err.is_err());
        let _ = std::fs::remove_dir_all(Path::new(&dir));
    }
}
