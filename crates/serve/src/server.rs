//! The resident service: a TCP acceptor feeding a bounded job queue
//! drained by a pool of worker threads.
//!
//! ## Lifecycle
//!
//! [`start`] binds the listener (port 0 = ephemeral), spawns one acceptor
//! thread and `workers` handler threads, and returns a [`Server`] handle.
//! The acceptor never parses HTTP: it only sets the write timeout and pushes
//! the connection into the queue — or, when the queue is full, sheds the
//! connection with an immediate `429` so overload degrades into fast
//! rejections instead of unbounded latency. Workers pop connections,
//! read one request, dispatch to [`crate::handlers::route`] and reply.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (also run on drop) flips the stop flag, closes the
//! queue, pokes the acceptor awake with a loopback connection and joins
//! every thread; in-flight requests finish first.

use crate::cache::ResultCache;
use crate::evalbank::EvaluatorBank;
use crate::handlers::route;
use crate::http::{error_body, read_request, write_response, write_response_with};
use crate::metrics::{Endpoint, Metrics, MetricsSnapshot};
use crate::queue::BoundedQueue;
use ftes::explore::CacheStats;
use ftes_jobs::{JobExecutor, JobExecutorConfig};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Handler threads (each runs one synthesis at a time).
    pub workers: usize,
    /// Bounded job-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Result-cache capacity in bodies (spread over `cache_shards`).
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Deadline for reading one whole request, head and body, counted from
    /// when a worker takes the connection, and the timeout of each
    /// response write: slow, trickling or silent clients cannot pin a
    /// worker past it.
    pub io_timeout: Duration,
    /// Bounded capacity of the asynchronous job queue (`POST /jobs`,
    /// `POST /explore`, `POST /corpus/run`); submissions beyond it get
    /// `429` + `Retry-After`.
    pub job_queue_capacity: usize,
    /// Job-executor worker threads (each runs one job at a time).
    pub job_workers: usize,
    /// Directory for the crash-safety job journal; `None` keeps jobs
    /// in-memory only (no resume across restarts).
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2),
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            io_timeout: Duration::from_secs(10),
            job_queue_capacity: 16,
            job_workers: 1,
            journal_dir: None,
        }
    }
}

/// State shared by the acceptor, the workers and the handlers.
pub struct Shared {
    /// The bounded connection queue.
    pub queue: BoundedQueue<TcpStream>,
    /// The response cache.
    pub cache: ResultCache,
    /// Warm evaluator kernels keyed by `(app, platform, k)` — repeated
    /// specs on a warm daemon skip the kernel construction entirely.
    pub evaluators: EvaluatorBank,
    /// Service counters.
    pub metrics: Metrics,
    /// Worker-pool size (reported by `/healthz`).
    pub workers: usize,
    /// The asynchronous job executor behind `/jobs`, `/explore` and
    /// `/corpus/run` — journaled, so jobs survive a daemon restart.
    pub jobs: JobExecutor,
}

/// A running service instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds, spawns the acceptor + worker pool and returns the handle.
///
/// # Errors
///
/// Propagates socket bind failures.
pub fn start(config: ServeConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // The executor replays its journal before the listener serves anything,
    // so a restarted daemon never answers `GET /jobs/<id>` with a 404 for a
    // job its previous life accepted.
    let jobs = JobExecutor::new(&JobExecutorConfig {
        queue_capacity: config.job_queue_capacity,
        workers: config.job_workers.max(1),
        journal_dir: config.journal_dir.clone(),
    })?;
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_capacity),
        cache: ResultCache::new(config.cache_capacity, config.cache_shards),
        // A couple of kernels per worker keeps several spec families warm
        // without letting the bank hoard application clones unboundedly.
        evaluators: EvaluatorBank::new(config.workers.max(1) * 2),
        metrics: Metrics::new(),
        workers: config.workers.max(1),
        jobs,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let io_timeout = config.io_timeout;

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let spawned = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ftes-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, io_timeout))
        };
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => return Err(abort_start(&shared, workers, e)),
        }
    }

    let acceptor = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("ftes-serve-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &shared, &stop, io_timeout))
    };
    let acceptor = match acceptor {
        Ok(handle) => handle,
        Err(e) => return Err(abort_start(&shared, workers, e)),
    };

    Ok(Server { addr, shared, stop, acceptor: Some(acceptor), workers })
}

/// Unwinds a partially-started pool when a thread fails to spawn (fd or
/// thread exhaustion): closes the queue so spawned workers exit, joins
/// them, stops the job executor, and hands the caller the error. A
/// half-alive service would accept connections nobody drains.
fn abort_start(shared: &Shared, workers: Vec<JoinHandle<()>>, error: io::Error) -> io::Error {
    shared.queue.close();
    for handle in workers {
        let _ = handle.join();
    }
    shared.jobs.shutdown();
    error
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared, stop: &AtomicBool, io_timeout: Duration) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                // Persistent accept errors (EMFILE under fd exhaustion,
                // ENFILE, …) would otherwise hot-spin this loop at 100%
                // CPU exactly when the host is resource-starved; a short
                // pause lets workers finish and release descriptors.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // The write timeout is set before queueing, so neither the 429
        // below nor a worker's reply can stall on a client that stopped
        // reading; the worker bounds the request read itself.
        let _ = stream.set_write_timeout(Some(io_timeout));
        if let Err(stream) = shared.queue.try_push(stream) {
            // Backpressure: reply 429 inline and move on. Write errors are
            // ignored — the client is gone, there is nothing to free up.
            // `Retry-After` + the depth in the body let well-behaved
            // clients back off instead of hammering a saturated daemon.
            shared.metrics.record_rejected();
            let mut w = ftes::json::JsonWriter::new();
            w.begin_object();
            w.key("error");
            w.string("job queue full, retry later");
            w.key("status");
            w.number_u64(429);
            w.key("queue_depth");
            w.number_usize(shared.queue.depth());
            w.end_object();
            let _ = write_response_with(
                &stream,
                429,
                "application/json",
                &["Retry-After: 1".to_string()],
                &w.finish(),
            );
        }
    }
}

fn worker_loop(shared: &Shared, io_timeout: Duration) {
    while let Some(stream) = shared.queue.pop() {
        let started = Instant::now();
        // A handler panic must cost one request, not one worker: an
        // unisolated unwind would silently shrink the pool until the
        // acceptor queues connections nobody serves. Handlers hold no
        // locks across user input, so unwind safety is not a concern.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_connection(shared, &stream, io_timeout)
        }));
        let recorded = match outcome {
            Ok(recorded) => recorded,
            Err(_) => {
                let _ = write_response(&stream, 500, &error_body(500, "internal handler failure"));
                Some((Endpoint::Other, 500))
            }
        };
        if let Some((endpoint, status)) = recorded {
            shared.metrics.record(endpoint, status, started.elapsed().as_micros() as u64);
        }
    }
}

/// Reads one request, within `io_timeout`, and replies. `None` means the
/// connection died or timed out before a response was possible (nothing
/// meaningful to record).
fn serve_connection(
    shared: &Shared,
    stream: &TcpStream,
    io_timeout: Duration,
) -> Option<(Endpoint, u16)> {
    let reader = DeadlineReader { stream, deadline: Instant::now() + io_timeout };
    let request = match read_request(reader) {
        Ok(Ok(request)) => request,
        Ok(Err(e)) => {
            let status = e.status();
            let _ = write_response(stream, status, &error_body(status, &e.message()));
            return Some((Endpoint::Other, status));
        }
        // Read timeout / disconnect: drop silently.
        Err(_) => return None,
    };
    let _span = ftes::obs::span(ftes::obs::names::SERVE_REQUEST);
    let (endpoint, reply) = route(shared, &request);
    let extra: Vec<String> =
        reply.retry_after.iter().map(|secs| format!("Retry-After: {secs}")).collect();
    // A failed write still records: the work was done, the client left.
    let _ = write_response_with(stream, reply.status, reply.content_type, &extra, &reply.body);
    Some((endpoint, reply.status))
}

/// Reads from `stream` until `deadline`. Each read waits at most the time
/// left, so a client that trickles its request a byte at a time cannot
/// stretch the whole read past the deadline.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "request read past its deadline"));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

impl Server {
    /// The bound address (with the OS-assigned port when `addr` used 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics snapshot (same numbers `/metrics` reports).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Stops accepting, drains in-flight work and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Blocks the calling thread until the server shuts down (which, with
    /// the handle consumed, only happens on process exit — the `ftes
    /// serve` foreground mode).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn shutdown_inner(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the acceptor out of `accept()`; it observes `stop` before
        // queueing anything.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue.close();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Jobs cancel at their next row boundary; the journal has already
        // recorded everything delivered, so a restart resumes them.
        self.shared.jobs.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_on_an_ephemeral_port_and_shuts_down() {
        let server = start(ServeConfig {
            workers: 2,
            io_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        })
        .unwrap();
        assert_ne!(server.addr().port(), 0);
        server.shutdown();
    }

    #[test]
    fn drop_is_a_clean_shutdown() {
        let addr = {
            let server = start(ServeConfig::default()).unwrap();
            server.addr()
        };
        // The port is released once the handle is gone.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "{rebind:?}");
    }
}
