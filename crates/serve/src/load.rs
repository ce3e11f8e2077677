//! The load harness: a multi-threaded closed-loop client for the service.
//!
//! `clients` threads (the calling thread is one) claim requests in index
//! order, send request `i` with spec `i % specs.len()` over one connection
//! per request, and record status + latency. The default mix repeats two
//! *equivalent* specs — the Fig. 5 document verbatim and a reformatted
//! twin — so a healthy run both exercises concurrency and demonstrates
//! canonical-key cache hits.
//!
//! `429` responses are not hard failures: the harness honors the server's
//! `Retry-After` header with bounded backoff and counts the retries, so an
//! overloaded-but-recovering daemon scores as slow, not broken. With
//! `jobs_requests > 0` the harness additionally exercises the asynchronous
//! path end-to-end — submit via `POST /jobs`, poll `GET /jobs/<id>` to a
//! terminal state — and reports submit-to-terminal latency percentiles
//! alongside the synchronous mix.

use crate::http::reason_phrase;
use ftes::model::par::ordered_parallel;
use ftes::spec::FIG5_SPEC;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Maximum resubmission attempts after a `429` before the request counts
/// as failed.
const MAX_RETRIES: usize = 5;
/// Upper bound on one `Retry-After` sleep (a misconfigured server must
/// not be able to stall the harness for minutes per request).
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Tunables of a load run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:8080`.
    pub addr: String,
    /// Concurrent client threads, the calling thread included.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Asynchronous jobs submitted on top of the synchronous mix: each is
    /// a `POST /jobs` submit followed by `GET /jobs/<id>` polling until
    /// the job reaches a terminal state.
    pub jobs_requests: usize,
    /// The `.ftes` documents cycled through `POST /synthesize`.
    pub specs: Vec<String>,
    /// Per-request IO timeout.
    pub timeout: Duration,
}

impl LoadConfig {
    /// The default mix against `addr`: 8 clients, 50 requests, two
    /// equivalent Fig. 5 specs (verbatim + reformatted) so repeated
    /// requests hit the canonical-key cache. No asynchronous jobs.
    pub fn against(addr: impl Into<String>) -> Self {
        LoadConfig {
            addr: addr.into(),
            clients: 8,
            requests: 50,
            jobs_requests: 0,
            specs: default_spec_mix(),
            timeout: Duration::from_secs(30),
        }
    }
}

/// The built-in repeated-spec request mix (two equivalent documents).
pub fn default_spec_mix() -> Vec<String> {
    vec![
        FIG5_SPEC.to_string(),
        // Equivalent after parsing: comments and blank lines only.
        format!("# reformatted twin of the Fig. 5 spec\n\n{FIG5_SPEC}\n# trailing comment\n"),
    ]
}

/// Submit-to-terminal accounting for the asynchronous job slice of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobsReport {
    /// Jobs whose submission was accepted (`202`).
    pub submitted: usize,
    /// Jobs observed in the `completed` state.
    pub completed: usize,
    /// Everything else: rejected submissions, failed or cancelled jobs,
    /// polls that timed out.
    pub failed: usize,
    /// Median submit-to-terminal latency (µs).
    pub p50_us: u64,
    /// 99th-percentile submit-to-terminal latency (µs).
    pub p99_us: u64,
}

/// One endpoint's server-side accounting over a load run, computed as the
/// difference between a `/metrics` scrape before the run and one after.
///
/// The percentiles are the server's lifetime histogram percentiles at the
/// closing scrape (histograms only accumulate), while `requests`,
/// `served` and `mean_us` are true deltas attributable to this run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointDelta {
    /// Endpoint label as reported by `/metrics` (e.g. `synthesize`).
    pub label: String,
    /// Requests routed to the endpoint during the run.
    pub requests: u64,
    /// Responses measured by the latency histogram during the run.
    pub served: u64,
    /// Mean server-side latency of this run's responses (µs).
    pub mean_us: u64,
    /// Server-side median latency (µs, lifetime histogram).
    pub p50_us: u64,
    /// Server-side 90th percentile latency (µs, lifetime histogram).
    pub p90_us: u64,
    /// Server-side 99th percentile latency (µs, lifetime histogram).
    pub p99_us: u64,
}

/// Outcome of one load run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Requests attempted.
    pub sent: usize,
    /// Responses with status 200.
    pub ok: usize,
    /// Everything else: non-200 statuses and transport failures.
    pub failed: usize,
    /// `429` responses that were retried after honoring `Retry-After`
    /// (each counted request reports only its final status).
    pub retried: usize,
    /// Count per received final status code (0 = transport failure).
    pub by_status: BTreeMap<u16, usize>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Median request latency (µs).
    pub p50_us: u64,
    /// 99th-percentile request latency (µs).
    pub p99_us: u64,
    /// The asynchronous job slice (`None` when `jobs_requests` was 0).
    pub jobs: Option<JobsReport>,
    /// Server-side per-endpoint accounting from `/metrics` scraped before
    /// and after the run (empty when either scrape failed). Client-side
    /// percentiles above include connect + transfer time; these do not.
    pub endpoints: Vec<EndpointDelta>,
}

impl LoadReport {
    /// Requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.sent as f64 / secs
    }

    /// Human-readable summary (the `ftes load` output).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} requests in {:.2}s ({:.1} req/s): {} ok, {} failed",
            self.sent,
            self.wall.as_secs_f64(),
            self.throughput_rps(),
            self.ok,
            self.failed,
        );
        for (&status, &count) in &self.by_status {
            let reason = if status == 0 { "transport error" } else { reason_phrase(status) };
            let _ = writeln!(out, "  {status:>3} {reason:<22} {count}");
        }
        if self.retried > 0 {
            let _ = writeln!(out, "  retried after 429 (Retry-After honored): {}", self.retried);
        }
        let _ = writeln!(out, "  latency p50 {} us, p99 {} us", self.p50_us, self.p99_us);
        if !self.endpoints.is_empty() {
            let _ = writeln!(out, "  per-endpoint (server-side, /metrics delta):");
            for ep in &self.endpoints {
                let _ = writeln!(
                    out,
                    "    {:<11} {} requests, {} served, mean {} us, p50 {} us, p90 {} us, p99 {} us",
                    ep.label, ep.requests, ep.served, ep.mean_us, ep.p50_us, ep.p90_us, ep.p99_us,
                );
            }
        }
        if let Some(jobs) = &self.jobs {
            let _ = writeln!(
                out,
                "  jobs: {} submitted, {} completed, {} failed",
                jobs.submitted, jobs.completed, jobs.failed,
            );
            let _ = writeln!(
                out,
                "  job submit-to-terminal p50 {} us, p99 {} us",
                jobs.p50_us, jobs.p99_us,
            );
        }
        out
    }
}

/// Runs the load harness against a running server.
///
/// # Errors
///
/// Returns an error only for configuration problems (no specs, zero
/// clients); individual request failures are *counted*, not propagated —
/// the report is the deliverable.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, String> {
    if config.specs.is_empty() {
        return Err("load mix has no specs".into());
    }
    if config.clients == 0 || config.requests == 0 {
        return Err("clients and requests must be positive".into());
    }
    let before = scrape_metrics(&config.addr, config.timeout);
    let started = Instant::now();
    let results: Vec<(u16, u64, usize)> = fan_out(config, config.requests, |spec| {
        let t0 = Instant::now();
        // Transport failures record as status 0.
        let (status, retries) =
            post_synthesize(&config.addr, spec, config.timeout).unwrap_or((0, 0));
        (status, t0.elapsed().as_micros() as u64, retries)
    });

    let jobs = if config.jobs_requests > 0 { Some(run_jobs_slice(config)) } else { None };
    let wall = started.elapsed();
    // Workers record a request *after* replying to it, so the closing
    // scrape can race the final counter ticks — retry briefly until the
    // run's own requests are all visible.
    let sent = results.len() as u64;
    let endpoints = before
        .and_then(|before| {
            let deadline = Instant::now() + Duration::from_millis(500);
            loop {
                let after = scrape_metrics(&config.addr, config.timeout)?;
                let deltas = endpoint_deltas(&before, &after);
                let counted: u64 = deltas.iter().map(|d| d.requests).sum();
                if counted > sent || Instant::now() >= deadline {
                    return Some(deltas);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
        .unwrap_or_default();

    let mut by_status: BTreeMap<u16, usize> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(results.len());
    let mut ok = 0usize;
    let mut retried = 0usize;
    for (status, micros, retries) in &results {
        *by_status.entry(*status).or_default() += 1;
        latencies.push(*micros);
        retried += retries;
        if *status == 200 {
            ok += 1;
        }
    }
    latencies.sort_unstable();
    Ok(LoadReport {
        sent: results.len(),
        ok,
        failed: results.len() - ok,
        retried,
        by_status,
        wall,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        jobs,
        endpoints,
    })
}

/// One endpoint's numbers out of a parsed `/metrics` scrape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct EndpointScrape {
    requests: u64,
    served: u64,
    sum_us: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
}

/// `GET /metrics` parsed into per-endpoint numbers; `None` on any
/// transport or parse failure (the run proceeds without the breakdown).
fn scrape_metrics(addr: &str, timeout: Duration) -> Option<BTreeMap<String, EndpointScrape>> {
    let (status, _, body) = one_request(addr, "GET", "/metrics", "", timeout).ok()?;
    if status != 200 {
        return None;
    }
    let json = ftes::obs::validate::parse_json(&body).ok()?;
    let mut out: BTreeMap<String, EndpointScrape> = BTreeMap::new();
    if let Some(ftes::obs::validate::Json::Obj(requests)) = json.get("requests_by_endpoint") {
        for (label, count) in requests {
            out.entry(label.clone()).or_default().requests = count.as_num()? as u64;
        }
    }
    if let Some(ftes::obs::validate::Json::Obj(latency)) = json.get("latency_by_endpoint") {
        for (label, stats) in latency {
            let field = |key: &str| stats.get(key).and_then(|v| v.as_num()).map(|v| v as u64);
            let entry = out.entry(label.clone()).or_default();
            entry.served = field("served")?;
            entry.sum_us = field("sum_us")?;
            entry.p50_us = field("p50")?;
            entry.p90_us = field("p90")?;
            entry.p99_us = field("p99")?;
        }
    }
    Some(out)
}

/// Differences two `/metrics` scrapes into the per-endpoint report rows
/// (endpoints untouched by the run are dropped; `/metrics` itself shows
/// up with at least the closing scrape's own request).
fn endpoint_deltas(
    before: &BTreeMap<String, EndpointScrape>,
    after: &BTreeMap<String, EndpointScrape>,
) -> Vec<EndpointDelta> {
    let mut out = Vec::new();
    for (label, now) in after {
        let base = before.get(label).cloned().unwrap_or_default();
        let requests = now.requests.saturating_sub(base.requests);
        let served = now.served.saturating_sub(base.served);
        if requests == 0 && served == 0 {
            continue;
        }
        let sum = now.sum_us.saturating_sub(base.sum_us);
        out.push(EndpointDelta {
            label: label.clone(),
            requests,
            served,
            mean_us: sum.checked_div(served).unwrap_or(0),
            p50_us: now.p50_us,
            p90_us: now.p90_us,
            p99_us: now.p99_us,
        });
    }
    out
}

/// The `p`-quantile of an ascending-sorted latency list (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `requests` requests on `config.clients` client threads (the
/// calling thread is one): clients claim request indices in order, and
/// request `i` sends spec `i % specs.len()`. Results come back in request
/// order.
fn fan_out<T: Send>(
    config: &LoadConfig,
    requests: usize,
    send: impl Fn(&str) -> T + Sync,
) -> Vec<T> {
    let mut out = Vec::with_capacity(requests);
    ordered_parallel(
        requests,
        config.clients,
        None,
        |i| send(&config.specs[i % config.specs.len()]),
        |_, result| {
            out.push(result);
            ControlFlow::Continue(())
        },
    );
    out
}

/// The asynchronous slice of a load run: submit `jobs_requests` synthesis
/// jobs (claimed by the same client threads as the synchronous mix), poll
/// each to a terminal state, record submit-to-terminal latency.
fn run_jobs_slice(config: &LoadConfig) -> JobsReport {
    let outcomes: Vec<Option<(bool, u64)>> = fan_out(config, config.jobs_requests, |spec| {
        submit_and_await(&config.addr, spec, config.timeout)
    });
    let submitted = outcomes.iter().filter(|o| o.is_some()).count();
    let completed = outcomes.iter().filter(|o| matches!(o, Some((true, _)))).count();
    let mut latencies: Vec<u64> =
        outcomes.iter().filter_map(|o| o.map(|(_, micros)| micros)).collect();
    latencies.sort_unstable();
    JobsReport {
        submitted,
        completed,
        failed: outcomes.len() - completed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

/// One end-to-end job: `POST /jobs`, then `GET /jobs/<id>` until terminal.
/// `None` means the submission itself never got a `202` (after backoff);
/// otherwise `(reached_completed, submit_to_terminal_micros)`.
fn submit_and_await(addr: &str, spec: &str, timeout: Duration) -> Option<(bool, u64)> {
    let t0 = Instant::now();
    let mut attempt = 0;
    let (status, body) = loop {
        let reply = one_request(addr, "POST", "/jobs", spec, timeout).ok()?;
        if reply.0 != 429 || attempt >= MAX_RETRIES {
            break (reply.0, reply.2);
        }
        attempt += 1;
        std::thread::sleep(backoff(reply.1));
    };
    if status != 202 {
        return None;
    }
    let id = parse_job_id(&body)?;
    let path = format!("/jobs/{id}");
    let deadline = Instant::now() + timeout;
    loop {
        let (status, _, body) = one_request(addr, "GET", &path, "", timeout).ok()?;
        if status == 200 {
            for terminal in ["\"completed\"", "\"failed\"", "\"cancelled\""] {
                if body.contains(&format!("\"state\":{terminal}")) {
                    let done = terminal == "\"completed\"";
                    return Some((done, t0.elapsed().as_micros() as u64));
                }
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Extracts the `"job":<id>` field from a submission body.
fn parse_job_id(body: &str) -> Option<u64> {
    let rest = body.split("\"job\":").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The sleep for one `429` retry: the server's `Retry-After` when present,
/// bounded by [`MAX_BACKOFF`]; a short fixed pause otherwise.
fn backoff(retry_after: Option<u64>) -> Duration {
    match retry_after {
        Some(secs) => Duration::from_secs(secs).min(MAX_BACKOFF),
        None => Duration::from_millis(100),
    }
}

/// One `POST /synthesize` over a fresh connection; honors `Retry-After`
/// backoff on `429` up to [`MAX_RETRIES`] times. Returns the final status
/// and how many retries were spent.
fn post_synthesize(
    addr: &str,
    spec: &str,
    timeout: Duration,
) -> Result<(u16, usize), std::io::Error> {
    let mut retries = 0;
    loop {
        let (status, retry_after, _) = one_request(addr, "POST", "/synthesize", spec, timeout)?;
        if status != 429 || retries >= MAX_RETRIES {
            return Ok((status, retries));
        }
        retries += 1;
        std::thread::sleep(backoff(retry_after));
    }
}

/// One request over a fresh connection: `(status, retry_after, body)`.
fn one_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, Option<u64>, String), std::io::Error> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ftes\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    let mut w = &stream;
    w.write_all(head.as_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()?;
    read_response_full(&stream)
}

/// Minimal HTTP/1.1 client: writes one request, reads one response.
/// Shared by the load harness and the service tests.
pub fn request(
    mut stream: &TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), std::io::Error> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ftes\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    read_response(stream)
}

/// Parses a `(status, body)` response off the wire.
pub fn read_response<R: Read>(stream: R) -> Result<(u16, String), std::io::Error> {
    read_response_full(stream).map(|(status, _, body)| (status, body))
}

/// Parses a `(status, retry_after, body)` response off the wire — the
/// `Retry-After` header (integer seconds) drives the harness's backoff.
pub fn read_response_full<R: Read>(
    stream: R,
) -> Result<(u16, Option<u64>, String), std::io::Error> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line `{}`", line.trim())))?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("truncated response headers"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::other(format!("bad Content-Length `{}`", value.trim()))
                })?;
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body =
        String::from_utf8(body).map_err(|_| std::io::Error::other("response body is not UTF-8"))?;
    Ok((status, retry_after, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_two_equivalent_specs() {
        let mix = default_spec_mix();
        assert_eq!(mix.len(), 2);
        let a = ftes::spec::parse_spec(&mix[0]).unwrap();
        let b = ftes::spec::parse_spec(&mix[1]).unwrap();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn report_percentiles_and_render() {
        let report = LoadReport {
            sent: 4,
            ok: 3,
            failed: 1,
            retried: 2,
            by_status: BTreeMap::from([(200, 3), (429, 1)]),
            wall: Duration::from_millis(200),
            p50_us: 100,
            p99_us: 900,
            jobs: Some(JobsReport {
                submitted: 2,
                completed: 2,
                failed: 0,
                p50_us: 1500,
                p99_us: 2500,
            }),
            endpoints: vec![EndpointDelta {
                label: "synthesize".to_string(),
                requests: 3,
                served: 3,
                mean_us: 450,
                p50_us: 100,
                p90_us: 700,
                p99_us: 900,
            }],
        };
        assert!((report.throughput_rps() - 20.0).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("4 requests"));
        assert!(text.contains("429"));
        assert!(text.contains("p50 100 us"));
        assert!(text.contains("retried after 429"));
        assert!(text.contains("per-endpoint (server-side, /metrics delta):"));
        assert!(text.contains("synthesize  3 requests, 3 served, mean 450 us"));
        assert!(text.contains("jobs: 2 submitted, 2 completed, 0 failed"));
        assert!(text.contains("job submit-to-terminal p50 1500 us"));
    }

    #[test]
    fn response_parser_round_trips_a_server_response() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let (status, body) = read_response(raw.as_bytes()).unwrap();
        assert_eq!((status, body.as_str()), (200, "{}"));
        assert!(read_response("garbage".as_bytes()).is_err());
    }

    #[test]
    fn retry_after_header_is_parsed_case_insensitively() {
        let raw = "HTTP/1.1 429 Too Many Requests\r\nretry-after: 3\r\nContent-Length: 2\r\n\r\n{}";
        let (status, retry_after, _) = read_response_full(raw.as_bytes()).unwrap();
        assert_eq!((status, retry_after), (429, Some(3)));
        assert_eq!(backoff(Some(100)), MAX_BACKOFF, "backoff is bounded");
        assert_eq!(backoff(None), Duration::from_millis(100));
    }

    #[test]
    fn job_ids_parse_out_of_submission_bodies() {
        assert_eq!(parse_job_id(r#"{"job":17,"state":"queued"}"#), Some(17));
        assert_eq!(parse_job_id(r#"{"error":"nope"}"#), None);
    }

    #[test]
    fn config_validation() {
        let mut config = LoadConfig::against("127.0.0.1:1");
        config.specs.clear();
        assert!(run_load(&config).is_err());
        let mut config = LoadConfig::against("127.0.0.1:1");
        config.clients = 0;
        assert!(run_load(&config).is_err());
    }
}
