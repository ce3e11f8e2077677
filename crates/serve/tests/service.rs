//! End-to-end service tests against an ephemeral-port in-process server:
//! CLI/service byte-parity, concurrent-client determinism, canonical-key
//! cache accounting, queue-full backpressure, malformed-request 4xx paths
//! and the load-harness acceptance run.

use ftes::json::escaped;
use ftes::sched::export::tables_to_csv;
use ftes::spec::{parse_spec, FIG5_SPEC};
use ftes::{synthesize_system, FlowConfig};
use ftes_serve::{
    read_response, read_response_full, request, run_load, start, LoadConfig, ServeConfig, Server,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_server(config: ServeConfig) -> Server {
    start(ServeConfig { addr: "127.0.0.1:0".into(), ..config }).expect("bind ephemeral port")
}

fn call(server: &Server, method: &str, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    request(&stream, method, path, body).expect("request")
}

/// `call` that also surfaces the `Retry-After` header.
fn call_full(server: &Server, method: &str, path: &str, body: &str) -> (u16, Option<u64>, String) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ftes\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    read_response_full(&stream).expect("response")
}

/// Extracts the job id out of a `202` submission body.
fn job_id(body: &str) -> u64 {
    let rest = body.split("\"job\":").nth(1).unwrap_or_else(|| panic!("no job id in {body}"));
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect("job id")
}

/// Polls `GET /jobs/<id>` until the job reaches a terminal state.
fn poll_job(server: &Server, id: u64, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) = call(server, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        for terminal in ["completed", "failed", "cancelled"] {
            if body.contains(&format!("\"state\":\"{terminal}\"")) {
                return body;
            }
        }
        assert!(Instant::now() < deadline, "job {id} never reached a terminal state: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Slices the spliced terminal `result` value out of a status body.
fn extract_result(body: &str) -> &str {
    let start =
        body.find("\"result\":").expect("status body has a result field") + "\"result\":".len();
    let end = body.rfind(",\"error\":").expect("status body has an error field");
    &body[start..end]
}

#[test]
fn synthesize_reply_embeds_cli_identical_tables() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (status, body) = call(&server, "POST", "/synthesize", FIG5_SPEC);
    assert_eq!(status, 200, "{body}");

    // Derive the CLI-path result in-process: same parser, same flow, same
    // defaults as `ftes <spec> --csv`.
    let spec = parse_spec(FIG5_SPEC).unwrap();
    let config = FlowConfig { strategy: spec.strategy, ..FlowConfig::default() };
    let psi =
        synthesize_system(&spec.app, &spec.platform, spec.fault_model, &spec.transparency, config)
            .unwrap();
    let exact = psi.exact.as_ref().expect("fig5 gets exact tables");
    let expected_csv = tables_to_csv(&exact.tables, &exact.cpg);

    // The service body must embed those bytes exactly (JSON-escaped).
    let needle = format!("\"tables_csv\":\"{}\"", escaped(&expected_csv));
    assert!(body.contains(&needle), "service CSV diverges from the CLI path");
    assert!(body.contains("\"schedulable\":true"));
    assert!(body.contains("\"strategy\":\"MXR\""));
    assert!(body.contains(&format!("\"worst_case\":{}", psi.worst_case_length().units())));
}

#[test]
fn concurrent_clients_get_identical_bodies() {
    let server = test_server(ServeConfig { workers: 4, ..ServeConfig::default() });
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let server = &server;
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || call(server, "POST", "/synthesize", FIG5_SPEC)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(bodies.len(), 8);
    for (status, body) in &bodies {
        assert_eq!(*status, 200);
        assert_eq!(body, &bodies[0].1, "all concurrent replies must be byte-identical");
    }
}

#[test]
fn equivalent_specs_share_a_cache_entry() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let reformatted = format!("# twin\n\n{FIG5_SPEC}\n# end\n");

    let (s1, b1) = call(&server, "POST", "/synthesize", FIG5_SPEC);
    let (s2, b2) = call(&server, "POST", "/synthesize", FIG5_SPEC);
    let (s3, b3) = call(&server, "POST", "/synthesize", &reformatted);
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert_eq!(b1, b2, "verbatim repeat is served from cache");
    assert_eq!(b1, b3, "equivalent spec canonicalizes onto the same entry");

    let stats = server.cache_stats();
    assert_eq!(stats.misses, 1, "one synthesis for three requests");
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.entries, 1);

    // The /metrics endpoint reports the same accounting.
    let (status, metrics) = call(&server, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"hits\":2"), "{metrics}");
    assert!(metrics.contains("\"misses\":1"), "{metrics}");
}

#[test]
fn metrics_expose_phase_timings_and_the_evaluator_bank() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    // Two specs with the same (app, platform, k) but different strategies:
    // the response cache keeps them apart, the evaluator bank shares one
    // warm kernel between them.
    let mx_spec = FIG5_SPEC.replace("strategy mxr", "strategy mx");
    assert_ne!(mx_spec, FIG5_SPEC);
    let (s1, _) = call(&server, "POST", "/synthesize", FIG5_SPEC);
    let (s2, _) = call(&server, "POST", "/synthesize", &mx_spec);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(server.cache_stats().misses, 2, "different strategies are distinct responses");

    let (status, metrics) = call(&server, "GET", "/metrics", "");
    assert_eq!(status, 200);
    // Phase counters: both uncached requests parsed, optimized, built a
    // CPG and scheduled (fig5 fits the exact budget).
    assert!(metrics.contains("\"phases_us\""), "{metrics}");
    for phase in ["parse", "optimize", "cpg", "schedule"] {
        let needle = format!("\"{phase}\":{{\"total\":");
        assert!(metrics.contains(&needle), "missing phase {phase}: {metrics}");
    }
    assert!(!metrics.contains("\"optimize\":{\"total\":0,"), "optimize did real work: {metrics}");
    // Evaluator bank: first request misses, second checks the kernel out.
    assert!(
        metrics.contains("\"evaluator_bank\":{\"hits\":1,\"misses\":1,\"banked\":1"),
        "{metrics}"
    );
}

/// Scrapes `path` until `needle` shows up or a short deadline passes, and
/// returns the last scrape. Workers record a request's latency only after
/// replying, so a scrape right after the reply can miss it.
fn scrape_until(server: &Server, path: &str, needle: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let (status, body) = call(server, "GET", path, "");
        assert_eq!(status, 200, "{body}");
        if body.contains(needle) || Instant::now() >= deadline {
            return body;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn metrics_json_carries_p90_and_the_per_endpoint_breakdown() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (status, _) = call(&server, "POST", "/synthesize", FIG5_SPEC);
    assert_eq!(status, 200);
    let served = "\"latency_by_endpoint\":{\"synthesize\":{\"served\":1,";
    let metrics = scrape_until(&server, "/metrics", served);
    assert!(metrics.contains("\"p90\":"), "{metrics}");
    assert!(metrics.contains(served), "{metrics}");
    assert!(metrics.contains("\"journal_appends\":"), "{metrics}");
    // `?format=json` is the explicit spelling of the default.
    let (status, same_shape) = call(&server, "GET", "/metrics?format=json", "");
    assert_eq!(status, 200);
    assert!(same_shape.contains("\"latency_by_endpoint\""), "{same_shape}");
    // Unknown formats are a client error, not a silent JSON fallback.
    let (status, body) = call(&server, "GET", "/metrics?format=xml", "");
    assert_eq!(status, 400, "{body}");
}

#[test]
fn prometheus_exposition_is_valid_and_pins_the_family_set() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (status, _) = call(&server, "POST", "/synthesize", FIG5_SPEC);
    assert_eq!(status, 200);
    let served = "ftes_request_duration_microseconds_count{endpoint=\"synthesize\"} 1";
    scrape_until(&server, "/metrics?format=prometheus", served);

    // Raw read: the exposition must go out as text/plain, not JSON.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
        .write_all(
            b"GET /metrics?format=prometheus HTTP/1.1\r\nHost: ftes\r\n\
              Content-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = String::new();
    use std::io::Read as _;
    (&stream).read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert!(
        raw.contains(&format!("Content-Type: {}\r\n", ftes_serve::PROMETHEUS_CONTENT_TYPE)),
        "{raw}"
    );
    let body = raw.split("\r\n\r\n").nth(1).expect("body");

    // The format checker enforces HELP/TYPE ordering, sample syntax and
    // histogram bucket/count consistency; the golden set below is the
    // scrape contract — extending it is fine, renaming a family is not.
    let families = ftes_serve::validate_prometheus(body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let expected: std::collections::BTreeSet<String> = [
        "ftes_cache_entries",
        "ftes_cache_hits_total",
        "ftes_cache_misses_total",
        "ftes_certifications_total",
        "ftes_evaluator_bank_banked",
        "ftes_evaluator_bank_hits_total",
        "ftes_evaluator_bank_misses_total",
        "ftes_jobs",
        "ftes_jobs_queue_capacity",
        "ftes_jobs_queue_depth",
        "ftes_jobs_replayed_total",
        "ftes_jobs_resumed_total",
        "ftes_journal_append_microseconds_total",
        "ftes_journal_appends_total",
        "ftes_journal_bytes_total",
        "ftes_phase_microseconds_total",
        "ftes_phase_runs_total",
        "ftes_queue_depth",
        "ftes_repair_rounds_total",
        "ftes_request_duration_microseconds",
        "ftes_requests_total",
        "ftes_responses_total",
        "ftes_trace_events_dropped_total",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(families, expected);

    // The one synthesize request this test made shows up in the scrape.
    assert!(body.contains("ftes_requests_total{endpoint=\"synthesize\"} 1"), "{body}");
    assert!(
        body.contains("ftes_request_duration_microseconds_count{endpoint=\"synthesize\"} 1"),
        "{body}"
    );
}

#[test]
fn explore_jobs_complete_with_the_direct_suite_report() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    // Malformed bodies and empty workloads are rejected at submit time; an
    // empty platform would otherwise panic the one job worker during
    // workload generation and leave the valid job below queued forever.
    for bad in ["processes=banana", "processes=4 nodes=0 k=1", "processes=0 nodes=2 k=1"] {
        let (status, body) = call(&server, "POST", "/explore", bad);
        assert_eq!(status, 400, "{bad}: {body}");
    }
    let params = "processes=8 nodes=2 k=1 rounds=2 iters=4 seed=5";
    let (status, body) = call(&server, "POST", "/explore", &format!("{params} threads=2"));
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"state\":\"queued\""), "{body}");
    let id = job_id(&body);
    let done = poll_job(&server, id, Duration::from_secs(300));
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    assert!(done.contains("\"rows_done\":1"), "one grid point streams one row: {done}");

    // Raw byte-parity with the library path, across the thread split: the
    // job ran on two threads, the direct report on one.
    let config = ftes_serve::parse_explore_request(&format!("{params} threads=1")).unwrap();
    let direct = ftes::explore::suite_to_json(&ftes::explore::run_suite(&config).unwrap());
    assert_eq!(extract_result(&done), direct.trim_end());
}

#[test]
fn queue_full_returns_429_and_recovers() {
    let server = test_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        io_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    });

    // Occupy the single worker and the single queue slot with idle
    // connections (the worker blocks reading a request that never comes).
    let idle: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(server.addr()).expect("connect")).collect();

    // The acceptor processes connections sequentially; retry until both
    // idles are placed and the probe is shed with 429.
    let mut saw_429 = false;
    for _ in 0..100 {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        match request(&stream, "GET", "/healthz", "") {
            Ok((429, body)) => {
                assert!(body.contains("queue full"), "{body}");
                saw_429 = true;
                break;
            }
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(saw_429, "full queue must shed load with 429");
    assert!(server.metrics().rejected_429 >= 1);

    // Dropping the idle connections frees the worker; service recovers.
    drop(idle);
    let mut recovered = false;
    for _ in 0..100 {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        if let Ok((200, _)) = request(&stream, "GET", "/healthz", "") {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(recovered, "service must recover once the queue drains");
}

#[test]
fn malformed_requests_get_4xx() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });

    let (status, body) = call(&server, "GET", "/nope", "");
    assert_eq!(status, 404, "{body}");

    let (status, _) = call(&server, "DELETE", "/synthesize", "");
    assert_eq!(status, 405);

    let (status, body) = call(&server, "POST", "/synthesize", "nodes 2\nbogus directive\n");
    assert_eq!(status, 400);
    assert!(body.contains("unknown directive"), "{body}");

    let (status, body) = call(&server, "POST", "/explore", "processes=banana");
    assert_eq!(status, 400);
    assert!(body.contains("bad number"), "{body}");

    // POST without Content-Length → 411 (raw request, bypassing the client
    // helper which always sends one).
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(b"POST /synthesize HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (status, _) = read_response(&stream).unwrap();
    assert_eq!(status, 411);

    // Garbage request line → 400.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(b"COMPLETE NONSENSE\r\n\r\n").unwrap();
    let (status, _) = read_response(&stream).unwrap();
    assert_eq!(status, 400);

    // 4xx traffic lands in the metrics status classes. Workers record a
    // request only after replying, so give the last one a moment.
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.metrics().status_4xx < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.metrics().status_4xx >= 5);
}

#[test]
fn out_of_range_spec_sizes_get_400_and_the_daemon_lives() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    // A spec declaring 10^11 nodes used to abort the daemon on a failed
    // allocation: the reply came back empty and the next connection was
    // refused.
    let bodies = [
        "nodes 100000000000\ndeadline 100\nk 1\nprocess a wcet 5\n",
        "nodes -1\ndeadline 100\nk 1\nprocess a wcet 5\n",
        "nodes 2\ndeadline 100\nk -1\nprocess a wcet 5 5\n",
        "nodes 2\ndeadline 100\nk 100000\nprocess a wcet 5 5\n",
    ];
    for spec in bodies {
        let (status, body) = call(&server, "POST", "/synthesize", spec);
        assert_eq!(status, 400, "{spec}: {body}");
        assert!(body.contains("is outside"), "{body}");
    }
    let (status, body) = call(&server, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn overflowing_spec_times_get_400_and_the_daemon_lives() {
    // One worker: a `chi` this large used to overflow `Time` addition. A
    // debug build answered 500; a release build hung the worker, and every
    // later request timed out behind it.
    let server = test_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let spec = "nodes 2\nslot 8\ndeadline 400\nk 1\n\
                process P1 wcet 30 30 alpha 5 mu 5 chi 9223372036854775800\n\
                process P2 wcet 25 25\nmessage m0 P1 P2 1\n";
    let (status, body) = call(&server, "POST", "/synthesize", spec);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    let (status, body) = call(&server, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn a_trickling_client_cannot_hold_a_worker_past_io_timeout() {
    // One worker and a short request deadline. The trickling client
    // connects first, so the worker takes its connection first; it then
    // sends one header byte every 100 ms for four seconds, each byte well
    // within the deadline of the one before.
    let server = test_server(ServeConfig {
        workers: 1,
        io_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let mut slow = TcpStream::connect(server.addr()).expect("connect");
    slow.write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ").unwrap();
    let trickle = std::thread::spawn(move || {
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(100));
            if slow.write_all(b"x").is_err() {
                break; // the server gave up on the request and closed
            }
        }
    });
    let started = Instant::now();
    let (status, body) = call(&server, "GET", "/healthz", "");
    let waited = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(waited < Duration::from_secs(2), "/healthz waited {waited:?} behind the trickle");
    trickle.join().unwrap();
}

#[test]
fn healthz_reports_capacity() {
    let server =
        test_server(ServeConfig { workers: 3, queue_capacity: 17, ..ServeConfig::default() });
    let (status, body) = call(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"workers\":3"), "{body}");
    assert!(body.contains("\"queue_capacity\":17"), "{body}");
}

#[test]
fn corpus_catalog_lists_every_builtin_family() {
    use ftes::gen::corpus::Family;
    let server = test_server(ServeConfig::default());
    let (status, body) = call(&server, "GET", "/corpus", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"default_seed\":7"), "{body}");
    for family in Family::ALL {
        assert!(body.contains(&format!("\"name\":\"{}\"", family.name())), "{body}");
    }
    // Member parameters are machine-usable (the documented catalog shape).
    assert!(body.contains("\"processes\":"), "{body}");
    assert!(body.contains("\"strategy\":\"mr\""), "{body}");
    // The catalog is static: repeated requests are byte-identical.
    let (_, again) = call(&server, "GET", "/corpus", "");
    assert_eq!(body, again);
    // Wrong method is a 405, like every other endpoint.
    let (status, _) = call(&server, "POST", "/corpus", "x=1");
    assert_eq!(status, 405);
    // And the per-endpoint request counter tracks it.
    let (_, metrics) = call(&server, "GET", "/metrics", "");
    assert!(metrics.contains("\"corpus\":2"), "{metrics}");
}

#[test]
fn synthesize_jobs_match_the_synchronous_endpoint_byte_for_byte() {
    let server = test_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (status, sync_body) = call(&server, "POST", "/synthesize", FIG5_SPEC);
    assert_eq!(status, 200);

    let (status, body) = call(&server, "POST", "/jobs", FIG5_SPEC);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    let done = poll_job(&server, id, Duration::from_secs(120));
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    assert_eq!(
        extract_result(&done),
        sync_body.trim_end(),
        "async result must carry exactly the synchronous bytes"
    );

    // The listing knows the job; unknown ids are 404.
    let (status, list) = call(&server, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(list.contains(&format!("\"job\":{id}")), "{list}");
    assert!(list.contains("\"kind\":\"synthesize\""), "{list}");
    let (status, _) = call(&server, "GET", "/jobs/999", "");
    assert_eq!(status, 404);

    // Cancelling a terminal job is a no-op, reported as such.
    let (status, cancel) = call(&server, "DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    assert!(cancel.contains("\"cancelled\":false"), "{cancel}");

    // The executor's lifecycle counters surface on /metrics.
    let (_, metrics) = call(&server, "GET", "/metrics", "");
    assert!(metrics.contains("\"jobs\":{"), "{metrics}");
    assert!(metrics.contains("\"completed\":1"), "{metrics}");
}

#[test]
fn full_job_queue_sheds_submissions_with_retry_after() {
    let server = test_server(ServeConfig {
        workers: 2,
        job_workers: 1,
        job_queue_capacity: 1,
        ..ServeConfig::default()
    });
    // One slow suite occupies the single job worker, the next fills the
    // one-slot queue; a submission after that must shed with 429.
    let params = "processes=8 nodes=2 k=1 rounds=2 iters=6 seeds=2";
    let mut shed = None;
    for _ in 0..16 {
        let (status, retry_after, body) = call_full(&server, "POST", "/explore", params);
        if status == 429 {
            shed = Some((retry_after, body));
            break;
        }
        assert_eq!(status, 202, "{body}");
    }
    let (retry_after, body) = shed.expect("a bounded job queue must shed submissions");
    assert_eq!(retry_after, Some(1), "429 carries Retry-After for client backoff");
    assert!(body.contains("\"queue_depth\":"), "{body}");
    assert!(body.contains("queue full"), "{body}");
}

#[test]
fn corpus_run_submissions_validate_and_cancel_at_row_boundaries() {
    let server = test_server(ServeConfig::default());
    let (status, body) = call(&server, "POST", "/corpus/run", "family=westeros");
    assert_eq!(status, 400);
    assert!(body.contains("unknown corpus family"), "{body}");
    let (status, _) = call(&server, "POST", "/corpus/run", "workers=0");
    assert_eq!(status, 400);

    let (status, body) = call(&server, "POST", "/corpus/run", "family=automotive workers=2");
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    // Cancel right away: the worker stops at its next row boundary (or the
    // job slipped through to completion first — both are healthy ends).
    let (status, cancel) = call(&server, "DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200, "{cancel}");
    let done = poll_job(&server, id, Duration::from_secs(300));
    assert!(!done.contains("\"state\":\"failed\""), "{done}");
}

#[test]
fn a_restarted_daemon_replays_terminal_jobs_from_its_journal() {
    let dir = std::env::temp_dir().join(format!("ftes-serve-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        ServeConfig { workers: 2, journal_dir: Some(dir.clone()), ..ServeConfig::default() };
    let (id, first) = {
        let server = test_server(config.clone());
        let (status, body) = call(&server, "POST", "/jobs", FIG5_SPEC);
        assert_eq!(status, 202, "{body}");
        let id = job_id(&body);
        let done = poll_job(&server, id, Duration::from_secs(120));
        assert!(done.contains("\"state\":\"completed\""), "{done}");
        server.shutdown();
        (id, done)
    };

    // Same journal directory: the job is back, terminal, byte-identical —
    // without re-running any synthesis.
    let server = test_server(config);
    let replayed = poll_job(&server, id, Duration::from_secs(10));
    assert!(replayed.contains("\"state\":\"completed\""), "{replayed}");
    assert_eq!(extract_result(&replayed), extract_result(&first));
    let (_, metrics) = call(&server, "GET", "/metrics", "");
    assert!(metrics.contains("\"replayed\":1"), "{metrics}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ISSUE acceptance run: ≥ 8 concurrent clients, zero failures,
/// cache hit rate > 0 on the repeated-spec mix.
#[test]
fn load_harness_sustains_eight_clients_with_zero_failures() {
    let server = test_server(ServeConfig { workers: 4, ..ServeConfig::default() });
    let report = run_load(&LoadConfig {
        clients: 8,
        requests: 48,
        ..LoadConfig::against(server.addr().to_string())
    })
    .expect("load run");
    assert_eq!(report.sent, 48);
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(report.ok, 48);
    assert!(report.p99_us >= report.p50_us);
    assert!(report.throughput_rps() > 0.0);

    let stats = server.cache_stats();
    assert!(stats.hits > 0, "repeated-spec mix must produce cache hits: {stats:?}");
    assert!(stats.hit_rate() > 0.0);
    // Two equivalent specs → one canonical entry, one real synthesis
    // (modulo a benign race when several clients miss simultaneously).
    assert!(stats.entries <= 2, "{stats:?}");
    // 48 synthesize requests + the harness's own before/after /metrics
    // scrapes. Workers record *after* replying, so the last counter tick
    // can trail the client's read by a moment — wait it out, bounded.
    // A lower bound, not equality: the harness's closing scrape retries
    // (each one a /metrics request) whenever that same lag is visible to
    // it, so the exact 2xx count depends on scheduling.
    for _ in 0..100 {
        if server.metrics().status_2xx >= 50 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.metrics().status_2xx >= 50, "{:?}", server.metrics());

    // The before/after scrape delta attributes this run's requests to
    // their endpoints, with server-side latency.
    let synth = report
        .endpoints
        .iter()
        .find(|ep| ep.label == "synthesize")
        .expect("per-endpoint breakdown present: {report:?}");
    assert_eq!(synth.requests, 48);
    assert_eq!(synth.served, 48);
    assert!(synth.p99_us >= synth.p50_us);
}
