//! `serve_mix`: an in-process daemon (two workers) under an open loop at a
//! fixed rate below capacity. The seeded mix has three request kinds:
//! byte-identical repeats (result-cache hits), reformatted equivalents
//! (a parse, then a hit on the canonical key) and seed-unique misses
//! (corpus specs with a perturbed deadline: a full synthesis each). Each
//! request is timed from its scheduled send time, so a wait for a free
//! connection counts.

use crate::stats::{mean, median, pct, quantile, ratio, sorted, splitmix, summarize};
use crate::trace::{self, Layers};
use crate::{Figures, Report};
use ftes::obs::{self, names};
use ftes::sched::{EvaluatorStats, SystemEvaluator};
use ftes::spec::parse_spec;
use ftes::{synthesize_system_timed, FlowConfig};
use ftes_jobs::render_synthesis;
use ftes_serve::{start, ServeConfig};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Requests per second of the open loop; misses at this rate keep the two
/// workers well below saturation.
const RATE_PER_S: f64 = 60.0;
/// Corpora in the spec pool (25 specs each). Misses walk the whole pool,
/// repeats and equivalents draw from its first `HOT` specs: enough specs
/// that the mix of synthesis costs, and the latency tail, hold across seeds.
const CORPORA: u64 = 32;
const HOT: usize = 100;
/// Daemon workers, and the load generator's threads (= connections).
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Mix shares in percent; the rest are misses.
const REPEAT_PCT: usize = 25;
const EQUIVALENT_PCT: usize = 15;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How long before a send is due the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Repeat,
    Equivalent,
    Miss,
}

struct Request {
    due: Duration,
    kind: Kind,
    body: String,
    /// Index of the distinct spec whose reference body must come back.
    spec: usize,
}

/// A distinct spec of the run with its direct-flow reference.
struct Reference {
    body: String,
    certified: bool,
    schedulable: bool,
    wcl_over_deadline: f64,
    evals: EvaluatorStats,
    evaluator_new_us: f64,
}

fn with_deadline_raised(text: &str, by: i64) -> String {
    text.lines()
        .map(|line| {
            match line.strip_prefix("deadline ").and_then(|d| d.trim().parse::<i64>().ok()) {
                Some(d) => format!("deadline {}\n", d + by),
                None => format!("{line}\n"),
            }
        })
        .collect()
}

/// The same document, reformatted: a unique comment, blank lines, wider
/// spacing. It parses to the same canonical bytes.
fn reformatted(text: &str, id: usize) -> String {
    let mut out = format!("# equivalent request {id}\n\n");
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        out.push_str(&format!("  {}  \n\n", words.join("   ")));
    }
    out
}

/// The seeded request schedule: the distinct specs (the hot set first),
/// the size of the hot set, and the open-loop sends.
fn schedule(seed: u64, seconds: u64) -> (Vec<String>, usize, Vec<Request>) {
    let pool: Vec<String> =
        crate::corpus::inputs(seed, CORPORA).into_iter().map(|s| s.text).collect();
    let hot = &pool[..HOT];
    let n = (RATE_PER_S * seconds as f64) as usize;
    let repeats = n * REPEAT_PCT / 100;
    let equivalents = n * EQUIVALENT_PCT / 100;
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| match i {
            i if i < repeats => Kind::Repeat,
            i if i < repeats + equivalents => Kind::Equivalent,
            _ => Kind::Miss,
        })
        .collect();
    let mut rng = seed ^ 0x5e_12e0_11e5;
    for i in (1..n).rev() {
        kinds.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    let mut texts = hot.to_vec();
    let mut misses = 0usize;
    let requests = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let due = Duration::from_secs_f64(i as f64 / RATE_PER_S);
            let pick = (splitmix(&mut rng) % HOT as u64) as usize;
            let (body, spec) = match kind {
                Kind::Repeat => (hot[pick].clone(), pick),
                Kind::Equivalent => (reformatted(&hot[pick], i), pick),
                Kind::Miss => {
                    // The pool in order, each round with a new deadline, so
                    // the misses cover every family evenly.
                    let base = &pool[misses % pool.len()];
                    let text = with_deadline_raised(base, 1 + (misses / pool.len()) as i64);
                    misses += 1;
                    texts.push(text.clone());
                    (text, texts.len() - 1)
                }
            };
            Request { due, kind, body, spec }
        })
        .collect();
    (texts, HOT, requests)
}

/// The reference body of one spec from a direct flow, as the daemon
/// renders it.
fn reference(text: &str) -> Result<Reference, String> {
    let spec = parse_spec(text).map_err(|e| format!("parse: {e}"))?;
    let started = Instant::now();
    let mut evaluator = SystemEvaluator::new(&spec.app, &spec.platform, spec.fault_model.k());
    let evaluator_new_us = started.elapsed().as_secs_f64() * 1e6;
    let config = FlowConfig { strategy: spec.strategy, ..FlowConfig::default() };
    let (psi, _) =
        synthesize_system_timed(&mut evaluator, spec.fault_model, &spec.transparency, config)
            .map_err(|e| format!("synthesis: {e}"))?;
    Ok(Reference {
        body: render_synthesis(&spec, &psi),
        certified: psi.certification.is_certified(),
        schedulable: psi.schedulable,
        wcl_over_deadline: psi.worst_case_length().as_f64() / spec.app.deadline().as_f64(),
        evals: evaluator.stats(),
        evaluator_new_us,
    })
}

/// References for every distinct spec, computed on `CLIENTS` threads.
fn references(texts: &[String]) -> Result<Vec<Reference>, String> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<(usize, Result<Reference, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(text) = texts.get(i) else { break done };
                        done.push((i, reference(text)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference worker panicked")).collect()
    });
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, r)| r).collect()
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    let method = if body.is_empty() { "GET" } else { "POST" };
    ftes_serve::request(&stream, method, path, body).map_err(|e| format!("transport: {e}"))
}

/// The numbers read from `GET /metrics` (cumulative; deltas are taken).
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    cache_hits: f64,
    cache_misses: f64,
    bank_hits: f64,
    bank_misses: f64,
    rejected: f64,
    parse_us: f64,
    parses: f64,
    optimize_us: f64,
    optimizes: f64,
}

/// The number after `"key":` at the first occurrence of `path[last]`
/// following each earlier path element in `doc`.
fn number_at(doc: &str, path: &[&str]) -> Option<f64> {
    let mut at = 0;
    for key in path {
        at += doc[at..].find(&format!("\"{key}\":"))? + key.len() + 3;
    }
    let rest = &doc[at..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let (status, doc) = post(addr, "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let get =
        |path: &[&str]| number_at(&doc, path).ok_or_else(|| format!("/metrics lacks {path:?}"));
    Ok(Scrape {
        cache_hits: get(&["cache", "hits"])?,
        cache_misses: get(&["cache", "misses"])?,
        bank_hits: get(&["evaluator_bank", "hits"])?,
        bank_misses: get(&["evaluator_bank", "misses"])?,
        rejected: get(&["responses", "rejected_429"])?,
        parse_us: get(&["phases_us", "parse", "total"])?,
        parses: get(&["phases_us", "parse", "count"])?,
        optimize_us: get(&["phases_us", "optimize", "total"])?,
        optimizes: get(&["phases_us", "optimize", "count"])?,
    })
}

/// One completed request, as the client saw it.
struct Sample {
    kind: Kind,
    spec: usize,
    latency_ms: f64,
    late_ms: f64,
    ok: bool,
}

struct Drive {
    samples: Vec<Sample>,
    wall_s: f64,
}

/// Sends `requests` on their schedule from `CLIENTS` threads. A traced
/// drive drains the event stream from this thread while the clients run.
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    refs: &[Reference],
    layers: Option<&mut Layers>,
) -> Drive {
    let next = AtomicUsize::new(0);
    let offset = requests.first().map_or(Duration::ZERO, |r| r.due);
    let start = Instant::now() + Duration::from_millis(20);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = requests.get(i) else { break done };
                        let due = start + (r.due - offset);
                        wait_until(due);
                        let late_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let reply = {
                            let _span = obs::span(trace::REQUEST);
                            obs::counter(trace::ITEM_ID, i as u64);
                            post(addr, "/synthesize", &r.body)
                        };
                        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                        let ok = match &reply {
                            Ok((200, body)) => *body == refs[r.spec].body,
                            Ok((status, _)) => {
                                eprintln!("serve_mix: request {i} answered {status}");
                                false
                            }
                            Err(e) => {
                                eprintln!("serve_mix: request {i}: {e}");
                                false
                            }
                        };
                        if matches!(&reply, Ok((200, _))) && !ok {
                            eprintln!("serve_mix: request {i} body differs from its reference");
                        }
                        done.push(Sample { kind: r.kind, spec: r.spec, latency_ms, late_ms, ok });
                    }
                })
            })
            .collect();
        if let Some(l) = layers {
            while !handles.iter().all(|h| h.is_finished()) {
                std::thread::sleep(Duration::from_millis(20));
                l.drain();
            }
        }
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    Drive { samples, wall_s: start.elapsed().as_secs_f64() }
}

/// Sleeps until shortly before `due`, then spins: a sleep alone overshoots
/// by the timer slack, which would count as generator lateness.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn latencies(d: &Drive, kind: Option<Kind>) -> Vec<f64> {
    d.samples.iter().filter(|s| kind.is_none_or(|k| s.kind == k)).map(|s| s.latency_ms).collect()
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    // Set-up: the schedule, a direct-flow reference body per distinct spec,
    // and a daemon whose result cache already holds the hot set.
    let started = Instant::now();
    let (texts, hot, requests) = schedule(seed, seconds);
    let refs = references(&texts)?;
    let server = start(ServeConfig { workers: WORKERS, ..ServeConfig::default() })
        .map_err(|e| format!("start: {e}"))?;
    let addr = server.addr();
    let mut warm_failures = 0;
    for (text, r) in texts.iter().zip(&refs).take(hot) {
        if !matches!(post(addr, "/synthesize", text), Ok((200, body)) if body == r.body) {
            warm_failures += 1;
        }
    }
    let mut report = Report::new(started.elapsed().as_secs_f64());
    report.failed += warm_failures;
    report.attempted += hot as u64;

    // A traced run drives the first half of the schedule plain and the
    // second half traced, on the same warm daemon.
    let halves =
        if traced { requests.split_at(requests.len() / 2) } else { (&requests[..], &[][..]) };
    let plain = drive(addr, halves.0, &refs, None);
    let before = scrape(addr)?;
    let traced_drive = traced.then(|| {
        let mut layers = Layers::default();
        obs::set_enabled(true);
        let d = drive(addr, halves.1, &refs, Some(&mut layers));
        obs::set_enabled(false);
        layers.drain();
        (d, layers)
    });
    let after = scrape(addr)?;
    server.shutdown();

    for d in std::iter::once(&plain).chain(traced_drive.as_ref().map(|t| &t.0)) {
        report.attempted += d.samples.len() as u64;
        report.failed += d.samples.iter().filter(|s| !s.ok).count() as u64;
    }
    // Quality of the designs this run served (the bodies matched these).
    let n = refs.len().max(1) as f64;
    let all = summarize(&latencies(&plain, None));
    let miss = summarize(&latencies(&plain, Some(Kind::Miss)));
    report.figures = Figures::quality(
        refs.iter().filter(|r| r.certified).count() as f64 / n,
        refs.iter().filter(|r| r.schedulable).count() as f64 / n,
        mean(&refs.iter().map(|r| r.wcl_over_deadline).collect::<Vec<_>>()),
    )
    .with("throughput_per_s", plain.samples.len() as f64 / plain.wall_s)
    .with("latency_ms_p50", all.p50)
    .with("latency_ms_p90", all.p90)
    .with("miss_latency_ms_p50", miss.p50);
    let late = summarize(&plain.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>());
    report.note(format!(
        "serve_mix: {} requests at {RATE_PER_S}/s, {} misses; p{} = {:.3} ms, miss p{} = {:.3} ms, \
         repeat p50 = {:.3} ms, generator late p99 = {:.3} ms",
        all.n,
        miss.n,
        all.tail_pct,
        all.tail,
        miss.tail_pct,
        miss.tail,
        median(&latencies(&plain, Some(Kind::Repeat))),
        late.p99
    ));

    if let Some((d, l)) = traced_drive {
        report.figures.extend(layer_figures(&plain, &d, &l, &refs, before, after));
    }
    Ok(report)
}

fn layer_figures(
    plain: &Drive,
    d: &Drive,
    l: &Layers,
    refs: &[Reference],
    before: Scrape,
    after: Scrape,
) -> Figures {
    let misses: Vec<&Sample> = d.samples.iter().filter(|s| s.kind == Kind::Miss).collect();
    let items = misses.len() as f64;
    let evals = misses.iter().fold(EvaluatorStats::default(), |a, s| a.merged(refs[s.spec].evals));
    let durations = |name: &str| {
        sorted(
            &l.roots
                .iter()
                .filter(|r| r.name == name)
                .map(|r| (r.end_ns - r.start_ns) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let server_us = quantile(&durations(names::SERVE_REQUEST), 0.5);
    let client_us = quantile(&durations(trace::REQUEST), 0.5);
    let in_system_ms: f64 = latencies(d, None).iter().sum();
    let optimize_ms = (after.optimize_us - before.optimize_us) / 1e3;
    let cache_hits = after.cache_hits - before.cache_hits;
    let bank_hits = after.bank_hits - before.bank_hits;
    let miss_p50 = |d: &Drive| median(&latencies(d, Some(Kind::Miss)));
    Figures::default()
        .with(
            "spec.parse_us",
            ratio(after.parse_us - before.parse_us, after.parses - before.parses),
        )
        .with(
            "sched.evaluator_new_us",
            mean(&misses.iter().map(|s| refs[s.spec].evaluator_new_us).collect::<Vec<_>>()),
        )
        .with_evaluator(&evals, items)
        .with_program_layers(l, items)
        .with("opt.optimize_ms", ratio(optimize_ms, after.optimizes - before.optimizes))
        .with("opt.ns_per_evaluation", 1e6 * ratio(optimize_ms, evals.evaluations() as f64))
        .with("serve.server_p50_us", server_us)
        .with(
            "serve.cache_hit_rate",
            ratio(cache_hits, cache_hits + after.cache_misses - before.cache_misses),
        )
        .with(
            "serve.bank_hit_rate",
            ratio(bank_hits, bank_hits + after.bank_misses - before.bank_misses),
        )
        .with("serve.phase_optimize_ms", ratio(optimize_ms, after.optimizes - before.optimizes))
        .with("serve.rejected_429", after.rejected - before.rejected)
        .with("serve.transport_us", client_us - server_us)
        .with(
            "serve.gen_late_ms_p99",
            quantile(&sorted(&d.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>()), 0.99),
        )
        .with("obs.trace_overhead_pct", pct(miss_p50(d), miss_p50(plain)) - 100.0)
        .with("trace.attributed_pct", pct(l.total_ms(trace::REQUEST), in_system_ms))
        .with("trace.opt_share_pct", pct(optimize_ms, in_system_ms))
        .with("trace.certify_share_pct", pct(l.total_ms(names::CERTIFY), in_system_ms))
}
