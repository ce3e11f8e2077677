//! Typed job requests: the three job kinds the executor runs, their
//! submit-time validation, and their lossless journal encoding.
//!
//! This module also owns the `/explore` parameter grammar
//! ([`parse_explore_request`]), so the HTTP daemon and the executor
//! validate explore work in exactly one place (`ftes-serve` re-exports
//! it for its clients).

use ftes::corpus::CorpusJob;
use ftes::explore::{paper_grid, PortfolioConfig, ScenarioPoint, SuiteConfig, VerifyConfig};
use ftes::model::Time;
use ftes::spec::parse_spec;

/// The job vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One `.ftes` document through the certify-and-repair flow.
    Synthesize,
    /// A scenario-suite sweep (the `/explore` grammar).
    ExploreSuite,
    /// A corpus batch run with streamed CSV rows.
    CorpusRun,
}

impl JobKind {
    /// Stable lowercase label (JSON fields, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Synthesize => "synthesize",
            JobKind::ExploreSuite => "explore",
            JobKind::CorpusRun => "corpus",
        }
    }
}

/// One validated, journal-encodable job request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// Synthesize one `.ftes` document.
    Synthesize {
        /// The document text.
        spec: String,
    },
    /// Run a scenario suite described in the `/explore` grammar.
    ExploreSuite {
        /// Whitespace-separated `key=value` parameters
        /// (see [`parse_explore_request`]).
        params: String,
    },
    /// Run a corpus of named `.ftes` documents.
    CorpusRun {
        /// The corpus jobs, in run order.
        jobs: Vec<CorpusJob>,
        /// Bounded worker count for the batch.
        workers: usize,
    },
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_str(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    let len_end = at.checked_add(4).ok_or("truncated string length")?;
    let arr: [u8; 4] =
        bytes.get(*at..len_end).and_then(|s| s.try_into().ok()).ok_or("truncated string length")?;
    let len = u32::from_le_bytes(arr) as usize;
    *at = len_end;
    let end = at.checked_add(len).filter(|&e| e <= bytes.len()).ok_or("string overruns request")?;
    let s = std::str::from_utf8(&bytes[*at..end]).map_err(|_| "string is not UTF-8")?;
    *at = end;
    Ok(s.to_string())
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, String> {
    let end = at.checked_add(8).ok_or("truncated u64")?;
    let arr: [u8; 8] =
        bytes.get(*at..end).and_then(|s| s.try_into().ok()).ok_or("truncated u64")?;
    *at = end;
    Ok(u64::from_le_bytes(arr))
}

const REQ_SYNTHESIZE: u8 = 1;
const REQ_EXPLORE: u8 = 2;
const REQ_CORPUS: u8 = 3;

impl JobRequest {
    /// The request's kind.
    pub fn kind(&self) -> JobKind {
        match self {
            JobRequest::Synthesize { .. } => JobKind::Synthesize,
            JobRequest::ExploreSuite { .. } => JobKind::ExploreSuite,
            JobRequest::CorpusRun { .. } => JobKind::CorpusRun,
        }
    }

    /// Submit-time validation: a request the executor would only discover
    /// to be malformed mid-run is rejected here, before it is accepted
    /// (and journaled). The executor re-parses on execution — validation
    /// guarantees that parse succeeds.
    ///
    /// # Errors
    ///
    /// A client-facing description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JobRequest::Synthesize { spec } => {
                parse_spec(spec).map(|_| ()).map_err(|e| format!("spec: {e}"))
            }
            JobRequest::ExploreSuite { params } => parse_explore_request(params).map(|_| ()),
            JobRequest::CorpusRun { jobs, workers } => {
                if jobs.is_empty() {
                    return Err("corpus run has no jobs".to_string());
                }
                if *workers == 0 || *workers as u64 > limits::CORPUS_WORKERS {
                    return Err(format!(
                        "workers={workers} outside 1..={}",
                        limits::CORPUS_WORKERS
                    ));
                }
                for job in jobs {
                    if !CorpusJob::csv_safe(&job.name) || !CorpusJob::csv_safe(&job.family) {
                        return Err(format!(
                            "corpus job `{}` has a CSV-unsafe label",
                            job.name.replace([',', '\n', '\r'], "_")
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Lossless binary encoding for the journal.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            JobRequest::Synthesize { spec } => {
                out.push(REQ_SYNTHESIZE);
                push_str(&mut out, spec);
            }
            JobRequest::ExploreSuite { params } => {
                out.push(REQ_EXPLORE);
                push_str(&mut out, params);
            }
            JobRequest::CorpusRun { jobs, workers } => {
                out.push(REQ_CORPUS);
                out.extend_from_slice(&(*workers as u64).to_le_bytes());
                out.extend_from_slice(&(jobs.len() as u64).to_le_bytes());
                for job in jobs {
                    push_str(&mut out, &job.name);
                    push_str(&mut out, &job.family);
                    push_str(&mut out, &job.text);
                }
            }
        }
        out
    }

    /// Decodes an [`encode`](JobRequest::encode)d request.
    ///
    /// # Errors
    ///
    /// A description when the bytes are malformed (the journal scanner
    /// treats that as a torn record).
    pub fn decode(bytes: &[u8]) -> Result<JobRequest, String> {
        let mut at = 0usize;
        let kind = *bytes.first().ok_or("empty request")?;
        at += 1;
        let request = match kind {
            REQ_SYNTHESIZE => JobRequest::Synthesize { spec: take_str(bytes, &mut at)? },
            REQ_EXPLORE => JobRequest::ExploreSuite { params: take_str(bytes, &mut at)? },
            REQ_CORPUS => {
                let workers = take_u64(bytes, &mut at)? as usize;
                let count = take_u64(bytes, &mut at)?;
                if count > 1_000_000 {
                    return Err(format!("implausible corpus job count {count}"));
                }
                let mut jobs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let name = take_str(bytes, &mut at)?;
                    let family = take_str(bytes, &mut at)?;
                    let text = take_str(bytes, &mut at)?;
                    jobs.push(CorpusJob { name, family, text });
                }
                JobRequest::CorpusRun { jobs, workers }
            }
            other => return Err(format!("unknown request type {other}")),
        };
        if at != bytes.len() {
            return Err(format!("{} trailing bytes after request", bytes.len() - at));
        }
        Ok(request)
    }
}

/// Upper bounds on client-controlled work-scaling parameters. The CLI
/// trusts its operator with these knobs; a service must not — an
/// unclamped `seeds` or `threads` lets one small request allocate or
/// spawn without limit. The caps comfortably cover the paper grid
/// (100 processes, 6 nodes, k = 7).
pub mod limits {
    /// Application size cap.
    pub const PROCESSES: u64 = 200;
    /// Platform size cap (the `.ftes` parser's).
    pub const NODES: u64 = ftes::spec::MAX_NODES as u64;
    /// Fault-budget cap (the `.ftes` parser's).
    pub const K: u64 = ftes::spec::MAX_K as u64;
    /// Seeds-per-point cap.
    pub const SEEDS: u64 = 64;
    /// Search-round cap.
    pub const ROUNDS: u64 = 64;
    /// Iterations-per-round cap.
    pub const ITERS: u64 = 1_000;
    /// `run_suite` divides the thread budget across concurrent points
    /// (`threads / point_par` each), so one request's peak OS-thread count
    /// is ≈ `POINT_PAR + THREADS`; with a full worker pool the host sees
    /// at most `workers ×` that, which these caps keep modest.
    pub const THREADS: u64 = 32;
    /// Concurrent-point cap.
    pub const POINT_PAR: u64 = 16;
    /// Corpus-run worker cap (same rationale as [`THREADS`]).
    pub const CORPUS_WORKERS: u64 = 32;
    /// Aggregate ceiling: Σ(point processes) × rounds × iters. Per-knob
    /// caps alone still admit hour-scale products (64 seeds × 64 rounds ×
    /// 1000 iters); this bounds the whole job. The default paper grid
    /// costs 36 000 units, so the budget leaves two orders of magnitude
    /// of headroom for legitimate sweeps.
    pub const WORK_BUDGET: u64 = 5_000_000;
}

/// Parses an explore request body: whitespace-separated `key=value`
/// tokens mirroring the `ftes explore` flags (`grid=paper` or
/// `processes=N nodes=N k=K`, plus `seeds`, `seed`, `rounds`, `iters`,
/// `threads`, `point_par`, `verify=true`, `certify=false`,
/// `certify_guided=true` — the latter certifies incumbents *inside* the
/// search instead of post hoc). Work-scaling parameters are
/// bounded (see [`limits`]) and an empty workload (`processes=0` or
/// `nodes=0`) is refused; out-of-range values are a client error, not a
/// clamp.
///
/// # Errors
///
/// A client-facing description of the first bad token.
pub fn parse_explore_request(text: &str) -> Result<SuiteConfig, String> {
    let mut processes: Option<usize> = None;
    let mut nodes: Option<usize> = None;
    let mut k: Option<u32> = None;
    let mut seeds: u64 = 1;
    let mut grid_paper = false;
    let mut portfolio = PortfolioConfig::default();
    let mut point_parallelism = 1usize;
    let mut verify = None;
    let mut certify = true;

    for token in text.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("expected key=value, got `{token}`"));
        };
        let bounded = |min: u64, max: u64| -> Result<u64, String> {
            let n: u64 = value.parse().map_err(|_| format!("bad number `{value}` for {key}"))?;
            if n < min || n > max {
                return Err(format!("{key}={n} is outside the service limits {min}..={max}"));
            }
            Ok(n)
        };
        match key {
            "grid" => {
                if value != "paper" {
                    return Err(format!("unknown grid `{value}` (only `paper`)"));
                }
                grid_paper = true;
            }
            "processes" => processes = Some(bounded(1, limits::PROCESSES)? as usize),
            "nodes" => nodes = Some(bounded(1, limits::NODES)? as usize),
            "k" => k = Some(bounded(0, limits::K)? as u32),
            "seeds" => seeds = bounded(0, limits::SEEDS)?.max(1),
            "seed" => {
                // The PRNG seed scales no work; any u64 is fine.
                portfolio.seed =
                    value.parse().map_err(|_| format!("bad number `{value}` for {key}"))?;
            }
            "threads" => portfolio.threads = (bounded(0, limits::THREADS)? as usize).max(1),
            "point_par" => point_parallelism = (bounded(0, limits::POINT_PAR)? as usize).max(1),
            "rounds" => portfolio.rounds = (bounded(0, limits::ROUNDS)? as usize).max(1),
            "iters" => {
                portfolio.iterations_per_round = (bounded(0, limits::ITERS)? as usize).max(1)
            }
            "verify" => {
                verify = match value {
                    "true" => Some(VerifyConfig::default()),
                    "false" => None,
                    other => return Err(format!("bad bool `{other}` for verify")),
                }
            }
            "certify" => {
                certify = match value {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("bad bool `{other}` for certify")),
                }
            }
            "certify_guided" => {
                portfolio.certify_guided = match value {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("bad bool `{other}` for certify_guided")),
                }
            }
            other => return Err(format!("unknown explore parameter `{other}`")),
        }
    }

    let custom = processes.is_some() || nodes.is_some() || k.is_some();
    if grid_paper && custom {
        return Err("grid=paper conflicts with processes/nodes/k".into());
    }
    let points = if custom {
        let processes = processes.ok_or("processes is required for a custom point")?;
        let nodes = nodes.ok_or("nodes is required for a custom point")?;
        let k = k.ok_or("k is required for a custom point")?;
        (0..seeds).map(|seed| ScenarioPoint { processes, nodes, k, seed }).collect()
    } else {
        paper_grid(seeds)
    };
    let work = points.iter().map(|p| p.processes as u64).sum::<u64>()
        * portfolio.rounds as u64
        * portfolio.iterations_per_round as u64;
    if work > limits::WORK_BUDGET {
        return Err(format!(
            "request expands to {work} process-iterations, over the service budget of {} \
             — reduce seeds, rounds or iters",
            limits::WORK_BUDGET
        ));
    }
    Ok(SuiteConfig { points, portfolio, point_parallelism, slot: Time::new(8), verify, certify })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> String {
        "nodes 2\nslot 8\ndeadline 500\nk 1\nstrategy mxr\n\
         process A wcet 10 12 alpha 1 mu 1 chi 1\n\
         process B wcet 8 8 alpha 1 mu 1 chi 1\n\
         message m0 A B 1\n"
            .to_string()
    }

    #[test]
    fn requests_round_trip_through_the_encoding() {
        let requests = vec![
            JobRequest::Synthesize { spec: tiny_spec() },
            JobRequest::ExploreSuite { params: "processes=8 nodes=2 k=1 rounds=2".into() },
            JobRequest::CorpusRun {
                jobs: vec![
                    CorpusJob { name: "a.ftes".into(), family: "test".into(), text: tiny_spec() },
                    CorpusJob { name: "b.ftes".into(), family: "test".into(), text: tiny_spec() },
                ],
                workers: 2,
            },
        ];
        for request in requests {
            let bytes = request.encode();
            assert_eq!(JobRequest::decode(&bytes).unwrap(), request);
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(JobRequest::decode(&longer).is_err());
        }
        assert!(JobRequest::decode(&[]).is_err());
        assert!(JobRequest::decode(&[77]).is_err());
    }

    #[test]
    fn validation_rejects_what_execution_could_not_run() {
        assert!(JobRequest::Synthesize { spec: tiny_spec() }.validate().is_ok());
        let err = JobRequest::Synthesize { spec: "bogus".into() }.validate().unwrap_err();
        assert!(err.contains("spec"), "{err}");

        assert!(JobRequest::ExploreSuite { params: "processes=8 nodes=2 k=1".into() }
            .validate()
            .is_ok());
        assert!(JobRequest::ExploreSuite { params: "processes=banana".into() }
            .validate()
            .unwrap_err()
            .contains("bad number"));

        let job = CorpusJob { name: "a.ftes".into(), family: "f".into(), text: tiny_spec() };
        assert!(JobRequest::CorpusRun { jobs: vec![job.clone()], workers: 1 }.validate().is_ok());
        assert!(JobRequest::CorpusRun { jobs: vec![], workers: 1 }.validate().is_err());
        assert!(JobRequest::CorpusRun { jobs: vec![job.clone()], workers: 0 }.validate().is_err());
        assert!(JobRequest::CorpusRun { jobs: vec![job.clone()], workers: 10_000 }
            .validate()
            .is_err());
        let unsafe_job = CorpusJob { name: "a,b".into(), family: "f".into(), text: tiny_spec() };
        assert!(JobRequest::CorpusRun { jobs: vec![unsafe_job], workers: 1 }.validate().is_err());
    }

    #[test]
    fn kinds_and_labels_are_stable() {
        assert_eq!(JobRequest::Synthesize { spec: String::new() }.kind(), JobKind::Synthesize);
        assert_eq!(JobKind::Synthesize.label(), "synthesize");
        assert_eq!(JobKind::ExploreSuite.label(), "explore");
        assert_eq!(JobKind::CorpusRun.label(), "corpus");
    }

    #[test]
    fn explore_body_parsing_mirrors_the_cli() {
        let config = parse_explore_request(
            "processes=12 nodes=3 k=2 seeds=2 seed=9 rounds=3 iters=5 verify=true",
        )
        .unwrap();
        assert_eq!(config.points.len(), 2);
        assert!(config.points.iter().all(|p| p.processes == 12 && p.nodes == 3 && p.k == 2));
        assert_eq!(config.portfolio.seed, 9);
        assert_eq!(config.portfolio.rounds, 3);
        assert_eq!(config.portfolio.iterations_per_round, 5);
        assert!(config.verify.is_some());
        assert!(config.certify, "certification defaults on");
        assert!(!parse_explore_request("certify=false").unwrap().certify);
        assert!(
            !config.portfolio.certify_guided,
            "certify-guided search defaults off (post-hoc certification)"
        );
        assert!(
            parse_explore_request("certify_guided=true").unwrap().portfolio.certify_guided,
            "certify_guided=true turns on in-search certification"
        );

        let default = parse_explore_request("").unwrap();
        assert_eq!(default.points.len(), 5, "empty body = the paper grid");
    }

    #[test]
    fn explore_body_errors_are_reported() {
        for bad in [
            "processes",
            "processes=ten",
            "grid=fig9",
            "grid=paper processes=10",
            "processes=10 nodes=2",
            "verify=maybe",
            "certify=maybe",
            "certify_guided=maybe",
            "bogus=1",
        ] {
            assert!(parse_explore_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn work_scaling_parameters_are_bounded() {
        // One small request must not be able to allocate or spawn without
        // limit: out-of-range values are rejected, not clamped.
        for bad in [
            "processes=10 nodes=2 k=1 seeds=18446744073709551615",
            "processes=10 nodes=2 k=1 threads=1000000",
            "processes=10 nodes=2 k=1 rounds=1000000000",
            "processes=10 nodes=2 k=1 iters=1000000000",
            "processes=1000 nodes=2 k=1",
            "processes=10 nodes=999 k=1",
            "processes=10 nodes=2 k=999",
            "processes=10 nodes=2 k=1 point_par=1000000",
            "processes=0 nodes=2 k=1",
            "processes=10 nodes=0 k=1",
        ] {
            let err = parse_explore_request(bad).unwrap_err();
            assert!(err.contains("limit") || err.contains("bad number"), "{bad}: {err}");
        }
        // Each knob in range, but the product is hour-scale work: the
        // aggregate budget rejects it.
        let err = parse_explore_request("grid=paper seeds=64 rounds=64 iters=1000").unwrap_err();
        assert!(err.contains("budget"), "{err}");
        // The paper grid itself stays comfortably inside the caps.
        assert!(parse_explore_request("grid=paper seeds=5").is_ok());
        assert!(
            parse_explore_request("processes=100 nodes=6 k=7 seed=18446744073709551615").is_ok()
        );
    }
}
