//! The `.ftes` system-specification format: a small line-oriented DSL
//! describing an application, its platform and its fault-tolerance
//! requirements, parsed without external dependencies.
//!
//! ```text
//! # cruise controller, two ECUs
//! nodes 2
//! slot 8
//! deadline 400
//! k 2
//! strategy mxr
//!
//! process P1 wcet 30 30 alpha 5 mu 5 chi 5
//! process P2 wcet 25 25
//! process P3 wcet 25 25
//! process P4 wcet 30 -            # "-" = cannot map on that node
//!
//! message m0 P1 P2 1
//! message m1 P1 P4 1
//!
//! frozen process P3
//! frozen message m1
//! ```
//!
//! Lines are independent; `#` starts a comment; numbers are integer time
//! units. Per-process options: `alpha`, `mu`, `chi`, `fixed <node>`,
//! `release <t>`, `dlocal <t>`.

use ftes_model::{
    Application, ApplicationBuilder, FaultModel, NodeId, ProcessId, ProcessSpec, Time, Transparency,
};
use ftes_opt::Strategy;
use ftes_tdma::{Platform, TdmaBus};
// ftes-lint: allow(determinism) reason="keyed lookup during validation only; iteration order never reaches results"
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Largest platform a spec may declare (`nodes`). Specs are untrusted
/// input: the node count sizes every WCET row and per-node table.
pub const MAX_NODES: usize = 16;

/// Largest fault budget a spec may declare (`k`). The fault budget sizes
/// every candidate policy and fault-scenario space.
pub const MAX_K: u32 = 16;

/// Largest time value a spec may declare: `slot`, `deadline`, `period`,
/// every WCET, `alpha`, `mu`, `chi`, `release`, `dlocal` and message
/// transmission times. (Negative values pass this check and are rejected
/// by the model's own validation.)
///
/// Time arithmetic is plain `i64` addition, so the cap is what keeps it
/// from overflowing. No time the tools compute exceeds running everything
/// one after another: every copy of every process (at most `k + 1` each)
/// at its worst case, and every message with two TDMA rounds of waiting.
/// At this cap one copy takes at most `C + x·χ + (x + 1)·α + k·(C + µ + α)`,
/// below 10¹¹ with `k` ≤ [`MAX_K`] and the 16 checkpoints the synthesis
/// flows consider, and one message at most its transmission plus two
/// rounds of [`MAX_NODES`] slots, below 4·10¹⁰. A process or message
/// declaration takes at least 8 bytes, so serve's 1 MiB body limit admits
/// fewer than 2¹⁷ of them. With 17 copies each that is under 4·10¹⁷ in
/// all, more than 20 times below `i64::MAX` (about 9.2·10¹⁸). The CLI
/// reads spec files of any size; the same bound holds for any file up to
/// 1 MiB.
pub const MAX_TIME: i64 = 1_000_000_000;

/// A parsed and validated system specification.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// The application graph.
    pub app: Application,
    /// The execution platform.
    pub platform: Platform,
    /// Transient-fault budget.
    pub fault_model: FaultModel,
    /// Designer transparency requirements.
    pub transparency: Transparency,
    /// Synthesis strategy (defaults to MXR).
    pub strategy: Strategy,
}

impl SystemSpec {
    /// Canonical, collision-free byte encoding of the parsed system.
    ///
    /// Two `.ftes` documents that parse to the same application, platform,
    /// fault model, transparency requirements and strategy produce
    /// identical bytes regardless of formatting, comments or directive
    /// order; any semantic difference changes the encoding. `ftes-serve`
    /// keys its result cache on this encoding, so equivalent requests are
    /// answered from cache with byte-identical bodies.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 64 * self.app.process_count());
        out.extend_from_slice(b"ftes-spec-v1");
        self.encode_system(&mut out, true);
        out
    }

    /// Canonical byte encoding of only the `(application, platform, k)`
    /// triple — the inputs a
    /// [`SystemEvaluator`](ftes_sched::SystemEvaluator) is constructed
    /// from (and whose clones the synthesis flow then runs on). Two specs
    /// with equal `evaluator_bytes` can share a warm evaluator kernel even
    /// when they differ in strategy or transparency, which the flow passes
    /// separately; the `ftes-serve` evaluator bank keys on this encoding.
    pub fn evaluator_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 64 * self.app.process_count());
        out.extend_from_slice(b"ftes-eval-v1");
        self.encode_system(&mut out, false);
        out
    }

    /// Shared encoder behind [`canonical_bytes`](SystemSpec::canonical_bytes)
    /// and [`evaluator_bytes`](SystemSpec::evaluator_bytes). One body, so a
    /// future field cannot be added to one encoding and forgotten in the
    /// other — which would make the serve evaluator bank alias kernels of
    /// *different* systems. `with_policy_dims` adds the fields that select
    /// synthesis behavior beyond the evaluator's inputs: the strategy and
    /// the per-process/per-message transparency (frozen) flags.
    fn encode_system(&self, out: &mut Vec<u8>, with_policy_dims: bool) {
        let nodes = self.platform.architecture().node_count();
        push_u64(out, nodes as u64);
        let slots = self.platform.bus().slots();
        push_u64(out, slots.len() as u64);
        for slot in slots {
            push_u64(out, slot.node.index() as u64);
            push_i64(out, slot.length.units());
        }
        push_u64(out, self.fault_model.k() as u64);
        if with_policy_dims {
            push_u64(
                out,
                match self.strategy {
                    Strategy::Mxr => 0,
                    Strategy::Mx => 1,
                    Strategy::Mr => 2,
                    Strategy::Sfx => 3,
                },
            );
        }
        push_i64(out, self.app.deadline().units());
        push_i64(out, self.app.period().units());
        push_u64(out, self.app.process_count() as u64);
        for (pid, p) in self.app.processes() {
            push_str(out, p.name());
            for n in 0..nodes {
                push_opt_i64(out, p.wcet_on(NodeId::new(n)).map(Time::units));
            }
            push_i64(out, p.alpha().units());
            push_i64(out, p.mu().units());
            push_i64(out, p.chi().units());
            push_i64(out, p.release().units());
            push_opt_i64(out, p.local_deadline().map(Time::units));
            push_opt_i64(out, p.fixed_node().map(|n| n.index() as i64));
            if with_policy_dims {
                out.push(self.transparency.is_process_frozen(pid) as u8);
            }
        }
        push_u64(out, self.app.message_count() as u64);
        for (mid, m) in self.app.messages() {
            push_str(out, m.name());
            push_u64(out, m.src().index() as u64);
            push_u64(out, m.dst().index() as u64);
            push_i64(out, m.transmission().units());
            if with_policy_dims {
                out.push(self.transparency.is_message_frozen(mid) as u8);
            }
        }
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed so adjacent strings can never alias each other.
fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Tag byte + value keeps `None` distinct from every `Some`.
fn push_opt_i64(out: &mut Vec<u8>, v: Option<i64>) {
    match v {
        Some(v) => {
            out.push(1);
            push_i64(out, v);
        }
        None => out.push(0),
    }
}

/// Parse error with 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending directive (0 = file level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ParseError { line, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

/// One parsed `process` directive: (line, name, wcet row, options).
type ProcessDraft = (usize, String, Vec<Option<i64>>, HashMap<String, i64>);

#[derive(Debug, Default)]
struct Draft {
    nodes: Option<usize>,
    slot: Option<i64>,
    deadline: Option<i64>,
    period: Option<i64>,
    k: Option<u32>,
    strategy: Option<Strategy>,
    processes: Vec<ProcessDraft>,
    messages: Vec<(usize, String, String, String, i64)>,
    frozen_processes: Vec<(usize, String)>,
    frozen_messages: Vec<(usize, String)>,
}

/// Parses a `.ftes` specification from text.
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line for syntax problems,
/// unknown names, missing mandatory directives (`nodes`, `deadline`, `k`,
/// at least one process), out-of-range sizes (`nodes` outside
/// 1..=[`MAX_NODES`], `k` outside 0..=[`MAX_K`]), time values above
/// [`MAX_TIME`] and model-level validation failures.
pub fn parse_spec(text: &str) -> Result<SystemSpec, ParseError> {
    let _span = ftes_obs::span(ftes_obs::names::PARSE);
    let mut d = Draft::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let head = words.next().expect("non-empty line has a first word");
        let rest: Vec<&str> = words.collect();
        match head {
            "nodes" => {
                d.nodes = Some(int_in(&rest, line_no, "nodes", 1, MAX_NODES as i64)? as usize)
            }
            "slot" => d.slot = Some(time(int(&rest, 0, line_no)?, line_no, "slot")?),
            "deadline" => d.deadline = Some(time(int(&rest, 0, line_no)?, line_no, "deadline")?),
            "period" => d.period = Some(time(int(&rest, 0, line_no)?, line_no, "period")?),
            "k" => d.k = Some(int_in(&rest, line_no, "k", 0, i64::from(MAX_K))? as u32),
            "strategy" => {
                let s = rest
                    .first()
                    .ok_or_else(|| ParseError::at(line_no, "strategy needs a value"))?;
                d.strategy = Some(match s.to_ascii_lowercase().as_str() {
                    "mxr" => Strategy::Mxr,
                    "mx" => Strategy::Mx,
                    "mr" => Strategy::Mr,
                    "sfx" => Strategy::Sfx,
                    other => {
                        return Err(ParseError::at(
                            line_no,
                            format!("unknown strategy `{other}` (mxr|mx|mr|sfx)"),
                        ))
                    }
                });
            }
            "process" => parse_process(&rest, line_no, &mut d)?,
            "message" => {
                if rest.len() != 4 {
                    return Err(ParseError::at(
                        line_no,
                        "message needs: message <name> <src> <dst> <transmission>",
                    ));
                }
                let trans = rest[3].parse::<i64>().map_err(|_| {
                    ParseError::at(line_no, format!("bad transmission time `{}`", rest[3]))
                })?;
                let trans = time(trans, line_no, "transmission")?;
                d.messages.push((
                    line_no,
                    rest[0].to_string(),
                    rest[1].to_string(),
                    rest[2].to_string(),
                    trans,
                ));
            }
            "frozen" => match (rest.first(), rest.get(1)) {
                (Some(&"process"), Some(name)) => {
                    d.frozen_processes.push((line_no, name.to_string()))
                }
                (Some(&"message"), Some(name)) => {
                    d.frozen_messages.push((line_no, name.to_string()))
                }
                _ => {
                    return Err(ParseError::at(
                        line_no,
                        "frozen needs: frozen process <name> | frozen message <name>",
                    ))
                }
            },
            other => return Err(ParseError::at(line_no, format!("unknown directive `{other}`"))),
        }
    }
    build(d)
}

fn int(rest: &[&str], idx: usize, line: usize) -> Result<i64, ParseError> {
    rest.get(idx)
        .ok_or_else(|| ParseError::at(line, "missing numeric value"))?
        .parse::<i64>()
        .map_err(|_| ParseError::at(line, format!("bad number `{}`", rest[idx])))
}

/// A time value, which must not exceed [`MAX_TIME`].
fn time(v: i64, line: usize, what: &str) -> Result<i64, ParseError> {
    if v > MAX_TIME {
        return Err(ParseError::at(line, format!("`{what} {v}` exceeds {MAX_TIME}")));
    }
    Ok(v)
}

/// The directive's value, which must lie in `min..=max`.
fn int_in(rest: &[&str], line: usize, what: &str, min: i64, max: i64) -> Result<i64, ParseError> {
    let v = int(rest, 0, line)?;
    if !(min..=max).contains(&v) {
        return Err(ParseError::at(line, format!("`{what} {v}` is outside {min}..={max}")));
    }
    Ok(v)
}

fn parse_process(rest: &[&str], line: usize, d: &mut Draft) -> Result<(), ParseError> {
    let nodes =
        d.nodes.ok_or_else(|| ParseError::at(line, "declare `nodes <count>` before processes"))?;
    let name =
        rest.first().ok_or_else(|| ParseError::at(line, "process needs a name"))?.to_string();
    if rest.get(1) != Some(&"wcet") {
        return Err(ParseError::at(line, "process needs: process <name> wcet <v|-> …"));
    }
    let mut wcet = Vec::with_capacity(nodes);
    let mut i = 2;
    while wcet.len() < nodes {
        let tok = rest.get(i).ok_or_else(|| {
            ParseError::at(line, format!("process `{name}` needs {nodes} wcet entries"))
        })?;
        if *tok == "-" {
            wcet.push(None);
        } else {
            let v = tok
                .parse::<i64>()
                .map_err(|_| ParseError::at(line, format!("bad wcet `{tok}`")))?;
            wcet.push(Some(time(v, line, "wcet")?));
        }
        i += 1;
    }
    let mut opts = HashMap::new();
    while i < rest.len() {
        let key = rest[i];
        if !matches!(key, "alpha" | "mu" | "chi" | "fixed" | "release" | "dlocal") {
            return Err(ParseError::at(line, format!("unknown process option `{key}`")));
        }
        let v = int(rest, i + 1, line)?;
        // `fixed` names a node (checked against the node count later);
        // every other option is a time.
        let v = if key == "fixed" { v } else { time(v, line, key)? };
        opts.insert(key.to_string(), v);
        i += 2;
    }
    d.processes.push((line, name, wcet, opts));
    Ok(())
}

fn build(d: Draft) -> Result<SystemSpec, ParseError> {
    let nodes = d.nodes.ok_or_else(|| ParseError::at(0, "missing `nodes <count>`"))?;
    let deadline = d.deadline.ok_or_else(|| ParseError::at(0, "missing `deadline <time>`"))?;
    let k = d.k.ok_or_else(|| ParseError::at(0, "missing `k <faults>`"))?;
    if d.processes.is_empty() {
        return Err(ParseError::at(0, "no processes declared"));
    }

    let mut builder = ApplicationBuilder::new(nodes);
    let mut process_ids: HashMap<String, ProcessId> = HashMap::new();
    for (line, name, wcet, opts) in &d.processes {
        if process_ids.contains_key(name) {
            return Err(ParseError::at(*line, format!("duplicate process `{name}`")));
        }
        let mut spec = ProcessSpec::new(name.clone(), wcet.iter().map(|w| w.map(Time::new)));
        spec = spec.overheads(
            Time::new(*opts.get("alpha").unwrap_or(&0)),
            Time::new(*opts.get("mu").unwrap_or(&0)),
            Time::new(*opts.get("chi").unwrap_or(&0)),
        );
        if let Some(&r) = opts.get("release") {
            spec = spec.release(Time::new(r));
        }
        if let Some(&dl) = opts.get("dlocal") {
            spec = spec.local_deadline(Time::new(dl));
        }
        if let Some(&n) = opts.get("fixed") {
            if n < 0 || n as usize >= nodes {
                return Err(ParseError::at(*line, format!("fixed node {n} out of range")));
            }
            spec = spec.fixed_node(NodeId::new(n as usize));
        }
        process_ids.insert(name.clone(), builder.add_process(spec));
    }

    let mut message_ids = HashMap::new();
    for (line, name, src, dst, trans) in &d.messages {
        let src_id = *process_ids
            .get(src)
            .ok_or_else(|| ParseError::at(*line, format!("unknown process `{src}`")))?;
        let dst_id = *process_ids
            .get(dst)
            .ok_or_else(|| ParseError::at(*line, format!("unknown process `{dst}`")))?;
        let mid = builder
            .add_message(name.clone(), src_id, dst_id, Time::new(*trans))
            .map_err(|e| ParseError::at(*line, e.to_string()))?;
        message_ids.insert(name.clone(), mid);
    }

    let mut builder = builder.deadline(Time::new(deadline));
    if let Some(p) = d.period {
        builder = builder.period(Time::new(p));
    }
    let app = builder.build().map_err(|e| ParseError::at(0, e.to_string()))?;

    let mut transparency = Transparency::none();
    for (line, name) in &d.frozen_processes {
        let pid = process_ids
            .get(name)
            .ok_or_else(|| ParseError::at(*line, format!("unknown process `{name}`")))?;
        transparency.freeze_process(*pid);
    }
    for (line, name) in &d.frozen_messages {
        let mid = message_ids
            .get(name)
            .ok_or_else(|| ParseError::at(*line, format!("unknown message `{name}`")))?;
        transparency.freeze_message(*mid);
    }

    let slot = d.slot.unwrap_or(8);
    let bus =
        TdmaBus::uniform(nodes, Time::new(slot)).map_err(|e| ParseError::at(0, e.to_string()))?;
    let arch = ftes_model::Architecture::homogeneous(nodes)
        .map_err(|e| ParseError::at(0, e.to_string()))?;
    let platform = Platform::new(arch, bus).map_err(|e| ParseError::at(0, e.to_string()))?;

    Ok(SystemSpec {
        app,
        platform,
        fault_model: FaultModel::new(k),
        transparency,
        strategy: d.strategy.unwrap_or(Strategy::Mxr),
    })
}

/// The Fig. 5 system as a `.ftes` document — used by `--demo` and tests.
pub const FIG5_SPEC: &str = "\
# the paper's Fig. 5 walk-through (k = 2, P3/m2/m3 frozen)
nodes 2
slot 8
deadline 400
k 2
strategy mxr

process P1 wcet 30 30 alpha 5 mu 5 chi 5
process P2 wcet 25 25 alpha 5 mu 5 chi 5
process P3 wcet 25 25 alpha 5 mu 5 chi 5
process P4 wcet 30 30 alpha 5 mu 5 chi 5

message m0 P1 P2 1
message m1 P1 P4 1
message m2 P1 P3 1
message m3 P2 P3 1

frozen process P3
frozen message m2
frozen message m3
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_demo_spec() {
        let spec = parse_spec(FIG5_SPEC).unwrap();
        assert_eq!(spec.app.process_count(), 4);
        assert_eq!(spec.app.message_count(), 4);
        assert_eq!(spec.fault_model.k(), 2);
        assert_eq!(spec.strategy, Strategy::Mxr);
        assert!(spec.transparency.is_process_frozen(ProcessId::new(2)));
        assert_eq!(spec.platform.architecture().node_count(), 2);
        assert_eq!(spec.platform.bus().round_length(), Time::new(16));
    }

    #[test]
    fn x_entries_and_options() {
        let text = "nodes 2\ndeadline 100\nk 1\n\
                    process a wcet 10 - alpha 1 mu 2 chi 3 fixed 0 release 5 dlocal 90\n";
        let spec = parse_spec(text).unwrap();
        let p = spec.app.process(ProcessId::new(0));
        assert_eq!(p.wcet_on(NodeId::new(1)), None);
        assert_eq!((p.alpha(), p.mu(), p.chi()), (Time::new(1), Time::new(2), Time::new(3)));
        assert_eq!(p.fixed_node(), Some(NodeId::new(0)));
        assert_eq!(p.release(), Time::new(5));
        assert_eq!(p.local_deadline(), Some(Time::new(90)));
    }

    #[test]
    fn error_reports_carry_line_numbers() {
        let cases: [(&str, usize, &str); 7] = [
            ("nodes 2\ndeadline 100\nk 1\nbogus x\n", 4, "unknown directive"),
            ("nodes 2\ndeadline 100\nk 1\nprocess a wcet 10\n", 4, "needs 2 wcet entries"),
            ("nodes 2\ndeadline 100\nk 1\nprocess a wcet 10 q\n", 4, "bad wcet"),
            (
                "nodes 2\ndeadline 100\nk 1\nprocess a wcet 9 9\nmessage m a b 1\n",
                5,
                "unknown process `b`",
            ),
            ("nodes 2\ndeadline 100\nk 1\nstrategy turbo\n", 4, "unknown strategy"),
            ("nodes 2\ndeadline 100\nk 1\nprocess a wcet 9 9 fixed 7\n", 4, "out of range"),
            (
                "nodes 2\ndeadline 100\nk 1\nprocess a wcet 9 9\nfrozen process z\n",
                5,
                "unknown process `z`",
            ),
        ];
        for (text, line, needle) in cases {
            let err = parse_spec(text).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn out_of_range_sizes_are_parse_errors() {
        // Each used to panic or abort the process (a capacity overflow, a
        // failed terabyte allocation, a wrapped `k`, an OOM kill).
        let cases = [
            ("nodes -1\ndeadline 100\nk 1\n", 1, "nodes -1"),
            ("nodes 100000000000\ndeadline 100\nk 1\n", 1, "nodes 100000000000"),
            ("nodes 2\ndeadline 100\nk -1\n", 3, "k -1"),
            ("nodes 2\ndeadline 100\nk 100000\n", 3, "k 100000"),
            ("nodes 0\ndeadline 100\nk 1\n", 1, "nodes 0"),
            ("nodes 17\ndeadline 100\nk 1\n", 1, "nodes 17"),
            ("nodes 2\ndeadline 100\nk 17\n", 3, "k 17"),
        ];
        for (text, line, needle) in cases {
            let err = parse_spec(text).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.to_string().contains(needle), "{err}");
            assert!(err.to_string().contains("is outside"), "{err}");
        }
        // The caps themselves are accepted.
        let wcets = " 5".repeat(MAX_NODES);
        let edge = format!("nodes {MAX_NODES}\ndeadline 100\nk {MAX_K}\nprocess a wcet{wcets}\n");
        let spec = parse_spec(&edge).unwrap();
        assert_eq!(spec.platform.architecture().node_count(), MAX_NODES);
        assert_eq!(spec.fault_model.k(), MAX_K);
    }

    /// A two-process spec, P1 → P2 over `m0`, with `edits` applied.
    fn two_process_spec(edits: &[(&str, &str)]) -> String {
        let mut text = "nodes 2\nslot 8\ndeadline 400\nk 1\n\
                        process P1 wcet 30 30 alpha 5 mu 5 chi 5\nprocess P2 wcet 25 25\n\
                        message m0 P1 P2 1\n"
            .to_string();
        for (from, to) in edits {
            text = text.replace(from, to);
        }
        text
    }

    #[test]
    fn time_values_above_the_cap_are_parse_errors() {
        // The first four used to overflow `Time` addition: a wrong
        // certified verdict in release builds (or, for `chi`, a hang), a
        // panic in debug builds.
        let cases = [
            (two_process_spec(&[("slot 8", "slot 9223372036854775807")]), 2, "slot"),
            (
                two_process_spec(&[("k 1", "k 2"), ("wcet 25 25", "wcet 9223372036854775807 25")]),
                6,
                "wcet",
            ),
            (two_process_spec(&[("mu 5", "mu 5 release 9223372036854775800")]), 5, "release"),
            (two_process_spec(&[("chi 5", "chi 9223372036854775800")]), 5, "chi"),
            (two_process_spec(&[("deadline 400", "deadline 1000000001")]), 3, "deadline"),
            (
                two_process_spec(&[("deadline 400", "deadline 400\nperiod 9223372036854775807")]),
                4,
                "period",
            ),
            (two_process_spec(&[("alpha 5", "alpha 9223372036854775807")]), 5, "alpha"),
            (two_process_spec(&[("mu 5", "mu 9223372036854775807")]), 5, "mu"),
            (two_process_spec(&[("mu 5", "mu 5 dlocal 9223372036854775807")]), 5, "dlocal"),
            (two_process_spec(&[("P2 1", "P2 9223372036854775807")]), 7, "transmission"),
        ];
        for (text, line, what) in cases {
            let err = parse_spec(&text).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.message.starts_with(&format!("`{what} ")), "{err}");
            assert!(err.message.ends_with(&format!("exceeds {MAX_TIME}")), "{err}");
        }
        // The cap itself is accepted wherever a time goes.
        let max = MAX_TIME.to_string();
        let edge = two_process_spec(&[
            ("slot 8", &format!("slot {max}")),
            ("deadline 400", &format!("deadline {max}\nperiod {max}")),
            ("30 30 alpha 5 mu 5 chi 5", &format!("{max} {max} alpha {max} mu {max} chi {max}")),
            ("wcet 25 25", &format!("wcet {max} {max} release {max} dlocal {max}")),
            ("P2 1", &format!("P2 {max}")),
        ]);
        let spec = parse_spec(&edge).unwrap();
        assert_eq!(spec.app.deadline(), Time::new(MAX_TIME));
        assert_eq!(spec.platform.bus().round_length(), Time::new(2 * MAX_TIME));
    }

    #[test]
    fn a_spec_with_every_time_at_the_cap_synthesizes_without_overflow() {
        // Debug builds check every `Time` addition for overflow, so running
        // the whole flow here proves the cap's headroom on the widest
        // platform: three chained processes on 16 nodes, every time value
        // at the cap (k stays small: the exact schedule grows fast in k).
        let max = MAX_TIME;
        let wcets = format!(" {max}").repeat(MAX_NODES);
        let opts = format!("alpha {max} mu {max} chi {max} release {max} dlocal {max}");
        let text = format!(
            "nodes {MAX_NODES}\nslot {max}\ndeadline {max}\nperiod {max}\nk 2\n\
             process P1 wcet{wcets} {opts}\nprocess P2 wcet{wcets} {opts}\n\
             process P3 wcet{wcets} {opts}\n\
             message m0 P1 P2 {max}\nmessage m1 P2 P3 {max}\n"
        );
        let spec = parse_spec(&text).unwrap();
        let psi = crate::synthesize_system(
            &spec.app,
            &spec.platform,
            spec.fault_model,
            &spec.transparency,
            crate::FlowConfig::default(),
        )
        .unwrap();
        let exact = psi.exact.as_ref().expect("three processes get exact tables");
        assert!(!psi.schedulable, "a chain of three capped WCETs cannot meet a capped deadline");
        assert!(exact.schedule.length() >= Time::new(3 * max), "{:?}", exact.schedule.length());
        assert!(exact.schedule.length() >= psi.estimate.fault_free_length);
    }

    #[test]
    fn missing_mandatory_directives() {
        assert!(parse_spec("deadline 10\nk 1\n").unwrap_err().message.contains("nodes"));
        assert!(parse_spec("nodes 1\nk 1\n").unwrap_err().message.contains("deadline"));
        assert!(parse_spec("nodes 1\ndeadline 10\n").unwrap_err().message.contains('k'));
        assert!(parse_spec("nodes 1\ndeadline 10\nk 0\n")
            .unwrap_err()
            .message
            .contains("no processes"));
    }

    #[test]
    fn duplicate_process_rejected() {
        let text = "nodes 1\ndeadline 10\nk 0\nprocess a wcet 5\nprocess a wcet 5\n";
        let err = parse_spec(text).unwrap_err();
        assert!(err.message.contains("duplicate"));
        assert_eq!(err.line, 5);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nnodes 1 # trailing\n\ndeadline 10\nk 0\nprocess a wcet 5\n";
        assert!(parse_spec(text).is_ok());
    }

    #[test]
    fn canonical_bytes_ignore_formatting_but_not_semantics() {
        let base = parse_spec(FIG5_SPEC).unwrap();
        // Reformatted: extra comments, blank lines, shuffled option-free
        // whitespace. Same parsed system.
        let reformatted = FIG5_SPEC.replace("k 2", "k 2   # two transient faults\n\n# pad");
        assert_eq!(base.canonical_bytes(), parse_spec(&reformatted).unwrap().canonical_bytes());

        // Any semantic change must change the encoding.
        let variants = [
            FIG5_SPEC.replace("k 2", "k 1"),
            FIG5_SPEC.replace("deadline 400", "deadline 401"),
            FIG5_SPEC.replace("strategy mxr", "strategy sfx"),
            FIG5_SPEC.replace("process P4 wcet 30 30", "process P4 wcet 30 31"),
            FIG5_SPEC.replace("frozen process P3\n", ""),
            FIG5_SPEC.replace("slot 8", "slot 9"),
            FIG5_SPEC.replace("message m0 P1 P2 1", "message m0 P1 P2 2"),
            FIG5_SPEC.replace("P2", "Q2"),
        ];
        for (i, text) in variants.iter().enumerate() {
            let spec = parse_spec(text).unwrap();
            assert_ne!(base.canonical_bytes(), spec.canonical_bytes(), "variant {i}");
        }
        // The encoding is deterministic.
        assert_eq!(base.canonical_bytes(), parse_spec(FIG5_SPEC).unwrap().canonical_bytes());
    }

    #[test]
    fn model_errors_surface_with_context() {
        // Cyclic graph flagged by the model layer.
        let text = "nodes 1\ndeadline 10\nk 0\nprocess a wcet 5\nprocess b wcet 5\n\
                    message m1 a b 1\nmessage m2 b a 1\n";
        let err = parse_spec(text).unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }
}
