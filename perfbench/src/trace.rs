//! Traced-run analysis: folds the `ftes_obs` event stream into per-layer
//! self times, span totals and counter totals.
//!
//! The benchmark opens its own spans around each call into a layer (names
//! below) and tags every item with an id counter; the program's own
//! `synthesize`/`optimize`/`certify`/`cpg`/`schedule` spans and its
//! `search.*`/`eval.*`/`cache.*`/`certify.*` counters nest inside them.

use ftes::obs::{self, names, EventKind, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// Root span around one item (a spec of the corpus workload).
pub const ITEM: &str = "bench.item";
/// Span around `ftes::spec::parse_spec`.
pub const PARSE: &str = "bench.parse";
/// Span around `ftes_sched::SystemEvaluator::new`.
pub const EVALUATOR_NEW: &str = "bench.evaluator_new";
/// Span around `ftes::synthesize_system_timed`.
pub const FLOW: &str = "bench.flow";
/// Client-side span around one HTTP request (connect, send, receive).
pub const REQUEST: &str = "bench.request";
/// Counter whose value is the id of the item whose events follow on the
/// same thread.
pub const ITEM_ID: &str = "bench.item_id";
/// Timeline markers: the start of a suite pass, the end of a grid point,
/// and the moment the point thread resumes after the benchmark drained.
pub const PASS_START: &str = "bench.pass_start";
pub const POINT_DONE: &str = "bench.point_done";
pub const RESUME: &str = "bench.resume";

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    cpg_ns: u64,
    scheduled: bool,
}

/// A span with no enclosing span on its thread.
#[derive(Debug, Clone, Copy)]
pub struct Root {
    pub tid: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A marker or item-id counter event.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub tid: u32,
    pub name: &'static str,
    pub value: u64,
    pub ts_ns: u64,
}

/// Accumulated layer figures of one traced pass.
#[derive(Default)]
pub struct Layers {
    stacks: HashMap<u32, Vec<Open>>,
    /// Span duration minus the time its child spans cover, by name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span duration, by name.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Closed spans, by name.
    pub spans: BTreeMap<&'static str, u64>,
    /// Program counter totals, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// `certify` spans whose FT-CPG was built but never scheduled: the
    /// graph came back over the size budget.
    pub overbudget: u64,
    /// Time those over-budget FT-CPG builds took.
    pub overbudget_cpg_ns: u64,
    pub roots: Vec<Root>,
    pub marks: Vec<Mark>,
    pub events: u64,
}

impl Layers {
    /// Drains every thread's buffered events into the accumulators.
    pub fn drain(&mut self) {
        for e in obs::drain() {
            self.add(&e);
        }
    }

    fn add(&mut self, e: &TraceEvent) {
        self.events += 1;
        match e.kind {
            EventKind::Count => {
                if e.name.starts_with("bench.") {
                    self.marks.push(Mark {
                        tid: e.tid,
                        name: e.name,
                        value: e.value,
                        ts_ns: e.ts_ns,
                    });
                } else {
                    *self.counters.entry(e.name).or_insert(0) += e.value;
                }
            }
            EventKind::Begin => self.stacks.entry(e.tid).or_default().push(Open {
                name: e.name,
                start_ns: e.ts_ns,
                child_ns: 0,
                cpg_ns: 0,
                scheduled: false,
            }),
            EventKind::End => {
                let stack = self.stacks.entry(e.tid).or_default();
                let Some(open) = stack.pop() else { return };
                let dur = e.ts_ns.saturating_sub(open.start_ns);
                *self.total_ns.entry(open.name).or_insert(0) += dur;
                *self.self_ns.entry(open.name).or_insert(0) += dur.saturating_sub(open.child_ns);
                *self.spans.entry(open.name).or_insert(0) += 1;
                if open.name == names::CERTIFY && open.cpg_ns > 0 && !open.scheduled {
                    self.overbudget += 1;
                    self.overbudget_cpg_ns += open.cpg_ns;
                }
                match stack.last_mut() {
                    Some(parent) => {
                        parent.child_ns += dur;
                        if parent.name == names::CERTIFY {
                            if open.name == names::CPG {
                                parent.cpg_ns += dur;
                            } else if open.name == names::SCHEDULE {
                                parent.scheduled = true;
                            }
                        }
                    }
                    None => self.roots.push(Root {
                        tid: e.tid,
                        name: open.name,
                        start_ns: open.start_ns,
                        end_ns: e.ts_ns,
                    }),
                }
            }
        }
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn spans(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0) as f64
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u32, kind: EventKind, name: &'static str, ts_ns: u64) -> TraceEvent {
        TraceEvent { tid, thread_name: String::new(), kind, name, value: 1, ts_ns }
    }

    #[test]
    fn self_time_excludes_children_and_overbudget_builds_are_found() {
        use EventKind::{Begin, Count, End};
        let mut l = Layers::default();
        for e in [
            ev(1, Begin, ITEM, 0),
            ev(1, Count, ITEM_ID, 0),
            ev(1, Begin, names::OPTIMIZE, 10),
            // Certified: built and scheduled.
            ev(1, Begin, names::CERTIFY, 20),
            ev(1, Begin, names::CPG, 21),
            ev(1, End, names::CPG, 30),
            ev(1, Begin, names::SCHEDULE, 30),
            ev(1, End, names::SCHEDULE, 40),
            ev(1, End, names::CERTIFY, 41),
            // Over budget: built, never scheduled.
            ev(1, Begin, names::CERTIFY, 50),
            ev(1, Begin, names::CPG, 50),
            ev(1, End, names::CPG, 70),
            ev(1, End, names::CERTIFY, 71),
            ev(1, Count, names::SEARCH_ITER, 80),
            ev(1, End, names::OPTIMIZE, 90),
            ev(1, End, ITEM, 100),
        ] {
            l.add(&e);
        }
        assert_eq!(l.total_ns[names::OPTIMIZE], 80);
        assert_eq!(l.self_ns[names::OPTIMIZE], 80 - 21 - 21);
        assert_eq!(l.self_ns[names::CERTIFY], 21 - 9 - 10 + 21 - 20);
        assert_eq!(l.self_ns[ITEM], 100 - 80);
        assert_eq!((l.overbudget, l.overbudget_cpg_ns), (1, 20));
        assert_eq!(l.counter(names::SEARCH_ITER), 1.0);
        assert_eq!(l.spans(names::CERTIFY), 2.0);
        assert_eq!(l.roots.len(), 1);
        assert_eq!(l.marks.len(), 1);
    }

    #[test]
    fn threads_keep_separate_stacks() {
        use EventKind::{Begin, End};
        let mut l = Layers::default();
        for e in [
            ev(1, Begin, names::CERTIFY, 0),
            ev(2, Begin, names::CPG, 5),
            ev(1, End, names::CERTIFY, 10),
            ev(2, End, names::CPG, 20),
        ] {
            l.add(&e);
        }
        assert_eq!(l.self_ns[names::CERTIFY], 10);
        assert_eq!(l.self_ns[names::CPG], 15);
        assert_eq!(l.roots.len(), 2);
        assert_eq!(l.overbudget, 0);
    }
}
