//! Lock-free structured tracing for the FTES pipeline.
//!
//! Everything here is built around one promise: **when tracing is off, the
//! instrumented code pays a single relaxed atomic load and a branch** — cheap
//! enough to leave `obs::` calls inline on the delta-evaluate hot path
//! (`BENCH_obs.json` pins the overhead at < 2% of the 1.3 µs baseline).
//!
//! ## Architecture
//!
//! - A global [`enabled`] gate (one relaxed `AtomicBool`). Nothing else is
//!   touched while it is false.
//! - When enabled, events go into a **per-thread SPSC ring buffer**
//!   (`ring`): the owning thread is the only producer, so a push is two
//!   atomic loads, a slot write and a release store — no locks, no CAS loops,
//!   no allocation. Full buffers drop events (and count the drops) rather
//!   than block the pipeline.
//! - [`drain`] collects the buffered events from every registered thread.
//!   Exporters turn the drained stream into Chrome-trace-event JSON
//!   ([`chrome`]) or folded-stack text for flamegraphs ([`folded`]);
//!   [`validate`] parses a Chrome trace back and checks span nesting and
//!   balance (used by tests and the CI trace checker).
//!
//! Trace output is a **side channel**: timestamps and event ordering vary
//! run to run, so trace artifacts are never embedded in result bytes, CSVs
//! or cached response bodies (see ARCHITECTURE.md's determinism and
//! byte-identity invariants, and `docs/observability.md`).
//!
//! ## Span taxonomy
//!
//! Span and counter names are `&'static str` constants in [`names`], so an
//! event record is a pointer, a tag and two integers. The taxonomy covers
//! the whole pipeline: parse, search iterations (accept/reject, round
//! phases, delta-vs-full evaluation), certification
//! (FT-CPG build, exact schedule, memo hit, repair round), job lifecycle
//! and journal writes, and serve request handling.
//!
//! ## Example
//!
//! ```
//! ftes_obs::set_enabled(true);
//! {
//!     let _outer = ftes_obs::span(ftes_obs::names::OPTIMIZE);
//!     let _inner = ftes_obs::span(ftes_obs::names::CERTIFY);
//!     ftes_obs::counter(ftes_obs::names::SEARCH_ACCEPT, 1);
//! }
//! ftes_obs::set_enabled(false);
//! let events = ftes_obs::drain();
//! let json = ftes_obs::chrome::chrome_trace_json(&events);
//! assert!(ftes_obs::validate::validate_chrome_trace(&json).is_ok());
//! ```

pub mod chrome;
pub mod folded;
pub mod names;
mod ring;
pub mod validate;

use std::sync::atomic::{AtomicBool, Ordering};

/// The global gate. Relaxed is sufficient: the flag carries no data
/// dependency — a thread that misses a flip by a few instructions merely
/// records (or skips) a handful of boundary events.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns event recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled. This load-and-branch is the entire
/// disabled-path cost of every `span`/`counter` call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What a ring-buffer slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ts_ns` is the open time).
    Begin,
    /// A span closed (`ts_ns` is the close time).
    End,
    /// A counter increment: `value` is the delta since the previous event
    /// of the same name on the same thread.
    Count,
}

/// One drained trace event, tagged with the recording thread.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Sequential id of the recording thread (assigned at first event).
    pub tid: u32,
    /// The recording thread's name at registration ("" when unnamed).
    pub thread_name: String,
    /// Begin / End / Count.
    pub kind: EventKind,
    /// Span or counter name (one of [`names`]).
    pub name: &'static str,
    /// Counter delta; 0 for span events.
    pub value: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
}

/// RAII span guard: records a `Begin` on creation (when enabled) and the
/// matching `End` on drop. A guard created while tracing was disabled stays
/// inert even if tracing is enabled later, so drained streams never hold an
/// `End` without its `Begin`.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing"]
pub struct Span {
    name: &'static str,
    active: bool,
}

/// Opens a span. Disabled path: one relaxed load, one branch.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, active: false };
    }
    ring::push(EventKind::Begin, name, 0);
    Span { name, active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            ring::push(EventKind::End, self.name, 0);
        }
    }
}

/// Records a counter delta. Disabled path: one relaxed load, one branch.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        ring::push(EventKind::Count, name, delta);
    }
}

/// Drains every thread's buffered events, oldest first per thread, merged
/// and sorted by timestamp. Draining is destructive: each event is
/// delivered exactly once across all `drain` calls.
pub fn drain() -> Vec<TraceEvent> {
    let mut events = ring::drain_all();
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Events dropped so far because a thread's ring buffer was full. A nonzero
/// value means the trace has holes; exporters surface it as metadata.
pub fn dropped_events() -> u64 {
    ring::dropped_total()
}

/// Sums counter deltas by name over a drained event stream.
pub fn totals(events: &[TraceEvent]) -> std::collections::BTreeMap<&'static str, u64> {
    let mut map = std::collections::BTreeMap::new();
    for e in events {
        if e.kind == EventKind::Count {
            *map.entry(e.name).or_insert(0) += e.value;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The gate, the registry and the epoch are process-global, so tests
    /// that enable tracing serialize on this lock and drain before
    /// releasing it.
    pub(crate) static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        drop(span(names::OPTIMIZE));
        counter(names::SEARCH_ACCEPT, 3);
        assert!(drain().is_empty());
    }

    #[test]
    fn span_and_counter_round_trip() {
        let _g = GATE.lock().unwrap();
        let _ = drain();
        set_enabled(true);
        {
            let _outer = span(names::OPTIMIZE);
            let _inner = span(names::CERTIFY);
            counter(names::EVAL_DELTA, 2);
        }
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 5);
        // Inner closes before outer; timestamps are monotone per thread.
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].name, names::OPTIMIZE);
        assert_eq!(events[1].name, names::CERTIFY);
        assert_eq!(events[2].kind, EventKind::Count);
        assert_eq!(events[3].kind, EventKind::End);
        assert_eq!(events[3].name, names::CERTIFY);
        assert_eq!(events[4].name, names::OPTIMIZE);
        assert_eq!(totals(&events)[names::EVAL_DELTA], 2);
    }

    #[test]
    fn guard_created_disabled_stays_inert_after_enable() {
        let _g = GATE.lock().unwrap();
        let _ = drain();
        set_enabled(false);
        let guard = span(names::PARSE);
        set_enabled(true);
        drop(guard);
        set_enabled(false);
        assert!(drain().is_empty(), "no dangling End without a Begin");
    }

    #[test]
    fn multi_thread_events_carry_distinct_tids() {
        let _g = GATE.lock().unwrap();
        let _ = drain();
        set_enabled(true);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span(names::SCHEDULE);
                    counter(names::EVAL_FULL, 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let events = drain();
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(events.len(), 9);
        assert_eq!(tids.len(), 3);
    }
}
