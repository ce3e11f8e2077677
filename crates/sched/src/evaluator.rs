//! The incremental evaluation kernel: a reusable [`SystemEvaluator`] that
//! amortizes everything invariant per `(Application, Platform, k)` across
//! the thousands of candidate evaluations a synthesis run performs.
//!
//! [`estimate_schedule_length`](crate::estimate_schedule_length) re-derives
//! the list-scheduling order, recovery schemes, resource tables and
//! transitive-successor structure from scratch on every call — fine for a
//! one-shot estimate, wasteful inside the optimization loops where only the
//! candidate `(mapping, policies)` state changes between calls.
//! **Construction** precomputes the invariants: the exact pop order of the
//! root-schedule list scheduler (a pure function of the DAG and the
//! downward ranks, both state-independent), one [`RecoveryScheme`] per
//! feasible `(process, node)` pair, and reusable per-processor lane and
//! per-process completion buffers. Three entry points then share them:
//!
//! * **[`evaluate`](SystemEvaluator::evaluate)** — a full pass — re-scores
//!   a state against those buffers with zero steady-state allocation, and
//!   anchors it as the evaluator's *base state*.
//! * **[`commit`](SystemEvaluator::commit)** moves the anchor along one
//!   change set: it writes the set over the base state and re-schedules
//!   only the suffix from the set's first dirty position, recording the
//!   new base's reservation logs as it goes. The new base is bit-for-bit
//!   the one `evaluate` of the same state anchors. `evaluate` and `commit`
//!   are the only calls that move the anchor.
//! * **[`evaluate_changes`](SystemEvaluator::evaluate_changes)** — the
//!   incremental path — scores a whole neighborhood of the base state in
//!   one pass, each neighbor given as a change set (the processes whose
//!   copy row or policy differs, from `ftes_ftcpg::ChangeSets`). The
//!   root-schedule prefix before a set's first dirty process is provably
//!   identical to the base's (the pop order is fixed and every reservation
//!   at position `< p` derives from positions `< p` only), so only the
//!   suffix is re-scheduled, and only the set's processes and those whose
//!   completion times moved re-run the slack analysis: the adversarial
//!   replica join for a replicated process, a closed form for a single
//!   copy (whose slack does not depend on when it completes). A set's
//!   first dirty pop position is its lowest, and only its changed policies
//!   are validated. Sets are sorted by dirty position (stably; results
//!   come back in input order), the shared schedule prefix is materialized
//!   incrementally as a sorted per-lane reservation image, and each set is
//!   written into the single anchored copy, scored by forking its suffix
//!   off that image with flat `memcpy` restores, and reverted. A set whose
//!   dirty region reaches position 0 is scored by a full pass instead —
//!   never a wrong one — and still leaves the anchor where it was.
//!
//! ## SoA layout
//!
//! All per-evaluation state lives in contiguous structure-of-arrays
//! buffers, which is what makes shared-prefix forking sound *and* cheap:
//!
//! * copy completion times are one flat `Vec<Time>` in **pop-position
//!   order** with a `Vec<u32>` offset table (`copy_off[pos]..copy_off[pos +
//!   1]` is position `pos`'s row), so "restore the prefix before position
//!   `d`" is a single `memcpy` of `copy_end[..copy_off[d]]` — the prefix of
//!   the flat array *is* the prefix of the schedule;
//! * recovery schemes are one flat slice with a node-count stride;
//! * per-node reservation logs are tagged with the reserving pop position
//!   and appended in pop order, so any prefix image is a cursor walk, and
//!   per-process slack, downstream-finish, and changed flags are flat
//!   arrays indexed by process id.
//!
//! Equality with the legacy free function is bit-for-bit — including which
//! process is reported critical and which error is reported for infeasible
//! states — and is locked in by `tests/evaluator_equality.rs` at the
//! workspace root for every entry point: `evaluate` and one-candidate
//! `evaluate_changes` calls along random walks, `evaluate_changes` over
//! random neighborhoods (result for result and error for error, in input
//! order, and equal to one-candidate calls), and `commit` along walks.

use crate::{worst_case_delivery, Estimate, ReplicaLadder, SchedError};
use ftes_ft::{CopyPlan, FtError, PolicyAssignment, RecoveryScheme};
use ftes_ftcpg::{ChangeSet, ChangeSets, ChangeUndo, CopyMapping};
use ftes_model::{Application, ProcessId, Time};
use ftes_tdma::Platform;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Work counters of one [`SystemEvaluator`] (mergeable across a pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvaluatorStats {
    /// Evaluator constructions (1 per [`SystemEvaluator::new`]).
    pub constructions: u64,
    /// Full passes: [`SystemEvaluator::evaluate`] calls, the candidates
    /// counted in `delta_fallbacks`, and commits whose change set reaches
    /// position 0.
    pub full_evals: u64,
    /// Candidates scored, and change sets committed
    /// ([`SystemEvaluator::commit`]), by re-scheduling only a suffix.
    pub delta_evals: u64,
    /// Candidates equal to the base state (empty change sets, answered from
    /// the anchor).
    pub delta_noops: u64,
    /// Candidates scored by a full pass instead of a suffix (the dirty
    /// region reached position 0). The anchor stays put.
    pub delta_fallbacks: u64,
    /// Neighborhood scoring calls ([`SystemEvaluator::evaluate_changes`]).
    pub batch_evals: u64,
    /// Candidates those calls scored (each also counted in the
    /// full/delta/noop buckets above, so [`EvaluatorStats::evaluations`]
    /// needs no extra term).
    pub batch_candidates: u64,
}

impl EvaluatorStats {
    /// Total candidate evaluations answered.
    pub fn evaluations(&self) -> u64 {
        self.full_evals + self.delta_evals + self.delta_noops
    }

    /// Evaluations served by a *reused* evaluator (beyond one construction
    /// each) — the counter the `ftes explore` summary reports.
    pub fn reused(&self) -> u64 {
        self.evaluations().saturating_sub(self.constructions)
    }

    /// Sums two snapshots (pool/suite aggregation).
    pub fn merged(self, other: EvaluatorStats) -> EvaluatorStats {
        EvaluatorStats {
            constructions: self.constructions + other.constructions,
            full_evals: self.full_evals + other.full_evals,
            delta_evals: self.delta_evals + other.delta_evals,
            delta_noops: self.delta_noops + other.delta_noops,
            delta_fallbacks: self.delta_fallbacks + other.delta_fallbacks,
            batch_evals: self.batch_evals + other.batch_evals,
            batch_candidates: self.batch_candidates + other.batch_candidates,
        }
    }
}

/// Per-`(process, node)` recovery scheme, precomputed at construction.
///
/// `None` = the process has no WCET on that node (a validated copy mapping
/// never asks for it); `Some(Err)` = the scheme itself is invalid there and
/// evaluation must surface the same [`FtError`] the legacy path would.
type SchemeSlot = Option<Result<RecoveryScheme, FtError>>;

/// The schedule image of the anchored state, which change sets restore
/// their schedule prefixes from.
///
/// Mirrors the evaluator's flat SoA scratch: `copy_end`/`copy_off` store the
/// base root schedule pop-position-major, so any schedule prefix restores
/// with two `memcpy`s.
struct BaseState {
    /// Completion time of every copy, flat in pop-position order.
    copy_end: Vec<Time>,
    /// Row offsets into `copy_end` (`copy_off[pos]..copy_off[pos + 1]`).
    copy_off: Vec<u32>,
    /// Per node: reservations in insertion (= pop) order, tagged with the
    /// position of the reserving process so prefixes can be truncated (and,
    /// in the batch path, extended incrementally with a cursor).
    logs: Vec<Vec<(u32, Time, Time)>>,
    /// Root-schedule makespan after each position.
    makespan_after: Vec<Time>,
    /// Recovery slack `delivery − no_fault` per process.
    slack: Vec<Time>,
    estimate: Estimate,
}

/// Reusable evaluation kernel for one `(Application, Platform, k)` problem
/// instance.
///
/// The evaluator owns clones of the application and platform so it can
/// outlive the caller's borrows (the `ftes-serve` evaluator bank keeps warm
/// evaluators across requests). All scratch buffers are reused between
/// calls; steady-state evaluation allocates nothing.
///
/// Only [`evaluate`](SystemEvaluator::evaluate) and
/// [`commit`](SystemEvaluator::commit) move the anchored base state.
/// Scoring ([`evaluate_changes`](SystemEvaluator::evaluate_changes)) never
/// does, not even for a candidate it scores by a full pass, so a search
/// anchors its current state once and commits only the change set it
/// accepts.
///
/// # Examples
///
/// ```
/// use ftes_ft::{Policy, PolicyAssignment};
/// use ftes_ftcpg::{ChangeSets, CopyMapping};
/// use ftes_model::ProcessId;
/// use ftes_model::{samples, Mapping, Time};
/// use ftes_sched::{estimate_schedule_length, SystemEvaluator};
/// use ftes_tdma::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (app, arch) = samples::fig3();
/// let mapping = Mapping::cheapest(&app, &arch)?;
/// let policies = PolicyAssignment::uniform_reexecution(&app, 2);
/// let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)?;
/// let platform = Platform::homogeneous(2, Time::new(8))?;
///
/// let mut evaluator = SystemEvaluator::new(&app, &platform, 2);
/// let fast = evaluator.evaluate(&copies, &policies)?;
/// let legacy = estimate_schedule_length(&app, &platform, &copies, &policies, 2)?;
/// assert_eq!(fast, legacy);
///
/// // A neighborhood in one pass, each neighbor a change set against the
/// // anchored state; results come back in input order.
/// let mut moved = policies.clone();
/// moved.set(ProcessId::new(1), Policy::checkpointing(2, 2));
/// let mut sets = ChangeSets::new();
/// sets.push_diff(&app, (&copies, &policies), (&copies, &moved));
/// sets.close(); // the anchored state itself: an empty set
/// let batch = evaluator.evaluate_changes(&sets);
/// let one = estimate_schedule_length(&app, &platform, &copies, &moved, 2)?;
/// assert_eq!(batch[0].as_ref().unwrap(), &one);
/// assert_eq!(batch[1].as_ref().unwrap(), &legacy);
/// # Ok(())
/// # }
/// ```
pub struct SystemEvaluator {
    app: Application,
    platform: Platform,
    k: u32,
    /// Pop order of the root-schedule list scheduler (state-independent).
    order: Vec<ProcessId>,
    /// Position of each process in `order`.
    pos_of: Vec<u32>,
    /// Recovery scheme of process `p` on node `n` at `p * node_count + n`.
    schemes: Vec<SchemeSlot>,
    node_count: usize,
    // ---- per-evaluation scratch (SoA), reused across calls ----
    /// Copy completion times, flat in pop-position order.
    copy_end: Vec<Time>,
    /// Row offsets into `copy_end`.
    copy_off: Vec<u32>,
    lanes: Vec<Vec<(Time, Time)>>,
    logs: Vec<Vec<(u32, Time, Time)>>,
    makespan_after: Vec<Time>,
    path_end: Vec<Time>,
    slack: Vec<Time>,
    changed: Vec<bool>,
    /// Replica ladders of the process under the slack join (inner `Vec`s
    /// reused so the hot loop never allocates).
    ladders: Vec<ReplicaLadder>,
    /// Memoized bus-arrival time per predecessor copy of the position being
    /// scheduled (the TDMA window scan is consumer-independent, so each
    /// consumer copy after the first reads it back).
    arrival_memo: Vec<Option<Time>>,
    // ---- batch scratch ----
    /// Sorted per-node image of the base reservations before the current
    /// batch candidate's dirty position (grown incrementally, never rebuilt).
    prefix_lanes: Vec<Vec<(Time, Time)>>,
    /// Per-node cursor into the base logs backing `prefix_lanes`.
    prefix_cursor: Vec<usize>,
    /// `(dirty position, input index)` sort keys of the current batch.
    batch_order: Vec<(u32, u32)>,
    /// What the change set being scored overwrote in the anchored state.
    undo: ChangeUndo,
    // ---- anchor + counters ----
    /// The anchored `(copies, policies)`: `Some` exactly when `base` is,
    /// and taken out only while change sets are written over it.
    anchored: Option<(CopyMapping, PolicyAssignment)>,
    base: Option<BaseState>,
    stats: EvaluatorStats,
}

impl SystemEvaluator {
    /// Precomputes the invariant structure for one `(app, platform, k)`
    /// problem instance.
    pub fn new(app: &Application, platform: &Platform, k: u32) -> Self {
        let n = app.process_count();
        let node_count = platform.architecture().node_count();
        let order = schedule_order(app);
        let mut pos_of = vec![0u32; n];
        for (pos, &pid) in order.iter().enumerate() {
            pos_of[pid.index()] = pos as u32;
        }
        let schemes = app
            .processes()
            .flat_map(|(_, proc)| {
                (0..node_count).map(|node| {
                    proc.wcet_on(ftes_model::NodeId::new(node))
                        .map(|wcet| RecoveryScheme::for_process(proc, wcet))
                })
            })
            .collect();
        SystemEvaluator {
            app: app.clone(),
            platform: platform.clone(),
            k,
            order,
            pos_of,
            schemes,
            node_count,
            copy_end: Vec::new(),
            copy_off: Vec::with_capacity(n + 1),
            lanes: vec![Vec::new(); node_count],
            logs: vec![Vec::new(); node_count],
            makespan_after: Vec::with_capacity(n),
            path_end: vec![Time::ZERO; n],
            slack: vec![Time::ZERO; n],
            changed: vec![false; n],
            ladders: Vec::new(),
            arrival_memo: Vec::new(),
            prefix_lanes: vec![Vec::new(); node_count],
            prefix_cursor: vec![0; node_count],
            batch_order: Vec::new(),
            undo: ChangeUndo::default(),
            anchored: None,
            base: None,
            stats: EvaluatorStats { constructions: 1, ..EvaluatorStats::default() },
        }
    }

    /// The application this evaluator was built for.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The platform this evaluator was built for.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The fault budget `k` this evaluator scores against.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> EvaluatorStats {
        self.stats
    }

    /// The anchored state's copy placement, which change sets are derived
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if no state is anchored yet.
    pub fn anchored_copies(&self) -> &CopyMapping {
        &self.anchored.as_ref().expect("a state is anchored").0
    }

    /// Evaluates a state from scratch (reusing all buffers) and anchors it
    /// as the base state that change sets are scored against.
    ///
    /// # Errors
    ///
    /// Exactly the legacy estimator's:
    /// [`SchedError::Tdma`] when a message cannot be scheduled on the bus,
    /// [`SchedError::Ft`] for invalid policies. A failed evaluation leaves
    /// the previous base state in place.
    pub fn evaluate(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
    ) -> Result<Estimate, SchedError> {
        self.stats.full_evals += 1;
        ftes_obs::counter(ftes_obs::names::EVAL_FULL, 1);
        let estimate = self.full_pass(copies, policies, true)?;
        self.anchor(copies, policies, estimate);
        Ok(estimate)
    }

    /// A full from-scratch evaluation without anchoring: the shared body of
    /// [`evaluate`](SystemEvaluator::evaluate) and the candidates scored by
    /// a full pass. Position logs (consumed only by
    /// [`anchor`](SystemEvaluator::anchor)) are recorded only when the
    /// caller is about to anchor.
    fn full_pass(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
        record_logs: bool,
    ) -> Result<Estimate, SchedError> {
        policies.validate(self.k)?;
        self.copy_end.clear();
        self.copy_off.clear();
        self.copy_off.push(0);
        for lane in &mut self.lanes {
            lane.clear();
        }
        if record_logs {
            for log in &mut self.logs {
                log.clear();
            }
        }
        self.makespan_after.clear();
        let makespan = self.schedule_suffix(copies, policies, 0, Time::ZERO, record_logs)?;
        self.finish_estimate(copies, policies, makespan, None)
    }

    /// Scores a whole neighborhood given as change sets against the
    /// anchored state, returning one `Result` per set **in input order** —
    /// each bit-for-bit equal (estimate *and* error) to
    /// [`estimate_schedule_length`](crate::estimate_schedule_length) of the
    /// anchored state with the set written over it.
    ///
    /// Each set is written into the single anchored copy, scored, and
    /// reverted, so no neighbor is ever built as a whole configuration.
    /// The first dirty pop position is the lowest position in the set, and
    /// only the set's processes are flagged changed or have their policy
    /// validated (the anchored state passed validation when it was
    /// anchored). Sets are processed in ascending dirty position (stable on
    /// ties), so the shared schedule prefix is materialized once,
    /// incrementally: per node, a sorted reservation image of the base
    /// prefix grows by a cursor walk over the position-tagged base logs,
    /// and every candidate forks its suffix off flat `memcpy` restores of
    /// that image. The base state is never moved — not even for candidates
    /// that fall back to a full pass — because estimates are pure functions
    /// of the candidate state, so results cannot depend on evaluation
    /// order. A failed candidate never contaminates its successors: each
    /// restore starts from the base image.
    ///
    /// # Panics
    ///
    /// Panics if no state is anchored yet (a change set is relative to
    /// one).
    pub fn evaluate_changes(&mut self, sets: &ChangeSets<'_>) -> Vec<Result<Estimate, SchedError>> {
        let m = sets.len();
        self.count_batch(m);
        let (mut copies, mut policies) =
            self.anchored.take().expect("change sets are scored against an anchored state");

        // Ascending dirty position; ties keep input order (the index is the
        // tie-break), so the prefix image only ever grows.
        self.batch_order.clear();
        for (idx, set) in sets.iter().enumerate() {
            self.batch_order.push((self.dirty_position(set) as u32, idx as u32));
        }
        self.batch_order.sort_unstable();
        for lane in &mut self.prefix_lanes {
            lane.clear();
        }
        self.prefix_cursor.iter_mut().for_each(|c| *c = 0);

        let mut out: Vec<Option<Result<Estimate, SchedError>>> = (0..m).map(|_| None).collect();
        let batch_order = std::mem::take(&mut self.batch_order);
        for &(dirty, idx) in &batch_order {
            let set = sets.get(idx as usize);
            out[idx as usize] =
                Some(self.score_change_set(&mut copies, &mut policies, set, dirty as usize, false));
        }
        self.batch_order = batch_order;
        self.anchored = Some((copies, policies));
        out.into_iter().map(|r| r.expect("every candidate is scored exactly once")).collect()
    }

    /// Moves the anchor along one change set: writes `set` over the
    /// anchored state, re-schedules only the suffix from its first dirty
    /// position (reusing the prefix and the unchanged slack, as
    /// [`evaluate_changes`](SystemEvaluator::evaluate_changes) does) and
    /// anchors the result. The new base state and the returned estimate are
    /// bit-for-bit those of [`evaluate`](SystemEvaluator::evaluate) of the
    /// same state, which is what a search that accepts a scored change set
    /// would otherwise pay a full pass for.
    ///
    /// A set whose dirty region reaches position 0 runs the full pass; an
    /// empty set does nothing and answers the anchored estimate. A commit
    /// counts as one suffix pass (`delta_evals`), or as one full pass from
    /// position 0.
    ///
    /// # Errors
    ///
    /// The error [`evaluate`](SystemEvaluator::evaluate) of the same state
    /// reports; the anchor is then left where it was.
    ///
    /// # Panics
    ///
    /// Panics if no state is anchored yet (a change set is relative to
    /// one).
    pub fn commit(&mut self, set: ChangeSet<'_, '_>) -> Result<Estimate, SchedError> {
        let (mut copies, mut policies) =
            self.anchored.take().expect("a change set is committed over an anchored state");
        let dirty = self.dirty_position(set);
        let result = self.score_change_set(&mut copies, &mut policies, set, dirty, true);
        self.anchored = Some((copies, policies));
        result
    }

    /// The first pop position a change set dirties: its lowest position,
    /// or the process count for an empty set.
    fn dirty_position(&self, set: ChangeSet<'_, '_>) -> usize {
        set.processes().map(|p| self.pos_of[p.index()] as usize).min().unwrap_or(self.order.len())
    }

    /// Scores one change set over the anchored state (`copies`/`policies`,
    /// taken out of the evaluator), raising and lowering only the set's own
    /// changed flags. Scoring leaves the anchored state as it found it; a
    /// successful `commit` leaves the set written and anchors the result.
    fn score_change_set(
        &mut self,
        copies: &mut CopyMapping,
        policies: &mut PolicyAssignment,
        set: ChangeSet<'_, '_>,
        dirty: usize,
        commit: bool,
    ) -> Result<Estimate, SchedError> {
        // Every unchanged policy is the anchored one, which is valid, so the
        // first invalid changed policy is the error a full validation of the
        // candidate reports.
        for (process, policy) in set.policies() {
            policy.validate(self.k).map_err(|e| FtError::ProcessPolicy(process, Box::new(e)))?;
        }
        if dirty >= self.app.process_count() {
            if !commit {
                self.stats.delta_noops += 1;
            }
            return Ok(self.base.as_ref().expect("anchored").estimate);
        }
        self.undo.record(set, copies, policies);
        set.write(copies, policies);
        let result = if dirty == 0 {
            if commit {
                self.stats.full_evals += 1;
                ftes_obs::counter(ftes_obs::names::EVAL_FULL, 1);
            } else {
                self.count_fallback();
            }
            self.full_pass(copies, policies, commit)
        } else {
            self.stats.delta_evals += 1;
            ftes_obs::counter(ftes_obs::names::EVAL_DELTA, 1);
            for p in set.processes() {
                self.changed[p.index()] = true;
            }
            let result = self.score_suffix(copies, policies, dirty, commit);
            for p in set.processes() {
                self.changed[p.index()] = false;
            }
            result
        };
        match result {
            Ok(estimate) if commit => self.rebase(estimate),
            _ => self.undo.revert(copies, policies),
        }
        result
    }

    /// Re-schedules positions `dirty..` of a candidate forked off the base
    /// prefix, then finishes its estimate (reusing unchanged processes'
    /// slack). A scored candidate forks its lanes off the shared prefix
    /// image; a committed one rebuilds them from the base logs cut at
    /// `dirty` and records the suffix's reservations after the cut.
    fn score_suffix(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
        dirty: usize,
        commit: bool,
    ) -> Result<Estimate, SchedError> {
        if !commit {
            self.advance_prefix(dirty);
        }
        // Fork the candidate's suffix off the base prefix: flat memcpys of
        // the base arrays, then the lanes.
        let base = self.base.as_ref().expect("anchored");
        let cut = base.copy_off[dirty] as usize;
        self.copy_end.clear();
        self.copy_end.extend_from_slice(&base.copy_end[..cut]);
        self.copy_off.clear();
        self.copy_off.extend_from_slice(&base.copy_off[..=dirty]);
        let prefix_makespan = base.makespan_after[dirty - 1];
        self.makespan_after.clear();
        self.makespan_after.extend_from_slice(&base.makespan_after[..dirty]);
        if commit {
            // Base logs are in pop order, so the prefix's reservations are
            // a head of each; inserted in that order they form the very
            // sorted lanes a full pass holds at `dirty`.
            for ((lane, log), base_log) in self.lanes.iter_mut().zip(&mut self.logs).zip(&base.logs)
            {
                let kept = base_log.partition_point(|&(pos, _, _)| (pos as usize) < dirty);
                log.clear();
                log.extend_from_slice(&base_log[..kept]);
                lane.clear();
                for &(_, s, e) in log.iter() {
                    lane_reserve(lane, s, e);
                }
            }
        } else {
            for (lane, image) in self.lanes.iter_mut().zip(&self.prefix_lanes) {
                lane.clone_from(image);
            }
        }

        let makespan = self.schedule_suffix(copies, policies, dirty, prefix_makespan, commit)?;
        self.finish_estimate(copies, policies, makespan, Some(dirty))
    }

    /// Counts one batch of `m` candidates.
    fn count_batch(&mut self, m: usize) {
        self.stats.batch_evals += 1;
        self.stats.batch_candidates += m as u64;
        ftes_obs::counter(ftes_obs::names::EVAL_BATCH, 1);
        ftes_obs::counter(ftes_obs::names::EVAL_BATCH_CANDIDATES, m as u64);
    }

    /// Counts one candidate scored by a full pass instead of a suffix.
    fn count_fallback(&mut self) {
        self.stats.delta_fallbacks += 1;
        self.stats.full_evals += 1;
        ftes_obs::counter(ftes_obs::names::EVAL_FALLBACK, 1);
    }

    /// Extends the sorted per-node prefix-lane image to cover every base
    /// reservation before pop position `depth`. Depths are non-decreasing
    /// within a batch (candidates are sorted), so each base reservation is
    /// binary-inserted exactly once per batch; the resulting sequence is
    /// the sorted list of the base reservations before `depth`.
    fn advance_prefix(&mut self, depth: usize) {
        let Some(base) = self.base.as_ref() else { return };
        for (node, log) in base.logs.iter().enumerate() {
            let mut cursor = self.prefix_cursor[node];
            while cursor < log.len() && (log[cursor].0 as usize) < depth {
                let (_, s, e) = log[cursor];
                lane_reserve(&mut self.prefix_lanes[node], s, e);
                cursor += 1;
            }
            self.prefix_cursor[node] = cursor;
        }
    }

    /// List-schedules positions `from..` of the fixed order onto the lane
    /// scratch, extending the flat `copy_end`/`copy_off` arrays and the
    /// per-node logs (the caller has restored them to the prefix before
    /// `from`). Returns the root-schedule makespan.
    fn schedule_suffix(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
        from: usize,
        prefix_makespan: Time,
        record_logs: bool,
    ) -> Result<Time, SchedError> {
        debug_assert_eq!(self.copy_off.len(), from + 1, "caller restores the prefix");
        let bus = self.platform.bus();
        let mut makespan = prefix_makespan;
        for pos in from..self.order.len() {
            let pid = self.order[pos];
            let i = pid.index();
            let proc = self.app.process(pid);
            // The TDMA window of a predecessor copy is the same for every
            // consumer copy on a foreign node; memoize it per position.
            // Filled lazily so a candidate whose consumer copies are all
            // co-located with a predecessor never runs the window scan —
            // exactly where the legacy estimator skips it (the scan can
            // fail, and errors must surface identically).
            self.arrival_memo.clear();
            for (c, &cpu) in copies.copies_of(pid).iter().enumerate() {
                let plan = policies.policy(pid).copies()[c];
                let scheme = scheme_at(&self.schemes, self.node_count, i, cpu.index())?;
                let duration = scheme.fault_free_time(plan.checkpoints);
                // Ready when every predecessor has delivered to this CPU.
                let mut est = proc.release();
                let mut memo_at = 0;
                for &(pred, mid) in self.app.predecessors(pid) {
                    let trans = self.app.message(mid).transmission();
                    // Predecessors pop earlier, so their row is present.
                    let poff = self.copy_off[self.pos_of[pred.index()] as usize] as usize;
                    let mut arrival = Time::MAX;
                    for (pc, &pcpu) in copies.copies_of(pred).iter().enumerate() {
                        if memo_at + pc >= self.arrival_memo.len() {
                            self.arrival_memo.push(None);
                        }
                        let end = self.copy_end[poff + pc];
                        let a = if pcpu == cpu {
                            end
                        } else if let Some(t) = self.arrival_memo[memo_at + pc] {
                            t
                        } else {
                            // Uncontended TDMA window (cheap bound).
                            let t = bus.next_window(pcpu, end, trans)?.end;
                            self.arrival_memo[memo_at + pc] = Some(t);
                            t
                        };
                        arrival = arrival.min(a);
                    }
                    memo_at += copies.copies_of(pred).len();
                    est = est.max(arrival);
                }
                let lane = &mut self.lanes[cpu.index()];
                let s = lane_earliest_fit(lane, est, duration);
                lane_reserve(lane, s, s + duration);
                if record_logs {
                    self.logs[cpu.index()].push((pos as u32, s, s + duration));
                }
                self.copy_end.push(s + duration);
                makespan = makespan.max(s + duration);
            }
            self.copy_off.push(self.copy_end.len() as u32);
            self.makespan_after.push(makespan);
        }
        Ok(makespan)
    }

    /// Phases 2 + 3: downstream-finish structure and recovery slack. With
    /// `reuse_from = Some(dirty)`, slack values of processes untouched by
    /// the change set being scored are reused from the base: a single copy
    /// needs only the same policy and placement, a replicated process the
    /// same completion times too.
    ///
    /// A single copy's slack is a closed form. Its validated policy has
    /// `R ≥ k` recoveries (it tolerates `k` faults alone), so its ladder is
    /// never killable and rises strictly with each fault: the adversarial
    /// join returns the ladder's top rung, `k` faults into the copy, and the
    /// slack is [`RecoveryScheme::recovery_slack`] whenever the copy
    /// completes. Replicated processes keep the ladder join.
    fn finish_estimate(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
        makespan: Time,
        reuse_from: Option<usize>,
    ) -> Result<Estimate, SchedError> {
        // Downstream finish per process: completion of its latest transitive
        // successor in the root schedule (itself, for sinks).
        for &pid in self.app.topological_order().iter().rev() {
            let own = row(&self.copy_end, &self.copy_off, self.pos_of[pid.index()] as usize)
                .iter()
                .copied()
                .min()
                .expect("every process has at least one copy");
            let down = self
                .app
                .successors(pid)
                .iter()
                .map(|&(s, _)| self.path_end[s.index()])
                .max()
                .unwrap_or(Time::ZERO);
            self.path_end[pid.index()] = own.max(down);
        }

        // Recovery slack: worst extra delay when all k faults hit one
        // process, delaying everything downstream of it.
        let mut worst_case = makespan;
        let mut critical = ProcessId::new(0);
        for (pid, _) in self.app.processes() {
            let i = pid.index();
            let pos = self.pos_of[i] as usize;
            let policy = policies.policy(pid);
            let count = policy.copies().len();
            // Prefix rows are memcpy'd from the base, so equality is
            // structural there; an unchanged single copy's slack does not
            // read its row, and a replicated suffix row must be compared.
            let reusable = reuse_from.is_some_and(|d| pos < d)
                || (reuse_from.is_some()
                    && !self.changed[i]
                    && (count == 1
                        || self.base.as_ref().is_some_and(|b| {
                            row(&b.copy_end, &b.copy_off, pos)
                                == row(&self.copy_end, &self.copy_off, pos)
                        })));
            let slack = if reusable {
                self.base.as_ref().expect("reusable implies base").slack[i]
            } else if count == 1 {
                let cpu = copies.copies_of(pid)[0];
                let scheme = scheme_at(&self.schemes, self.node_count, i, cpu.index())?;
                scheme.recovery_slack(policy.copies()[0].checkpoints, self.k)
            } else {
                while self.ladders.len() < count {
                    self.ladders.push(ReplicaLadder { ladder: Vec::new(), killable: false });
                }
                for (slot, ((plan, &cpu), &end)) in policy
                    .copies()
                    .iter()
                    .zip(copies.copies_of(pid))
                    .zip(row(&self.copy_end, &self.copy_off, pos))
                    .enumerate()
                {
                    let scheme = scheme_at(&self.schemes, self.node_count, i, cpu.index())?;
                    fill_ladder(scheme, *plan, end, self.k, &mut self.ladders[slot]);
                }
                let ladders = &self.ladders[..count];
                let no_fault = ladders
                    .iter()
                    .map(|l| l.ladder[0])
                    .min()
                    .expect("policies have at least one copy");
                let delivery = worst_case_delivery(ladders, self.k).ok_or(SchedError::Ft(
                    FtError::InsufficientPolicy { k: self.k, tolerated: 0 },
                ))?;
                delivery - no_fault
            };
            self.slack[i] = slack;
            let finish = self.path_end[i] + slack;
            if finish > worst_case {
                worst_case = finish;
                critical = pid;
            }
        }

        Ok(Estimate {
            fault_free_length: makespan,
            worst_case_length: worst_case,
            critical_process: critical,
        })
    }

    /// Stores the just-evaluated state as the anchor, reusing the previous
    /// anchor's allocations.
    fn anchor(&mut self, copies: &CopyMapping, policies: &PolicyAssignment, estimate: Estimate) {
        match &mut self.anchored {
            Some((base_copies, base_policies)) => {
                base_copies.clone_from(copies);
                base_policies.clone_from(policies);
            }
            None => self.anchored = Some((copies.clone(), policies.clone())),
        }
        self.rebase(estimate);
    }

    /// Makes the schedule image in the scratch buffers (a full pass or a
    /// committed suffix, logs recorded) the base state. The buffers are
    /// swapped, not copied: every pass rebuilds the scratch it reads.
    fn rebase(&mut self, estimate: Estimate) {
        match &mut self.base {
            Some(base) => {
                std::mem::swap(&mut base.copy_end, &mut self.copy_end);
                std::mem::swap(&mut base.copy_off, &mut self.copy_off);
                std::mem::swap(&mut base.logs, &mut self.logs);
                std::mem::swap(&mut base.makespan_after, &mut self.makespan_after);
                std::mem::swap(&mut base.slack, &mut self.slack);
                base.estimate = estimate;
            }
            None => {
                self.base = Some(BaseState {
                    copy_end: self.copy_end.clone(),
                    copy_off: self.copy_off.clone(),
                    logs: self.logs.clone(),
                    makespan_after: self.makespan_after.clone(),
                    slack: self.slack.clone(),
                    estimate,
                });
            }
        }
    }
}

/// Position `pos`'s completion-time row of a flat pop-position-major array.
#[inline]
fn row<'a>(copy_end: &'a [Time], copy_off: &[u32], pos: usize) -> &'a [Time] {
    &copy_end[copy_off[pos] as usize..copy_off[pos + 1] as usize]
}

/// Looks up the precomputed recovery scheme of process `p` on node `node`
/// in the flat stride-`node_count` slice, reproducing the legacy
/// error/panic behavior exactly.
fn scheme_at(
    schemes: &[SchemeSlot],
    node_count: usize,
    p: usize,
    node: usize,
) -> Result<RecoveryScheme, SchedError> {
    match &schemes[p * node_count + node] {
        Some(Ok(scheme)) => Ok(*scheme),
        Some(Err(e)) => Err(SchedError::Ft(e.clone())),
        None => panic!("copy mapping is validated"),
    }
}

/// Earliest start `t ≥ ready` fitting `duration` into a lane of disjoint,
/// start-sorted reservations. A single pass reaches the fixed point the
/// generic guard-aware [`ResourceTable`](crate::ResourceTable) loop
/// computes, because the estimator only ever reserves with the
/// always-guard: once `t` is pushed past reservation `i`, every earlier
/// reservation ends at or before `i`'s start and can never overlap again.
fn lane_earliest_fit(lane: &[(Time, Time)], ready: Time, duration: Time) -> Time {
    if duration <= Time::ZERO {
        return ready;
    }
    let mut t = ready;
    // Reservations never overlap (positive durations, earliest-fit
    // placement), so the start-sorted lane is end-sorted too and every
    // entry ending at or before `ready` can be skipped in one jump.
    let from = lane.partition_point(|&(_, end)| end <= t);
    for &(start, end) in &lane[from..] {
        if start >= t + duration {
            break;
        }
        if end <= t {
            continue;
        }
        t = end;
    }
    t
}

/// Inserts a reservation keeping the lane sorted by start.
fn lane_reserve(lane: &mut Vec<(Time, Time)>, start: Time, end: Time) {
    let pos = lane.partition_point(|&r| r <= (start, end));
    lane.insert(pos, (start, end));
}

/// The completion ladder of one copy given its fault-free completion time,
/// written into a reusable slot (the slack join runs once per process per
/// candidate — allocating here would dominate the batch path).
pub(crate) fn fill_ladder(
    scheme: RecoveryScheme,
    plan: CopyPlan,
    fault_free_end: Time,
    k: u32,
    out: &mut ReplicaLadder,
) {
    let base = scheme.fault_free_time(plan.checkpoints);
    let max_faults = plan.recoveries.min(k);
    out.ladder.clear();
    out.ladder.reserve(max_faults as usize + 1);
    for f in 0..=max_faults {
        let w = scheme.worst_case_time(plan.checkpoints, f);
        out.ladder.push(fault_free_end + (w - base));
    }
    // The copy dies if faults can exceed its recoveries within the budget.
    out.killable = plan.recoveries < k;
}

/// Longest path (minimum-WCET durations plus transmissions) from each
/// process to any sink.
pub(crate) fn app_ranks(app: &Application) -> Vec<Time> {
    let n = app.process_count();
    let mut rank = vec![Time::ZERO; n];
    for &pid in app.topological_order().iter().rev() {
        let proc = app.process(pid);
        let dur =
            proc.candidate_nodes().filter_map(|c| proc.wcet_on(c)).min().unwrap_or(Time::ZERO);
        let down = app
            .successors(pid)
            .iter()
            .map(|&(s, m)| rank[s.index()] + app.message(m).transmission())
            .max()
            .unwrap_or(Time::ZERO);
        rank[pid.index()] = dur + down;
    }
    rank
}

/// The exact pop order of the root-schedule list scheduler: a priority
/// topological sort by `(downward rank, lowest index)` — a pure function of
/// the application, independent of any candidate state, which is what makes
/// prefix reuse in `evaluate_changes` sound.
fn schedule_order(app: &Application) -> Vec<ProcessId> {
    let n = app.process_count();
    let rank = app_ranks(app);
    let mut indegree: Vec<usize> =
        (0..n).map(|i| app.predecessors(ProcessId::new(i)).len()).collect();
    let mut ready: BinaryHeap<(Time, Reverse<usize>)> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| (rank[i], Reverse(i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some((_, Reverse(i))) = ready.pop() {
        let pid = ProcessId::new(i);
        order.push(pid);
        for &(succ, _) in app.successors(pid) {
            indegree[succ.index()] -= 1;
            if indegree[succ.index()] == 0 {
                ready.push((rank[succ.index()], Reverse(succ.index())));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "validated applications are acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_schedule_length;
    use ftes_ft::Policy;
    use ftes_model::{samples, Mapping};

    fn fig3_instance(k: u32) -> (Application, Platform, Mapping, PolicyAssignment) {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
        (app, platform, mapping, policies)
    }

    /// Scores whole `states` in one `evaluate_changes` pass, each diffed
    /// into a change set against `base`, the anchored state.
    fn score_states(
        ev: &mut SystemEvaluator,
        base: (&CopyMapping, &PolicyAssignment),
        states: &[(&CopyMapping, &PolicyAssignment)],
    ) -> Vec<Result<Estimate, SchedError>> {
        let mut sets = ChangeSets::new();
        for &state in states {
            sets.push_diff(ev.app(), base, state);
        }
        ev.evaluate_changes(&sets)
    }

    #[test]
    fn evaluate_matches_legacy_bit_for_bit() {
        for k in 0..=3 {
            let (app, platform, mapping, policies) = fig3_instance(k);
            let copies =
                CopyMapping::from_base(&app, platform.architecture(), &mapping, &policies).unwrap();
            let mut ev = SystemEvaluator::new(&app, &platform, k);
            let fast = ev.evaluate(&copies, &policies).unwrap();
            let legacy = estimate_schedule_length(&app, &platform, &copies, &policies, k).unwrap();
            assert_eq!(fast, legacy, "k={k}");
            // A reused evaluator stays equal.
            assert_eq!(ev.evaluate(&copies, &policies).unwrap(), legacy);
        }
    }

    #[test]
    fn delta_after_repolicy_matches_full() {
        let (app, platform, mapping, policies) = fig3_instance(2);
        let arch = platform.architecture().clone();
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let mut ev = SystemEvaluator::new(&app, &platform, 2);
        ev.evaluate(&copies, &policies).unwrap();

        for p in 0..app.process_count() {
            let mut moved = policies.clone();
            moved.set(ProcessId::new(p), Policy::checkpointing(2, 2));
            let moved_copies = CopyMapping::from_base(&app, &arch, &mapping, &moved).unwrap();
            let delta = score_states(&mut ev, (&copies, &policies), &[(&moved_copies, &moved)]);
            let legacy = estimate_schedule_length(&app, &platform, &moved_copies, &moved, 2);
            assert_eq!(delta[0], Ok(legacy.unwrap()), "repolicy of P{p}");
        }
        let stats = ev.stats();
        assert!(stats.delta_evals + stats.delta_fallbacks > 0);
    }

    #[test]
    fn delta_after_remap_matches_full() {
        let (app, platform, mapping, policies) = fig3_instance(1);
        let arch = platform.architecture().clone();
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let mut ev = SystemEvaluator::new(&app, &platform, 1);
        ev.evaluate(&copies, &policies).unwrap();

        for (pid, proc) in app.processes() {
            if proc.fixed_node().is_some() {
                continue;
            }
            for node in proc.candidate_nodes() {
                if node == mapping.node_of(pid) {
                    continue;
                }
                let Ok(moved) = mapping.with_move(&app, &arch, pid, node) else { continue };
                let moved_copies = CopyMapping::from_base(&app, &arch, &moved, &policies).unwrap();
                let moved = [(&moved_copies, &policies)];
                let delta = score_states(&mut ev, (&copies, &policies), &moved);
                let legacy = estimate_schedule_length(&app, &platform, &moved_copies, &policies, 1);
                assert_eq!(delta[0], Ok(legacy.unwrap()), "remap of {pid:?} to {node:?}");
            }
        }
    }

    #[test]
    fn delta_on_identical_state_is_a_noop() {
        let (app, platform, mapping, policies) = fig3_instance(2);
        let copies =
            CopyMapping::from_base(&app, platform.architecture(), &mapping, &policies).unwrap();
        let mut ev = SystemEvaluator::new(&app, &platform, 2);
        let full = ev.evaluate(&copies, &policies).unwrap();
        let state = (&copies, &policies);
        assert_eq!(score_states(&mut ev, state, &[state])[0], Ok(full));
        assert_eq!(ev.stats().delta_noops, 1);
    }

    #[test]
    fn delta_from_position_zero_falls_back_to_full() {
        let (app, platform, mapping, policies) = fig3_instance(2);
        let copies =
            CopyMapping::from_base(&app, platform.architecture(), &mapping, &policies).unwrap();
        let mut ev = SystemEvaluator::new(&app, &platform, 2);
        let full = ev.evaluate(&copies, &policies).unwrap();
        // A repolicy of the first process popped dirties position 0.
        let mut moved = policies.clone();
        moved.set(ev.order[0], Policy::checkpointing(2, 2));
        let legacy = estimate_schedule_length(&app, &platform, &copies, &moved, 2).unwrap();
        // Scoring never anchors: the second call falls back too, and the
        // anchored state still answers as a noop.
        let state = (&copies, &policies);
        for calls in 1..=2 {
            assert_eq!(score_states(&mut ev, state, &[(&copies, &moved)])[0], Ok(legacy));
            assert_eq!(ev.stats().delta_fallbacks, calls);
        }
        assert_eq!(score_states(&mut ev, state, &[state])[0], Ok(full));
        assert_eq!(ev.stats().delta_evals, 0);
    }

    #[test]
    fn invalid_policies_error_on_both_paths() {
        let (app, platform, mapping, _) = fig3_instance(2);
        // k = 2 budget but a policy that tolerates nothing.
        let policies = PolicyAssignment::uniform_reexecution(&app, 0);
        let copies =
            CopyMapping::from_base(&app, platform.architecture(), &mapping, &policies).unwrap();
        let mut ev = SystemEvaluator::new(&app, &platform, 2);
        let fast = ev.evaluate(&copies, &policies);
        let legacy = estimate_schedule_length(&app, &platform, &copies, &policies, 2);
        assert_eq!(fast.is_err(), legacy.is_err());
        assert!(fast.is_err());
    }

    #[test]
    fn lane_matches_resource_table_semantics() {
        use crate::ResourceTable;
        use ftes_ftcpg::Guard;
        // Randomized-ish interleavings: the lane and the generic table must
        // agree on every placement when all guards are `always`.
        let requests =
            [(0i64, 5i64), (3, 4), (10, 2), (1, 1), (8, 3), (0, 7), (20, 1), (2, 6), (15, 5)];
        let mut lane: Vec<(Time, Time)> = Vec::new();
        let mut table = ResourceTable::new();
        for &(ready, dur) in &requests {
            let (ready, dur) = (Time::new(ready), Time::new(dur));
            let a = lane_earliest_fit(&lane, ready, dur);
            let b = table.earliest_fit(ready, dur, &Guard::always());
            assert_eq!(a, b);
            lane_reserve(&mut lane, a, a + dur);
            table.reserve(b, b + dur, Guard::always());
        }
    }

    #[test]
    fn stats_count_reuse() {
        let (app, platform, mapping, policies) = fig3_instance(1);
        let copies =
            CopyMapping::from_base(&app, platform.architecture(), &mapping, &policies).unwrap();
        let mut ev = SystemEvaluator::new(&app, &platform, 1);
        for _ in 0..3 {
            ev.evaluate(&copies, &policies).unwrap();
        }
        let state = (&copies, &policies);
        score_states(&mut ev, state, &[state]).remove(0).unwrap();
        let stats = ev.stats();
        assert_eq!(stats.constructions, 1);
        assert_eq!(stats.full_evals, 3);
        assert_eq!(stats.delta_noops, 1);
        assert_eq!(stats.evaluations(), 4);
        assert_eq!(stats.reused(), 3);
        let merged = stats.merged(stats);
        assert_eq!(merged.evaluations(), 8);
    }

    #[test]
    fn batch_matches_one_candidate_calls_in_input_order() {
        let (app, platform, mapping, policies) = fig3_instance(2);
        let arch = platform.architecture().clone();
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();

        // A mixed neighborhood: repolicies, the base itself (noop), and an
        // invalid policy (validate error) — in deliberately shuffled order.
        let mut neighborhood: Vec<(CopyMapping, PolicyAssignment)> = Vec::new();
        for p in (0..app.process_count()).rev() {
            let mut moved = policies.clone();
            moved.set(ProcessId::new(p), Policy::checkpointing(2, 2));
            let moved_copies = CopyMapping::from_base(&app, &arch, &mapping, &moved).unwrap();
            neighborhood.push((moved_copies, moved));
        }
        neighborhood.insert(1, (copies.clone(), policies.clone()));
        let bad = PolicyAssignment::uniform_reexecution(&app, 0);
        let bad_copies = CopyMapping::from_base(&app, &arch, &mapping, &bad).unwrap();
        neighborhood.insert(3, (bad_copies, bad));

        let base = (&copies, &policies);
        let mut batch_ev = SystemEvaluator::new(&app, &platform, 2);
        batch_ev.evaluate(&copies, &policies).unwrap();
        let refs: Vec<(&CopyMapping, &PolicyAssignment)> =
            neighborhood.iter().map(|(c, p)| (c, p)).collect();
        let batch = score_states(&mut batch_ev, base, &refs);

        let stats = batch_ev.stats();
        assert_eq!(stats.batch_evals, 1);
        assert_eq!(stats.batch_candidates, neighborhood.len() as u64);
        assert_eq!(stats.delta_noops, 1, "the base candidate answers from the anchor");

        let mut one_ev = SystemEvaluator::new(&app, &platform, 2);
        one_ev.evaluate(&copies, &policies).unwrap();
        for (i, (c, p)) in neighborhood.iter().enumerate() {
            let one = score_states(&mut one_ev, base, &[(c, p)]).remove(0);
            assert_eq!(batch[i], one, "candidate {i}");
            assert_eq!(one, estimate_schedule_length(&app, &platform, c, p, 2), "candidate {i}");
        }
        // The batch never moves the base: the base still answers as a noop.
        assert_eq!(score_states(&mut batch_ev, base, &[base])[0], batch[1]);
        assert_eq!(batch_ev.stats().delta_noops, 2);
    }

    #[test]
    fn batch_recomputes_the_slack_of_a_changed_process_that_ends_on_time() {
        use ftes_model::{ApplicationBuilder, NodeId, ProcessSpec};
        // A → B. Moving B off A's node to one where it runs shorter but
        // waits for the bus can leave its completion time as it was, while
        // its recovery slack (k re-executions of its WCET) shrinks: only
        // the change set's changed flag keeps the batch from reusing the
        // anchored slack.
        let mut same_end = 0;
        for w in 1..=10 {
            let mut builder = ApplicationBuilder::new(2);
            let a = builder.add_process(ProcessSpec::uniform("A", Time::new(2), 2));
            let b = builder
                .add_process(ProcessSpec::new("B", [Some(Time::new(10)), Some(Time::new(w))]));
            builder.add_message("m", a, b, Time::new(1)).unwrap();
            let app = builder.deadline(Time::new(1000)).build().unwrap();
            let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
            let arch = platform.architecture();
            let policies = PolicyAssignment::uniform_reexecution(&app, 2);
            let mapping = Mapping::new(&app, arch, vec![NodeId::new(0), NodeId::new(0)]).unwrap();
            let moved = mapping.with_move(&app, arch, b, NodeId::new(1)).unwrap();
            let base = CopyMapping::from_base(&app, arch, &mapping, &policies).unwrap();
            let cand = CopyMapping::from_base(&app, arch, &moved, &policies).unwrap();
            let before = estimate_schedule_length(&app, &platform, &base, &policies, 2).unwrap();
            let after = estimate_schedule_length(&app, &platform, &cand, &policies, 2).unwrap();
            if after.fault_free_length != before.fault_free_length {
                continue;
            }
            same_end += 1;
            assert_ne!(after.worst_case_length, before.worst_case_length, "w={w}");
            let mut ev = SystemEvaluator::new(&app, &platform, 2);
            ev.evaluate(&base, &policies).unwrap();
            let scored = score_states(&mut ev, (&base, &policies), &[(&cand, &policies)]);
            assert_eq!(scored[0], Ok(after), "w={w}");
            assert_eq!(ev.stats().delta_evals, 1, "B's move is scored as a suffix delta");
        }
        assert_eq!(same_end, 1, "exactly one WCET of B reproduces its completion time");
    }

    #[test]
    fn single_copy_slack_is_the_closed_form() {
        // splitmix64, so the draws are the same on every platform.
        let mut state = 23u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let (mut schemes, mut zero_wcets) = (0, 0);
        let mut ladder = ReplicaLadder { ladder: Vec::new(), killable: false };
        while schemes < 3000 {
            let [wcet, alpha, mu, chi] = [next(60), next(12), next(12), next(12)];
            let scheme = RecoveryScheme::new(
                Time::new(wcet as i64),
                Time::new(alpha as i64),
                Time::new(mu as i64),
                Time::new(chi as i64),
            );
            // A zero WCET has no scheme: its slot holds the error, which
            // `schedule_suffix` surfaces before any slack is computed.
            let Ok(scheme) = scheme else {
                assert_eq!(wcet, 0, "only a zero WCET is rejected");
                zero_wcets += 1;
                continue;
            };
            schemes += 1;
            for k in 0..=7 {
                // A validated single copy tolerates k faults alone: R ≥ k.
                let plan = CopyPlan::checkpointed(k + next(3) as u32, next(9) as u32);
                let end = Time::new(next(1_000_000_001) as i64);
                fill_ladder(scheme, plan, end, k, &mut ladder);
                let joined = std::slice::from_ref(&ladder);
                let delivery = worst_case_delivery(joined, k).expect("a single copy delivers");
                assert_eq!(
                    scheme.recovery_slack(plan.checkpoints, k),
                    delivery - ladder.ladder[0],
                    "{scheme:?} {plan:?} k={k} end={end:?}"
                );
            }
        }
        assert!(zero_wcets > 0, "the draws include a zero WCET");
    }

    #[test]
    fn empty_batch_is_a_cheap_noop() {
        let (app, platform, mapping, policies) = fig3_instance(1);
        let mut ev = SystemEvaluator::new(&app, &platform, 1);
        let copies =
            CopyMapping::from_base(&app, platform.architecture(), &mapping, &policies).unwrap();
        ev.evaluate(&copies, &policies).unwrap();
        assert!(ev.evaluate_changes(&ChangeSets::new()).is_empty());
        assert_eq!(ev.stats().batch_evals, 1);
        assert_eq!(ev.stats().evaluations(), 1, "the anchoring pass only");
    }
}
