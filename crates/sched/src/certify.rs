//! On-demand exact certification of candidate configurations.
//!
//! The fast estimator the optimization loops run on is a *ranking
//! heuristic*: it prices the adversary's concentrated `k`-fault attack but
//! not multi-process recovery cascades that serialize on a shared CPU, so
//! it is optimistic relative to the exact conditional schedule —
//! increasingly so with `k` and for incumbents that mix policies. A search
//! that only ever consults the estimator can therefore return a "best"
//! configuration that is not actually schedulable.
//!
//! The [`Certifier`] closes that gap: it runs the full FT-CPG construction
//! and exact conditional scheduler for one candidate configuration on
//! demand, under a work budget, and memoizes the verdict behind the same
//! canonical-key discipline as the exploration's state keys (an exact,
//! collision-free encoding of the `(copies, policies)` state — the two
//! inputs that vary between candidates of one `(app, platform, k,
//! transparency)` instance). The repair loops in `ftes-opt` and the suite
//! runner in `ftes-explore` hold one certifier per problem instance, so a
//! configuration revisited across repair rounds is re-certified for free.
//!
//! The certifier also reports a per-instance **calibration factor** —
//! the largest `exact / estimate` ratio observed on certified incumbents —
//! which the searches fold into acceptance (see
//! `SearchConfig::calibration_milli` in `ftes-opt`) so the estimator stops
//! systematically under-pricing policy mixes on instances where the gap
//! has already been measured.

use crate::{
    check_deadlines, schedule_ftcpg_bounded, BoundedSchedule, ConditionalSchedule, JoinMemo,
    SchedConfig, SchedError,
};
use ftes_ft::PolicyAssignment;
use ftes_ftcpg::{build_ftcpg_anchored, BuildConfig, CopyMapping, CpgAnchor, CpgError, FtCpg};
use ftes_model::{Application, FaultModel, Time, Transparency};
use ftes_tdma::Platform;
// ftes-lint: allow(determinism) reason="canonical-key certification memo; probed per key, never iterated into results"
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Tunables of a [`Certifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifyConfig {
    /// FT-CPG size budget: configurations whose graph exceeds it are
    /// reported [`CertOutcome::OverBudget`] instead of certified (the
    /// estimate-only regime of the paper's large-scale experiments).
    pub cpg: BuildConfig,
    /// Exact-scheduler tunables (condition broadcast time).
    pub sched: SchedConfig,
    /// Work budget: exact schedules this certifier may compute over its
    /// lifetime. Once exhausted, uncached requests return
    /// [`CertOutcome::OverBudget`]; memoized verdicts keep answering.
    pub max_exact_runs: u64,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            cpg: BuildConfig::default(),
            sched: SchedConfig::default(),
            max_exact_runs: 64,
        }
    }
}

/// Verdict of one certification request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertOutcome {
    /// The exact conditional schedule was computed.
    Exact {
        /// Worst-case length of the exact conditional schedule.
        exact_len: Time,
        /// `true` when the exact schedule meets the global deadline and
        /// every local process deadline.
        deadline_met: bool,
    },
    /// The FT-CPG exceeded the size budget, or the certifier's work budget
    /// is exhausted — no exact verdict exists for this configuration.
    OverBudget,
}

impl CertOutcome {
    /// The exact schedule length, when one was computed.
    pub fn exact_len(&self) -> Option<Time> {
        match self {
            CertOutcome::Exact { exact_len, .. } => Some(*exact_len),
            CertOutcome::OverBudget => None,
        }
    }

    /// `true` when the configuration is exact-certified schedulable.
    pub fn is_certified(&self) -> bool {
        matches!(self, CertOutcome::Exact { deadline_met: true, .. })
    }
}

/// Verdict of one *bounded* certification request
/// ([`Certifier::certify_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedCert {
    /// The run completed (or was answered from the verdict memo): a full
    /// [`CertOutcome`] exists.
    Verdict(CertOutcome),
    /// The run refuted early: some scenario branch provably finishes after
    /// the bound, so the full schedule was never computed.
    Pruned {
        /// A proven lower bound on the exact schedule length — the end
        /// time of the first placed node that exceeded the bound (a real
        /// completion time in a valid partial schedule, so
        /// `exact_len >= lower_bound > bound`).
        lower_bound: Time,
    },
}

impl BoundedCert {
    /// `true` when the configuration is exact-certified schedulable
    /// (a pruned run is a refutation, never a certification).
    pub fn is_certified(&self) -> bool {
        matches!(self, BoundedCert::Verdict(v) if v.is_certified())
    }
}

/// Error produced during certification (hard failures only — budget and
/// size overruns are [`CertOutcome::OverBudget`], not errors).
#[derive(Debug)]
#[non_exhaustive]
pub enum CertifyError {
    /// FT-CPG construction failed for a reason other than size.
    Cpg(CpgError),
    /// Exact conditional scheduling failed.
    Sched(SchedError),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Cpg(e) => write!(f, "certification: FT-CPG construction failed: {e}"),
            CertifyError::Sched(e) => write!(f, "certification: exact scheduling failed: {e}"),
        }
    }
}

impl Error for CertifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CertifyError::Cpg(e) => Some(e),
            CertifyError::Sched(e) => Some(e),
        }
    }
}

impl From<CpgError> for CertifyError {
    fn from(e: CpgError) -> Self {
        CertifyError::Cpg(e)
    }
}

impl From<SchedError> for CertifyError {
    fn from(e: SchedError) -> Self {
        CertifyError::Sched(e)
    }
}

/// Work counters of one [`Certifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CertifierStats {
    /// Certification requests answered (cached or not).
    pub requests: u64,
    /// Requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Exact conditional scheduler invocations (complete or pruned —
    /// both consume the work budget; they do real scheduling work).
    pub exact_runs: u64,
    /// Requests answered [`CertOutcome::OverBudget`] because the FT-CPG
    /// exceeded the size budget.
    pub graph_too_large: u64,
    /// Requests answered [`CertOutcome::OverBudget`] because the work
    /// budget (`max_exact_runs`) was exhausted.
    pub budget_exhausted: u64,
    /// Uncached requests whose FT-CPG was rebuilt incrementally from the
    /// certifier's anchor instead of from scratch.
    pub incremental_builds: u64,
    /// Bounded certifications that refuted early (bound-and-prune exit)
    /// instead of scheduling every scenario.
    pub pruned_runs: u64,
    /// Replica-join deliveries answered from the fault-scenario subtree
    /// memo.
    pub subtree_hits: u64,
    /// Replica-join deliveries computed outside the subtree memo.
    pub subtree_misses: u64,
    /// Wall-clock time spent inside certification (graph construction +
    /// exact scheduling).
    pub wall: Duration,
}

/// Corpus-level certification accounting: how many configurations in a
/// batch (a corpus run, a daemon's lifetime, a suite sweep) certified,
/// shipped refuted, or ran estimate-only, plus the calibrated repair
/// searches spent getting there.
///
/// The counters are plain-old-data and mergeable, so independent workers
/// can each keep their own and fold them at the end
/// ([`CertificationCounters::merged`]): the corpus batch driver in
/// `ftes`, the `ftes-serve` `/metrics` endpoint and the
/// `fig_paper_tables` harness all report this shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CertificationCounters {
    /// Configurations whose exact conditional schedule met every deadline.
    pub certified: u64,
    /// Configurations that shipped explicitly refuted (repair exhausted).
    pub refuted: u64,
    /// Configurations in the estimate-only regime (FT-CPG over budget) —
    /// no exact verdict exists.
    pub uncertifiable: u64,
    /// Total calibrated repair searches run across the batch.
    pub repair_rounds: u64,
}

impl CertificationCounters {
    /// Records one synthesis outcome: `Some(true)` certified,
    /// `Some(false)` refuted, `None` uncertifiable, plus its repair
    /// rounds.
    pub fn record(&mut self, certified: Option<bool>, repair_rounds: u64) {
        match certified {
            Some(true) => self.certified += 1,
            Some(false) => self.refuted += 1,
            None => self.uncertifiable += 1,
        }
        self.repair_rounds += repair_rounds;
    }

    /// Element-wise sum, for folding per-worker counters.
    #[must_use]
    pub fn merged(self, other: CertificationCounters) -> CertificationCounters {
        CertificationCounters {
            certified: self.certified + other.certified,
            refuted: self.refuted + other.refuted,
            uncertifiable: self.uncertifiable + other.uncertifiable,
            repair_rounds: self.repair_rounds + other.repair_rounds,
        }
    }

    /// Configurations recorded (all three outcome classes).
    pub fn total(&self) -> u64 {
        self.certified + self.refuted + self.uncertifiable
    }

    /// Certified fraction of all recorded configurations, in percent
    /// (0 when nothing was recorded). The schedulability-percentage
    /// column of the paper-style comparison tables.
    pub fn certified_pct(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        100.0 * self.certified as f64 / self.total() as f64
    }
}

/// On-demand exact certification kernel for one
/// `(application, platform, k, transparency)` problem instance.
///
/// Construction is cheap (clones of the inputs); all expensive work happens
/// lazily per certified configuration and is memoized, so re-certifying a
/// configuration across repair rounds costs a map lookup.
///
/// # `exact >= estimate` is *not* a theorem
///
/// It is tempting to treat the exact conditional schedule as an upper
/// bound on the fast estimate and assert `exact_len >=
/// estimate.worst_case_length` when consuming verdicts. **Do not.** The
/// estimator and the exact scheduler are both greedy list schedulers, but
/// over *different graphs and priority orders*: the estimator prices a
/// concentrated `k`-fault attack on the root schedule, the exact
/// scheduler walks the full FT-CPG. The estimate is optimistic on most
/// states (it under-prices multi-process recovery cascades that
/// serialize on a shared CPU — the dominant gap, and the reason this
/// certifier exists), but classic list-scheduling *order anomalies* make
/// a small pessimistic tail legitimate: on random systems roughly 1–2%
/// of states measure `exact < estimate`, bounded ≲1.3× (e.g. estimate
/// 494 vs exact 464 at k = 2, and a pure k = 0 order anomaly of
/// estimate 393 vs exact 305). `tests/certification.rs` pins the measured
/// envelope in both directions; code consuming [`CertOutcome`] must
/// treat the exact length as authoritative and the estimate as a ranking
/// heuristic, never assume an inequality between them.
///
/// # Examples
///
/// ```
/// use ftes_ft::PolicyAssignment;
/// use ftes_ftcpg::CopyMapping;
/// use ftes_model::{samples, FaultModel, Mapping, Time, Transparency};
/// use ftes_sched::{CertOutcome, Certifier, CertifyConfig};
/// use ftes_tdma::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (app, arch) = samples::fig3();
/// let mapping = Mapping::cheapest(&app, &arch)?;
/// let policies = PolicyAssignment::uniform_reexecution(&app, 2);
/// let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)?;
/// let platform = Platform::homogeneous(2, Time::new(8))?;
/// let mut certifier = Certifier::new(
///     &app, &platform, FaultModel::new(2), &Transparency::none(),
///     CertifyConfig::default(),
/// );
/// let verdict = certifier.certify(&copies, &policies)?;
/// assert!(matches!(verdict, CertOutcome::Exact { .. }));
/// # Ok(())
/// # }
/// ```
pub struct Certifier {
    app: Application,
    platform: Platform,
    fault_model: FaultModel,
    transparency: Transparency,
    config: CertifyConfig,
    /// Memoized verdicts keyed by the canonical `(copies, policies)`
    /// encoding. Only outcomes that cannot change are cached — a
    /// budget-exhausted `OverBudget` is *not* cached, so raising the budget
    /// on a fresh certifier re-answers.
    verdicts: HashMap<Vec<u8>, CertOutcome>,
    /// Refutation evidence from bounded runs: the largest lower bound on
    /// `exact_len` ever proved for a configuration. A stored bound answers
    /// any later [`Certifier::certify_bounded`] whose bound it exceeds
    /// without re-scheduling; it never answers an unbounded [`Certifier::certify`]
    /// (a pruned run has no exact length).
    refuted_bounds: HashMap<Vec<u8>, Time>,
    /// FT-CPG anchor for incremental rebuilds: after the first uncached
    /// certification, later configurations diff against the anchored
    /// `(copies, policies)` and rebuild only the dirty suffix.
    anchor: Option<CpgAnchor>,
    /// Memoized fault-scenario subtree deliveries, shared across every
    /// exact run of this certifier (keys are canonical ladder encodings,
    /// so a policy change on one process invalidates exactly the subtrees
    /// it touches — their keys change).
    join_memo: JoinMemo,
    /// Artifacts (FT-CPG + exact schedule) of the most recently scheduled
    /// configuration, so the flow can reuse them for table generation
    /// instead of rebuilding the winner's graph from scratch.
    last_artifacts: Option<(Vec<u8>, FtCpg, ConditionalSchedule)>,
    /// Largest `exact / estimate` ratio observed so far, in milli-units
    /// (1000 = the estimator was exact). Fed back into calibrated search
    /// acceptance.
    calibration_milli: u64,
    stats: CertifierStats,
}

impl Certifier {
    /// A certifier for one problem instance.
    pub fn new(
        app: &Application,
        platform: &Platform,
        fault_model: FaultModel,
        transparency: &Transparency,
        config: CertifyConfig,
    ) -> Self {
        Certifier {
            app: app.clone(),
            platform: platform.clone(),
            fault_model,
            transparency: transparency.clone(),
            config,
            verdicts: HashMap::new(),
            refuted_bounds: HashMap::new(),
            anchor: None,
            join_memo: JoinMemo::new(),
            last_artifacts: None,
            calibration_milli: 1000,
            stats: CertifierStats::default(),
        }
    }

    /// The fault budget this certifier certifies against.
    pub fn k(&self) -> u32 {
        self.fault_model.k()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> CertifierStats {
        self.stats
    }

    /// The calibration factor in milli-units: the largest
    /// `exact / estimate` ratio observed on configurations certified
    /// through [`Certifier::record_estimate`], never below 1000.
    pub fn calibration_milli(&self) -> u64 {
        self.calibration_milli
    }

    /// Folds one `(exact, estimate)` observation into the calibration
    /// factor (ratios below 1 are clamped — a pessimistic estimate needs
    /// no correction).
    pub fn record_estimate(&mut self, exact: Time, estimate: Time) {
        self.calibration_milli = self.calibration_milli.max(calibration_milli(exact, estimate));
    }

    /// Certifies one configuration: builds its FT-CPG and exact conditional
    /// schedule (memoized; budgeted) and judges every deadline on it.
    ///
    /// # Errors
    ///
    /// Hard construction/scheduling failures only; size and work-budget
    /// overruns are reported as [`CertOutcome::OverBudget`].
    pub fn certify(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
    ) -> Result<CertOutcome, CertifyError> {
        self.stats.requests += 1;
        let _span = ftes_obs::span(ftes_obs::names::CERTIFY);
        let key = config_key(&self.app, copies, policies);
        if let Some(&verdict) = self.verdicts.get(&key) {
            self.stats.cache_hits += 1;
            ftes_obs::counter(ftes_obs::names::CERTIFY_MEMO_HIT, 1);
            return Ok(verdict);
        }
        match self.schedule_uncached(&key, copies, policies, None)? {
            UncachedResult::Verdict(verdict) => {
                self.verdicts.insert(key, verdict);
                Ok(verdict)
            }
            UncachedResult::Pruned(_) => unreachable!("unbounded runs never prune"),
            UncachedResult::Budget => Ok(CertOutcome::OverBudget),
        }
    }

    /// Certifies one configuration against an upper bound: identical to
    /// [`Certifier::certify`] when the exact schedule fits the bound, but
    /// exits at the first scenario branch that provably exceeds it —
    /// the bound-and-prune regime that makes refutation cheap enough to
    /// run inside the search loop (pass the incumbent's deadline as the
    /// bound; [`BoundedCert::Pruned`] then proves `deadline_met` would be
    /// `false` without scheduling the remaining scenarios).
    ///
    /// Both the verdict memo and previously proven refutation bounds
    /// answer without re-scheduling; a pruned run records its lower bound
    /// so the same losing configuration refutes from the memo next time.
    ///
    /// # Errors
    ///
    /// Hard construction/scheduling failures only, exactly as
    /// [`Certifier::certify`].
    pub fn certify_bounded(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
        bound: Time,
    ) -> Result<BoundedCert, CertifyError> {
        self.stats.requests += 1;
        let _span = ftes_obs::span(ftes_obs::names::CERTIFY);
        let key = config_key(&self.app, copies, policies);
        if let Some(&verdict) = self.verdicts.get(&key) {
            self.stats.cache_hits += 1;
            ftes_obs::counter(ftes_obs::names::CERTIFY_MEMO_HIT, 1);
            return Ok(BoundedCert::Verdict(verdict));
        }
        if let Some(&lb) = self.refuted_bounds.get(&key) {
            if lb > bound {
                self.stats.cache_hits += 1;
                ftes_obs::counter(ftes_obs::names::CERTIFY_MEMO_HIT, 1);
                return Ok(BoundedCert::Pruned { lower_bound: lb });
            }
        }
        match self.schedule_uncached(&key, copies, policies, Some(bound))? {
            UncachedResult::Verdict(verdict) => {
                self.verdicts.insert(key, verdict);
                Ok(BoundedCert::Verdict(verdict))
            }
            UncachedResult::Pruned(lower_bound) => {
                self.stats.pruned_runs += 1;
                ftes_obs::counter(ftes_obs::names::CERTIFY_PRUNE, 1);
                let entry = self.refuted_bounds.entry(key).or_insert(lower_bound);
                *entry = (*entry).max(lower_bound);
                Ok(BoundedCert::Pruned { lower_bound: *entry })
            }
            UncachedResult::Budget => Ok(BoundedCert::Verdict(CertOutcome::OverBudget)),
        }
    }

    /// The certify-guided admission rule: whether a configuration whose
    /// estimated worst case is `estimate` may displace a search's best
    /// under `deadline`.
    ///
    /// An estimate already past the deadline admits untested: the search
    /// ranks it exactly as the estimator says, so an exact run buys
    /// nothing. Otherwise the configuration is certified with the deadline
    /// as the bound ([`Certifier::certify_bounded`]): an exact schedule
    /// records the calibration ([`Certifier::record_estimate`]) and admits
    /// when it meets the deadline, a graph over the size budget admits (the
    /// estimate-only regime, where a guided search degrades to the classic
    /// one), and a pruned run — a proven miss — demotes.
    ///
    /// # Errors
    ///
    /// Hard construction/scheduling failures, exactly as
    /// [`Certifier::certify_bounded`].
    pub fn admits(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
        estimate: Time,
        deadline: Time,
    ) -> Result<bool, CertifyError> {
        if estimate > deadline {
            return Ok(true);
        }
        Ok(match self.certify_bounded(copies, policies, deadline)? {
            BoundedCert::Verdict(CertOutcome::Exact { exact_len, deadline_met }) => {
                self.record_estimate(exact_len, estimate);
                deadline_met
            }
            BoundedCert::Verdict(CertOutcome::OverBudget) => true,
            BoundedCert::Pruned { .. } => false,
        })
    }

    /// Takes the FT-CPG and exact schedule of the most recent certification
    /// if it was for exactly this configuration — the flow uses this to
    /// avoid rebuilding the winner's graph for table generation.
    pub fn take_artifacts(
        &mut self,
        copies: &CopyMapping,
        policies: &PolicyAssignment,
    ) -> Option<(FtCpg, ConditionalSchedule)> {
        let key = config_key(&self.app, copies, policies);
        match self.last_artifacts.take() {
            Some((k, cpg, schedule)) if k == key => Some((cpg, schedule)),
            other => {
                self.last_artifacts = other;
                None
            }
        }
    }

    /// Builds graph + schedule, updating counters and the artifact slot.
    /// `Budget` = work budget exhausted (not cacheable); a too-large graph
    /// is `Verdict(OverBudget)` (cacheable — a configuration's graph size
    /// never changes); `Pruned` = a bounded run refuted early (cached as
    /// refutation evidence by the caller, never as a verdict).
    fn schedule_uncached(
        &mut self,
        key: &[u8],
        copies: &CopyMapping,
        policies: &PolicyAssignment,
        bound: Option<Time>,
    ) -> Result<UncachedResult, CertifyError> {
        if self.stats.exact_runs >= self.config.max_exact_runs {
            self.stats.budget_exhausted += 1;
            return Ok(UncachedResult::Budget);
        }
        // ftes-lint: allow(determinism) reason="exact-run timing feeds CertifyStats diagnostics, never result bytes"
        let started = Instant::now();
        let built = {
            let _span = ftes_obs::span(ftes_obs::names::CPG);
            match self.anchor.as_mut() {
                Some(anchor) => {
                    self.stats.incremental_builds += 1;
                    ftes_obs::counter(ftes_obs::names::CERTIFY_INCREMENTAL, 1);
                    anchor
                        .rebuild(
                            &self.app,
                            policies,
                            copies,
                            self.fault_model,
                            &self.transparency,
                            self.config.cpg,
                        )
                        .map(|(cpg, _)| cpg)
                }
                None => build_ftcpg_anchored(
                    &self.app,
                    policies,
                    copies,
                    self.fault_model,
                    &self.transparency,
                    self.config.cpg,
                )
                .map(|(cpg, anchor)| {
                    self.anchor = Some(anchor);
                    cpg
                }),
            }
        };
        let cpg = match built {
            Ok(cpg) => cpg,
            Err(CpgError::GraphTooLarge { .. }) => {
                self.stats.graph_too_large += 1;
                ftes_obs::counter(ftes_obs::names::CERTIFY_OVERBUDGET, 1);
                self.stats.wall += started.elapsed();
                return Ok(UncachedResult::Verdict(CertOutcome::OverBudget));
            }
            Err(e) => {
                self.stats.wall += started.elapsed();
                return Err(e.into());
            }
        };
        self.stats.exact_runs += 1;
        let scheduled = {
            let _span = ftes_obs::span(ftes_obs::names::SCHEDULE);
            schedule_ftcpg_bounded(
                &self.app,
                &cpg,
                &self.platform,
                self.config.sched,
                bound,
                Some(&mut self.join_memo),
            )
        };
        self.stats.subtree_hits = self.join_memo.hits();
        self.stats.subtree_misses = self.join_memo.misses();
        let schedule = match scheduled {
            Ok(BoundedSchedule::Complete(s)) => s,
            Ok(BoundedSchedule::Exceeded { lower_bound }) => {
                self.stats.wall += started.elapsed();
                return Ok(UncachedResult::Pruned(lower_bound));
            }
            Err(e) => {
                self.stats.wall += started.elapsed();
                return Err(e.into());
            }
        };
        let deadline_met = check_deadlines(&self.app, &cpg, &schedule).is_empty();
        let verdict = CertOutcome::Exact { exact_len: schedule.length(), deadline_met };
        self.last_artifacts = Some((key.to_vec(), cpg, schedule));
        self.stats.wall += started.elapsed();
        Ok(UncachedResult::Verdict(verdict))
    }
}

/// Internal outcome of one uncached scheduling attempt.
enum UncachedResult {
    /// A cacheable verdict (exact, or a size-budget `OverBudget`).
    Verdict(CertOutcome),
    /// A bounded run refuted early with this proven lower bound.
    Pruned(Time),
    /// The work budget is exhausted — answer `OverBudget`, do not cache.
    Budget,
}

/// The `exact / estimate` ratio in milli-units, clamped to ≥ 1000 (the
/// calibration factor only ever *inflates* estimates — a pessimistic
/// estimator needs no correction).
pub fn calibration_milli(exact: Time, estimate: Time) -> u64 {
    let (e, x) = (estimate.units(), exact.units());
    if e <= 0 || x <= e {
        return 1000;
    }
    // Ceiling division keeps `estimate × factor ≥ exact` exactly.
    ((x as u128 * 1000).div_ceil(e as u128).min(u64::MAX as u128)) as u64
}

/// Canonical, collision-free encoding of one `(copies, policies)`
/// configuration — the certification twin of the exploration cache's
/// `StateKey` (which encodes `(mapping, policies)`; the certifier sees the
/// derived copy placement instead, which subsumes the mapping).
fn config_key(app: &Application, copies: &CopyMapping, policies: &PolicyAssignment) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * app.process_count());
    for (pid, _) in app.processes() {
        let placed = copies.copies_of(pid);
        out.extend_from_slice(&(placed.len() as u32).to_le_bytes());
        for &node in placed {
            out.extend_from_slice(&(node.index() as u32).to_le_bytes());
        }
        let policy = policies.policy(pid);
        out.extend_from_slice(&(policy.copies().len() as u32).to_le_bytes());
        for plan in policy.copies() {
            out.extend_from_slice(&plan.recoveries.to_le_bytes());
            out.extend_from_slice(&plan.checkpoints.to_le_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{estimate_schedule_length, schedule_ftcpg};
    use ftes_ftcpg::build_ftcpg;
    use ftes_model::{samples, Mapping};

    fn fig3_instance(k: u32) -> (Application, Platform, CopyMapping, PolicyAssignment) {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
        (app, platform, copies, policies)
    }

    /// Serializes the tests that switch tracing on and drain it: a drain
    /// takes every thread's events.
    static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn certifier(app: &Application, platform: &Platform, k: u32, cfg: CertifyConfig) -> Certifier {
        Certifier::new(app, platform, FaultModel::new(k), &Transparency::none(), cfg)
    }

    #[test]
    fn certification_matches_a_fresh_exact_schedule() {
        let (app, platform, copies, policies) = fig3_instance(2);
        let mut c = certifier(&app, &platform, 2, CertifyConfig::default());
        let verdict = c.certify(&copies, &policies).unwrap();
        let CertOutcome::Exact { exact_len, deadline_met } = verdict else {
            panic!("fig3 fits the budget");
        };
        let cpg = build_ftcpg(
            &app,
            &policies,
            &copies,
            FaultModel::new(2),
            &Transparency::none(),
            BuildConfig::default(),
        )
        .unwrap();
        let schedule = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default()).unwrap();
        assert_eq!(exact_len, schedule.length());
        assert_eq!(deadline_met, check_deadlines(&app, &cpg, &schedule).is_empty());
        // The estimator is never pessimistic here.
        let est = estimate_schedule_length(&app, &platform, &copies, &policies, 2).unwrap();
        assert!(est.worst_case_length <= exact_len, "{est:?} vs {exact_len}");
    }

    #[test]
    fn verdicts_are_memoized() {
        let (app, platform, copies, policies) = fig3_instance(1);
        let mut c = certifier(&app, &platform, 1, CertifyConfig::default());
        let a = c.certify(&copies, &policies).unwrap();
        let b = c.certify(&copies, &policies).unwrap();
        assert_eq!(a, b);
        let stats = c.stats();
        assert_eq!((stats.requests, stats.cache_hits, stats.exact_runs), (2, 1, 1));
    }

    #[test]
    fn graph_size_budget_reports_over_budget() {
        let (app, platform, copies, policies) = fig3_instance(2);
        let cfg = CertifyConfig { cpg: BuildConfig { node_limit: 2 }, ..CertifyConfig::default() };
        let mut c = certifier(&app, &platform, 2, cfg);
        let _tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        ftes_obs::set_enabled(true);
        assert_eq!(c.certify(&copies, &policies).unwrap(), CertOutcome::OverBudget);
        assert_eq!(c.stats().graph_too_large, 1);
        // Size verdicts are cacheable (the graph cannot shrink).
        assert_eq!(c.certify(&copies, &policies).unwrap(), CertOutcome::OverBudget);
        assert_eq!(c.stats().cache_hits, 1);
        ftes_obs::set_enabled(false);
        // The over-budget build is a counted event, once: the memo hit
        // builds nothing. (Other tests' threads may record meanwhile.)
        let me = std::thread::current().name().map(str::to_owned).unwrap_or_default();
        let mine: Vec<_> = ftes_obs::drain().into_iter().filter(|e| e.thread_name == me).collect();
        assert_eq!(ftes_obs::totals(&mine).get(ftes_obs::names::CERTIFY_OVERBUDGET), Some(&1));
    }

    #[test]
    fn a_graph_the_size_bound_proves_over_budget_is_never_built() {
        // The builder counts an FT-CPG's nodes exactly before building it:
        // fig3 has 24 nodes under uniform replication, 53 under uniform
        // re-execution and 23 with P5 re-executed. A 40-node budget makes
        // the count answer the second configuration without a build.
        let (app, platform, copies, policies) = fig3_instance(2);
        let arch = platform.architecture();
        let mapping = Mapping::cheapest(&app, arch).unwrap();
        let replicated = PolicyAssignment::uniform_replication(&app, 2);
        let replicated_copies = CopyMapping::from_base(&app, arch, &mapping, &replicated).unwrap();
        let cfg = CertifyConfig { cpg: BuildConfig { node_limit: 40 }, ..CertifyConfig::default() };
        let mut c = certifier(&app, &platform, 2, cfg);
        assert!(c.certify(&replicated_copies, &replicated).unwrap().exact_len().is_some());
        let anchored = c.anchor.as_ref().expect("an in-budget build anchors").graph().clone();

        let tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        ftes_obs::set_enabled(true);
        assert_eq!(c.certify(&copies, &policies).unwrap(), CertOutcome::OverBudget);
        assert_eq!(c.stats().graph_too_large, 1);
        assert_eq!(c.anchor.as_ref().unwrap().graph(), &anchored, "the anchor is left as it was");
        assert_eq!(c.certify(&copies, &policies).unwrap(), CertOutcome::OverBudget);
        assert_eq!((c.stats().cache_hits, c.stats().graph_too_large), (1, 1));
        ftes_obs::set_enabled(false);
        let me = std::thread::current().name().map(str::to_owned).unwrap_or_default();
        let mine: Vec<_> = ftes_obs::drain().into_iter().filter(|e| e.thread_name == me).collect();
        assert_eq!(ftes_obs::totals(&mine).get(ftes_obs::names::CERTIFY_OVERBUDGET), Some(&1));
        drop(tracing);

        // A later in-budget delta still equals a fresh certifier.
        let mut delta = replicated.clone();
        delta.set(ftes_model::ProcessId::new(4), ftes_ft::Policy::reexecution(2));
        let delta_copies = CopyMapping::from_base(&app, arch, &mapping, &delta).unwrap();
        let mut fresh = certifier(&app, &platform, 2, cfg);
        let verdict = c.certify(&delta_copies, &delta).unwrap();
        assert!(verdict.exact_len().is_some());
        assert_eq!(verdict, fresh.certify(&delta_copies, &delta).unwrap());
        assert_eq!(
            c.take_artifacts(&delta_copies, &delta),
            fresh.take_artifacts(&delta_copies, &delta)
        );
        assert_eq!(c.stats().incremental_builds, 2);
    }

    #[test]
    fn work_budget_exhaustion_is_not_cached() {
        let (app, platform, copies, policies) = fig3_instance(1);
        let cfg = CertifyConfig { max_exact_runs: 0, ..CertifyConfig::default() };
        let mut c = certifier(&app, &platform, 1, cfg);
        assert_eq!(c.certify(&copies, &policies).unwrap(), CertOutcome::OverBudget);
        assert_eq!(c.stats().budget_exhausted, 1);
        assert_eq!(c.stats().cache_hits, 0, "budget overruns must not poison the cache");
    }

    #[test]
    fn artifacts_are_reusable_for_the_last_configuration() {
        let (app, platform, copies, policies) = fig3_instance(2);
        let mut c = certifier(&app, &platform, 2, CertifyConfig::default());
        let verdict = c.certify(&copies, &policies).unwrap();
        let (cpg, schedule) = c.take_artifacts(&copies, &policies).expect("just scheduled");
        assert_eq!(Some(schedule.length()), verdict.exact_len());
        assert!(cpg.node_count() > app.process_count());
        // Taken once; a second take must miss.
        assert!(c.take_artifacts(&copies, &policies).is_none());
    }

    #[test]
    fn artifacts_do_not_alias_other_configurations() {
        let (app, platform, copies, policies) = fig3_instance(2);
        let mut c = certifier(&app, &platform, 2, CertifyConfig::default());
        c.certify(&copies, &policies).unwrap();
        let other = PolicyAssignment::uniform_reexecution(&app, 2);
        let mut other = other;
        other.set(ftes_model::ProcessId::new(0), ftes_ft::Policy::checkpointing(2, 2));
        let other_copies = CopyMapping::from_base(
            &app,
            platform.architecture(),
            &Mapping::cheapest(&app, platform.architecture()).unwrap(),
            &other,
        )
        .unwrap();
        assert!(c.take_artifacts(&other_copies, &other).is_none());
        // The slot survives a mismatched take.
        assert!(c.take_artifacts(&copies, &policies).is_some());
    }

    #[test]
    fn calibration_factor_is_monotone_and_clamped() {
        assert_eq!(calibration_milli(Time::new(100), Time::new(100)), 1000);
        assert_eq!(calibration_milli(Time::new(90), Time::new(100)), 1000);
        assert_eq!(calibration_milli(Time::new(1041), Time::new(441)), 2361);
        assert_eq!(calibration_milli(Time::new(100), Time::ZERO), 1000);

        let (app, platform, ..) = fig3_instance(1);
        let mut c = certifier(&app, &platform, 1, CertifyConfig::default());
        assert_eq!(c.calibration_milli(), 1000);
        c.record_estimate(Time::new(150), Time::new(100));
        assert_eq!(c.calibration_milli(), 1500);
        c.record_estimate(Time::new(110), Time::new(100));
        assert_eq!(c.calibration_milli(), 1500, "the factor never decreases");
    }

    #[test]
    fn incremental_certification_matches_a_fresh_certifier() {
        // A warm certifier walked over a chain of one-move deltas rebuilds
        // from its anchor and schedules against its subtree memo; every
        // verdict AND artifact must be bit-identical to a cold certifier.
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let platform = Platform::homogeneous(2, Time::new(8)).unwrap();
        let mut warm = certifier(&app, &platform, 2, CertifyConfig::default());
        // P1 stays replicated in every configuration, so its replica-join
        // subtree recurs across the walk and must hit the subtree memo;
        // the delta rotates a second process through policy changes.
        let deltas = [(1, 0), (2, 1), (3, 0), (4, 1), (1, 1), (2, 0)];
        for (step, (target, variant)) in deltas.into_iter().enumerate() {
            let mut policies = PolicyAssignment::uniform_reexecution(&app, 2);
            policies.set(ftes_model::ProcessId::new(0), ftes_ft::Policy::replication(2));
            let policy = if variant == 0 {
                ftes_ft::Policy::checkpointing(2, 2)
            } else {
                ftes_ft::Policy::replication(2)
            };
            policies.set(ftes_model::ProcessId::new(target), policy);
            let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
            let mut fresh = certifier(&app, &platform, 2, CertifyConfig::default());
            let warm_verdict = warm.certify(&copies, &policies).unwrap();
            let fresh_verdict = fresh.certify(&copies, &policies).unwrap();
            assert_eq!(warm_verdict, fresh_verdict, "verdict diverged at step {step}");
            let (warm_cpg, warm_sched) = warm.take_artifacts(&copies, &policies).unwrap();
            let (fresh_cpg, fresh_sched) = fresh.take_artifacts(&copies, &policies).unwrap();
            assert_eq!(warm_cpg, fresh_cpg, "FT-CPG diverged at step {step}");
            assert_eq!(warm_sched, fresh_sched, "schedule diverged at step {step}");
        }
        let stats = warm.stats();
        assert_eq!(stats.incremental_builds, 5, "every run after the first rebuilds the anchor");
        assert!(stats.subtree_hits > 0, "the delta walk must revisit scenario subtrees");
    }

    #[test]
    fn bounded_certification_prunes_and_memoizes_the_refutation() {
        let (app, platform, copies, policies) = fig3_instance(2);
        let mut reference = certifier(&app, &platform, 2, CertifyConfig::default());
        let verdict = reference.certify(&copies, &policies).unwrap();
        let CertOutcome::Exact { exact_len, .. } = verdict else {
            panic!("fig3 fits the budget");
        };

        let mut c = certifier(&app, &platform, 2, CertifyConfig::default());
        let tight = Time::new(exact_len.units() - 1);
        let BoundedCert::Pruned { lower_bound } =
            c.certify_bounded(&copies, &policies, tight).unwrap()
        else {
            panic!("a bound below the exact length must refute early");
        };
        assert!(lower_bound > tight, "the pruning end time is past the bound");
        assert!(lower_bound <= exact_len, "a placed end is a valid lower bound");
        assert_eq!(c.stats().pruned_runs, 1);

        // The refutation evidence answers the same losing request from the
        // memo — no second scheduler run.
        let again = c.certify_bounded(&copies, &policies, tight).unwrap();
        assert_eq!(again, BoundedCert::Pruned { lower_bound });
        assert_eq!((c.stats().cache_hits, c.stats().pruned_runs), (1, 1));

        // A bound the evidence cannot refute re-schedules and completes
        // with the reference verdict; from then on the verdict memo rules.
        let complete = c.certify_bounded(&copies, &policies, exact_len).unwrap();
        assert_eq!(complete, BoundedCert::Verdict(verdict));
        assert!(complete.is_certified() || !verdict.is_certified());
        assert_eq!(c.certify(&copies, &policies).unwrap(), verdict);
        assert_eq!(c.stats().cache_hits, 2);
    }

    #[test]
    fn admission_certifies_only_estimates_within_the_deadline() {
        let (app, platform, copies, policies) = fig3_instance(2);
        let mut reference = certifier(&app, &platform, 2, CertifyConfig::default());
        let verdict = reference.certify(&copies, &policies).unwrap();
        let exact = verdict.exact_len().expect("fig3 fits the budget");
        let tight = Time::new(exact.units() - 1);

        // An estimate past the deadline is admitted untested.
        let mut c = certifier(&app, &platform, 2, CertifyConfig::default());
        assert!(c.admits(&copies, &policies, exact, tight).unwrap());
        assert_eq!(c.stats().requests, 0);
        // Within it, a run pruned past the deadline demotes.
        assert!(!c.admits(&copies, &policies, tight, tight).unwrap());
        // An exact schedule admits as its verdict says and calibrates.
        let estimate = Time::new(exact.units() / 2);
        assert_eq!(c.admits(&copies, &policies, estimate, exact).unwrap(), verdict.is_certified());
        assert_eq!(c.calibration_milli(), calibration_milli(exact, estimate));
        // A graph over the size budget admits.
        let cfg = CertifyConfig { cpg: BuildConfig { node_limit: 2 }, ..CertifyConfig::default() };
        let mut small = certifier(&app, &platform, 2, cfg);
        assert!(small.admits(&copies, &policies, tight, tight).unwrap());
    }

    #[test]
    fn config_keys_are_collision_free_on_adversarial_twins() {
        // Two distinct states that touch the same scenario subtrees must
        // never share a key: swapping which process carries the heavy
        // policy, or trading copy counts between neighbors, all reshuffle
        // the same totals.
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let mut keys = Vec::new();
        let n = app.process_count();
        for target in 0..n {
            for heavy in [ftes_ft::Policy::checkpointing(2, 2), ftes_ft::Policy::replication(2)] {
                let mut policies = PolicyAssignment::uniform_reexecution(&app, 2);
                policies.set(ftes_model::ProcessId::new(target), heavy);
                let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
                keys.push((target, config_key(&app, &copies, &policies)));
            }
        }
        for (i, (ta, a)) in keys.iter().enumerate() {
            for (tb, b) in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "states ({ta}, {tb}) collided");
            }
        }
        // Equal configurations keep equal keys (the memo can actually hit).
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        assert_eq!(config_key(&app, &copies, &policies), config_key(&app, &copies, &policies));
    }

    #[test]
    fn certification_counters_record_and_merge() {
        let mut a = CertificationCounters::default();
        a.record(Some(true), 0);
        a.record(Some(true), 2);
        a.record(Some(false), 3);
        let mut b = CertificationCounters::default();
        b.record(None, 0);
        let merged = a.merged(b);
        assert_eq!(
            merged,
            CertificationCounters { certified: 2, refuted: 1, uncertifiable: 1, repair_rounds: 5 }
        );
        assert_eq!(merged.total(), 4);
        assert!((merged.certified_pct() - 50.0).abs() < 1e-9);
        assert_eq!(CertificationCounters::default().certified_pct(), 0.0);
    }
}
