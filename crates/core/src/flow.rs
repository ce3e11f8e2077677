//! The end-to-end synthesis flow of the paper's §6: from an application,
//! a platform, a fault model and transparency requirements to a system
//! configuration ψ = <F, M, S>.

use ftes_ft::PolicyAssignment;
use ftes_ftcpg::{build_ftcpg, BuildConfig, CopyMapping, FtCpg};
use ftes_model::{Application, FaultModel, Mapping, Time, Transparency};
use ftes_opt::{
    synthesize_certified, CertifiedSynthesis, CertifyMode, RepairConfig, SearchConfig, Strategy,
    Synthesized,
};
use ftes_sched::{
    check_deadlines, schedule_ftcpg, Certifier, CertifyConfig, ConditionalSchedule, Estimate,
    SchedConfig, ScheduleTables, SystemEvaluator,
};
use ftes_tdma::Platform;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Error produced by the end-to-end synthesis flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum FtesError {
    /// Design optimization failed.
    Opt(ftes_opt::OptError),
    /// FT-CPG construction failed (other than exceeding the size budget,
    /// which degrades gracefully to an estimate-only configuration).
    Cpg(ftes_ftcpg::CpgError),
    /// Conditional scheduling failed.
    Sched(ftes_sched::SchedError),
}

impl fmt::Display for FtesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtesError::Opt(e) => write!(f, "design optimization failed: {e}"),
            FtesError::Cpg(e) => write!(f, "FT-CPG construction failed: {e}"),
            FtesError::Sched(e) => write!(f, "conditional scheduling failed: {e}"),
        }
    }
}

impl Error for FtesError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtesError::Opt(e) => Some(e),
            FtesError::Cpg(e) => Some(e),
            FtesError::Sched(e) => Some(e),
        }
    }
}

impl From<ftes_opt::OptError> for FtesError {
    fn from(e: ftes_opt::OptError) -> Self {
        FtesError::Opt(e)
    }
}

impl From<ftes_ftcpg::CpgError> for FtesError {
    fn from(e: ftes_ftcpg::CpgError) -> Self {
        FtesError::Cpg(e)
    }
}

impl From<ftes_sched::SchedError> for FtesError {
    fn from(e: ftes_sched::SchedError) -> Self {
        FtesError::Sched(e)
    }
}

/// Options of the end-to-end flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Synthesis strategy (Fig. 7 vocabulary); MXR is the paper's approach.
    pub strategy: Strategy,
    /// Tabu-search tunables for the optimization phase.
    pub search: SearchConfig,
    /// Conditional-scheduler tunables.
    pub sched: SchedConfig,
    /// FT-CPG size budget; larger instances return an estimate-only
    /// configuration (`schedule = None`).
    pub cpg: BuildConfig,
    /// Certify-and-repair tunables: how many calibrated re-searches may
    /// run when the exact conditional schedule refutes an incumbent the
    /// estimator accepted.
    pub repair: RepairConfig,
    /// When exact certification runs relative to the search: `PostHoc`
    /// certifies the finished incumbent (the classic loop), `Guided`
    /// incrementally certifies incumbents *during* the search and demotes
    /// refuted states on the spot.
    pub certify: CertifyMode,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            strategy: Strategy::Mxr,
            search: SearchConfig::default(),
            sched: SchedConfig::default(),
            cpg: BuildConfig::default(),
            repair: RepairConfig::default(),
            certify: CertifyMode::default(),
        }
    }
}

/// Exact-certification verdict of a synthesized configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certification {
    /// The exact conditional schedule was built and meets every deadline:
    /// the configuration is exact-schedulable, not just estimated so.
    Certified {
        /// Worst-case length of the exact conditional schedule.
        exact_len: Time,
    },
    /// The exact schedule was built but misses a deadline even after the
    /// bounded repair loop — the incumbent ships explicitly refuted.
    Refuted {
        /// Worst-case length of the exact conditional schedule.
        exact_len: Time,
    },
    /// The FT-CPG exceeded the size budget: only the estimate exists (the
    /// regime the paper's large-scale experiments run in), so no exact
    /// verdict is possible.
    Uncertifiable,
}

impl Certification {
    /// `true` when the configuration is exact-certified schedulable.
    pub fn is_certified(&self) -> bool {
        matches!(self, Certification::Certified { .. })
    }

    /// The exact schedule length, when one was computed.
    pub fn exact_len(&self) -> Option<Time> {
        match self {
            Certification::Certified { exact_len } | Certification::Refuted { exact_len } => {
                Some(*exact_len)
            }
            Certification::Uncertifiable => None,
        }
    }
}

/// The exact schedule-synthesis artifacts (present when the FT-CPG fits the
/// size budget).
#[derive(Debug, Clone)]
pub struct ExactSchedule {
    /// The fault-tolerant conditional process graph.
    pub cpg: FtCpg,
    /// Start times for every FT-CPG node plus condition broadcasts.
    pub schedule: ConditionalSchedule,
    /// The distributed per-node schedule tables `S` (Fig. 6).
    pub tables: ScheduleTables,
}

/// A synthesized system configuration ψ = <F, M, S> (paper §6).
#[derive(Debug, Clone)]
pub struct SystemConfiguration {
    /// Fault-tolerance policy assignment `F = <P, Q, R, X>`.
    pub policies: PolicyAssignment,
    /// Process mapping `M` (originals).
    pub mapping: Mapping,
    /// Copy placement (originals + replicas in `VR`).
    pub copies: CopyMapping,
    /// Fast worst-case estimate (always available).
    pub estimate: Estimate,
    /// Exact conditional schedule and tables, when the FT-CPG fits the
    /// configured size budget.
    pub exact: Option<ExactSchedule>,
    /// `true` when the synthesized worst case meets every deadline
    /// (judged on the exact schedule when present, else on the estimate).
    pub schedulable: bool,
    /// Exact-certification verdict: [`Certification::Certified`] incumbents
    /// are exact-schedulable; anything else is explicitly tagged.
    pub certification: Certification,
    /// Calibrated repair searches the certify-and-repair loop ran.
    pub repair_rounds: u32,
    /// Per-instance estimator calibration factor in milli-units: the worst
    /// observed `exact / estimate` ratio on this run's incumbents (1000 =
    /// the estimator never under-priced one).
    pub calibration_milli: u64,
}

impl SystemConfiguration {
    /// Worst-case schedule length: exact when available, estimated
    /// otherwise.
    pub fn worst_case_length(&self) -> ftes_model::Time {
        match &self.exact {
            Some(e) => e.schedule.length(),
            None => self.estimate.worst_case_length,
        }
    }
}

/// Runs the complete synthesis flow: policy assignment + mapping
/// optimization, exact certification (with a bounded calibrated repair
/// loop when the exact conditional schedule refutes the estimator's
/// incumbent), FT-CPG construction, conditional scheduling and schedule
/// table generation.
///
/// The returned configuration is exact-certified schedulable
/// ([`Certification::Certified`]) or explicitly tagged: `Refuted` carries
/// the exact length when even the repair loop found nothing schedulable,
/// `Uncertifiable` marks the estimate-only regime.
///
/// For instances whose FT-CPG exceeds [`BuildConfig::node_limit`] the flow
/// degrades gracefully: `exact` is `None` and schedulability is judged on
/// the estimator (the same regime the paper's large-scale experiments run
/// in).
///
/// # Errors
///
/// Returns [`FtesError`] when optimization, graph construction (for reasons
/// other than size) or scheduling fails.
///
/// # Examples
///
/// ```
/// use ftes::{synthesize_system, FlowConfig};
/// use ftes_model::{samples, FaultModel, Transparency};
/// use ftes_tdma::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (app, arch, transparency) = samples::fig5();
/// let node_count = arch.node_count();
/// let platform = Platform::new(arch, ftes_tdma::TdmaBus::uniform(node_count, ftes_model::Time::new(8))?)?;
/// let psi = synthesize_system(&app, &platform, FaultModel::new(2), &transparency,
///                             FlowConfig::default())?;
/// assert!(psi.schedulable);
/// let exact = psi.exact.as_ref().expect("small instance gets exact tables");
/// println!("{}", exact.tables.render(&exact.cpg));
/// # Ok(())
/// # }
/// ```
pub fn synthesize_system(
    app: &Application,
    platform: &Platform,
    fault_model: FaultModel,
    transparency: &Transparency,
    config: FlowConfig,
) -> Result<SystemConfiguration, FtesError> {
    let mut evaluator = SystemEvaluator::new(app, platform, fault_model.k());
    Ok(synthesize_system_timed(&mut evaluator, fault_model, transparency, config)?.0)
}

/// Wall-clock breakdown of one synthesis flow run, per phase — the numbers
/// behind the `ftes-serve` `/metrics` phase counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTimings {
    /// Design-space optimization (mapping + policy search, repair rounds
    /// included).
    pub optimize: Duration,
    /// Exact certification (FT-CPG construction + exact scheduling inside
    /// the certify-and-repair loop).
    pub certify: Duration,
    /// FT-CPG construction (for the final tables, when not reused from
    /// certification).
    pub cpg: Duration,
    /// Conditional scheduling + table generation.
    pub schedule: Duration,
}

/// [`synthesize_system`] over a caller-provided (possibly warm) evaluator
/// kernel, additionally reporting per-phase wall-clock timings so services
/// can expose hot-path regressions live. The application and platform are
/// the ones the kernel was built for; `ftes-serve` banks evaluators per
/// `(app, platform, k)` so repeated specs on a warm daemon skip the kernel
/// construction entirely.
///
/// # Panics
///
/// Panics if the evaluator was built for a different fault budget than
/// `fault_model` (a caller bug, not an input error).
///
/// # Errors
///
/// Same as [`synthesize_system`].
pub fn synthesize_system_timed(
    evaluator: &mut SystemEvaluator,
    fault_model: FaultModel,
    transparency: &Transparency,
    config: FlowConfig,
) -> Result<(SystemConfiguration, FlowTimings), FtesError> {
    assert_eq!(evaluator.k(), fault_model.k(), "evaluator was built for a different fault budget");
    let _flow_span = ftes_obs::span(ftes_obs::names::SYNTHESIZE);
    let mut timings = FlowTimings::default();
    // ftes-lint: allow(determinism) reason="phase timings feed FlowTimings diagnostics and /metrics, never result bytes"
    let started = Instant::now();
    let mut certifier = Certifier::new(
        evaluator.app(),
        evaluator.platform(),
        fault_model,
        transparency,
        CertifyConfig { cpg: config.cpg, sched: config.sched, ..CertifyConfig::default() },
    );
    // The optimize span covers the certify-and-repair loop, so certify /
    // cpg / schedule spans emitted by the certifier nest inside it.
    let optimize_span = ftes_obs::span(ftes_obs::names::OPTIMIZE);
    let certified = synthesize_certified(
        evaluator,
        &mut certifier,
        config.strategy,
        config.search,
        config.repair,
        config.certify,
    );
    drop(optimize_span);
    let CertifiedSynthesis { best, outcome: _, repair_rounds, calibration_milli } = certified?;
    let Synthesized { mapping, policies, copies, estimate } = best;
    timings.certify = certifier.stats().wall;
    timings.optimize = started.elapsed().saturating_sub(timings.certify);

    let app = evaluator.app();
    let platform = evaluator.platform();
    // Reuse the certifier's FT-CPG + exact schedule when the winner was the
    // last configuration it certified (the common path). Otherwise rebuild;
    // a winner over the size budget is answered by the builder's node count
    // without a build.
    let reused = certifier.take_artifacts(&copies, &policies);
    // ftes-lint: allow(determinism) reason="phase timings feed FlowTimings diagnostics and /metrics, never result bytes"
    let started = Instant::now();
    let cpg_span = ftes_obs::span(ftes_obs::names::CPG);
    let built = match reused {
        Some((cpg, schedule)) => Some((cpg, Some(schedule))),
        None => match build_ftcpg(app, &policies, &copies, fault_model, transparency, config.cpg) {
            Ok(cpg) => Some((cpg, None)),
            Err(ftes_ftcpg::CpgError::GraphTooLarge { .. }) => None,
            Err(e) => return Err(e.into()),
        },
    };
    drop(cpg_span);
    timings.cpg = started.elapsed();
    // ftes-lint: allow(determinism) reason="phase timings feed FlowTimings diagnostics and /metrics, never result bytes"
    let started = Instant::now();
    let schedule_span = ftes_obs::span(ftes_obs::names::SCHEDULE);
    let exact = match built {
        Some((cpg, schedule)) => {
            let schedule = match schedule {
                Some(schedule) => schedule,
                None => schedule_ftcpg(app, &cpg, platform, config.sched)?,
            };
            let tables =
                ScheduleTables::new(app, &cpg, &schedule, platform.architecture().node_count());
            Some(ExactSchedule { cpg, schedule, tables })
        }
        None => None,
    };
    drop(schedule_span);
    timings.schedule = started.elapsed();
    // The certification verdict is re-derived from the final exact build so
    // it can never disagree with `schedulable` (same deterministic inputs).
    let certification = match &exact {
        Some(e) => {
            if check_deadlines(app, &e.cpg, &e.schedule).is_empty() {
                Certification::Certified { exact_len: e.schedule.length() }
            } else {
                Certification::Refuted { exact_len: e.schedule.length() }
            }
        }
        None => Certification::Uncertifiable,
    };
    let schedulable = match certification {
        Certification::Certified { .. } => true,
        Certification::Refuted { .. } => false,
        Certification::Uncertifiable => estimate.worst_case_length <= app.deadline(),
    };
    Ok((
        SystemConfiguration {
            policies,
            mapping,
            copies,
            estimate,
            exact,
            schedulable,
            certification,
            repair_rounds,
            calibration_milli,
        },
        timings,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::{samples, Time};

    fn fig5_flow(config: FlowConfig) -> SystemConfiguration {
        let (app, arch, transparency) = samples::fig5();
        let node_count = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(node_count, Time::new(8)).unwrap())
                .unwrap();
        synthesize_system(&app, &platform, FaultModel::new(2), &transparency, config).unwrap()
    }

    #[test]
    fn full_flow_produces_exact_tables() {
        let psi = fig5_flow(FlowConfig::default());
        assert!(psi.schedulable);
        assert!(psi.worst_case_length() <= Time::new(400));
        psi.policies.validate(2).unwrap();
        let exact = psi.exact.expect("fig5 is small");
        assert!(exact.tables.entry_count() > 0);
        // The certification verdict agrees with the exact schedule.
        assert!(psi.certification.is_certified());
        assert_eq!(psi.certification.exact_len(), Some(exact.schedule.length()));
        assert!(psi.calibration_milli >= 1000);
    }

    #[test]
    fn oversized_cpg_degrades_to_estimate() {
        let config = FlowConfig { cpg: BuildConfig { node_limit: 2 }, ..FlowConfig::default() };
        ftes_obs::set_enabled(true);
        let psi = fig5_flow(config);
        ftes_obs::set_enabled(false);
        assert!(psi.exact.is_none());
        assert_eq!(psi.worst_case_length(), psi.estimate.worst_case_length);
        assert_eq!(psi.certification, Certification::Uncertifiable);
        assert_eq!(psi.certification.exact_len(), None);
        assert_eq!(psi.repair_rounds, 0);
        // The certifier and the table step each ask the builder once, and
        // the certifier counts one over-budget verdict. (Other tests'
        // threads may record meanwhile.)
        let me = std::thread::current().name().map(str::to_owned).unwrap_or_default();
        let mine: Vec<_> = ftes_obs::drain().into_iter().filter(|e| e.thread_name == me).collect();
        assert_eq!(ftes_obs::totals(&mine).get(ftes_obs::names::CERTIFY_OVERBUDGET), Some(&1));
        let mut stack = Vec::new();
        let mut cpg_parents = Vec::new();
        for e in mine {
            match e.kind {
                ftes_obs::EventKind::Begin => {
                    if e.name == ftes_obs::names::CPG {
                        cpg_parents.push(stack.last().copied());
                    }
                    stack.push(e.name);
                }
                ftes_obs::EventKind::End => {
                    stack.pop();
                }
                ftes_obs::EventKind::Count => {}
            }
        }
        assert_eq!(
            cpg_parents,
            [Some(ftes_obs::names::CERTIFY), Some(ftes_obs::names::SYNTHESIZE)]
        );
    }

    #[test]
    fn certified_implies_schedulable_and_refuted_does_not() {
        let psi = fig5_flow(FlowConfig::default());
        match psi.certification {
            Certification::Certified { exact_len } => {
                assert!(psi.schedulable);
                assert_eq!(psi.worst_case_length(), exact_len);
                // No `exact >= estimate` assertion: the estimator is
                // usually optimistic but list-scheduling order anomalies
                // make pessimistic inversions legitimate (see
                // tests/certification.rs), so pinning the direction on one
                // incumbent would fail spuriously under search re-tuning.
            }
            other => panic!("fig5 must certify, got {other:?}"),
        }
    }

    #[test]
    fn guided_certification_is_selectable_and_certifies() {
        let config = FlowConfig { certify: CertifyMode::Guided, ..FlowConfig::default() };
        let psi = fig5_flow(config);
        assert!(psi.schedulable);
        assert!(psi.certification.is_certified());
        assert_eq!(psi.repair_rounds, 0, "guided incumbents are already certified");
    }

    #[test]
    fn strategies_are_selectable() {
        for strategy in [Strategy::Mx, Strategy::Sfx] {
            let config = FlowConfig {
                strategy,
                search: SearchConfig { iterations: 10, ..SearchConfig::default() },
                ..FlowConfig::default()
            };
            let psi = fig5_flow(config);
            assert!(psi.schedulable, "{strategy} must schedule fig5");
        }
    }

    #[test]
    fn error_display_chains() {
        let e = FtesError::from(ftes_opt::OptError::NoFeasibleConfiguration("x".into()));
        assert!(e.to_string().contains("design optimization failed"));
        assert!(e.source().is_some());
    }
}
