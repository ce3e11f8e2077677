//! # ftes-sched
//!
//! Fault-tolerant schedule synthesis (paper §5): conditional quasi-static
//! list scheduling of FT-CPGs into distributed schedule tables, plus the
//! fast root-schedule estimator used inside the optimization loops.
//!
//! * [`schedule_ftcpg`] — the exact conditional scheduler: one start time
//!   per FT-CPG node, guard-aware resource sharing (mutually exclusive
//!   scenarios overlap), TDMA bus windows, condition broadcasts (§5.2);
//! * [`ScheduleTables`] — the per-node tables of Fig. 6;
//! * [`SystemEvaluator`] — the reusable evaluation kernel behind the
//!   optimization loops, over flat structure-of-arrays state: construction
//!   precomputes everything invariant per `(application, platform, k)`,
//!   and three entry points share it. `evaluate` re-scores a state with
//!   zero steady-state allocation and anchors it; `commit` moves the anchor
//!   along one change set, re-scheduling only its suffix;
//!   `evaluate_changes` scores a whole search neighborhood, given as change
//!   sets over the anchored state, in one pass off a shared, incrementally
//!   grown prefix image, re-scheduling only each neighbor's suffix and
//!   never moving the anchor — bit-for-bit equal to one-shot estimation,
//!   in input order;
//! * [`Certifier`] — on-demand, memoized exact certification of candidate
//!   configurations under a work budget: the kernel behind the
//!   certify-and-repair loops that keep search incumbents honest against
//!   the exact conditional schedule;
//! * [`estimate_schedule_length`] — root schedule + shared recovery slack,
//!   polynomial-time, for the 100-process design-space sweeps of §6 (a
//!   thin construct-once wrapper over the kernel);
//! * [`worst_case_delivery`] — adversarial analysis of replicated outputs.
//!
//! ```
//! use ftes_ft::PolicyAssignment;
//! use ftes_ftcpg::{build_ftcpg, BuildConfig, CopyMapping};
//! use ftes_model::{samples, FaultModel, Mapping, Time, Transparency};
//! use ftes_sched::{schedule_ftcpg, ScheduleTables, SchedConfig};
//! use ftes_tdma::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (app, arch, transparency) = samples::fig5();
//! let mapping = Mapping::new(&app, &arch, samples::fig5_mapping())?;
//! let policies = PolicyAssignment::uniform_reexecution(&app, 2);
//! let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)?;
//! let cpg = build_ftcpg(&app, &policies, &copies, FaultModel::new(2),
//!                       &transparency, BuildConfig::default())?;
//! let platform = Platform::homogeneous(2, Time::new(8))?;
//! let schedule = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default())?;
//! let tables = ScheduleTables::new(&app, &cpg, &schedule, 2);
//! println!("{}", tables.render(&cpg));
//! assert!(schedule.meets_deadline(app.deadline()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod conditional;
mod error;
mod estimate;
mod evaluator;
pub mod export;
mod join;
mod resource;
mod table;

pub use certify::{
    calibration_milli, BoundedCert, CertOutcome, CertificationCounters, Certifier, CertifierStats,
    CertifyConfig, CertifyError,
};
pub use conditional::{
    check_deadlines, schedule_ftcpg, schedule_ftcpg_bounded, BoundedSchedule, Broadcast,
    ConditionalSchedule, DeadlineViolation, SchedConfig,
};
pub use error::SchedError;
pub use estimate::{estimate_schedule_length, Estimate};
pub use evaluator::{EvaluatorStats, SystemEvaluator};
pub use join::{subtree_key, worst_case_delivery, JoinMemo, ReplicaLadder};
pub use resource::{BusTable, Reservation, ResourceTable};
pub use table::{NodeTable, ScheduleTables, TableEntry, TableRow};
