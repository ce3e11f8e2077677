//! # ftes — Synthesis of Fault-Tolerant Embedded Systems
//!
//! A from-scratch reproduction of *"Synthesis of Fault-Tolerant Embedded
//! Systems"* (Eles, Izosimov, Pop, Peng — DATE 2008): design optimization
//! of hard real-time applications on distributed time-triggered platforms
//! such that `k` transient faults per cycle are tolerated with
//! checkpointing/rollback-recovery and active replication, transparency
//! requirements are honoured, and deadlines hold in the worst case.
//!
//! This facade crate re-exports the whole workspace and provides the
//! one-call flow [`synthesize_system`], which produces the paper's system
//! configuration ψ = <F, M, S>:
//!
//! * `F` — the fault-tolerance policy assignment `<P, Q, R, X>`
//!   ([`ftes_ft::PolicyAssignment`]),
//! * `M` — the mapping of processes and replicas
//!   ([`ftes_model::Mapping`], [`ftes_ftcpg::CopyMapping`]),
//! * `S` — the distributed conditional schedule tables
//!   ([`ftes_sched::ScheduleTables`], Fig. 6).
//!
//! ## Layer map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`model`] | applications, WCET tables, architectures, fault model, transparency |
//! | [`tdma`] | TTP-style TDMA bus and platform |
//! | [`ft`] | recovery algebra, policies P/Q/R/X, local checkpoint optimum \[27\] |
//! | [`ftcpg`] | fault-tolerant conditional process graphs (Fig. 5) |
//! | [`sched`] | conditional scheduler, schedule tables, fast estimator |
//! | [`sim`] | fault-injection replay and verification |
//! | [`gen`] | seeded synthetic workloads + the named corpus families (the §6 experiments) |
//! | [`opt`] | MXR/MX/MR/SFX synthesis, checkpoint + bus optimization |
//! | [`explore`] | parallel portfolio exploration: batched evaluation, Pareto archive, scenario suites |
//! | [`soft`] | soft/hard time-constraint extension (utility scheduling, \[17\]) |
//!
//! This crate additionally hosts the `.ftes` system-specification parser
//! ([`spec`]), the resumable corpus batch driver ([`corpus`]) and
//! re-exports the escaping-aware JSON writer ([`json`], from
//! `ftes-model`) — all shared between the CLI and the `ftes-serve`
//! HTTP service.
//!
//! ## Quickstart
//!
//! The whole pipeline in one example (this is the tested twin of
//! `examples/quickstart.rs` — `cargo test --doc` runs it):
//!
//! ```
//! use ftes::{synthesize_system, Certification, FlowConfig};
//! use ftes::model::{samples, FaultModel, Time};
//! use ftes::tdma::{Platform, TdmaBus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 5 application with frozen P3/m2/m3, k = 2 faults.
//! let (app, arch, transparency) = samples::fig5();
//! let nodes = arch.node_count();
//! let platform = Platform::new(arch, TdmaBus::uniform(nodes, Time::new(8))?)?;
//!
//! let psi = synthesize_system(&app, &platform, FaultModel::new(2),
//!                             &transparency, FlowConfig::default())?;
//!
//! // F: every process got a fault-tolerance policy…
//! assert_eq!(psi.policies.iter().count(), app.process_count());
//! for (pid, policy) in psi.policies.iter() {
//!     println!("{:<4} {:?} on N{} (Q={})",
//!              app.process(pid).name(), policy.kind(),
//!              psi.mapping.node_of(pid).index(), policy.replica_count());
//! }
//!
//! // …and the shipped configuration is exact-certified schedulable, not
//! // just estimated so (the certify-and-repair contract): `Certified`
//! // carries the exact conditional schedule length.
//! assert!(psi.schedulable);
//! match psi.certification {
//!     Certification::Certified { exact_len } => {
//!         assert!(exact_len <= app.deadline());
//!         assert_eq!(psi.worst_case_length(), exact_len);
//!     }
//!     other => panic!("Fig. 5 certifies, got {other:?}"),
//! }
//!
//! // S: small instances also get the distributed schedule tables (Fig. 6).
//! let exact = psi.exact.as_ref().expect("Fig. 5 fits the FT-CPG budget");
//! assert!(exact.tables.entry_count() > 0);
//! println!("{}", exact.tables.render(&exact.cpg));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
mod flow;
pub mod spec;

pub use flow::{
    synthesize_system, synthesize_system_timed, Certification, ExactSchedule, FlowConfig,
    FlowTimings, FtesError, SystemConfiguration,
};
pub use ftes_model::json;

pub use ftes_explore as explore;
pub use ftes_ft as ft;
pub use ftes_ftcpg as ftcpg;
pub use ftes_gen as gen;
pub use ftes_model as model;
pub use ftes_obs as obs;
pub use ftes_opt as opt;
pub use ftes_sched as sched;
pub use ftes_sim as sim;
pub use ftes_soft as soft;
pub use ftes_tdma as tdma;
