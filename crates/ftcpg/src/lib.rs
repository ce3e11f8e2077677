//! # ftes-ftcpg
//!
//! The fault-tolerant conditional process graph (FT-CPG) of the DATE 2008
//! paper (§5.1, Fig. 5): a directed acyclic graph
//! `G(VP ∪ VC ∪ VT, ES ∪ EC)` capturing every alternative execution scenario
//! of an application under at most `k` transient faults.
//!
//! * [`Guard`]/[`Literal`] — conjunctions of fault-condition values, the
//!   column headers of the schedule tables (Fig. 6);
//! * [`FtCpg`]/[`CpgNode`] — process copies `Pi^m` (regular or conditional),
//!   message copies, synchronization nodes `Pi^S`/`mi^S` for frozen
//!   entities, and replica joins;
//! * [`CopyMapping`] — the extension of the mapping `M` to the replica set
//!   `VR`;
//! * [`build_ftcpg`] — construction from a decided system configuration;
//! * [`FaultScenario`]/[`enumerate_scenarios`] — the realizable fault
//!   scenarios of a graph, used by the simulator and the schedulers.
//!
//! ```
//! use ftes_ftcpg::{build_ftcpg, enumerate_scenarios, BuildConfig, CopyMapping};
//! use ftes_ft::PolicyAssignment;
//! use ftes_model::{samples, FaultModel, Mapping, Transparency};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (app, arch) = samples::fig1_process(1);
//! let mapping = Mapping::cheapest(&app, &arch)?;
//! let policies = PolicyAssignment::uniform_reexecution(&app, 2);
//! let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)?;
//! let cpg = build_ftcpg(&app, &policies, &copies, FaultModel::new(2),
//!                       &Transparency::none(), BuildConfig::default())?;
//! // A single process tolerating two faults unrolls into three copies.
//! assert_eq!(cpg.copies_of_process(ftes_model::ProcessId::new(0)).count(), 3);
//! assert_eq!(enumerate_scenarios(&cpg, 100)?.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod builder;
mod change;
mod copy_mapping;
pub mod dot;
mod error;
mod guard;
mod node;
mod scenario;

pub use analysis::{count_scenarios, cpg_stats, CpgStats};
pub use builder::{build_ftcpg, build_ftcpg_anchored, BuildConfig, CpgAnchor, RebuildStats};
pub use change::{ChangeSet, ChangeSets, ChangeUndo};
pub use copy_mapping::{CopyMapping, PlacementLoad};
pub use error::CpgError;
pub use guard::{Guard, Literal};
pub use node::{CpgEdge, CpgNode, CpgNodeId, CpgNodeKind, FtCpg, Location};
pub use scenario::{enumerate_scenarios, FaultScenario};
