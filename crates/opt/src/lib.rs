//! # ftes-opt
//!
//! Design optimization for fault-tolerant embedded systems (paper §6):
//! deciding the fault-tolerance policy assignment `F = <P, Q, R, X>`, the
//! mapping `M` of processes and replicas, and the checkpoint counts, such
//! that `k` transient faults are tolerated and the estimated worst-case
//! schedule length is minimized.
//!
//! * [`synthesize`] with a [`Strategy`] — the Fig. 7 comparison: the
//!   paper's MXR policy-assignment optimization vs the MX / MR / SFX
//!   strawmen;
//! * [`compare_checkpointing`] — the Fig. 8 comparison: global checkpoint
//!   optimization \[15\] vs the per-process local optimum of \[27\];
//! * [`search`] — the underlying search: tabu search (the paper's MXR
//!   engine), simulated annealing or greedy descent, whose acceptance
//!   rules [`Acceptance`] defines once for this crate and the
//!   `ftes-explore` portfolio workers;
//! * [`Neighborhood`] — the one neighborhood machinery both kinds of
//!   search drive over their evaluator: it samples a state's moves,
//!   derives their change sets against the evaluator's anchored
//!   placement, scores them in one pass and commits the walked one.
//!
//! ```
//! use ftes_gen::{generate_application, GeneratorConfig};
//! use ftes_model::Time;
//! use ftes_opt::{synthesize, SearchConfig, Strategy};
//! use ftes_tdma::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = generate_application(&GeneratorConfig::new(20, 3), 1)?;
//! let platform = Platform::homogeneous(3, Time::new(8))?;
//! let cfg = SearchConfig { iterations: 20, ..SearchConfig::default() };
//! let result = synthesize(&app, &platform, 2, Strategy::Mxr, cfg)?;
//! assert!(result.estimate.worst_case_length >= result.estimate.fault_free_length);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod checkpoint;
mod constructive;
mod engine;
mod error;
mod repair;
mod search;
mod strategy;

pub use bus::{optimize_bus, BusOptConfig, OptimizedBus};
pub use checkpoint::{
    checkpointing_local, compare_checkpointing, fault_tolerance_overhead,
    optimize_checkpoints_global, CheckpointComparison,
};
pub use constructive::constructive_mapping;
pub use engine::{Acceptance, EngineKind, Scored, Step};
pub use error::OptError;
pub use repair::{synthesize_certified, CertifiedSynthesis, CertifyMode, RepairConfig};
pub use search::{
    apply_move, candidate_policies, search, BestGuard, Move, MoveSpace, Neighborhood, PolicyMoves,
    SearchConfig, SearchTrace, Synthesized,
};
pub use strategy::{synthesize, synthesize_with, Strategy};
