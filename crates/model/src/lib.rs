//! # ftes-model
//!
//! System model for the DATE 2008 paper *"Synthesis of Fault-Tolerant
//! Embedded Systems"* (Eles, Izosimov, Pop, Peng): applications as acyclic
//! process graphs with per-node WCETs and fault-tolerance overheads,
//! distributed architectures, the k-transient-fault model, transparency
//! requirements and process-to-node mappings.
//!
//! This crate is the shared vocabulary of the whole workspace — every other
//! crate (`ftes-ft`, `ftes-ftcpg`, `ftes-sched`, `ftes-opt`, …) builds on
//! these types.
//!
//! ## Quick example
//!
//! ```
//! use ftes_model::{ApplicationBuilder, Architecture, Mapping, ProcessSpec, Time};
//!
//! # fn main() -> Result<(), ftes_model::ModelError> {
//! let mut b = ApplicationBuilder::new(2);
//! let src = b.add_process(
//!     ProcessSpec::new("sense", [Some(Time::new(20)), Some(Time::new(30))])
//!         .overheads(Time::new(2), Time::new(2), Time::new(1)),
//! );
//! let dst = b.add_process(ProcessSpec::new("act", [Some(Time::new(40)), None]));
//! b.add_message("m", src, dst, Time::new(5))?;
//! let app = b.deadline(Time::new(200)).build()?;
//!
//! let arch = Architecture::homogeneous(2)?;
//! let mapping = Mapping::cheapest(&app, &arch)?;
//! assert_eq!(mapping.wcet_of(&app, src), Time::new(20));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod arch;
pub mod dot;
mod error;
mod fault;
mod ids;
pub mod json;
mod mapping;
mod merge;
pub mod par;
pub mod samples;
pub mod stats;
mod time;
mod transparency;

pub use app::{Application, ApplicationBuilder, Message, Process, ProcessSpec};
pub use arch::{Architecture, Node};
pub use error::ModelError;
pub use fault::FaultModel;
pub use ids::{MessageId, NodeId, ProcessId};
pub use mapping::Mapping;
pub use merge::merge_applications;
pub use time::{lcm, Time};
pub use transparency::Transparency;
