//! # pm-lower — srDFG lowering and accelerator-IR compilation
//!
//! Implements the two compilation algorithms of the PolyMath paper
//! ("A Computational Stack for Cross-Domain Acceleration", HPCA 2021):
//!
//! * **Algorithm 1** ([`fn@lower`]) — recursively replaces srDFG nodes whose
//!   operation the domain's target accelerator does not support with their
//!   finer-granularity sub-srDFGs, until every node is a supported
//!   accelerator operation;
//! * **Algorithm 2** ([`compile::compile_program`]) — translates each node
//!   of the lowered graph into an accelerator-IR fragment, inserting
//!   `load`/`store` fragments at domain boundaries and accumulating one
//!   program per target.
//!
//! Target capabilities are declared with [`AcceleratorSpec`] (`Ot`) and
//! collected in a [`TargetMap`] (`Om`).
//!
//! ## Example
//!
//! ```
//! use pm_lower::{lower, compile_program, AcceleratorSpec, TargetMap};
//! use pmlang::Domain;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (program, _) = pmlang::frontend(
//!     "main(input float x[4], output float y) {
//!          index i[0:3];
//!          y = sum[i](x[i]*x[i]);
//!      }",
//! )?;
//! let mut graph = srdfg::build(&program, &srdfg::Bindings::default())?;
//! let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
//! let targets = TargetMap::host_only(host);
//! lower(&mut graph, &targets)?;
//! let compiled = compile_program(&graph, &targets)?;
//! assert_eq!(compiled.partitions.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod fallback;
pub mod lower;
pub mod progcache;
pub mod spec;

pub use compile::{
    check_schedule, compile_program, compile_program_budgeted, AccProgram, ArgInfo,
    CompiledProgram, Fragment, FragmentKind, ScheduleError,
};
pub use fallback::relower_without;
pub use lower::{fully_lowered, lower, lower_budgeted, stamp_overrides, LowerError};
pub use progcache::{ProgramCache, ProgramCacheStats, ProgramKey};
pub use spec::{AcceleratorSpec, SupportMemo, TargetMap};
