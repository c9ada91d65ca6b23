//! # pm-passes — PolyMath's modular srDFG pass framework
//!
//! Paper §IV.B: "PolyMath implements a modular framework and set of APIs
//! that enable custom, target-independent passes over the IR. These passes
//! take an srDFG as an input and produce a transformed srDFG … traditional
//! passes such as constant propagation, constant folding, etc. are
//! supported via this PolyMath pass infrastructure."
//!
//! Provided passes:
//!
//! * [`fold::ConstantFold`] / [`fold::AlgebraicSimplify`] — kernel-level
//!   folding and identity rewrites;
//! * [`constprop::ConstantPropagation`] — compile-time evaluation of
//!   constant nodes;
//! * [`dce::DeadNodeElimination`] and [`cse::CommonSubexpressionElimination`];
//! * [`prune::PruneUnusedInputs`] — operand-list cleanup after refinement;
//! * [`fusion::AlgebraicCombination`] — the paper's cross-granularity
//!   example pass: fusing chained matrix-vector products by concatenating
//!   their inputs;
//! * [`analysis`] — op counts, per-domain work split, critical-path depth;
//! * [`lower_and_compile`] — the back half of the compile pipeline:
//!   Algorithm 1, marshalling elision and operand pruning, Algorithm 2.
//!
//! ## Example
//!
//! ```
//! use pm_passes::PassManager;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (program, _) = pmlang::frontend(
//!     "main(input float x, output float y) { y = (2.0 * 3.0) * x; }",
//! )?;
//! let mut graph = srdfg::build(&program, &srdfg::Bindings::default())?;
//! let stats = PassManager::standard().run(&mut graph);
//! assert!(stats.iter().any(|(name, s)| *name == "constant-fold" && s.changed));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod back_half;
pub mod constprop;
pub mod cse;
pub mod dce;
pub mod fold;
pub mod fusion;
pub mod manager;
pub mod marshal;
pub mod prune;

pub use analysis::{critical_path_len, domains_used, stats, GraphStats};
pub use back_half::{lower_and_compile, StageTimes};
pub use constprop::ConstantPropagation;
pub use cse::CommonSubexpressionElimination;
pub use dce::DeadNodeElimination;
pub use fold::{AlgebraicSimplify, ConstantFold};
pub use fusion::AlgebraicCombination;
pub use manager::{Pass, PassManager, PassStats, PassTiming, PassVerifyError};
pub use marshal::ElideMarshalling;
pub use prune::PruneUnusedInputs;
