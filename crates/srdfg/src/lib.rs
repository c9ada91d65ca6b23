//! # srDFG — the simultaneous-recursive dataflow graph
//!
//! The intermediate representation of the PolyMath stack ("A Computational
//! Stack for Cross-Domain Acceleration", HPCA 2021). An srDFG is a dataflow
//! graph whose nodes each carry — or can derive on demand — their own
//! finer-granularity srDFG, giving the compiler *simultaneous access to
//! every level of operation granularity*: whole components, tensor-level
//! map/reduce operations, and individual scalar ALU operations. That
//! recursive structure is what lets a single program lower to accelerators
//! with wildly different native granularities (scalar dataflow fabrics,
//! DSP-block pipelines, vertex-program engines, layer-level DNN cores).
//!
//! This crate provides:
//!
//! * [`graph`] — the graph structure (`SrDfg`, nodes, SSA-style edges with
//!   the paper's `(type, type-modifier, shape)` metadata) and node splicing;
//! * [`mod@build`] — generation from checked PMLang programs, with component
//!   inlining and SSA stitching (paper §IV.A);
//! * [`expand`] — on-demand refinement to finer granularities, down to
//!   scalar adder/combiner trees (paper §III);
//! * [`interp`] — a reference interpreter with persistent `state`, the
//!   functional ground truth every accelerator simulator is checked against;
//! * [`pattern`] — recognition of coarse patterns (`matvec`, `conv2d`, …)
//!   for layer-granularity targets;
//! * [`validate`] / [`dot`] — structural checks and Graphviz export.
//!
//! ## Example
//!
//! ```
//! use srdfg::{build::{build, Bindings}, interp::Machine, value::Tensor};
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (program, _) = pmlang::frontend(
//!     "main(input float x[4], output float y) {
//!          index i[0:3];
//!          y = sum[i](x[i]*x[i]);
//!      }",
//! )?;
//! let graph = build(&program, &Bindings::default())?;
//! let mut machine = Machine::new(graph);
//! let feeds = HashMap::from([(
//!     "x".to_string(),
//!     Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])?,
//! )]);
//! let out = machine.invoke(&feeds)?;
//! assert_eq!(out["y"].scalar_value()?, 30.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod build;
pub mod dot;
pub mod error;
pub mod expand;
pub mod graph;
pub mod hash;
pub mod ident;
pub mod interp;
pub mod kernel;
pub mod lru;
pub mod pattern;
pub mod smallids;
pub mod store;
pub mod template;
pub mod validate;
pub mod value;

pub use budget::{Budget, BudgetExceeded};
pub use build::{build, Bindings};
pub use error::{BuildError, ExecError};
pub use expand::RefineError;
pub use graph::{
    Edge, EdgeId, EdgeMeta, IndexRange, MapSpec, Modifier, Node, NodeId, NodeKind, Odometer,
    Pattern, ReduceOp, ReduceSpec, ScalarKind, SrDfg, WriteSpec,
};
pub use hash::{graph_fingerprint, node_structural_hash, FxBuildHasher, FxHasher};
pub use ident::Ident;
pub use interp::Machine;
pub use kernel::KExpr;
pub use lru::{CacheStats, ContentLru, DEFAULT_CAPACITY_BYTES};
pub use smallids::SmallIds;
pub use store::{sharing_stats, store_stats, Consed, Footprint, SharingStats, StoreStats};
pub use template::{Refinement, TemplateCache, TemplateCacheStats, TemplateKey};
pub use validate::{validate, validate_all, ValidateError};
pub use value::{Scalar, Tensor, ValueError};
