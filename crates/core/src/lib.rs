//! # PolyMath — a computational stack for cross-domain acceleration
//!
//! A production-quality Rust reproduction of *"A Computational Stack for
//! Cross-Domain Acceleration"* (Kinzer et al., HPCA 2021). PolyMath lets a
//! single program span Robotics, Graph Analytics, DSP, Data Analytics, and
//! Deep Learning, and compiles each part to the domain-specific
//! accelerator best suited to it:
//!
//! * **PMLang** (crate `pmlang`) — the cross-domain language;
//! * **srDFG** (crate `srdfg`) — the simultaneous-recursive dataflow IR;
//! * **passes** (crate `pm-passes`) — the modular transformation pipeline;
//! * **lowering** (crate `pm-lower`) — the paper's Algorithms 1 & 2;
//! * **accelerators** (crate `pm-accel`) — simulated RoboX, Graphicionado,
//!   TABLA, DECO, and TVM-VTA backends plus CPU/GPU baselines and the
//!   multi-acceleration SoC;
//! * **workloads** (crate `pm-workloads`) — the paper's benchmark suite.
//!
//! This facade crate ties the stack together behind [`Compiler`] and the
//! evaluation helpers in [`mod@evaluate`].
//!
//! ## Quickstart
//!
//! ```
//! use polymath::{Compiler, standard_soc};
//! use srdfg::{Bindings, Machine, Tensor};
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = "
//!     classify(input float x[4], param float w[4], output float y) {
//!         index i[0:3];
//!         y = sigmoid(sum[i](w[i]*x[i]));
//!     }
//!     main(input float sample[4], param float weights[4], output float label) {
//!         DA: classify(sample, weights, label);
//!     }
//! ";
//! let compiled = Compiler::cross_domain().compile(source, &Bindings::default())?;
//! // Functional execution of the lowered program:
//! let feeds = HashMap::from([
//!     ("sample".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0; 4])?),
//!     ("weights".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![4], vec![0.5; 4])?),
//! ]);
//! let out = Machine::new(std::sync::Arc::clone(&compiled.graph)).invoke(&feeds)?;
//! assert!(out["label"].scalar_value()? > 0.5);
//! // Performance/energy account on the simulated SoC:
//! let report = standard_soc().run(&compiled, &HashMap::new())?;
//! assert!(report.total.seconds > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compiler;
pub mod evaluate;
pub mod json;
pub mod serve;
pub mod soak;

pub use compiler::{standard_soc, CachedCompile, CompileTimings, Compiler, PolyMathError};
pub use evaluate::{evaluate, geomean, PlatformResults};
pub use json::{Json, JsonError};
pub use serve::{
    serve_stdio, serve_tcp, Quarantine, Request, RunRequest, ServeConfig, ServeEngine, ServeError,
    ServeServer,
};
pub use soak::{run_soak, SoakConfig, SoakReport};
