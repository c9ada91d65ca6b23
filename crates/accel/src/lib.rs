//! # pm-accel — simulated accelerator substrates for PolyMath
//!
//! The PolyMath paper evaluates on five physical accelerator targets plus
//! CPU/GPU baselines; none of that hardware is available here, so this
//! crate provides faithful simulator substitutes (see DESIGN.md §2 for the
//! substitution rationale):
//!
//! * [`tabla::Tabla`] — scalar-granularity dataflow ML accelerator
//!   (Data Analytics), with static level scheduling onto PE grids;
//! * [`deco::Deco`] — DSP-block FPGA overlay (DSP), with MAC fusion and
//!   stage-pipelined balanced DFGs;
//! * [`graphicionado::Graphicionado`] — vertex-program pipeline ASIC
//!   (Graph Analytics) streaming sparse edge lists;
//! * [`robox::Robox`] — macro-dataflow MPC accelerator (Robotics) with
//!   vector lanes and nonlinear units;
//! * [`vta::Vta`] — layer-granularity DNN core (Deep Learning) with a
//!   16×16 GEMM array;
//! * [`dnnweaver::DnnWeaver`] — an alternate template-based DL backend,
//!   demonstrating srDFG retargetability within one domain;
//! * [`hyperstreams::HyperStreams`] — the paper's Black-Scholes target:
//!   a spatially unrolled streaming pipeline, assigned per component via
//!   `TargetMap::set_override`;
//! * [`cpu::Cpu`] / [`gpu::Gpu`] — analytic roofline models of the Xeon
//!   E-2176G, Titan Xp and Jetson AGX Xavier baselines;
//! * [`soc::Soc`] — the multi-acceleration SoC: host manager + cascaded
//!   accelerators + DMA (paper §V.A.3).
//!
//! Every backend implements [`backend::Backend`]: it publishes the
//! operation set `Ot` the lowering algorithm checks against, and prices a
//! compiled partition in cycles/seconds/joules. Functional results always
//! come from executing the lowered srDFG, so simulators and the reference
//! interpreter can never disagree about values.
//!
//! The SoC runtime is fault-tolerant (DESIGN.md §10): [`fault`] defines a
//! typed fault model with a deterministic seed-driven injector, [`error`]
//! the structured [`SocError`] taxonomy that replaces panics on every
//! fallible path, and [`runtime`] the dispatch-then-execute trajectory
//! loop with host-fallback re-lowering for downed devices.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod breaker;
pub mod classify;
mod complement;
pub mod cpu;
pub mod deco;
pub mod dnnweaver;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod graphicionado;
pub mod hyperstreams;
mod levels;
pub mod model;
#[cfg(test)]
mod oracle;
pub mod pool;
pub mod robox;
pub mod runtime;
pub mod soc;
pub mod tabla;
pub mod vta;

pub use backend::{Backend, DmaModel};
pub use breaker::{BreakerBoard, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use classify::{profile, WorkProfile};
pub use complement::{
    backend_named, complement, cross_domain_targets, domain_defaults, host_targets,
};
pub use cpu::Cpu;
pub use deco::Deco;
pub use dnnweaver::DnnWeaver;
pub use error::SocError;
pub use fault::{ChaosConfig, ChaosProfile, FaultKind, FaultPlan, VirtualClock};
pub use gpu::Gpu;
pub use graphicionado::Graphicionado;
pub use hyperstreams::HyperStreams;
pub use model::{HwConfig, PerfEstimate, WorkloadHints};
pub use pool::{PoolReport, ShardStats, SocPool};
pub use robox::Robox;
pub use runtime::{TrajectoryInputs, TrajectoryOutcome};
pub use soc::{ChaosOutcome, FallbackRecord, PartitionReport, Soc, SocReport};
pub use tabla::Tabla;
pub use vta::Vta;

/// The backend tests' one way to compile: the compiler's back half.
#[cfg(test)]
fn compiled(graph: srdfg::SrDfg, targets: &pm_lower::TargetMap) -> pm_lower::CompiledProgram {
    pm_passes::lower_and_compile(graph, targets, None, &srdfg::Budget::unlimited()).unwrap().0
}
