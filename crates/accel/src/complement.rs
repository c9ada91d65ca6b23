//! The accelerator complement: which backends exist and which serve a
//! domain by default. Target maps, SoCs and the CLI's name lookup derive
//! from this one table, so a new accelerator is added here.

use crate::backend::Backend;
use crate::{Cpu, Deco, DnnWeaver, Graphicionado, HyperStreams, Robox, Tabla, Vta};
use pm_lower::TargetMap;

/// Every accelerator. The first five are the paper's (Table V), each the
/// default target of its domain; the last two are reachable only through a
/// per-component override (`--pin comp=DnnWeaver`), and since partitions
/// are priced by target name they never shadow a default.
pub fn complement() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(Robox::default()),
        Box::new(Graphicionado::default()),
        Box::new(Tabla::default()),
        Box::new(Deco::default()),
        Box::new(Vta::default()),
        Box::new(HyperStreams::default()),
        Box::new(DnnWeaver::default()),
    ]
}

/// The five of the [`complement`] that serve a domain by default.
pub fn domain_defaults() -> Vec<Box<dyn Backend>> {
    complement().into_iter().take(5).collect()
}

/// The backend of the [`complement`] called `name`, ignoring ASCII case
/// (`VTA` is accepted for `TVM-VTA`).
pub fn backend_named(name: &str) -> Option<Box<dyn Backend>> {
    let name = if name.eq_ignore_ascii_case("VTA") { "TVM-VTA" } else { name };
    complement().into_iter().find(|b| b.name().eq_ignore_ascii_case(name))
}

/// Every domain on the host CPU (the baseline).
pub fn host_targets() -> TargetMap {
    TargetMap::host_only(Cpu::default().accel_spec())
}

/// [`host_targets`] with each of the [`domain_defaults`] serving its domain.
pub fn cross_domain_targets() -> TargetMap {
    let mut targets = host_targets();
    for backend in domain_defaults() {
        targets.set(backend.accel_spec());
    }
    targets
}
