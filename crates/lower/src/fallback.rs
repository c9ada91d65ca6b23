//! Host-fallback re-lowering — the degraded path of the resilient SoC.
//!
//! When the runtime marks an accelerator persistently down, its fragments
//! must keep executing somewhere. The host is general-purpose
//! (`supports_all`), so Algorithm 1 can always re-assign the downed
//! target's nodes to it: [`relower_without`] strips the downed targets
//! from the [`TargetMap`], clears any per-node target stamps that point at
//! them, re-runs [`lower`] (a no-op refinement-wise, since an
//! already-lowered graph has no unsupported operations for a
//! general-purpose host) and re-runs Algorithm 2 to produce a new
//! partitioning in which the downed targets' work lands on the host.
//!
//! The graph's nodes and edges are untouched — only target metadata
//! changes — so the re-lowered program computes bit-identical results to
//! the original, which is exactly what lets the fuzzer hold degraded runs
//! to the same oracle.

use crate::compile::{compile_program_budgeted, CompiledProgram};
use crate::lower::{lower_budgeted, LowerError};
use crate::spec::TargetMap;
use srdfg::template::TemplateCache;
use srdfg::Budget;
use std::sync::Arc;

/// Re-lowers `compiled` with every target named in `down` removed from
/// `targets`; their fragments are re-assigned (via Algorithm 1 + 2) to
/// whatever the reduced map resolves to — ultimately the host.
///
/// Passing the host's own name in `down` has no effect: the host is the
/// fallback of last resort and cannot be removed.
///
/// With the compiler's [`TemplateCache`] as `cache`, any further
/// refinement the reduced target map forces (a non-general-purpose
/// target absorbing the downed target's nodes at a finer granularity)
/// hits the templates the original compilation populated instead of
/// re-expanding under fault-recovery latency pressure. With and without
/// a cache the graphs are byte-identical, so the degraded run still
/// holds to the same oracle.
///
/// # Errors
///
/// Returns a [`LowerError`] if re-lowering or re-compilation fails — which
/// can only happen if the reduced map still contains a non-general-purpose
/// target that cannot absorb the orphaned nodes.
pub fn relower_without(
    compiled: &CompiledProgram,
    targets: &TargetMap,
    down: &[String],
    cache: Option<&TemplateCache>,
) -> Result<CompiledProgram, LowerError> {
    let host_name = targets.host().name.clone();
    let down: Vec<&String> = down.iter().filter(|d| **d != host_name).collect();
    let reduced = targets.without_targets(&down);
    // An owned copy: Algorithm 1 rewrites the graph in place, and the
    // shared original stays live in the caller (and the program cache).
    let mut graph = (*compiled.graph).clone();
    // Clear stamped per-node assignments pointing at downed targets so
    // those nodes re-resolve through the reduced map (domain default, now
    // the host).
    let ids: Vec<srdfg::NodeId> = graph.node_ids().collect();
    for id in ids {
        let stamped_down = match &graph.node(id).target {
            Some(t) => down.iter().any(|d| t == d.as_str()),
            None => false,
        };
        if stamped_down {
            graph.node_mut(id).target = None;
        }
    }
    let unlimited = Budget::unlimited();
    // Not `pm_passes::lower_and_compile`: the graph was cleaned when first
    // compiled, and cleaning it again would change chaos `SocReport`s.
    lower_budgeted(&mut graph, &reduced, cache, &unlimited)?;
    compile_program_budgeted(Arc::new(graph), &reduced, true, &unlimited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::lower::lower;
    use crate::spec::AcceleratorSpec;
    use pmlang::Domain;
    use std::collections::HashMap;

    fn two_domain_compiled() -> (CompiledProgram, TargetMap) {
        let src = "filt(input float x[8], param float h[4], output float y[5]) {
             index i[0:4], k[0:3];
             y[i] = sum[k](h[k]*x[i+k]);
         }
         clas(input float f[5], param float v[5], output float c) {
             index i[0:4];
             c = sigmoid(sum[i](v[i]*f[i]));
         }
         main(input float sig[8], param float taps[4], param float v[5],
              output float cls) {
             float feat[5];
             DSP: filt(sig, taps, feat);
             DA: clas(feat, v, cls);
         }";
        let prog = pmlang::parse(src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new(
            "DECO",
            Domain::Dsp,
            [
                "add", "sub", "mul", "sum", "shift", "const", "pack", "unpack", "load", "store",
                "read", "write",
            ],
        ));
        targets.set(AcceleratorSpec::new(
            "TABLA",
            Domain::DataAnalytics,
            [
                "add", "sub", "mul", "sum", "sigmoid", "const", "pack", "unpack", "load", "store",
                "read", "write",
            ],
        ));
        lower(&mut g, &targets).unwrap();
        (compile_program(&g, &targets).unwrap(), targets)
    }

    fn execute(compiled: &CompiledProgram) -> HashMap<String, srdfg::Tensor> {
        use pmlang::DType;
        let t = |shape: Vec<usize>, data: Vec<f64>| {
            srdfg::Tensor::from_vec(DType::Float, shape, data).unwrap()
        };
        let mut m = srdfg::Machine::new((*compiled.graph).clone());
        let mut feeds = HashMap::new();
        feeds.insert("sig".to_string(), t(vec![8], (0..8).map(|i| i as f64 * 0.25).collect()));
        feeds.insert("taps".to_string(), t(vec![4], vec![0.5, -0.25, 0.125, 1.0]));
        feeds.insert("v".to_string(), t(vec![5], vec![1.0, -1.0, 0.5, 0.25, 2.0]));
        m.invoke(&feeds).unwrap()
    }

    #[test]
    fn relower_moves_downed_target_to_host() {
        let (compiled, targets) = two_domain_compiled();
        assert!(compiled.partitions.iter().any(|p| p.target == "DECO"));
        let re = relower_without(&compiled, &targets, &["DECO".to_string()], None).unwrap();
        assert!(
            !re.partitions.iter().any(|p| p.target == "DECO"),
            "downed target must receive no fragments"
        );
        assert!(re.partitions.iter().any(|p| p.target == "CPU"), "host must absorb the work");
        assert!(re.partitions.iter().any(|p| p.target == "TABLA"), "healthy targets stay");
    }

    #[test]
    fn relower_all_targets_is_host_only() {
        let (compiled, targets) = two_domain_compiled();
        let down = vec!["DECO".to_string(), "TABLA".to_string()];
        let re = relower_without(&compiled, &targets, &down, None).unwrap();
        for p in re.partitions.iter() {
            assert_eq!(p.target, "CPU", "everything must land on the host");
        }
    }

    #[test]
    fn relower_preserves_functional_results_exactly() {
        let (compiled, targets) = two_domain_compiled();
        let before = execute(&compiled);
        let re = relower_without(&compiled, &targets, &["DECO".to_string()], None).unwrap();
        let after = execute(&re);
        assert_eq!(before.len(), after.len());
        for (name, t) in &before {
            assert_eq!(Some(t), after.get(name), "output `{name}` changed under fallback");
        }
    }

    #[test]
    fn host_cannot_be_taken_down() {
        let (compiled, targets) = two_domain_compiled();
        let re = relower_without(&compiled, &targets, &["CPU".to_string()], None).unwrap();
        assert_eq!(re.partitions.len(), compiled.partitions.len());
    }

    #[test]
    fn relower_is_deterministic() {
        let (compiled, targets) = two_domain_compiled();
        let a = relower_without(&compiled, &targets, &["TABLA".to_string()], None).unwrap();
        let b = relower_without(&compiled, &targets, &["TABLA".to_string()], None).unwrap();
        assert_eq!(a.partitions, b.partitions);
    }
}
