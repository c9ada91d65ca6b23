//! The back half of the compile pipeline, written once: Algorithm 1, the
//! post-lowering cleanup, Algorithm 2. It lives here rather than in
//! `polymath` because `pm-fuzz`, below `polymath`, runs it too; this is the
//! lowest crate that sees both the cleanup passes and `pm-lower`.

use crate::{ElideMarshalling, Pass, PruneUnusedInputs};
use pm_lower::{compile_program_budgeted, lower_budgeted, CompiledProgram, LowerError, TargetMap};
use srdfg::{Budget, SrDfg, TemplateCache};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time of each stage of one [`lower_and_compile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Algorithm 1.
    pub lower: Duration,
    /// Marshalling elision and operand pruning.
    pub post_lower: Duration,
    /// Algorithm 2.
    pub compile: Duration,
}

/// Lowers `graph` for `targets` (Algorithm 1, expanding through `cache`),
/// elides interior marshalling, prunes unused operands and compiles the
/// result (Algorithm 2), all under `budget`. The graph moves into the
/// artifact's [`Arc`]; nothing is cloned.
///
/// # Errors
///
/// The first failing stage's [`LowerError`], carrying
/// [`LowerError::budget`] when `budget` ran out. There is no partial
/// artifact.
pub fn lower_and_compile(
    mut graph: SrDfg,
    targets: &TargetMap,
    cache: Option<&TemplateCache>,
    budget: &Budget,
) -> Result<(CompiledProgram, StageTimes), LowerError> {
    let t = Instant::now();
    lower_budgeted(&mut graph, targets, cache, budget)?;
    let lower = t.elapsed();

    let t = Instant::now();
    ElideMarshalling.run(&mut graph);
    PruneUnusedInputs.run(&mut graph);
    let post_lower = t.elapsed();

    let t = Instant::now();
    let program = compile_program_budgeted(Arc::new(graph), targets, true, budget)?;
    Ok((program, StageTimes { lower, post_lower, compile: t.elapsed() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::AcceleratorSpec;
    use pmlang::Domain;

    /// A DSP stage feeding a DA stage, each on a scalar fabric.
    fn two_domain() -> (SrDfg, TargetMap) {
        let src = "scale(input float x[8], output float y[8]) { index i[0:7]; y[i] = 2.0*x[i]; }
             dot(input float y[8], output float z) { index i[0:7]; z = sum[i](y[i]*y[i]); }
             main(input float x[8], output float z) {
                 float y[8];
                 DSP: scale(x, y);
                 DA: dot(y, z);
             }";
        let graph = srdfg::build(&pmlang::parse(src).unwrap(), &srdfg::Bindings::default());
        let ops = ["add", "mul", "const", "unpack", "pack"];
        let mut targets =
            TargetMap::host_only(AcceleratorSpec::general_purpose("CPU", Domain::Dsp));
        targets.set(AcceleratorSpec::new("SC-DSP", Domain::Dsp, ops));
        targets.set(AcceleratorSpec::new("SC-DA", Domain::DataAnalytics, ops));
        (graph.unwrap(), targets)
    }

    #[test]
    fn compiles_both_domains_and_times_algorithm_1() {
        let (graph, targets) = two_domain();
        let (program, times) =
            lower_and_compile(graph, &targets, Some(&TemplateCache::new()), &Budget::unlimited())
                .unwrap();
        let names: Vec<&str> = program.partitions.iter().map(|p| p.target.as_str()).collect();
        assert!(names.contains(&"SC-DSP") && names.contains(&"SC-DA"), "{names:?}");
        assert!(times.lower > Duration::ZERO);
    }

    #[test]
    fn a_starved_budget_is_a_budget_error_at_either_algorithm() {
        let (graph, targets) = two_domain();
        let metered = Budget::new(None, Some(u64::MAX));
        lower_and_compile(graph.clone(), &targets, None, &metered).unwrap();
        // No fuel stops Algorithm 1; one unit short of a full compile
        // stops Algorithm 2, after lowering and cleanup have run.
        for (fuel, stage) in [(0, "lower"), (metered.spent_units() - 1, "compile")] {
            let starved = Budget::new(None, Some(fuel));
            let err = lower_and_compile(graph.clone(), &targets, None, &starved).unwrap_err();
            assert_eq!(err.budget.as_ref().map(|b| b.stage), Some(stage), "fuel {fuel}: {err}");
        }
    }
}
