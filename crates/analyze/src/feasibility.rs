//! `PM-W006` — lowering feasibility, answered by the lowering.
//!
//! The paper states Algorithm 1's failure rule once — an unsupported node
//! that cannot be refined fails compilation for that accelerator — and
//! `pm_lower::lower` implements it once. This check runs that function on
//! a scratch copy of the graph and reports its error as a warning, with
//! the source span of the statement the stuck operation came from: same
//! planner, same template path, same override stamping, same iteration
//! bound, and the same sentence `pmc compile` would print.

use crate::diagnostic::Diagnostic;
use pm_lower::TargetMap;
use srdfg::SrDfg;

/// `PM-W006` — lowers `scratch` (a throwaway copy) for `targets` and
/// reports the failure, if any.
pub(crate) fn lowering_feasibility(
    mut scratch: SrDfg,
    targets: &TargetMap,
    out: &mut Vec<Diagnostic>,
) {
    if let Err(e) = pm_lower::lower(&mut scratch, targets) {
        let mut d = Diagnostic::warning("PM-W006", e.message)
            .with_note("Algorithm 1 will get stuck here; compilation for this accelerator fails");
        d.span = e.span;
        out.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{build, build_program, host_targets};
    use pm_lower::AcceleratorSpec;
    use pmlang::Domain;

    fn scalar_only(name: &str) -> AcceleratorSpec {
        AcceleratorSpec::new(
            name,
            Domain::Dsp,
            ["add", "sub", "mul", "div", "const", "unpack", "pack"],
        )
    }

    fn deco_like_targets() -> TargetMap {
        let mut targets = host_targets();
        targets.set(scalar_only("DECOISH"));
        targets
    }

    fn feasibility(source: &str, targets: &TargetMap) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        lowering_feasibility(build(source), targets, &mut out);
        out
    }

    #[test]
    fn feasible_program_is_quiet() {
        let diags = feasibility(
            "f(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 2.0; }
             main(input float a[4], output float b[4]) { DSP: f(a, b); }",
            &deco_like_targets(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn stuck_op_is_reported_with_source_span() {
        // `argmax` has no scalar expansion and the DSP target does not
        // support it, so Algorithm 1 gets stuck on it.
        let diags = feasibility(
            "pick(input float x[4], output float y) { index i[0:3]; y = argmax[i](x[i]); }
             main(input float a[4], output float b) { DSP: pick(a, b); }",
            &deco_like_targets(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "PM-W006");
        assert!(diags[0].message.contains("argmax"), "{}", diags[0].message);
        assert!(diags[0].message.contains("DECOISH"), "{}", diags[0].message);
        // The span points at the argmax statement inside `pick` (line 1).
        let span = diags[0].span.expect("stuck node span");
        assert_eq!(span.line, 1);
    }

    #[test]
    fn overrides_decide_feasibility_exactly_as_lowering_does() {
        const SRC: &str =
            "pick(input float x[4], output float y) { index i[0:3]; y = argmax[i](x[i]); }
             main(input float a[4], output float b) { DSP: pick(a, b); }";
        // `pick` pinned onto a scalar-only target inside a general-purpose
        // DSP default gets stuck; the mirrored map lowers.
        let mut pinned_narrow = host_targets();
        pinned_narrow.set(AcceleratorSpec::general_purpose("WIDE", Domain::Dsp));
        pinned_narrow.set_override("pick", scalar_only("NARROW"));
        let mut pinned_wide = host_targets();
        pinned_wide.set(scalar_only("DECOISH"));
        pinned_wide.set_override("pick", AcceleratorSpec::general_purpose("WIDE", Domain::Dsp));

        for (targets, lowers) in [(pinned_narrow, false), (pinned_wide, true)] {
            let (program, graph) = build_program(SRC);
            assert_eq!(pm_lower::lower(&mut graph.clone(), &targets).is_ok(), lowers);
            let stuck: Vec<Diagnostic> = crate::lint(&program, &graph, &targets)
                .into_iter()
                .filter(|d| d.code == "PM-W006")
                .collect();
            assert_eq!(stuck.is_empty(), lowers, "{stuck:?}");
            if let Some(d) = stuck.first() {
                assert!(d.message.contains("`argmax`"), "{}", d.message);
                assert!(d.message.contains("`NARROW`"), "{}", d.message);
                assert_eq!(d.span.expect("stuck node span").line, 1);
            }
        }
    }
}
