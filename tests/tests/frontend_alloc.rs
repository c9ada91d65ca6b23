//! The front half allocates per construct, and a converged mid-end not
//! at all.
//!
//! Tokens borrow the source text, `srdfg::build` and `pmlang::check`
//! borrow the AST, and the kernel rewriters copy a `Map`/`Reduce` spec
//! only when they changed it. A counting global allocator pins both: a
//! second `PassManager::standard()` run over its own output, and the
//! whole parse → check → build → mid-end of a paper-scale CNN.

use pm_passes::PassManager;
use pm_tests::{allocations, Counting};
use pm_workloads::programs;
use srdfg::{Bindings, SrDfg};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs the front half on `source`: the post-midend graph and the
/// allocations of each stage (parse, check, build, mid-end).
fn front_half(source: &str) -> (SrDfg, [u64; 4]) {
    let (program, parse) = allocations(|| pmlang::parse(source).expect("parse"));
    let (_, check) = allocations(|| pmlang::check(&program).expect("check"));
    let (mut graph, build) =
        allocations(|| srdfg::build(&program, &Bindings::default()).expect("build"));
    let (_, midend) = allocations(|| PassManager::standard().run(&mut graph));
    (graph, [parse, check, build, midend])
}

/// Allocations of ResNet-18's parse + check + build + mid-end in a debug
/// build, whose mid-end also runs the pass verifier: 5,711 measured
/// (parse 2,333, check 67, build 2,424, mid-end 887) plus 10 % headroom.
/// Cloning tokens, ASTs and kernel specs, the same front half made 15,803
/// (parse 5,417, check 391, build 5,598, mid-end 4,397).
const RESNET_FRONT_HALF_ALLOCATIONS: u64 = 6_282;

/// A second `PassManager::standard()` run over its own output: building
/// the pipeline and one id list per pass. Copying every `Reduce` spec, it
/// made 1,685 (ResNet-18) and 1,851 (MobileNet).
const CONVERGED_RERUN_ALLOCATIONS: u64 = 32;

/// One test, so no other thread interns records meanwhile: the CNN's
/// front half is measured first, against an empty store.
#[test]
fn the_front_half_allocates_per_construct_and_a_converged_midend_not_at_all() {
    let (resnet, [parse, check, build, midend]) = front_half(&programs::resnet18(224));
    let total = parse + check + build + midend;
    assert!(
        total <= RESNET_FRONT_HALF_ALLOCATIONS,
        "resnet18-224: the front half made {total} allocations \
         (parse {parse}, check {check}, build {build}, mid-end {midend})"
    );

    let (mobilenet, _) = front_half(&programs::mobilenet(224));
    for (name, mut graph) in [("resnet18-224", resnet), ("mobilenet-224", mobilenet)] {
        let (stats, allocs) = allocations(|| PassManager::standard().run(&mut graph));
        let rewrites: usize = stats.iter().map(|(_, s)| s.rewrites).sum();
        assert_eq!(rewrites, 0, "{name}: the mid-end had not converged");
        assert!(
            allocs <= CONVERGED_RERUN_ALLOCATIONS,
            "{name}: a converged re-run made {allocs} allocations"
        );
    }
}
