//! Algorithm 1 allocates per template, not per lowered node.
//!
//! A scalar expansion is built once per distinct template and instantiated
//! by copying fixed-size records: a node's operand and result lists, a
//! port's slot and a name all fit inline, so an instance costs no heap
//! block of its own. A counting global allocator holds a cold lowering to
//! at most one allocation per node it leaves, and the records to their
//! sizes.

use pm_lower::lower_budgeted;
use pm_tests::{allocations, Counting};
use pm_workloads::programs;
use polymath::Compiler;
use srdfg::{Bindings, Budget, Edge, EdgeId, Ident, Node, SmallIds, TemplateCache};
use std::mem::size_of;

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_node_and_an_edge_are_their_information_size() {
    assert!(size_of::<Node>() <= 96, "Node is {} B", size_of::<Node>());
    assert!(size_of::<Edge>() <= 48, "Edge is {} B", size_of::<Edge>());
    assert_eq!(size_of::<Ident>(), 8);
    assert!(size_of::<SmallIds<EdgeId, 3>>() <= 16);
}

/// Allocations a cold `lower_budgeted` (fresh template cache) makes on the
/// post-midend graph of `source`, and the live nodes it leaves.
fn cold_lowering(source: &str) -> (u64, usize) {
    let compiler = Compiler::cross_domain();
    let mut graph = compiler.build_graph(source, &Bindings::default()).expect("mid-end");
    let cache = TemplateCache::new();
    let budget = Budget::unlimited();
    let (lowered, allocs) =
        allocations(|| lower_budgeted(&mut graph, compiler.targets(), Some(&cache), &budget));
    lowered.expect("Algorithm 1");
    (allocs, graph.node_count())
}

#[test]
fn a_cold_algorithm_1_makes_at_most_one_allocation_per_lowered_node() {
    for (name, source) in [
        ("kmeans-64x4", programs::kmeans(64, 4)),
        ("logistic-256", programs::logistic(256)),
        ("blackscholes-256", programs::black_scholes(256)),
        ("dct-block", programs::dct_block()),
    ] {
        let (allocs, nodes) = cold_lowering(&source);
        assert!(nodes >= 1_000, "{name} lowered to only {nodes} nodes");
        assert!(allocs as usize <= nodes, "{name}: {allocs} allocations for {nodes} nodes");
    }
}

/// Slots are stored narrower than they are hashed: the program-cache key
/// of a post-midend graph is the value the `usize`-slot layout computed.
#[test]
fn the_program_cache_key_of_a_post_midend_graph_does_not_move() {
    let compiler = Compiler::cross_domain();
    let graph = compiler.build_graph(&programs::kmeans(64, 4), &Bindings::default()).unwrap();
    assert_eq!(srdfg::graph_fingerprint(&graph), 0x3a62_af11_a581_c59f);
}
