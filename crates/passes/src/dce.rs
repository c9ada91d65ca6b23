//! Dead-node elimination: removes nodes none of whose results reach a
//! boundary output (directly or transitively).
//!
//! Worklist formulation: every node is examined once, and removing a node
//! re-enqueues only the producers of its inputs (the only nodes whose
//! liveness can have changed). The old version rescanned the whole graph
//! each round until no node died — O(n²) on long dead chains.

use crate::manager::{Pass, PassStats};
use srdfg::{NodeId, SrDfg};
use std::collections::VecDeque;

/// Removes nodes whose outputs have no live consumers and are not boundary
/// outputs, chasing newly dead producers via a worklist.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadNodeElimination;

impl Pass for DeadNodeElimination {
    fn name(&self) -> &'static str {
        "dead-node-elimination"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = PassStats::default();
        // Fast path: a converged graph (every fixpoint iteration after the
        // first) has no dead nodes — detect that with one allocation-free
        // scan before setting up the worklist machinery.
        let any_dead = graph.node_ids().any(|id| {
            graph.node(id).outputs.iter().all(|&e| {
                graph.edge(e).consumers.is_empty() && !graph.boundary_outputs.contains(&e)
            })
        });
        if !any_dead {
            return stats;
        }
        // Flat bitmaps indexed by raw id (ids are dense slot indices;
        // `remove_node` never allocates new edges, so sizes are stable).
        let mut boundary = vec![false; graph.edge_count()];
        for &e in &graph.boundary_outputs {
            boundary[e.0 as usize] = true;
        }
        let mut worklist: VecDeque<NodeId> = graph.node_ids().collect();
        let mut queued = vec![true; graph.node_slots()];
        while let Some(id) = worklist.pop_front() {
            queued[id.0 as usize] = false;
            if !graph.is_live(id) {
                continue;
            }
            let node = graph.node(id);
            let dead = node
                .outputs
                .iter()
                .all(|&e| graph.edge(e).consumers.is_empty() && !boundary[e.0 as usize]);
            if !dead {
                continue;
            }
            // Removing this node may orphan its input producers; they are
            // the only candidates whose liveness changed.
            let producers: Vec<NodeId> = node
                .inputs
                .iter()
                .filter_map(|&e| graph.edge(e).producer.map(|(p, _)| p))
                .collect();
            graph.remove_node(id);
            stats.changed = true;
            stats.rewrites += 1;
            for p in producers {
                if graph.is_live(p) && !queued[p.0 as usize] {
                    queued[p.0 as usize] = true;
                    worklist.push_back(p);
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removes_unused_chain() {
        // `t` and its chain feed nothing.
        let prog = pmlang::parse(
            "main(input float x, output float y) {
                 float t, u;
                 t = x * 2.0;
                 u = t + 1.0;
                 y = x;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        let stats = DeadNodeElimination.run(&mut g);
        assert!(stats.changed);
        assert_eq!(stats.rewrites, 2);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn keeps_live_nodes() {
        let prog = pmlang::parse(
            "main(input float x, output float y) { float t; t = x * 2.0; y = t + 1.0; }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = DeadNodeElimination.run(&mut g);
        assert!(!stats.changed);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn keeps_state_producers() {
        // The state output is a boundary output; its producer must stay.
        let prog = pmlang::parse(
            "main(input float x, state float s, output float y) {
                 s = s + x;
                 y = x;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = DeadNodeElimination.run(&mut g);
        assert!(!stats.changed);
    }

    #[test]
    fn long_dead_chain_dies_in_one_worklist_run() {
        // A 6-deep dead chain: the worklist must chase producers backwards
        // without any whole-graph rescans.
        let prog = pmlang::parse(
            "main(input float x, output float y) {
                 float a, b, c, d, e, f;
                 a = x * 2.0;
                 b = a + 1.0;
                 c = b + 1.0;
                 d = c + 1.0;
                 e = d + 1.0;
                 f = e + 1.0;
                 y = x;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = DeadNodeElimination.run(&mut g);
        assert!(stats.changed);
        assert_eq!(stats.rewrites, 6);
        assert_eq!(g.node_count(), 1);
        srdfg::validate(&g).unwrap();
    }
}
