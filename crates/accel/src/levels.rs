//! One sweep over a partition's fragment stream, shared by the two
//! scalar-granularity backends (TABLA, DECO): ASAP levels of the scalar
//! dataflow, the byte and operation totals, and the estimate they feed.
//! `NodeId` is a dense index, so levels live in a `Vec` with a slot per
//! graph node; Algorithm 2 pushes a partition's fragments in topological
//! order, so walking the stream front to back meets every in-partition
//! producer before its consumers — no sort, no membership table.

use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{Fragment, FragmentKind};
use srdfg::{Modifier, Node, NodeId, NodeKind, ScalarKind, SrDfg};

/// The running state of one sweep.
pub(crate) struct Sweep<'g> {
    graph: &'g SrDfg,
    /// `level + 1` of every scalar node levelled so far, by `NodeId`;
    /// 0 = not (yet) met in this partition.
    ready: Vec<u32>,
    /// Bytes of `input`/`output`/intermediate values crossing the FIFOs
    /// every invocation (`state`/`param` stay resident on-chip).
    pub streamed_bytes: u64,
    /// Scalar operations of the compute fragments, bytes of the DMA ones.
    compute_ops: u64,
    dma_bytes: u64,
}

impl<'g> Sweep<'g> {
    pub fn new(graph: &'g SrDfg) -> Self {
        let ready = vec![0; graph.node_slots()];
        Sweep { graph, ready, streamed_bytes: 0, compute_ops: 0, dma_bytes: 0 }
    }

    /// Adds `frag` to the totals and, when it computes a scalar node,
    /// returns that node for the caller to [`Sweep::place`].
    pub fn enter(&mut self, frag: &Fragment) -> Option<(NodeId, &'g Node, &'g ScalarKind)> {
        if frag.kind != FragmentKind::Compute {
            let bytes = frag.bytes();
            self.dma_bytes += bytes;
            if frag.arg.as_ref().is_some_and(|a| {
                matches!(a.modifier(), Modifier::Input | Modifier::Output | Modifier::Temp)
            }) {
                self.streamed_bytes += bytes;
            }
            return None;
        }
        self.compute_ops += frag.ops;
        let id = frag.node?;
        let node = self.graph.node(id);
        let NodeKind::Scalar(kind) = &node.kind else { return None };
        Some((id, node, kind.get()))
    }

    /// The producers of `node` levelled so far, with their levels.
    pub fn producers<'a>(&'a self, node: &'a Node) -> impl Iterator<Item = (NodeId, usize)> + 'a {
        node.inputs.iter().filter_map(|&e| {
            let (p, _) = self.graph.edge(e).producer?;
            let ready = self.ready[p.0 as usize] as usize;
            (ready != 0).then(|| (p, ready - 1))
        })
    }

    /// Levels `node` as soon as possible — one stage past its deepest
    /// in-partition producer, except that `shares`, a producer fused into
    /// the node, sits in the node's own stage — and returns the level.
    pub fn place(&mut self, id: NodeId, node: &Node, shares: Option<NodeId>) -> usize {
        // A consumer met before its producer would have been levelled
        // without it: an out-of-order stream must not price silently.
        debug_assert!(
            node.outputs
                .iter()
                .flat_map(|&e| self.graph.edge(e).consumers.iter())
                .all(|&(c, _)| self.ready[c.0 as usize] == 0),
            "fragment stream is not topological at `{}`",
            node.name
        );
        let level = self
            .producers(node)
            .map(|(p, level)| level + usize::from(Some(p) != shares))
            .max()
            .unwrap_or(0);
        self.ready[id.0 as usize] = level as u32 + 1;
        level
    }

    /// The estimate once the schedule needs `compute_cycles`: scaled to
    /// the effective (sparse) op count, overlapped with streaming — the
    /// slower of the two dominates — plus a fixed control `epilogue`.
    pub fn price(
        &self,
        compute_cycles: u64,
        hints: &WorkloadHints,
        stream_bytes_per_cycle: u64,
        epilogue: u64,
        hw: &HwConfig,
    ) -> PerfEstimate {
        let scale = hints.effective_scale(self.compute_ops);
        let compute = ((compute_cycles as f64) * scale).ceil() as u64;
        let stream = self.streamed_bytes.div_ceil(stream_bytes_per_cycle);
        let mut est = PerfEstimate::from_cycles((compute.max(stream) + epilogue).max(1), hw);
        est.dma_bytes = self.dma_bytes;
        est
    }
}
