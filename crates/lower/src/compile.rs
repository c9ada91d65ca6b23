//! Algorithm 2 — compilation from a lowered srDFG to accelerator IR.
//!
//! ```text
//! function CompileProgram(srdfg, AccSpec)
//!     let πd ← ∅ for d ∈ Domains
//!     for each n ∈ N do
//!         let (+d, md) = AccSpec[n.domain]
//!         let t = md[n.name]
//!         πd = πd + t(srdfg, n)
//!         for each in_edge ∈ n: if n.domain ≠ in_edge.src.domain then
//!             πd = πd + t_load(in_edge, n)
//!         for each out_edge ∈ n: if n.domain ≠ out_edge.dst.domain then
//!             πd = πd + t_store(n, out_edge)
//!     return πd1, …, πdn
//! ```
//!
//! Translation here produces a target-neutral [`Fragment`] per node — the
//! operation name, typed/shaped argument descriptors derived from edge
//! metadata (the paper's five argument-assignment steps), and the scalar-op
//! count — accumulated into one [`AccProgram`] per target. `load`/`store`
//! fragments are inserted wherever a value crosses a domain boundary; the
//! accelerator backends (crate `pm-accel`) play the role of the
//! "accelerator-provided compilers" that turn each fragment stream into an
//! executable schedule.

use crate::lower::{fully_lowered, LowerError};
use crate::spec::TargetMap;
use pmlang::{DType, Domain};
use srdfg::budget::Budget;
use srdfg::{Consed, EdgeId, EdgeMeta, Ident, Modifier, NodeId, SrDfg};
use std::sync::Arc;

/// A typed, shaped argument of a fragment: a handle on the interned edge
/// metadata plus the edge itself. Building one is two refcount bumps —
/// fragments share the graph's metadata records instead of re-copying
/// name strings and shape vectors per argument.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgInfo {
    /// Interned `(name, type, type-modifier, shape)` metadata of the edge.
    pub meta: Consed<EdgeMeta>,
    /// The underlying graph edge.
    pub edge: EdgeId,
}

impl ArgInfo {
    /// Source-level name of the value.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.meta.dtype
    }

    /// Type modifier.
    pub fn modifier(&self) -> Modifier {
        self.meta.modifier
    }

    /// Concrete shape (empty = scalar).
    pub fn shape(&self) -> &[usize] {
        &self.meta.shape
    }

    /// Number of elements the argument carries.
    pub fn volume(&self) -> usize {
        self.meta.shape.iter().product()
    }
}

/// What a fragment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentKind {
    /// An accelerator compute operation.
    Compute,
    /// A DMA load from another domain (or from the host).
    Load,
    /// A DMA store toward another domain (or the host).
    Store,
}

/// One accelerator-IR fragment: a basic operator and its arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Accelerator operation name (shared handle; compute fragments alias
    /// their node's name, DMA fragments a per-compile `load`/`store`).
    pub op: Ident,
    /// Kind of fragment.
    pub kind: FragmentKind,
    /// The originating graph node (compute fragments).
    pub node: Option<NodeId>,
    /// Input arguments.
    pub inputs: Vec<ArgInfo>,
    /// Output arguments.
    pub outputs: Vec<ArgInfo>,
    /// Scalar operations this fragment performs (cost-model basis).
    pub ops: u64,
}

impl Fragment {
    /// Bytes moved by a load/store fragment.
    pub fn bytes(&self) -> u64 {
        self.inputs
            .iter()
            .chain(&self.outputs)
            .map(|a| {
                let per = if a.dtype() == DType::Complex { 8 } else { 4 };
                a.volume() as u64 * per
            })
            .sum()
    }
}

/// The accumulated IR `πd` for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct AccProgram {
    /// Target accelerator name.
    pub target: String,
    /// Primary domain this partition serves (`None` = host glue; a domain
    /// can spread over several targets under per-component overrides).
    pub domain: Option<Domain>,
    /// Fragment stream in dependency (topological) order.
    pub fragments: Vec<Fragment>,
}

impl AccProgram {
    /// Total compute scalar-ops in this partition.
    pub fn compute_ops(&self) -> u64 {
        self.fragments.iter().filter(|f| f.kind == FragmentKind::Compute).map(|f| f.ops).sum()
    }

    /// Total DMA bytes (loads + stores).
    pub fn dma_bytes(&self) -> u64 {
        self.fragments.iter().filter(|f| f.kind != FragmentKind::Compute).map(Fragment::bytes).sum()
    }
}

/// A fully compiled program: the lowered graph plus per-target IR.
///
/// Both halves sit behind an [`Arc`], so the artifact is immutable once
/// Algorithm 2 returns and `clone` is two refcount bumps: a lowered srDFG
/// can run to hundreds of thousands of nodes and a partition to as many
/// fragments. Readers deref transparently; the rare consumer that needs
/// an owned mutable graph (fallback re-lowering) clones explicitly.
/// Immutability is also what lets the SoC memoise a partition's price by
/// the two pointers: equal pointers are equal content.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The lowered srDFG (functional ground truth; backends execute it).
    pub graph: Arc<SrDfg>,
    /// One partition per target that received at least one fragment.
    pub partitions: Arc<[AccProgram]>,
}

impl CompiledProgram {
    /// The first partition for `domain`, if any fragments landed there.
    pub fn partition(&self, domain: Option<Domain>) -> Option<&AccProgram> {
        self.partitions.iter().find(|p| p.domain == domain)
    }

    /// The partition compiled for a specific target name.
    pub fn partition_by_target(&self, target: &str) -> Option<&AccProgram> {
        self.partitions.iter().find(|p| p.target == target)
    }
}

/// Runs Algorithm 2 over (a clone of) a lowered graph, with no budget.
///
/// # Errors
///
/// Returns a [`LowerError`] if the graph still contains operations its
/// targets do not support (run [`crate::lower::lower`] first).
pub fn compile_program(graph: &SrDfg, targets: &TargetMap) -> Result<CompiledProgram, LowerError> {
    compile_program_budgeted(Arc::new(graph.clone()), targets, true, &Budget::unlimited())
}

/// Algorithm 2 over an already-shared graph — no graph clone at all, the
/// compiled artifact aliases the caller's [`Arc`] — under a
/// cooperative-cancellation [`Budget`]: an expired request is turned away
/// at entry (one fuel unit per graph node) before any fragment is built,
/// with a budget-tagged [`LowerError`].
///
/// `_parallel` is dead: the chunk-parallel builder it selected lost to
/// this single sweep on every benchmark workload and was deleted; the
/// parameter stays only because the frozen `benchmark/` crate passes it.
///
/// # Errors
///
/// Everything [`compile_program`] returns, plus a [`LowerError`] carrying
/// [`LowerError::budget`] on cancellation.
pub fn compile_program_budgeted(
    graph: Arc<SrDfg>,
    targets: &TargetMap,
    _parallel: bool,
    budget: &Budget,
) -> Result<CompiledProgram, LowerError> {
    if !fully_lowered(&graph, targets) {
        return Err(LowerError::msg("graph contains unsupported operations; lower it first"));
    }
    // One fuel unit per node: Algorithm 2 is a single sweep, so the entry
    // charge both prices the work about to happen and turns an expired
    // request away before any fragment is built.
    budget.charge("compile", graph.node_slots() as u64)?;
    let order = graph.topo_order();
    let n_nodes = graph.node_slots();
    let n_edges = graph.edge_count();

    // Resolve every node's target once up front, as a dense index table
    // (node raw id → index into `parts`): integer comparisons replace the
    // string hashing that used to dominate per-edge work. `parts` keeps
    // first-touch (topological) order; a partition's domain is the domain
    // of its first node (the paper's πd, one per accelerator — a domain
    // can host two accelerators under overrides).
    let mut parts: Vec<AccProgram> = Vec::new();
    let mut assign: Vec<u32> = vec![u32::MAX; n_nodes];
    for &id in &order {
        let node = graph.node(id);
        let name = targets.target_for(node, graph.domain).name.as_str();
        let ti = match parts.iter().position(|p| p.target == name) {
            Some(i) => i,
            None => {
                parts.push(AccProgram {
                    target: name.to_string(),
                    domain: node.domain.or(graph.domain),
                    fragments: Vec::new(),
                });
                parts.len() - 1
            }
        };
        assign[id.0 as usize] = ti as u32;
    }
    // The host target's index (boundary values live in host memory, so
    // the host never pays DMA for them). u32::MAX when the host received
    // no nodes — then unequal to every real index, as it must be.
    let host_name = targets.host().name.as_str();
    let host_ti: u32 =
        parts.iter().position(|p| p.target == host_name).map_or(u32::MAX, |i| i as u32);

    let mut is_boundary_out = vec![false; n_edges];
    for e in &graph.boundary_outputs {
        is_boundary_out[e.0 as usize] = true;
    }

    // t_load: an operand produced on another target (or fed by the host
    // through the graph boundary) is loaded once per destination
    // partition, by its first consumer there.
    let mut loaded = vec![false; parts.len() * n_edges];
    let needs_load = |loaded: &mut [bool], ti: u32, e: EdgeId| -> bool {
        let src_ti = match graph.edge(e).producer {
            Some((p, _)) => assign[p.0 as usize],
            None => host_ti,
        };
        src_ti != ti && !std::mem::replace(&mut loaded[ti as usize * n_edges + e.0 as usize], true)
    };
    // t_store: a result consumed on another target (or leaving an
    // accelerator through the graph boundary toward the host).
    let needs_store = |ti: u32, e: EdgeId| -> bool {
        graph.edge(e).consumers.iter().any(|&(c, _)| assign[c.0 as usize] != ti)
            || (is_boundary_out[e.0 as usize] && ti != host_ti)
    };

    // Exact-capacity reserve: a single-accelerator program puts every
    // fragment into one partition, and doubling-growth would re-copy the
    // whole fragment stream several times over.
    let mut part_len = vec![0usize; parts.len()];
    for &id in &order {
        let ti = assign[id.0 as usize];
        let node = graph.node(id);
        part_len[ti as usize] += 1
            + node.inputs.iter().filter(|&&e| needs_load(&mut loaded, ti, e)).count()
            + node.outputs.iter().filter(|&&e| needs_store(ti, e)).count();
    }
    for (p, n) in parts.iter_mut().zip(part_len) {
        p.fragments.reserve_exact(n);
    }
    loaded.fill(false);

    // The sweep: πd = πd + t_load… + t(srdfg, n) + t_store… for each n.
    let arg_info = |e: EdgeId| -> ArgInfo { ArgInfo { meta: graph.edge(e).meta.clone(), edge: e } };
    let load_op: Ident = "load".into();
    let store_op: Ident = "store".into();
    for &id in &order {
        let ti = assign[id.0 as usize];
        let node = graph.node(id);
        let fragments = &mut parts[ti as usize].fragments;
        for &e in &node.inputs {
            if needs_load(&mut loaded, ti, e) {
                fragments.push(Fragment {
                    op: load_op.clone(),
                    kind: FragmentKind::Load,
                    node: None,
                    inputs: vec![arg_info(e)],
                    outputs: vec![],
                    ops: 0,
                });
            }
        }
        fragments.push(Fragment {
            op: node.name.clone(),
            kind: FragmentKind::Compute,
            node: Some(id),
            inputs: node.inputs.iter().map(|&e| arg_info(e)).collect(),
            outputs: node.outputs.iter().map(|&e| arg_info(e)).collect(),
            ops: srdfg::graph::node_op_count(node),
        });
        for &e in &node.outputs {
            if needs_store(ti, e) {
                fragments.push(Fragment {
                    op: store_op.clone(),
                    kind: FragmentKind::Store,
                    node: None,
                    inputs: vec![],
                    outputs: vec![arg_info(e)],
                    ops: 0,
                });
            }
        }
    }
    parts.sort_by_key(|p| (p.domain, p.target.clone()));
    Ok(CompiledProgram { graph, partitions: parts.into() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::spec::AcceleratorSpec;

    fn two_domain_graph() -> SrDfg {
        let prog = pmlang::parse(
            "filt(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             clas(input float x[4], param float w[4], output float y) {
                 index i[0:3];
                 y = sigmoid(sum[i](w[i]*x[i]));
             }
             main(input float sig[4], param float w[4], output float cls) {
                 float filtered[4];
                 DSP: filt(sig, filtered);
                 DA: clas(filtered, w, cls);
             }",
        )
        .unwrap();
        srdfg::build(&prog, &srdfg::Bindings::default()).unwrap()
    }

    fn targets() -> TargetMap {
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut t = TargetMap::host_only(host);
        t.set(AcceleratorSpec::new(
            "DECO",
            Domain::Dsp,
            ["add", "sub", "mul", "const", "unpack", "pack"],
        ));
        t.set(AcceleratorSpec::new(
            "TABLA",
            Domain::DataAnalytics,
            ["add", "sub", "mul", "sigmoid", "const", "unpack", "pack"],
        ));
        t
    }

    #[test]
    fn partitions_by_domain_with_dma() {
        let mut g = two_domain_graph();
        let t = targets();
        lower(&mut g, &t).unwrap();
        let compiled = compile_program(&g, &t).unwrap();

        let dsp = compiled.partition(Some(Domain::Dsp)).expect("dsp partition");
        let da = compiled.partition(Some(Domain::DataAnalytics)).expect("da partition");
        assert_eq!(dsp.target, "DECO");
        assert_eq!(da.target, "TABLA");
        assert!(dsp.compute_ops() > 0);
        assert!(da.compute_ops() > 0);

        // The DSP partition loads the host input and stores toward DA.
        assert!(dsp.fragments.iter().any(|f| f.kind == FragmentKind::Load));
        assert!(dsp.fragments.iter().any(|f| f.kind == FragmentKind::Store));
        // The DA partition loads the filtered vector and the host param,
        // then stores the classification to the host.
        assert!(da.fragments.iter().filter(|f| f.kind == FragmentKind::Load).count() >= 2);
        assert!(da.fragments.iter().any(|f| f.kind == FragmentKind::Store));
        assert!(dsp.dma_bytes() > 0);
    }

    #[test]
    fn rejects_unlowered_graph() {
        let g = two_domain_graph();
        let t = targets();
        assert!(compile_program(&g, &t).is_err());
    }

    #[test]
    fn single_domain_program_has_one_accel_partition() {
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] + 1.0; }",
        )
        .unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let t = TargetMap::host_only(host);
        let compiled = compile_program(&g, &t).unwrap();
        assert_eq!(compiled.partitions.len(), 1);
        assert_eq!(compiled.partitions[0].target, "CPU");
        // Host partition needs no DMA fragments.
        assert_eq!(compiled.partitions[0].dma_bytes(), 0);
    }

    #[test]
    fn fragment_args_carry_modifiers_and_shapes() {
        let prog = pmlang::parse(
            "main(input float x[4], state float s[4], output float y[4]) {
                 index i[0:3];
                 s[i] = s[i] + x[i];
                 y[i] = s[i];
             }",
        )
        .unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let t = TargetMap::host_only(host);
        let compiled = compile_program(&g, &t).unwrap();
        let frags = &compiled.partitions[0].fragments;
        let add = frags.iter().find(|f| f.op == "map.add").expect("add fragment");
        assert!(add.inputs.iter().any(|a| a.modifier() == Modifier::State && a.shape() == [4]));
    }
}
