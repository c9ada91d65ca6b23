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
//! Translation here appends one target-neutral [`Fragment`] per node and
//! per boundary edge to one [`AccProgram`] per target. A fragment is a
//! *reference* into the lowered graph, as the paper writes it: a compute
//! fragment names its node (`t(srdfg, n)`), and a `load`/`store` names the
//! one edge it moves (`t_load(in_edge, n)` / `t_store(n, out_edge)`). The
//! paper's five argument-assignment steps — name, type, type modifier,
//! shape — are not copied into the fragment: a consumer reads them from
//! the node's edges (`graph.node(id).inputs`, `graph.edge(e).meta`) at the
//! point of use, so a compute fragment holds no heap block and no
//! refcount. `load`/`store` fragments are inserted wherever a value
//! crosses a domain boundary; the accelerator backends (crate `pm-accel`)
//! play the role of the "accelerator-provided compilers" that turn each
//! fragment stream into an executable schedule.

use crate::lower::{fully_lowered, LowerError};
use crate::spec::{SupportMemo, TargetMap};
use pmlang::{DType, Domain};
use srdfg::budget::Budget;
use srdfg::{Consed, EdgeId, EdgeMeta, Footprint, Modifier, NodeId, SrDfg};
use std::fmt;
use std::sync::Arc;

/// The one edge a `load`/`store` fragment moves: a handle on the shared
/// edge metadata plus the edge itself, so DMA pricing needs no graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgInfo {
    /// Shared `(name, type, type-modifier, shape)` metadata of the edge.
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

/// One accelerator-IR fragment: a reference to a node or an edge of the
/// lowered graph it was compiled from. A compute fragment sets `node`;
/// its operands and results are that node's `inputs`/`outputs`. A
/// `load`/`store` sets `arg` to the edge it moves.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Kind of fragment.
    pub kind: FragmentKind,
    /// The node a compute fragment evaluates (`None` for `load`/`store`).
    pub node: Option<NodeId>,
    /// The edge a `load`/`store` moves (`None` for compute fragments).
    pub arg: Option<ArgInfo>,
    /// Scalar operations this fragment performs (cost-model basis).
    pub ops: u64,
}

impl Fragment {
    /// The accelerator operation: the node's name for a compute fragment
    /// (`compute` if it names no live node of `graph`), `load` or `store`
    /// for a DMA one.
    pub fn op<'g>(&self, graph: &'g SrDfg) -> &'g str {
        match self.kind {
            FragmentKind::Load => "load",
            FragmentKind::Store => "store",
            FragmentKind::Compute => match self.node {
                Some(id) if graph.is_live(id) => graph.node(id).name.as_str(),
                _ => "compute",
            },
        }
    }

    /// What breaks the fragment contract — a compute fragment names a live
    /// node of `graph`, a `load`/`store` carries the edge it moves — or
    /// `None` when the fragment keeps it.
    pub fn defect(&self, graph: &SrDfg) -> Option<String> {
        match (self.kind, self.node, &self.arg) {
            (FragmentKind::Compute, Some(id), _) if graph.is_live(id) => None,
            (FragmentKind::Compute, Some(id), _) => {
                Some(format!("compute fragment names removed node {id}"))
            }
            (FragmentKind::Compute, None, _) => Some("compute fragment names no node".to_string()),
            (_, _, Some(_)) => None,
            (_, _, None) => Some("load/store fragment has no edge to marshal".to_string()),
        }
    }

    /// Bytes moved by a load/store fragment (0 for a compute fragment).
    pub fn bytes(&self) -> u64 {
        self.arg.as_ref().map_or(0, |a| a.meta.bytes())
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
/// the two pointers: equal pointers are equal content. The two halves
/// belong together: a fragment names nodes and edges of *this* graph, and
/// reads its compute arguments through it.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The lowered srDFG (functional ground truth; backends execute it).
    pub graph: Arc<SrDfg>,
    /// One partition per target that received at least one fragment; its
    /// fragments reference nodes and edges of `graph`.
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

    /// Heap bytes the artifact keeps alive: both `Arc` blocks, the lowered
    /// graph ([`SrDfg::heap_bytes`]) and every fragment stream at its
    /// capacity, each shared record once — a `load`/`store`'s metadata is
    /// the graph edge's own. A walk over the whole artifact, so it is
    /// taken once, when the program cache stores it.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let arc_counts = 2 * size_of::<usize>();
        let mut count = Footprint::default();
        count.graph(&self.graph);
        count.add(
            2 * arc_counts + size_of::<SrDfg>() + self.partitions.len() * size_of::<AccProgram>(),
        );
        for part in self.partitions.iter() {
            count.add(part.target.capacity() + part.fragments.capacity() * size_of::<Fragment>());
            for arg in part.fragments.iter().filter_map(|f| f.arg.as_ref()) {
                count.record(&arg.meta);
            }
        }
        count.bytes()
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
    // can host two accelerators under overrides). Every node is one
    // compute fragment of its partition, counted here as `part_len`.
    let mut parts: Vec<AccProgram> = Vec::new();
    let mut part_len: Vec<usize> = Vec::new();
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
                part_len.push(0);
                parts.len() - 1
            }
        };
        part_len[ti] += 1;
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
    let mut needs_load = |ti: u32, e: EdgeId| -> bool {
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

    // Reserve the compute fragments, let the few DMA ones grow the stream,
    // and hand the slack back at the end: a fragment is 40 bytes, so that
    // costs less than an exact-count pre-pass over every edge.
    for (p, n) in parts.iter_mut().zip(part_len) {
        p.fragments.reserve_exact(n);
    }

    // The sweep: πd = πd + t_load… + t(srdfg, n) + t_store… for each n.
    // A compute fragment is the node's id; a DMA fragment carries the one
    // edge it moves.
    let dma = |kind: FragmentKind, e: EdgeId| Fragment {
        kind,
        node: None,
        arg: Some(ArgInfo { meta: graph.edge(e).meta.clone(), edge: e }),
        ops: 0,
    };
    for &id in &order {
        let ti = assign[id.0 as usize];
        let node = graph.node(id);
        let fragments = &mut parts[ti as usize].fragments;
        for &e in &node.inputs {
            if needs_load(ti, e) {
                fragments.push(dma(FragmentKind::Load, e));
            }
        }
        fragments.push(Fragment {
            kind: FragmentKind::Compute,
            node: Some(id),
            arg: None,
            ops: srdfg::graph::node_op_count(node),
        });
        for &e in &node.outputs {
            if needs_store(ti, e) {
                fragments.push(dma(FragmentKind::Store, e));
            }
        }
    }
    parts.iter_mut().for_each(|p| p.fragments.shrink_to_fit());
    parts.sort_by(|a, b| (a.domain, &a.target).cmp(&(b.domain, &b.target)));
    let compiled = CompiledProgram { graph, partitions: parts.into() };
    debug_assert_eq!(check_schedule(&compiled, targets).err(), None, "Algorithm 2's invariants");
    Ok(compiled)
}

/// A fragment schedule that breaks one of the invariants
/// [`check_schedule`] states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A compute fragment names no live node, or a `load`/`store` no edge
    /// ([`Fragment::defect`]).
    Malformed {
        /// The partition's target.
        part: String,
        /// The fragment's index in that partition.
        index: usize,
    },
    /// *Marshalled*: a partition loads a value that the partition
    /// producing it never stores.
    UnstoredLoad {
        /// The loading partition's target.
        part: String,
        /// The value's name.
        value: String,
        /// The producing partition's target.
        producer: String,
    },
    /// *Marshalled*: a partition stores a value that another partition
    /// (or no partition) produces, which would give it a second writer.
    ForeignStore {
        /// The storing partition's target.
        part: String,
        /// The value's name.
        value: String,
        /// The producing partition's target; `None` if no partition does.
        producer: Option<String>,
    },
    /// *Marshalled*: a compute fragment consumes a cross-partition operand
    /// that its own stream did not load before it.
    UnloadedOperand {
        /// The fragment's operation.
        op: String,
        /// The consuming partition's target.
        part: String,
        /// The operand's name.
        value: String,
        /// The producing partition's target; `None` for host memory.
        from: Option<String>,
    },
    /// *Executable*: some fragments wait on DMA that never completes.
    Deadlock {
        /// How many fragments never ran.
        waiting: usize,
        /// The first six of them, as `` `op`@target ``.
        including: Vec<String>,
    },
    /// *Placed*: a compute fragment sits on another partition than the
    /// one its target map assigns.
    Misplaced {
        /// The fragment's operation.
        op: String,
        /// The partition it sits on.
        part: String,
        /// The target the map assigns.
        expected: String,
    },
    /// *Placed*: a partition's target does not support a fragment's op.
    Unsupported {
        /// The fragment's operation.
        op: String,
        /// The partition's target.
        part: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Malformed { part, index } => {
                write!(f, "fragment {index} of partition `{part}` names no live node or edge")
            }
            ScheduleError::UnstoredLoad { part, value, producer } => write!(
                f,
                "partition `{part}` loads `{value}` but its producer partition `{producer}` \
                 never stores it"
            ),
            ScheduleError::ForeignStore { part, value, producer } => {
                write!(f, "partition `{part}` stores `{value}`, which ")?;
                match producer {
                    Some(p) => write!(f, "only its producer partition `{p}` may write"),
                    None => f.write_str("no partition produces"),
                }
            }
            ScheduleError::UnloadedOperand { op, part, value, from } => {
                write!(f, "fragment `{op}` on `{part}` consumes `{value}` from ")?;
                match from {
                    Some(p) => write!(f, "partition `{p}`")?,
                    None => f.write_str("host memory")?,
                }
                f.write_str(" without a preceding DMA load")
            }
            ScheduleError::Deadlock { waiting, including } => write!(
                f,
                "fragment schedule deadlocks: {waiting} fragment(s) wait on DMA that never \
                 completes, including {}",
                including.join(", ")
            ),
            ScheduleError::Misplaced { op, part, expected } => {
                write!(f, "fragment `{op}` landed on `{part}`, expected `{expected}`")
            }
            ScheduleError::Unsupported { op, part } => write!(f, "`{op}` not in {part}'s op set"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Checks the invariants [`compile_program_budgeted`] builds into every
/// schedule, in one run of its fragment streams:
///
/// 1. **Marshalled.** Every compute fragment loads each cross-partition
///    operand earlier in its own stream. An operand is cross-partition if
///    another partition produces it, or if it is a boundary input (host
///    memory) and the fragment is not on the host. Every load of a
///    produced value has a store of it in the producer's partition, and
///    every store sits there, so one partition writes each value (a
///    circulated `state` buffer included).
/// 2. **Executable.** Run as a host manager would — each stream in order,
///    a `load` of an edge waiting until every `store` of that edge on
///    other partitions has run — every fragment finishes.
/// 3. **Placed.** Every compute fragment sits on the partition its target
///    map assigns, and that target supports its op.
///
/// The sweep makes all three hold by construction: it stores each
/// crossing value in its producer's partition and loads it in each
/// consumer's partition before the first use, so every stream is a
/// subsequence of one topological order.
///
/// On success, returns the order the run finished the fragments in, as
/// global numbers: partition by partition in `compiled.partitions` order,
/// in stream order within each. That order is topological for the
/// schedule's dependency graph (`g → g + 1` within a partition,
/// `store(e) → load(e)` across partitions).
///
/// # Errors
///
/// The first violation the run meets, as a [`ScheduleError`].
pub fn check_schedule(
    compiled: &CompiledProgram,
    targets: &TargetMap,
) -> Result<Vec<usize>, ScheduleError> {
    let (graph, parts) = (&*compiled.graph, &*compiled.partitions);
    let n_edges = graph.edge_count();
    let host = targets.host().name.as_str();
    // Index: each partition's first global number, each compute
    // fragment's partition by node, each store as (partition, position)
    // by edge.
    let (mut first, mut total) = (Vec::with_capacity(parts.len()), 0);
    let mut part_of = vec![usize::MAX; graph.node_slots()];
    let mut stores: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_edges];
    for (p, part) in parts.iter().enumerate() {
        first.push(total);
        total += part.fragments.len();
        for (index, f) in part.fragments.iter().enumerate() {
            if f.defect(graph).is_some() {
                return Err(ScheduleError::Malformed { part: part.target.clone(), index });
            }
            match (f.kind, f.node, &f.arg) {
                (FragmentKind::Compute, Some(id), _) => part_of[id.0 as usize] = p,
                (FragmentKind::Store, _, Some(a)) => stores[a.edge.0 as usize].push((p, index)),
                _ => {}
            }
        }
    }
    // The partition a value originates in; `None` for host memory.
    let origin = |e: EdgeId| {
        graph.edge(e).producer.map(|(n, _)| part_of[n.0 as usize]).filter(|&p| p != usize::MAX)
    };
    let mut loaded = vec![false; parts.len() * n_edges];
    let mut memo = SupportMemo::new();
    let mut next = vec![0usize; parts.len()];
    let mut order = Vec::with_capacity(total);
    // Round robin: advance each stream until it waits on a store. A round
    // that runs nothing ends the run.
    loop {
        let ran = order.len();
        for (p, part) in parts.iter().enumerate() {
            while let Some(f) = part.fragments.get(next[p]) {
                if let (FragmentKind::Load, Some(a)) = (f.kind, &f.arg) {
                    let stored = &stores[a.edge.0 as usize];
                    if stored.iter().any(|&(q, i)| q != p && next[q] <= i) {
                        break;
                    }
                    if let Some(src) = origin(a.edge).filter(|&s| s != p) {
                        if !stored.iter().any(|&(q, _)| q == src) {
                            return Err(ScheduleError::UnstoredLoad {
                                part: part.target.clone(),
                                value: a.name().to_string(),
                                producer: parts[src].target.clone(),
                            });
                        }
                    }
                    loaded[p * n_edges + a.edge.0 as usize] = true;
                } else if let (FragmentKind::Store, Some(a)) = (f.kind, &f.arg) {
                    let src = origin(a.edge);
                    if src != Some(p) {
                        return Err(ScheduleError::ForeignStore {
                            part: part.target.clone(),
                            value: a.name().to_string(),
                            producer: src.map(|s| parts[s].target.clone()),
                        });
                    }
                } else if let (FragmentKind::Compute, Some(id)) = (f.kind, f.node) {
                    let node = graph.node(id);
                    let op = || f.op(graph).to_string();
                    let spec = targets.target_for(node, graph.domain);
                    if spec.name != part.target {
                        let (op, part) = (op(), part.target.clone());
                        return Err(ScheduleError::Misplaced {
                            op,
                            part,
                            expected: spec.name.clone(),
                        });
                    }
                    if !memo.supports(spec, &node.name) {
                        return Err(ScheduleError::Unsupported {
                            op: op(),
                            part: part.target.clone(),
                        });
                    }
                    for &e in &node.inputs {
                        let from = origin(e);
                        let cross = from.map_or(part.target != host, |s| s != p);
                        if cross && !loaded[p * n_edges + e.0 as usize] {
                            return Err(ScheduleError::UnloadedOperand {
                                op: op(),
                                part: part.target.clone(),
                                value: graph.edge(e).meta.name.to_string(),
                                from: from.map(|s| parts[s].target.clone()),
                            });
                        }
                    }
                }
                order.push(first[p] + next[p]);
                next[p] += 1;
            }
        }
        if order.len() == ran {
            break;
        }
    }
    if order.len() < total {
        let including = (0..parts.len())
            .flat_map(|p| parts[p].fragments[next[p]..].iter().map(move |f| (p, f)))
            .take(6)
            .map(|(p, f)| format!("`{}`@{}", f.op(graph), parts[p].target))
            .collect();
        return Err(ScheduleError::Deadlock { waiting: total - order.len(), including });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::spec::AcceleratorSpec;

    fn graph(source: &str) -> SrDfg {
        srdfg::build(&pmlang::parse(source).unwrap(), &srdfg::Bindings::default()).unwrap()
    }

    fn two_domain_graph() -> SrDfg {
        graph(
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
        let g =
            graph("main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] + 1.0; }");
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
        let g = graph(
            "main(input float x[4], state float s[4], output float y[4]) {
                 index i[0:3];
                 s[i] = s[i] + x[i];
                 y[i] = s[i];
             }",
        );
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let t = TargetMap::host_only(host);
        let compiled = compile_program(&g, &t).unwrap();
        let g = &compiled.graph;
        let frags = &compiled.partitions[0].fragments;
        let add = frags.iter().find(|f| f.op(g) == "map.add").expect("add fragment");
        assert!(add.arg.is_none(), "a compute fragment copies no argument");
        let node = g.node(add.node.expect("a compute fragment names its node"));
        assert!(node.inputs.iter().any(|&e| {
            let meta = &g.edge(e).meta;
            meta.modifier == Modifier::State && meta.shape == [4]
        }));
    }

    #[test]
    fn dma_fragments_carry_the_edge_they_move_and_no_node() {
        let mut g = two_domain_graph();
        let t = targets();
        lower(&mut g, &t).unwrap();
        let compiled = compile_program(&g, &t).unwrap();
        let mut dma = 0;
        for f in compiled.partitions.iter().flat_map(|p| &p.fragments) {
            if f.kind == FragmentKind::Compute {
                continue;
            }
            dma += 1;
            let arg = f.arg.as_ref().expect("a load/store carries its edge");
            assert!(f.node.is_none());
            assert_eq!(*arg.meta, *compiled.graph.edge(arg.edge).meta);
            assert_eq!(f.bytes(), arg.meta.bytes());
            assert_eq!(
                f.op(&compiled.graph),
                if f.kind == FragmentKind::Load { "load" } else { "store" }
            );
        }
        assert!(dma >= 4, "{dma} DMA fragments");
    }

    /// `g` lowered and compiled, its streams edited by `edit`, then checked.
    fn check_fabricated(mut g: SrDfg, edit: impl FnOnce(&SrDfg, &mut [AccProgram])) -> String {
        let t = targets();
        lower(&mut g, &t).unwrap();
        let compiled = compile_program(&g, &t).unwrap();
        let mut parts = compiled.partitions.to_vec();
        edit(&compiled.graph, &mut parts);
        let fabricated = CompiledProgram { graph: compiled.graph, partitions: parts.into() };
        check_schedule(&fabricated, &t).unwrap_err().to_string()
    }

    #[test]
    fn detects_missing_store_for_a_cross_partition_load() {
        let err = check_fabricated(two_domain_graph(), |_, parts| {
            let deco = parts.iter_mut().find(|p| p.target == "DECO").unwrap();
            let store = deco.fragments.iter().position(|f| f.kind == FragmentKind::Store);
            deco.fragments.remove(store.expect("DECO stores its result"));
        });
        assert_eq!(
            err,
            "partition `TABLA` loads `filtered.1` but its producer partition `DECO` never stores it"
        );
    }

    #[test]
    fn detects_missing_load_before_a_cross_partition_compute() {
        // Only TABLA's load of the value DECO produced; its loads of
        // boundary inputs stay.
        let err = check_fabricated(two_domain_graph(), |graph, parts| {
            let tabla = parts.iter_mut().find(|p| p.target == "TABLA").unwrap();
            tabla.fragments.retain(|f| {
                f.kind != FragmentKind::Load
                    || graph.edge(f.arg.as_ref().unwrap().edge).producer.is_none()
            });
        });
        assert_eq!(
            err,
            "fragment `unpack` on `TABLA` consumes `filtered.1` from partition `DECO` without a \
             preceding DMA load"
        );
    }

    #[test]
    fn detects_cross_target_dependency_cycle() {
        // DECO first loads the value it stores last, and TABLA stores that
        // value back after loading it: each waits on the other.
        let err = check_fabricated(two_domain_graph(), |_, parts| {
            let deco = parts.iter().position(|p| p.target == "DECO").unwrap();
            let store = parts[deco].fragments.iter().find(|f| f.kind == FragmentKind::Store);
            let store = store.expect("DECO stores its result").clone();
            let load = Fragment { kind: FragmentKind::Load, ..store.clone() };
            parts[deco].fragments.insert(0, load);
            parts.iter_mut().find(|p| p.target == "TABLA").unwrap().fragments.push(store);
        });
        assert!(err.starts_with("fragment schedule deadlocks: "), "{err}");
        assert!(err.contains("wait on DMA that never completes, including `load`@DECO"), "{err}");
    }

    #[test]
    fn detects_a_second_writer_of_a_state_buffer() {
        let g = graph(
            "main(input float x[4], state float z[4], output float y[4]) {
                 index i[0:3];
                 DSP: y[i] = z[i] * 0.5;
                 z[i] = x[i];
             }",
        );
        // DECO also DMA-stores the new `z` that the host computes.
        let err = check_fabricated(g, |graph, parts| {
            let mut outs = graph.boundary_outputs.iter().map(|&e| (e, graph.edge(e)));
            let (z, _) = outs.find(|(_, e)| e.producer.is_some() && e.meta.name == "z").unwrap();
            let deco = parts.iter_mut().find(|p| p.target == "DECO").unwrap();
            let store = deco.fragments.iter().find(|f| f.kind == FragmentKind::Store);
            let mut store = store.expect("DECO stores its result").clone();
            store.arg = Some(ArgInfo { meta: graph.edge(z).meta.clone(), edge: z });
            deco.fragments.push(store);
        });
        assert_eq!(
            err,
            "partition `DECO` stores `z`, which only its producer partition `CPU` may write"
        );
    }
}
