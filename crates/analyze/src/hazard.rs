//! Static hazard analysis of compiled SoC schedules.
//!
//! Algorithm 2 hands every accelerator a sequential fragment stream;
//! across streams the only synchronization is the store→load DMA pairs
//! the compiler inserted. This module rebuilds that synchronization graph
//! and checks the three ways it can be wrong:
//!
//! * **missing marshalling** (`PM-E110`) — a fragment consumes a value
//!   produced on another target with no DMA load, or loads a value its
//!   producer partition never stores;
//! * **DMA races on shared host buffers** (`PM-W111`/`PM-W112`) — state
//!   circulation reuses one host buffer per state variable, so an
//!   accelerator DMA-reading the old version while another partition
//!   writes the new one is a write-after-read (or write-after-write)
//!   hazard unless some dependency path orders the two;
//! * **deadlock** (`PM-E113`) — the cross-target dependency graph has a
//!   cycle, so every partition ends up waiting on DMA that never comes.

use crate::{codes, Diagnostic};
use pm_lower::{CompiledProgram, FragmentKind, TargetMap};
use srdfg::graph::Modifier;
use srdfg::EdgeId;
use std::collections::{HashMap, HashSet, VecDeque};

/// Dense per-source reachability over the fragment dependency DAG.
///
/// For every fragment `g` and partition `p`, stores the smallest
/// within-partition index of any fragment of `p` reachable from `g`
/// (including `g` itself). Because each partition's stream is totally
/// ordered, `g` reaches fragment `t` iff it reaches *some* fragment of
/// `t`'s partition at an index ≤ `t`'s — so one reverse-topological
/// sweep, O(fragments × partitions), answers every query the hazard
/// pass used to answer with a fresh BFS per reader/writer pair.
struct Reachability {
    earliest: Vec<u32>,
    nparts: usize,
}

/// A successor visitor: calls its callback once per out-edge of fragment `g`.
type SuccVisitor<'a> = &'a dyn Fn(usize, &mut dyn FnMut(usize));

impl Reachability {
    fn build(
        topo: &[usize],
        for_each_succ: SuccVisitor<'_>,
        frags: &[Frag],
        nparts: usize,
    ) -> Self {
        let mut earliest = vec![u32::MAX; frags.len() * nparts];
        for &g in topo.iter().rev() {
            let (own, row) = (frags[g].part, g * nparts);
            for_each_succ(g, &mut |t| {
                let trow = t * nparts;
                for p in 0..nparts {
                    earliest[row + p] = earliest[row + p].min(earliest[trow + p]);
                }
            });
            earliest[row + own] = earliest[row + own].min(frags[g].idx as u32);
        }
        Reachability { earliest, nparts }
    }

    fn reaches(&self, from: usize, to: usize, frags: &[Frag]) -> bool {
        self.earliest[from * self.nparts + frags[to].part] <= frags[to].idx as u32
    }
}

/// One fragment's coordinates in the global schedule.
#[derive(Clone, Copy)]
struct Frag {
    part: usize,
    idx: usize,
}

/// A read or write of a circulated state buffer.
#[derive(Clone, Copy)]
struct BufUse {
    gid: usize,
    part: usize,
    edge: EdgeId,
}

/// Analyzes the compiled fragment plan for marshalling gaps, DMA hazards
/// on circulated state buffers, and cross-target dependency cycles,
/// returning the diagnostics through [`finish`](crate::finish).
pub fn analyze_schedule(compiled: &CompiledProgram, targets: &TargetMap) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let graph = &compiled.graph;
    let host = targets.host().name.as_str();

    // Global fragment numbering, plus where every edge is produced
    // (partition of its producing node) and stored.
    let mut frags: Vec<Frag> = Vec::new();
    let mut first_gid = Vec::with_capacity(compiled.partitions.len());
    for (pi, part) in compiled.partitions.iter().enumerate() {
        first_gid.push(frags.len());
        for fi in 0..part.fragments.len() {
            frags.push(Frag { part: pi, idx: fi });
        }
    }
    let n = frags.len();
    // Dense node-raw-id → partition table: the E110 loop below looks up
    // the producer partition of every compute input, which on large
    // lowered graphs is hundreds of thousands of queries — flat indexing
    // replaces per-query hashing of NodeIds.
    let mut part_of_node: Vec<u32> = vec![u32::MAX; graph.node_slots()];
    for (pi, p) in compiled.partitions.iter().enumerate() {
        for f in &p.fragments {
            if let Some(id) = f.node {
                part_of_node[id.0 as usize] = pi as u32;
            }
        }
    }
    // The partition an edge's value originates in (host for boundary
    // inputs and for producers that never made it into any partition).
    let origin = |e: EdgeId| -> Option<usize> {
        graph.edge(e).producer.and_then(|(p, _)| {
            let pi = part_of_node[p.0 as usize];
            (pi != u32::MAX).then_some(pi as usize)
        })
    };
    let part_name = |pi: usize| compiled.partitions[pi].target.as_str();
    let span_of = |e: EdgeId| graph.edge(e).meta.span;

    // Edge raw id → global fragment ids that DMA-store / DMA-load it,
    // again dense so the per-fragment interval queries are flat loads.
    let mut stores: Vec<Vec<usize>> = vec![Vec::new(); graph.edge_count()];
    let mut loads: Vec<Vec<usize>> = vec![Vec::new(); graph.edge_count()];
    for (gid, fr) in frags.iter().enumerate() {
        let f = &compiled.partitions[fr.part].fragments[fr.idx];
        match (f.kind, &f.arg) {
            (FragmentKind::Store, Some(a)) => stores[a.edge.0 as usize].push(gid),
            (FragmentKind::Load, Some(a)) => loads[a.edge.0 as usize].push(gid),
            _ => {}
        }
    }

    // ---- PM-E110: marshalling gaps -------------------------------------
    for (gid, fr) in frags.iter().enumerate() {
        let f = &compiled.partitions[fr.part].fragments[fr.idx];
        match f.kind {
            FragmentKind::Load => {
                let Some(a) = &f.arg else { continue };
                if let Some(src) = origin(a.edge) {
                    if src != fr.part
                        && !stores[a.edge.0 as usize].iter().any(|&g| frags[g].part == src)
                    {
                        out.push(
                            Diagnostic::error(
                                codes::MISSING_MARSHAL,
                                format!(
                                    "partition `{}` loads `{}` but its producer partition `{}` \
                                     never stores it",
                                    part_name(fr.part),
                                    a.name(),
                                    part_name(src),
                                ),
                            )
                            .at(span_of(a.edge))
                            .with_note("the DMA load would read stale host memory"),
                        );
                    }
                }
            }
            FragmentKind::Compute => {
                let Some(id) = f.node else { continue };
                for &e in &graph.node(id).inputs {
                    let src = origin(e);
                    let src_part = src.unwrap_or(usize::MAX);
                    let cross = match src {
                        Some(s) => s != fr.part,
                        // Boundary inputs live in host memory: the host
                        // partition reads them directly, everyone else
                        // must DMA them in.
                        None => part_name(fr.part) != host,
                    };
                    if !cross {
                        continue;
                    }
                    let has_earlier_load =
                        loads[e.0 as usize].iter().any(|&g| frags[g].part == fr.part && g < gid);
                    if !has_earlier_load {
                        let from = if src.is_some() {
                            format!("partition `{}`", part_name(src_part))
                        } else {
                            "host memory".to_string()
                        };
                        out.push(
                            Diagnostic::error(
                                codes::MISSING_MARSHAL,
                                format!(
                                    "fragment `{}` on `{}` consumes `{}` from {from} without a \
                                     preceding DMA load",
                                    f.op(graph),
                                    part_name(fr.part),
                                    graph.edge(e).meta.name,
                                ),
                            )
                            .at(span_of(e)),
                        );
                    }
                }
            }
            FragmentKind::Store => {}
        }
    }

    // ---- Dependency graph ----------------------------------------------
    // Sequential order within each partition, plus store(e) -> load(e)
    // DMA synchronization across partitions. The sequential edges are
    // implicit (`g -> g + 1` while both fragments share a partition —
    // partitions are laid out consecutively in the global numbering) and
    // the cross edges live in a flat CSR, because one `Vec` per fragment
    // costs an allocation per fragment and dominated this pass's runtime
    // on expanded graphs.
    let mut cross: Vec<(u32, u32)> = Vec::new();
    for (ss, ls) in stores.iter().zip(&loads) {
        if ss.is_empty() || ls.is_empty() {
            continue;
        }
        for &s in ss {
            for &l in ls {
                if frags[s].part != frags[l].part {
                    cross.push((s as u32, l as u32));
                }
            }
        }
    }
    let mut cross_start = vec![0u32; n + 1];
    for &(s, _) in &cross {
        cross_start[s as usize + 1] += 1;
    }
    for i in 1..=n {
        cross_start[i] += cross_start[i - 1];
    }
    let mut cross_tgt = vec![0u32; cross.len()];
    {
        let mut cursor = cross_start.clone();
        for &(s, l) in &cross {
            cross_tgt[cursor[s as usize] as usize] = l;
            cursor[s as usize] += 1;
        }
    }
    let for_each_succ = |g: usize, f: &mut dyn FnMut(usize)| {
        let fr = frags[g];
        if fr.idx + 1 < compiled.partitions[fr.part].fragments.len() {
            f(g + 1);
        }
        for &t in &cross_tgt[cross_start[g] as usize..cross_start[g + 1] as usize] {
            f(t as usize);
        }
    };

    // ---- PM-E113: deadlock ---------------------------------------------
    let mut indeg = vec![0u32; n];
    for g in 0..n {
        for_each_succ(g, &mut |t| indeg[t] += 1);
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&g| indeg[g] == 0).collect();
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    while let Some(g) = queue.pop_front() {
        topo.push(g);
        for_each_succ(g, &mut |t| {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push_back(t);
            }
        });
    }
    let done = topo.len();
    if done < n {
        let mut stuck: Vec<String> = (0..n)
            .filter(|&g| indeg[g] > 0)
            .map(|g| {
                let fr = frags[g];
                let f = &compiled.partitions[fr.part].fragments[fr.idx];
                format!("`{}`@{}", f.op(graph), part_name(fr.part))
            })
            .collect();
        stuck.truncate(6);
        out.push(
            Diagnostic::error(
                codes::DEADLOCK,
                format!(
                    "fragment schedule deadlocks: {} fragment(s) wait on DMA that never \
                     completes, including {}",
                    n - done,
                    stuck.join(", "),
                ),
            )
            .with_note("cross-target dependencies form a cycle"),
        );
        // Reachability below assumes a DAG; the cycle is the headline.
        return out;
    }

    // ---- PM-W111/PM-W112: DMA races on circulated state buffers --------
    // State circulation reuses one host buffer per state root: `z` flows
    // in through a boundary input and its updated version `z.1` flows out
    // through a boundary output, both backed by the same storage between
    // invocations.
    let root = |name: &str| name.split('.').next().unwrap_or(name).to_string();
    let mut state_roots: HashMap<String, (Vec<EdgeId>, Vec<EdgeId>)> = HashMap::new();
    for &e in &graph.boundary_inputs {
        let meta = &graph.edge(e).meta;
        if meta.modifier == Modifier::State {
            state_roots.entry(root(&meta.name)).or_default().0.push(e);
        }
    }
    for &e in &graph.boundary_outputs {
        let meta = &graph.edge(e).meta;
        let r = root(&meta.name);
        if let Some(entry) = state_roots.get_mut(&r) {
            if !entry.0.contains(&e) {
                entry.1.push(e);
            }
        }
    }

    if state_roots.is_empty() {
        return out;
    }
    let reach = Reachability::build(&topo, &for_each_succ, &frags, compiled.partitions.len());
    let reaches = |from: usize, to: usize| -> bool { reach.reaches(from, to, &frags) };

    let mut reported: HashSet<(&'static str, String, usize, usize)> = HashSet::new();
    let mut roots: Vec<_> = state_roots.iter().collect();
    roots.sort_by(|a, b| a.0.cmp(b.0));
    for (r, (ins, outs)) in roots {
        let mut readers: Vec<BufUse> = Vec::new();
        let mut writers: Vec<BufUse> = Vec::new();
        for (gid, fr) in frags.iter().enumerate() {
            let f = &compiled.partitions[fr.part].fragments[fr.idx];
            let on_host = part_name(fr.part) == host;
            let at = |edge: EdgeId| BufUse { gid, part: fr.part, edge };
            match (f.kind, &f.arg, f.node) {
                (FragmentKind::Load, Some(a), _) if ins.contains(&a.edge) => {
                    readers.push(at(a.edge))
                }
                (FragmentKind::Store, Some(a), _) if outs.contains(&a.edge) => {
                    writers.push(at(a.edge));
                }
                // The host touches its own memory without DMA.
                (FragmentKind::Compute, _, Some(id)) if on_host => {
                    let node = graph.node(id);
                    readers.extend(node.inputs.iter().filter(|e| ins.contains(e)).map(|&e| at(e)));
                    writers
                        .extend(node.outputs.iter().filter(|e| outs.contains(e)).map(|&e| at(e)));
                }
                _ => {}
            }
        }
        for rd in &readers {
            for wr in &writers {
                if rd.part == wr.part || rd.edge == wr.edge {
                    continue;
                }
                if reaches(rd.gid, wr.gid) || reaches(wr.gid, rd.gid) {
                    continue;
                }
                let (a, b) = (rd.part.min(wr.part), rd.part.max(wr.part));
                if !reported.insert((codes::DMA_WAR, r.clone(), a, b)) {
                    continue;
                }
                out.push(
                    Diagnostic::warning(
                        codes::DMA_WAR,
                        format!(
                            "WAR hazard on state buffer `{r}`: `{}` reads `{}` while `{}` \
                             writes `{}` with no ordering between them",
                            part_name(rd.part),
                            graph.edge(rd.edge).meta.name,
                            part_name(wr.part),
                            graph.edge(wr.edge).meta.name,
                        ),
                    )
                    .at(span_of(rd.edge))
                    .with_note(
                        "the update may land before the DMA read of the previous value \
                         completes; double-buffer the state or serialize the partitions",
                    ),
                );
            }
        }
        for (i, w1) in writers.iter().enumerate() {
            for w2 in &writers[i + 1..] {
                if w1.part == w2.part {
                    continue;
                }
                if reaches(w1.gid, w2.gid) || reaches(w2.gid, w1.gid) {
                    continue;
                }
                let (a, b) = (w1.part.min(w2.part), w1.part.max(w2.part));
                if !reported.insert((codes::DMA_WAW, r.clone(), a, b)) {
                    continue;
                }
                out.push(
                    Diagnostic::warning(
                        codes::DMA_WAW,
                        format!(
                            "WAW hazard on state buffer `{r}`: `{}` and `{}` both write it \
                             with no ordering between them",
                            part_name(w1.part),
                            part_name(w2.part),
                        ),
                    )
                    .at(span_of(w1.edge)),
                );
            }
        }
    }

    crate::finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{compile_program, lower, AcceleratorSpec, ArgInfo, Fragment, TargetMap};
    use pmlang::Domain;

    fn cross_targets() -> TargetMap {
        let mut t =
            TargetMap::host_only(AcceleratorSpec::general_purpose("host", Domain::DataAnalytics));
        t.set(AcceleratorSpec::general_purpose("DECO", Domain::Dsp));
        t
    }

    fn compile(source: &str, targets: &TargetMap) -> CompiledProgram {
        let (program, _) = pmlang::frontend(source).expect("frontend");
        let mut graph = srdfg::build(&program, &srdfg::Bindings::default()).expect("build");
        lower(&mut graph, targets).expect("lower");
        compile_program(&graph, targets).expect("compile")
    }

    #[test]
    fn clean_two_domain_pipeline_has_no_hazards() {
        let targets = cross_targets();
        let compiled = compile(
            "filt(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             main(input float sig[4], output float out[4]) {
                 index i[0:3];
                 float f[4];
                 DSP: filt(sig, f);
                 out[i] = f[i] + 1.0;
             }",
            &targets,
        );
        let out = analyze_schedule(&compiled, &targets);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn detects_war_on_state_updated_behind_a_dma_read() {
        let targets = cross_targets();
        let compiled = compile(
            "filt(input float z[4], output float y[4]) { index i[0:3]; y[i] = z[i] * 0.5; }
             main(input float x[4], state float z[4], output float y[4]) {
                 index i[0:3];
                 DSP: filt(z, y);
                 z[i] = x[i];
             }",
            &targets,
        );
        let out = analyze_schedule(&compiled, &targets);
        let wars: Vec<_> = out.iter().filter(|f| f.code == codes::DMA_WAR).collect();
        assert_eq!(wars.len(), 1, "{out:?}");
        assert!(wars[0].message.contains("`z`"), "{}", wars[0].message);
    }

    #[test]
    fn detects_waw_when_two_partitions_store_one_state_buffer() {
        let targets = cross_targets();
        let mut compiled = compile(
            "filt(input float z[4], output float y[4]) { index i[0:3]; y[i] = z[i] * 0.5; }
             main(input float x[4], state float z[4], output float y[4]) {
                 index i[0:3];
                 DSP: filt(z, y);
                 z[i] = x[i];
             }",
            &targets,
        );
        // The updated state version the host computes and circulates out.
        let z1 = *compiled
            .graph
            .boundary_outputs
            .iter()
            .find(|&&e| {
                let m = &compiled.graph.edge(e).meta;
                m.name.split('.').next() == Some("z")
                    && !compiled.graph.boundary_inputs.contains(&e)
            })
            .expect("updated state version");
        // Fabricate a second, unordered writer: the accelerator partition
        // also DMA-stores the new `z` while the host computes it in place.
        let mut store = compiled
            .partitions
            .iter()
            .find(|p| p.target != "host")
            .expect("accelerator partition")
            .fragments
            .iter()
            .find(|f| f.kind == FragmentKind::Store)
            .expect("store")
            .clone();
        store.arg = Some(ArgInfo { meta: compiled.graph.edge(z1).meta.clone(), edge: z1 });
        let mut parts = compiled.partitions.to_vec();
        parts.iter_mut().find(|p| p.target != "host").unwrap().fragments.push(store);
        compiled.partitions = parts.into();
        let out = analyze_schedule(&compiled, &targets);
        assert!(out.iter().any(|f| f.code == codes::DMA_WAW), "{out:?}");
    }

    #[test]
    fn detects_missing_store_for_a_cross_partition_load() {
        let targets = cross_targets();
        let mut compiled = compile(
            "filt(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             main(input float sig[4], output float out[4]) {
                 index i[0:3];
                 float f[4];
                 DSP: filt(sig, f);
                 out[i] = f[i] + 1.0;
             }",
            &targets,
        );
        let mut parts = compiled.partitions.to_vec();
        for part in &mut parts {
            part.fragments.retain(|f| f.kind != FragmentKind::Store);
        }
        compiled.partitions = parts.into();
        let out = analyze_schedule(&compiled, &targets);
        assert!(
            out.iter().any(|d| {
                d.code == codes::MISSING_MARSHAL
                && d.message.contains(
                    "partition `host` loads `f.1` but its producer partition `DECO` never stores it"
                )
            }),
            "{out:?}"
        );
    }

    #[test]
    fn detects_missing_load_before_a_cross_partition_compute() {
        let targets = cross_targets();
        let mut compiled = compile(
            "filt(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             main(input float sig[4], output float out[4]) {
                 index i[0:3];
                 float f[4];
                 DSP: filt(sig, f);
                 out[i] = f[i] + 1.0;
             }",
            &targets,
        );
        // Only the host's load of the value DECO produced; the boundary
        // input's load into DECO stays.
        let mut parts = compiled.partitions.to_vec();
        let graph = &compiled.graph;
        let host = parts.iter_mut().find(|p| p.target == "host").expect("host partition");
        host.fragments.retain(|f| {
            f.kind != FragmentKind::Load
                || graph.edge(f.arg.as_ref().unwrap().edge).producer.is_none()
        });
        compiled.partitions = parts.into();
        let out = analyze_schedule(&compiled, &targets);
        let e110: Vec<_> = out.iter().filter(|d| d.code == codes::MISSING_MARSHAL).collect();
        assert_eq!(e110.len(), 1, "{out:?}");
        assert!(
            e110[0].message.contains(
                "on `host` consumes `f.1` from partition `DECO` without a preceding DMA load"
            ),
            "{}",
            e110[0].message
        );
    }

    #[test]
    fn detects_cross_target_dependency_cycle() {
        let targets = cross_targets();
        let mut compiled = compile(
            "filt(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             main(input float sig[4], output float out[4]) {
                 index i[0:3];
                 float f[4];
                 DSP: filt(sig, f);
                 out[i] = f[i] + 1.0;
             }",
            &targets,
        );
        // Fabricate an impossible schedule: the accelerator partition also
        // *loads* a value it produces, after storing it — while the host
        // stores the same value back, closing the loop.
        let (load, store) = {
            let acc = compiled
                .partitions
                .iter()
                .find(|p| p.target != "host")
                .expect("accelerator partition");
            let store = acc
                .fragments
                .iter()
                .find(|f| f.kind == FragmentKind::Store)
                .expect("store")
                .clone();
            // The same edge, moved the other way.
            let load = Fragment { kind: FragmentKind::Load, ..store.clone() };
            (load, store)
        };
        let mut parts = compiled.partitions.to_vec();
        for part in &mut parts {
            if part.target != "host" {
                // load-before-store of its own product: waits on a store
                // that only runs later in this same stream... unless the
                // host's store satisfies it first, which in turn waits on
                // the host consuming the accelerator's store.
                part.fragments.insert(0, load.clone());
            } else {
                part.fragments.push(store.clone());
            }
        }
        compiled.partitions = parts.into();
        let out = analyze_schedule(&compiled, &targets);
        assert!(out.iter().any(|f| f.code == codes::DEADLOCK), "{out:?}");
    }
}
