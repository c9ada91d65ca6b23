//! DMA race lints on compiled SoC schedules.
//!
//! Algorithm 2 hands every accelerator a sequential fragment stream;
//! across streams the only synchronization is the store→load DMA pairs
//! the compiler inserted. Its construction invariants — every crossing is
//! marshalled, the streams cannot deadlock — are checked where the
//! schedule is built ([`pm_lower::check_schedule`]). What a user program
//! can still cause is a **DMA race on a shared host buffer**
//! (`PM-W111`/`PM-W112`): state circulation reuses one host buffer per
//! state variable, so an accelerator DMA-reading the old version while
//! another partition writes the new one is a write-after-read (or
//! write-after-write) hazard unless some dependency path orders the two.

use crate::{codes, Diagnostic};
use pm_lower::{check_schedule, CompiledProgram, FragmentKind, TargetMap};
use srdfg::graph::Modifier;
use srdfg::EdgeId;
use std::collections::{HashMap, HashSet};

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

/// Lints the compiled fragment plan for DMA races on circulated state
/// buffers, returning the diagnostics through [`finish`](crate::finish).
///
/// # Panics
///
/// Panics if `compiled` fails [`check_schedule`] while the program has
/// state: the race query needs the schedule's run order. Every
/// Algorithm 2 output passes the check.
pub fn analyze_schedule(compiled: &CompiledProgram, targets: &TargetMap) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let graph = &compiled.graph;
    let host = targets.host().name.as_str();

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

    // Global fragment numbering (partition by partition, as
    // `check_schedule` numbers them), and the loads of every edge.
    let mut frags: Vec<Frag> = Vec::new();
    let mut loads: Vec<Vec<usize>> = vec![Vec::new(); graph.edge_count()];
    for (pi, part) in compiled.partitions.iter().enumerate() {
        for (fi, f) in part.fragments.iter().enumerate() {
            if let (FragmentKind::Load, Some(a)) = (f.kind, &f.arg) {
                loads[a.edge.0 as usize].push(frags.len());
            }
            frags.push(Frag { part: pi, idx: fi });
        }
    }
    let part_name = |pi: usize| compiled.partitions[pi].target.as_str();
    let span_of = |e: EdgeId| graph.edge(e).meta.span;
    // The dependency graph: sequential order within each partition, plus
    // store(e) -> load(e) DMA synchronization across partitions.
    let for_each_succ = |g: usize, f: &mut dyn FnMut(usize)| {
        let fr = frags[g];
        let stream = &compiled.partitions[fr.part].fragments;
        if fr.idx + 1 < stream.len() {
            f(g + 1);
        }
        if let (FragmentKind::Store, Some(a)) = (stream[fr.idx].kind, &stream[fr.idx].arg) {
            for &l in &loads[a.edge.0 as usize] {
                if frags[l].part != fr.part {
                    f(l);
                }
            }
        }
    };
    let order = check_schedule(compiled, targets).unwrap_or_else(|e| panic!("check_schedule: {e}"));
    let reach = Reachability::build(&order, &for_each_succ, &frags, compiled.partitions.len());
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
    use pm_lower::{compile_program, lower, AcceleratorSpec, ArgInfo, TargetMap};
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
}
