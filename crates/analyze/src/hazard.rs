//! The DMA race lint on compiled SoC schedules.
//!
//! Algorithm 2 hands every accelerator a sequential fragment stream,
//! synchronized across streams only by the store→load DMA pairs it
//! inserted. Its invariants (every crossing marshalled, one storing
//! partition per value, no deadlock) are checked where the schedule is
//! built ([`pm_lower::check_schedule`]). What a program can still cause is
//! a **DMA race on a shared host buffer** (`PM-W111`): state circulation
//! reuses one host buffer per state variable, so a partition DMA-reading
//! the old version while another writes the new one is a write-after-read
//! hazard unless a dependency path orders the read against that writer.

use crate::{codes, Diagnostic};
use pm_lower::{check_schedule, CompiledProgram, FragmentKind, TargetMap};
use srdfg::graph::Modifier;
use srdfg::EdgeId;
use std::collections::{BTreeMap, HashSet};

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
    let mut state_roots: BTreeMap<String, (Vec<EdgeId>, Vec<EdgeId>)> = BTreeMap::new();
    for &e in &graph.boundary_inputs {
        let meta = &graph.edge(e).meta;
        if meta.modifier == Modifier::State {
            state_roots.entry(root(&meta.name)).or_default().0.push(e);
        }
    }
    for &e in &graph.boundary_outputs {
        if let Some((ins, outs)) = state_roots.get_mut(&root(&graph.edge(e).meta.name)) {
            if !ins.contains(&e) {
                outs.push(e);
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
    // The dependency graph: sequential order within each partition, plus
    // store(e) -> load(e) DMA synchronization across partitions.
    let frags = &frags;
    let succs = |g: usize| {
        let Frag { part, idx } = frags[g];
        let stream = &compiled.partitions[part].fragments;
        let next = (idx + 1 < stream.len()).then_some(g + 1);
        let synced: &[usize] = match (stream[idx].kind, &stream[idx].arg) {
            (FragmentKind::Store, Some(a)) => &loads[a.edge.0 as usize],
            _ => &[],
        };
        next.into_iter().chain(synced.iter().copied().filter(move |&l| frags[l].part != part))
    };
    let order = check_schedule(compiled, targets).unwrap_or_else(|e| panic!("check_schedule: {e}"));
    // The fragments a dependency path orders against `w`: those `w`
    // reaches (forward over the run order, which is topological) and
    // those that reach `w` (backward over it).
    let ordered_with = |w: usize| {
        let (mut after, mut before) = (vec![false; frags.len()], vec![false; frags.len()]);
        (after[w], before[w]) = (true, true);
        for &g in &order {
            if after[g] {
                succs(g).for_each(|t| after[t] = true);
            }
        }
        for &g in order.iter().rev() {
            before[g] = before[g] || succs(g).any(|t| before[t]);
        }
        after.iter().zip(before).map(|(&a, b)| a || b).collect::<Vec<bool>>()
    };

    for (r, (ins, outs)) in &state_roots {
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
        // Worked out lazily: a single-partition schedule never needs it.
        let mut ordered: Vec<Option<Vec<bool>>> = vec![None; writers.len()];
        let mut reported: HashSet<(usize, usize)> = HashSet::new();
        for rd in &readers {
            for (wr, seen) in writers.iter().zip(&mut ordered) {
                if rd.part == wr.part || seen.get_or_insert_with(|| ordered_with(wr.gid))[rd.gid] {
                    continue;
                }
                let (a, b) = (rd.part.min(wr.part), rd.part.max(wr.part));
                if !reported.insert((a, b)) {
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
                    .at(graph.edge(rd.edge).meta.span)
                    .with_note(
                        "the update may land before the DMA read of the previous value \
                         completes; double-buffer the state or serialize the partitions",
                    ),
                );
            }
        }
    }

    crate::finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{compile_program, lower, AcceleratorSpec, TargetMap};
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
        for source in [
            "filt(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             main(input float sig[4], output float out[4]) {
                 index i[0:3];
                 float f[4];
                 DSP: filt(sig, f);
                 out[i] = f[i] + 1.0;
             }",
            // The new `z` is computed from the DSP result, so the DMA read
            // of the old `z` reaches its one writer.
            "filt(input float z[4], output float y[4]) { index i[0:3]; y[i] = z[i] * 0.5; }
             main(input float x[4], state float z[4], output float y[4]) {
                 index i[0:3];
                 DSP: filt(z, y);
                 z[i] = y[i] + x[i];
             }",
        ] {
            let out = analyze_schedule(&compile(source, &targets), &targets);
            assert!(out.is_empty(), "{out:?}");
        }
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
}
