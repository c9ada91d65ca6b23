//! Graph analytics on PolyMath (paper Fig. 6): BFS written as a PMLang
//! vertex program, compiled to the Graphicionado pipeline, executed
//! iteratively by the host until the frontier fixpoint, and checked
//! against a sparse reference BFS.
//!
//! ```text
//! cargo run -p pm-examples --bin graph_analytics
//! ```

use pm_accel::WorkloadHints;
use pm_workloads::{datagen, programs, reference};
use pmlang::Domain;
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vertices = 128usize;
    let graph = datagen::power_law_graph(vertices, 4, 42);
    println!(
        "synthetic power-law graph: {} vertices, {} edges",
        graph.vertices,
        graph.edge_count()
    );

    // Compile the PMLang vertex program for Graphicionado.
    let source = programs::bfs(vertices);
    let compiled = Compiler::cross_domain().compile(&source, &Bindings::default())?;
    let ga = compiled.partition(Some(Domain::GraphAnalytics)).expect("GA partition");
    println!("lowered to {} as {} pipeline fragments", ga.target, ga.fragments.len());

    // Iterate: the host invokes one relaxation sweep per step, with the
    // `level` state persisting on the accelerator between sweeps.
    let mut machine = Machine::new(Arc::clone(&compiled.graph));
    let mut level0 = vec![1.0e6f64; vertices];
    level0[0] = 0.0;
    machine.set_state("level", Tensor::from_vec(pmlang::DType::Float, vec![vertices], level0)?);
    let feeds = HashMap::from([("adj".to_string(), graph.dense_adjacency())]);
    let mut sweeps = 0;
    let mut last: Option<Vec<f64>> = None;
    loop {
        let out = machine.invoke(&feeds)?;
        sweeps += 1;
        let levels = out["out"].as_real_slice().unwrap().to_vec();
        if last.as_ref() == Some(&levels) || sweeps > vertices {
            break;
        }
        last = Some(levels);
    }
    let levels = last.unwrap();

    // Reference sparse BFS.
    let mut expect = vec![f64::INFINITY; vertices];
    expect[0] = 0.0;
    while reference::bfs_sweep(vertices, &graph.edges, &mut expect) {}
    let mut reached = 0;
    for v in 0..vertices {
        let got = levels[v];
        if expect[v].is_finite() {
            assert_eq!(got, expect[v], "vertex {v}");
            reached += 1;
        } else {
            assert!(got >= 1.0e6, "vertex {v} should be unreached");
        }
    }
    println!("BFS fixpoint after {sweeps} sweeps; {reached}/{vertices} vertices reached — matches reference");
    let hist: HashMap<u64, usize> =
        levels.iter().filter(|l| **l < 1.0e6).fold(HashMap::new(), |mut h, l| {
            *h.entry(*l as u64).or_default() += 1;
            h
        });
    let mut keys: Vec<_> = hist.keys().copied().collect();
    keys.sort();
    for k in keys {
        println!("  level {k}: {:>4} vertices", hist[&k]);
    }

    // Timing at the paper's Wikipedia scale via sparse hints.
    let wiki_edges = 84_750_000u64;
    let wiki_vertices = 3_560_000u64;
    let hints = WorkloadHints {
        effective_ops: Some(wiki_edges * 5 + wiki_vertices * 4),
        effective_bytes: Some(wiki_edges * 8 + wiki_vertices * 8),
        edges: Some(wiki_edges),
        vertices: Some(wiki_vertices),
        ..Default::default()
    };
    let paper_graph =
        Compiler::cross_domain().compile(&programs::bfs(2048), &Bindings::default())?;
    let mut hint_map = HashMap::new();
    for d in pmlang::Domain::all() {
        hint_map.insert(Some(d), hints);
    }
    hint_map.insert(None, hints);
    let soc = standard_soc();
    let accel = soc.run(&paper_graph, &hint_map)?;
    let host = Compiler::host_only().compile(&programs::bfs(2048), &Bindings::default())?;
    let cpu = polymath::evaluate::estimate_all(soc.host(), &host, &hints);
    println!(
        "\nWikipedia-scale sweep estimate: Graphicionado {:.2} ms vs CPU {:.2} ms ({:.2}x)",
        accel.total.seconds * 1e3,
        cpu.seconds * 1e3,
        cpu.seconds / accel.total.seconds
    );
    Ok(())
}
