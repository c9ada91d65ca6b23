//! Full-pipeline integration tests: every Table III workload (at test
//! scale) goes through frontend → srDFG → passes → lowering → accelerator
//! IR, and the lowered program's outputs match both the unlowered graph
//! and the hand-written Rust reference implementation.

use pm_tests::vec_t;
use pm_workloads::{datagen, programs, reference};
use pmlang::Domain;
use polymath::Compiler;
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;

fn mat_t(r: usize, c: usize, v: Vec<f64>) -> Tensor {
    Tensor::from_vec(pmlang::DType::Float, vec![r, c], v).unwrap()
}

/// Compiles for the full cross-domain SoC and checks the lowered graph
/// computes the same outputs as the unlowered one.
fn compile_and_check(
    src: &str,
    feeds: &HashMap<String, Tensor>,
    tol: f64,
) -> HashMap<String, Tensor> {
    // The unoptimized graph: frontend and srDFG build, no mid-end.
    let (program, _) = pmlang::frontend(src).expect("frontend");
    let unlowered = srdfg::build(&program, &Bindings::default()).expect("build");
    let baseline = Machine::new(unlowered).invoke(feeds).expect("baseline run");

    let compiled = Compiler::cross_domain().compile(src, &Bindings::default()).expect("compile");
    let lowered = Machine::new((*compiled.graph).clone()).invoke(feeds).expect("lowered run");

    for (name, expect) in &baseline {
        let got = &lowered[name];
        let d = expect.max_abs_diff(got).unwrap();
        assert!(d <= tol, "output `{name}` diverged by {d}");
    }
    lowered
}

#[test]
fn logistic_regression_matches_reference() {
    let n = 64;
    let x = datagen::normal_vec(n, 1.0, 1);
    let w0 = datagen::normal_vec(n, 0.2, 2);
    let feeds = HashMap::from([
        ("x".to_string(), vec_t(x.clone())),
        ("label".to_string(), Tensor::scalar(pmlang::DType::Float, 1.0)),
    ]);
    // Run the lowered TABLA program with seeded state.
    let compiled =
        Compiler::cross_domain().compile(&programs::logistic(n), &Bindings::default()).unwrap();
    let mut m = Machine::new((*compiled.graph).clone());
    m.set_state("w", vec_t(w0.clone()));
    let out = m.invoke(&feeds).unwrap();

    let mut w_ref = w0;
    let prob = reference::logistic_step(&x, 1.0, &mut w_ref);
    assert!((out["prob"].scalar_value().unwrap() - prob).abs() < 1e-9);
    let w_after = m.state("w").unwrap();
    assert!(w_after.max_abs_diff(&vec_t(w_ref)).unwrap() < 1e-9);
}

#[test]
fn kmeans_matches_reference_over_a_stream() {
    let (samples, _) = datagen::gaussian_clusters(40, 16, 4, 3);
    let compiled =
        Compiler::cross_domain().compile(&programs::kmeans(16, 4), &Bindings::default()).unwrap();
    let mut m = Machine::new((*compiled.graph).clone());
    let mut centroids: Vec<Vec<f64>> = samples[..4].to_vec();
    let init: Vec<f64> = centroids.iter().flatten().copied().collect();
    m.set_state("c", mat_t(4, 16, init));
    for s in &samples {
        let feeds = HashMap::from([("x".to_string(), vec_t(s.clone()))]);
        let out = m.invoke(&feeds).unwrap();
        let assign = reference::kmeans_step(s, &mut centroids) as f64;
        assert_eq!(out["assign"].scalar_value().unwrap(), assign);
    }
    let flat: Vec<f64> = centroids.iter().flatten().copied().collect();
    let d = m.state("c").unwrap().max_abs_diff(&mat_t(4, 16, flat)).unwrap();
    assert!(d < 1e-9, "centroids diverged by {d}");
}

#[test]
fn lrmf_matches_reference() {
    let movies = 24;
    let rank = 4;
    let (ratings, mask) = datagen::low_rank_ratings(6, movies, rank, 0.4, 5);
    let compiled = Compiler::cross_domain()
        .compile(&programs::lrmf(movies, rank), &Bindings::default())
        .unwrap();
    let mut m = Machine::new((*compiled.graph).clone());
    let mut u_ref = vec![0.1; rank];
    let mut m_ref = vec![vec![0.1; rank]; movies];
    m.set_state("u_f", vec_t(u_ref.clone()));
    m.set_state("m_f", mat_t(movies, rank, m_ref.iter().flatten().copied().collect()));
    for user in 0..6 {
        let feeds = HashMap::from([
            ("r_u".to_string(), vec_t(ratings[user].clone())),
            ("mask".to_string(), vec_t(mask[user].clone())),
        ]);
        let out = m.invoke(&feeds).unwrap();
        let err = reference::lrmf_step(&ratings[user], &mask[user], &mut u_ref, &mut m_ref);
        assert!((out["err"].scalar_value().unwrap() - err).abs() < 1e-6, "user {user}");
    }
}

#[test]
fn fft_matches_reference() {
    let n = 64;
    let signal = datagen::signal(n, 7);
    let input: Vec<(f64, f64)> = signal.iter().map(|&v| (v, 0.0)).collect();
    let feeds = HashMap::from([(
        "x".to_string(),
        Tensor::from_complex_vec(vec![n], input.clone()).unwrap(),
    )]);
    let out = compile_and_check(&programs::fft(n), &feeds, 1e-9);
    let mut expect = input;
    reference::fft(&mut expect);
    let got = out["X"].as_complex_slice().unwrap();
    for (g, e) in got.iter().zip(&expect) {
        assert!((g.0 - e.0).abs() < 1e-9 && (g.1 - e.1).abs() < 1e-9);
    }
}

#[test]
fn dct_block_matches_reference() {
    let img = datagen::image(8, 9);
    let ck = datagen::dct_kernel();
    let feeds = HashMap::from([
        (
            "blk".to_string(),
            Tensor::from_vec(pmlang::DType::Float, vec![8, 8], img.clone()).unwrap(),
        ),
        ("ck".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8, 8], ck.clone()).unwrap()),
    ]);
    let out = compile_and_check(&programs::dct_block(), &feeds, 1e-9);
    let expect = reference::dct(&img, 8, &ck);
    let got = out["out"].as_real_slice().unwrap();
    for (g, e) in got.iter().zip(&expect) {
        assert!((g - e).abs() < 1e-9);
    }
}

#[test]
fn bfs_fixpoint_matches_reference() {
    let v = 48;
    let graph = datagen::power_law_graph(v, 3, 11);
    let compiled =
        Compiler::cross_domain().compile(&programs::bfs(v), &Bindings::default()).unwrap();
    let mut m = Machine::new((*compiled.graph).clone());
    let mut init = vec![1.0e6; v];
    init[0] = 0.0;
    m.set_state("level", vec_t(init));
    let feeds = HashMap::from([("adj".to_string(), graph.dense_adjacency())]);
    let mut last = None;
    for _ in 0..v {
        let out = m.invoke(&feeds).unwrap();
        let lv = out["out"].as_real_slice().unwrap().to_vec();
        if last.as_ref() == Some(&lv) {
            break;
        }
        last = Some(lv);
    }
    let got = last.unwrap();
    let mut expect = vec![f64::INFINITY; v];
    expect[0] = 0.0;
    while reference::bfs_sweep(v, &graph.edges, &mut expect) {}
    for i in 0..v {
        if expect[i].is_finite() {
            assert_eq!(got[i], expect[i], "vertex {i}");
        } else {
            assert!(got[i] >= 1.0e6);
        }
    }
}

#[test]
fn sssp_fixpoint_matches_reference() {
    let v = 32;
    let graph = datagen::power_law_graph(v, 3, 13);
    let compiled =
        Compiler::cross_domain().compile(&programs::sssp(v), &Bindings::default()).unwrap();
    let mut m = Machine::new((*compiled.graph).clone());
    let mut init = vec![1.0e6; v];
    init[0] = 0.0;
    m.set_state("dist", vec_t(init));
    let feeds = HashMap::from([("w".to_string(), graph.dense_weights(1.0e6))]);
    let mut last = None;
    for _ in 0..v {
        let out = m.invoke(&feeds).unwrap();
        let dv = out["out"].as_real_slice().unwrap().to_vec();
        if last.as_ref() == Some(&dv) {
            break;
        }
        last = Some(dv);
    }
    let got = last.unwrap();
    let mut expect = vec![f64::INFINITY; v];
    expect[0] = 0.0;
    while reference::sssp_sweep(v, &graph.edges, &mut expect) {}
    for i in 0..v {
        if expect[i].is_finite() {
            assert!((got[i] - expect[i]).abs() < 1e-6, "vertex {i}: {} vs {}", got[i], expect[i]);
        }
    }
}

#[test]
fn pagerank_matches_reference() {
    let v = 40;
    let graph = datagen::power_law_graph(v, 3, 19);
    let compiled =
        Compiler::cross_domain().compile(&programs::pagerank(v), &Bindings::default()).unwrap();
    let ga = compiled.partition(Some(Domain::GraphAnalytics)).unwrap();
    assert_eq!(ga.target, "Graphicionado");
    let mut m = Machine::new((*compiled.graph).clone());
    m.set_state("rank", vec_t(vec![1.0 / v as f64; v]));
    let feeds = HashMap::from([("adj_norm".to_string(), graph.dense_normalized())]);
    let mut expect = vec![1.0 / v as f64; v];
    for sweep in 0..10 {
        let out = m.invoke(&feeds).unwrap();
        reference::pagerank_sweep(v, &graph.edges, &mut expect);
        let got = out["out"].as_real_slice().unwrap();
        for i in 0..v {
            assert!((got[i] - expect[i]).abs() < 1e-9, "sweep {sweep} vertex {i}");
        }
    }
    // Ranks form a probability-ish distribution (damping leak to sinks
    // notwithstanding) and the hubs outrank the tail.
    let total: f64 = expect.iter().sum();
    assert!(total > 0.5 && total <= 1.0 + 1e-9);
}

#[test]
fn mpc_matches_reference() {
    let horizon = 4;
    let c = 3 * horizon;
    let b = 2 * horizon;
    let mut r = datagen::rng(17);
    let randm = |rows: usize, cols: usize, r: &mut rand::rngs::StdRng| -> Vec<Vec<f64>> {
        (0..rows).map(|_| (0..cols).map(|_| datagen::gaussian(r) * 0.1).collect()).collect()
    };
    let p = randm(c, 3, &mut r);
    let h = randm(c, b, &mut r);
    let hq = randm(b, c, &mut r);
    let rg = randm(b, b, &mut r);
    let pos_ref: Vec<f64> = (0..c).map(|_| datagen::gaussian(&mut r)).collect();

    let compiled = Compiler::cross_domain()
        .compile(&programs::mobile_robot(horizon), &Bindings::default())
        .unwrap();
    let mut m = Machine::new((*compiled.graph).clone());
    let flat = |mm: &Vec<Vec<f64>>| mm.iter().flatten().copied().collect::<Vec<f64>>();
    let mut ctrl_ref = vec![0.0; b];
    for step in 0..5 {
        let pos = vec![0.1 * step as f64, -0.2, 0.05];
        let feeds = HashMap::from([
            ("pos".to_string(), vec_t(pos.clone())),
            ("P".to_string(), mat_t(c, 3, flat(&p))),
            ("H".to_string(), mat_t(c, b, flat(&h))),
            ("pos_ref".to_string(), vec_t(pos_ref.clone())),
            ("HQ_g".to_string(), mat_t(b, c, flat(&hq))),
            ("R_g".to_string(), mat_t(b, b, flat(&rg))),
        ]);
        let out = m.invoke(&feeds).unwrap();
        let sgnl_ref =
            reference::mpc_step(&pos, &mut ctrl_ref, &p, &h, &pos_ref, &hq, &rg, horizon);
        let got = out["ctrl_sgnl"].as_real_slice().unwrap();
        assert!((got[0] - sgnl_ref[0]).abs() < 1e-9, "step {step}");
        assert!((got[1] - sgnl_ref[1]).abs() < 1e-9, "step {step}");
    }
}

#[test]
fn black_scholes_matches_reference() {
    let n = 16;
    let mut r = datagen::rng(23);
    use rand::Rng;
    let spot: Vec<f64> = (0..n).map(|_| r.gen_range(60.0..140.0)).collect();
    let strike: Vec<f64> = (0..n).map(|_| r.gen_range(80.0..120.0)).collect();
    let vol: Vec<f64> = (0..n).map(|_| r.gen_range(0.1..0.4)).collect();
    let feeds = HashMap::from([
        ("spot".to_string(), vec_t(spot.clone())),
        ("strike".to_string(), vec_t(strike.clone())),
        ("vol".to_string(), vec_t(vol.clone())),
        ("rate".to_string(), Tensor::scalar(pmlang::DType::Float, 0.03)),
        ("tte".to_string(), Tensor::scalar(pmlang::DType::Float, 0.75)),
    ]);
    let out = compile_and_check(&programs::black_scholes(n), &feeds, 1e-9);
    let got = out["call"].as_real_slice().unwrap();
    for i in 0..n {
        let expect = reference::black_scholes_call(spot[i], strike[i], vol[i], 0.03, 0.75);
        assert!((got[i] - expect).abs() < 1e-9, "option {i}");
    }
}

#[test]
fn micro_cnn_lowered_to_vta_is_consistent() {
    // A small CNN compiled for VTA must stay at layer granularity and
    // match the unlowered graph.
    let src = programs::resnet18(32);
    let compiled = Compiler::cross_domain().compile(&src, &Bindings::default()).unwrap();
    let dl = compiled.partition(Some(Domain::DeepLearning)).expect("DL partition");
    assert_eq!(dl.target, "TVM-VTA");
    assert!(dl.fragments.iter().any(|f| f.op(&compiled.graph) == "conv2d"));
    assert!(dl.fragments.iter().all(|f| f.op(&compiled.graph) != "unpack"));
}

#[test]
fn hexacopter_compiles_and_runs() {
    let src = programs::hexacopter(4);
    let compiled = Compiler::cross_domain().compile(&src, &Bindings::default()).unwrap();
    let rbt = compiled.partition(Some(Domain::Robotics)).expect("RBT partition");
    assert_eq!(rbt.target, "RoboX");
    let mut m = Machine::new((*compiled.graph).clone());
    let mut r = datagen::rng(29);
    let feeds = HashMap::from([
        ("pos".to_string(), vec_t((0..12).map(|_| datagen::gaussian(&mut r) * 0.1).collect())),
        ("J".to_string(), datagen::normal_tensor(vec![6, 12], 0.1, 31)),
        ("pos_ref".to_string(), datagen::normal_tensor(vec![48], 0.1, 37)),
    ]);
    let out = m.invoke(&feeds).unwrap();
    assert_eq!(out["ctrl_sgnl"].shape(), &[6]);
    assert!(out["ctrl_sgnl"].as_real_slice().unwrap().iter().all(|v| v.is_finite()));
}

#[test]
fn recursive_lqr_matches_reference_across_steps() {
    let (n, m) = (12usize, 6usize);
    let src = programs::lqr_step(n, m);
    let compiled = Compiler::cross_domain().compile(&src, &Bindings::default()).expect("compile");

    // A mildly stable plant with coupling, and a stabilizing-ish gain.
    let a: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 0.9 } else { 0.01 * ((i + j) % 3) as f64 }).collect())
        .collect();
    let b: Vec<Vec<f64>> =
        (0..n).map(|i| (0..m).map(|r| if i % m == r { 0.1 } else { 0.02 }).collect()).collect();
    let k: Vec<Vec<f64>> =
        (0..m).map(|r| (0..n).map(|j| if j % m == r { 0.3 } else { -0.05 }).collect()).collect();

    let flat = |mat: &[Vec<f64>]| mat.iter().flatten().copied().collect::<Vec<f64>>();
    let mut machine = Machine::new((*compiled.graph).clone());
    machine.set_state("x", vec_t(vec![1.0; n]));

    let mut x = vec![1.0; n];
    for step in 0..5 {
        let d: Vec<f64> = (0..n).map(|i| 0.1 * ((step + i) % 4) as f64).collect();
        let feeds = HashMap::from([
            ("d".to_string(), vec_t(d.clone())),
            ("A".to_string(), mat_t(n, n, flat(&a))),
            ("B".to_string(), mat_t(n, m, flat(&b))),
            ("K".to_string(), mat_t(m, n, flat(&k))),
        ]);
        let out = machine.invoke(&feeds).expect("run");
        let expect = reference::lqr_step(&mut x, &d, &a, &b, &k);
        let got = out["u"].as_real_slice().unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "step {step}: {g} vs {e}");
        }
    }
}
