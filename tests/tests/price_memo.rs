//! The SoC's price memo (`Soc::price_stats`, DESIGN.md §10) must be
//! unobservable except through speed: a dispatch that finds its
//! partitions' prices memoised returns the bytes a fresh SoC would, under
//! every run mode, and the memo can neither answer for an artifact it did
//! not price nor keep a dropped one alive.

use pm_accel::{
    ChaosConfig, ChaosProfile, Soc, SocError, SocReport, Tabla, TrajectoryInputs, WorkloadHints,
};
use pm_lower::{CompiledProgram, FragmentKind};
use pm_workloads::{apps, programs};
use pmlang::Domain;
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, Budget, Tensor};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

/// The memo's capacity in entries (`PRICE_MEMO_ENTRIES` in
/// `pm_accel::soc`): its byte budget over what each entry is charged, read
/// off a SoC that priced one program.
fn capacity() -> usize {
    let soc = standard_soc();
    soc.run(&compile(&programs::kmeans(16, 3)), &Hints::new()).unwrap();
    let s = soc.price_stats();
    assert!(
        s.entries > 0 && s.bytes.is_multiple_of(s.entries),
        "every entry costs the same: {s:?}"
    );
    s.capacity_bytes / (s.bytes / s.entries)
}

type Hints = HashMap<Option<Domain>, WorkloadHints>;

fn compile(source: &str) -> CompiledProgram {
    Compiler::cross_domain().compile(source, &Bindings::default()).unwrap()
}

/// Small instances of every program family in `pm_workloads::programs`
/// (the list `midend_perf.rs` sweeps) plus both applications.
fn workloads() -> Vec<(&'static str, String)> {
    vec![
        ("mobile_robot-8", programs::mobile_robot(8)),
        ("hexacopter-4", programs::hexacopter(4)),
        ("lqr-4x2", programs::lqr_step(4, 2)),
        ("bfs-16", programs::bfs(16)),
        ("sssp-16", programs::sssp(16)),
        ("pagerank-16", programs::pagerank(16)),
        ("lrmf-8x3", programs::lrmf(8, 3)),
        ("kmeans-16x3", programs::kmeans(16, 3)),
        ("fft-32", programs::fft(32)),
        ("dct-8", programs::dct(8)),
        ("dct-block", programs::dct_block()),
        ("logistic-16", programs::logistic(16)),
        ("black_scholes-8", programs::black_scholes(8)),
        ("brain_stimul-64", apps::brain_stimul(64, 8).source),
        ("option_pricing-32", apps::option_pricing(32, 8).source),
    ]
}

/// A DSP pre-filter feeding a DA classifier with a `state` accumulator:
/// two accelerator partitions (DECO, TABLA) with per-invocation DMA, so
/// chaos has fragments to fault and dispatch has fuel to burn.
const TWO_PARTITIONS: &str = "filt(input float x[8], output float f[8]) {
    index i[0:7];
    f[i] = x[i] * 0.5;
}
clas(input float f[8], param float w[8], state float acc, output float y) {
    index i[0:7];
    acc = acc + sum[i](w[i]*f[i]);
    y = sigmoid(acc);
}
main(input float x[8], param float w[8], state float acc, output float y) {
    float f[8];
    DSP: filt(x, f);
    DA: clas(f, w, acc, y);
}";

fn two_partition_feeds() -> HashMap<String, Tensor> {
    let ramp = (1..=8).map(f64::from).collect();
    HashMap::from([
        ("x".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], ramp).unwrap()),
        ("w".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], vec![0.1; 8]).unwrap()),
    ])
}

#[test]
fn a_memo_hit_is_indistinguishable_from_a_miss() {
    let warm = standard_soc();
    for (name, source) in workloads() {
        let compiled = compile(&source);
        let sparse = WorkloadHints {
            effective_ops: Some(12_345),
            native_factor: Some(1.5),
            ..WorkloadHints::default()
        };
        let hinted: Hints = compiled.partitions.iter().map(|p| (p.domain, sparse)).collect();
        for hints in [Hints::new(), hinted] {
            for expert in [false, true] {
                let run = |soc: &Soc| {
                    if expert {
                        soc.run_expert(&compiled, &hints)
                    } else {
                        soc.run(&compiled, &hints)
                    }
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                };
                let before = warm.price_stats();
                let (first, second) = (run(&warm), run(&warm));
                let delta = warm.price_stats().since(&before);
                let parts = compiled.partitions.len() as u64;
                assert_eq!(
                    (delta.misses, delta.hits),
                    (parts, parts),
                    "{name}: first prices, second hits"
                );
                for served in [first, second] {
                    let cold = run(&standard_soc());
                    assert_eq!(served, cold, "{name} expert={expert}");
                    assert_eq!(
                        format!("{served:?}"),
                        format!("{cold:?}"),
                        "{name} expert={expert}"
                    );
                }
            }
        }
    }
}

/// What a chaos run shows its caller, in comparable form.
type ChaosView = Result<(SocReport, bool), SocError>;

#[test]
fn chaos_perturbs_a_memoised_price_exactly_as_it_perturbs_a_fresh_one() {
    let compiler = Compiler::cross_domain();
    let compiled = compiler.compile(TWO_PARTITIONS, &Bindings::default()).unwrap();
    let run = |soc: &Soc, cfg: &ChaosConfig| -> ChaosView {
        soc.run_chaos(&compiled, &Hints::new(), cfg, Some(compiler.targets()))
            .map(|out| (out.report, out.relowered.is_some()))
    };
    let warm = standard_soc();
    warm.run(&compiled, &Hints::new()).unwrap();
    let (mut faulted, mut relowered) = (0, 0);
    for profile in [ChaosProfile::Transient, ChaosProfile::Hostile] {
        for seed in 0..64 {
            let cfg = ChaosConfig::new(seed, profile);
            let served = run(&warm, &cfg);
            assert_eq!(served, run(&standard_soc(), &cfg), "{profile:?} seed {seed}");
            if let Ok((report, re)) = &served {
                faulted += u32::from(report.faults_injected > 0);
                relowered += u32::from(*re);
            }
        }
    }
    assert!(faulted > 0 && relowered > 0, "the sweep never left the healthy path");
    assert!(warm.price_stats().hits > 0, "the warm SoC never served a memoised price");
}

#[test]
fn fuel_runs_out_at_the_same_charge_with_the_memo_warm() {
    let compiler = Compiler::cross_domain();
    let compiled = compiler.compile(TWO_PARTITIONS, &Bindings::default()).unwrap();
    assert!(compiled.partitions.len() >= 2);
    let feeds = two_partition_feeds();
    let inputs = TrajectoryInputs { feeds: &feeds, state_seeds: &[], invocations: 4 };
    let run = |soc: &Soc, fuel: u64| {
        let budget = Budget::new(None, Some(fuel));
        let cfg = ChaosConfig::off().with_budget(budget.clone());
        let out =
            soc.run_trajectory(&compiled, &Hints::new(), &cfg, Some(compiler.targets()), &inputs);
        (out.map(|o| o.outputs), budget.spent_units())
    };
    let warm = standard_soc();
    let (healthy, needed) = run(&warm, u64::MAX);
    healthy.expect("unlimited fuel completes");
    // The last charge of a trajectory is a fragment dispatch of the last
    // invocation: one unit short fails there, three invocations in.
    let (served, _) = run(&warm, needed - 1);
    let (cold, _) = run(&standard_soc(), needed - 1);
    let Err(SocError::BudgetExhausted(e)) = &served else {
        panic!("expected exhaustion: {served:?}")
    };
    assert_eq!((e.stage, e.fuel), ("dispatch", Some(needed - 1)));
    assert_eq!(served, cold);
    assert_eq!(format!("{served:?}"), format!("{cold:?}"));
}

#[test]
fn an_artifact_sharing_the_graph_but_not_the_partitions_is_priced_afresh() {
    let compiled = compile(&programs::kmeans(16, 3));
    let warm = standard_soc();
    let full = warm.run(&compiled, &Hints::new()).unwrap();

    // Same graph `Arc`, a partition list with half the compute fragments
    // of its largest partition gone.
    let mut parts = compiled.partitions.to_vec();
    let largest = parts.iter_mut().max_by_key(|p| p.fragments.len()).unwrap();
    let mut nth = 0;
    largest.fragments.retain(|f| {
        nth += usize::from(f.kind == FragmentKind::Compute);
        f.kind != FragmentKind::Compute || nth % 2 == 0
    });
    let halved = CompiledProgram { graph: Arc::clone(&compiled.graph), partitions: parts.into() };

    let before = warm.price_stats();
    let served = warm.run(&halved, &Hints::new()).unwrap();
    let delta = warm.price_stats().since(&before);
    assert_eq!((delta.hits, delta.misses), (0, halved.partitions.len() as u64));
    assert_eq!(served, standard_soc().run(&halved, &Hints::new()).unwrap());
    assert_ne!(served, full, "half the compute must not cost what all of it does");
}

#[test]
fn attaching_a_backend_forgets_every_price() {
    let compiled = compile(&programs::kmeans(64, 4));
    assert!(compiled.partitions.iter().any(|p| p.target == "TABLA"));
    let wide = || Tabla { pus: 2 * Tabla::default().pus, ..Tabla::default() };
    let mut soc = standard_soc();
    let narrow = soc.run(&compiled, &Hints::new()).unwrap();
    soc.attach(wide());
    assert_eq!(soc.price_stats().entries, 0);
    let served = soc.run(&compiled, &Hints::new()).unwrap();
    let mut fresh = standard_soc();
    fresh.attach(wide());
    assert_eq!(served, fresh.run(&compiled, &Hints::new()).unwrap());
    assert_ne!(served, narrow, "twice the PUs must not cost the same");
}

#[test]
fn the_memo_is_bounded_and_pins_no_program() {
    let soc = standard_soc();
    let distinct = 2 * capacity();
    let mut dropped = None;
    for n in 0..distinct {
        let compiled = compile(&format!(
            "main(input float x[2], output float y) {{ index i[0:1]; DA: y = sum[i](x[i]*{n}.5); }}"
        ));
        soc.run(&compiled, &Hints::new()).unwrap();
        if n + 1 == distinct {
            dropped = Some(Arc::downgrade(&compiled.graph));
        }
    }
    let stats = soc.price_stats();
    assert!(stats.misses >= distinct as u64 && stats.evictions > 0, "{stats:?}");
    assert!(stats.entries <= capacity(), "{stats:?}");
    // The last program priced is the most recently used entry, so it is
    // still resident — and its graph is gone all the same.
    assert!(dropped.expect("the loop ran").upgrade().is_none(), "the memo kept a graph alive");
}

#[test]
fn two_threads_pricing_one_program_both_get_the_cold_answer() {
    let compiled = compile(&programs::kmeans(16, 3));
    let cold = standard_soc().run(&compiled, &Hints::new()).unwrap();
    let soc = standard_soc();
    let start = Barrier::new(2);
    let price = || {
        start.wait();
        soc.run(&compiled, &Hints::new()).unwrap()
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(price);
        (price(), other.join().expect("the pricing thread panicked"))
    });
    assert_eq!((&a, &b), (&cold, &cold));
    assert_eq!(soc.run(&compiled, &Hints::new()).unwrap(), cold, "whichever insert won");
}
