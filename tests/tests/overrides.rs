//! Per-component target-override integration tests: two accelerators
//! serving one domain in a single compilation (paper §V.A.3 —
//! OptionPricing runs LR on TABLA and Black-Scholes on HyperStreams),
//! checked for functional equivalence and partitioning invariants.

use pm_accel::{Backend, HyperStreams, Tabla};
use pm_lower::FragmentKind;
use pm_tests::vec_t;
use polymath::Compiler;
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;

/// Two DA components connected back-to-back: `a` scales, `b` reduces.
const TWO_DA: &str = "a(input float x[16], param float w[16], output float y[16]) {
    index i[0:15];
    y[i] = w[i]*x[i];
}
b(input float y[16], output float z) {
    index i[0:15];
    z = sum[i](y[i]*y[i]);
}
main(input float x[16], param float w[16], output float z) {
    float y[16];
    DA: a(x, w, y);
    DA: b(y, z);
}";

fn two_da_feeds() -> HashMap<String, Tensor> {
    HashMap::from([
        ("x".to_string(), vec_t((0..16).map(|i| i as f64 * 0.25).collect())),
        ("w".to_string(), vec_t(vec![0.5; 16])),
    ])
}

fn two_da_expected() -> f64 {
    (0..16).map(|i| (0.5 * i as f64 * 0.25).powi(2)).sum()
}

#[test]
fn override_splits_one_domain_across_two_targets() {
    let compiled = Compiler::cross_domain()
        .with_target_override("a", HyperStreams::default().accel_spec())
        .compile(TWO_DA, &Bindings::default())
        .unwrap();
    let targets: Vec<&str> = compiled.partitions.iter().map(|p| p.target.as_str()).collect();
    assert!(targets.contains(&"HyperStreams"), "{targets:?}");
    assert!(targets.contains(&"TABLA"), "{targets:?}");
    // Both partitions belong to the DA domain.
    for p in compiled.partitions.iter() {
        assert_eq!(p.domain, Some(pmlang::Domain::DataAnalytics), "{}", p.target);
    }
}

#[test]
fn override_preserves_functional_semantics() {
    let compiled = Compiler::cross_domain()
        .with_target_override("a", HyperStreams::default().accel_spec())
        .compile(TWO_DA, &Bindings::default())
        .unwrap();
    let out = Machine::new((*compiled.graph).clone()).invoke(&two_da_feeds()).unwrap();
    let z = out["z"].scalar_value().unwrap();
    assert!((z - two_da_expected()).abs() < 1e-9, "z = {z}");
}

#[test]
fn override_naming_missing_component_is_a_no_op() {
    let plain = Compiler::cross_domain().compile(TWO_DA, &Bindings::default()).unwrap();
    let bogus = Compiler::cross_domain()
        .with_target_override("no_such_component", HyperStreams::default().accel_spec())
        .compile(TWO_DA, &Bindings::default())
        .unwrap();
    assert_eq!(plain.partitions.len(), bogus.partitions.len());
    for (p, b) in plain.partitions.iter().zip(bogus.partitions.iter()) {
        assert_eq!(p.target, b.target);
        assert_eq!(p.fragments.len(), b.fragments.len());
    }
}

#[test]
fn overriding_every_component_matches_single_target_layout() {
    // Pinning both components to HyperStreams must produce the same
    // partition structure as a single-target compilation would on TABLA
    // (one partition, same fragment count modulo the op sets coinciding
    // at scalar granularity).
    let compiled = Compiler::cross_domain()
        .with_target_override("a", HyperStreams::default().accel_spec())
        .with_target_override("b", HyperStreams::default().accel_spec())
        .compile(TWO_DA, &Bindings::default())
        .unwrap();
    assert_eq!(compiled.partitions.len(), 1);
    assert_eq!(compiled.partitions[0].target, "HyperStreams");
}

#[test]
fn cross_target_edge_stays_packed() {
    // The `y` tensor crossing HyperStreams → TABLA must travel as one
    // packed load, not sixteen per-scalar loads (marshalling elision must
    // not reach across target boundaries).
    let compiled = Compiler::cross_domain()
        .with_target_override("a", HyperStreams::default().accel_spec())
        .compile(TWO_DA, &Bindings::default())
        .unwrap();
    let tabla = compiled.partition_by_target("TABLA").unwrap();
    let loads: Vec<_> = tabla.fragments.iter().filter(|f| f.kind == FragmentKind::Load).collect();
    assert_eq!(loads.len(), 1, "expected one packed load, got {}", loads.len());
    assert_eq!(loads[0].arg.as_ref().unwrap().shape(), vec![16]);
}

#[test]
fn every_cross_target_load_has_a_matching_store() {
    let compiled = Compiler::cross_domain()
        .with_target_override("a", HyperStreams::default().accel_spec())
        .compile(TWO_DA, &Bindings::default())
        .unwrap();
    // Every edge loaded by a non-host partition from an accelerator
    // producer must be stored by the producing partition.
    let stored: std::collections::HashSet<_> = compiled
        .partitions
        .iter()
        .flat_map(|p| p.fragments.iter())
        .filter(|f| f.kind == FragmentKind::Store)
        .map(|f| f.arg.as_ref().unwrap().edge)
        .collect();
    for p in compiled.partitions.iter() {
        for frag in p.fragments.iter().filter(|f| f.kind == FragmentKind::Load) {
            let e = frag.arg.as_ref().unwrap().edge;
            let from_boundary = compiled.graph.edge(e).producer.is_none();
            assert!(
                from_boundary || stored.contains(&e),
                "{}: load of edge {e:?} has no producing store",
                p.target
            );
        }
    }
}

#[test]
fn fragments_resolve_to_their_partitions_target() {
    // Partition membership invariant: each compute fragment's node must
    // resolve (explicit stamp or domain default) to the partition target.
    let compiler =
        Compiler::cross_domain().with_target_override("a", HyperStreams::default().accel_spec());
    let compiled = compiler.compile(TWO_DA, &Bindings::default()).unwrap();
    for p in compiled.partitions.iter() {
        for frag in p.fragments.iter().filter(|f| f.kind == FragmentKind::Compute) {
            let node = compiled.graph.node(frag.node.unwrap());
            let spec = compiler.targets().target_for(node, compiled.graph.domain);
            assert_eq!(spec.name, p.target, "node {:?}", node.name);
        }
    }
}

#[test]
fn override_on_unannotated_component_pulls_it_off_the_host() {
    // A component with no domain annotation runs on the host by default;
    // an override moves it onto an accelerator anyway.
    const UNANNOTATED: &str = "dot(input float x[8], input float w[8], output float y) {
        index i[0:7];
        y = sum[i](w[i]*x[i]);
    }
    main(input float x[8], input float w[8], output float y) {
        dot(x, w, y);
    }";
    let compiled = Compiler::cross_domain()
        .with_target_override("dot", Tabla::default().accel_spec())
        .compile(UNANNOTATED, &Bindings::default())
        .unwrap();
    assert!(compiled.partition_by_target("TABLA").is_some());
    let feeds = HashMap::from([
        ("x".to_string(), vec_t(vec![1.0; 8])),
        ("w".to_string(), vec_t(vec![2.0; 8])),
    ]);
    let out = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap();
    assert!((out["y"].scalar_value().unwrap() - 16.0).abs() < 1e-9);
}

#[test]
fn option_pricing_app_splits_lr_and_blks() {
    // The paper's scenario at test scale: LR on TABLA, BLKS on
    // HyperStreams, glue on the host — in one compilation.
    let app = pm_workloads::apps::option_pricing(32, 8);
    let compiled = Compiler::cross_domain()
        .with_target_override("blks", HyperStreams::default().accel_spec())
        .compile(&app.source, &Bindings::default())
        .unwrap();
    assert!(compiled.partition_by_target("TABLA").is_some());
    assert!(compiled.partition_by_target("HyperStreams").is_some());
    assert!(compiled.partition_by_target("CPU").is_some());

    // And it still prices options correctly.
    let feeds = HashMap::from([
        ("wordv".to_string(), vec_t(vec![0.0; 32])),
        ("spot".to_string(), vec_t(vec![100.0; 8])),
        ("strike".to_string(), vec_t(vec![100.0; 8])),
        ("vol0".to_string(), vec_t(vec![0.2; 8])),
        ("rate".to_string(), Tensor::scalar(pmlang::DType::Float, 0.05)),
        ("tte".to_string(), Tensor::scalar(pmlang::DType::Float, 0.5)),
    ]);
    let mut m = Machine::new((*compiled.graph).clone());
    m.set_state("w", vec_t(vec![0.0; 32]));
    let out = m.invoke(&feeds).unwrap();
    // Zero sentiment weights → prob = 0.5 → vol = vol0 * (0.8 + 0.2).
    let calls = out["call"].as_real_slice().unwrap();
    let expect = pm_workloads::reference::black_scholes_call(100.0, 100.0, 0.2, 0.05, 0.5);
    for c in calls {
        assert!((c - expect).abs() < 1e-6, "call {c} vs {expect}");
    }
}
