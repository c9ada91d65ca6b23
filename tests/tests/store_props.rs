//! Property tests for the hash-consed srDFG store (DESIGN.md §13).
//!
//! Two invariants hold for every internable payload:
//!
//! 1. **Interning is canonical** — re-interning an equal value returns a
//!    handle with the same structural hash *and* the same arena id (one
//!    physical record per distinct content).
//! 2. **Copy-on-write never aliases** — the divergence idiom passes use
//!    (`get().clone()`, mutate, re-intern) must leave every existing
//!    handle reading the original content; the mutated value lands in a
//!    distinct record.
//!
//! These complement `structural_sharing.rs`: that suite checks the store
//! is unobservable end-to-end, this one checks the store's own contract
//! on adversarial inputs.

use proptest::prelude::*;
use srdfg::{intern, Consed, EdgeMeta, Modifier, ScalarKind};
use std::sync::Arc;

fn arb_dtype() -> impl Strategy<Value = pmlang::DType> {
    prop_oneof![Just(pmlang::DType::Bool), Just(pmlang::DType::Int), Just(pmlang::DType::Float),]
}

fn arb_modifier() -> impl Strategy<Value = Modifier> {
    prop_oneof![
        Just(Modifier::Input),
        Just(Modifier::Output),
        Just(Modifier::State),
        Just(Modifier::Param),
    ]
}

fn arb_meta() -> impl Strategy<Value = EdgeMeta> {
    (
        "[a-z][a-z0-9_.]{0,11}",
        arb_dtype(),
        arb_modifier(),
        proptest::collection::vec(1usize..64, 0..4),
    )
        .prop_map(|(name, dtype, modifier, shape)| EdgeMeta {
            name,
            dtype,
            modifier,
            shape,
            span: pmlang::Span::synthetic(),
        })
}

fn arb_scalar_kind() -> impl Strategy<Value = ScalarKind> {
    prop_oneof![Just(ScalarKind::Select), any::<f64>().prop_map(ScalarKind::Const),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant 1 for `EdgeMeta`: equal content interns to one record.
    #[test]
    fn equal_meta_interns_to_same_arena_id(meta in arb_meta()) {
        let a: Consed<EdgeMeta> = intern(meta.clone());
        let b: Consed<EdgeMeta> = intern(meta.clone());
        prop_assert_eq!(a.structural_hash(), b.structural_hash());
        prop_assert_eq!(a.get(), &meta);
        prop_assert_eq!(b.get(), &meta);
        prop_assert_eq!(a.arena_id(), b.arena_id());
        prop_assert_eq!(a.ptr_id(), b.ptr_id(), "one physical record per content");
    }

    /// Invariant 1 for `ScalarKind` payloads.
    #[test]
    fn equal_scalar_kind_interns_to_same_arena_id(kind in arb_scalar_kind()) {
        let a: Consed<ScalarKind> = intern(kind.clone());
        let b: Consed<ScalarKind> = intern(kind.clone());
        prop_assert_eq!(a.structural_hash(), b.structural_hash());
        prop_assert_eq!(a.arena_id(), b.arena_id());
    }

    /// Invariant 2: the copy-on-write idiom diverges into a fresh record
    /// and never writes through a shared handle.
    #[test]
    fn cow_mutation_never_aliases(meta in arb_meta(), extra_dim in 64usize..128) {
        let original: Consed<EdgeMeta> = intern(meta.clone());
        let alias = original.clone();

        // The divergence idiom every pass uses (fold, prune, sabotage).
        let mut owned = original.get().clone();
        owned.shape.push(extra_dim); // extra_dim >= 64 > any generated dim
        let diverged: Consed<EdgeMeta> = intern(owned.clone());

        prop_assert_eq!(alias.get(), &meta, "shared handle still reads the original");
        prop_assert_eq!(original.get(), &meta, "source handle untouched");
        prop_assert_eq!(diverged.get(), &owned, "new handle reads the mutation");
        // ptr inequality: the mutated content lives in a distinct record
        prop_assert_ne!(diverged.ptr_id(), original.ptr_id());
        prop_assert_ne!(diverged.arena_id(), original.arena_id());
    }
}

/// Concurrency stress: the store is process-global, so a serve pool
/// compiling on worker threads shares its intern tables with every other
/// thread in the process. N interning/CoW threads hammer the `EdgeMeta`
/// table with overlapping content while a `ServeServer` compiles and
/// executes concurrently; both invariants must hold under contention and
/// the table counters must stay coherent.
#[test]
fn store_invariants_hold_under_concurrent_serve_traffic() {
    use polymath::{ServeConfig, ServeEngine, ServeServer};
    use std::sync::mpsc;

    const THREADS: usize = 8;
    const ROUNDS: usize = 200;

    let before = srdfg::store_stats();

    // A serve pool compiling the same cross-domain program from four
    // tenants on two workers: steady intern traffic from the compile and
    // program-cache paths.
    let cfg = ServeConfig { shards: 2, workers: 2, queue_depth: 256, ..Default::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = Arc::new(ServeServer::start(Arc::clone(&engine), &cfg));
    let (tx, rx) = mpsc::channel();
    let submitted: usize = (0..4)
        .map(|t| {
            let line = format!(
                "{{\"op\":\"run\",\"id\":\"s{t}\",\"tenant\":\"t{t}\",\
                 \"program\":\"main(input float x[4], param float w[4], output float y) {{ \
                 index i[0:3]; DA: y = sum[i](w[i]*x[i]); }}\",\
                 \"feeds\":{{\"x\":{{\"dims\":[4],\"values\":[1,2,3,4]}},\
                 \"w\":{{\"dims\":[4],\"values\":[2,2,2,2]}}}}}}"
            );
            server.submit(line, tx.clone()).expect("queue has room");
        })
        .count();
    drop(tx);

    // Meanwhile: N threads intern the same shared payload set (equal
    // content across threads) plus thread-unique divergences.
    let shared_payloads: Arc<Vec<EdgeMeta>> = Arc::new(
        (0..16)
            .map(|i| EdgeMeta {
                name: format!("stress_{i}"),
                dtype: pmlang::DType::Float,
                modifier: Modifier::Input,
                shape: vec![i + 1, 2],
                span: pmlang::Span::synthetic(),
            })
            .collect(),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let payloads = Arc::clone(&shared_payloads);
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                for round in 0..ROUNDS {
                    for (i, p) in payloads.iter().enumerate() {
                        let a: Consed<EdgeMeta> = intern(p.clone());
                        assert_eq!(a.get(), p, "interned handle must read its content");
                        if round == 0 {
                            ids.push((i, a.structural_hash(), a.arena_id()));
                        }
                        // CoW divergence unique to this thread: must never
                        // write through the shared record.
                        let mut owned = a.get().clone();
                        owned.shape.push(1000 + t);
                        let d: Consed<EdgeMeta> = intern(owned);
                        assert_ne!(d.ptr_id(), a.ptr_id());
                        assert_eq!(a.get(), p, "CoW wrote through a shared handle");
                    }
                }
                ids
            })
        })
        .collect();

    let per_thread: Vec<Vec<(usize, u64, u32)>> =
        handles.into_iter().map(|h| h.join().expect("stress thread panicked")).collect();

    // Serve traffic all completed underneath the interning storm.
    let responses: Vec<String> = rx.into_iter().collect();
    assert_eq!(responses.len(), submitted);
    for r in &responses {
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"values\":[20]"), "{r}");
    }

    // Equal content ⇒ same hash and same arena id on every thread (one
    // record per content, no duplicate admissions under contention).
    for (i, hash, id) in &per_thread[0] {
        for other in &per_thread[1..] {
            let (oi, ohash, oid) = other[*i];
            assert_eq!((*i, *hash), (oi, ohash));
            assert_eq!(*id, oid, "payload {i} admitted twice under contention");
        }
    }

    // Table counters stay coherent: monotone records/bytes, and the
    // re-interned shared payloads counted as hits.
    let after = srdfg::store_stats();
    assert!(after.records() >= before.records());
    assert!(after.bytes() >= before.bytes());
    let expect = (THREADS * ROUNDS * 16 - 16) as u64;
    assert!(
        after.edge_metas.hits >= before.edge_metas.hits + expect,
        "shared re-interns must count as hits: {} -> {}",
        before.edge_metas.hits,
        after.edge_metas.hits
    );

    // The compiled graph's sharing ledger is internally consistent.
    let compiled = engine
        .compiler()
        .compile("main(input float x[4], param float w[4], output float y) { index i[0:3]; DA: y = sum[i](w[i]*x[i]); }", &srdfg::Bindings::default())
        .expect("compile");
    let sh = srdfg::sharing_stats(&compiled.graph);
    assert!(sh.physical_nodes <= sh.logical_nodes);
    assert!(sh.physical_edges <= sh.logical_edges);
    assert!(sh.physical_bytes <= sh.logical_bytes);
    match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(),
        Err(_) => panic!("server still referenced"),
    }
}
