//! Property tests for the shared srDFG payloads (DESIGN.md §13).
//!
//! **Copy-on-write never aliases**: the divergence idiom passes use
//! (`get().clone()`, mutate, `Consed::new`) must leave every existing
//! handle reading the original content; the mutated value lands in a
//! distinct record.
//!
//! These complement `structural_sharing.rs`: that suite checks sharing
//! is unobservable end-to-end, this one checks the handles' own contract
//! on adversarial inputs.

use proptest::prelude::*;
use srdfg::{Consed, EdgeMeta, Modifier};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The copy-on-write idiom diverges into a fresh record and never
    /// writes through a shared handle.
    #[test]
    fn cow_mutation_never_aliases(meta in arb_meta(), extra_dim in 64usize..128) {
        let original = Consed::new(meta.clone());
        let alias = original.clone();

        // The divergence idiom every pass uses (fold, prune, sabotage).
        let mut owned = original.get().clone();
        owned.shape.push(extra_dim); // extra_dim >= 64 > any generated dim
        let diverged = Consed::new(owned.clone());

        prop_assert_eq!(alias.get(), &meta, "shared handle still reads the original");
        prop_assert_eq!(original.get(), &meta, "source handle untouched");
        prop_assert_eq!(diverged.get(), &owned, "new handle reads the mutation");
        // ptr inequality: the mutated content lives in a distinct record
        prop_assert_ne!(diverged.ptr_id(), original.ptr_id());
    }
}

/// Concurrency stress: handles read their content and copy-on-write never
/// aliases under contention. N threads build and diverge `EdgeMeta`
/// records with overlapping content while a `ServeServer` compiles and
/// executes concurrently on worker threads of its own.
#[test]
fn store_invariants_hold_under_concurrent_serve_traffic() {
    use polymath::{ServeConfig, ServeEngine, ServeServer};
    use std::sync::mpsc;

    const THREADS: usize = 8;
    const ROUNDS: usize = 200;

    // A serve pool compiling the same cross-domain program from four
    // tenants on two workers: steady payload traffic from the compile and
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

    // Meanwhile: N threads wrap the same payload set (equal content
    // across threads) plus thread-unique divergences.
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
                let mut hashes = Vec::new();
                for round in 0..ROUNDS {
                    for p in payloads.iter() {
                        let a = Consed::new(p.clone());
                        assert_eq!(a.get(), p, "a handle must read its content");
                        if round == 0 {
                            hashes.push(a.structural_hash());
                        }
                        // CoW divergence unique to this thread: must never
                        // write through the shared record.
                        let mut owned = a.get().clone();
                        owned.shape.push(1000 + t);
                        let d = Consed::new(owned);
                        assert_ne!(d.ptr_id(), a.ptr_id());
                        assert_eq!(a.get(), p, "CoW wrote through a shared handle");
                    }
                }
                hashes
            })
        })
        .collect();

    let per_thread: Vec<Vec<u64>> =
        handles.into_iter().map(|h| h.join().expect("stress thread panicked")).collect();

    // Serve traffic all completed underneath the payload storm.
    let responses: Vec<String> = rx.into_iter().collect();
    assert_eq!(responses.len(), submitted);
    for r in &responses {
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"values\":[20]"), "{r}");
    }

    // Equal content ⇒ the same structural hash on every thread.
    for other in &per_thread[1..] {
        assert_eq!(other, &per_thread[0]);
    }

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
