//! The front half, byte for byte.
//!
//! For every benchmark program (each `compile-apps` and `compile-large`
//! program, the eight `serve-warm` entries, one `serve-churn` program per
//! family) and every `.pm` file under `examples/pm` and `tests/corpus`,
//! two digests recorded before the parser, `srdfg::build` and the mid-end
//! stopped copying what they only read:
//!
//! * an `FxHasher` digest of the `Debug` text of `pmlang::parse`'s result
//!   — the whole AST, spans included, or the error;
//! * the `graph_fingerprint` of the post-midend graph (or, where the
//!   front half refuses the program, a digest of its error text).
//!
//! A change to either is a change to what the compiler produces.

use pm_workloads::{apps, programs};
use polymath::Compiler;
use srdfg::{graph_fingerprint, Bindings, FxHasher};
use std::hash::Hasher;
use std::path::Path;

/// `(program, parse digest, post-midend digest)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("brain-256-64", 0x7e9e8ee59eb7e340, 0x2866a5bc4705d9c4),
    ("option-4096-512", 0x7ca9072c23a22019, 0x192d01bd96bd0bcf),
    ("resnet18-224", 0x946ced8a50551266, 0xc2ea4ad51c95e776),
    ("mobilenet-224", 0x37c32fae5cb2008a, 0x9772f08c522d7160),
    ("mpc-64", 0x52c0dc876014bdc6, 0x8e5c5e3f18869fc8),
    ("kmeans-784x10", 0x5680c89347d9145d, 0x7bb9dc8134fdc0bd),
    ("lrmf-1682x16", 0x4f03cfe7e6a5f6f0, 0x97f2bc87d60f7b8b),
    ("fft-1024", 0x90c466c7910cb07f, 0x782fcd6fe4b6df9d),
    ("dct-block", 0x73fcd1026107a993, 0x45f013ee90d5758d),
    ("logistic-64", 0x326875175ef79c47, 0x87c7c4f75156a619),
    ("logistic-256", 0x821d6b2d4dac63e5, 0xab6e6826d15d252d),
    ("logistic-1024", 0xf89d87cdc8f7a493, 0xd33ca371648aa659),
    ("kmeans-16x4", 0xd5e65ca71f4cd5c9, 0x21f5226c5cb6ee06),
    ("kmeans-64x8", 0xb7a262943f5aa802, 0x120d4e33e6f3d540),
    ("blackscholes-32", 0x95c6af4c37be4f60, 0x492a881268c9c7cc),
    ("blackscholes-256", 0x0805a47cb492fa98, 0xd029e2720aeb3cd8),
    ("logistic-700", 0xa2f50482c1f265a4, 0x9ad01f4155d4d54f),
    ("kmeans-50x7", 0x0b885ae8610fe072, 0x860ea9b1c47278d2),
    ("blackscholes-500", 0x8a11b2e0950b70e3, 0xcf7892ba40bd2509),
    ("examples/pm/accumulator.pm", 0x15be66bc55ff86ab, 0xf30031855b3063fa),
    ("examples/pm/hazard_demo.pm", 0xf1d72b449cadf7bb, 0xc8ea9d01b29d6c7d),
    ("examples/pm/lint_demo.pm", 0xff687a7dd700cd6f, 0xb9b7b8ae4c7ce129),
    ("examples/pm/moving_average.pm", 0x2adb1e31f8c9e691, 0xca609bc8d0c1ff1e),
    ("examples/pm/pagerank.pm", 0xf906d0d0f223a9d3, 0x24ff776aa1d08986),
    ("tests/corpus/analyze/pm-e102-out-of-bounds.pm", 0x5e921c26cd4fa86a, 0x98a71c729de2f61f),
    ("tests/corpus/analyze/pm-w103-possible-oob.pm", 0x2c115ab411afd472, 0x352f30e4b44874be),
    ("tests/corpus/analyze/pm-w105-stale-state.pm", 0xfa718fa5105d0cae, 0x21855d084ad3db7b),
    ("tests/corpus/analyze/pm-w111-war-hazard.pm", 0xb191b49ed57f1f7b, 0xfcac91649ee89127),
    ("tests/corpus/conditioned-padding.pm", 0x0c179f311c682a84, 0xb3c14f4a7c7d6a7c),
    ("tests/corpus/cross-domain-annotations.pm", 0xca7f6329795389aa, 0x34615575a00ee4be),
    ("tests/corpus/cse-duplicate-outputs.pm", 0x377ff53d2a2c7501, 0x66d837152f6b1dc1),
    ("tests/corpus/custom-reduction-rss.pm", 0xf823823f811aa173, 0x2b6e45c2d56d4cf4),
    ("tests/corpus/state-accumulator.pm", 0x2a84310d06931503, 0xd9f3d0b0ce990bbe),
    ("tests/corpus/wrapped-component.pm", 0x2a5f280c7eb1289a, 0x8681f51e30e0b89f),
];

fn digest(text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

fn pm_files(dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> =
        std::fs::read_dir(dir).expect("read_dir").map(|e| e.expect("entry").path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            pm_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "pm") {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root");
            let name = path.strip_prefix(root).expect("under the repo").display().to_string();
            out.push((name, std::fs::read_to_string(&path).expect("read .pm file")));
        }
    }
}

fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = [
        // compile-apps
        ("brain-256-64", apps::brain_stimul(256, 64).source),
        ("option-4096-512", apps::option_pricing(4096, 512).source),
        ("resnet18-224", programs::resnet18(224)),
        ("mobilenet-224", programs::mobilenet(224)),
        ("mpc-64", programs::mobile_robot(64)),
        // compile-large
        ("kmeans-784x10", programs::kmeans(784, 10)),
        ("lrmf-1682x16", programs::lrmf(1682, 16)),
        ("fft-1024", programs::fft(1024)),
        ("dct-block", programs::dct_block()),
        // serve-warm (dct-block is above)
        ("logistic-64", programs::logistic(64)),
        ("logistic-256", programs::logistic(256)),
        ("logistic-1024", programs::logistic(1024)),
        ("kmeans-16x4", programs::kmeans(16, 4)),
        ("kmeans-64x8", programs::kmeans(64, 8)),
        ("blackscholes-32", programs::black_scholes(32)),
        ("blackscholes-256", programs::black_scholes(256)),
        // serve-churn, one per family
        ("logistic-700", programs::logistic(700)),
        ("kmeans-50x7", programs::kmeans(50, 7)),
        ("blackscholes-500", programs::black_scholes(500)),
    ]
    .into_iter()
    .map(|(name, source)| (name.to_string(), source))
    .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root");
    pm_files(&root.join("examples/pm"), &mut out);
    pm_files(&root.join("tests/corpus"), &mut out);
    out
}

fn digests(source: &str) -> (u64, u64) {
    let parsed = digest(&format!("{:?}", pmlang::parse(source)));
    let graph = match Compiler::cross_domain().build_graph(source, &Bindings::default()) {
        Ok(graph) => graph_fingerprint(&graph),
        Err(e) => digest(&e.to_string()),
    };
    (parsed, graph)
}

#[test]
fn the_front_half_produces_the_recorded_ast_and_graph_for_every_program() {
    let got: Vec<(String, u64, u64)> = programs()
        .into_iter()
        .map(|(name, source)| {
            let (parsed, graph) = digests(&source);
            (name, parsed, graph)
        })
        .collect();
    let table: String =
        got.iter().map(|(name, p, g)| format!("    ({name:?}, {p:#018x}, {g:#018x}),\n")).collect();
    let expected: Vec<(String, u64, u64)> =
        GOLDEN.iter().map(|&(n, p, g)| (n.to_string(), p, g)).collect();
    assert_eq!(got, expected, "front-half digests moved; this run computed:\n{table}");
}
