//! The OptionPricing end-to-end application (paper Fig. 10b/11b):
//! logistic-regression sentiment over news features scales the volatility
//! surface fed to Black-Scholes pricing — two Data Analytics kernels that
//! the paper runs on *different* accelerators simultaneously (LR on TABLA,
//! Black-Scholes on HyperStreams), realized here with a per-component
//! target override.
//!
//! ```text
//! cargo run -p pm-examples --bin option_pricing
//! ```

use pm_accel::{Backend, HyperStreams, WorkloadHints};
use pm_workloads::{apps, datagen, reference};
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- functional run at test scale --------------------------------
    let app = apps::option_pricing(32, 8);
    let compiled = Compiler::cross_domain().compile(&app.source, &Bindings::default())?;
    let mut machine = Machine::new(Arc::clone(&compiled.graph));

    let spots = [95.0, 100.0, 105.0, 110.0, 90.0, 100.0, 120.0, 100.0];
    let vols = [0.15, 0.2, 0.25, 0.2, 0.3, 0.18, 0.22, 0.2];
    let feeds = HashMap::from([
        ("wordv".to_string(), datagen::normal_tensor(vec![32], 0.1, 1)),
        ("spot".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], spots.to_vec())?),
        ("strike".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], vec![100.0; 8])?),
        ("vol0".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], vols.to_vec())?),
        ("rate".to_string(), Tensor::scalar(pmlang::DType::Float, 0.05)),
        ("tte".to_string(), Tensor::scalar(pmlang::DType::Float, 0.5)),
    ]);
    machine.set_state("w", datagen::normal_tensor(vec![32], 0.05, 2));
    let out = machine.invoke(&feeds)?;
    let calls = out["call"].as_real_slice().unwrap();
    println!("option book (sentiment-adjusted Black-Scholes):");
    println!("  spot   vol0   call     (unadjusted reference)");
    for i in 0..8 {
        let unadj = reference::black_scholes_call(spots[i], 100.0, vols[i], 0.05, 0.5);
        println!("  {:>5.0}  {:>5.2}  {:>7.3}  ({:>7.3})", spots[i], vols[i], calls[i], unadj);
    }

    // ---- acceleration sweep at paper scale (Fig. 10b shape) ----------
    println!("\nend-to-end improvement over CPU (runtime / energy):");
    let paper = apps::option_pricing(131_072, 8192);
    let soc = standard_soc();
    // Whatever stays on the host runs in the application's native Python
    // stack; charge its inefficiency to host partitions only.
    let hints = HashMap::from([(
        None,
        WorkloadHints { native_factor: Some(paper.host_native_factor), ..Default::default() },
    )]);
    let all = pmlang::Domain::all();
    let mut baseline = None;
    for (label, lr, blks) in [
        ("CPU only", false, false),
        ("BLKS", false, true),
        ("LR", true, false),
        ("BLKS+LR", true, true),
    ] {
        let variant = apps::option_pricing_with(131_072, 8192, lr, blks);
        let mut compiler = Compiler::accelerating(&all);
        if blks {
            // Two DA accelerators at once: pin Black-Scholes to
            // HyperStreams while LR keeps the domain default (TABLA).
            compiler = compiler.with_target_override("blks", HyperStreams::default().accel_spec());
        }
        let compiled = compiler.compile(&variant.source, &Bindings::default())?;
        let report = soc.run(&compiled, &hints)?;
        let base = *baseline.get_or_insert(report.total);
        println!(
            "  {label:<10} {:>6.2}x runtime   {:>6.2}x energy   (comm {:>4.1}%)",
            base.seconds / report.total.seconds,
            base.energy_j / report.total.energy_j,
            report.comm_fraction * 100.0
        );
    }
    Ok(())
}
