//! Quickstart: write a tiny cross-domain PMLang program, compile it with
//! the full PolyMath pipeline, execute it functionally, and print the
//! per-accelerator performance account.
//!
//! ```text
//! cargo run -p pm-examples --bin quickstart
//! ```

use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-domain program: a DSP moving-average filter feeding a Data
    // Analytics logistic classifier — written as ONE program, the paper's
    // central usability claim.
    let source = "
        smooth(input float x[64], param float h[8], output float y[57]) {
            index i[0:56], k[0:7];
            y[i] = sum[k](h[k]*x[i+k]);
        }
        classify(input float f[57], param float w[57], output float prob) {
            index i[0:56];
            prob = sigmoid(sum[i](w[i]*f[i]));
        }
        main(input float signal[64], param float taps[8], param float w[57],
             output float anomaly) {
            float filtered[57];
            DSP: smooth(signal, taps, filtered);
            DA:  classify(filtered, w, anomaly);
        }
    ";

    // 1. Compile cross-domain: the DSP kernel lowers to the DECO overlay,
    //    the classifier to the TABLA fabric.
    let compiler = Compiler::cross_domain();
    let compiled = compiler.compile(source, &Bindings::default())?;
    println!("compiled {} partitions:", compiled.partitions.len());
    for p in compiled.partitions.iter() {
        println!(
            "  {:?} -> {} ({} fragments, {} compute ops)",
            p.domain.map(|d| d.keyword()),
            p.target,
            p.fragments.len(),
            p.compute_ops()
        );
    }

    // 2. Execute the lowered program functionally.
    let signal: Vec<f64> = (0..64).map(|t| (t as f64 * 0.3).sin() + 0.1).collect();
    let feeds = HashMap::from([
        ("signal".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![64], signal)?),
        ("taps".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![8], vec![0.125; 8])?),
        ("w".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![57], vec![0.2; 57])?),
    ]);
    let mut machine = Machine::new(Arc::clone(&compiled.graph));
    let out = machine.invoke(&feeds)?;
    println!("anomaly score: {:.4}", out["anomaly"].scalar_value()?);

    // 3. Price the run on the simulated SoC.
    let report = standard_soc().run(&compiled, &HashMap::new())?;
    println!(
        "SoC estimate: {:.3} µs, {:.3} µJ per invocation ({:.1}% communication)",
        report.total.seconds * 1e6,
        report.total.energy_j * 1e6,
        report.comm_fraction * 100.0
    );
    Ok(())
}
