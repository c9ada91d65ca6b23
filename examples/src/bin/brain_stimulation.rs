//! The BrainStimul end-to-end application (paper §II and Fig. 10a/11a):
//! FFT over ECoG signals (DSP) → logistic biomarker classification (DA) →
//! MPC stimulation control (RBT), as one PMLang program.
//!
//! Runs the closed loop functionally at a reduced scale, then sweeps every
//! acceleration combination — none, each single domain, pairs, all three —
//! and prints the end-to-end improvement table, reproducing the shape of
//! the paper's Fig. 10a.
//!
//! ```text
//! cargo run -p pm-examples --bin brain_stimulation
//! ```

use pm_workloads::apps;
use pmlang::Domain;
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- functional closed loop at test scale -----------------------
    let app = apps::brain_stimul(64, 8);
    let c = 3 * 8;
    let b = 2 * 8;
    let compiled = Compiler::cross_domain().compile(&app.source, &Bindings::default())?;
    println!(
        "{} kernels: {}",
        app.name,
        app.kernels
            .iter()
            .map(|(k, d)| format!("{k}({})", d.keyword()))
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    let mut machine = Machine::new(Arc::clone(&compiled.graph));
    let t = |shape: Vec<usize>, seed| pm_workloads::datagen::normal_tensor(shape, 0.2, seed);
    let params = HashMap::from([
        ("P".to_string(), t(vec![c, 3], 2)),
        ("H".to_string(), t(vec![c, b], 3)),
        ("pos_ref".to_string(), t(vec![c], 4)),
        ("HQ_g".to_string(), t(vec![b, c], 5)),
        ("R_g".to_string(), t(vec![b, b], 6)),
    ]);
    // Seed the classifier with nonzero weights.
    machine.set_state("w", pm_workloads::datagen::normal_tensor(vec![64], 0.05, 7));
    for step in 0..5 {
        let ecog = pm_workloads::datagen::signal(64, 100 + step);
        let mut feeds = params.clone();
        feeds.insert("ecog".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![64], ecog)?);
        let out = machine.invoke(&feeds)?;
        let stim = out["stim"].as_real_slice().unwrap();
        println!("  step {step}: stimulation = ({:+.4}, {:+.4})", stim[0], stim[1]);
    }

    // ---- acceleration-combination sweep (paper Fig. 10a shape) -------
    println!("\nend-to-end improvement over CPU (runtime / energy):");
    let combos: [(&str, &[Domain]); 8] = [
        ("CPU only", &[]),
        ("FFT", &[Domain::Dsp]),
        ("LR", &[Domain::DataAnalytics]),
        ("MPC", &[Domain::Robotics]),
        ("FFT+LR", &[Domain::Dsp, Domain::DataAnalytics]),
        ("FFT+MPC", &[Domain::Dsp, Domain::Robotics]),
        ("LR+MPC", &[Domain::DataAnalytics, Domain::Robotics]),
        ("FFT+LR+MPC", &[Domain::Dsp, Domain::DataAnalytics, Domain::Robotics]),
    ];
    // Paper scale for the timing sweep.
    let paper = apps::brain_stimul(4096, 1024);
    let soc = standard_soc();
    let mut baseline = None;
    for (label, domains) in combos {
        let compiled =
            Compiler::accelerating(domains).compile(&paper.source, &Bindings::default())?;
        let report = soc.run(&compiled, &HashMap::new())?;
        let base = *baseline.get_or_insert(report.total);
        println!(
            "  {label:<12} {:>6.2}x runtime   {:>6.2}x energy   (comm {:>4.1}%)",
            base.seconds / report.total.seconds,
            base.energy_j / report.total.energy_j,
            report.comm_fraction * 100.0
        );
    }
    Ok(())
}
