//! MobileRobot trajectory tracking (paper §II, Fig. 3-4): a simulated
//! robot parks at a reference pose, with the PMLang MPC program producing
//! the control signal each step and the RoboX backend pricing the
//! control-loop latency. The plant integrates slightly different gains
//! than the prediction model, so the closed loop has to correct real
//! model mismatch.
//!
//! ```text
//! cargo run -p pm-examples --bin robot_tracking
//! ```

use pm_workloads::programs;
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = 8usize;
    let c = 3 * horizon;
    let b = 2 * horizon;
    let source = programs::mobile_robot(horizon);
    let compiled = Compiler::cross_domain().compile(&source, &Bindings::default())?;
    println!(
        "MPC (horizon {horizon}) compiled to {}",
        compiled.partitions.iter().map(|p| p.target.clone()).collect::<Vec<_>>().join(" + ")
    );

    // Condensed linearized model: predicted pose at step t = current pose
    // + gain·(cumulative controls up to t). Controls are laid out
    // channel-major, matching the program's `ctrl_sgnl[j] = ctrl_mdl[h*j]`:
    // ctrl_mdl[0..h] are the vx sequence and ctrl_mdl[h..2h] the vy one.
    let model_gain = 0.1;
    let plant_gain = 0.12; // deliberate model mismatch
    let p_m = {
        let mut m = vec![0.0; c * 3];
        for t in 0..horizon {
            for s in 0..3 {
                m[(t * 3 + s) * 3 + s] = 1.0;
            }
        }
        Tensor::from_vec(pmlang::DType::Float, vec![c, 3], m)?
    };
    let h_dense = {
        let mut m = vec![0.0; c * b];
        for t in 0..horizon {
            for u in 0..=t {
                m[(t * 3) * b + u] = model_gain; // vx moves x
                m[(t * 3 + 1) * b + (horizon + u)] = model_gain; // vy moves y
            }
        }
        m
    };
    let h_m = Tensor::from_vec(pmlang::DType::Float, vec![c, b], h_dense.clone())?;
    // Quadratic tracking cost: HQ_g = -Hᵀ, R_g = λI. λ damps the
    // control integrator so the closed loop settles without ringing.
    let hq_g = {
        let mut m = vec![0.0; b * c];
        for i in 0..b {
            for j in 0..c {
                m[i * c + j] = -h_dense[j * b + i];
            }
        }
        Tensor::from_vec(pmlang::DType::Float, vec![b, c], m)?
    };
    let r_g = {
        let mut m = vec![0.0; b * b];
        for i in 0..b {
            m[i * b + i] = 4.0;
        }
        Tensor::from_vec(pmlang::DType::Float, vec![b, b], m)?
    };

    // Park at (1.0, 0.5, 0) from (0, -1, 0).
    let target = [1.0f64, 0.5, 0.0];
    let mut pos_ref = vec![0.0; c];
    for t in 0..horizon {
        pos_ref[t * 3] = target[0];
        pos_ref[t * 3 + 1] = target[1];
        pos_ref[t * 3 + 2] = target[2];
    }

    let mut machine = Machine::new(Arc::clone(&compiled.graph));
    let mut state = [0.0f64, -1.0, 0.0];
    let mut err = f64::INFINITY;
    println!("step |    x      y   | err");
    for step in 0..300 {
        let feeds = HashMap::from([
            ("pos".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![3], state.to_vec())?),
            ("P".to_string(), p_m.clone()),
            ("H".to_string(), h_m.clone()),
            (
                "pos_ref".to_string(),
                Tensor::from_vec(pmlang::DType::Float, vec![c], pos_ref.clone())?,
            ),
            ("HQ_g".to_string(), hq_g.clone()),
            ("R_g".to_string(), r_g.clone()),
        ]);
        let out = machine.invoke(&feeds)?;
        let sgnl = out["ctrl_sgnl"].as_real_slice().unwrap();
        // Plant: integrate the first control of the optimized sequence.
        state[0] += plant_gain * sgnl[0];
        state[1] += plant_gain * sgnl[1];
        err = ((state[0] - target[0]).powi(2) + (state[1] - target[1]).powi(2)).sqrt();
        if step % 40 == 0 {
            println!("{step:>4} | {:>6.3} {:>6.3} | {err:.4}", state[0], state[1]);
        }
    }
    println!("final tracking error: {err:.4}");
    assert!(err < 0.15, "MPC failed to converge: {err}");

    // Control-loop latency on RoboX vs the CPU baseline, at the paper's
    // horizon of 1024.
    let paper_src = programs::mobile_robot(1024);
    let accel_prog = Compiler::cross_domain().compile(&paper_src, &Bindings::default())?;
    let soc = standard_soc();
    let accel = soc.run(&accel_prog, &HashMap::new())?;
    let host = Compiler::host_only().compile(&paper_src, &Bindings::default())?;
    let cpu = polymath::evaluate::estimate_all(soc.host(), &host, &Default::default());
    println!(
        "horizon-1024 control step: RoboX {:.2} µs vs CPU {:.2} µs ({:.2}x)",
        accel.total.seconds * 1e6,
        cpu.seconds * 1e6,
        cpu.seconds / accel.total.seconds
    );
    Ok(())
}
