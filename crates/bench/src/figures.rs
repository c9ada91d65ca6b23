//! Regeneration of the paper's tables and figures.
//!
//! Every public `fig*`/`table*` function prints the corresponding result
//! rows and returns the numbers so tests and EXPERIMENTS.md generation can
//! assert on them. Absolute values come from the simulator substrates; the
//! quantities compared with the paper are the *ratios* (speedups, energy
//! reductions, % of optimal).

use pm_accel::{Backend, Cpu, Gpu, HyperStreams, PerfEstimate, WorkloadHints};
use pm_workloads::{apps, paper_suite, python, App};
use pmlang::Domain;
use polymath::{evaluate, geomean, standard_soc, Compiler, PlatformResults};
use srdfg::Bindings;
use std::collections::HashMap;

/// Evaluates the whole Table III suite (cached by the caller as needed).
pub fn evaluate_suite() -> Vec<PlatformResults> {
    paper_suite()
        .iter()
        .map(|w| evaluate(w).unwrap_or_else(|e| panic!("{}: {e}", w.benchmark)))
        .collect()
}

/// Table I — PMLang keywords and definitions (from the implementation's
/// own registries, so it can never drift from the language).
pub fn table1() {
    println!("Table I: PMLang keywords");
    println!("  {:<12} {:<22} description", "construct", "keyword");
    println!(
        "  {:<12} {:<22} takes input, produces output, reads/writes state",
        "Component", "<name>(args) {…}"
    );
    let domains: Vec<&str> = Domain::all().iter().map(|d| d.keyword()).collect();
    println!(
        "  {:<12} {:<22} a component's (or statement's) target domain",
        "Domain",
        domains.join(", ")
    );
    for (kw, desc) in [
        ("input", "flow of data, read-only within a component"),
        ("output", "flow of data, write-only within a component"),
        ("state", "readable/writable, preserved across invocations"),
        ("param", "constant that parameterizes a component"),
    ] {
        println!("  {:<12} {:<22} {}", "Modifier", kw, desc);
    }
    println!("  {:<12} {:<22} ranges of operations without for loops", "Index", "index i[lo:hi]");
    println!("  {:<12} {:<22} variable data types", "Types", "bin, int, float, str, complex");
    let reds: Vec<&str> = [
        pmlang::BuiltinReduction::Sum,
        pmlang::BuiltinReduction::Prod,
        pmlang::BuiltinReduction::Max,
        pmlang::BuiltinReduction::Min,
        pmlang::BuiltinReduction::Argmax,
        pmlang::BuiltinReduction::Argmin,
        pmlang::BuiltinReduction::Any,
        pmlang::BuiltinReduction::All,
    ]
    .iter()
    .map(|r| r.name())
    .collect();
    println!(
        "  {:<12} {:<22} built-in group reductions (+ `reduction` defs)",
        "Reductions",
        reds.join(", ")
    );
}

/// Table II — the computational-stack comparison matrix (static).
pub fn table2() {
    println!("Table II: computational stacks vs domains");
    let stacks: [(&str, [bool; 7]); 10] = [
        ("General-Purpose Processors", [true, true, true, true, true, true, true]),
        ("Graphicionado", [false, true, false, false, false, false, false]),
        ("Darwin", [false, false, false, false, false, true, false]),
        ("DNNWeaver", [false, false, false, false, true, false, false]),
        ("TVM", [false, false, false, true, true, false, false]),
        ("TABLA", [false, false, false, true, false, false, false]),
        ("RoboX", [true, false, false, false, false, false, false]),
        ("DeCO", [false, false, true, false, false, false, false]),
        ("BCP Acc", [false, false, false, false, false, false, true]),
        ("PolyMath", [true, true, true, true, true, false, false]),
    ];
    println!(
        "  {:<28} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}",
        "stack", "RBT", "GA", "DSP", "DA", "DL", "GEN", "SAT"
    );
    for (name, row) in stacks {
        let mark = |b: bool| if b { "yes" } else { "-" };
        println!(
            "  {:<28} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}",
            name,
            mark(row[0]),
            mark(row[1]),
            mark(row[2]),
            mark(row[3]),
            mark(row[4]),
            mark(row[5]),
            mark(row[6])
        );
    }
}

/// Table III — benchmarks, configurations, and measured PMLang LOC.
pub fn table3() {
    println!("Table III: benchmarks and PMLang LOC");
    println!("  {:<14} {:<14} {:<34} {:>4}", "benchmark", "domain", "config", "LOC");
    for w in paper_suite() {
        println!(
            "  {:<14} {:<14} {:<34} {:>4}",
            w.benchmark,
            w.domain.keyword(),
            w.config,
            w.loc()
        );
    }
}

/// Table IV — end-to-end application composition and LOC.
pub fn table4() {
    println!("Table IV: end-to-end applications");
    for app in apps::paper_apps() {
        let kernels: Vec<String> =
            app.kernels.iter().map(|(k, d)| format!("{k}({})", d.keyword())).collect();
        println!(
            "  {:<14} {:<38} total LOC {:>4}",
            app.name,
            kernels.join(" + "),
            pm_workloads::loc(&app.source)
        );
    }
}

/// Fig. 7 — runtime and energy improvement of PolyMath over the Xeon CPU.
/// Returns `(benchmark, runtime×, energy×)` rows plus the geomeans.
pub fn fig7(results: &[PlatformResults]) -> (Vec<(String, f64, f64)>, f64, f64) {
    println!("Fig 7: PolyMath improvement over Xeon E-2176G");
    println!("  {:<14} {:>10} {:>10}   target", "benchmark", "runtime", "energy");
    let mut rows = Vec::new();
    for r in results {
        let (s, e) = (r.speedup_vs_cpu(), r.energy_reduction_vs_cpu());
        println!("  {:<14} {:>9.1}x {:>9.1}x   {}", r.benchmark, s, e, r.target);
        rows.push((r.benchmark.clone(), s, e));
    }
    let gs = geomean(rows.iter().map(|r| r.1));
    let ge = geomean(rows.iter().map(|r| r.2));
    println!("  {:<14} {gs:>9.1}x {ge:>9.1}x   (paper: 3.3x / 18.1x)", "geomean");
    (rows, gs, ge)
}

/// Fig. 8 — runtime and performance-per-watt vs Titan Xp and Jetson
/// Xavier. Returns per-benchmark `(runtime×titan, ppw×titan, runtime×jetson,
/// ppw×jetson)` plus the four geomeans.
pub fn fig8(results: &[PlatformResults]) -> (Vec<(String, [f64; 4])>, [f64; 4]) {
    println!("Fig 8: PolyMath vs GPUs (runtime / perf-per-watt)");
    println!(
        "  {:<14} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", "rt/Titan", "ppw/Titan", "rt/Jetson", "ppw/Jetson"
    );
    let mut rows = Vec::new();
    for r in results {
        let vals = [
            r.speedup_vs(&r.titan),
            r.ppw_vs(&r.titan),
            r.speedup_vs(&r.jetson),
            r.ppw_vs(&r.jetson),
        ];
        println!(
            "  {:<14} {:>8.2}x {:>8.2}x {:>8.2}x {:>8.2}x",
            r.benchmark, vals[0], vals[1], vals[2], vals[3]
        );
        rows.push((r.benchmark.clone(), vals));
    }
    let gm = [
        geomean(rows.iter().map(|r| r.1[0])),
        geomean(rows.iter().map(|r| r.1[1])),
        geomean(rows.iter().map(|r| r.1[2])),
        geomean(rows.iter().map(|r| r.1[3])),
    ];
    println!(
        "  {:<14} {:>8.2}x {:>8.2}x {:>8.2}x {:>8.2}x   (paper ppw: 7.2x / 1.7x)",
        "geomean", gm[0], gm[1], gm[2], gm[3]
    );
    (rows, gm)
}

/// Fig. 9 — percent of the hand-optimized runtime PolyMath achieves.
pub fn fig9(results: &[PlatformResults]) -> (Vec<(String, f64)>, f64) {
    println!("Fig 9: percent of hand-optimized (optimal) performance");
    let mut rows = Vec::new();
    for r in results {
        let pct = r.pct_of_optimal() * 100.0;
        println!("  {:<14} {:>6.1}%", r.benchmark, pct);
        rows.push((r.benchmark.clone(), pct));
    }
    let avg = rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64;
    println!("  {:<14} {avg:>6.1}%   (paper average: 83.9%)", "average");
    (rows, avg)
}

/// One acceleration-combination row of the end-to-end sweeps.
#[derive(Debug, Clone)]
pub struct ComboRow {
    /// Combination label (e.g. `FFT+MPC`).
    pub label: String,
    /// End-to-end estimate per application iteration.
    pub total: PerfEstimate,
    /// Hand-optimized estimate per iteration.
    pub expert: PerfEstimate,
    /// DMA share of the runtime.
    pub comm_fraction: f64,
}

/// The acceleration combinations of one application.
pub fn app_combinations(app: &App) -> Vec<(String, Vec<Domain>)> {
    let domains: Vec<(String, Domain)> = {
        // Unique kernel-domain pairs in order.
        let mut seen = Vec::new();
        for (k, d) in &app.kernels {
            if !seen.iter().any(|(_, dd)| dd == d) {
                seen.push((k.to_string(), *d));
            }
        }
        seen
    };
    let n = domains.len();
    let mut combos = vec![("CPU only".to_string(), Vec::new())];
    for mask in 1u32..(1 << n) {
        let mut label = Vec::new();
        let mut set = Vec::new();
        for (i, (k, d)) in domains.iter().enumerate() {
            if mask & (1 << i) != 0 {
                label.push(k.clone());
                set.push(*d);
            }
        }
        combos.push((label.join("+"), set));
    }
    combos
}

/// Sweeps an application's acceleration combinations. BrainStimul's three
/// kernels live in three domains, so the sweep toggles domain targets;
/// OptionPricing's two kernels share the DA domain, so its sweep toggles
/// the kernels' annotations instead (paper Fig. 10b's BLKS / LR / BLKS+LR).
pub fn sweep_app(app: &App) -> Vec<ComboRow> {
    let soc = standard_soc();
    // Whatever stays on the host runs in the application's *native* stack
    // (the baselines the paper measures against); charge its inefficiency
    // to host partitions only.
    let mut hints = HashMap::new();
    if app.host_native_factor != 1.0 {
        hints.insert(
            None,
            WorkloadHints { native_factor: Some(app.host_native_factor), ..Default::default() },
        );
    }
    let price = |label: String, compiler: Compiler, source: &str| -> ComboRow {
        let compiled = compiler
            .compile(source, &Bindings::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let report = soc.run(&compiled, &hints).unwrap_or_else(|e| panic!("{label}: {e}"));
        let expert = soc.run_expert(&compiled, &hints).unwrap_or_else(|e| panic!("{label}: {e}"));
        ComboRow {
            label,
            total: report.total,
            expert: expert.total,
            comm_fraction: report.comm_fraction,
        }
    };
    if app.name == "OptionPricing" {
        let all = Domain::all();
        return [
            ("CPU only", false, false),
            ("BLKS", false, true),
            ("LR", true, false),
            ("BLKS+LR", true, true),
        ]
        .into_iter()
        .map(|(label, lr, blks)| {
            let variant = apps::option_pricing_with(131_072, 8192, lr, blks);
            // The paper runs the two DA kernels on *different* accelerators
            // simultaneously: LR on TABLA (the domain default) and
            // Black-Scholes on HyperStreams via a per-component override.
            let mut compiler = Compiler::accelerating(&all);
            if blks {
                compiler =
                    compiler.with_target_override("blks", HyperStreams::default().accel_spec());
            }
            price(label.to_string(), compiler, &variant.source)
        })
        .collect();
    }
    app_combinations(app)
        .into_iter()
        .map(|(label, domains)| price(label, Compiler::accelerating(&domains), &app.source))
        .collect()
}

/// Fig. 10 — end-to-end runtime/energy improvement over the CPU per
/// acceleration combination, for both applications.
pub fn fig10() -> Vec<(String, Vec<ComboRow>)> {
    let mut out = Vec::new();
    for app in apps::paper_apps() {
        println!("Fig 10 ({}): end-to-end improvement over CPU", app.name);
        let rows = sweep_app(&app);
        let base = rows[0].total;
        for row in &rows {
            println!(
                "  {:<14} {:>6.2}x runtime {:>7.2}x energy   comm {:>4.1}%",
                row.label,
                base.seconds / row.total.seconds,
                base.energy_j / row.total.energy_j,
                row.comm_fraction * 100.0
            );
        }
        out.push((app.name.to_string(), rows));
    }
    out
}

/// Fig. 11 — the same sweep against the Titan Xp and Jetson baselines.
pub fn fig11() {
    for app in apps::paper_apps() {
        println!("Fig 11 ({}): end-to-end improvement over GPUs", app.name);
        // GPU baselines run the whole app (all partitions).
        let host =
            Compiler::host_only().compile(&app.source, &Bindings::default()).expect("host compile");
        let h = WorkloadHints::default();
        let titan = polymath::evaluate::estimate_all(&Gpu::titan_xp(), &host, &h);
        let jetson = polymath::evaluate::estimate_all(&Gpu::jetson_xavier(), &host, &h);
        for row in sweep_app(&app) {
            println!(
                "  {:<14} Titan: {:>5.2}x rt {:>7.2}x ppw | Jetson: {:>5.2}x rt {:>6.2}x ppw",
                row.label,
                titan.seconds / row.total.seconds,
                titan.energy_j / row.total.energy_j,
                jetson.seconds / row.total.seconds,
                jetson.energy_j / row.total.energy_j,
            );
        }
    }
}

/// Fig. 12 — percent of hand-optimized performance for the end-to-end
/// applications. Returns the overall average.
pub fn fig12() -> f64 {
    println!("Fig 12: percent of optimal performance (end-to-end)");
    let mut pcts = Vec::new();
    for app in apps::paper_apps() {
        for row in sweep_app(&app).into_iter().skip(1) {
            let pct = row.expert.seconds / row.total.seconds * 100.0;
            println!("  {:<14} {:<14} {:>6.1}%", app.name, row.label, pct);
            pcts.push(pct);
        }
    }
    let avg = pcts.iter().sum::<f64>() / pcts.len() as f64;
    println!("  {:<29} {avg:>6.1}%   (paper: 76.8%)", "average");
    avg
}

/// Fig. 13 — the user-study comparison (LOC and effort reduction vs
/// Python). Returns `(task, loc_reduction, time_reduction)` rows.
pub fn fig13() -> Vec<(String, f64, f64)> {
    println!("Fig 13: PMLang vs Python (user-study tasks)");
    let mut out = Vec::new();
    let rows = python::study_rows();
    for row in &rows {
        println!(
            "  {:<8} LOC {:>3} vs {:>3} ({:>4.1}x)   effort proxy {:>4} vs {:>4} ({:>4.1}x)",
            row.task,
            row.python_loc,
            row.pmlang_loc,
            row.loc_reduction(),
            row.python_tokens,
            row.pmlang_tokens,
            row.time_reduction()
        );
        out.push((row.task.to_string(), row.loc_reduction(), row.time_reduction()));
    }
    let gl = rows.iter().map(python::StudyRow::loc_reduction).sum::<f64>() / rows.len() as f64;
    let gt = rows.iter().map(python::StudyRow::time_reduction).sum::<f64>() / rows.len() as f64;
    println!("  average: {gl:.1}x LOC, {gt:.1}x effort   (paper: 2.5x LOC, 1.9x time)");
    out
}

/// Backend-portability report (extension beyond the paper): the same DL
/// programs priced on VTA and on the alternate DnnWeaver backend, by
/// swapping one `AcceleratorSpec` — the srDFG retargetability claim made
/// concrete.
pub fn portability() {
    use pm_accel::{Backend, DnnWeaver, Vta};
    use pm_lower::{compile_program, lower, TargetMap};
    println!("Portability: one DL program, two accelerators (per-inference seconds)");
    println!("  {:<12} {:>12} {:>12} {:>8}", "network", "TVM-VTA", "DnnWeaver", "ratio");
    for (name, src) in [
        ("ResNet-18", pm_workloads::programs::resnet18(224)),
        ("MobileNet", pm_workloads::programs::mobilenet(224)),
    ] {
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        let price = |backend: &dyn Backend| -> f64 {
            let mut g = graph.clone();
            let mut targets = TargetMap::host_only(Backend::accel_spec(&Cpu::default()));
            targets.set(backend.accel_spec());
            lower(&mut g, &targets).unwrap();
            let compiled = compile_program(&g, &targets).unwrap();
            backend
                .estimate(
                    compiled.partition(Some(Domain::DeepLearning)).unwrap(),
                    &compiled.graph,
                    &WorkloadHints::default(),
                )
                .seconds
        };
        let vta = price(&Vta::default());
        let dw = price(&DnnWeaver::default());
        println!("  {:<12} {:>11.4}s {:>11.4}s {:>7.2}x", name, vta, dw, vta / dw);
    }
}

/// Extension workloads (beyond Table III) priced like Fig. 7.
pub fn extensions() {
    println!("Extension workloads: improvement over Xeon E-2176G");
    for w in pm_workloads::extension_suite() {
        let r = evaluate(&w).unwrap_or_else(|e| panic!("{}: {e}", w.benchmark));
        println!(
            "  {:<14} {:>6.1}x runtime {:>7.1}x energy   {}",
            r.benchmark,
            r.speedup_vs_cpu(),
            r.energy_reduction_vs_cpu(),
            r.target
        );
    }
    mpc_formulations();
}

/// Condensed vs recursive MPC on RoboX: the paper's RoboX runs the
/// per-step (recursive LQR) formulation whose model lives in resident
/// `param` memory and whose per-step state is tiny; the condensed
/// formulation trades that for one big gradient step. Prints per-step
/// cost and DMA traffic for both.
pub fn mpc_formulations() {
    use pm_accel::{Backend, Robox, WorkloadHints};
    println!("MPC formulations on RoboX (per control step)");
    let robox = Robox::default();
    let hints = WorkloadHints::default();
    for (label, src) in [
        ("condensed-1024", pm_workloads::programs::mobile_robot(1024)),
        ("recursive-LQR", pm_workloads::programs::lqr_step(12, 6)),
    ] {
        let compiled = compile_single_target(&robox, &src, false, true);
        let part = compiled.partition_by_target("RoboX").expect("RoboX partition");
        let est = robox.estimate(part, &compiled.graph, &hints);
        // Steady-state DMA: `param`/`state` tensors are uploaded once and
        // stay resident (the SoC model's residency rule), so the per-step
        // traffic is the non-resident load/store bytes only.
        let steady: u64 = part
            .fragments
            .iter()
            .filter(|f| f.kind != pm_lower::FragmentKind::Compute)
            .filter(|f| {
                f.arg.as_ref().is_some_and(|a| {
                    !matches!(a.modifier(), srdfg::Modifier::Param | srdfg::Modifier::State)
                })
            })
            .map(pm_lower::Fragment::bytes)
            .sum();
        println!(
            "  {label:<16} {:>10.2} us compute   {:>9} B DMA/step (steady state)",
            est.seconds * 1e6,
            steady
        );
    }
}

/// Design-space exploration over the simulated fabrics: one kernel per
/// accelerator, swept across the hardware parameter its paper explores.
/// The knees locate the published configurations (the defaults used for
/// every other figure). Two compiler ablations ride along as off/on (0/1)
/// rows: marshalling elision and algebraic combination. Returns
/// `(label, parameter, cycles)` rows.
///
/// # Panics
///
/// If marshalling elision lengthens the TABLA schedule, or a larger
/// HyperStreams operator budget slows the pipeline.
pub fn dse() -> Vec<(String, u64, u64)> {
    use pm_accel::{Backend, Deco, HyperStreams, Robox, Tabla, WorkloadHints};
    use pm_workloads::programs;

    let hints = WorkloadHints::default();
    let mut rows = Vec::new();

    println!("DSE: TABLA PE grid on LR-1024 (paper config: 16 PUs x 8 PEs)");
    let tabla = Tabla::default();
    let lr = compile_single_target(&tabla, &programs::logistic(1024), false, true);
    let part = lr.partition_by_target("TABLA").unwrap();
    for pes in [2usize, 4, 8, 16, 32] {
        let t = Tabla { pes_per_pu: pes, ..Default::default() };
        let c = t.estimate(part, &lr.graph, &hints).cycles;
        println!("  16 PUs x {pes:>2} PEs: {c:>8} cycles");
        rows.push(("tabla-pes".to_string(), pes as u64, c));
    }

    println!("DSE: DECO DSP blocks on FFT-8192 (paper config: 256 blocks)");
    let fft = compile_single_target(&Deco::default(), &programs::fft(8192), false, true);
    let part = fft.partition_by_target("DECO").unwrap();
    for blocks in [32usize, 64, 128, 256, 512, 1024] {
        let d = Deco { dsp_blocks: blocks, ..Default::default() };
        let c = d.estimate(part, &fft.graph, &hints).cycles;
        println!("  {blocks:>4} blocks: {c:>8} cycles");
        rows.push(("deco-blocks".to_string(), blocks as u64, c));
    }

    println!("DSE: HyperStreams operator budget on BLKS-8192 (stream-balanced: 128 ops)");
    let blks = compile_single_target(
        &HyperStreams::default(),
        &programs::black_scholes(8192),
        false,
        true,
    );
    let part = blks.partition_by_target("HyperStreams").unwrap();
    let mut prev = u64::MAX;
    for ops in [64usize, 128, 256, 1024, 4096] {
        let h = HyperStreams { max_operators: ops, ..Default::default() };
        let c = h.estimate(part, &blks.graph, &hints).cycles;
        println!("  {ops:>4} operators: {c:>8} cycles");
        assert!(c <= prev, "more operators must never slow the pipeline");
        prev = c;
        rows.push(("hyperstreams-ops".to_string(), ops as u64, c));
    }

    println!("Ablation: marshalling elision on LR-1024 (TABLA; 0 = off, 1 = on)");
    let plain = compile_single_target(&tabla, &programs::logistic(1024), false, false);
    let unelided =
        tabla.estimate(plain.partition_by_target("TABLA").unwrap(), &plain.graph, &hints).cycles;
    let elided = tabla.estimate(lr.partition_by_target("TABLA").unwrap(), &lr.graph, &hints).cycles;
    println!("  {unelided} -> {elided} cycles");
    assert!(elided <= unelided, "eliding marshalling must never lengthen the schedule");
    rows.push(("elide-marshalling".to_string(), 0, unelided));
    rows.push(("elide-marshalling".to_string(), 1, elided));

    println!("Ablation: algebraic combination on MPC-64 (RoboX; 0 = off, 1 = on)");
    let robox = Robox::default();
    for fuse in [false, true] {
        let mpc = compile_single_target(&robox, &programs::mobile_robot(64), fuse, false);
        let c =
            robox.estimate(mpc.partition_by_target("RoboX").unwrap(), &mpc.graph, &hints).cycles;
        println!("  fused={fuse}: {c:>8} cycles");
        rows.push(("algebraic-combination".to_string(), u64::from(fuse), c));
    }
    rows
}

/// Compiles one program for one accelerator (host for everything else):
/// the single-target pipeline of the DSE sweep. `fuse` runs algebraic
/// combination before lowering, `elide` marshalling elision after it.
fn compile_single_target(
    backend: &dyn pm_accel::Backend,
    src: &str,
    fuse: bool,
    elide: bool,
) -> pm_lower::CompiledProgram {
    use pm_accel::Backend as _;
    let (prog, _) = pmlang::frontend(src).unwrap();
    let mut graph = srdfg::build(&prog, &Bindings::default()).unwrap();
    if fuse {
        pm_passes::Pass::run(&pm_passes::AlgebraicCombination, &mut graph);
    }
    let mut targets = pm_lower::TargetMap::host_only(Cpu::default().accel_spec());
    targets.set(backend.accel_spec());
    // Not `pm_passes::lower_and_compile`: the ablation rows switch single
    // stages, and their numbers hold until the reproduction claim is pinned.
    pm_lower::lower(&mut graph, &targets).unwrap();
    if elide {
        pm_passes::Pass::run(&pm_passes::ElideMarshalling, &mut graph);
    }
    pm_lower::compile_program(&graph, &targets).unwrap()
}

/// Writes the Fig. 7/8/9 rows as CSV for machine consumption.
pub fn write_csv(results: &[PlatformResults], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "benchmark,domain,target,cpu_s,titan_s,jetson_s,polymath_s,expert_s,cpu_j,polymath_j,speedup_vs_cpu,energy_vs_cpu,pct_optimal"
    )?;
    for r in results {
        writeln!(
            f,
            "{},{},{},{:e},{:e},{:e},{:e},{:e},{:e},{:e},{:.3},{:.3},{:.3}",
            r.benchmark,
            r.domain.keyword(),
            r.target,
            r.cpu.seconds,
            r.titan.seconds,
            r.jetson.seconds,
            r.polymath.seconds,
            r.expert.seconds,
            r.cpu.energy_j,
            r.polymath.energy_j,
            r.speedup_vs_cpu(),
            r.energy_reduction_vs_cpu(),
            r.pct_of_optimal()
        )?;
    }
    Ok(())
}
