//! Failure-injection tests: every layer of the stack must turn bad input
//! into a typed error (never a panic) with a message that names the
//! offending construct.

use pm_tests::vec_t;
use polymath::{Compiler, PolyMathError};
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;

#[test]
fn frontend_errors_carry_location_and_name() {
    // Lexical.
    let e = Compiler::host_only().compile("main(input float x@)", &Bindings::default());
    assert!(matches!(e, Err(PolyMathError::Frontend(_))));
    assert!(e.unwrap_err().to_string().contains('@'));

    // Syntactic.
    let e = Compiler::host_only()
        .compile("main(input float x, output float y) { y = ; }", &Bindings::default())
        .unwrap_err();
    assert!(e.to_string().contains("expected expression"), "{e}");

    // Semantic.
    let e = Compiler::host_only()
        .compile("main(input float x, output float y) { y = zz; }", &Bindings::default())
        .unwrap_err();
    assert!(e.to_string().contains("`zz`"), "{e}");
}

#[test]
fn unbound_size_is_a_build_error() {
    let e = Compiler::host_only()
        .compile(
            "main(input float x[n], output float y[n]) { index i[0:n-1]; y[i] = x[i]; }",
            &Bindings::default(),
        )
        .unwrap_err();
    assert!(matches!(e, PolyMathError::Build(_)));
    assert!(e.to_string().contains("`n`"), "{e}");
}

#[test]
fn shape_mismatch_at_instantiation_is_reported() {
    let e = Compiler::host_only()
        .compile(
            "f(input float a[m], input float b[m], output float c[m]) {
                 index i[0:m-1];
                 c[i] = a[i] + b[i];
             }
             main(input float x[4], input float y[8], output float z[4]) {
                 f(x, y, z);
             }",
            &Bindings::default(),
        )
        .unwrap_err();
    assert!(e.to_string().contains("already bound"), "{e}");
}

#[test]
fn overflowing_component_dimension_is_a_build_error() {
    // `n*n*n*n*n` with n = 2^20 is 2^100: not an `i64`.
    let e = Compiler::host_only()
        .build_graph(
            "comp(input float a[n], input float b[n*n*n*n*n], output float c) {
                 index i[0:n-1];
                 c = sum[i](a[i]);
             }
             main(input float x[m], input float z[2], output float y) {
                 comp(x, z, y);
             }",
            &Bindings::from_sizes([("m", 1_048_576)]),
        )
        .unwrap_err();
    assert!(matches!(e, PolyMathError::Build(_)), "{e}");
    assert!(e.to_string().contains("cannot evaluate dimension of `b`"), "{e}");
}

#[test]
fn oversized_declared_dimension_is_a_build_error() {
    // 2^100 elements: beyond the range where sizes are exact, not saturated.
    let e = Compiler::host_only()
        .build_graph(
            "main(input float x[n*n*n*n*n], output float y) { y = x[0]; }",
            &Bindings::from_sizes([("n", 1_048_576)]),
        )
        .unwrap_err();
    assert!(matches!(e, PolyMathError::Build(_)), "{e}");
    assert!(e.to_string().contains("exact integer range"), "{e}");
}

#[test]
fn only_constants_read_as_integers_are_bounded() {
    // A real argument need only be real; an `int` one beyond 2^52 is refused.
    let source = |arg: &str| {
        format!(
            "f(input float x, param {arg}, output float y) {{ y = x * s; }}
             main(input float x, output float y) {{ f(x, 100000000 * 100000000, y); }}"
        )
    };
    let compiled = Compiler::host_only().compile(&source("float s"), &Bindings::default());
    let x = Tensor::scalar(pmlang::DType::Float, 2.0);
    let out = Machine::new((*compiled.unwrap().graph).clone())
        .invoke(&HashMap::from([("x".to_string(), x)]))
        .unwrap();
    assert_eq!(out["y"].scalar_value().unwrap(), 2e16);

    let e = Compiler::host_only().build_graph(&source("int s"), &Bindings::default()).unwrap_err();
    assert!(matches!(e, PolyMathError::Build(_)), "{e}");
    assert!(e.to_string().contains("exact integer range"), "{e}");
}

#[test]
fn runtime_out_of_bounds_is_an_exec_error() {
    // Index arithmetic escapes the tensor: the interpreter reports it.
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i + 2];
             }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), vec_t(vec![1.0, 2.0, 3.0, 4.0]))]);
    let err = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap_err();
    assert!(err.to_string().contains("out of bounds"), "{err}");
}

#[test]
fn bitrev_outside_its_range_is_an_exec_error() {
    // A width past 64 bits is refused, not a shift overflow.
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x, output float y) { y = bitrev(x, 70.0); }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), Tensor::scalar(pmlang::DType::Float, 5.0))]);
    let err = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap_err();
    assert!(err.to_string().contains("bitrev needs"), "{err}");
}

#[test]
fn missing_and_misshapen_feeds_are_named() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i]; }",
            &Bindings::default(),
        )
        .unwrap();
    let err = Machine::new((*compiled.graph).clone()).invoke(&HashMap::new()).unwrap_err();
    assert!(err.to_string().contains("`x`"), "{err}");

    let feeds = HashMap::from([("x".to_string(), vec_t(vec![1.0, 2.0]))]);
    let err = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap_err();
    assert!(err.to_string().contains("shape"), "{err}");
}

#[test]
fn complex_fed_into_real_program_is_rejected() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i]; }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([(
        "x".to_string(),
        Tensor::from_complex_vec(vec![2], vec![(1.0, 1.0), (2.0, 2.0)]).unwrap(),
    )]);
    // Shape matches but the dtype does not: the write into the real output
    // fails with a typed error.
    let result = Machine::new((*compiled.graph).clone()).invoke(&feeds);
    assert!(result.is_err());
}

#[test]
fn lowering_failure_names_the_operation_and_target() {
    // A target without nonlinear units cannot take sigmoid.
    use pm_lower::{lower, AcceleratorSpec, TargetMap};
    let (prog, _) = pmlang::frontend(
        "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = sigmoid(x[i]); }",
    )
    .unwrap();
    let mut g = srdfg::build(&prog, &Bindings::default()).unwrap();
    g.domain = Some(pmlang::Domain::DataAnalytics);
    let mut targets =
        TargetMap::host_only(AcceleratorSpec::new("BARE", pmlang::Domain::DataAnalytics, []));
    targets.set(AcceleratorSpec::new(
        "NOSIG",
        pmlang::Domain::DataAnalytics,
        ["add", "mul", "const", "unpack", "pack"],
    ));
    let err = lower(&mut g, &targets).unwrap_err();
    assert!(err.to_string().contains("sigmoid"), "{err}");
    assert!(err.to_string().contains("NOSIG"), "{err}");
}

#[test]
fn expansion_cap_failure_is_reported_not_fatal() {
    use pm_lower::{lower, AcceleratorSpec, TargetMap};
    let (prog, _) = pmlang::frontend(
        "main(input float x[3000000], output float y[3000000]) {
             index i[0:2999999]; y[i] = x[i] + 1.0;
         }",
    )
    .unwrap();
    let mut g = srdfg::build(&prog, &Bindings::default()).unwrap();
    g.domain = Some(pmlang::Domain::Dsp);
    // Two scalar nodes per point: the estimate alone exceeds the limit.
    let tiny =
        AcceleratorSpec::new("TINY", pmlang::Domain::Dsp, ["add", "const", "unpack", "pack"]);
    let mut targets = TargetMap::host_only(AcceleratorSpec::new("BARE", pmlang::Domain::Dsp, []));
    targets.set(tiny);
    let err = lower(&mut g, &targets).unwrap_err();
    assert!(err.to_string().contains("limit"), "{err}");
}

#[test]
fn division_by_zero_flows_as_ieee_infinity() {
    // PMLang adopts IEEE semantics rather than trapping (documented).
    let compiled = Compiler::host_only()
        .compile("main(input float x, output float y) { y = 1.0 / x; }", &Bindings::default())
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), Tensor::scalar(pmlang::DType::Float, 0.0))]);
    let out = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap();
    assert!(out["y"].scalar_value().unwrap().is_infinite());
}

#[test]
fn deep_nesting_works_below_the_limit_and_errors_above() {
    // 80 levels: compiles and evaluates.
    let mut expr = String::from("x");
    for _ in 0..80 {
        expr = format!("({expr} + 1.0)");
    }
    let src = format!("main(input float x, output float y) {{ y = {expr}; }}");
    let compiled = Compiler::host_only().compile(&src, &Bindings::default()).unwrap();
    let feeds = HashMap::from([("x".to_string(), Tensor::scalar(pmlang::DType::Float, 0.0))]);
    let out = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap();
    assert_eq!(out["y"].scalar_value().unwrap(), 80.0);

    // 400 levels: a diagnostic, not a stack overflow.
    let mut expr = String::from("x");
    for _ in 0..400 {
        expr = format!("({expr} + 1.0)");
    }
    let src = format!("main(input float x, output float y) {{ y = {expr}; }}");
    let err = Compiler::host_only().compile(&src, &Bindings::default()).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn state_persists_only_within_one_machine() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x, state float acc, output float y) {
                 acc = acc + x;
                 y = acc;
             }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), Tensor::scalar(pmlang::DType::Float, 5.0))]);
    let mut m1 = Machine::new((*compiled.graph).clone());
    m1.invoke(&feeds).unwrap();
    let out = m1.invoke(&feeds).unwrap();
    assert_eq!(out["y"].scalar_value().unwrap(), 10.0);
    // A fresh machine starts from zeroed state.
    let mut m2 = Machine::new((*compiled.graph).clone());
    let out = m2.invoke(&feeds).unwrap();
    assert_eq!(out["y"].scalar_value().unwrap(), 5.0);
}

#[test]
fn empty_index_ranges_produce_identity_results() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[4], output float s, output float p) {
                 index i[0:3], j[3:2];
                 s = sum[j](x[j]);
                 p = prod[j](x[j]) + sum[i](x[i]) * 0.0;
             }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), vec_t(vec![2.0, 2.0, 2.0, 2.0]))]);
    let out = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap();
    assert_eq!(out["s"].scalar_value().unwrap(), 0.0, "empty sum = 0");
    assert_eq!(out["p"].scalar_value().unwrap(), 1.0, "empty prod = 1");
}
