//! Golden diagnostics: the messages and source locations a user sees for
//! common mistakes. These pin the frontend's error quality — a change
//! that degrades a span to 0:0 or a message to something generic fails
//! here, not in a bug report.

/// Asserts the frontend rejects `src` with a message containing `what`
/// at line:col `where_` (1-based, as rendered by Display).
fn rejects(src: &str, what: &str, where_: &str) {
    let err = pmlang::frontend(src).expect_err("should be rejected");
    let msg = err.to_string();
    assert!(msg.contains(what), "expected `{what}` in: {msg}");
    assert!(msg.contains(where_), "expected location `{where_}` in: {msg}");
}

#[test]
fn undeclared_variable_read() {
    rejects(
        "main(input float x, output float y) { y = z + 1.0; }",
        "undeclared variable `z`",
        "1:43",
    );
}

#[test]
fn assignment_to_undeclared() {
    rejects(
        "main(input float x, output float y) { w = x; y = x; }",
        "assignment to undeclared `w`",
        "1:39",
    );
}

#[test]
fn assignment_to_input() {
    rejects(
        "main(input float x, output float y) { x = 1.0; y = x; }",
        "cannot assign to input `x`",
        "1:39",
    );
}

#[test]
fn assignment_to_param() {
    rejects(
        "main(input float x, param float p, output float y) { p = 1.0; y = x; }",
        "cannot assign to param `p`",
        "1:54",
    );
}

#[test]
fn assignment_to_index_variable() {
    rejects(
        "main(input float x[4], output float y) { index i[0:3]; i = 1; y = sum[i](x[i]); }",
        "cannot assign to index variable `i`",
        "1:56",
    );
}

#[test]
fn lhs_rank_mismatch_under_indexed() {
    rejects(
        "main(input float x[4], output float y[4]) { y = x; }",
        "`y` has rank 1 but the left-hand side uses 0 indices",
        "1:45",
    );
}

#[test]
fn lhs_rank_mismatch_over_indexed() {
    rejects(
        "main(input float x[4], output float y) { index i[0:3]; y[i] = x[i]; }",
        "`y` has rank 0 but the left-hand side uses 1 index",
        "1:56",
    );
}

#[test]
fn duplicate_argument() {
    rejects(
        "main(input float x, input float x, output float y) { y = x; }",
        "duplicate argument `x`",
        "1:21",
    );
}

#[test]
fn duplicate_local_name() {
    rejects(
        "main(input float x, output float y) { float t; float t; y = x; }",
        "duplicate name `t`",
        "1:48",
    );
}

#[test]
fn unknown_component_instantiation() {
    rejects(
        "main(input float x, output float y) { nosuch(x, y); }",
        "instantiation of unknown component `nosuch`",
        "1:39",
    );
}

#[test]
fn self_instantiation() {
    rejects(
        "main(input float x, output float y) { main(x, y); }",
        "component `main` instantiates itself",
        "1:39",
    );
}

#[test]
fn wrong_instantiation_arity() {
    rejects(
        "f(input float a, output float b) { b = a; }
         main(input float x, output float y) { f(x); }",
        "`f` expects 2 arguments, got 1",
        "2:48",
    );
}

#[test]
fn unterminated_block_is_a_parse_error() {
    let err = pmlang::frontend("main(input float x, output float y) { y = x;")
        .expect_err("should be rejected");
    assert!(!err.to_string().is_empty());
}

#[test]
fn expression_depth_limit_is_a_diagnostic() {
    let expr = format!("{}x{}", "(".repeat(200), ")".repeat(200));
    let src = format!("main(input float x, output float y) {{ y = {expr}; }}");
    let err = pmlang::frontend(&src).expect_err("should be rejected");
    assert!(err.to_string().contains("nesting exceeds"), "{err}");
}

/// Operators in each long chain below: enough that a parser recursing
/// once per operator, or a 300,000-level tree dropped recursively,
/// overflowed the stack and aborted the process.
const LONG_CHAIN: usize = 300_000;

/// Asserts `y = <expr>;` is refused while it is parsed, with the tree
/// limit semantic analysis applies, at line:col `where_`.
fn chain_is_refused(expr: &str, where_: &str) {
    let src = format!("main(input float x, output float y) {{ y = {expr}; }}");
    let err = pmlang::frontend(&src).expect_err("should be rejected");
    assert!(matches!(err, pmlang::FrontendError::Parse(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("expression nesting exceeds the 128-level limit"), "{msg}");
    assert!(msg.contains(where_), "expected location `{where_}` in: {msg}");
}

#[test]
fn a_long_negation_chain_is_a_parse_error() {
    chain_is_refused(&format!("{}x", "-".repeat(LONG_CHAIN)), "1:172");
}

#[test]
fn a_long_not_chain_is_a_parse_error() {
    chain_is_refused(&format!("{}x", "!".repeat(LONG_CHAIN)), "1:172");
}

#[test]
fn a_long_power_chain_is_a_parse_error() {
    chain_is_refused(&format!("x{}", "^x".repeat(LONG_CHAIN)), "1:301");
}

#[test]
fn a_long_sum_chain_is_a_parse_error() {
    chain_is_refused(&format!("x{}", "+x".repeat(LONG_CHAIN)), "1:302");
}

/// The parser's limit is semantic analysis's: the deepest tree it accepts
/// still checks, one level more is refused. A 3,000-term sum, which
/// parsed and then failed the semantic check, is now a parse error.
#[test]
fn the_parser_accepts_exactly_the_trees_semantic_analysis_does() {
    for (ok, too_deep) in [
        ("-".repeat(128) + "x", "-".repeat(129) + "x"),
        ("x".to_string() + &"+x".repeat(128), "x".to_string() + &"+x".repeat(129)),
        ("x ? x : ".repeat(128) + "x", "x ? x : ".repeat(129) + "x"),
    ] {
        let src = format!("main(input float x, output float y) {{ y = {ok}; }}");
        pmlang::frontend(&src).unwrap_or_else(|e| panic!("{e}"));
        chain_is_refused(&too_deep, "1:");
    }
    chain_is_refused(&format!("x{}", "+x".repeat(3_000)), "1:302");
}

#[test]
fn errors_name_the_right_line_in_multiline_programs() {
    rejects(
        "f(input float a, output float b) {
    b = a;
}
main(input float x, output float y) {
    float t;
    t = q;
    f(t, y);
}",
        "undeclared variable `q`",
        "6:9",
    );
}
