//! Recursive-descent parser for PMLang.
//!
//! Grammar sketch (see `ast` for node meanings):
//!
//! ```text
//! program    := (component | reduction)*
//! reduction  := "reduction" IDENT "(" IDENT "," IDENT ")" "=" expr ";"
//! component  := IDENT "(" args? ")" "{" stmt* "}"
//! arg        := modifier dtype IDENT ("[" expr "]")*
//! stmt       := "index" spec ("," spec)* ";"
//!             | dtype decl ("," decl)* ";"
//!             | IDENT ("[" expr "]")* "=" expr ";"
//!             | (DOMAIN ":")? IDENT "(" exprs? ")" ";"
//! spec       := IDENT "[" expr ":" expr "]"
//! expr       := unary (INFIX expr)*, resolved by precedence climbing over
//!               one binding-power table (`?:` lowest, `^` highest); the
//!               operands of `-`/`!` are unary, group reductions are
//!               `name[iters](body)` where each iter is `IDENT (":" expr)?`
//! ```
//!
//! The parser copies out of the tokens only what the AST keeps, and never
//! builds an expression deeper than semantic analysis accepts
//! ([`MAX_EXPR_DEPTH`]): no recursion here or downstream can overflow.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::sema::MAX_EXPR_DEPTH;
use crate::span::Span;
use crate::token::{unescape, Token, TokenKind};

/// Parses PMLang source text into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem encountered.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pmlang::ParseError> {
/// let prog = pmlang::parse(
///     "main(input float x[n], output float y[n]) {
///          index i[0:n-1];
///          y[i] = 2.0 * x[i];
///      }",
/// )?;
/// assert!(prog.main().is_some());
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0, nesting: 0, level: 0 }.program()
}

/// Maximum number of open parenthesised, bracketed or argument
/// expressions. Parentheses add no tree level, so this bounds the
/// recursion [`MAX_EXPR_DEPTH`] does not.
const MAX_NESTING: usize = 96;

/// A parsed expression and its height: the number of levels below its
/// root (0 for a leaf).
type Tree = (Expr, usize);

/// What an infix token builds: `cond ? then : otherwise`, or `lhs op rhs`.
#[derive(Clone, Copy)]
enum Infix {
    Ternary,
    Binary(BinOp),
}

/// The binding-power table: how tightly each infix operator binds (higher
/// is tighter). Every level associates to the left except `?:` and `^`.
fn infix(kind: TokenKind<'_>) -> Option<(u8, Infix)> {
    let (bp, op) = match kind {
        TokenKind::Question => return Some((1, Infix::Ternary)),
        TokenKind::OrOr => (2, BinOp::Or),
        TokenKind::AndAnd => (3, BinOp::And),
        TokenKind::EqEq => (4, BinOp::Eq),
        TokenKind::NotEq => (4, BinOp::Ne),
        TokenKind::Le => (5, BinOp::Le),
        TokenKind::Ge => (5, BinOp::Ge),
        TokenKind::Lt => (5, BinOp::Lt),
        TokenKind::Gt => (5, BinOp::Gt),
        TokenKind::Plus => (6, BinOp::Add),
        TokenKind::Minus => (6, BinOp::Sub),
        TokenKind::Star => (7, BinOp::Mul),
        TokenKind::Slash => (7, BinOp::Div),
        TokenKind::Percent => (7, BinOp::Mod),
        TokenKind::Caret => (8, BinOp::Pow),
        _ => return None,
    };
    Some((bp, Infix::Binary(op)))
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Open [`Parser::nested`] calls.
    nesting: usize,
    /// Tree level of the expression being parsed below its statement's
    /// root expression.
    level: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind<'a> {
        self.peek().kind
    }

    fn peek_at(&self, offset: usize) -> TokenKind<'a> {
        self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token<'a> {
        let t = *self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: TokenKind<'a>) -> Result<Token<'a>, ParseError> {
        if self.peek_kind() == kind {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek_kind())))
        }
    }

    fn eat(&mut self, kind: TokenKind<'a>) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { message, span: self.peek().span }
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek_kind() {
            TokenKind::Ident(name) => Ok((name.into(), self.bump().span)),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        while self.peek_kind() != TokenKind::Eof {
            if self.peek_kind() == TokenKind::Reduction {
                prog.reductions.push(self.reduction_def()?);
            } else {
                prog.components.push(self.component()?);
            }
        }
        Ok(prog)
    }

    fn reduction_def(&mut self) -> Result<ReductionDef, ParseError> {
        let start = self.expect(TokenKind::Reduction)?.span;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let (acc, _) = self.ident()?;
        self.expect(TokenKind::Comma)?;
        let (elem, _) = self.ident()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Assign)?;
        let body = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(ReductionDef { name, acc, elem, body, span: start.merge(end) })
    }

    fn component(&mut self) -> Result<Component, ParseError> {
        let (name, start) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek_kind() != TokenKind::RParen {
            loop {
                args.push(self.arg_decl()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut body = Vec::new();
        while self.peek_kind() != TokenKind::RBrace {
            if self.peek_kind() == TokenKind::Eof {
                return Err(self.err(format!("unterminated body of component `{name}`")));
            }
            body.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Component { name, args, body, span: start.merge(end) })
    }

    fn arg_decl(&mut self) -> Result<ArgDecl, ParseError> {
        let start = self.peek().span;
        let modifier = match self.peek_kind() {
            TokenKind::Input => TypeModifier::Input,
            TokenKind::Output => TypeModifier::Output,
            TokenKind::State => TypeModifier::State,
            TokenKind::Param => TypeModifier::Param,
            other => {
                return Err(self.err(format!(
                    "expected type modifier (input/output/state/param), found {other}"
                )))
            }
        };
        self.bump();
        let dtype = self.dtype()?;
        let (name, _) = self.ident()?;
        let mut dims = Vec::new();
        while self.eat(TokenKind::LBracket) {
            dims.push(self.expr()?);
            self.expect(TokenKind::RBracket)?;
        }
        let end = self.tokens[self.pos - 1].span;
        Ok(ArgDecl { modifier, dtype, name, dims, span: start.merge(end) })
    }

    fn dtype(&mut self) -> Result<DType, ParseError> {
        let d = match self.peek_kind() {
            TokenKind::Bin => DType::Bool,
            TokenKind::IntTy => DType::Int,
            TokenKind::FloatTy => DType::Float,
            TokenKind::StrTy => DType::Str,
            TokenKind::ComplexTy => DType::Complex,
            other => return Err(self.err(format!("expected data type, found {other}"))),
        };
        self.bump();
        Ok(d)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek_kind() {
            TokenKind::Index => self.index_decl(),
            k if k.is_dtype() => self.var_decl(),
            TokenKind::Ident(_) => self.assign_or_instantiate(),
            other => Err(self.err(format!("expected statement, found {other}"))),
        }
    }

    fn index_decl(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(TokenKind::Index)?.span;
        let mut specs = Vec::new();
        loop {
            let (name, ispan) = self.ident()?;
            self.expect(TokenKind::LBracket)?;
            let lo = self.expr()?;
            self.expect(TokenKind::Colon)?;
            let hi = self.expr()?;
            let rb = self.expect(TokenKind::RBracket)?.span;
            specs.push(IndexSpec { name, lo, hi, span: ispan.merge(rb) });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::IndexDecl { specs, span: start.merge(end) })
    }

    fn var_decl(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        let dtype = self.dtype()?;
        let mut vars = Vec::new();
        loop {
            let (name, _) = self.ident()?;
            let mut dims = Vec::new();
            while self.eat(TokenKind::LBracket) {
                dims.push(self.expr()?);
                self.expect(TokenKind::RBracket)?;
            }
            vars.push((name, dims));
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::VarDecl { dtype, vars, span: start.merge(end) })
    }

    /// Parses `x[i] = expr;`, `comp(args);`, or either prefixed with a
    /// domain annotation (`RBT: comp(args);`, `GA: lvl[v] = ...;`).
    fn assign_or_instantiate(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        // Domain annotation: `RBT:` / `GA:` / … before the statement.
        let mut domain = None;
        if let TokenKind::Ident(word) = self.peek_kind() {
            if let Some(d) = Domain::from_keyword(word) {
                if self.peek_at(1) == TokenKind::Colon {
                    self.bump(); // domain keyword
                    self.bump(); // colon
                    domain = Some(d);
                }
            }
        }
        // Instantiation: an identifier immediately followed by `(` at
        // statement position.
        if matches!(self.peek_kind(), TokenKind::Ident(_)) && self.peek_at(1) == TokenKind::LParen {
            return self.instantiate(domain, start);
        }
        // Otherwise an assignment.
        let (target, _) = self.ident()?;
        let mut indices = Vec::new();
        while self.eat(TokenKind::LBracket) {
            indices.push(self.expr()?);
            self.expect(TokenKind::RBracket)?;
        }
        self.expect(TokenKind::Assign)?;
        let value = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Assign { domain, target, indices, value, span: start.merge(end) })
    }

    fn instantiate(&mut self, domain: Option<Domain>, start: Span) -> Result<Stmt, ParseError> {
        let (component, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek_kind() != TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Instantiate { domain, component, args, span: start.merge(end) })
    }

    // ---- expressions -------------------------------------------------

    /// A statement's expression: the root of its own tree.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.nested()?.0)
    }

    /// A full expression (ternaries included) opened by a statement, a
    /// parenthesis, a bracket or an argument list.
    fn nested(&mut self) -> Result<Tree, ParseError> {
        self.nesting += 1;
        if self.nesting > MAX_NESTING {
            return Err(self.too_deep(MAX_NESTING));
        }
        let tree = self.climb(0);
        self.nesting -= 1;
        tree
    }

    /// Parses the operand of the node being built, one tree level down.
    fn child(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Tree, ParseError>,
    ) -> Result<Tree, ParseError> {
        self.level += 1;
        if self.level > MAX_EXPR_DEPTH {
            return Err(self.too_deep(MAX_EXPR_DEPTH));
        }
        let tree = parse(self);
        self.level -= 1;
        tree
    }

    /// A node of `height` at the current level, unless that makes the
    /// statement's tree deeper than semantic analysis accepts.
    fn node(&self, kind: ExprKind, span: Span, height: usize) -> Result<Tree, ParseError> {
        if self.level + height > MAX_EXPR_DEPTH {
            return Err(self.too_deep(MAX_EXPR_DEPTH));
        }
        Ok((Expr::new(kind, span), height))
    }

    fn too_deep(&self, limit: usize) -> ParseError {
        self.err(format!("expression nesting exceeds the {limit}-level limit"))
    }

    /// Precedence climbing: a unary operand, then every infix operator
    /// that binds at least as tightly as `min_bp`, each with its right
    /// operand.
    fn climb(&mut self, min_bp: u8) -> Result<Tree, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((bp, infix)) = infix(self.peek_kind()) {
            if bp < min_bp {
                break;
            }
            self.bump();
            lhs = match infix {
                Infix::Ternary => {
                    let (then, then_h) = self.child(Self::nested)?;
                    self.expect(TokenKind::Colon)?;
                    let (otherwise, else_h) = self.child(|p| p.climb(bp))?;
                    let (cond, cond_h) = lhs;
                    let span = cond.span.merge(otherwise.span);
                    let kind = ExprKind::Ternary {
                        cond: Box::new(cond),
                        then: Box::new(then),
                        otherwise: Box::new(otherwise),
                    };
                    self.node(kind, span, 1 + cond_h.max(then_h).max(else_h))?
                }
                Infix::Binary(op) => {
                    let rbp = if op == BinOp::Pow { bp } else { bp + 1 };
                    let (rhs, rhs_h) = self.child(|p| p.climb(rbp))?;
                    let (lhs, lhs_h) = lhs;
                    let span = lhs.span.merge(rhs.span);
                    let kind = ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
                    self.node(kind, span, 1 + lhs_h.max(rhs_h))?
                }
            };
        }
        Ok(lhs)
    }

    /// `-` and `!` bind tighter than every infix operator, `^` included.
    fn unary(&mut self) -> Result<Tree, ParseError> {
        let span = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.postfix(),
        };
        self.bump();
        let (operand, height) = self.child(Self::unary)?;
        let span = span.merge(operand.span);
        self.node(ExprKind::Unary { op, operand: Box::new(operand) }, span, height + 1)
    }

    fn postfix(&mut self) -> Result<Tree, ParseError> {
        let span = self.peek().span;
        let kind = match self.peek_kind() {
            TokenKind::Int(v) => ExprKind::IntLit(v),
            TokenKind::Float(v) => ExprKind::FloatLit(v),
            TokenKind::Str(raw) => ExprKind::StrLit(unescape(raw)),
            TokenKind::LParen => {
                self.bump();
                let inner = self.nested()?;
                self.expect(TokenKind::RParen)?;
                return Ok(inner);
            }
            TokenKind::Ident(name) => {
                self.bump();
                return self.ident_postfix(name, span);
            }
            // `complex` is a type keyword, but `complex(re, im)` is also
            // the complex-number constructor in expressions.
            TokenKind::ComplexTy if self.peek_at(1) == TokenKind::LParen => {
                self.bump();
                return self.ident_postfix("complex", span);
            }
            other => return Err(self.err(format!("expected expression, found {other}"))),
        };
        self.bump();
        Ok((Expr::new(kind, span), 0))
    }

    /// After an identifier: `name(args)` is a call, `name[..]..(body)` is a
    /// group reduction, `name[..]..` is an indexed access, bare `name` a var.
    fn ident_postfix(&mut self, name: &str, span: Span) -> Result<Tree, ParseError> {
        if self.eat(TokenKind::LParen) {
            let mut args = Vec::new();
            let mut height = 0;
            if self.peek_kind() != TokenKind::RParen {
                loop {
                    let (arg, h) = self.child(Self::nested)?;
                    height = height.max(h + 1);
                    args.push(arg);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
            }
            let end = self.expect(TokenKind::RParen)?.span;
            let kind = ExprKind::Call { name: name.into(), args };
            return self.node(kind, span.merge(end), height);
        }
        if self.peek_kind() != TokenKind::LBracket {
            return Ok((Expr::new(ExprKind::Var(name.into()), span), 0));
        }
        // Parse bracket groups: `(index expression, condition, span)`. A
        // group is an access index or a reduce iter; `(` after the last
        // one decides which.
        let mut groups: Vec<(Expr, Option<Expr>, Span)> = Vec::new();
        let (mut index_h, mut cond_h) = (0, 0);
        let mut end = span;
        while self.eat(TokenKind::LBracket) {
            let gstart = self.peek().span;
            let (inner, h) = self.child(Self::nested)?;
            index_h = index_h.max(h + 1);
            let cond = if self.eat(TokenKind::Colon) {
                // Conditional form: only valid as a reduce iter.
                let (cond, h) = self.child(Self::nested)?;
                if !matches!(inner.kind, ExprKind::Var(_)) {
                    return Err(self.err(
                        "conditional index group requires a plain index variable before `:`".into(),
                    ));
                }
                cond_h = cond_h.max(h + 1);
                Some(cond)
            } else {
                None
            };
            end = self.expect(TokenKind::RBracket)?.span;
            groups.push((inner, cond, gstart));
        }
        if self.peek_kind() == TokenKind::LParen {
            // Group reduction.
            if !groups.iter().all(|(inner, ..)| matches!(inner.kind, ExprKind::Var(_))) {
                return Err(self.err(format!(
                    "reduction `{name}` requires plain index variables in its bracket groups"
                )));
            }
            let iters = groups
                .into_iter()
                .map(|(inner, cond, span)| {
                    let ExprKind::Var(index) = inner.kind else { unreachable!("checked above") };
                    ReduceIter { index, cond, span }
                })
                .collect();
            self.bump(); // (
            let (body, body_h) = self.child(Self::nested)?;
            let end = self.expect(TokenKind::RParen)?.span;
            let kind = ExprKind::Reduce { op: name.into(), iters, body: Box::new(body) };
            return self.node(kind, span.merge(end), cond_h.max(body_h + 1));
        }
        // Indexed access. Conditional groups are not valid here.
        if groups.iter().any(|(_, cond, _)| cond.is_some()) {
            return Err(self
                .err(format!("conditional index group on `{name}` is only valid in a reduction")));
        }
        let indices = groups.into_iter().map(|(inner, ..)| inner).collect();
        self.node(ExprKind::Access { name: name.into(), indices }, span.merge(end), index_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_expr(src: &str) -> Expr {
        let prog = parse(&format!(
            "main(input float A[n][m], input float B[n], param int h, output float y) {{\
                 index i[0:n-1], j[0:m-1];\
                 y = {src};\
             }}"
        ))
        .unwrap();
        match &prog.components[0].body[1] {
            Stmt::Assign { value, .. } => value.clone(),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_mpc_program() {
        let src = r#"
            mvmul(input float A[m][n], input float B[n], output float C[m]) {
                index i[0:n-1], j[0:m-1];
                C[j] = sum[i](A[j][i]*B[i]);
            }
            main(input float pos[3], state float ctrl_mdl[20],
                 param float P[30][3], output float ctrl_sgnl[2]) {
                float pos_pred[30];
                index i[0:9], j[0:1];
                RBT: mvmul(P, pos, pos_pred);
                ctrl_sgnl[j] = ctrl_mdl[10*j];
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.components.len(), 2);
        let main = prog.main().unwrap();
        assert_eq!(main.args.len(), 4);
        assert_eq!(main.args[1].modifier, TypeModifier::State);
        match &main.body[2] {
            Stmt::Instantiate { domain, component, args, .. } => {
                assert_eq!(*domain, Some(Domain::Robotics));
                assert_eq!(component, "mvmul");
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected instantiation, got {other:?}"),
        }
    }

    #[test]
    fn parses_reduction_with_condition() {
        let e = parse_expr("sum[i][j: j != i](A[i][j])");
        match e.kind {
            ExprKind::Reduce { op, iters, .. } => {
                assert_eq!(op, "sum");
                assert_eq!(iters.len(), 2);
                assert!(iters[0].cond.is_none());
                assert!(iters[1].cond.is_some());
            }
            other => panic!("expected reduce, got {other:?}"),
        }
    }

    #[test]
    fn parses_custom_reduction_def() {
        let prog = parse(
            "reduction min2(a, b) = a < b ? a : b;\
             main(input float x, output float y) { y = x; }",
        )
        .unwrap();
        assert_eq!(prog.reductions.len(), 1);
        let r = &prog.reductions[0];
        assert_eq!(r.name, "min2");
        assert!(matches!(r.body.kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn parses_strided_access() {
        let e = parse_expr("B[(i+1)*h]");
        match e.kind {
            ExprKind::Access { name, indices } => {
                assert_eq!(name, "B");
                assert_eq!(indices.len(), 1);
                assert!(matches!(indices[0].kind, ExprKind::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("expected access, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3");
        match e.kind {
            ExprKind::Binary { op: BinOp::Add, rhs, .. } => {
                assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn power_is_right_associative() {
        let e = parse_expr("2 ^ 3 ^ 2");
        match e.kind {
            ExprKind::Binary { op: BinOp::Pow, lhs, rhs } => {
                assert!(matches!(lhs.kind, ExprKind::IntLit(2)));
                assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Pow, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_binds_tighter_than_mul() {
        let e = parse_expr("-A[i][j] * 2");
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn call_vs_access_vs_reduce() {
        assert!(matches!(parse_expr("sigmoid(B[i])").kind, ExprKind::Call { .. }));
        assert!(matches!(parse_expr("A[i][j]").kind, ExprKind::Access { .. }));
        assert!(matches!(parse_expr("sum[i](B[i])").kind, ExprKind::Reduce { .. }));
    }

    #[test]
    fn var_decl_multiple() {
        let prog =
            parse("main(input float x, output float y) { float P_g[4], H_g[4]; y = x; }").unwrap();
        match &prog.main().unwrap().body[0] {
            Stmt::VarDecl { dtype, vars, .. } => {
                assert_eq!(*dtype, DType::Float);
                assert_eq!(vars.len(), 2);
                assert_eq!(vars[0].0, "P_g");
                assert_eq!(vars[1].1.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_conditional_index_on_access() {
        let res = parse(
            "main(input float A[n][n], output float y) {
                index i[0:n-1], j[0:n-1];
                y = A[i: i != 0][j];
             }",
        );
        assert!(res.is_err());
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse("main(input float x, output float y) { y = x }").is_err());
    }

    #[test]
    fn rejects_unterminated_component() {
        assert!(parse("main(input float x, output float y) { y = x;").is_err());
    }

    #[test]
    fn error_mentions_location() {
        let err = parse("main(input float x, output float y) {\n  y = ;\n}").unwrap_err();
        assert!(err.span.line >= 2, "{err}");
    }

    #[test]
    fn empty_arg_list() {
        let prog = parse("main() { float t; t = 1.0; }").unwrap();
        assert!(prog.main().unwrap().args.is_empty());
    }

    #[test]
    fn domain_annotations_all_parse() {
        for kw in ["RBT", "GA", "DSP", "DA", "DL"] {
            let src = format!(
                "f(input float x, output float y) {{ y = x; }}\
                 main(input float a, output float b) {{ {kw}: f(a, b); }}"
            );
            let prog = parse(&src).unwrap();
            match &prog.main().unwrap().body[0] {
                Stmt::Instantiate { domain, .. } => assert!(domain.is_some()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn statement_level_domain_annotation() {
        let prog = parse(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 GA: y[i] = x[i] + 1.0;
             }",
        )
        .unwrap();
        match &prog.main().unwrap().body[1] {
            Stmt::Assign { domain, .. } => assert_eq!(*domain, Some(Domain::GraphAnalytics)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn complex_constructor_in_expressions() {
        let e = parse_expr("complex(1.0, 2.0)");
        match e.kind {
            ExprKind::Call { name, args } => {
                assert_eq!(name, "complex");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nesting_limit_is_a_parse_error() {
        let mut expr = String::from("x");
        for _ in 0..150 {
            expr = format!("({expr})");
        }
        let err =
            parse(&format!("main(input float x, output float y) {{ y = {expr}; }}")).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn nested_ternary() {
        let e = parse_expr("A[i][j] < 0.0 ? 0.0 : A[i][j] > 1.0 ? 1.0 : A[i][j]");
        match e.kind {
            ExprKind::Ternary { otherwise, .. } => {
                assert!(matches!(otherwise.kind, ExprKind::Ternary { .. }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comparison_in_reduce_condition_parses_fully() {
        let e = parse_expr("sum[i: i % 2 == 0](B[i])");
        match e.kind {
            ExprKind::Reduce { iters, .. } => {
                let cond = iters[0].cond.as_ref().unwrap();
                assert!(matches!(cond.kind, ExprKind::Binary { op: BinOp::Eq, .. }));
            }
            other => panic!("{other:?}"),
        }
    }
}
