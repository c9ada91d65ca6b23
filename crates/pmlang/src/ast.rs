//! Abstract syntax tree for PMLang.
//!
//! The AST mirrors the paper's language constructs: *components* with
//! type-modified arguments, *index variables*, mathematical statements with
//! group reductions and Boolean index conditionals, *custom reductions*,
//! and *domain annotations* on component instantiations.

use crate::span::Span;
use std::fmt;

/// PMLang data types (paper Table I: `bin`, `int`, `float`, `str`, `complex`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Boolean (`bin`).
    Bool,
    /// 64-bit signed integer (`int`).
    Int,
    /// 64-bit float (`float`).
    Float,
    /// String (`str`) — only used for labels/configuration.
    Str,
    /// Complex number with `f64` components (`complex`).
    Complex,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DType::Bool => "bin",
            DType::Int => "int",
            DType::Float => "float",
            DType::Str => "str",
            DType::Complex => "complex",
        })
    }
}

/// Argument type modifiers (paper §II.A): how a component uses an argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeModifier {
    /// Read-only flow of data into the component, used once and discarded.
    Input,
    /// Write-only flow of data out of the component.
    Output,
    /// Read/write data preserved across invocations (e.g. an ML model).
    State,
    /// Constant used to parameterize the component.
    Param,
}

impl fmt::Display for TypeModifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TypeModifier::Input => "input",
            TypeModifier::Output => "output",
            TypeModifier::State => "state",
            TypeModifier::Param => "param",
        })
    }
}

/// The five PolyMath target domains (paper §II.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// `RBT` — Robotics / control theory.
    Robotics,
    /// `GA` — Graph analytics.
    GraphAnalytics,
    /// `DSP` — Digital signal processing.
    Dsp,
    /// `DA` — Data analytics / classical ML.
    DataAnalytics,
    /// `DL` — Deep learning.
    DeepLearning,
}

impl Domain {
    /// Parses a domain annotation keyword (`RBT`, `GA`, `DSP`, `DA`, `DL`).
    pub fn from_keyword(word: &str) -> Option<Domain> {
        Some(match word {
            "RBT" => Domain::Robotics,
            "GA" => Domain::GraphAnalytics,
            "DSP" => Domain::Dsp,
            "DA" => Domain::DataAnalytics,
            "DL" => Domain::DeepLearning,
            _ => return None,
        })
    }

    /// The annotation keyword for this domain.
    pub fn keyword(&self) -> &'static str {
        match self {
            Domain::Robotics => "RBT",
            Domain::GraphAnalytics => "GA",
            Domain::Dsp => "DSP",
            Domain::DataAnalytics => "DA",
            Domain::DeepLearning => "DL",
        }
    }

    /// All five domains, in the paper's order.
    pub fn all() -> [Domain; 5] {
        [
            Domain::Robotics,
            Domain::GraphAnalytics,
            Domain::Dsp,
            Domain::DataAnalytics,
            Domain::DeepLearning,
        ]
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Domain::Robotics => "Robotics",
            Domain::GraphAnalytics => "Graph Analytics",
            Domain::Dsp => "DSP",
            Domain::DataAnalytics => "Data Analytics",
            Domain::DeepLearning => "Deep Learning",
        })
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^` (power)
    Pow,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The operator's surface syntax.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's structure.
    pub kind: ExprKind,
    /// Location in the source text.
    pub span: Span,
}

impl Expr {
    /// Wraps `kind` with `span`.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Convenience constructor for an integer literal with a synthetic span.
    pub fn int(v: i64) -> Self {
        Expr::new(ExprKind::IntLit(v), Span::synthetic())
    }

    /// Convenience constructor for a variable reference with a synthetic span.
    pub fn var(name: &str) -> Self {
        Expr::new(ExprKind::Var(name.to_string()), Span::synthetic())
    }
}

/// One iteration axis of a group reduction, e.g. the `[j: j != i]` in
/// `sum[i][j: j != i](A[i][j])`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceIter {
    /// The index variable iterated over.
    pub index: String,
    /// Optional Boolean condition filtering the iteration.
    pub cond: Option<Expr>,
    /// Source span of the bracket group.
    pub span: Span,
}

/// Expression structure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// String literal.
    StrLit(String),
    /// Reference to a scalar variable or index variable.
    Var(String),
    /// Indexed access, `A[i][j]` or `ctrl_prev[(i+1)*h]`.
    Access {
        /// Variable being indexed.
        name: String,
        /// One index expression per dimension.
        indices: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Ternary conditional `cond ? then : else`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// Call of a built-in scalar function, e.g. `sigmoid(x)`, `complex(a, b)`.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Group reduction, e.g. `sum[i][j: j != i](A[i][j])`. `op` may be a
    /// built-in (`sum`, `prod`, `max`, `min`, `argmax`, `argmin`) or a custom
    /// reduction declared with `reduction name(a, b) = ...;`.
    Reduce {
        /// Reduction operator name.
        op: String,
        /// Iteration axes (with optional conditions).
        iters: Vec<ReduceIter>,
        /// The reduced expression.
        body: Box<Expr>,
    },
}

/// A single index-variable specification: `i[lo:hi]` (inclusive bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSpec {
    /// Index variable name.
    pub name: String,
    /// Lower bound (inclusive), an expression over params and literals.
    pub lo: Expr,
    /// Upper bound (inclusive).
    pub hi: Expr,
    /// Source span.
    pub span: Span,
}

/// A component-body statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `index i[0:n-1], j[0:m-1];`
    IndexDecl {
        /// Declared index variables.
        specs: Vec<IndexSpec>,
        /// Source span.
        span: Span,
    },
    /// Local variable declaration: `float P_g[b], H_g[b];`
    VarDecl {
        /// Element type.
        dtype: DType,
        /// Declared variables with their dimension expressions.
        vars: Vec<(String, Vec<Expr>)>,
        /// Source span.
        span: Span,
    },
    /// Assignment: `pred[k] = sum[i](P[k][i]*pos[i]);`, optionally
    /// domain-annotated (`GA: lvl[v] = ...;`).
    Assign {
        /// Optional domain annotation.
        domain: Option<Domain>,
        /// Target variable name.
        target: String,
        /// Index expressions on the left-hand side (free indices).
        indices: Vec<Expr>,
        /// Right-hand side.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// Component instantiation, optionally domain-annotated:
    /// `RBT: predict_trajectory(pos, ctrl_mdl, P, H, pos_pred);`
    Instantiate {
        /// Optional domain annotation.
        domain: Option<Domain>,
        /// Component name.
        component: String,
        /// Positional arguments (the callee's signature decides direction).
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
}

impl Stmt {
    /// The source span of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::IndexDecl { span, .. }
            | Stmt::VarDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::Instantiate { span, .. } => *span,
        }
    }
}

/// A component argument declaration, e.g. `input float pos[a]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgDecl {
    /// How the component uses this argument.
    pub modifier: TypeModifier,
    /// Element type.
    pub dtype: DType,
    /// Argument name.
    pub name: String,
    /// Dimension expressions (empty for scalars). Identifiers appearing here
    /// that are not otherwise bound become implicit size parameters.
    pub dims: Vec<Expr>,
    /// Source span.
    pub span: Span,
}

/// A reusable execution block (paper §II.A).
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name. The entry point must be named `main`.
    pub name: String,
    /// Arguments with type modifiers.
    pub args: Vec<ArgDecl>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source span of the whole component.
    pub span: Span,
}

impl Component {
    /// Returns the argument declaration named `name`, if any.
    pub fn arg(&self, name: &str) -> Option<&ArgDecl> {
        self.args.iter().find(|a| a.name == name)
    }
}

/// A custom reduction definition: `reduction min(a, b) = a < b ? a : b;`
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionDef {
    /// Reduction name.
    pub name: String,
    /// Name of the accumulator parameter.
    pub acc: String,
    /// Name of the element parameter.
    pub elem: String,
    /// Combining expression over `acc` and `elem`.
    pub body: Expr,
    /// Source span.
    pub span: Span,
}

/// A parsed PMLang program: components plus custom reduction definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All components, in source order.
    pub components: Vec<Component>,
    /// All custom reduction definitions, in source order.
    pub reductions: Vec<ReductionDef>,
}

impl Program {
    /// Returns the component named `name`, if any.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Returns the entry component (`main`), if present.
    pub fn main(&self) -> Option<&Component> {
        self.component("main")
    }

    /// Returns the custom reduction named `name`, if any.
    pub fn reduction(&self, name: &str) -> Option<&ReductionDef> {
        self.reductions.iter().find(|r| r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_keyword_roundtrip() {
        for d in Domain::all() {
            assert_eq!(Domain::from_keyword(d.keyword()), Some(d));
        }
        assert_eq!(Domain::from_keyword("ML"), None);
    }

    #[test]
    fn program_lookup() {
        let comp =
            Component { name: "main".into(), args: vec![], body: vec![], span: Span::synthetic() };
        let prog = Program { components: vec![comp], reductions: vec![] };
        assert!(prog.main().is_some());
        assert!(prog.component("other").is_none());
    }

    #[test]
    fn dtype_display_matches_keywords() {
        assert_eq!(DType::Bool.to_string(), "bin");
        assert_eq!(DType::Complex.to_string(), "complex");
    }
}
