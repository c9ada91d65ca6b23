//! Token definitions for the PMLang lexer.

use crate::span::Span;
use std::fmt;

/// The lexical categories of PMLang. Payloads borrow the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    // Literals and identifiers.
    /// An identifier or keyword candidate, e.g. `mvmul`, `pos_ref`.
    Ident(&'a str),
    /// An integer literal, e.g. `1024`.
    Int(i64),
    /// A floating-point literal, e.g. `0.5`, `1e-3`.
    Float(f64),
    /// A string literal, e.g. `"label"`: the text between the quotes,
    /// escapes as written (the lexer has checked them; see [`unescape`]).
    Str(&'a str),

    // Keywords.
    /// `index`
    Index,
    /// `reduction`
    Reduction,
    /// Type modifier `input`.
    Input,
    /// Type modifier `output`.
    Output,
    /// Type modifier `state`.
    State,
    /// Type modifier `param`.
    Param,
    /// Data type `bin`.
    Bin,
    /// Data type `int`.
    IntTy,
    /// Data type `float`.
    FloatTy,
    /// Data type `str`.
    StrTy,
    /// Data type `complex`.
    ComplexTy,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `^`
    Caret,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,

    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Returns the keyword token for `word`, if it is a PMLang keyword.
    pub fn keyword(word: &str) -> Option<TokenKind<'static>> {
        Some(match word {
            "index" => TokenKind::Index,
            "reduction" => TokenKind::Reduction,
            "input" => TokenKind::Input,
            "output" => TokenKind::Output,
            "state" => TokenKind::State,
            "param" => TokenKind::Param,
            "bin" => TokenKind::Bin,
            "int" => TokenKind::IntTy,
            "float" => TokenKind::FloatTy,
            "str" => TokenKind::StrTy,
            "complex" => TokenKind::ComplexTy,
            _ => return None,
        })
    }

    /// True if this token names a data type.
    pub fn is_dtype(&self) -> bool {
        matches!(
            self,
            TokenKind::Bin
                | TokenKind::IntTy
                | TokenKind::FloatTy
                | TokenKind::StrTy
                | TokenKind::ComplexTy
        )
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Ident(s) => write!(f, "identifier `{s}`"),
            Int(v) => write!(f, "integer `{v}`"),
            Float(v) => write!(f, "float `{v}`"),
            Str(raw) => write!(f, "string {:?}", unescape(raw)),
            Index => f.write_str("`index`"),
            Reduction => f.write_str("`reduction`"),
            Input => f.write_str("`input`"),
            Output => f.write_str("`output`"),
            State => f.write_str("`state`"),
            Param => f.write_str("`param`"),
            Bin => f.write_str("`bin`"),
            IntTy => f.write_str("`int`"),
            FloatTy => f.write_str("`float`"),
            StrTy => f.write_str("`str`"),
            ComplexTy => f.write_str("`complex`"),
            LParen => f.write_str("`(`"),
            RParen => f.write_str("`)`"),
            LBracket => f.write_str("`[`"),
            RBracket => f.write_str("`]`"),
            LBrace => f.write_str("`{`"),
            RBrace => f.write_str("`}`"),
            Comma => f.write_str("`,`"),
            Semi => f.write_str("`;`"),
            Colon => f.write_str("`:`"),
            Question => f.write_str("`?`"),
            Assign => f.write_str("`=`"),
            Plus => f.write_str("`+`"),
            Minus => f.write_str("`-`"),
            Star => f.write_str("`*`"),
            Slash => f.write_str("`/`"),
            Percent => f.write_str("`%`"),
            Caret => f.write_str("`^`"),
            EqEq => f.write_str("`==`"),
            NotEq => f.write_str("`!=`"),
            Lt => f.write_str("`<`"),
            Le => f.write_str("`<=`"),
            Gt => f.write_str("`>`"),
            Ge => f.write_str("`>=`"),
            AndAnd => f.write_str("`&&`"),
            OrOr => f.write_str("`||`"),
            Not => f.write_str("`!`"),
            Eof => f.write_str("end of input"),
        }
    }
}

/// The value of a string literal whose text between the quotes is `raw`:
/// each escape (`\n`, `\t`, `\"`, `\\`) becomes the character it names,
/// and every other byte the `char` of that value.
pub fn unescape(raw: &str) -> String {
    let mut value = String::with_capacity(raw.len());
    let mut bytes = raw.bytes();
    while let Some(mut c) = bytes.next() {
        if c == b'\\' {
            c = match bytes.next() {
                Some(b'n') => b'\n',
                Some(b't') => b'\t',
                // `\"` and `\\`: the lexer admits no other escape.
                Some(e) => e,
                None => break,
            };
        }
        value.push(c as char);
    }
    value
}

/// A lexed token together with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// Lexical category and payload.
    pub kind: TokenKind<'a>,
    /// Location in the source text.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("index"), Some(TokenKind::Index));
        assert_eq!(TokenKind::keyword("float"), Some(TokenKind::FloatTy));
        assert_eq!(TokenKind::keyword("mvmul"), None);
    }

    #[test]
    fn modifier_and_dtype_predicates() {
        assert!(TokenKind::FloatTy.is_dtype());
        assert!(TokenKind::ComplexTy.is_dtype());
        assert!(!TokenKind::Index.is_dtype());
    }

    #[test]
    fn display_is_nonempty() {
        for k in [TokenKind::Ident("x"), TokenKind::Int(3), TokenKind::EqEq, TokenKind::Eof] {
            assert!(!k.to_string().is_empty());
        }
    }
}
