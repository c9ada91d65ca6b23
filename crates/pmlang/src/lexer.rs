//! Hand-written lexer for PMLang.
//!
//! PMLang's lexical grammar is a small C-like token set: identifiers,
//! integer/float/string literals, punctuation, and `//` line comments.
//! Tokens borrow their text from the source: lexing allocates nothing
//! but the token vector.

use crate::error::LexError;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Lexes `source` into a token vector ending with a single [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`LexError`] on unexpected characters, malformed numeric
/// literals, or unterminated string literals.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LexError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn run(mut self) -> Result<Vec<Token<'a>>, LexError> {
        // The benchmark programs average a token per two to three bytes.
        let mut out = Vec::with_capacity(self.src.len() / 2 + 1);
        loop {
            self.skip_trivia();
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                out.push(Token { kind: TokenKind::Eof, span: Span::new(start, start, line, col) });
                return Ok(out);
            };
            let kind = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'0'..=b'9' => self.number()?,
                b'"' => self.string()?,
                _ => self.punct()?,
            };
            out.push(Token { kind, span: Span::new(start, self.pos, line, col) });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn ident(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let word = &self.src[start..self.pos];
        TokenKind::keyword(word).unwrap_or(TokenKind::Ident(word))
    }

    fn number(&mut self) -> Result<TokenKind<'a>, LexError> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    self.bump();
                }
                // A `.` is part of the number only when followed by a digit,
                // so ranges like `0:n` and member-free syntax stay unambiguous.
                b'.' if self.peek2().is_some_and(|d| d.is_ascii_digit()) => {
                    is_float = true;
                    self.bump();
                }
                b'e' | b'E' => {
                    // Exponent: `e`, optional sign, then digits.
                    let next = self.peek2();
                    let after_sign = self.bytes.get(self.pos + 2).copied();
                    let exp_ok = match next {
                        Some(d) if d.is_ascii_digit() => true,
                        Some(b'+') | Some(b'-') => after_sign.is_some_and(|d| d.is_ascii_digit()),
                        _ => false,
                    };
                    if !exp_ok {
                        break;
                    }
                    is_float = true;
                    self.bump(); // e
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                    while self.peek().is_some_and(|d| d.is_ascii_digit()) {
                        self.bump();
                    }
                    break;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>().map(TokenKind::Float).map_err(|_| LexError {
                message: format!("malformed float literal `{text}`"),
                span: Span::new(start, self.pos, line, col),
            })
        } else {
            text.parse::<i64>().map(TokenKind::Int).map_err(|_| LexError {
                message: format!("integer literal `{text}` out of range"),
                span: Span::new(start, self.pos, line, col),
            })
        }
    }

    /// A string literal, its escapes checked; the parser unescapes it.
    fn string(&mut self) -> Result<TokenKind<'a>, LexError> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some(b'"') => return Ok(TokenKind::Str(&self.src[start + 1..self.pos - 1])),
                Some(b'\\') => match self.bump() {
                    Some(b'n' | b't' | b'"' | b'\\') => {}
                    other => {
                        return Err(LexError {
                            message: format!(
                                "unknown escape sequence `\\{}`",
                                other.map(|c| c as char).unwrap_or(' ')
                            ),
                            span: Span::new(start, self.pos, line, col),
                        })
                    }
                },
                Some(_) => {}
                None => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        span: Span::new(start, self.pos, line, col),
                    })
                }
            }
        }
    }

    fn punct(&mut self) -> Result<TokenKind<'a>, LexError> {
        let (line, col) = (self.line, self.col);
        let start = self.pos;
        let c = self.bump().expect("punct called at end of input");
        let two = |lexer: &mut Lexer<'a>, kind: TokenKind<'a>| {
            lexer.bump();
            kind
        };
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semi,
            b':' => TokenKind::Colon,
            b'?' => TokenKind::Question,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'^' => TokenKind::Caret,
            b'=' if self.peek() == Some(b'=') => two(self, TokenKind::EqEq),
            b'=' => TokenKind::Assign,
            b'!' if self.peek() == Some(b'=') => two(self, TokenKind::NotEq),
            b'!' => TokenKind::Not,
            b'<' if self.peek() == Some(b'=') => two(self, TokenKind::Le),
            b'<' => TokenKind::Lt,
            b'>' if self.peek() == Some(b'=') => two(self, TokenKind::Ge),
            b'>' => TokenKind::Gt,
            b'&' if self.peek() == Some(b'&') => two(self, TokenKind::AndAnd),
            b'|' if self.peek() == Some(b'|') => two(self, TokenKind::OrOr),
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{}`", other as char),
                    span: Span::new(start, self.pos, line, col),
                })
            }
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_component_header() {
        use TokenKind::*;
        assert_eq!(
            kinds("mvmul(input float A[m][n])"),
            vec![
                Ident("mvmul"),
                LParen,
                Input,
                FloatTy,
                Ident("A"),
                LBracket,
                Ident("m"),
                RBracket,
                LBracket,
                Ident("n"),
                RBracket,
                RParen,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_index_statement() {
        use TokenKind::*;
        assert_eq!(
            kinds("index i[0:n-1];"),
            vec![
                Index,
                Ident("i"),
                LBracket,
                Int(0),
                Colon,
                Ident("n"),
                Minus,
                Int(1),
                RBracket,
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        use TokenKind::*;
        assert_eq!(
            kinds("3 2.5 1e3 1.5e-2"),
            vec![Int(3), Float(2.5), Float(1e3), Float(1.5e-2), Eof]
        );
    }

    #[test]
    fn range_colon_not_confused_with_float() {
        use TokenKind::*;
        assert_eq!(kinds("0:9"), vec![Int(0), Colon, Int(9), Eof]);
    }

    #[test]
    fn lexes_comparison_and_logic() {
        use TokenKind::*;
        assert_eq!(
            kinds("a == b != c <= d >= e && f || !g"),
            vec![
                Ident("a"),
                EqEq,
                Ident("b"),
                NotEq,
                Ident("c"),
                Le,
                Ident("d"),
                Ge,
                Ident("e"),
                AndAnd,
                Ident("f"),
                OrOr,
                Not,
                Ident("g"),
                Eof
            ]
        );
    }

    #[test]
    fn skips_line_comments() {
        use TokenKind::*;
        assert_eq!(kinds("a // comment\nb"), vec![Ident("a"), Ident("b"), Eof]);
    }

    #[test]
    fn ternary_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("a < b ? a : b"),
            vec![Ident("a"), Lt, Ident("b"), Question, Ident("a"), Colon, Ident("b"), Eof]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        use TokenKind::*;
        assert_eq!(kinds(r#""hi\n""#), vec![Str(r"hi\n"), Eof]);
        assert_eq!(crate::token::unescape(r#"hi\n\"\\"#), "hi\n\"\\");
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].span.line, toks[0].span.col), (1, 1));
        assert_eq!((toks[1].span.line, toks[1].span.col), (2, 3));
    }

    #[test]
    fn rejects_unexpected_character() {
        let err = lex("a @ b").unwrap_err();
        assert!(err.message.contains('@'), "{}", err.message);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn keywords_are_not_identifiers() {
        use TokenKind::*;
        assert_eq!(kinds("input state param output"), vec![Input, State, Param, Output, Eof]);
    }

    #[test]
    fn single_ampersand_is_error() {
        assert!(lex("a & b").is_err());
    }
}
