//! Structured diagnostics with severity, machine-readable codes, and spans.
//!
//! A [`Diagnostic`] is what every check and analysis engine in this crate
//! produces: a stable code (`PM-W001`, …), a severity class, a one-line
//! message, an optional PMLang [`Span`] and any number of supplementary
//! notes. Two renderings are provided: a rustc-style text form with a
//! caret line pointing into the original source ([`Diagnostic::render`])
//! and a machine-readable JSON form ([`Diagnostic::to_json`] /
//! [`render_json`]); `Display` is the one-line header alone.

use pmlang::Span;
use std::fmt::{self, Write as _};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a run.
    Note,
    /// Suspicious but possibly intentional; fails under `--deny-warnings`.
    Warning,
    /// Definitely wrong; always fails the run.
    Error,
}

impl Severity {
    /// Lower-case keyword used in renderings (`note`/`warning`/`error`).
    pub fn keyword(&self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A single finding from a check or an analysis engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Machine-readable code, e.g. `PM-W001`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// One-line human-readable description.
    pub message: String,
    /// Source location, when one is known.
    pub span: Option<Span>,
    /// Supplementary hints rendered under the caret line.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with the given severity and no span or notes.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity, message: message.into(), span: None, notes: Vec::new() }
    }

    /// Convenience constructor for [`Severity::Error`].
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Error, message)
    }

    /// Convenience constructor for [`Severity::Warning`].
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Warning, message)
    }

    /// Convenience constructor for [`Severity::Note`].
    pub fn note(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Note, message)
    }

    /// Attaches a source span (ignored when synthetic — synthetic spans do
    /// not point into real source text).
    pub fn at(mut self, span: Span) -> Diagnostic {
        if !span.is_synthetic() {
            self.span = Some(span);
        }
        self
    }

    /// Appends a supplementary note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Renders rustc-style:
    ///
    /// ```text
    /// warning[PM-W001]: param `w` is never used
    ///   --> demo.pm:3:18
    ///    |
    ///  3 |     param float w[4], output float y) {
    ///    |                 ^^^^
    ///    = note: remove the declaration or reference it in the body
    /// ```
    pub fn render(&self, source: &str, filename: &str) -> String {
        let mut out = format!("{self}\n");
        if let Some(span) = self.span {
            let line_no = span.line as usize;
            let gutter = line_no.to_string().len().max(2);
            let _ = writeln!(out, "{:>gutter$}--> {}:{}:{}", "", filename, span.line, span.col);
            if let Some(text) = source.lines().nth(line_no.saturating_sub(1)) {
                let _ = writeln!(out, "{:>gutter$} |", "");
                let _ = writeln!(out, "{line_no:>gutter$} | {text}");
                let col = (span.col as usize).saturating_sub(1);
                // Clamp the underline to the remainder of the line: spans can
                // legally run past it (e.g. a whole multi-line statement).
                let avail = text.chars().count().saturating_sub(col).max(1);
                let width = span.end.saturating_sub(span.start).clamp(1, avail);
                let _ = writeln!(out, "{:>gutter$} | {:>col$}{}", "", "", "^".repeat(width));
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "   = note: {note}");
        }
        out
    }

    /// Serializes to a single JSON object (hand-rolled; the workspace has
    /// no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"code\":{}", json_str(self.code));
        let _ = write!(out, ",\"severity\":{}", json_str(self.severity.keyword()));
        let _ = write!(out, ",\"message\":{}", json_str(&self.message));
        match self.span {
            Some(s) => {
                let _ = write!(
                    out,
                    ",\"span\":{{\"start\":{},\"end\":{},\"line\":{},\"col\":{}}}",
                    s.start, s.end, s.line, s.col
                );
            }
            None => out.push_str(",\"span\":null"),
        }
        out.push_str(",\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(n));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.keyword(), self.code, self.message)
    }
}

/// Renders a batch of diagnostics as text, followed by a summary line.
pub fn render_text(diags: &[Diagnostic], source: &str, filename: &str) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render(source, filename));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.iter().filter(|d| d.severity == Severity::Warning).count();
    let notes = diags.iter().filter(|d| d.severity == Severity::Note).count();
    let _ = writeln!(out, "{filename}: {errors} error(s), {warnings} warning(s), {notes} note(s)");
    out
}

/// Renders a batch of diagnostics as one JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push(']');
    out
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_note_warning_error() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn render_points_caret_at_span() {
        let source = "main(input float x, output float y) {\n    y = x;\n}\n";
        // Span of the `x` argument name (line 1, col 18, bytes 17..18).
        let d = Diagnostic::warning("PM-W001", "input `x` is never used")
            .at(Span::new(17, 18, 1, 18))
            .with_note("remove the declaration");
        let r = d.render(source, "demo.pm");
        assert!(r.contains("warning[PM-W001]: input `x` is never used"), "{r}");
        assert!(r.contains("--> demo.pm:1:18"), "{r}");
        assert!(r.contains("1 | main(input float x, output float y) {"), "{r}");
        assert!(r.contains("^"), "{r}");
        assert!(r.contains("= note: remove the declaration"), "{r}");
        // The caret column lines up under the `x`.
        let caret_line = r.lines().find(|l| l.contains('^')).unwrap();
        assert_eq!(caret_line.find('^').unwrap(), "   | ".len() + 17, "{r}");
    }

    #[test]
    fn render_clamps_caret_to_line_end() {
        let source = "short\n";
        let d = Diagnostic::error("PM-E104", "x").at(Span::new(0, 500, 1, 1));
        let r = d.render(source, "f.pm");
        assert!(r.contains("^^^^^"), "{r}");
        assert!(!r.contains("^^^^^^"), "{r}");
    }

    #[test]
    fn synthetic_spans_are_dropped() {
        let d = Diagnostic::note("PM-N002", "m").at(Span::synthetic());
        assert_eq!(d.span, None);
        let r = d.render("", "f.pm");
        assert!(!r.contains("-->"), "{r}");
    }

    #[test]
    fn json_escapes_and_round_trips_fields() {
        let d = Diagnostic::error("PM-E104", "bad \"shape\"\n")
            .at(Span::new(3, 7, 2, 1))
            .with_note("tab\there");
        let j = d.to_json();
        assert!(j.contains("\"code\":\"PM-E104\""), "{j}");
        assert!(j.contains("\"severity\":\"error\""), "{j}");
        assert!(j.contains("bad \\\"shape\\\"\\n"), "{j}");
        assert!(j.contains("\"span\":{\"start\":3,\"end\":7,\"line\":2,\"col\":1}"), "{j}");
        assert!(j.contains("\"notes\":[\"tab\\there\"]"), "{j}");
    }

    #[test]
    fn json_array_and_null_span() {
        let a = Diagnostic::note("PM-N002", "m");
        let b = Diagnostic::warning("PM-W004", "n");
        let j = render_json(&[a, b]);
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\"span\":null"), "{j}");
        assert_eq!(j.matches("{\"code\"").count(), 2, "{j}");
    }
}
