//! The diagnostics infrastructure: stable codes, severities, and
//! rustc-style text / JSON-lines rendering.
//!
//! Every diagnostic the verify crate can emit carries a [`Code`] from the
//! fixed registry below. Codes are a stable contract (documented with
//! worked examples in `docs/DIAGNOSTICS.md`): tooling may match on them,
//! golden tests pin them, and they are never renumbered — retired codes
//! would be left as gaps.

use std::fmt;
use std::fmt::Write as _;

use hrms_ddg::Span;
use hrms_modsched::push_json_str;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but schedulable: the input is accepted, the result may
    /// not be what the author intended.
    Warning,
    /// The input is rejected (lint) or the schedule is wrong (certifier).
    Error,
}

impl Severity {
    /// The lowercase label used in rendered output (`error` / `warning`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The stable diagnostic-code registry.
///
/// `L0xx` codes are loop (DDG) lints, `M0xx` machine-description lints,
/// `S0xx` schedule-certification failures. The numeric part is stable
/// across releases; see `docs/DIAGNOSTICS.md` for one worked example per
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Code {
    /// The loop input (`.loop` or DOT) does not parse.
    L001,
    /// Two edges are byte-for-byte identical (same endpoints, kind and
    /// distance).
    L002,
    /// A zero-distance self-dependence: `t(v) ≥ t(v) + λ` is unsatisfiable.
    L003,
    /// A zero-distance dependence cycle: RecMII is undefined and no II
    /// admits a schedule.
    L004,
    /// The loop body splits into several disconnected components.
    L005,
    /// A latency or dependence distance is implausibly large.
    L006,
    /// A node's declared latency disagrees with the machine's latency for
    /// its operation kind.
    L007,
    /// No functional unit of the machine can execute a node's operation
    /// kind.
    L008,
    /// The machine description does not parse.
    M001,
    /// A functional-unit class has zero units.
    M002,
    /// Two resource classes share a name.
    M003,
    /// No operation kind is mapped to a resource class.
    M004,
    /// Certifier: the schedule does not cover every operation.
    S001,
    /// Certifier: a dependence is violated modulo `δ·II`.
    S002,
    /// Certifier: a functional-unit class is oversubscribed in some modulo
    /// slot.
    S003,
    /// Certifier: the II is below the loop's MII (or RecMII is undefined).
    S004,
    /// Certifier: MaxLive disagrees between independent lifetime analyses.
    S005,
    /// Certifier: modulo-variable-expansion renaming is inconsistent.
    S006,
    /// Certifier: the schedule's II is not a positive integer.
    S007,
}

impl Code {
    /// Every code, in registry order.
    pub const ALL: [Code; 19] = [
        Code::L001,
        Code::L002,
        Code::L003,
        Code::L004,
        Code::L005,
        Code::L006,
        Code::L007,
        Code::L008,
        Code::M001,
        Code::M002,
        Code::M003,
        Code::M004,
        Code::S001,
        Code::S002,
        Code::S003,
        Code::S004,
        Code::S005,
        Code::S006,
        Code::S007,
    ];

    /// The stable textual form (`"L003"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::L001 => "L001",
            Code::L002 => "L002",
            Code::L003 => "L003",
            Code::L004 => "L004",
            Code::L005 => "L005",
            Code::L006 => "L006",
            Code::L007 => "L007",
            Code::L008 => "L008",
            Code::M001 => "M001",
            Code::M002 => "M002",
            Code::M003 => "M003",
            Code::M004 => "M004",
            Code::S001 => "S001",
            Code::S002 => "S002",
            Code::S003 => "S003",
            Code::S004 => "S004",
            Code::S005 => "S005",
            Code::S006 => "S006",
            Code::S007 => "S007",
        }
    }

    /// The severity this code is always emitted with.
    ///
    /// The policy (documented in `docs/DIAGNOSTICS.md`): a code is an
    /// error when the input cannot be scheduled correctly at all — parse
    /// failures, unsatisfiable dependences, zero-capacity resources, and
    /// every certifier failure — and a warning when the input is accepted
    /// but suspicious.
    pub fn severity(self) -> Severity {
        match self {
            Code::L002 | Code::L005 | Code::L006 | Code::L007 | Code::M003 | Code::M004 => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }

    /// One-line summary of what the code means.
    pub fn summary(self) -> &'static str {
        match self {
            Code::L001 => "loop input does not parse",
            Code::L002 => "duplicate dependence edge",
            Code::L003 => "zero-distance self-dependence",
            Code::L004 => "zero-distance dependence cycle (RecMII undefined)",
            Code::L005 => "loop body is disconnected",
            Code::L006 => "implausibly large latency or distance",
            Code::L007 => "node latency disagrees with the machine",
            Code::L008 => "operation kind has no functional unit",
            Code::M001 => "machine description does not parse",
            Code::M002 => "functional-unit class has zero units",
            Code::M003 => "duplicate resource-class name",
            Code::M004 => "resource class is unreachable",
            Code::S001 => "schedule does not cover every operation",
            Code::S002 => "dependence violated modulo δ·II",
            Code::S003 => "functional-unit class oversubscribed",
            Code::S004 => "II below the loop's MII",
            Code::S005 => "MaxLive disagrees between analyses",
            Code::S006 => "MVE renaming inconsistent",
            Code::S007 => "II is not a positive integer",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a coded, located, human-readable problem report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Registry code; fixes the severity.
    pub code: Code,
    /// Severity ([`Code::severity`] of the code).
    pub severity: Severity,
    /// Primary human-readable message.
    pub message: String,
    /// Location in the linted source, when the finding maps to one.
    pub span: Option<Span>,
    /// Additional `= note:` lines rendered under the excerpt.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity and no notes.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// Attaches a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Appends a `= note:` line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic in rustc style. `path` names the input (any
    /// label: a file path or `<stdin>`), `source` is the full input text
    /// the span indexes into (used for the excerpt line; pass `""` when
    /// unavailable).
    ///
    /// ```text
    /// error[L003]: zero-distance self-dependence on `acc`
    ///   --> dotprod.loop:9:3
    ///    |  edge acc -> acc flow
    ///    |  ^^^^^^^^^^^^^^^^^^^^
    ///    = note: no cycle t satisfies t >= t + 1
    /// ```
    pub fn render_text(&self, path: &str, source: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        match self.span {
            Some(span) => {
                let _ = writeln!(out, "  --> {path}:{}:{}", span.line, span.col);
                if let Some(line) = source.lines().nth(span.line.wrapping_sub(1)) {
                    let line = line.trim_end();
                    let _ = writeln!(out, "   |  {line}");
                    out.push_str("   |  ");
                    for _ in 1..span.col {
                        out.push(' ');
                    }
                    for _ in 0..span.len.max(1) {
                        out.push('^');
                    }
                    out.push('\n');
                }
            }
            None => {
                let _ = writeln!(out, "  --> {path}");
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "   = note: {note}");
        }
        out
    }

    /// Renders the diagnostic as a single JSON line (no trailing newline),
    /// in the schema documented in `docs/DIAGNOSTICS.md`.
    pub fn render_json(&self, path: &str) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"file\":");
        push_json_str(&mut out, path);
        let _ = write!(
            out,
            ",\"code\":\"{}\",\"severity\":\"{}\",\"message\":",
            self.code, self.severity
        );
        push_json_str(&mut out, &self.message);
        match self.span {
            Some(s) => {
                let _ = write!(
                    out,
                    ",\"line\":{},\"col\":{},\"offset\":{},\"len\":{}",
                    s.line, s.col, s.offset, s.len
                );
            }
            None => out.push_str(",\"line\":null"),
        }
        out.push_str(",\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, n);
        }
        out.push_str("]}");
        out
    }
}

/// Sorts diagnostics into the deterministic reporting order: by source
/// position (spanless findings last), then by code, then by message.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let pos = |d: &Diagnostic| d.span.map_or((usize::MAX, usize::MAX), |s| (s.line, s.col));
        pos(a)
            .cmp(&pos(b))
            .then_with(|| a.code.cmp(&b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Whether any diagnostic in `diags` is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for code in Code::ALL {
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert_eq!(code.to_string(), code.as_str());
            assert!(!code.summary().is_empty());
        }
        assert_eq!(Code::ALL.len(), 19);
    }

    #[test]
    fn severity_policy_is_fixed_per_code() {
        assert_eq!(Code::L001.severity(), Severity::Error);
        assert_eq!(Code::L002.severity(), Severity::Warning);
        assert_eq!(Code::L003.severity(), Severity::Error);
        assert_eq!(Code::M002.severity(), Severity::Error);
        assert_eq!(Code::M004.severity(), Severity::Warning);
        for code in [
            Code::S001,
            Code::S002,
            Code::S003,
            Code::S004,
            Code::S005,
            Code::S006,
            Code::S007,
        ] {
            assert_eq!(code.severity(), Severity::Error, "{code}");
        }
    }

    #[test]
    fn text_rendering_includes_excerpt_and_caret() {
        let source = "loop l\nedge a -> a flow\nend\n";
        let d = Diagnostic::new(Code::L003, "zero-distance self-dependence on `a`")
            .with_span(Span::new(2, 1, 7, 16))
            .with_note("no cycle t satisfies t >= t + 1");
        let text = d.render_text("x.loop", source);
        assert!(text.starts_with("error[L003]: zero-distance self-dependence on `a`\n"));
        assert!(text.contains("--> x.loop:2:1\n"));
        assert!(text.contains("   |  edge a -> a flow\n"));
        assert!(text.contains("   |  ^^^^^^^^^^^^^^^^\n"));
        assert!(text.contains("   = note: no cycle t satisfies t >= t + 1\n"));
    }

    #[test]
    fn json_rendering_is_one_line_with_span_fields() {
        let d = Diagnostic::new(Code::M002, "class `alu` has zero units")
            .with_span(Span::new(3, 2, 20, 10));
        let json = d.render_json("m.machine");
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"file\":\"m.machine\",\"code\":\"M002\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"line\":3,\"col\":2,\"offset\":20,\"len\":10"));
        let spanless = Diagnostic::new(Code::S002, "violated").render_json("-");
        assert!(spanless.contains("\"line\":null"));
    }

    #[test]
    fn sorting_is_positional_then_by_code() {
        let mut diags = vec![
            Diagnostic::new(Code::S001, "spanless"),
            Diagnostic::new(Code::L003, "late").with_span(Span::new(9, 1, 90, 4)),
            Diagnostic::new(Code::L002, "early").with_span(Span::new(2, 5, 12, 4)),
            Diagnostic::new(Code::L006, "same line").with_span(Span::new(2, 1, 8, 2)),
        ];
        sort_diagnostics(&mut diags);
        let order: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(order, ["same line", "early", "late", "spanless"]);
        assert!(has_errors(&diags));
    }
}
