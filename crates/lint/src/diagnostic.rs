//! Diagnostics: what a lint rule reports and how a run is rendered.

use kratt_netlist::json::quote;
use std::fmt;

/// How serious a diagnostic is.
///
/// The three levels carry fixed semantics across the suite:
///
/// * [`Severity::Error`] — the circuit (or AIG) is structurally malformed:
///   it breaks an invariant the rest of the suite relies on (a net without a
///   driver, a combinational cycle, a corrupted AIG, a locked circuit whose
///   key cannot influence any output). Strict-mode locking and the CI corpus
///   gate reject error-level output.
/// * [`Severity::Warning`] — the circuit is well-formed but structurally
///   suspicious: wasted logic, or a security signal an attacker can read off
///   statically (a key bit whose value ternary propagation pins down).
/// * [`Severity::Info`] — informational structure notes, e.g. an exposed
///   point-function unit shape that identifies the locking family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but well-formed structure.
    Warning,
    /// Structural malformation.
    Error,
}

impl Severity {
    /// The lowercase label used by the text and JSON renders.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
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

/// One finding of one lint rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Id of the rule that produced this diagnostic (e.g. `"undriven-net"`).
    pub rule: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// The net name or AIG node the finding is anchored at, if any.
    pub location: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic anchored at a net or node.
    pub fn at(
        rule: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity,
            location: Some(location.into()),
            message: message.into(),
        }
    }

    /// Builds a circuit-wide diagnostic with no specific location.
    pub fn global(rule: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity,
            location: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if let Some(location) = &self.location {
            write!(f, " at `{location}`")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Every diagnostic one lint run produced over one subject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Name of the linted circuit or AIG.
    pub subject: String,
    /// The findings, ordered most severe first (ties keep rule order).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Builds a report, sorting the findings most severe first.
    pub fn new(subject: impl Into<String>, mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
        LintReport {
            subject: subject.into(),
            diagnostics,
        }
    }

    /// Whether any error-level diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether nothing at all was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The diagnostics produced by one rule.
    pub fn by_rule(&self, rule: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// A compact one-token summary, e.g. `clean`, `2E`, `1E+3W`, `2W+1I` —
    /// what the campaign table stamps into its `Lint` column.
    pub fn summary(&self) -> String {
        if self.diagnostics.is_empty() {
            return "clean".into();
        }
        let mut parts = Vec::new();
        for (severity, tag) in [
            (Severity::Error, 'E'),
            (Severity::Warning, 'W'),
            (Severity::Info, 'I'),
        ] {
            let n = self.count(severity);
            if n > 0 {
                parts.push(format!("{n}{tag}"));
            }
        }
        parts.join("+")
    }

    /// Renders the report as human-readable text, one diagnostic per line.
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint report for `{}`: {} finding{} ({})",
            self.subject,
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" },
            self.summary()
        );
        for diagnostic in &self.diagnostics {
            let _ = writeln!(out, "  {diagnostic}");
        }
        out
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"subject\":{},\"errors\":{},\"warnings\":{},\"infos\":{},\"diagnostics\":[",
            quote(&self.subject),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"severity\":{},\"location\":{},\"message\":{}}}",
                quote(d.rule),
                quote(d.severity.label()),
                d.location.as_deref().map_or("null".into(), quote),
                quote(&d.message)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_labels() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn report_sorts_counts_and_summarises() {
        let report = LintReport::new(
            "toy",
            vec![
                Diagnostic::global("a", Severity::Info, "note"),
                Diagnostic::at("b", Severity::Error, "x", "broken"),
                Diagnostic::at("c", Severity::Warning, "y", "odd"),
            ],
        );
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert!(report.has_errors());
        assert!(!report.is_clean());
        assert_eq!(report.count(Severity::Warning), 1);
        assert_eq!(report.summary(), "1E+1W+1I");
        assert_eq!(report.by_rule("b").len(), 1);
        let text = report.render_text();
        assert!(text.contains("error[b] at `x`: broken"));
        assert!(text.contains("3 findings"));
    }

    #[test]
    fn empty_report_is_clean() {
        let report = LintReport::new("toy", Vec::new());
        assert!(report.is_clean());
        assert_eq!(report.summary(), "clean");
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let report = LintReport::new(
            "to\"y",
            vec![Diagnostic::at("r", Severity::Error, "n\\1", "line\nbreak")],
        );
        let json = report.to_json();
        assert!(json.contains("\"subject\":\"to\\\"y\""));
        assert!(json.contains("\"location\":\"n\\\\1\""));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"errors\":1"));
        let no_loc = LintReport::new("t", vec![Diagnostic::global("r", Severity::Info, "m")]);
        assert!(no_loc.to_json().contains("\"location\":null"));
    }
}
