//! Machine-readable findings report: one JSON document for CI
//! artifacts and downstream tooling.
//!
//! The CLI writes this with `--report <path>` on every run, pass or
//! fail, so a green build still archives what the analyzer looked at
//! (file count, suppressions in force). Strings are written with
//! `mobisense_util::json`, the workspace's one JSON codec; the format is
//! versioned:
//!
//! ```json
//! {
//!   "version": 2,
//!   "files": 63,
//!   "findings": [
//!     {"file": "...", "line": 7, "lint": "hot-path",
//!      "severity": "error", "message": "..."}
//!   ],
//!   "suppressions": [
//!     {"file": "...", "waiver_line": 6, "finding_line": 7,
//!      "lint": "hot-path", "tag": "hot-path"}
//!   ]
//! }
//! ```
//!
//! Severity is derived from the lint: advisory lints whose findings
//! are requests for a written reason (`error-swallow`,
//! `waiver-hygiene`) are `"warning"`; invariant violations are
//! `"error"`. The CLI exit code ignores the distinction — `--deny-all`
//! means deny all — but dashboards get to rank.

use std::fmt::Write as _;

use mobisense_util::json::Str;

use crate::{Outcome, WAIVER_HYGIENE};

/// Severity of a lint's findings, for the report only.
pub fn severity(lint: &str) -> &'static str {
    match lint {
        "error-swallow" => "warning",
        l if l == WAIVER_HYGIENE => "warning",
        _ => "error",
    }
}

/// Renders the report document for a run over `files` source files.
pub fn render(out: &Outcome, files: usize) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\n  \"version\": 2,\n  \"files\": {files},\n  \"findings\": ["
    );
    for (i, f) in out.findings.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"severity\": {}, \"message\": {}}}",
            if i == 0 { "" } else { "," },
            Str(&f.file),
            f.line,
            Str(f.lint),
            Str(severity(f.lint)),
            Str(&f.message)
        );
    }
    if !out.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"suppressions\": [");
    for (i, sp) in out.suppressions.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"file\": {}, \"waiver_line\": {}, \"finding_line\": {}, \"lint\": {}, \
             \"tag\": {}}}",
            if i == 0 { "" } else { "," },
            Str(&sp.file),
            sp.waiver_line,
            sp.finding_line,
            Str(sp.lint),
            Str(&sp.tag)
        );
    }
    if !out.suppressions.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Suppression};

    fn sample() -> Outcome {
        let mut out = Outcome::default();
        out.findings.push(Finding {
            file: "crates/serve/src/queue.rs".into(),
            line: 7,
            lint: "hot-path",
            message: "a \"quoted\"\nmessage".into(),
        });
        out.findings.push(Finding {
            file: "crates/store/src/writer.rs".into(),
            line: 88,
            lint: "error-swallow",
            message: "m".into(),
        });
        out.suppressions.push(Suppression {
            file: "crates/serve/src/recording.rs".into(),
            waiver_line: 340,
            finding_line: 341,
            lint: "error-swallow",
            tag: "error-swallow".into(),
        });
        out
    }

    #[test]
    fn renders_counts_severities_and_escapes() {
        let doc = render(&sample(), 63);
        assert!(doc.contains("\"version\": 2"));
        assert!(doc.contains("\"files\": 63"));
        assert!(doc.contains("\"severity\": \"error\""));
        assert!(doc.contains("\"severity\": \"warning\""));
        assert!(doc.contains("a \\\"quoted\\\"\\nmessage"));
        assert!(doc.contains("\"waiver_line\": 340"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn empty_report_is_well_formed() {
        let doc = render(&Outcome::default(), 0);
        assert!(doc.contains("\"findings\": []"));
        assert!(doc.contains("\"suppressions\": []"));
    }

    #[test]
    fn severity_map_is_total() {
        assert_eq!(severity("determinism"), "error");
        assert_eq!(severity("hold-and-call"), "error");
        assert_eq!(severity("error-swallow"), "warning");
        assert_eq!(severity("waiver-hygiene"), "warning");
        assert_eq!(severity("anything-else"), "error");
    }
}
