//! Panic-discipline lint: hot paths return typed errors, they do not
//! panic.
//!
//! The serve frame path (`queue`, `recording`, `wire`), the session
//! hibernation path (`session::codec`, `session::hibernate` — a
//! fault-in runs while the client's frame waits), the store append,
//! compaction and promotion paths (`writer`, `segment`, `crc`,
//! `compact`, `manifest` — a panic mid-compaction strands a
//! half-promoted store), the shared CRC (`util::crc`),
//! and the socket edge's decode/reactor path (`edge::conn`,
//! `edge::reactor`) run on every served frame; a panic there takes
//! down the worker, poisons the writer, or kills the reactor thread
//! with live sockets open. Inside
//! those files the lint forbids `.unwrap()`, `.expect(`, `panic!`,
//! `unreachable!`, `todo!`, `unimplemented!`, and slice indexing
//! (`buf[i]`-style) in non-test code. `assert!`/`debug_assert!` are
//! deliberately allowed: contract checks at API boundaries are loud on
//! purpose.
//!
//! Waiver tags: `panic` (a panic site justified in place),
//! `checked-index` (an index expression whose bound is locally
//! provable, e.g. a const-sized table indexed by a masked byte), and
//! `poison-loud` (lock-poison `expect`s owned by the lock lint).

use crate::lexer::find_token_lines;
use crate::{Lint, Outcome, Workspace};

/// Files whose contents are per-frame hot paths.
const TARGET_FILES: &[&str] = &[
    "crates/serve/src/queue.rs",
    "crates/serve/src/recording.rs",
    "crates/serve/src/wire.rs",
    "crates/session/src/codec.rs",
    "crates/session/src/hibernate.rs",
    "crates/store/src/writer.rs",
    "crates/store/src/segment.rs",
    "crates/store/src/compact.rs",
    "crates/store/src/manifest.rs",
    "crates/util/src/crc.rs",
    "crates/edge/src/conn.rs",
    "crates/edge/src/reactor.rs",
];

/// Forbidden call tokens. `.unwrap()` is matched with its parens so
/// `.unwrap_or`/`.unwrap_or_else` stay legal; `.expect(` keeps
/// `.expect_err(` legal via the word boundary on `expect`.
const FORBIDDEN_CALLS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Keywords that legally precede `[` (array/slice type or pattern
/// contexts the index heuristic must not flag).
const KEYWORDS_BEFORE_BRACKET: &[&str] = &[
    "return", "break", "in", "if", "else", "match", "mut", "dyn", "as", "let",
];

/// The panic-discipline lint.
pub struct PanicDiscipline;

impl Lint for PanicDiscipline {
    fn name(&self) -> &'static str {
        "panic-paths"
    }

    fn invariant(&self) -> &'static str {
        "serve frame paths, session hibernation paths, store append/compaction paths, and edge socket paths (queue, recording, wire, session codec/hibernate, writer, segment, crc, compact, manifest, edge conn/reactor) never unwrap/expect/panic!/slice-index outside tests; fallible decode returns typed errors"
    }

    fn check(&self, ws: &Workspace, out: &mut Outcome) {
        for file in &ws.files {
            if !TARGET_FILES.contains(&file.rel.as_str()) {
                continue;
            }
            for token in FORBIDDEN_CALLS {
                for line in find_token_lines(&file.lexed, token) {
                    if file.lexed.is_test_line(line) {
                        continue;
                    }
                    out.site(
                        file,
                        line,
                        self.name(),
                        &["panic", "poison-loud"],
                        format!(
                            "`{token}` in a hot path: return a typed error \
                             (WireError/StoreError) instead, or waive with \
                             `// lint: panic -- <why this cannot fire>`",
                            token = token.trim_end_matches('(')
                        ),
                    );
                }
            }
            for line in index_expression_lines(&file.lexed.code) {
                if file.lexed.is_test_line(line) {
                    continue;
                }
                out.site(
                    file,
                    line,
                    self.name(),
                    &["checked-index"],
                    "slice indexing in a hot path can panic on a short \
                     buffer: use `.get(..)`/`chunks_exact`/slice patterns, \
                     or waive with `// lint: checked-index -- <bound proof>`",
                );
            }
        }
    }
}

/// 1-based lines containing an index *expression*: a `[` whose
/// previous non-space char ends a value (identifier char, `)`, or
/// `]`), excluding type/attribute/pattern contexts.
fn index_expression_lines(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut lines = Vec::new();
    let mut line = 1usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line += 1;
            continue;
        }
        if b != b'[' {
            continue;
        }
        // Previous non-space byte on any line.
        let mut j = i;
        while j > 0 && (bytes[j - 1] == b' ' || bytes[j - 1] == b'\n') {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = bytes[j - 1];
        let value_ending =
            prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']';
        if !value_ending {
            continue;
        }
        // `&[u8]`, `#[attr]`, `<[T]>`, `: [T; N]` are handled by the
        // value_ending test already (prev is `&`/`#`/`<`/`:` there) —
        // what remains is a keyword directly before the bracket, as in
        // `match [a, b]` or `for x in [1, 2]`.
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            let mut w = j;
            while w > 0 && (bytes[w - 1].is_ascii_alphanumeric() || bytes[w - 1] == b'_') {
                w -= 1;
            }
            let word = &code[w..j];
            if KEYWORDS_BEFORE_BRACKET.contains(&word) {
                continue;
            }
            // `&'a [u8]`: a lifetime before the bracket is a slice
            // type, not an index expression.
            if w > 0 && bytes[w - 1] == b'\'' {
                continue;
            }
        }
        lines.push(line);
    }
    lines.dedup();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Finding};

    fn findings_for(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[("crates/serve/src/wire.rs", src)]);
        run(&ws, &[Box::new(PanicDiscipline)])
    }

    #[test]
    fn fires_on_known_bad_fixture() {
        let bad = "\
fn decode(buf: &[u8]) -> u32 {
    let magic = buf[0];
    let x: u32 = parse(buf).unwrap();
    let y: u32 = parse(buf).expect(\"parse\");
    if magic == 0 { panic!(\"zero\"); }
    x + y
}
";
        let f = findings_for(bad);
        assert!(
            f.iter()
                .any(|x| x.line == 2 && x.message.contains("indexing")),
            "{f:?}"
        );
        assert!(f
            .iter()
            .any(|x| x.line == 3 && x.message.contains(".unwrap")));
        assert!(f
            .iter()
            .any(|x| x.line == 4 && x.message.contains(".expect")));
        assert!(f
            .iter()
            .any(|x| x.line == 5 && x.message.contains("panic!")));
    }

    #[test]
    fn allows_safe_idioms_waivers_and_tests() {
        let ok = "\
const TABLE: [u32; 256] = [0; 256];

fn decode(buf: &[u8]) -> Option<(u8, u32)> {
    let first = *buf.first()?;
    let v = buf.get(1..5).map(|s| s.len() as u32)?;
    let masked = TABLE[(first & 0xFF) as usize]; // lint: checked-index -- index masked to u8
    let fallback = buf.first().copied().unwrap_or(0);
    let arr: [u8; 2] = [first, fallback];
    for b in [1u8, 2] { let _ = b; }
    assert!(v as usize <= buf.len());
    Some((arr[0], masked)) // lint: checked-index -- arr is [u8; 2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let buf = [1u8, 2, 3];
        assert_eq!(buf[0], super::decode(&buf).unwrap().0);
    }
}
";
        assert_eq!(findings_for(ok), vec![], "clean fixture must pass");
    }

    #[test]
    fn index_heuristic_separates_types_from_expressions() {
        let code = "\
fn f(a: &[u8], b: [u8; 4]) -> Vec<u8> {
    let x = a[0];
    let y: &[u8] = &b;
    let z = (a.len())[..];
    match [x, y[0]] { _ => {} }
    vec![1, 2]
}
fn g<'a>(s: &'a [u8]) -> &'a [u8] { s }
fn h(p: [u8; 2]) -> u8 { let [a, b] = p; a + b }
";
        let lines = index_expression_lines(code);
        assert!(lines.contains(&2), "a[0] is an index: {lines:?}");
        assert!(lines.contains(&4), "(a.len())[..] is an index");
        assert!(
            lines.contains(&5),
            "y[0] inside match scrutinee is an index"
        );
        assert!(!lines.contains(&1), "&[u8] param type is not");
        assert!(!lines.contains(&6), "vec![..] macro bang is not");
        assert!(!lines.contains(&8), "&'a [u8] lifetime slice type is not");
        assert!(!lines.contains(&9), "let [a, b] slice pattern is not");
    }

    #[test]
    fn unwrap_or_family_is_legal() {
        let ok = "\
fn f(x: Option<u32>) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()
}
fn g(r: Result<u32, u32>) -> u32 {
    r.expect_err(\"only in tests would this be bad\")
}
";
        // expect_err is outside the `.expect(` token thanks to the
        // word boundary; unwrap_or* never matches `.unwrap()`.
        let f = findings_for(ok);
        assert!(
            f.iter()
                .all(|x| !x.message.contains(".unwrap") || x.line != 2),
            "{f:?}"
        );
        assert_eq!(f, vec![]);
    }
}
