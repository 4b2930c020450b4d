//! Integration-test host crate: the tests in `tests/` exercise flows that
//! span several `mobisense` crates, and the `examples/` directory at the
//! repository root is built as this crate's examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mobisense_serve::service::ServeConfig;
use mobisense_util::units::SECOND;

/// The serving config of the golden decision-log tests: the defaults
/// with a 1 s classifier warm-up. Their fleets run 1–2 s, so under the
/// default 6 s warm-up every log would be the CSV header alone and a
/// byte-identity check over it could not catch a divergent decision.
pub fn golden_serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.pipeline.warmup = SECOND;
    cfg
}

/// Asserts that a decision-log CSV holds at least `floor` decision rows
/// below its header, so a comparison against it is not vacuous.
pub fn assert_decision_rows(log: &str, floor: usize) {
    let rows = log.lines().count().saturating_sub(1);
    assert!(
        rows >= floor,
        "decision log holds {rows} rows, want at least {floor}"
    );
}
