//! The lint suite. Each module hosts one lint plus the fixture
//! self-tests proving it fires on known-bad snippets. The other five
//! are lexical (token scans over one file at a time); `deadlock`,
//! `blocking` and `swallow` are graph-aware — they reason over the
//! per-crate call graph built by [`crate::graph`].

pub mod blocking;
pub mod deadlock;
pub mod determinism;
pub mod format_const;
pub mod locks;
pub mod panic;
pub mod swallow;
pub mod unsafe_ban;
