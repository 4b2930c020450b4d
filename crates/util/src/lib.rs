//! # mobisense-util
//!
//! Foundation substrate for the `mobisense` workspace: deterministic
//! random-number fan-out, complex arithmetic, small complex linear algebra
//! (for MIMO precoding), descriptive statistics, CDF construction, the
//! streaming filters (median, moving average, EWMA) that the paper's
//! classification pipeline is built from, and the workspace's one JSON
//! codec ([`json`]).
//!
//! Everything in this crate is `std`-only, allocation-light, and free of
//! global state: all randomness flows from explicitly seeded [`rng::DetRng`]
//! values so that every experiment in the workspace is bit-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod complex;
pub mod crc;
pub mod filter;
pub mod json;
pub mod linalg;
pub mod rng;
pub mod stats;
pub mod units;
pub mod vec2;

pub use cdf::Cdf;
pub use complex::C64;
pub use rng::DetRng;
pub use vec2::Vec2;
