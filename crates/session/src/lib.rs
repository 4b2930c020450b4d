//! # mobisense-session
//!
//! Session hibernation for the serving layer: the versioned binary
//! snapshot codec for a full per-client classification session, and the
//! paging manager that decides when a session leaves the hot set.
//!
//! The paper's deployment target is an enterprise WLAN where an AP (or
//! a controller fronting many APs) tracks mobility state for every
//! associated client. Most clients are idle most of the time — a laptop
//! parked on a desk exchanges a frame every few seconds — yet a naive
//! serving layer keeps the full classifier + ToF sampler state resident
//! for each of them. This crate pages a live session out to bytes and
//! back in, so the serving layer can:
//!
//! * **hibernate** idle sessions — page them into the trace store and
//!   drop the resident state, faulting the page back in transparently
//!   on the client's next frame; and
//! * **rebalance** live shards — the same page is the unit of migration
//!   when a client moves between shard workers
//!   (drain → encode → transfer → decode → resume).
//!
//! The load-bearing invariant, pinned by golden-replay tests in
//! `xtests`: **hibernate → restore ≡ never hibernated**. A session
//! restored from its snapshot continues the decision stream
//! bit-identically, so hibernation and migration are invisible in the
//! decision log.
//!
//! * [`codec`] — the `"MSSP"` byte format: magic, version, length
//!   prefix, CRC-32 seal over header + body, total parser with typed
//!   [`codec::SnapshotError`]s. Any single bit flip or truncation is
//!   detected; there is no silently divergent restore. Pages are
//!   encoded straight from a live session and decoded straight into
//!   one, through the session's own state walk.
//! * [`hibernate`] — [`hibernate::HibernationManager`]: deterministic
//!   idle/LRU victim selection over a [`hibernate::SnapshotPager`]
//!   backend (in-memory here; the trace store implements the trait in
//!   `mobisense-store`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod hibernate;

pub use codec::SnapshotError;
pub use hibernate::{
    HibernationConfig, HibernationManager, HibernationStats, MemoryPager, PageError, RetirePolicy,
    SnapshotPager,
};
