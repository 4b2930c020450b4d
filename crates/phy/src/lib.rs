//! # mobisense-phy
//!
//! The 802.11n physical-layer substrate that stands in for the paper's
//! hardware testbed (HP MSM 460 APs with Atheros AR9390, 5.825 GHz,
//! 40 MHz, 3x2 MIMO). It provides, from the bottom up:
//!
//! * [`csi`] — the Channel State Information matrix a commodity Atheros
//!   chipset exports (52 subcarrier bins x transmit x receive antennas),
//!   plus RSSI derivation.
//! * [`channel`] — a geometric multipath ray model. CSI is computed from
//!   actual path lengths (line-of-sight plus reflectors) measured in
//!   wavelengths, so the temporal CSI dynamics the classifier keys on
//!   (decorrelation under device motion, partial change under environmental
//!   motion) emerge from geometry instead of being postulated.
//! * [`tof`] — the Time-of-Flight measurement pipeline: round-trip
//!   propagation time recovered from the DATA -> SIFS -> ACK exchange,
//!   with clock quantisation, Gaussian error and occasional outliers.
//! * [`mcs`] — the 802.11n MCS table (MCS 0-15, 40 MHz).
//! * [`per`] — packet-error-rate model: logistic PER-vs-SNR curves per MCS,
//!   effective SNR across frequency-selective subcarriers, and the
//!   intra-frame channel-aging penalty that makes long aggregated frames
//!   lossy under mobility.
//! * [`airtime`] — 802.11n medium-time accounting (preambles, SIFS/DIFS,
//!   backoff, block-ACK) used to convert MAC decisions into throughput.
//! * [`trace`] — recorded channel traces for the paper's trace-based
//!   emulation methodology (sections 4.3 and 6.2).
//! * [`aoa`] — Angle-of-Arrival estimation (Bartlett and MUSIC) from the
//!   AP's antenna array, the paper's proposed fix (section 9) for the
//!   circling-client blind spot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airtime;
pub mod aoa;
pub mod channel;
pub mod config;
pub mod csi;
pub mod mcs;
pub mod per;
pub mod tof;
pub mod trace;

pub use channel::{RayChannel, Reflector};
pub use config::ChannelConfig;
pub use csi::Csi;
pub use mcs::Mcs;
pub use tof::{TofMeasurement, TofSampler};
