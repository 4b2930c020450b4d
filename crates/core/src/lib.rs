//! # mobisense-core
//!
//! The paper's primary contribution: AP-side classification of a WiFi
//! client's mobility mode from PHY-layer information only — no client
//! modification, no sensors — plus the policy engine that turns the
//! classified mode into protocol parameters.
//!
//! The pipeline (paper Figure 5):
//!
//! ```text
//!   CSI from data/ACK exchange ──► similarity S_i of consecutive samples
//!        S̄ > Thr_sta (0.98) ──► STATIC          (stop ToF measurement)
//!        S̄ > Thr_env (0.70) ──► ENVIRONMENTAL   (stop ToF measurement)
//!        otherwise          ──► device mobility (start ToF measurement)
//!             ToF medians trending up   ──► MACRO, moving away
//!             ToF medians trending down ──► MACRO, moving towards
//!             no trend                  ──► MICRO
//! ```
//!
//! * [`similarity`] — CSI sampling and the Equation-(1) similarity tracker.
//! * [`trend`] — the ToF moving-window trend detector.
//! * [`classifier`] — the full state machine, producing a
//!   [`classifier::Classification`] each CSI sampling period.
//! * [`policy`] — the paper's Table 2: per-mode protocol parameters for
//!   roaming, rate adaptation, frame aggregation, beamforming and MU-MIMO.
//! * [`scenario`] — glue that binds a mobility trajectory, an environment
//!   mover field and a ray channel into a steppable ground-truth scenario,
//!   used by every experiment in the workspace.
//! * [`pipeline`] — the end-to-end harness (scenario -> classifier ->
//!   confusion matrix) behind the paper's Table 1 and Figure 6.
//! * [`aoa_ext`] — the paper's proposed future-work extension
//!   (section 9): AoA bearing tracking that catches a client circling
//!   the AP, the base classifier's acknowledged blind spot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aoa_ext;
pub mod classifier;
pub mod pipeline;
pub mod policy;
pub mod scenario;
pub mod similarity;
pub mod trend;

pub use classifier::{Classification, ClassifierConfig, MobilityClassifier};
pub use pipeline::{PipelineConfig, PipelineSession};
pub use policy::MobilityPolicy;
pub use scenario::{Scenario, ScenarioKind};
