//! Live session-residency telemetry for the serving layer.
//!
//! Each shard worker owns a [`mobisense_session::HibernationManager`]
//! privately; what the rest of the process may see is this module's
//! [`SessionGauges`] — a small block of atomics the worker *stores*
//! absolute values into after every work item, and the ops monitor (or
//! any other thread) reads at its own cadence. No locks on the frame
//! path, no cross-shard contention: one writer per gauge block, any
//! number of readers.
//!
//! `SessionOpsSource` adapts a run's gauge blocks to the [`OpsSource`]
//! trait so hot/hibernated/resident-bytes land in the same JSONL
//! snapshot stream (and the same stall watchdog) as queue depth and
//! recorder health. The shard engine registers it on every monitored
//! run, so it is not public.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mobisense_telemetry::Registry;

use crate::ops::OpsSource;

/// One shard worker's session-residency telemetry, written by the
/// owning worker only (absolute stores, `Relaxed` — each field is an
/// independent statistic, no cross-field ordering is promised) and read
/// by the ops monitor.
#[derive(Debug, Default)]
pub struct SessionGauges {
    /// Sessions currently resident (gauge).
    pub hot: AtomicU64,
    /// Sessions currently paged out (gauge).
    pub hibernated: AtomicU64,
    /// Approximate bytes of resident session state (gauge).
    pub resident_bytes: AtomicU64,
    /// Sessions paged out, lifetime (counter).
    pub hibernates: AtomicU64,
    /// Sessions faulted back in, lifetime (counter).
    pub restores: AtomicU64,
    /// Sessions dropped without a snapshot, lifetime (counter).
    pub evictions: AtomicU64,
    /// Total wall-clock nanoseconds spent faulting sessions in,
    /// lifetime (counter; divide by [`restores`](Self::restores) for
    /// the mean fault-in latency).
    pub fault_in_ns: AtomicU64,
}

impl SessionGauges {
    /// A zeroed gauge block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifecycle progress: total retire/restore transitions so far. A
    /// frozen value is normal (hibernation idle), so this feeds the
    /// watchdog with a zero backlog — the sessions source can never be
    /// flagged stalled, it only contributes metrics.
    pub fn progress(&self) -> u64 {
        self.hibernates.load(Ordering::Relaxed)
            + self.restores.load(Ordering::Relaxed)
            + self.evictions.load(Ordering::Relaxed)
    }
}

/// Adapts a run's per-shard [`SessionGauges`] to the ops monitor's
/// [`OpsSource`] trait: sums across shards into `serve.sessions.*`
/// metrics on every tick.
pub(crate) struct SessionOpsSource {
    shards: Vec<Arc<SessionGauges>>,
}

impl SessionOpsSource {
    /// Wraps the per-shard gauge blocks of one run.
    pub(crate) fn new(shards: Vec<Arc<SessionGauges>>) -> Self {
        SessionOpsSource { shards }
    }
}

impl OpsSource for SessionOpsSource {
    fn name(&self) -> String {
        "sessions".into()
    }

    fn observe(&self, reg: &mut Registry) -> (u64, u64) {
        let (mut hot, mut hib, mut res_bytes) = (0u64, 0u64, 0u64);
        let (mut hibernates, mut restores, mut evictions, mut fault_ns) = (0u64, 0u64, 0u64, 0u64);
        for g in &self.shards {
            hot += g.hot.load(Ordering::Relaxed);
            hib += g.hibernated.load(Ordering::Relaxed);
            res_bytes += g.resident_bytes.load(Ordering::Relaxed);
            hibernates += g.hibernates.load(Ordering::Relaxed);
            restores += g.restores.load(Ordering::Relaxed);
            evictions += g.evictions.load(Ordering::Relaxed);
            fault_ns += g.fault_in_ns.load(Ordering::Relaxed);
        }
        reg.gauge("serve.sessions.hot").set(hot as f64);
        reg.gauge("serve.sessions.hibernated").set(hib as f64);
        reg.gauge("serve.sessions.resident_bytes")
            .set(res_bytes as f64);
        reg.counter("serve.sessions.hibernates").add(hibernates);
        reg.counter("serve.sessions.restores").add(restores);
        reg.counter("serve.sessions.evictions").add(evictions);
        reg.counter("serve.sessions.fault_in_ns").add(fault_ns);
        let progress: u64 = self.shards.iter().map(|g| g.progress()).sum();
        // Backlog 0: an idle hibernation subsystem is healthy, never a
        // stall.
        (progress, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_sums_shards_and_reports_zero_backlog() {
        let a = Arc::new(SessionGauges::new());
        let b = Arc::new(SessionGauges::new());
        a.hot.store(3, Ordering::Relaxed);
        b.hot.store(5, Ordering::Relaxed);
        a.hibernated.store(2, Ordering::Relaxed);
        a.resident_bytes.store(1000, Ordering::Relaxed);
        b.resident_bytes.store(500, Ordering::Relaxed);
        a.hibernates.store(7, Ordering::Relaxed);
        b.restores.store(4, Ordering::Relaxed);
        b.evictions.store(1, Ordering::Relaxed);
        a.fault_in_ns.store(90, Ordering::Relaxed);

        let src = SessionOpsSource::new(vec![a, b]);
        assert_eq!(src.name(), "sessions");
        let mut reg = Registry::new();
        let (progress, backlog) = src.observe(&mut reg);
        assert_eq!((progress, backlog), (12, 0));
        assert_eq!(reg.gauge_value("serve.sessions.hot"), Some(8.0));
        assert_eq!(reg.gauge_value("serve.sessions.hibernated"), Some(2.0));
        assert_eq!(
            reg.gauge_value("serve.sessions.resident_bytes"),
            Some(1500.0)
        );
        assert_eq!(reg.counter_value("serve.sessions.hibernates"), Some(7));
        assert_eq!(reg.counter_value("serve.sessions.restores"), Some(4));
        assert_eq!(reg.counter_value("serve.sessions.evictions"), Some(1));
        assert_eq!(reg.counter_value("serve.sessions.fault_in_ns"), Some(90));
    }
}
