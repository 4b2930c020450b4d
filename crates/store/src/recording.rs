//! The store end of the flight recorder: a [`TraceWriter`] plugged
//! into `mobisense-serve`'s [`RecordBackend`] trait.
//!
//! `mobisense-store` depends on `mobisense-serve` (for the wire
//! format), so the serve crate cannot name [`TraceWriter`] directly —
//! it records through the `RecordBackend` trait instead, and this
//! module is the production implementation: frames land via the
//! zero-copy [`append_encoded`](TraceWriter::append_encoded) path,
//! decision rows via
//! [`append_decision_row`](TraceWriter::append_decision_row), and the
//! channel-drained `idle` hook flushes the buffered writer so a
//! concurrent [`TailCursor`](crate::tail::TailCursor) sees records
//! without waiting for a seal. Either serve driver (in-process or
//! socket) fills the store the same way: frames while serving, then
//! the golden decision log as rows.

use std::io;

use mobisense_serve::recording::{RecordBackend, Recorder, RecordingConfig};

use crate::writer::{StoreConfig, TraceWriter, WriteSummary};

/// A [`TraceWriter`] wearing the [`RecordBackend`] hat.
pub struct FlightRecorder {
    writer: TraceWriter,
}

impl FlightRecorder {
    /// Opens a store-backed recorder backend over `cfg.dir`.
    pub fn create(cfg: StoreConfig) -> io::Result<FlightRecorder> {
        Ok(FlightRecorder {
            writer: TraceWriter::create(cfg)?,
        })
    }
}

impl RecordBackend for FlightRecorder {
    type Output = WriteSummary;

    fn record_frame(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.append_encoded(bytes).map_err(io::Error::other)
    }

    fn record_row(&mut self, row: &str) -> io::Result<()> {
        self.writer
            .append_decision_row(row)
            .map_err(io::Error::other)
    }

    fn idle(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn finish(self) -> io::Result<WriteSummary> {
        self.writer.finish()
    }
}

/// Spawns the background recorder thread over a store at `store_cfg`:
/// the one-call setup for a recorded run — hand its
/// [`handle`](Recorder::handle) to
/// [`serve_streams`](mobisense_serve::service::serve_streams) or the
/// socket edge's `serve_sockets`.
pub fn spawn_flight_recorder(
    store_cfg: StoreConfig,
    recording_cfg: RecordingConfig,
) -> io::Result<Recorder<FlightRecorder>> {
    Recorder::spawn(FlightRecorder::create(store_cfg)?, recording_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceReader;
    use crate::testdir;
    use mobisense_serve::recording::{RecordPolicy, RecordingConfig};
    use mobisense_serve::wire::ObsFrame;
    use mobisense_util::units::Nanos;

    fn frame(client: u32, seq: u32) -> ObsFrame {
        ObsFrame {
            client_id: client,
            seq,
            at: 1_000 * seq as Nanos,
            distance_m: 2.0,
            digest: vec![0.1; 4],
        }
    }

    #[test]
    fn recorded_frames_and_rows_land_in_a_sealed_store() {
        let dir = testdir::fresh("flightrec-basic");
        let rec = spawn_flight_recorder(
            StoreConfig::new(&dir),
            RecordingConfig {
                capacity: 8,
                policy: RecordPolicy::Block,
            },
        )
        .expect("spawn");
        let h = rec.handle();
        for seq in 0..20u32 {
            assert!(h.record_frame(&frame(3, seq).encode()));
        }
        h.record_row("3,done");
        let (summary, stats) = rec.finish().expect("finish");
        assert_eq!(summary.frames, 20);
        assert_eq!(stats.frames, 20);
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.dropped, 0);

        let r = TraceReader::open(&dir).expect("open");
        let (frames, rows) = r.read_frames().expect("strict read");
        assert_eq!(frames.len(), 20);
        assert_eq!(frames[7], frame(3, 7));
        assert_eq!(rows, vec!["3,done"]);
    }

    #[test]
    fn malformed_frames_fail_the_backend() {
        let dir = testdir::fresh("flightrec-bad");
        let rec = spawn_flight_recorder(StoreConfig::new(&dir), RecordingConfig::default())
            .expect("spawn");
        let h = rec.handle();
        h.record_frame(b"not a wire frame");
        assert!(rec.finish().is_err(), "bad bytes surface as an error");
    }
}
