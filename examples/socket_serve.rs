//! Socket serving: the fleet arrives over real loopback sockets.
//!
//! Binds the std-only poll-based socket edge, plays a synthetic fleet
//! against it over TCP (one connection per client, fragmented writes),
//! sprinkles a few frames over UDP, and prints the edge's accounting:
//! connection lifecycle, frame conservation (`accepted == processed +
//! shed + rejected`), resynchronizations, the reactor's idle work
//! (sweeps, yields, parks), and proof that the decision log matches
//! the in-process run byte for byte.
//!
//! Run with: `cargo run --release --example socket_serve`
//! Optional args: `[n_clients] [chunk_bytes]` (defaults 200, 17).

use mobisense_edge::{serve_sockets, Edge, EdgeConfig};
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::queue::OverflowPolicy;
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig};
use mobisense_telemetry::NoopSink;
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_clients: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let chunk: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(17);

    let fleet = EncodedFleet::generate(&FleetConfig {
        n_clients,
        duration: 5 * SECOND,
        step: 100 * MILLISECOND,
        base_seed: 42,
        ..FleetConfig::default()
    });
    println!(
        "fleet: {} clients, {} frames, {:.1} KiB on the wire",
        n_clients,
        fleet.total_frames(),
        fleet.total_bytes() as f64 / 1024.0
    );

    // Blocking backpressure: lossless, so the socket run's decision
    // log is bit-identical to the in-process run (swap in
    // ShedOldestPerClient to watch the overload path instead).
    let serve_cfg = ServeConfig {
        n_shards: 4,
        queue_capacity: 256,
        overflow: OverflowPolicy::Block,
        ..ServeConfig::default()
    };
    let edge_cfg = EdgeConfig::default();

    // The reference: the same streams served in-process.
    let (golden_decisions, _) = serve_streams(&serve_cfg, &fleet.streams, None, &mut NoopSink);

    let t0 = std::time::Instant::now();
    let (decisions, report) = serve_sockets(
        &serve_cfg,
        &edge_cfg,
        &fleet.streams,
        chunk,
        None,
        &mut NoopSink,
    )
    .expect("socket serve");
    let wall = t0.elapsed();

    println!();
    println!(
        "served {} frames over {} TCP connections in {:.2} s ({chunk}-byte writes)",
        report.stats.frames,
        report.stats.conns_accepted,
        wall.as_secs_f64()
    );
    println!(
        "conservation: accepted {} == processed {} + shed {} + rejected {} → {}",
        report.stats.frames,
        report.serve.frames_processed,
        report.serve.shed,
        report.stats.frames_rejected,
        if report.conserved() {
            "holds"
        } else {
            "BROKEN"
        }
    );
    println!(
        "peak concurrent connections {}, peak buffered bytes observed {}, resyncs {}",
        report.stats.conns_peak, report.stats.buffered_bytes, report.stats.resyncs
    );
    let s = &report.stats;
    println!(
        "reactor: {} sweeps, {} idle ({} yields + {} parks), {} hand-offs ({:.1} frames each)",
        s.sweeps,
        s.idle_sweeps,
        s.yields,
        s.parks,
        s.handoffs,
        (s.frames - s.frames_rejected) as f64 / s.handoffs.max(1) as f64
    );
    assert_eq!(
        s.idle_sweeps,
        s.yields + s.parks,
        "every idle sweep yields or parks"
    );
    let identical = decision_log_csv(&decisions) == decision_log_csv(&golden_decisions);
    println!(
        "decision log vs in-process run: {}",
        if identical {
            "byte-identical"
        } else {
            "DIVERGED (shedding is timing-dependent; use Block for determinism)"
        }
    );

    // A taste of the UDP side: one edge, a few datagrams.
    let edge = Edge::bind(&serve_cfg, &edge_cfg, None).expect("bind");
    let few: Vec<_> = fleet.streams.iter().take(3).cloned().collect();
    let sent = mobisense_edge::send_datagrams_udp(edge.udp_addr(), &few).expect("send udp");
    while edge.stats().frames < sent {
        std::thread::yield_now();
    }
    let (_d, udp_report) = edge.finish(&mut NoopSink).expect("finish");
    println!();
    println!(
        "udp: {} datagrams in, {} frames decoded, conserved: {}",
        udp_report.stats.datagrams,
        udp_report.stats.frames,
        udp_report.conserved()
    );
}
