//! Socket-edge ingestion throughput: frames/sec through the poll-based
//! reactor versus the in-process serve path, with the wire contracts
//! checked along the way.
//!
//! Not a paper artefact — this measures the `mobisense-edge` network
//! frontend (DESIGN.md section 5.12). One pre-encoded fleet is served
//! three ways: in-process (the ceiling, no sockets), over loopback TCP
//! with whole-stream writes, and over loopback TCP fragmented into
//! 7-byte writes (the reassembly worst case). Whatever the transport,
//! the merged decision log must stay byte-identical to the in-process
//! run and frame conservation (`accepted == processed + shed +
//! rejected`) must hold — both are asserted here, not just reported.
//!
//! A fourth pass pushes the same frames as UDP datagrams to price the
//! standalone-datagram decode path. The throughputs are printed, not
//! gated: the repository benchmark (`benchmark/`) owns timing.

use std::time::Instant;

use mobisense_bench::header;
use mobisense_edge::{serve_sockets, Edge, EdgeConfig};
use mobisense_serve::fleet::{EncodedFleet, FleetConfig};
use mobisense_serve::service::{decision_log_csv, serve_streams, ServeConfig};
use mobisense_telemetry::NoopSink;
use mobisense_util::units::{MILLISECOND, SECOND};

fn main() {
    header(
        "socket_ingest",
        "socket edge: reactor frames/sec over loopback TCP/UDP vs the in-process path",
        "decision log is transport-invariant; conservation holds; fragmentation costs decode work, not correctness",
    );
    let fleet_cfg = FleetConfig {
        n_clients: 128,
        duration: 10 * SECOND,
        step: 20 * MILLISECOND,
        base_seed: 2014,
        ..FleetConfig::default()
    };
    let fleet = EncodedFleet::generate(&fleet_cfg);
    eprintln!(
        "fleet ready: {} clients, {} frames, {:.1} MiB on the wire",
        fleet_cfg.n_clients,
        fleet.total_frames(),
        fleet.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    let serve_cfg = ServeConfig::default();
    let edge_cfg = EdgeConfig::default();

    // The ceiling: the same streams served with no sockets at all.
    let t0 = Instant::now();
    let (golden_decisions, golden_report) =
        serve_streams(&serve_cfg, &fleet.streams, None, &mut NoopSink);
    let in_process_secs = t0.elapsed().as_secs_f64();
    let golden = decision_log_csv(&golden_decisions);
    assert_eq!(golden_report.frames_processed, fleet.total_frames());
    let in_process_fps = fleet.total_frames() as f64 / in_process_secs;

    println!("transport, frames_per_sec, vs_in_process, conserved, log_identical");
    println!("in-process, {in_process_fps:.0}, 1.00, -, -");

    // TCP, twice: whole-stream writes, then 7-byte fragments. The
    // fragmented pass forces the assembler to reframe across chunk
    // boundaries on every frame — the decode-path worst case.
    let mut tcp_fps = 0.0f64;
    let mut frag_fps = 0.0f64;
    for (label, chunk, slot) in [
        ("tcp-whole", 0usize, &mut tcp_fps),
        ("tcp-7byte", 7usize, &mut frag_fps),
    ] {
        for _ in 0..2 {
            let t0 = Instant::now();
            let (decisions, report) = serve_sockets(
                &serve_cfg,
                &edge_cfg,
                &fleet.streams,
                chunk,
                None,
                &mut NoopSink,
            )
            .expect("socket serve");
            let secs = t0.elapsed().as_secs_f64();
            assert!(report.conserved(), "{label}: conservation broke");
            assert_eq!(report.stats.frames, fleet.total_frames());
            assert_eq!(
                decision_log_csv(&decisions),
                golden,
                "{label}: socket run diverged from the in-process decision log"
            );
            *slot = slot.max(report.stats.frames as f64 / secs);
        }
        println!(
            "{label}, {:.0}, {:.2}, yes, yes",
            *slot,
            *slot / in_process_fps
        );
    }

    // UDP: every frame its own datagram, decoded standalone.
    let edge = Edge::bind(&serve_cfg, &edge_cfg, None).expect("bind");
    let t0 = Instant::now();
    let sent = mobisense_edge::send_datagrams_udp(edge.udp_addr(), &fleet.streams).expect("udp");
    // A datagram burst overruns the loopback socket buffer: the kernel
    // drops the excess, so "all sent frames arrived" may never hold.
    // Wait for quiescence instead — no new frames for 200ms.
    let mut seen = edge.stats().frames;
    let mut settled = Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let now = edge.stats().frames;
        if now != seen {
            seen = now;
            settled = Instant::now();
        } else if settled.elapsed().as_millis() >= 200 || seen >= sent {
            break;
        }
    }
    let udp_secs = (t0.elapsed().as_secs_f64() - 0.2).max(f64::MIN_POSITIVE);
    let (_d, udp_report) = edge.finish(&mut NoopSink).expect("finish");
    assert!(udp_report.conserved(), "udp: conservation broke");
    // Loopback UDP still drops under burst if the socket buffer fills;
    // decoded frames are what we can price, and every decoded frame
    // must be accounted for.
    let udp_fps = udp_report.stats.frames as f64 / udp_secs;
    println!(
        "udp, {udp_fps:.0}, {:.2}, yes, - ({} of {} datagrams landed)",
        udp_fps / in_process_fps,
        udp_report.stats.datagrams,
        sent
    );

    let frag_cost_pct = ((1.0 - frag_fps / tcp_fps.max(f64::MIN_POSITIVE)) * 100.0).max(0.0);
    println!("# 7-byte fragmentation throughput cost: {frag_cost_pct:.1}%");
}
