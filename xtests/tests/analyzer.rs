//! Cross-crate analyzer tests: the lint suite holds on the shipped
//! workspace, each committed fixture trips its lint, and every lint
//! self-describes. The telemetry round-trip test walks the tag list
//! generated from the `Event` variant table, so a variant added without
//! a sample here fails the suite.

use std::path::{Path, PathBuf};

use mobisense_analyze::{all_lints, load_workspace, run, run_full, Lint};
use mobisense_telemetry::event::KINDS;
use mobisense_telemetry::export::{event_to_json, parse_event};
use mobisense_telemetry::Event;

/// The workspace root: xtests' manifest dir is `<root>/xtests`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtests has a parent")
        .to_path_buf()
}

/// The shipped workspace is lint-clean *including waiver hygiene*:
/// what CI enforces with `cargo run -p mobisense-analyze --
/// --deny-all`, asserted here so a plain `cargo test` catches
/// regressions too. Every waiver in the tree must still be earning
/// its keep — a stale one is a finding.
#[test]
fn shipped_workspace_has_no_findings() {
    let ws = load_workspace(&repo_root()).expect("load workspace");
    assert!(
        ws.files.len() >= 40,
        "workspace discovery looks broken: only {} files",
        ws.files.len()
    );
    let out = run_full(&ws, &all_lints(), true);
    let rendered: Vec<String> = out.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        out.findings.is_empty(),
        "lint findings:\n{}",
        rendered.join("\n")
    );
    assert!(
        !out.suppressions.is_empty(),
        "the workspace carries waivers; zero recorded suppressions \
         means waiver accounting broke"
    );
}

/// Each committed known-bad fixture tree makes exactly its lint fire —
/// the same trees CI gates with `--root ... --only <lint> --deny-all`.
#[test]
fn committed_fixtures_trip_their_lints() {
    let cases: [(&str, &str, &[&str]); 3] = [
        ("hold_and_call", "hold-and-call", &["fs::rename", "cycle"]),
        ("blocking_hot_path", "hot-path", &["sleep", "fs::write"]),
        ("error_swallow", "error-swallow", &["let _", ".ok()"]),
    ];
    for (dir, lint_name, needles) in cases {
        let root = repo_root().join("crates/analyze/fixtures").join(dir);
        let ws = load_workspace(&root).unwrap_or_else(|e| panic!("load fixture {dir}: {e}"));
        let lints: Vec<Box<dyn Lint>> = all_lints()
            .into_iter()
            .filter(|l| l.name() == lint_name)
            .collect();
        assert_eq!(lints.len(), 1, "lint {lint_name} exists");
        let findings = run(&ws, &lints);
        assert!(
            !findings.is_empty(),
            "fixture {dir} no longer trips {lint_name}"
        );
        for needle in needles {
            assert!(
                findings.iter().any(|f| f.message.contains(needle)),
                "fixture {dir} lost its `{needle}` finding: {findings:?}"
            );
        }
    }
}

/// The suite carries the eight contract lints, each with a distinct
/// name and a non-empty invariant statement (what `--list` prints).
#[test]
fn lint_suite_covers_the_nine_contracts() {
    let lints = all_lints();
    let names: Vec<&str> = lints.iter().map(|l| l.name()).collect();
    for expected in [
        "determinism",
        "panic-paths",
        "lock-discipline",
        "hold-and-call",
        "hot-path",
        "error-swallow",
        "format-const",
        "unsafe-ban",
    ] {
        assert!(
            names.contains(&expected),
            "missing lint {expected}: {names:?}"
        );
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate lint names: {names:?}");
    for lint in &lints {
        assert!(
            lint.invariant().len() > 20,
            "lint {} has no real invariant description",
            lint.name()
        );
    }
}

/// A sample value for each `Event` tag. Failing on an unknown tag is
/// the point: a variant added to the table shows up in [`KINDS`]
/// before anyone writes a sample here.
fn sample_for(kind: &str) -> Event {
    match kind {
        "decision" => Event::Decision {
            at: 1_000,
            mode: "micro".to_string(),
            direction: Some("approaching".to_string()),
        },
        "tof_median" => Event::TofMedian {
            at: 2_000,
            cycles: 3.25,
        },
        "rate_change" => Event::RateChange {
            at: 3_000,
            from_mcs: 4,
            to_mcs: 7,
        },
        "handoff" => Event::Handoff {
            at: 4_000,
            from_ap: 1,
            to_ap: 2,
        },
        "beamsound" => Event::Beamsound { at: 5_000, ap: 3 },
        "ampdu_tx" => Event::AmpduTx {
            at: 6_000,
            mcs: 5,
            n_mpdus: 16,
            n_delivered: 14,
            airtime: 250_000,
        },
        "goodput" => Event::Goodput {
            at: 7_000,
            elapsed: 1_000_000,
            bits: 123_456,
        },
        "serve_shard" => Event::ServeShard {
            at: 8_000,
            shard: 2,
            frames: 1_000,
            decisions: 12,
            shed: 3,
            max_depth: 9,
        },
        "store_segment" => Event::StoreSegment {
            at: 9_000,
            segment: 7,
            frames: 512,
            bytes: 65_536,
        },
        "store_recovery" => Event::StoreRecovery {
            at: 10_000,
            segment: 8,
            frames: 100,
            lost: 4,
        },
        "serve_recorder" => Event::ServeRecorder {
            at: 11_000,
            frames: 2_048,
            rows: 16,
            dropped: 5,
            max_depth: 33,
        },
        "store_retention" => Event::StoreRetention {
            at: 12_000,
            segment: 9,
            frames: 256,
            bytes: 32_768,
        },
        "stall" => Event::Stall {
            at: 0,
            source: "shard-2".to_string(),
            intervals: 3,
            backlog: 512,
        },
        "snapshot" => Event::Snapshot {
            at: 0,
            seq: 4,
            metrics: 23,
            bytes: 2_048,
        },
        "store_compaction" => Event::StoreCompaction {
            at: 13_000,
            segments_in: 6,
            segments_out: 2,
            records: 4_096,
            bytes_in: 1_048_576,
            bytes_out: 524_288,
        },
        "edge_conn" => Event::EdgeConn {
            at: 14_000,
            conn: 17,
            frames: 120,
            bytes: 7_440,
            resyncs: 1,
            outcome: "eof".to_string(),
        },
        "session_hibernate" => Event::SessionHibernate {
            at: 16_000,
            client_id: 42,
            shard: 1,
            bytes: 1_280,
        },
        "session_restore" => Event::SessionRestore {
            at: 17_000,
            client_id: 42,
            shard: 1,
            wait_ns: 35_000,
        },
        "session_migrate" => Event::SessionMigrate {
            at: 18_000,
            client_id: 42,
            from_shard: 1,
            to_shard: 3,
            bytes: 1_280,
        },
        "edge_serve" => Event::EdgeServe {
            at: 15_000,
            conns: 10_240,
            rejected_conns: 3,
            frames: 40_960,
            rejected_frames: 12,
            bytes: 2_539_520,
            datagrams: 64,
        },
        other => panic!(
            "event type {other:?} has no JSONL round-trip sample: a new \
             variant was added to telemetry::Event; extend sample_for"
        ),
    }
}

/// Every `Event` variant, enumerated from the table-generated tag
/// list, survives a JSONL round-trip intact and keeps its tag.
/// Exhaustive by construction: the variant list is not hand-kept.
#[test]
fn every_event_variant_round_trips_through_jsonl() {
    assert!(
        KINDS.len() >= 15,
        "Event tag list shrank unexpectedly: {KINDS:?}"
    );
    for &kind in KINDS {
        let event = sample_for(kind);
        assert_eq!(
            event.kind(),
            kind,
            "sample for {kind:?} has the wrong variant"
        );
        let json = event_to_json(&event);
        assert!(
            json.starts_with('{') && json.ends_with('}'),
            "{kind:?} encodes as one flat JSON object: {json}"
        );
        let parsed = parse_event(&json)
            .unwrap_or_else(|e| panic!("{kind:?} failed to parse back: {e}\n{json}"));
        assert_eq!(parsed, event, "{kind:?} round-trip changed the value");
    }
}
