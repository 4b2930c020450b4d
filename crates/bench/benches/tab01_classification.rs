//! Table 1: evaluation of mobility classification.
//!
//! Ground truth vs detection percentages across many held-out locations
//! (seeds disjoint from any used while tuning thresholds). The paper
//! reports >92% accuracy on the diagonal for all four modes, plus
//! reliable towards/away discrimination for macro-mobility.

use mobisense_bench::header;
use mobisense_core::pipeline::{run_classification, Confusion, PipelineConfig};
use mobisense_core::scenario::{Scenario, ScenarioConfig, ScenarioKind};
use mobisense_mobility::movers::EnvIntensity;
use mobisense_mobility::MobilityMode;
use mobisense_util::units::SECOND;
use mobisense_util::Vec2;

/// A larger hall for the radial-walk runs, so towards/away walks cover
/// 20+ metres as in the paper's office-corridor experiments.
fn hall() -> ScenarioConfig {
    ScenarioConfig {
        room_lo: Vec2::new(0.0, 0.0),
        room_hi: Vec2::new(56.0, 36.0),
        ap_pos: Vec2::new(28.0, 18.0),
        radial_range: (22.0, 26.0),
        ..ScenarioConfig::default()
    }
}

fn main() {
    header(
        "Table 1",
        "mobility classification confusion matrix (percent)",
        "diagonal >92% for all modes; macro direction (towards/away) \
         correct when macro is detected",
    );

    let cfg = PipelineConfig::default();
    let mut conf = Confusion::new();
    // The paper's Table 1 macro rows are radial walks ("moving towards
    // AP" / "moving away from AP"); natural random-waypoint walks are
    // reported separately below, since legs passing tangentially by the
    // AP are the classifier's acknowledged blind spot (section 9).
    let mut natural = Confusion::new();
    let mut dir_total = 0u64;
    let mut dir_ok = 0u64;

    // 25 held-out locations per mode (seeds 1000+); the environmental
    // row is the cafeteria-at-lunch setting (strong), as in the paper's
    // section 2.1. Macro runs mix long radial walks (larger hall, 20+ m,
    // as in office corridors) with random-waypoint walks; the radial
    // runs also score towards/away direction, mirroring the paper's
    // "moving towards AP / moving away" rows.
    let mode_runs: Vec<(ScenarioKind, bool, std::ops::Range<u64>, u64)> = vec![
        (ScenarioKind::Static, false, 1000..1025, 40),
        (
            ScenarioKind::Environmental(EnvIntensity::Strong),
            false,
            1100..1125,
            40,
        ),
        (ScenarioKind::Micro, false, 1200..1225, 40),
        (ScenarioKind::MacroAway, true, 1300..1312, 20),
        (ScenarioKind::MacroTowards, true, 1312..1324, 20),
    ];
    let natural_runs: std::ops::Range<u64> = 1320..1328;

    for (kind, radial, seeds, secs) in mode_runs {
        for seed in seeds {
            let mut sc = if radial {
                Scenario::with_config(kind, hall(), seed)
            } else {
                Scenario::new(kind, seed)
            };
            let recs = run_classification(&mut sc, &cfg, secs * SECOND, seed);
            for r in &recs {
                // Score against the instantaneous ground truth (a
                // finished walk counts as static).
                conf.add(r);
                if radial && r.truth.mode == MobilityMode::Macro {
                    if let Some(d) = r.truth.direction {
                        if r.decision.mode == MobilityMode::Macro {
                            dir_total += 1;
                            if r.decision.direction == Some(d) {
                                dir_ok += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    println!("truth \\ detected, static, environmental, micro, macro");
    for m in MobilityMode::ALL {
        if let Some(row) = conf.row_percent(m) {
            println!(
                "{}, {:.1}, {:.1}, {:.1}, {:.1}",
                m.label(),
                row[0],
                row[1],
                row[2],
                row[3]
            );
        }
    }
    for seed in natural_runs {
        let mut sc = Scenario::new(ScenarioKind::MacroRandom, seed);
        let recs = run_classification(&mut sc, &cfg, 40 * SECOND, seed);
        for r in &recs {
            natural.add(r);
        }
    }

    let dir_acc = 100.0 * dir_ok as f64 / dir_total.max(1) as f64;
    println!("# macro direction accuracy (when macro detected): {dir_acc:.1}%");
    for m in MobilityMode::ALL {
        if let Some(acc) = conf.accuracy(m) {
            // The tested threshold and the paper's target are separate
            // verdicts, so a pass here never reads as meeting the paper.
            println!(
                "# check: {} accuracy {:.1}% >= 80%: {}; paper target >=92%: {}",
                m.label(),
                acc * 100.0,
                acc >= 0.80,
                if acc >= 0.92 { "met" } else { "miss" }
            );
        }
    }
    if let Some(row) = natural.row_percent(MobilityMode::Macro) {
        println!(
            "# supplementary — natural random-waypoint walks (tangential legs \
             are the known blind spot): macro detected {:.1}%, micro {:.1}%",
            row[3], row[2]
        );
    }
}
