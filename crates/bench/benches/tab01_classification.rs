//! Table 1: evaluation of mobility classification.
//!
//! Ground truth vs detection percentages across many held-out locations
//! (seeds disjoint from any used while tuning thresholds). The paper
//! reports >92% accuracy on the diagonal for all four modes, plus
//! reliable towards/away discrimination for macro-mobility.

use mobisense_bench::{classify_runs, header, table1_runs, ClassificationRuns};
use mobisense_core::scenario::ScenarioKind;
use mobisense_mobility::MobilityMode;

fn main() {
    header(
        "Table 1",
        "mobility classification confusion matrix (percent)",
        "diagonal >92% for all modes; macro direction (towards/away) \
         correct when macro is detected",
    );

    // The paper's Table 1 macro rows are radial walks ("moving towards
    // AP" / "moving away from AP"); natural random-waypoint walks are
    // reported separately below, since legs passing tangentially by the
    // AP are the classifier's acknowledged blind spot (section 9).
    let table = classify_runs(&table1_runs());
    let conf = &table.confusion;

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
    let natural = classify_runs(&[ClassificationRuns {
        kind: ScenarioKind::MacroRandom,
        radial: false,
        seeds: 1320..1328,
        secs: 40,
    }])
    .confusion;

    let dir_acc = 100.0 * table.dir_ok as f64 / table.dir_total.max(1) as f64;
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
