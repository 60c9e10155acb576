//! Table 1 — the video corpus: the statistics of the synthetic corpus
//! presets (dataset, resolution, duration, per-frame object coverage band,
//! class, frequent objects) next to the paper's coverage bands. Resolutions
//! and durations are uniformly scaled down (see `tasm_data::datasets`). The
//! claim it checks is [`CLAIM`].

use crate::{scaled_secs, Figure, Table, Verdict};
use tasm_data::Dataset;
use tasm_video::FrameSource;

/// The paper's corpus bands and the split it classifies them by.
const CLAIM: &str = "Per-frame object coverage: Visual Road 0.06-10 %, Netflix public \
0.32-49 %, Netflix Open Source 25-45 %, XIPH 2-59 %, MOT16 3-36 %, El Fuente 1-47 %. \
Videos split into sparse and dense at 20 % mean coverage (§5.2.2).";

/// Reproduces Table 1 at `scale`.
pub fn table1(scale: f64) -> Figure {
    let duration = scaled_secs(4, scale);
    let header = [
        "dataset",
        "res.",
        "dur. (s)",
        "per-frame coverage (%)",
        "class",
        "frequent objects",
    ];
    let mut table = Table::new("", &header);
    let mut misplaced = Vec::new();
    for ds in Dataset::ALL {
        let v = ds.build(duration, 42);
        let coverages: Vec<f64> = (0..v.len()).map(|t| v.coverage(t) * 100.0).collect();
        let min = coverages.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = coverages.iter().cloned().fold(0.0, f64::max);
        let mean = coverages.iter().sum::<f64>() / coverages.len() as f64;
        if ds.is_dense() != (mean >= 20.0) {
            misplaced.push(format!("{} (mean {mean:.1} %)", ds.name()));
        }
        table.rows.push(vec![
            ds.name().to_string(),
            format!("{}x{}", v.width(), v.height()),
            duration.to_string(),
            format!("{min:.1}-{max:.1} (mean {mean:.1})"),
            if ds.is_dense() { "dense" } else { "sparse" }.to_string(),
            ds.primary_labels().join(", "),
        ]);
    }
    let evidence = if misplaced.is_empty() {
        format!("all {} presets", Dataset::ALL.len())
    } else {
        format!("on the wrong side: {}", misplaced.join(", "))
    };
    Figure {
        name: "table1",
        title: "the video corpus (synthetic equivalents)",
        claim: CLAIM,
        tables: vec![table],
        verdicts: vec![Verdict::new(
            "each preset's class is its mean coverage's side of 20 %",
            misplaced.is_empty(),
            evidence,
        )],
    }
}
