//! Figure 9 — effect of SOT (layout) duration on query cost and storage.
//!
//! Encodes the same videos with SOT durations of 1–5 seconds (GOP length =
//! SOT duration, as in the paper) using fine non-uniform layouts around the
//! query object, then measures (a) the improvement of 1-second object
//! queries over the untiled 1-second-GOP video, and (b) storage relative to
//! that untiled baseline. The claim it checks is [`CLAIM`].

use crate::{improvement_pct, layout_around, scaled_secs, BenchVideo, Figure, Summary};
use crate::{Table, Verdict};
use tasm_core::{Granularity, StorageConfig};
use tasm_data::Dataset;
use tasm_video::FrameSource;

/// The paper's shape for SOT duration.
const CLAIM: &str = "Shorter SOTs give larger improvements (53 % at 1 s → 36 % at 5 s) \
because tiles track objects more tightly, but cost more storage (-5 % vs -15 % relative to \
the original).";

/// §4.1's price of querying `object` in 1-second windows over the whole
/// video.
fn windowed_cost(bv: &BenchVideo, object: &str) -> f64 {
    let cost = bv.tasm.config().cost;
    (0..bv.video.len())
        .step_by(30)
        .map(|start| {
            let end = (start + 30).min(bv.video.len());
            cost.cost(bv.select(object, start..end))
        })
        .sum()
}

/// Reproduces Figure 9 at `scale`.
pub fn fig9(scale: f64) -> Figure {
    let duration = scaled_secs(6, scale);
    let cases: Vec<(Dataset, u64, &str)> = vec![
        (Dataset::VisualRoad2K, 1, "car"),
        (Dataset::VisualRoad2K, 2, "person"),
        (Dataset::Xiph, 3, "car"),
        (Dataset::Mot16, 4, "person"),
    ];
    let sot_secs = [1u32, 2, 3, 5];

    // One untiled baseline (1-second GOPs, "the default in most video
    // encoders") per case.
    let baselines: Vec<(BenchVideo, u64)> = cases
        .iter()
        .map(|&(ds, seed, _)| {
            let tag = format!("fig9-base-{}-{seed}", ds.name());
            let base = BenchVideo::prepare(ds, duration, seed, &tag);
            let bytes = base.tasm.video_size_bytes(&base.name).expect("size");
            (base, bytes)
        })
        .collect();

    let header = [
        "SOT (s)",
        "improvement % median [IQR]",
        "size vs untiled % median [IQR]",
        "paper",
    ];
    let mut table = Table::new("", &header);
    let paper = ["53 / -5%", "", "", "36 / -15%"];
    let mut rows = Vec::new();
    for (si, &ss) in sot_secs.iter().enumerate() {
        let mut improvements = Vec::new();
        let mut sizes = Vec::new();
        for (&(ds, seed, object), (base, untiled_bytes)) in cases.iter().zip(&baselines) {
            // Re-ingest under SOT duration = GOP length = ss seconds, tiled
            // per SOT around the query object.
            let storage = StorageConfig {
                gop_len: ss * 30,
                sot_frames: ss * 30,
                ..Default::default()
            };
            let tiled = BenchVideo::ingest(
                ds.build(duration, seed),
                &format!("fig9-{ss}s-{object}"),
                storage,
                |video, frames| Some(layout_around(video, frames, &[object], Granularity::Fine)),
            );
            tiled.index_ground_truth();
            // Baseline queried with the same windowing for fairness.
            let total = windowed_cost(&tiled, object);
            improvements.push(improvement_pct(windowed_cost(base, object), total));
            let bytes = tiled.tasm.video_size_bytes(&tiled.name).expect("size");
            sizes.push(100.0 * (bytes as f64 / *untiled_bytes as f64 - 1.0));
        }
        let (imp, size) = (Summary::of(&improvements), Summary::of(&sizes));
        table.rows.push(vec![
            ss.to_string(),
            imp.display(0),
            size.display(0),
            paper[si].to_string(),
        ]);
        rows.push((imp.median, size.median));
    }

    let (first, last) = (rows[0], rows[rows.len() - 1]);
    Figure {
        name: "fig9",
        title: "SOT duration vs query cost and storage",
        claim: CLAIM,
        tables: vec![table],
        verdicts: vec![
            Verdict::new(
                "improvement falls from 1 s to 5 s SOTs",
                last.0 < first.0,
                format!("{:.0} % → {:.0} %", first.0, last.0),
            ),
            Verdict::new(
                "storage shrinks from 1 s to 5 s SOTs",
                last.1 < first.1,
                format!("{:+.0} % → {:+.0} %", first.1, last.1),
            ),
        ],
    }
}
