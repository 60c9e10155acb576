//! Figure 9 — effect of SOT (layout) duration on query time and storage.
//!
//! Encodes the same videos with SOT durations of 1–5 seconds (GOP length =
//! SOT duration, as in the paper) using fine non-uniform layouts around the
//! query object, then measures (a) improvement of 1-second object queries
//! vs the untiled 1-second-GOP video, and (b) storage relative to that
//! untiled baseline.
//!
//! Paper shape: shorter SOTs give larger improvements (53% at 1 s → 36% at
//! 5 s) because tiles track objects more tightly, but cost more storage
//! (−5% vs −15% relative to the original).
//!
//! Run with `cargo run --release -p tasm-bench --bin fig9`.

use serde::Serialize;
use tasm_bench::{
    improvement_pct, micro_partition, scaled_secs, table_header, write_result, BenchVideo, Summary,
};
use tasm_core::{partition, Granularity, LabelPredicate, StorageConfig};
use tasm_data::Dataset;
use tasm_video::FrameSource;

#[derive(Serialize)]
struct DurationRow {
    sot_seconds: u32,
    improvement: Summary,
    size_vs_untiled: Summary,
}

/// Seconds to query `object` in 1-second windows over the whole video.
fn windowed_secs(bv: &BenchVideo, object: &str) -> f64 {
    (0..bv.video.len())
        .step_by(30)
        .map(|start| {
            let end = (start + 30).min(bv.video.len());
            bv.tasm
                .scan(&bv.name, &LabelPredicate::label(object), start..end)
                .expect("scan")
                .seconds()
        })
        .sum()
}

fn main() {
    let duration = scaled_secs(6);
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

    println!("# Figure 9: SOT duration vs query time and storage\n");
    table_header("SOT (s) | improvement % median [IQR] | size vs untiled % median [IQR] | paper");
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
                |video, frames| {
                    let boxes: Vec<_> = frames
                        .flat_map(|f| video.ground_truth_for(f, object))
                        .collect();
                    let fine = micro_partition(Granularity::Fine);
                    Some(partition(video.width(), video.height(), &boxes, &fine))
                },
            );
            tiled.index_ground_truth();
            // Baseline decoded with the same windowing for fairness.
            let total = windowed_secs(&tiled, object);
            improvements.push(improvement_pct(windowed_secs(base, object), total));
            let bytes = tiled.tasm.video_size_bytes(&tiled.name).expect("size");
            sizes.push(100.0 * (bytes as f64 / *untiled_bytes as f64 - 1.0));
        }
        let imp = Summary::of(&improvements);
        let size = Summary::of(&sizes);
        println!(
            "| {ss} | {} | {} | {} |",
            imp.display(0),
            size.display(0),
            paper[si]
        );
        rows.push(DurationRow {
            sot_seconds: ss,
            improvement: imp,
            size_vs_untiled: size,
        });
    }

    println!("\nShape check: improvement should fall and storage should shrink");
    println!("as SOT duration grows (fewer keyframes, larger tiles).");
    write_result("fig9", &rows);
}
