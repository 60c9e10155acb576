//! Figure 7 — uniform-layout sweep.
//!
//! Improvement in query time for uniform grids from 2×2 up to 7×10,
//! compared to the untiled video. Paper shape: improvement rises with tile
//! count (19% at 2×2 → 36% at 5×5), then falls as per-tile overhead bites
//! (28% at 7×10), while the IQR widens — the same grid does not suit every
//! video.
//!
//! Run with `cargo run --release -p tasm-bench --bin fig7`.

use serde::Serialize;
use tasm_bench::{improvement_pct, scaled_secs, table_header, write_result, BenchVideo, Summary};
use tasm_codec::TileLayout;
use tasm_data::Dataset;

#[derive(Serialize)]
struct GridResult {
    grid: String,
    tiles: u32,
    improvement: Summary,
}

fn main() {
    let duration = scaled_secs(2);
    let cases: Vec<(Dataset, u64, &str)> = vec![
        (Dataset::VisualRoad2K, 1, "car"),
        (Dataset::VisualRoad2K, 1, "person"),
        (Dataset::VisualRoad2K, 2, "car"),
        (Dataset::VisualRoad4K, 3, "car"),
        (Dataset::NetflixPublic, 4, "bird"),
        (Dataset::Xiph, 5, "car"),
        (Dataset::Xiph, 5, "boat"),
        (Dataset::Mot16, 6, "person"),
        (Dataset::ElFuenteSparse, 7, "boat"),
        (Dataset::ElFuenteDense, 8, "person"),
    ];
    let grids: [(u32, u32); 6] = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 10)];

    // Prepare videos once; sweep layouts per video.
    let mut prepared: Vec<(BenchVideo, &str, f64)> = cases
        .into_iter()
        .map(|(ds, seed, object)| {
            let tag = format!("fig7-{}-{seed}-{object}", ds.name());
            let bv = BenchVideo::prepare(ds, duration, seed, &tag);
            let untiled = bv.time_select(object).seconds;
            (bv, object, untiled)
        })
        .collect();

    println!("# Figure 7: query-time improvement per uniform layout\n");
    table_header("layout | tiles | improvement % median [IQR] | paper");
    let paper = ["19 (2x2)", "", "", "36 (5x5)", "", "28 (7x10)"];
    let mut results = Vec::new();
    for (gi, (r, c)) in grids.iter().enumerate() {
        let mut improvements = Vec::new();
        for (bv, object, untiled) in prepared.iter_mut() {
            let layout = TileLayout::uniform(bv.video.spec().width, bv.video.spec().height, *r, *c)
                .expect("uniform layout");
            bv.apply_layout(|_, _| Some(layout.clone()));
            improvements.push(improvement_pct(*untiled, bv.time_select(object).seconds));
        }
        let summary = Summary::of(&improvements);
        println!(
            "| {r}x{c} | {} | {} | {} |",
            r * c,
            summary.display(0),
            paper[gi]
        );
        results.push(GridResult {
            grid: format!("{r}x{c}"),
            tiles: r * c,
            improvement: summary,
        });
    }

    let iqr_first = results
        .first()
        .map(|g| g.improvement.q3 - g.improvement.q1)
        .unwrap_or(0.0);
    let iqr_last = results
        .last()
        .map(|g| g.improvement.q3 - g.improvement.q1)
        .unwrap_or(0.0);
    println!("\nIQR widens from {iqr_first:.0} pp (2x2) to {iqr_last:.0} pp (7x10): the same");
    println!("uniform grid does not work equally well on all videos (paper: 1%-58% IQR at 7x10).");
    write_result("fig7", &results);
}
