//! Figure 10 — the not-tiling decision rule.
//!
//! Scatter of measured query-time improvement against the estimated pixel
//! ratio `P(v,q,L) / P(v,q,ω)` over many (video, object, layout) points,
//! each `P` priced as the layout policy's α rule prices it
//! (`estimate_work`, summed over the SOTs).
//! Paper finding: thresholding at α = 0.8 captures nearly every layout that
//! would slow queries down; the few improvements forfeited above the
//! threshold are small (< 20%).
//!
//! Run with `cargo run --release -p tasm-bench --bin fig10`.

use serde::Serialize;
use tasm_bench::{
    improvement_pct, micro_partition, scaled_secs, table_header, write_result, BenchVideo,
};
use tasm_codec::TileLayout;
use tasm_core::{estimate_work, partition, Granularity};
use tasm_data::Dataset;
use tasm_index::Detection;
use tasm_video::Rect;

#[derive(Serialize)]
struct Point {
    dataset: &'static str,
    object: &'static str,
    layout: String,
    pixel_ratio: f64,
    improvement_pct: f64,
}

#[derive(Serialize)]
struct Fig10 {
    alpha: f64,
    points: Vec<Point>,
    /// Layouts that hurt (< 0 improvement) and were correctly rejected.
    hurting_rejected: usize,
    /// Layouts that hurt but would have been accepted (false accepts).
    hurting_accepted: usize,
    /// Helpful layouts rejected by the rule (forfeited improvement).
    helping_rejected: usize,
    /// The largest improvement forfeited by the rule.
    max_forfeited_pct: f64,
}

fn main() {
    let duration = scaled_secs(2);
    let alpha = 0.8;
    let cases: Vec<(Dataset, u64, &str, &str)> = vec![
        (Dataset::VisualRoad2K, 1, "car", "person"),
        (Dataset::VisualRoad2K, 2, "person", "car"),
        (Dataset::NetflixPublic, 3, "bird", "person"),
        (Dataset::Xiph, 4, "car", "boat"),
        (Dataset::Mot16, 5, "person", "car"),
        (Dataset::ElFuenteDense, 6, "person", "food"),
        (Dataset::NetflixOpenSource, 7, "sheep", "person"),
        (Dataset::ElFuenteSparse, 8, "boat", "person"),
    ];

    let mut points: Vec<Point> = Vec::new();
    for (ds, seed, object, other) in cases {
        let tag = format!("fig10-{}-{seed}", ds.name());
        let mut bv = BenchVideo::prepare(ds, duration, seed, &tag);
        let (w, h) = (bv.video.spec().width, bv.video.spec().height);
        let (omega, gop_len) = (TileLayout::untiled(w, h), bv.tasm.config().storage.gop_len);
        let untiled = bv.time_select(object).seconds;
        let all = bv.video.labels();

        // Layout suite: object layouts (same/different/all, fine+coarse) and
        // uniform grids — a spread of good and bad choices.
        let uniform = |n| Some(TileLayout::uniform(w, h, n, n).expect("uniform"));
        let suite: Vec<(String, Vec<&str>, Option<TileLayout>)> = vec![
            ("same/fine".into(), vec![object], None),
            ("same/coarse".into(), vec![object], None),
            ("different/fine".into(), vec![other], None),
            ("different/coarse".into(), vec![other], None),
            ("all/fine".into(), all.clone(), None),
            ("uniform3x3".into(), vec![], uniform(3)),
            ("uniform5x5".into(), vec![], uniform(5)),
        ];

        for (name, labels, fixed) in suite {
            let granularity = if name.contains("coarse") {
                Granularity::Coarse
            } else {
                Granularity::Fine
            };
            // Apply per-SOT layouts, pricing the query for the object under
            // each as the α rule does, and under ω: the estimated pixel
            // ratio of the whole query is the ratio of the sums.
            let (mut tiled, mut omega_px) = (0u64, 0u64);
            bv.apply_layout(|video, frames| {
                let layout = match &fixed {
                    Some(l) => l.clone(),
                    None => {
                        let truth = frames.clone().flat_map(|f| video.ground_truth(f));
                        let boxes = truth.filter(|(l, _)| labels.contains(l)).map(|(_, b)| b);
                        let boxes: Vec<Rect> = boxes.collect();
                        partition(w, h, &boxes, &micro_partition(granularity))
                    }
                };
                let mut dets = Vec::new();
                for frame in frames.clone() {
                    let boxes = video.ground_truth_for(frame, object);
                    dets.extend(boxes.into_iter().map(|bbox| Detection { frame, bbox }));
                }
                let price = |l: &TileLayout| {
                    estimate_work(l, &dets, frames.clone(), frames.start, gop_len).pixels
                };
                tiled += price(&layout);
                omega_px += price(&omega);
                Some(layout)
            });
            let ratio = match omega_px {
                0 => 1.0,
                px => tiled as f64 / px as f64,
            };
            points.push(Point {
                dataset: ds.name(),
                object,
                layout: name,
                pixel_ratio: ratio,
                improvement_pct: improvement_pct(untiled, bv.time_select(object).seconds),
            });
        }
    }

    let count = |f: &dyn Fn(&Point) -> bool| points.iter().filter(|p| f(p)).count();
    let hurting_rejected = count(&|p| p.improvement_pct < 0.0 && p.pixel_ratio > alpha);
    let hurting_accepted = count(&|p| p.improvement_pct < 0.0 && p.pixel_ratio <= alpha);
    let helping_rejected = count(&|p| p.improvement_pct > 0.0 && p.pixel_ratio > alpha);
    let max_forfeited = points
        .iter()
        .filter(|p| p.pixel_ratio > alpha)
        .map(|p| p.improvement_pct)
        .fold(0.0f64, f64::max);

    println!("# Figure 10: pixel-ratio threshold for the not-tiling rule\n");
    table_header("dataset | object | layout | P(L)/P(ω) | improvement %");
    for p in &points {
        println!(
            "| {} | {} | {} | {:.2} | {:+.0} |",
            p.dataset, p.object, p.layout, p.pixel_ratio, p.improvement_pct
        );
    }
    println!("\nWith α = {alpha}:");
    println!("  layouts that hurt and are rejected by the rule : {hurting_rejected}");
    println!("  layouts that hurt but slip past the rule       : {hurting_accepted}");
    println!("  helpful layouts forfeited by the rule          : {helping_rejected}");
    println!(
        "  largest forfeited improvement                  : {max_forfeited:.0}% (paper: < 20%)"
    );

    write_result(
        "fig10",
        &Fig10 {
            alpha,
            points,
            hurting_rejected,
            hurting_accepted,
            helping_rejected,
            max_forfeited_pct: max_forfeited,
        },
    );
}
