//! Figure 10 — the not-tiling decision rule.
//!
//! The query-cost improvement against the estimated pixel ratio
//! `P(v,q,L) / P(v,q,ω)` over many (video, object, layout) points, each `P`
//! priced as the layout policy's α rule prices it (`estimate_work`, summed
//! over the SOTs). The claim it checks is [`CLAIM`].

use crate::{improvement_pct, layout_around, scaled_secs, BenchVideo, Figure, Table, Verdict};
use tasm_codec::TileLayout;
use tasm_core::{estimate_work, Granularity, ALPHA};
use tasm_data::Dataset;
use tasm_index::Detection;

/// The paper's finding for the α rule.
const CLAIM: &str = "Thresholding at α = 0.8 captures nearly every layout that would slow \
queries down; the few improvements forfeited above the threshold are small (< 20 %).";

/// One (video, object, layout) point.
struct Point {
    pixel_ratio: f64,
    improvement: f64,
}

/// Reproduces Figure 10 at `scale`.
pub fn fig10(scale: f64) -> Figure {
    let duration = scaled_secs(2, scale);
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

    let header = ["dataset", "object", "layout", "P(L)/P(ω)", "improvement %"];
    let mut table = Table::new("", &header);
    let mut points: Vec<Point> = Vec::new();
    for (ds, seed, object, other) in cases {
        let tag = format!("fig10-{}-{seed}", ds.name());
        let mut bv = BenchVideo::prepare(ds, duration, seed, &tag);
        let (w, h) = (bv.video.spec().width, bv.video.spec().height);
        let (omega, gop_len) = (TileLayout::untiled(w, h), bv.tasm.config().storage.gop_len);
        let untiled = bv.select_cost(object);
        let all = bv.video.labels();

        // Layout suite: object layouts (same/different/all, fine+coarse) and
        // uniform grids — a spread of good and bad choices.
        let uniform = |n| Some(TileLayout::uniform(w, h, n, n).expect("uniform"));
        let suite: Vec<(&str, Vec<&str>, Option<TileLayout>)> = vec![
            ("same/fine", vec![object], None),
            ("same/coarse", vec![object], None),
            ("different/fine", vec![other], None),
            ("different/coarse", vec![other], None),
            ("all/fine", all.clone(), None),
            ("uniform3x3", vec![], uniform(3)),
            ("uniform5x5", vec![], uniform(5)),
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
                    None => layout_around(video, frames.clone(), &labels, granularity),
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
            let pixel_ratio = match omega_px {
                0 => 1.0,
                px => tiled as f64 / px as f64,
            };
            let improvement = improvement_pct(untiled, bv.select_cost(object));
            table.rows.push(vec![
                ds.name().to_string(),
                object.to_string(),
                name.to_string(),
                format!("{pixel_ratio:.2}"),
                format!("{improvement:+.0}"),
            ]);
            points.push(Point {
                pixel_ratio,
                improvement,
            });
        }
    }

    let count = |f: &dyn Fn(&Point) -> bool| points.iter().filter(|p| f(p)).count();
    let hurting = count(&|p| p.improvement < 0.0);
    let hurting_accepted = count(&|p| p.improvement < 0.0 && p.pixel_ratio <= ALPHA);
    let helping_rejected = count(&|p| p.improvement > 0.0 && p.pixel_ratio > ALPHA);
    let max_forfeited = points
        .iter()
        .filter(|p| p.pixel_ratio > ALPHA)
        .map(|p| p.improvement)
        .fold(0.0f64, f64::max);
    Figure {
        name: "fig10",
        title: "the pixel-ratio threshold of the not-tiling rule",
        claim: CLAIM,
        tables: vec![table],
        verdicts: vec![
            Verdict::new(
                format!("α = {ALPHA} rejects every layout that slows the query"),
                hurting_accepted == 0,
                format!("{hurting_accepted} of {hurting} hurting layouts slip past"),
            ),
            Verdict::new(
                "the improvements it forfeits are small (< 20 %)",
                max_forfeited < 20.0,
                format!("{helping_rejected} helpful layouts forfeited, the largest {max_forfeited:.0} %"),
            ),
        ],
    }
}
