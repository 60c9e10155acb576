//! Figure 8 — non-uniform tile granularity and layout-target microbenchmarks,
//! plus the §5.2.4 cheap-detection study.
//!
//! For sparse and dense videos, measures query-time improvement when the
//! layout is designed around:
//!   (a) the *same* object the query targets,
//!   (b) a *different* object,
//!   (c) *all* detected objects,
//!   (d) a *superset* (query object + 1-2 frequent others),
//! each at fine and coarse granularity. Paper shapes: same ≈ 79/51%
//! (sparse/dense, fine); different hurts, especially dense+coarse; all works
//! on sparse (68%) but not dense (21% fine, worse coarse); fine-grained
//! dominates coarse when the layout is not designed for the query.
//!
//! The cheap-detection section rebuilds (c) with degraded detectors:
//! background subtraction (paper: ≈ −3%), YOLOv3-tiny (≈ 16%), and full
//! YOLO every 5 frames (≈ every-frame − 5pp on sparse).
//!
//! Run with `cargo run --release -p tasm-bench --bin fig8`.

use serde::Serialize;
use std::collections::BTreeMap;
use tasm_bench::{
    improvement_pct, micro_partition, scaled_secs, table_header, write_result, BenchVideo, Summary,
};
use tasm_core::{partition, Granularity};
use tasm_data::Dataset;
use tasm_detect::background::BackgroundSubtractor;
use tasm_detect::sampled::SampledDetector;
use tasm_detect::yolo::SimulatedYolo;
use tasm_detect::Detector;
use tasm_video::{FrameSource, Rect};

#[derive(Serialize)]
struct Fig8 {
    /// condition -> granularity -> density -> improvement summary
    panels: BTreeMap<String, Summary>,
    cheap_detection: BTreeMap<String, Summary>,
}

/// Applies a per-SOT layout around `layout_labels` at `granularity` and
/// returns the improvement for querying `query_label`.
fn run_condition(
    bv: &mut BenchVideo,
    untiled: f64,
    query_label: &str,
    layout_labels: &[&str],
    granularity: Granularity,
) -> f64 {
    let g = granularity;
    bv.apply_layout(|video, frames| {
        let boxes: Vec<Rect> = frames
            .clone()
            .flat_map(|f| {
                video
                    .ground_truth(f)
                    .into_iter()
                    .filter(|(l, _)| layout_labels.contains(l))
                    .map(|(_, b)| b)
            })
            .collect();
        Some(partition(
            video.width(),
            video.height(),
            &boxes,
            &micro_partition(g),
        ))
    });
    improvement_pct(untiled, bv.time_select(query_label).seconds)
}

fn main() {
    let duration = scaled_secs(2);
    // (dataset, seed, query object, different object, superset extra)
    let sparse_cases: Vec<(Dataset, u64, &str, &str, &str)> = vec![
        (Dataset::VisualRoad2K, 1, "car", "person", "person"),
        (Dataset::VisualRoad2K, 2, "person", "car", "car"),
        (Dataset::VisualRoad4K, 3, "car", "person", "person"),
        (Dataset::ElFuenteSparse, 4, "boat", "person", "person"),
    ];
    let dense_cases: Vec<(Dataset, u64, &str, &str, &str)> = vec![
        (Dataset::ElFuenteDense, 5, "person", "food", "food"),
        (Dataset::ElFuenteDense, 6, "food", "person", "person"),
        (Dataset::NetflixOpenSource, 7, "person", "sheep", "car"),
        (Dataset::NetflixOpenSource, 8, "sheep", "person", "car"),
    ];

    let mut panels: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cheap: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    for (density, cases) in [("sparse", sparse_cases), ("dense", dense_cases)] {
        for (ds, seed, query, different, extra) in cases {
            let tag = format!("fig8-{}-{seed}", ds.name());
            let mut bv = BenchVideo::prepare(ds, duration, seed, &tag);
            let untiled = bv.time_select(query).seconds;
            let all_labels: Vec<&str> = bv.video.labels();

            for g in [Granularity::Fine, Granularity::Coarse] {
                let gname = match g {
                    Granularity::Fine => "fine",
                    Granularity::Coarse => "coarse",
                };
                let conditions: Vec<(&str, Vec<&str>)> = vec![
                    ("same", vec![query]),
                    ("different", vec![different]),
                    ("all", all_labels.clone()),
                    ("superset", vec![query, extra]),
                ];
                for (cond, labels) in conditions {
                    let imp = run_condition(&mut bv, untiled, query, &labels, g);
                    panels
                        .entry(format!("{cond}/{gname}/{density}"))
                        .or_default()
                        .push(imp);
                }
            }

            // --- §5.2.4 cheap detection: layouts around detector outputs ---
            let detect_layout = |bv: &mut BenchVideo, dets: &BTreeMap<u32, Vec<Rect>>| {
                bv.apply_layout(|video, frames| {
                    let boxes: Vec<Rect> = frames
                        .clone()
                        .flat_map(|f| dets.get(&f).cloned().unwrap_or_default())
                        .collect();
                    Some(partition(
                        video.width(),
                        video.height(),
                        &boxes,
                        &micro_partition(Granularity::Fine),
                    ))
                });
            };
            let collect = |d: &mut dyn Detector, bv: &BenchVideo| {
                let mut map: BTreeMap<u32, Vec<Rect>> = BTreeMap::new();
                for f in 0..bv.video.len() {
                    let truth = bv.video.ground_truth(f);
                    let frame_store;
                    let px = if d.needs_pixels() {
                        frame_store = bv.video.frame(f);
                        Some(&frame_store)
                    } else {
                        None
                    };
                    for det in d.detect(f, px, &truth) {
                        map.entry(f).or_default().push(det.bbox);
                    }
                }
                map
            };

            let detectors: [(&str, Box<dyn Detector>); 3] = [
                ("bg-subtraction", Box::new(BackgroundSubtractor::new())),
                ("yolov3-tiny", Box::new(SimulatedYolo::tiny(seed))),
                (
                    "yolov3-every-5",
                    Box::new(SampledDetector::new(SimulatedYolo::full(seed), 5)),
                ),
            ];
            for (name, mut detector) in detectors {
                let dets = collect(detector.as_mut(), &bv);
                detect_layout(&mut bv, &dets);
                cheap
                    .entry(format!("{name}/{density}"))
                    .or_default()
                    .push(improvement_pct(untiled, bv.time_select(query).seconds));
            }
        }
    }

    println!("# Figure 8: tile granularity and layout-target effects\n");
    table_header("condition | granularity | density | improvement % median [IQR] | paper");
    let paper: BTreeMap<&str, &str> = BTreeMap::from([
        ("same/fine/sparse", "79"),
        ("same/fine/dense", "51"),
        ("same/coarse/sparse", "77"),
        ("same/coarse/dense", "42"),
        ("different/fine/sparse", "41"),
        ("different/coarse/sparse", "36"),
        ("different/fine/dense", "<0 possible"),
        ("different/coarse/dense", "<0 possible"),
        ("all/fine/sparse", "68"),
        ("all/coarse/sparse", "50"),
        ("all/fine/dense", "21"),
        ("all/coarse/dense", "~-1 vs fine"),
        ("superset/fine/sparse", "~all"),
        ("superset/coarse/sparse", "~all"),
        ("superset/fine/dense", "~all"),
        ("superset/coarse/dense", "~all"),
    ]);
    let mut summaries = BTreeMap::new();
    for (key, vals) in &panels {
        let s = Summary::of(vals);
        let parts: Vec<&str> = key.split('/').collect();
        println!(
            "| {} | {} | {} | {} | {} |",
            parts[0],
            parts[1],
            parts[2],
            s.display(0),
            paper.get(key.as_str()).unwrap_or(&""),
        );
        summaries.insert(key.clone(), s);
    }

    println!("\n## §5.2.4 cheap detection (fine layouts around detector output)\n");
    table_header("detector | density | improvement % median [IQR] | paper");
    let paper_cheap: BTreeMap<&str, &str> = BTreeMap::from([
        ("bg-subtraction/sparse", "-3 (all videos)"),
        ("bg-subtraction/dense", "-3 (all videos)"),
        ("yolov3-tiny/sparse", "16 (all videos)"),
        ("yolov3-tiny/dense", "16 (all videos)"),
        ("yolov3-every-5/sparse", "63"),
        ("yolov3-every-5/dense", "5"),
    ]);
    let mut cheap_summaries = BTreeMap::new();
    for (key, vals) in &cheap {
        let s = Summary::of(vals);
        let parts: Vec<&str> = key.split('/').collect();
        println!(
            "| {} | {} | {} | {} |",
            parts[0],
            parts[1],
            s.display(0),
            paper_cheap.get(key.as_str()).unwrap_or(&""),
        );
        cheap_summaries.insert(key.clone(), s);
    }

    write_result(
        "fig8",
        &Fig8 {
            panels: summaries,
            cheap_detection: cheap_summaries,
        },
    );
}
