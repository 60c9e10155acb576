//! Figure 8 — non-uniform tile granularity and layout-target
//! microbenchmarks, plus the §5.2.4 cheap-detection study.
//!
//! For sparse and dense videos, measures the query-cost improvement when
//! the layout is designed around:
//!   (a) the *same* object the query targets,
//!   (b) a *different* object,
//!   (c) *all* detected objects,
//!   (d) a *superset* (query object + 1-2 frequent others),
//! each at fine and coarse granularity. The cheap-detection section
//! rebuilds (c)'s fine layouts around degraded detectors' boxes. The claim
//! it checks is [`CLAIM`].

use crate::Summary;
use crate::{improvement_pct, layout_around, micro_partition, scaled_secs, BenchVideo, Figure};
use crate::{Table, Verdict};
use std::collections::BTreeMap;
use tasm_core::{partition, Granularity};
use tasm_data::Dataset;
use tasm_detect::background::BackgroundSubtractor;
use tasm_detect::sampled::SampledDetector;
use tasm_detect::yolo::SimulatedYolo;
use tasm_detect::Detector;
use tasm_video::{FrameSource, Rect};

/// The paper's shapes for layout targets and cheap detection.
const CLAIM: &str = "Same ≈ 79/51 % (sparse/dense, fine); a different object hurts, \
especially dense + coarse; all objects works on sparse (68 %) but not dense (21 % fine, \
worse coarse); fine-grained dominates coarse when the layout is not designed for the query. \
Cheap detection: background subtraction ≈ -3 %, YOLOv3-tiny ≈ 16 %, full YOLO every 5 \
frames ≈ every-frame - 5 pp on sparse (63 %).";

/// The paper's value per condition at fine/sparse, fine/dense,
/// coarse/sparse and coarse/dense.
const PAPER: [(&str, [&str; 4]); 4] = [
    ("same", ["79", "51", "77", "42"]),
    ("different", ["41", "<0 possible", "36", "<0 possible"]),
    ("all", ["68", "21", "50", "~-1 vs fine"]),
    ("superset", ["~all"; 4]),
];

/// The paper's value per cheap detector on sparse and dense videos.
const PAPER_CHEAP: [(&str, [&str; 2]); 3] = [
    ("bg-subtraction", ["-3 (all videos)"; 2]),
    ("yolov3-tiny", ["16 (all videos)"; 2]),
    ("yolov3-every-5", ["63", "5"]),
];

/// Every frame's boxes as `detector` reports them.
fn detect_all(d: &mut dyn Detector, bv: &BenchVideo) -> BTreeMap<u32, Vec<Rect>> {
    let mut map: BTreeMap<u32, Vec<Rect>> = BTreeMap::new();
    for f in 0..bv.video.len() {
        let truth = bv.video.ground_truth(f);
        let frame = d.needs_pixels().then(|| bv.video.frame(f));
        for det in d.detect(f, frame.as_ref(), &truth) {
            map.entry(f).or_default().push(det.bbox);
        }
    }
    map
}

/// Reproduces Figure 8 at `scale`.
pub fn fig8(scale: f64) -> Figure {
    let duration = scaled_secs(2, scale);
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

    // Improvements per `condition/granularity/density` and per
    // `detector/density`.
    let mut panels: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (density, cases) in [("sparse", sparse_cases), ("dense", dense_cases)] {
        for (ds, seed, query, different, extra) in cases {
            let tag = format!("fig8-{}-{seed}", ds.name());
            let mut bv = BenchVideo::prepare(ds, duration, seed, &tag);
            let untiled = bv.select_cost(query);
            let all_labels: Vec<&str> = bv.video.labels();

            for (g, gname) in [(Granularity::Fine, "fine"), (Granularity::Coarse, "coarse")] {
                let conditions: Vec<(&str, Vec<&str>)> = vec![
                    ("same", vec![query]),
                    ("different", vec![different]),
                    ("all", all_labels.clone()),
                    ("superset", vec![query, extra]),
                ];
                for (cond, labels) in conditions {
                    bv.apply_layout(|video, frames| Some(layout_around(video, frames, &labels, g)));
                    panels
                        .entry(format!("{cond}/{gname}/{density}"))
                        .or_default()
                        .push(improvement_pct(untiled, bv.select_cost(query)));
                }
            }

            // --- §5.2.4 cheap detection: layouts around detector outputs ---
            let detectors: [(&str, Box<dyn Detector>); 3] = [
                ("bg-subtraction", Box::new(BackgroundSubtractor::new())),
                ("yolov3-tiny", Box::new(SimulatedYolo::tiny(seed))),
                (
                    "yolov3-every-5",
                    Box::new(SampledDetector::new(SimulatedYolo::full(seed), 5)),
                ),
            ];
            for (name, mut detector) in detectors {
                let dets = detect_all(detector.as_mut(), &bv);
                bv.apply_layout(|video, frames| {
                    let boxes: Vec<Rect> = frames
                        .flat_map(|f| dets.get(&f).cloned().unwrap_or_default())
                        .collect();
                    let (w, h, fine) = (
                        video.width(),
                        video.height(),
                        micro_partition(Granularity::Fine),
                    );
                    Some(partition(w, h, &boxes, &fine))
                });
                panels
                    .entry(format!("{name}/{density}"))
                    .or_default()
                    .push(improvement_pct(untiled, bv.select_cost(query)));
            }
        }
    }

    let cell = |key: &str| Summary::of(&panels[key]).display(0);
    let header = [
        "condition",
        "granularity",
        "density",
        "improvement % median [IQR]",
        "paper",
    ];
    let mut targets = Table::new("", &header);
    for (cond, paper) in PAPER {
        let panels = [
            ("fine", "sparse"),
            ("fine", "dense"),
            ("coarse", "sparse"),
            ("coarse", "dense"),
        ];
        for ((g, d), paper) in panels.into_iter().zip(paper) {
            let key = format!("{cond}/{g}/{d}");
            targets.rows.push(
                [cond, g, d, &cell(&key), paper]
                    .map(str::to_string)
                    .to_vec(),
            );
        }
    }
    let header = ["detector", "density", "improvement % median [IQR]", "paper"];
    let caption = "### §5.2.4 cheap detection (fine layouts around detector output)";
    let mut detection = Table::new(caption, &header);
    for (name, paper) in PAPER_CHEAP {
        for (d, paper) in ["sparse", "dense"].into_iter().zip(paper) {
            let row = [name, d, &cell(&format!("{name}/{d}")), paper];
            detection.rows.push(row.map(str::to_string).to_vec());
        }
    }

    let med = |key: &str| crate::median(&panels[key]);
    let show = |keys: &[&str]| {
        let parts: Vec<String> = keys.iter().map(|k| format!("{k} {:.0}", med(k))).collect();
        parts.join(", ")
    };
    let same_vs_different = [
        "same/fine/sparse",
        "different/fine/sparse",
        "same/fine/dense",
        "different/fine/dense",
    ];
    let different = [
        "different/coarse/dense",
        "different/fine/sparse",
        "different/coarse/sparse",
        "different/fine/dense",
    ];
    let fine_coarse = [
        "different/fine/sparse",
        "different/coarse/sparse",
        "different/fine/dense",
        "different/coarse/dense",
        "all/fine/sparse",
        "all/coarse/sparse",
        "all/fine/dense",
        "all/coarse/dense",
    ];
    let cheap = [
        "bg-subtraction/sparse",
        "yolov3-tiny/sparse",
        "yolov3-every-5/sparse",
    ];
    let [s, d, c] = [&same_vs_different[..], &different[1..], &fine_coarse[..]];
    Figure {
        name: "fig8",
        title: "tile granularity and layout-target effects",
        claim: CLAIM,
        tables: vec![targets, detection],
        verdicts: vec![
            Verdict::new(
                "a layout around the query's object beats one around a different object (fine)",
                med(s[0]) > med(s[1]) && med(s[2]) > med(s[3]),
                show(s),
            ),
            Verdict::new(
                "a different object hurts most on dense + coarse",
                d.iter().all(|k| med(different[0]) < med(k)),
                show(&different),
            ),
            Verdict::new(
                "all objects works on sparse but not on dense",
                med("all/fine/sparse") > med("all/fine/dense"),
                show(&["all/fine/sparse", "all/fine/dense"]),
            ),
            Verdict::new(
                "fine dominates coarse when the layout is not designed for the query",
                c.chunks(2).all(|fc| med(fc[0]) >= med(fc[1])),
                show(c),
            ),
            Verdict::new(
                "cheap detection on sparse: background subtraction < YOLOv3-tiny < YOLO every 5 frames",
                med(cheap[0]) < med(cheap[1]) && med(cheap[1]) < med(cheap[2]),
                show(&cheap),
            ),
        ],
    }
}
