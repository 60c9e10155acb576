//! Figure 6 — headline result: tiling's effect on query cost and quality.
//!
//! (a) For each (video, query object), find the best uniform and the best
//!     non-uniform layout and report the query-cost improvement over the
//!     untiled video.
//! (b) PSNR of each tiled video (its stored tiles decoded and stitched
//!     into full frames, no re-encode) against the raw original, and again
//!     with every layout encoded under one shared bit budget (the paper's
//!     encoder is rate-controlled).
//!
//! The claim it checks is [`CLAIM`].

use crate::{improvement_pct, layout_around, median, scaled_secs, BenchVideo, Figure};
use crate::{Summary, Table, Verdict};
use std::ops::Range;
use tasm_codec::{RateControl, StitchedVideo, TileLayout};
use tasm_core::{Granularity, StorageConfig};
use tasm_data::{Dataset, SyntheticVideo};
use tasm_video::quality::psnr_sequence;
use tasm_video::FrameSource;

/// The paper's headline numbers.
const CLAIM: &str = "(a) The best uniform layout improves query time by 37 % on average, \
the best non-uniform layout by 51 %: non-uniform beats uniform by ~10 %. (b) PSNR: \
best-uniform ≈ 36 dB, best-non-uniform ≈ 40 dB, re-encoded untiled ≈ 46 dB.";

/// One (video, object) of 6(a).
struct Case {
    untiled: f64,
    uniform_improvement: f64,
    nonuniform_improvement: f64,
    psnr: [f64; 3],
}

/// Sequence PSNR of the stored (tiled) video against the raw original.
fn stored_psnr(bv: &BenchVideo) -> f64 {
    let manifest = bv.tasm.manifest(&bv.name).expect("manifest");
    let mut decoded = Vec::new();
    for (i, sot) in manifest.sots.iter().enumerate() {
        let tiles: Vec<_> = (0..sot.layout.tile_count())
            .map(|t| bv.tasm.store().read_tile(&manifest, i, t).expect("tile"))
            .collect();
        let mut sv = StitchedVideo::new(&sot.layout, &tiles).expect("stitch");
        for f in 0..sv.frame_count() {
            decoded.push(sv.frame(f).expect("decode").clone());
        }
    }
    let original: Vec<_> = (0..bv.video.len()).map(|f| bv.video.frame(f)).collect();
    psnr_sequence(original.iter(), decoded.iter()).y
}

/// Reproduces Figure 6 at `scale`.
pub fn fig6(scale: f64) -> Figure {
    let duration = scaled_secs(2, scale);
    let cases_spec: Vec<(Dataset, u64, &str)> = vec![
        (Dataset::VisualRoad2K, 1, "car"),
        (Dataset::VisualRoad2K, 1, "person"),
        (Dataset::VisualRoad2K, 2, "car"),
        (Dataset::VisualRoad4K, 3, "car"),
        (Dataset::NetflixPublic, 4, "bird"),
        (Dataset::NetflixPublic, 4, "person"),
        (Dataset::Xiph, 5, "car"),
        (Dataset::Xiph, 5, "boat"),
        (Dataset::Mot16, 6, "person"),
        (Dataset::Mot16, 6, "car"),
        (Dataset::ElFuenteSparse, 7, "boat"),
    ];

    let header = [
        "dataset",
        "seed",
        "object",
        "untiled (priced ms)",
        "best uniform",
        "uniform (ms, %)",
        "non-uniform tiles",
        "non-uniform (ms, %)",
        "PSNR u / nu / re (dB)",
    ];
    let mut per_case = Table::new("### 6(a) per (video, object)", &header);
    let mut cases: Vec<Case> = Vec::new();
    for (ds, seed, object) in cases_spec {
        let tag = format!("fig6-{}-{seed}-{object}", ds.name());
        let mut bv = BenchVideo::prepare(ds, duration, seed, &tag);
        let (w, h) = (bv.video.width(), bv.video.height());
        let untiled = bv.select_cost(object);
        // PSNR of the re-encoded untiled copy (decoders are lossy too).
        let psnr_reencode = stored_psnr(&bv);

        // --- best uniform layout: the cheapest, the first of a tie ---
        let grids: [(u32, u32); 4] = [(2, 2), (3, 3), (4, 4), (5, 5)];
        let mut best_uniform = (f64::INFINITY, String::new(), 0.0);
        for (r, c) in grids {
            let layout = TileLayout::uniform(w, h, r, c).expect("uniform");
            bv.apply_layout(|_, _| Some(layout.clone()));
            let cost = bv.select_cost(object);
            if cost < best_uniform.0 {
                best_uniform = (cost, format!("{r}x{c}"), stored_psnr(&bv));
            }
        }

        // --- best non-uniform layout (fine, per-SOT, around the object) ---
        bv.apply_layout(|video, frames| {
            Some(layout_around(video, frames, &[object], Granularity::Fine))
        });
        let nonuniform = bv.select_cost(object);
        let psnr_nonuniform = stored_psnr(&bv);
        let manifest = bv.tasm.manifest(&bv.name).expect("manifest");
        let nu_tiles = manifest.sots.iter().map(|s| s.layout.tile_count());

        let case = Case {
            untiled,
            uniform_improvement: improvement_pct(untiled, best_uniform.0),
            nonuniform_improvement: improvement_pct(untiled, nonuniform),
            psnr: [best_uniform.2, psnr_nonuniform, psnr_reencode],
        };
        per_case.rows.push(vec![
            ds.name().to_string(),
            seed.to_string(),
            object.to_string(),
            format!("{:.1}", case.untiled * 1e3),
            best_uniform.1,
            format!(
                "{:.1} ({:+.0})",
                best_uniform.0 * 1e3,
                case.uniform_improvement
            ),
            nu_tiles.max().unwrap_or(1).to_string(),
            format!(
                "{:.1} ({:+.0})",
                nonuniform * 1e3,
                case.nonuniform_improvement
            ),
            format!(
                "{:.1} / {:.1} / {:.1}",
                case.psnr[0], case.psnr[1], case.psnr[2]
            ),
        ]);
        cases.push(case);
    }

    // 6(b) under a shared bit budget: the paper's encoder is rate
    // controlled, so layouts that compress worse (more tile boundaries
    // severing prediction) are pushed to coarser quantization and lose
    // PSNR. Every layout is matched to a budget set by the untiled encode.
    let header = ["dataset", "untiled dB", "non-uniform dB", "uniform 5x5 dB"];
    let mut matched = Table::new(
        "### 6(b) at matched bitrate (rate-controlled encoder)",
        &header,
    );
    let mut rc: [Vec<f64>; 3] = Default::default();
    for (ds, seed, object) in [
        (Dataset::VisualRoad2K, 1u64, "car"),
        (Dataset::Xiph, 5, "car"),
        (Dataset::Mot16, 6, "person"),
    ] {
        // Budget: the bits/sample the untiled constant-QP encode needed.
        let probe = BenchVideo::prepare(ds, duration, seed, "fig6-rc-probe");
        let video = &probe.video;
        let (w, h) = (video.width(), video.height());
        let untiled_bytes = probe.tasm.video_size_bytes(&probe.name).expect("size");
        let total_samples = (w as u64 * h as u64 * 3 / 2) * video.len() as u64;
        // A deliberately tight budget (60% of what the untiled constant-QP
        // encode used) so the compression penalty of tile boundaries shows
        // up as quantization, as it does under a loaded hardware encoder.
        let millibits = ((untiled_bytes * 8 * 1000 * 6 / 10) / total_samples).max(20) as u32;

        let storage = StorageConfig {
            rate: RateControl::TargetRate {
                millibits_per_sample: millibits,
            },
            ..Default::default()
        };
        type LayoutFor<'a> = &'a dyn Fn(&SyntheticVideo, Range<u32>) -> TileLayout;
        let layouts: [LayoutFor; 3] = [
            &|_, _| TileLayout::untiled(w, h),
            &|video, frames| layout_around(video, frames, &[object], Granularity::Fine),
            &|_, _| TileLayout::uniform(w, h, 5, 5).expect("uniform"),
        ];
        let psnr = layouts.map(|layout_for| {
            let video = ds.build(duration, seed);
            let bv = BenchVideo::ingest(video, "fig6-rc", storage, |v, f| Some(layout_for(v, f)));
            stored_psnr(&bv)
        });
        let mut row = vec![ds.name().to_string()];
        row.extend(psnr.iter().map(|p| format!("{p:.1}")));
        matched.rows.push(row);
        for (all, p) in rc.iter_mut().zip(psnr) {
            all.push(p);
        }
    }
    let [rc_untiled, rc_nonuniform, rc_uniform] = rc.map(|ps| median(&ps));

    // Figure 6 reports only the cases that benefit from tiling.
    let benefiting: Vec<&Case> = cases
        .iter()
        .filter(|c| c.nonuniform_improvement > 0.0)
        .collect();
    let of = |f: &dyn Fn(&Case) -> f64| {
        Summary::of(&benefiting.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let uniform = of(&|c| c.uniform_improvement);
    let nonuniform = of(&|c| c.nonuniform_improvement);
    let gap = of(&|c| c.nonuniform_improvement - c.uniform_improvement);
    let [pu, pn, pr] = [0, 1, 2].map(|i| of(&|c| c.psnr[i]));

    let header = ["metric", "this repo median [IQR]", "paper"];
    let mut summary = Table::new(
        "### Summary over the cases that benefit from tiling",
        &header,
    );
    for (metric, s, decimals, paper) in [
        ("6(a) best uniform improvement %", uniform, 0, "avg 37"),
        (
            "6(a) best non-uniform improvement %",
            nonuniform,
            0,
            "avg 51",
        ),
        ("6(a) non-uniform gain over uniform (pp)", gap, 0, "avg ~10"),
        ("6(b) PSNR best uniform (dB)", pu, 1, "~36"),
        ("6(b) PSNR best non-uniform (dB)", pn, 1, "~40"),
        ("6(b) PSNR re-encoded untiled (dB)", pr, 1, "~46"),
    ] {
        let cells = [metric.to_string(), s.display(decimals), paper.to_string()];
        summary.rows.push(cells.to_vec());
    }

    Figure {
        name: "fig6",
        title: "tiling's effect on query cost and quality",
        claim: CLAIM,
        tables: vec![per_case, matched, summary],
        verdicts: vec![
            Verdict::new(
                "both best layouts improve on not tiling",
                uniform.median > 0.0 && nonuniform.median > 0.0,
                format!(
                    "uniform {:+.0} %, non-uniform {:+.0} %",
                    uniform.median, nonuniform.median
                ),
            ),
            Verdict::new(
                "non-uniform beats uniform",
                gap.median > 0.0,
                format!("{:+.0} pp", gap.median),
            ),
            Verdict::new(
                "PSNR: non-uniform above uniform",
                pn.median > pu.median,
                format!("{:.1} dB vs {:.1} dB", pn.median, pu.median),
            ),
            Verdict::new(
                "PSNR: re-encoded untiled above both tiled",
                pr.median > pn.median.max(pu.median),
                format!("{:.1} dB", pr.median),
            ),
            Verdict::new(
                "at matched bitrate: untiled > non-uniform > 25-tile uniform",
                rc_untiled > rc_nonuniform && rc_nonuniform > rc_uniform,
                format!("{rc_untiled:.1} / {rc_nonuniform:.1} / {rc_uniform:.1} dB"),
            ),
        ],
    }
}
