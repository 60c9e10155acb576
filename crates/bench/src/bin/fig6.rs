//! Figure 6 — headline result: tiling effect on decode cost and quality.
//!
//! (a) For each (video, query object), find the best uniform and the best
//!     non-uniform layout and report the query-time improvement over the
//!     untiled video. Paper: best uniform averages 37%, best non-uniform
//!     51%; non-uniform beats uniform by ~10% on average.
//! (b) PSNR of each tiled video (stitched homomorphically) against the raw
//!     original. Paper: best-uniform ≈ 36 dB, best-non-uniform ≈ 40 dB,
//!     re-encoded-untiled ≈ 46 dB.
//!
//! Run with `cargo run --release -p tasm-bench --bin fig6`.

use serde::Serialize;
use tasm_bench::{
    improvement_pct, micro_partition, scaled_secs, table_header, write_result, BenchVideo, Summary,
};
use tasm_codec::{StitchedVideo, TileLayout};
use tasm_core::{partition, Granularity};
use tasm_data::Dataset;
use tasm_video::quality::psnr_sequence;
use tasm_video::FrameSource;

#[derive(Serialize)]
struct Case {
    dataset: &'static str,
    seed: u64,
    object: &'static str,
    untiled_ms: f64,
    best_uniform: String,
    best_uniform_ms: f64,
    best_uniform_improvement_pct: f64,
    best_nonuniform_tiles: u32,
    best_nonuniform_ms: f64,
    best_nonuniform_improvement_pct: f64,
    psnr_uniform_db: f64,
    psnr_nonuniform_db: f64,
    psnr_reencode_db: f64,
}

#[derive(Serialize)]
struct Fig6 {
    cases: Vec<Case>,
    uniform_improvement: Summary,
    nonuniform_improvement: Summary,
    nonuniform_over_uniform: Summary,
    psnr_uniform: Summary,
    psnr_nonuniform: Summary,
    psnr_reencode: Summary,
}

/// Sequence PSNR of the stored (tiled) video against the raw original.
fn stored_psnr(bv: &BenchVideo) -> f64 {
    let manifest = bv.tasm.manifest(&bv.name).expect("manifest");
    let mut decoded = Vec::new();
    for (i, sot) in manifest.sots.iter().enumerate() {
        let tiles: Vec<_> = (0..sot.layout.tile_count())
            .map(|t| bv.tasm.store().read_tile(&manifest, i, t).expect("tile"))
            .collect();
        let sv = StitchedVideo::stitch(sot.layout.clone(), tiles).expect("stitch");
        let (frames, _) = sv.decode_all().expect("decode");
        decoded.extend(frames);
    }
    let original: Vec<_> = (0..bv.video.len()).map(|f| bv.video.frame(f)).collect();
    psnr_sequence(original.iter(), decoded.iter()).y
}

fn main() {
    let duration = scaled_secs(2);
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

    let mut cases: Vec<Case> = Vec::new();
    println!("# Figure 6: tiling effect on query time and quality\n");
    for (ds, seed, object) in cases_spec {
        let tag = format!("fig6-{}-{seed}-{object}", ds.name());
        let mut bv = BenchVideo::prepare(ds, duration, seed, &tag);
        let (w, h) = (bv.video.width(), bv.video.height());
        let untiled = bv.time_select(object).seconds;
        // PSNR of the re-encoded untiled copy (decoders are lossy too).
        let psnr_reencode = stored_psnr(&bv);

        // --- best uniform layout ---
        let grids: [(u32, u32); 4] = [(2, 2), (3, 3), (4, 4), (5, 5)];
        let mut best_uniform = (f64::INFINITY, String::new(), 0.0);
        for (r, c) in grids {
            let layout = TileLayout::uniform(w, h, r, c).expect("uniform");
            bv.apply_layout(|_, _| Some(layout.clone()));
            let t = bv.time_select(object).seconds;
            if t < best_uniform.0 {
                best_uniform = (t, format!("{r}x{c}"), stored_psnr(&bv));
            }
        }

        // --- best non-uniform layout (fine, per-SOT, around the object) ---
        bv.apply_layout(|video, frames| {
            let boxes: Vec<_> = frames
                .clone()
                .flat_map(|f| video.ground_truth_for(f, object))
                .collect();
            Some(partition(w, h, &boxes, &micro_partition(Granularity::Fine)))
        });
        let nonuniform_ms = bv.time_select(object).seconds;
        let psnr_nonuniform = stored_psnr(&bv);
        let nu_tiles = bv
            .tasm
            .manifest(&bv.name)
            .expect("manifest")
            .sots
            .iter()
            .map(|s| s.layout.tile_count())
            .max()
            .unwrap_or(1);

        let case = Case {
            dataset: ds.name(),
            seed,
            object,
            untiled_ms: untiled * 1e3,
            best_uniform: best_uniform.1.clone(),
            best_uniform_ms: best_uniform.0 * 1e3,
            best_uniform_improvement_pct: improvement_pct(untiled, best_uniform.0),
            best_nonuniform_tiles: nu_tiles,
            best_nonuniform_ms: nonuniform_ms * 1e3,
            best_nonuniform_improvement_pct: improvement_pct(untiled, nonuniform_ms),
            psnr_uniform_db: best_uniform.2,
            psnr_nonuniform_db: psnr_nonuniform,
            psnr_reencode_db: psnr_reencode,
        };
        println!(
            "{} seed {} object {:<8} untiled {:7.1} ms | uniform {} {:6.1} ms ({:+.0}%) | non-uniform {:6.1} ms ({:+.0}%) | PSNR u/nu/re {:.1}/{:.1}/{:.1} dB",
            case.dataset,
            case.seed,
            case.object,
            case.untiled_ms,
            case.best_uniform,
            case.best_uniform_ms,
            case.best_uniform_improvement_pct,
            case.best_nonuniform_ms,
            case.best_nonuniform_improvement_pct,
            case.psnr_uniform_db,
            case.psnr_nonuniform_db,
            case.psnr_reencode_db,
        );
        cases.push(case);
    }

    // Figure 6 reports only the cases that benefit from tiling.
    let benefiting: Vec<&Case> = cases
        .iter()
        .filter(|c| c.best_nonuniform_improvement_pct > 0.0)
        .collect();
    let uni: Vec<f64> = benefiting
        .iter()
        .map(|c| c.best_uniform_improvement_pct)
        .collect();
    let non: Vec<f64> = benefiting
        .iter()
        .map(|c| c.best_nonuniform_improvement_pct)
        .collect();
    let gap: Vec<f64> = benefiting
        .iter()
        .map(|c| c.best_nonuniform_improvement_pct - c.best_uniform_improvement_pct)
        .collect();
    let pu: Vec<f64> = benefiting.iter().map(|c| c.psnr_uniform_db).collect();
    let pn: Vec<f64> = benefiting.iter().map(|c| c.psnr_nonuniform_db).collect();
    let pr: Vec<f64> = benefiting.iter().map(|c| c.psnr_reencode_db).collect();

    let report = Fig6 {
        uniform_improvement: Summary::of(&uni),
        nonuniform_improvement: Summary::of(&non),
        nonuniform_over_uniform: Summary::of(&gap),
        psnr_uniform: Summary::of(&pu),
        psnr_nonuniform: Summary::of(&pn),
        psnr_reencode: Summary::of(&pr),
        cases,
    };

    // ------------------------------------------------------------------
    // 6(b) under a shared bit budget: the paper's encoder is rate
    // controlled, so layouts that compress worse (more tile boundaries
    // severing prediction) are pushed to coarser quantization and lose
    // PSNR. We match every layout to the bitrate the untiled encode
    // achieved and compare quality.
    // ------------------------------------------------------------------
    println!("\n## 6(b) at matched bitrate (rate-controlled encoder)\n");
    table_header("dataset | untiled dB | non-uniform dB | uniform 5x5 dB");
    let mut rc_untiled = Vec::new();
    let mut rc_nonuniform = Vec::new();
    let mut rc_uniform = Vec::new();
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

        let psnr_at_budget = |layout_for: &dyn Fn(std::ops::Range<u32>) -> TileLayout| -> f64 {
            use tasm_codec::{encode_video, EncoderConfig, RateControl};
            let cfg = EncoderConfig {
                gop_len: 30,
                qp: 28,
                rate: RateControl::TargetRate {
                    millibits_per_sample: millibits,
                },
                ..Default::default()
            };
            let mut decoded = Vec::new();
            let mut start = 0u32;
            while start < video.len() {
                let end = (start + 30).min(video.len());
                let slice = tasm_video::SliceSource::new(video, start, end - start);
                let layout = layout_for(start..end);
                let (tiles, _) = encode_video(&slice, &layout, &cfg, true).expect("encode");
                let sv = StitchedVideo::stitch(layout, tiles).expect("stitch");
                let (frames, _) = sv.decode_all().expect("decode");
                decoded.extend(frames);
                start = end;
            }
            let original: Vec<_> = (0..video.len()).map(|f| video.frame(f)).collect();
            psnr_sequence(original.iter(), decoded.iter()).y
        };

        let p_untiled = psnr_at_budget(&|_| TileLayout::untiled(w, h));
        let p_uniform = psnr_at_budget(&|_| TileLayout::uniform(w, h, 5, 5).expect("uniform"));
        let p_nonuniform = psnr_at_budget(&|frames| {
            let boxes: Vec<_> = frames
                .clone()
                .flat_map(|f| video.ground_truth_for(f, object))
                .collect();
            partition(w, h, &boxes, &micro_partition(Granularity::Fine))
        });
        println!(
            "| {} | {:.1} | {:.1} | {:.1} |",
            ds.name(),
            p_untiled,
            p_nonuniform,
            p_uniform
        );
        rc_untiled.push(p_untiled);
        rc_nonuniform.push(p_nonuniform);
        rc_uniform.push(p_uniform);
    }
    println!(
        "\nmatched-bitrate medians: untiled {:.1} dB > non-uniform {:.1} dB > 25-tile uniform {:.1} dB",
        tasm_bench::median(&rc_untiled),
        tasm_bench::median(&rc_nonuniform),
        tasm_bench::median(&rc_uniform)
    );
    println!("(paper: 46 dB re-encode > 40 dB non-uniform > 36 dB uniform)");

    println!("\n## Summary (median [IQR]) — paper values in parentheses\n");
    table_header("metric | this repo | paper");
    println!(
        "| 6(a) best uniform improvement % | {} | avg 37 |",
        report.uniform_improvement.display(0)
    );
    println!(
        "| 6(a) best non-uniform improvement % | {} | avg 51 |",
        report.nonuniform_improvement.display(0)
    );
    println!(
        "| 6(a) non-uniform gain over uniform (pp) | {} | avg ~10 |",
        report.nonuniform_over_uniform.display(0)
    );
    println!(
        "| 6(b) PSNR best uniform (dB) | {} | ~36 |",
        report.psnr_uniform.display(1)
    );
    println!(
        "| 6(b) PSNR best non-uniform (dB) | {} | ~40 |",
        report.psnr_nonuniform.display(1)
    );
    println!(
        "| 6(b) PSNR re-encoded untiled (dB) | {} | ~46 |",
        report.psnr_reencode.display(1)
    );
    write_result("fig6", &report);
}
