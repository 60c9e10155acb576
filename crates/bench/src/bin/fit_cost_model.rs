//! §4.1 — validate the query cost model `C = β·P + γ·T`.
//!
//! The paper fits a linear model over 1,400 (video, query object, layout)
//! decode measurements and reports R² = 0.996. This harness performs the
//! same fit against this repository's software codec: it times object
//! queries under many layouts, collects (pixels, tile-chunks, seconds)
//! samples, and solves the least squares system. It also fits the linear
//! re-encode model `R(s, L)` used by the incremental policies. It is the one
//! harness that times: calibration is timing; every figure is priced with
//! the constants it fits.
//!
//! Run with `cargo run --release -p tasm-bench --bin fit_cost_model`
//! (`TASM_BENCH_SCALE=0.25` for a quick pass).

use tasm_bench::{layout_around, scale, scaled_secs, BenchVideo};
use tasm_codec::TileLayout;
use tasm_core::{fit_linear, Granularity, LabelPredicate, WorkSample};
use tasm_data::Dataset;
use tasm_video::FrameSource;

/// Times `SELECT label FROM v` (full range) three times: its counted work
/// with the fastest run's decode seconds, summed over the decode workers so
/// that parallel decode does not fold into the fit. The minimum is the
/// standard estimator for deterministic work under scheduler noise.
fn time_select(bv: &BenchVideo, label: &str) -> WorkSample {
    let predicate = LabelPredicate::label(label);
    (0..3)
        .map(|_| {
            let r = bv.tasm.scan(&bv.name, &predicate, 0..bv.video.len());
            let stats = r.expect("scan").stats;
            WorkSample {
                pixels: stats.samples_decoded,
                tile_chunks: stats.tile_chunks_decoded,
                seconds: stats.seconds(),
            }
        })
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("three runs")
}

fn main() {
    let duration = scaled_secs(2, scale());
    let mut samples: Vec<WorkSample> = Vec::new();

    let datasets = [
        (Dataset::VisualRoad2K, 11u64),
        (Dataset::VisualRoad2K, 12),
        (Dataset::Xiph, 13),
        (Dataset::Mot16, 14),
        (Dataset::NetflixPublic, 15),
    ];
    println!("# Cost model fit (paper §4.1)\n");
    println!("collecting decode measurements over (video, object, layout) combos...");

    let mut encode_samples: Vec<(u64, f64)> = Vec::new();
    for (ds, seed) in datasets {
        let mut bv = BenchVideo::prepare(ds, duration, seed, &format!("fit-{seed}"));
        let (w, h) = (bv.video.width(), bv.video.height());
        let labels: Vec<&str> = ds.primary_labels().to_vec();

        // Layout suite: untiled, uniform grids, fine/coarse object layouts.
        let mut layouts: Vec<TileLayout> = vec![
            TileLayout::untiled(w, h),
            TileLayout::uniform(w, h, 2, 2).unwrap(),
            TileLayout::uniform(w, h, 3, 3).unwrap(),
            TileLayout::uniform(w, h, 4, 4).unwrap(),
            TileLayout::uniform(w, h, 5, 5).unwrap(),
        ];
        for label in &labels {
            for g in [Granularity::Fine, Granularity::Coarse] {
                layouts.push(layout_around(&bv.video, 0..bv.video.len(), &[label], g));
            }
        }
        layouts.dedup();

        for layout in layouts {
            let l = layout.clone();
            let t0 = std::time::Instant::now();
            bv.apply_layout(|_, _| Some(l.clone()));
            let retile_secs = t0.elapsed().as_secs_f64();
            if !layout.is_untiled() {
                let samples_encoded = (w as u64 * h as u64 * 3 / 2) * bv.video.len() as u64;
                encode_samples.push((samples_encoded, retile_secs));
            }
            for label in &labels {
                let s = time_select(&bv, label);
                if s.pixels > 0 {
                    samples.push(s);
                }
            }
        }
    }

    let fit = fit_linear(&samples);
    // Encode model: single-variable least squares through the origin.
    let (sxx, sxy) = encode_samples
        .iter()
        .fold((0.0f64, 0.0f64), |(sxx, sxy), &(p, s)| {
            (sxx + (p as f64) * (p as f64), sxy + p as f64 * s)
        });
    let encode_spp = if sxx > 0.0 { sxy / sxx } else { 0.0 };

    println!();
    println!("| quantity | this repo | paper |");
    println!("|---|---|---|");
    println!("| samples fitted | {} | ~1400 |", samples.len());
    println!("| β (s/sample) | {:.3e} | n/a (GPU) |", fit.beta);
    println!("| γ (s/tile-chunk) | {:.3e} | n/a (GPU) |", fit.gamma);
    println!("| R² | {:.4} | 0.996 |", fit.r2);
    println!("| encode model (s/sample) | {encode_spp:.3e} | n/a |");
    println!("\nSuggested defaults for `CostModel`/`EncodeModel`:");
    println!(
        "  beta = {:.3e}, gamma = {:.3e}, seconds_per_sample = {:.3e}",
        fit.beta, fit.gamma, encode_spp
    );
}
