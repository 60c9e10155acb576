//! §4.1 — validate the query cost model `C = β·P + γ·T`.
//!
//! The paper fits a linear model over 1,400 (video, query object, layout)
//! decode measurements and reports R² = 0.996. This harness performs the
//! same fit against this repository's software codec: it times object
//! queries under many layouts, collects (pixels, tile-chunks, seconds)
//! samples, and solves the least squares system. It also fits the linear
//! re-encode model `R(s, L)` used by the incremental policies.
//!
//! Run with `cargo run --release -p tasm-bench --bin fit_cost_model`.

use serde::Serialize;
use tasm_bench::{micro_partition, scaled_secs, table_header, write_result, BenchVideo};
use tasm_codec::TileLayout;
use tasm_core::{fit_linear, partition, Granularity, WorkSample};
use tasm_data::Dataset;
use tasm_video::FrameSource;

#[derive(Serialize)]
struct FitReport {
    samples: usize,
    beta_seconds_per_sample: f64,
    gamma_seconds_per_chunk: f64,
    r2: f64,
    encode_seconds_per_sample: f64,
    paper_r2: f64,
}

fn main() {
    let duration = scaled_secs(2);
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
                let boxes = bv.boxes_for(&[label], 0..bv.video.len());
                layouts.push(partition(w, h, &boxes, &micro_partition(g)));
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
                let s = bv.time_select(label);
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
    table_header("quantity | this repo | paper");
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

    write_result(
        "fit_cost_model",
        &FitReport {
            samples: samples.len(),
            beta_seconds_per_sample: fit.beta,
            gamma_seconds_per_chunk: fit.gamma,
            r2: fit.r2,
            encode_seconds_per_sample: encode_spp,
            paper_r2: 0.996,
        },
    );
}
