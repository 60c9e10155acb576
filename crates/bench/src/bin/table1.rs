//! Table 1 — the video corpus.
//!
//! Prints the statistics of the synthetic corpus presets next to the paper's
//! rows: dataset, type, duration, resolution, per-frame object coverage
//! band, and the frequently occurring object classes. Resolutions and
//! durations are uniformly scaled down (see `tasm_data::datasets`).
//!
//! Run with `cargo run --release -p tasm-bench --bin table1`.

use serde::Serialize;
use tasm_bench::{scaled_secs, table_header, write_result};
use tasm_data::Dataset;
use tasm_video::FrameSource;

#[derive(Serialize)]
struct Row {
    dataset: &'static str,
    resolution: String,
    duration_s: u32,
    coverage_min_pct: f64,
    coverage_max_pct: f64,
    coverage_mean_pct: f64,
    dense: bool,
    frequent_objects: Vec<&'static str>,
}

fn main() {
    let duration = scaled_secs(4);
    println!("# Table 1: video corpus (synthetic equivalents)\n");
    table_header("dataset | res. | dur. (s) | per-frame coverage (%) | class | frequent objects");

    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let v = ds.build(duration, 42);
        let coverages: Vec<f64> = (0..v.len()).map(|t| v.coverage(t) * 100.0).collect();
        let min = coverages.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = coverages.iter().cloned().fold(0.0, f64::max);
        let mean = coverages.iter().sum::<f64>() / coverages.len() as f64;
        let row = Row {
            dataset: ds.name(),
            resolution: format!("{}x{}", v.width(), v.height()),
            duration_s: duration,
            coverage_min_pct: min,
            coverage_max_pct: max,
            coverage_mean_pct: mean,
            dense: ds.is_dense(),
            frequent_objects: ds.primary_labels().to_vec(),
        };
        println!(
            "| {} | {} | {} | {:.1}-{:.1} (mean {:.1}) | {} | {} |",
            row.dataset,
            row.resolution,
            row.duration_s,
            row.coverage_min_pct,
            row.coverage_max_pct,
            row.coverage_mean_pct,
            if row.dense { "dense" } else { "sparse" },
            row.frequent_objects.join(", "),
        );
        rows.push(row);
    }

    println!("\nPaper bands for comparison: Visual Road 0.06-10%, Netflix public");
    println!("0.32-49%, Netflix Open Source 25-45%, XIPH 2-59%, MOT16 3-36%,");
    println!("El Fuente 1-47%. Sparse/dense split at 20% mean coverage (§5.2.2).");
    write_result("table1", &rows);
}
