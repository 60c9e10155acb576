//! Figure 12 — does up-front detection ever pay for itself?
//!
//! Re-runs Workload 5 accounting the *initial detection* cost of the
//! pre-tiling strategies: full-YOLO over every frame ("pre-tile, all
//! objects") and KNN-style background subtraction ("pre-tile, background
//! subtraction"); both then continue adapting with the regret policy. The
//! incremental-regret strategy does no up-front work.
//!
//! Paper finding: the up-front cost never amortizes, even after 200
//! queries — which motivates pushing detection to the camera (§4.3).
//!
//! Run with `cargo run --release -p tasm-bench --bin fig12`.

use serde::Serialize;
use std::collections::BTreeMap;
use tasm_bench::{
    deciles, median_deciles, scaled_count, scaled_secs, table_header, write_result, BenchVideo,
};
use tasm_core::{run_workload, RunQuery, StorageConfig, Strategy};
use tasm_data::{workload5, Dataset, WorkloadParams};
use tasm_detect::yolo::SimulatedYolo;

const STRATEGIES: [(&str, Strategy); 4] = [
    ("not-tiled", Strategy::NotTiled),
    (
        "pretile-all-objects",
        Strategy::PretileAllObjects { then_regret: true },
    ),
    (
        "pretile-background-subtraction",
        Strategy::PretileForeground,
    ),
    ("incremental-regret", Strategy::IncrementalRegret),
];

#[derive(Serialize)]
struct Fig12 {
    /// strategy -> median normalized cumulative (including detection) at
    /// each decile of the query sequence.
    curves: BTreeMap<String, Vec<f64>>,
    /// strategy -> median final value.
    finals: BTreeMap<String, f64>,
}

fn main() {
    let duration = scaled_secs(10);
    let n_seeds = scaled_count(2) as u64;

    let mut all_curves: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
    for seed in 0..n_seeds {
        let ds = if seed % 2 == 0 {
            Dataset::ElFuenteDense
        } else {
            Dataset::NetflixOpenSource
        };
        let queries: Vec<RunQuery> = workload5(
            WorkloadParams::new(duration * 30, 30, 3000 + seed),
            ds.primary_labels(),
        )
        .into_iter()
        .map(|q| RunQuery {
            label: q.label,
            frames: q.frames,
        })
        .collect();

        // Baseline costs per query (decode only).
        let mut base_costs: Vec<f64> = Vec::new();
        for (name, strategy) in STRATEGIES {
            eprintln!("[fig12] seed {seed} strategy {name}...");
            let mut bv = BenchVideo::ingest(
                ds.build(duration, 300 + seed),
                &format!("fig12-{seed}-{name}"),
                StorageConfig::default(),
                |_, _| None,
            );
            let mut detector = SimulatedYolo::full(1);
            let report = run_workload(
                &mut bv.tasm,
                &bv.name,
                &queries,
                strategy,
                &mut detector,
                &|f| bv.video.ground_truth(f),
                Some(&bv.video),
            )
            .expect("workload");

            if name == "not-tiled" {
                let mean = (report.records.iter().map(|r| r.decode_seconds).sum::<f64>()
                    / report.records.len().max(1) as f64)
                    .max(1e-9);
                base_costs = report
                    .records
                    .iter()
                    .map(|r| r.decode_seconds.max(mean * 0.05))
                    .collect();
            }
            let mean_base = base_costs.iter().sum::<f64>() / base_costs.len() as f64;
            // Cumulative including detection, charged where it occurs:
            // initial detection + tiling on query 0 (in mean-baseline
            // units); lazy detection as the queries trigger it.
            let mut cum = 0.0;
            let mut curve = Vec::with_capacity(report.records.len());
            for (i, r) in report.records.iter().enumerate() {
                let cost = r.decode_seconds + r.retile_seconds + r.detect_seconds;
                if i == 0 {
                    cum +=
                        (report.initial_tile_seconds + report.initial_detect_seconds) / mean_base;
                }
                cum += cost / base_costs[i];
                curve.push(cum);
            }
            all_curves.entry(name).or_default().push(deciles(&curve));
        }
    }

    let curves: BTreeMap<String, Vec<f64>> = all_curves
        .iter()
        .map(|(name, vecs)| (name.to_string(), median_deciles(vecs)))
        .collect();
    let finals: BTreeMap<String, f64> = curves
        .iter()
        .map(|(name, med)| (name.clone(), *med.last().expect("curve")))
        .collect();

    println!("# Figure 12: cumulative cost including initial detection (Workload 5)\n");
    table_header("strategy | 10% | 25% | 50% | 100%");
    for (name, c) in &curves {
        println!(
            "| {name} | {:.0} | {:.0} | {:.0} | {:.0} |",
            c[1], c[2], c[5], c[10]
        );
    }
    println!("\nShape check (paper): both pre-tiling strategies start far above the");
    println!("baseline because of up-front detection and never catch up, while");
    println!("incremental-regret tracks the baseline from the start.");
    let ok = finals["pretile-all-objects"] > finals["incremental-regret"]
        && finals["pretile-background-subtraction"] > finals["incremental-regret"];
    println!(
        "up-front cost fails to amortize: {}",
        if ok { "REPRODUCED" } else { "NOT reproduced" }
    );

    write_result("fig12", &Fig12 { curves, finals });
}
