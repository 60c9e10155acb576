//! Figure 11 + Table 2 — incremental tiling over six query workloads.
//!
//! For each workload (§5.3) and each strategy — not tiled, pre-tile around
//! all objects, incremental-more, incremental-regret — runs the query
//! sequence and reports cumulative decode + re-tiling time, normalized
//! per-query to the not-tiled baseline (so the baseline is the diagonal,
//! exactly as the paper plots it). Table 2 reports the quartiles of the
//! final cumulative value across videos.
//!
//! Paper shapes to check:
//! * W1 (uniform, one class): pre-tiling and incremental-more win;
//!   regret is slow to trigger when queries spread uniformly.
//! * W2 (first 25% of video): both incremental strategies beat pre-tiling.
//! * W3 (Zipf + rare class): regret beats incremental-more.
//! * W4 (class drift): regret adapts without big jumps.
//! * W5 (dense, tiling hopeless): only regret stays near the baseline.
//! * W6 (dense but single class): incremental strategies eventually win;
//!   pre-tiling around everything loses.
//!
//! Run with `cargo run --release -p tasm-bench --bin fig11`.

use serde::Serialize;
use std::collections::BTreeMap;
use tasm_bench::{
    deciles, median_deciles, scaled_count, scaled_secs, table_header, write_result, BenchVideo,
};
use tasm_core::{run_workload, RunQuery, StorageConfig, Strategy, WorkloadReport};
use tasm_data::{
    workload1, workload2, workload3, workload4, workload5, workload6, Dataset, Query,
    WorkloadParams,
};
use tasm_detect::yolo::SimulatedYolo;

const STRATEGIES: [(&str, Strategy); 4] = [
    ("not-tiled", Strategy::NotTiled),
    (
        "all-objects",
        Strategy::PretileAllObjects { then_regret: false },
    ),
    ("incremental-more", Strategy::IncrementalMore),
    ("incremental-regret", Strategy::IncrementalRegret),
];

#[derive(Serialize)]
struct WorkloadResult {
    workload: String,
    /// strategy -> normalized cumulative (median across videos) at each
    /// decile of the query sequence.
    curves: BTreeMap<String, Vec<f64>>,
    /// strategy -> (q1, median, q3) of the final cumulative value — Table 2.
    table2: BTreeMap<String, (f64, f64, f64)>,
}

/// A corpus video by preset, duration (s) and seed.
type VideoSpec = (Dataset, u32, u64);

/// Runs one (video, workload) pair under every strategy, returning the
/// per-strategy cumulative curve normalized by the baseline per-query times.
fn run_video(
    (ds, duration, seed): VideoSpec,
    queries: &[Query],
    tag: &str,
) -> BTreeMap<&'static str, Vec<f64>> {
    let run_queries: Vec<RunQuery> = queries
        .iter()
        .map(|q| RunQuery {
            label: q.label.clone(),
            frames: q.frames.clone(),
        })
        .collect();

    let mut reports: BTreeMap<&'static str, WorkloadReport> = BTreeMap::new();
    for (name, strategy) in STRATEGIES {
        let mut bv = BenchVideo::ingest(
            ds.build(duration, seed),
            &format!("fig11-{tag}-{name}"),
            StorageConfig::default(),
            |_, _| None,
        );
        let mut detector = SimulatedYolo::full(1);
        let report = run_workload(
            &mut bv.tasm,
            &bv.name,
            &run_queries,
            strategy,
            &mut detector,
            &|f| bv.video.ground_truth(f),
            None,
        )
        .expect("workload");
        reports.insert(name, report);
    }

    // Normalize: each query's cost divided by the baseline cost of the SAME
    // query, accumulated. Queries that decode nothing on the untiled video
    // (no detections in the window) cost ~0 under every strategy; flooring
    // the denominator at 5% of the mean baseline query keeps those ratios
    // from exploding. Pre-tiling's up-front encode is charged with the first
    // query (as the paper does), in units of the mean baseline query.
    let base = &reports["not-tiled"];
    let mean_base = (base.records.iter().map(|r| r.decode_seconds).sum::<f64>()
        / base.records.len().max(1) as f64)
        .max(1e-9);
    let base_costs: Vec<f64> = base
        .records
        .iter()
        .map(|r| r.decode_seconds.max(mean_base * 0.05))
        .collect();
    let mut out = BTreeMap::new();
    for (name, report) in &reports {
        let mut cum = 0.0;
        let mut curve = Vec::with_capacity(report.records.len());
        for (i, r) in report.records.iter().enumerate() {
            let cost = r.decode_seconds + r.retile_seconds;
            if i == 0 {
                cum += report.initial_tile_seconds / mean_base;
            }
            cum += cost / base_costs[i];
            curve.push(cum);
        }
        out.insert(*name, curve);
    }
    out
}

fn main() {
    let dur_sparse = scaled_secs(20);
    let dur_dense = scaled_secs(10);
    let qlen = 30; // one "minute" of the paper ≈ one second here (30 frames)
    let n_seeds = scaled_count(3) as u64;

    // Each video with the parameters of the workloads run over it.
    let sparse: Vec<(VideoSpec, WorkloadParams)> = (0..n_seeds)
        .map(|s| {
            let params = WorkloadParams::new(dur_sparse * 30, qlen, 1000 + s);
            ((Dataset::VisualRoad2K, dur_sparse, 100 + s), params)
        })
        .collect();
    let dense: Vec<(VideoSpec, WorkloadParams)> = (0..n_seeds)
        .map(|s| {
            let ds = if s % 2 == 0 {
                Dataset::ElFuenteDense
            } else {
                Dataset::NetflixOpenSource
            };
            let params = WorkloadParams::new(dur_dense * 30, qlen, 2000 + s);
            ((ds, dur_dense, 200 + s), params)
        })
        .collect();
    let runs = |videos: &[(VideoSpec, WorkloadParams)],
                workload: &dyn Fn(WorkloadParams, Dataset) -> Vec<Query>|
     -> Vec<(VideoSpec, Vec<Query>)> {
        videos.iter().map(|&(v, p)| (v, workload(p, v.0))).collect()
    };
    let workloads = [
        ("W1", runs(&sparse, &|p, _| workload1(p))),
        ("W2", runs(&sparse, &|p, _| workload2(p))),
        ("W3", runs(&sparse, &|p, _| workload3(p))),
        ("W4", runs(&sparse, &|p, _| workload4(p))),
        (
            "W5",
            runs(&dense, &|p, ds| workload5(p, ds.primary_labels())),
        ),
        ("W6", runs(&dense, &|p, _| workload6(p, "person"))),
    ];

    // Optional subset filter: TASM_WORKLOADS=W5,W6
    let filter: Option<Vec<String>> = std::env::var("TASM_WORKLOADS")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let mut results = Vec::new();
    for (wname, per_video) in workloads {
        if filter
            .as_ref()
            .is_some_and(|f| !f.iter().any(|w| w == wname))
        {
            continue;
        }
        eprintln!("[fig11] running {wname}...");
        let mut finals: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut all_curves: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
        for (vi, (video, queries)) in per_video.iter().enumerate() {
            let curves = run_video(*video, queries, &format!("{wname}-{vi}"));
            for (name, curve) in curves {
                finals
                    .entry(name)
                    .or_default()
                    .push(*curve.last().expect("curve"));
                all_curves.entry(name).or_default().push(deciles(&curve));
            }
        }

        // Median curve across videos per strategy.
        let curves: BTreeMap<String, Vec<f64>> = all_curves
            .iter()
            .map(|(name, vecs)| (name.to_string(), median_deciles(vecs)))
            .collect();
        let table2: BTreeMap<String, (f64, f64, f64)> = finals
            .iter()
            .map(|(name, vals)| (name.to_string(), tasm_bench::quartiles(vals)))
            .collect();

        println!(
            "\n## {wname}: cumulative decode + re-tiling time (normalized; baseline = #queries)\n"
        );
        table_header("strategy | 25% | 50% | 75% | 100% | Table 2 final [q1, med, q3]");
        for (name, curve) in &curves {
            let t2 = table2[name];
            println!(
                "| {name} | {:.0} | {:.0} | {:.0} | {:.0} | [{:.0}, {:.0}, {:.0}] |",
                curve[2], curve[5], curve[7], curve[10], t2.0, t2.1, t2.2
            );
        }
        results.push(WorkloadResult {
            workload: wname.to_string(),
            curves,
            table2,
        });
    }

    println!("\nPaper Table 2 medians for comparison (normalized totals):");
    println!("  W1: not-tiled 100, all-objects 65, more 69, regret 91");
    println!("  W2: 100 / 67 / 50 / 53   W3: 100 / 64 / 82 / 57");
    println!("  W4: 200 / 102 / 110 / 103   W5: 200 / 221 / 230 / 200   W6: 200 / 244 / 186 / 186");
    write_result("fig11", &results);
}
