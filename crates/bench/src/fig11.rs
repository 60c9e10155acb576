//! Figure 11 + Table 2 — incremental tiling over six query workloads.
//!
//! For each workload (§5.3) and each strategy — not tiled, pre-tile around
//! all objects, incremental-more, incremental-regret — runs the query
//! sequence and reports the cumulative priced decode + re-tile cost, in
//! units of the mean not-tiled query (so not tiling ends at the query
//! count, as the paper plots it). Pre-tiling's up-front re-tile is charged
//! with the first query. Table 2 reports the quartiles of the final
//! cumulative value across videos. The claim it checks is [`CLAIM`].

use crate::{cumulative_costs, median_deciles, quartiles, scaled_count, scaled_secs};
use crate::{Figure, Table, Verdict};
use tasm_core::Strategy;
use tasm_data::{
    workload1, workload2, workload3, workload4, workload5, workload6, Dataset, Query,
    WorkloadParams,
};

/// The paper's shapes per workload.
const CLAIM: &str = "W1 (uniform, one class): pre-tiling and incremental-more win; regret \
is slow to trigger when queries spread uniformly. W2 (first 25 % of the video): both \
incremental strategies beat pre-tiling. W3 (Zipf + rare class): regret beats \
incremental-more. W4 (class drift): regret adapts without big jumps. W5 (dense, tiling \
hopeless): only regret stays near the baseline. W6 (dense but single class): incremental \
strategies eventually win; pre-tiling around everything loses.";

const STRATEGIES: [(&str, Strategy); 4] = [
    ("not-tiled", Strategy::NotTiled),
    (
        "all-objects",
        Strategy::PretileAllObjects { then_regret: false },
    ),
    ("incremental-more", Strategy::IncrementalMore),
    ("incremental-regret", Strategy::IncrementalRegret),
];

/// Paper Table 2 medians: not tiled, all objects, more, regret.
const PAPER: [(&str, [u32; 4]); 6] = [
    ("W1", [100, 65, 69, 91]),
    ("W2", [100, 67, 50, 53]),
    ("W3", [100, 64, 82, 57]),
    ("W4", [200, 102, 110, 103]),
    ("W5", [200, 221, 230, 200]),
    ("W6", [200, 244, 186, 186]),
];

/// A corpus video by preset, duration (s) and seed.
type VideoSpec = (Dataset, u32, u64);

/// The verdicts on one workload's shape, from each strategy's Table 2
/// median and median curve, in [`STRATEGIES`] order.
fn verdicts(workload: &str, finals: [f64; 4], curves: &[Vec<f64>]) -> Vec<Verdict> {
    let [base, all, more, regret] = finals;
    let show =
        format!("not tiled {base:.0}, all objects {all:.0}, more {more:.0}, regret {regret:.0}");
    let verdict = |shape: &str, held| Verdict::new(format!("{workload}: {shape}"), held, &show);
    let near = |x: f64| (x / base - 1.0).abs() <= 0.1;
    let step = |c: &[f64]| c.windows(2).map(|w| w[1] - w[0]).fold(0.0f64, f64::max);
    let (step_more, step_regret) = (step(&curves[2]), step(&curves[3]));
    match workload {
        "W1" => vec![
            verdict(
                "pre-tiling and incremental-more beat not tiling",
                all < base && more < base,
            ),
            verdict("regret is slower than incremental-more", regret > more),
        ],
        "W2" => vec![verdict(
            "both incremental strategies beat pre-tiling",
            more < all && regret < all,
        )],
        "W3" => vec![verdict("regret beats incremental-more", regret < more)],
        "W4" => vec![Verdict::new(
            "W4: regret adapts without big jumps (its largest decile step ≤ incremental-more's)",
            step_regret <= step_more,
            format!("largest decile step: regret {step_regret:.0}, more {step_more:.0}"),
        )],
        "W5" => vec![verdict(
            "only regret stays within 10 % of not tiling",
            near(regret) && !near(all) && !near(more),
        )],
        _ => vec![
            verdict(
                "both incremental strategies beat not tiling",
                more < base && regret < base,
            ),
            verdict(
                "pre-tiling around everything loses to not tiling",
                all > base,
            ),
        ],
    }
}

/// Reproduces Figure 11 and Table 2 at `scale`.
pub fn fig11(scale: f64) -> Figure {
    let dur_sparse = scaled_secs(20, scale);
    let dur_dense = scaled_secs(10, scale);
    let qlen = 30; // one "minute" of the paper ≈ one second here (30 frames)
    let n_seeds = scaled_count(3, scale) as u64;

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
        runs(&sparse, &|p, _| workload1(p)),
        runs(&sparse, &|p, _| workload2(p)),
        runs(&sparse, &|p, _| workload3(p)),
        runs(&sparse, &|p, _| workload4(p)),
        runs(&dense, &|p, ds| workload5(p, ds.primary_labels())),
        runs(&dense, &|p, _| workload6(p, "person")),
    ];

    let mut tables = Vec::new();
    let mut all_verdicts = Vec::new();
    for ((wname, paper), per_video) in PAPER.into_iter().zip(workloads) {
        let mut runs: [Vec<Vec<f64>>; 4] = Default::default();
        for (vi, ((ds, duration, seed), queries)) in per_video.iter().enumerate() {
            let video = || ds.build(*duration, *seed);
            let tag = format!("fig11-{wname}-{vi}");
            let curves = cumulative_costs(video, queries, &STRATEGIES, &tag, false);
            for (runs, curve) in runs.iter_mut().zip(curves) {
                runs.push(curve);
            }
        }

        let caption = format!(
            "### {wname}: cumulative priced decode + re-tile cost (unit: the mean not-tiled query)"
        );
        let header = [
            "strategy",
            "20%",
            "50%",
            "70%",
            "100%",
            "Table 2 final [q1, med, q3]",
            "paper Table 2",
        ];
        let mut table = Table::new(caption, &header);
        let (mut medians, mut curves) = ([0.0; 4], Vec::new());
        for (i, ((name, _), paper)) in STRATEGIES.iter().zip(paper).enumerate() {
            let curve = median_deciles(&runs[i]);
            let finals: Vec<f64> = runs[i].iter().map(|c| c[10]).collect();
            let (q1, med, q3) = quartiles(&finals);
            table.rows.push(vec![
                name.to_string(),
                format!("{:.0}", curve[2]),
                format!("{:.0}", curve[5]),
                format!("{:.0}", curve[7]),
                format!("{:.0}", curve[10]),
                format!("[{q1:.0}, {med:.0}, {q3:.0}]"),
                paper.to_string(),
            ]);
            medians[i] = med;
            curves.push(curve);
        }
        tables.push(table);
        all_verdicts.extend(verdicts(wname, medians, &curves));
    }

    Figure {
        name: "fig11",
        title: "incremental tiling over six workloads (and Table 2)",
        claim: CLAIM,
        tables,
        verdicts: all_verdicts,
    }
}
