//! Figure 7 — uniform-layout sweep: the improvement in query cost for
//! uniform grids from 2×2 up to 7×10 over the untiled video, per (video,
//! object), summarized as median [IQR]. The claim it checks is [`CLAIM`].

use crate::{improvement_pct, scaled_secs, BenchVideo, Figure, Summary, Table, Verdict};
use tasm_codec::TileLayout;
use tasm_data::Dataset;

/// The paper's shape for uniform layouts.
const CLAIM: &str = "Improvement rises with tile count (19 % at 2x2 → 36 % at 5x5), then \
falls as per-tile overhead bites (28 % at 7x10), while the IQR widens: the same grid does \
not suit every video (1 %-58 % IQR at 7x10).";

/// Reproduces Figure 7 at `scale`.
pub fn fig7(scale: f64) -> Figure {
    let duration = scaled_secs(2, scale);
    let cases: Vec<(Dataset, u64, &str)> = vec![
        (Dataset::VisualRoad2K, 1, "car"),
        (Dataset::VisualRoad2K, 1, "person"),
        (Dataset::VisualRoad2K, 2, "car"),
        (Dataset::VisualRoad4K, 3, "car"),
        (Dataset::NetflixPublic, 4, "bird"),
        (Dataset::Xiph, 5, "car"),
        (Dataset::Xiph, 5, "boat"),
        (Dataset::Mot16, 6, "person"),
        (Dataset::ElFuenteSparse, 7, "boat"),
        (Dataset::ElFuenteDense, 8, "person"),
    ];
    let grids: [(u32, u32); 6] = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 10)];

    // Prepare videos once; sweep layouts per video.
    let mut prepared: Vec<(BenchVideo, &str, f64)> = cases
        .into_iter()
        .map(|(ds, seed, object)| {
            let tag = format!("fig7-{}-{seed}-{object}", ds.name());
            let bv = BenchVideo::prepare(ds, duration, seed, &tag);
            let untiled = bv.select_cost(object);
            (bv, object, untiled)
        })
        .collect();

    let header = ["layout", "tiles", "improvement % median [IQR]", "paper"];
    let mut table = Table::new("", &header);
    let paper = ["19 (2x2)", "", "", "36 (5x5)", "", "28 (7x10)"];
    let mut summaries = Vec::new();
    for (gi, &(r, c)) in grids.iter().enumerate() {
        let mut improvements = Vec::new();
        for (bv, object, untiled) in prepared.iter_mut() {
            let layout = TileLayout::uniform(bv.video.spec().width, bv.video.spec().height, r, c)
                .expect("uniform layout");
            bv.apply_layout(|_, _| Some(layout.clone()));
            improvements.push(improvement_pct(*untiled, bv.select_cost(object)));
        }
        let summary = Summary::of(&improvements);
        table.rows.push(vec![
            format!("{r}x{c}"),
            (r * c).to_string(),
            summary.display(0),
            paper[gi].to_string(),
        ]);
        summaries.push(summary);
    }

    let grid = |i: usize| format!("{}x{}", grids[i].0, grids[i].1);
    let peak = (0..grids.len())
        .max_by(|&a, &b| summaries[a].median.total_cmp(&summaries[b].median))
        .expect("grids");
    let (first, last) = (summaries[0], summaries[grids.len() - 1]);
    let iqr = |s: Summary| s.q3 - s.q1;
    Figure {
        name: "fig7",
        title: "query-cost improvement per uniform layout",
        claim: CLAIM,
        tables: vec![table],
        verdicts: vec![
            Verdict::new(
                "improvement rises with tile count, then falls (peak at an inner grid)",
                peak != 0 && peak != grids.len() - 1,
                format!(
                    "peak {} at {:.0} %; {} {:.0} %, {} {:.0} %",
                    grid(peak),
                    summaries[peak].median,
                    grid(0),
                    first.median,
                    grid(grids.len() - 1),
                    last.median
                ),
            ),
            Verdict::new(
                "the IQR widens from 2x2 to 7x10",
                iqr(last) > iqr(first),
                format!("{:.0} pp → {:.0} pp", iqr(first), iqr(last)),
            ),
        ],
    }
}
