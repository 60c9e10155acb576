//! The paper's tables and figures (§5), each a function from the
//! experiment scale to one typed [`Figure`] ([`FIGURES`]), over one shared
//! harness: throwaway stores of corpus videos, priced object queries and
//! workloads, and the paper's median/IQR statistics. The `reproduce` binary
//! renders them into `REPRODUCTION.md`, whose header states how they are
//! priced: a query by the read plan `Tasm::query` runs, counted by
//! `Tasm::price` without a decode, at `CostModel::CALIBRATED` and
//! `EncodeModel::CALIBRATED`, never timed, so one scale gives the same
//! tables byte for byte. Only the `fit_cost_model` binary times, because
//! calibration is timing.

#![forbid(unsafe_code)]

use std::ops::Range;
use tasm_codec::TileLayout;
use tasm_core::{
    partition, retile_cost, run_workload, CostModel, Granularity, LabelPredicate, PartitionConfig,
    RunQuery, StorageConfig, Strategy, Tasm, TasmConfig, Work,
};
use tasm_data::{Dataset, Query, SyntheticVideo};
use tasm_detect::yolo::SimulatedYolo;
use tasm_index::MemoryIndex;
use tasm_suite::TempDir;
use tasm_video::{FrameSource, Rect};

mod fig10;
mod fig11;
mod fig12;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
pub mod figure;
pub mod stats;
mod table1;

pub use figure::{render, Figure, Table, Verdict};
pub use stats::{mean, median, quartiles, Summary};

/// A reproduction: its figure at a scale.
pub type Reproduction = fn(f64) -> Figure;

/// Every reproduction, by the name `reproduce` selects it with, in the
/// paper's order.
pub const FIGURES: [(&str, Reproduction); 8] = [
    ("table1", table1::table1),
    ("fig6", fig6::fig6),
    ("fig7", fig7::fig7),
    ("fig8", fig8::fig8),
    ("fig9", fig9::fig9),
    ("fig10", fig10::fig10),
    ("fig11", fig11::fig11),
    ("fig12", fig12::fig12),
];

/// Experiment scale factor from `TASM_BENCH_SCALE` (default 1.0; e.g. `0.25`
/// for a quick pass).
pub fn scale() -> f64 {
    std::env::var("TASM_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or(1.0)
}

/// `base` seconds at `scale` (at least 1).
pub fn scaled_secs(base: u32, scale: f64) -> u32 {
    ((base as f64 * scale).round() as u32).max(1)
}

/// `base` at `scale` (at least 1).
pub fn scaled_count(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// The non-uniform layout at `granularity` around the ground-truth boxes of
/// `labels` on `frames` of `video`.
pub fn layout_around(
    video: &SyntheticVideo,
    frames: Range<u32>,
    labels: &[&str],
    granularity: Granularity,
) -> TileLayout {
    let truth = frames.flat_map(|f| video.ground_truth(f));
    let boxes: Vec<Rect> = truth
        .filter(|(l, _)| labels.contains(l))
        .map(|(_, b)| b)
        .collect();
    partition(
        video.width(),
        video.height(),
        &boxes,
        &micro_partition(granularity),
    )
}

/// Partition parameters scaled to the simulated resolutions.
pub fn micro_partition(granularity: Granularity) -> PartitionConfig {
    PartitionConfig {
        min_tile_width: 64,
        min_tile_height: 32,
        granularity,
    }
}

/// A video under measurement: the synthetic scene, ingested as `v` into a
/// store of its own that is removed when this drops.
///
/// The store has no decoded-GOP cache: the paper's system has none, and a
/// cache hit is decode work not counted, so it would change the prices.
/// Everything else is `TasmConfig::default()`: the paper's 1-second GOPs and
/// SOTs at 30 fps, QP 28, η = 1, α = 0.8, and the stale prices of §4.1.
pub struct BenchVideo {
    /// The scene (ground-truth oracle and frame source).
    pub video: SyntheticVideo,
    /// The storage manager holding the ingested copy.
    pub tasm: Tasm,
    /// Video name inside the store.
    pub name: String,
    /// Declared after `tasm`, so the store has closed before its directory
    /// is removed.
    _dir: TempDir,
}

impl BenchVideo {
    /// Builds a dataset preset, ingests it untiled, and indexes its ground
    /// truth.
    pub fn prepare(dataset: Dataset, duration_s: u32, seed: u64, tag: &str) -> Self {
        let video = dataset.build(duration_s, seed);
        let bv = Self::ingest(video, tag, StorageConfig::default(), |_, _| None);
        bv.index_ground_truth();
        bv
    }

    /// Ingests `video` under `storage` into a fresh store, each SOT in the
    /// layout `layout_for` gives it (None = untiled). The index starts
    /// empty: [`BenchVideo::index_ground_truth`] fills it, or a workload's
    /// detector does.
    pub fn ingest(
        video: SyntheticVideo,
        tag: &str,
        storage: StorageConfig,
        mut layout_for: impl FnMut(&SyntheticVideo, Range<u32>) -> Option<TileLayout>,
    ) -> Self {
        let dir = TempDir::new(&format!("bench-{tag}"));
        let cfg = TasmConfig {
            storage,
            cache_bytes: 0,
            ..Default::default()
        };
        let tasm =
            Tasm::open(dir.path(), Box::new(MemoryIndex::in_memory()), cfg).expect("open tasm");
        let name = "v".to_string();
        let (w, h) = (video.width(), video.height());
        tasm.ingest_with(&name, &video, 30, |_, frames| {
            layout_for(&video, frames).unwrap_or_else(|| TileLayout::untiled(w, h))
        })
        .expect("ingest");
        BenchVideo {
            video,
            tasm,
            name,
            _dir: dir,
        }
    }

    /// Indexes every frame's ground-truth boxes, as a detector run over the
    /// whole video would.
    pub fn index_ground_truth(&self) {
        tasm_suite::index_ground_truth(&self.tasm, &self.name, &self.video);
    }

    /// Re-tiles every SOT with the layout produced by `layout_for`
    /// (None = leave as is).
    pub fn apply_layout(
        &mut self,
        mut layout_for: impl FnMut(&SyntheticVideo, Range<u32>) -> Option<TileLayout>,
    ) {
        let sots: Vec<(usize, Range<u32>)> = self
            .tasm
            .manifest(&self.name)
            .expect("manifest")
            .sots
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.frames()))
            .collect();
        for (i, frames) in sots {
            if let Some(layout) = layout_for(&self.video, frames) {
                self.tasm.retile(&self.name, i, layout).expect("retile");
            }
        }
    }

    /// The decode work of the query `SELECT label FROM v` over `frames`,
    /// priced by its read plan ([`Tasm::price`]).
    pub fn select(&self, label: &str, frames: Range<u32>) -> Work {
        let query = tasm_core::Query::new(LabelPredicate::label(label)).frames(frames);
        self.tasm.price(&self.name, &query).expect("price")
    }

    /// §4.1's price of the microbenchmark query `SELECT label FROM v` over
    /// the whole video, at the calibrated prices.
    pub fn select_cost(&self, label: &str) -> f64 {
        let work = self.select(label, 0..self.video.len());
        CostModel::CALIBRATED.cost(work)
    }
}

/// Runs `queries` on a fresh untiled copy of `video()` under each of
/// `strategies`, one thread each, and returns each one's cumulative priced
/// cost at 11 checkpoints (0 %, 10 %, …, 100 % of the queries), in units of
/// the first strategy's mean query (not tiling, in both figures that use
/// it). Up-front tiling — and, `with_detection`, simulated detection, up
/// front and lazy — is charged where it occurs, the up-front part with the
/// first query.
pub fn cumulative_costs(
    video: impl Fn() -> SyntheticVideo + Sync,
    queries: &[Query],
    strategies: &[(&str, Strategy)],
    tag: &str,
    with_detection: bool,
) -> Vec<Vec<f64>> {
    let queries: Vec<RunQuery> = queries
        .iter()
        .map(|q| RunQuery {
            label: q.label.clone(),
            frames: q.frames.clone(),
        })
        .collect();
    let detect = |seconds: f64| if with_detection { seconds } else { 0.0 };
    // Per strategy: the up-front price, then each query's price and its
    // detection seconds.
    let run = |name: &str, strategy: Strategy| {
        let storage = StorageConfig::default();
        let mut bv = BenchVideo::ingest(video(), &format!("{tag}-{name}"), storage, |_, _| None);
        let report = run_workload(
            &mut bv.tasm,
            &bv.name,
            &queries,
            strategy,
            &mut SimulatedYolo::full(1),
            &|f| bv.video.ground_truth(f),
            Some(&bv.video),
        )
        .expect("workload");
        let up_front = retile_cost(&report.initial_tile) + detect(report.initial_detect_seconds);
        let records = report.records.iter();
        let priced: Vec<(f64, f64)> = records.map(|r| (r.cost(), r.detect_seconds)).collect();
        (up_front, priced)
    };
    let runs: Vec<(f64, Vec<(f64, f64)>)> = std::thread::scope(|s| {
        let runs: Vec<_> = (strategies.iter())
            .map(|&(name, strategy)| s.spawn(move || run(name, strategy)))
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("strategy"))
            .collect()
    });
    let first = &runs[0].1;
    let total: f64 = first.iter().map(|&(cost, _)| cost).sum();
    let unit = (total / first.len().max(1) as f64).max(f64::MIN_POSITIVE);
    let curve = |(up_front, priced): &(f64, Vec<(f64, f64)>)| {
        let mut cum = up_front / unit;
        let curve: Vec<f64> = (priced.iter())
            .map(|&(cost, detect_seconds)| {
                cum += (cost + detect(detect_seconds)) / unit;
                cum
            })
            .collect();
        (0..=10)
            .map(|d| curve[d * (curve.len() - 1) / 10])
            .collect()
    };
    runs.iter().map(curve).collect()
}

/// Percentage improvement of `tiled` over `untiled` (positive = faster).
pub fn improvement_pct(untiled: f64, tiled: f64) -> f64 {
    100.0 * (1.0 - tiled / untiled)
}

/// The checkpoint-wise [`median`] of several [`cumulative_costs`] curves.
pub fn median_deciles(curves: &[Vec<f64>]) -> Vec<f64> {
    (0..=10)
        .map(|d| median(&curves.iter().map(|c| c[d]).collect::<Vec<f64>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(10.0, 5.0), 50.0);
        assert_eq!(improvement_pct(10.0, 10.0), 0.0);
        assert!(improvement_pct(10.0, 12.0) < 0.0);
    }

    #[test]
    fn bench_video_prepare_and_select() {
        let mut bv = BenchVideo::prepare(Dataset::VisualRoad2K, 1, 3, "lib-test");
        let untiled = bv.select("car", 0..bv.video.len());
        assert!(untiled.pixels > 0);
        assert!(untiled.tile_chunks > 0);
        assert_eq!(
            bv.select_cost("car"),
            CostModel::CALIBRATED.cost(untiled),
            "counted, not timed"
        );
        // Tiling around cars reduces decode.
        bv.apply_layout(|video, frames| {
            let l = layout_around(video, frames, &["car"], Granularity::Fine);
            (!l.is_untiled()).then_some(l)
        });
        assert!(bv.select("car", 0..bv.video.len()).pixels < untiled.pixels);
        // The store goes with its owner.
        let dir = bv._dir.path().to_path_buf();
        assert!(dir.exists());
        drop(bv);
        assert!(!dir.exists(), "{} left behind", dir.display());
    }
}
