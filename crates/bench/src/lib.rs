//! The paper's tables and figures (§5), each a function from the
//! experiment scale to one typed [`Figure`] ([`FIGURES`]), over one shared
//! harness: throwaway stores of corpus videos, priced object queries and
//! workloads, and the paper's median/IQR statistics. The `reproduce` binary
//! renders them into `REPRODUCTION.md`, whose header states how they are
//! priced: from counted work under the store's own `TasmConfig::cost` and
//! `encode`, never timed, so one scale gives the same tables byte for byte.
//! Only the `fit_cost_model` binary times, because calibration is timing.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use tasm_codec::TileLayout;
use tasm_core::{
    partition, retile_cost, run_workload, Granularity, LabelPredicate, PartitionConfig, RunQuery,
    StorageConfig, Strategy, Tasm, TasmConfig, Work,
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
        // Numbered, so figures built at once in one process never share one.
        static STORES: AtomicUsize = AtomicUsize::new(0);
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let dir = TempDir::new(&format!("bench-{tag}-{n}"));
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

    /// The decode work counted by the query `SELECT label FROM v` over
    /// `frames`.
    pub fn select(&self, label: &str, frames: Range<u32>) -> Work {
        let predicate = LabelPredicate::label(label);
        let r = self
            .tasm
            .scan(&self.name, &predicate, frames)
            .expect("scan");
        Work::from(&r.stats)
    }

    /// §4.1's price of the microbenchmark query `SELECT label FROM v` over
    /// the whole video, under the store's own cost model.
    pub fn select_cost(&self, label: &str) -> f64 {
        let work = self.select(label, 0..self.video.len());
        self.tasm.config().cost.cost(work)
    }
}

/// Runs `queries` on a fresh untiled copy of `video()` under each of
/// `strategies`, and returns each one's cumulative priced cost at 11
/// checkpoints (0 %, 10 %, …, 100 % of the queries), in units of the first
/// strategy's mean query (not tiling, in both figures that use it).
/// Up-front tiling — and, `with_detection`, simulated detection, up front
/// and lazy — is charged where it occurs, the up-front part with the first
/// query.
pub fn cumulative_costs(
    video: impl Fn() -> SyntheticVideo,
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
    let mut unit = None;
    let mut curves = Vec::new();
    for (name, strategy) in strategies {
        let storage = StorageConfig::default();
        let mut bv = BenchVideo::ingest(video(), &format!("{tag}-{name}"), storage, |_, _| None);
        let report = run_workload(
            &mut bv.tasm,
            &bv.name,
            &queries,
            *strategy,
            &mut SimulatedYolo::full(1),
            &|f| bv.video.ground_truth(f),
            Some(&bv.video),
        )
        .expect("workload");
        let cfg = bv.tasm.config();
        let unit = *unit.get_or_insert_with(|| {
            let total: f64 = report.records.iter().map(|r| r.cost(cfg)).sum();
            (total / report.records.len().max(1) as f64).max(f64::MIN_POSITIVE)
        });
        let up_front =
            retile_cost(cfg, &report.initial_tile) + detect(report.initial_detect_seconds);
        let mut cum = up_front / unit;
        let curve: Vec<f64> = (report.records.iter())
            .map(|r| {
                cum += (r.cost(cfg) + detect(r.detect_seconds)) / unit;
                cum
            })
            .collect();
        curves.push(
            (0..=10)
                .map(|d| curve[d * (curve.len() - 1) / 10])
                .collect(),
        );
    }
    curves
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
        let cost = bv.tasm.config().cost;
        assert_eq!(
            bv.select_cost("car"),
            cost.cost(untiled),
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
