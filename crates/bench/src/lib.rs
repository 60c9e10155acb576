//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure and names it in
//! its doc comment; this library holds what they share: ingesting corpus
//! videos into throwaway stores, timing object queries, condensing workload
//! curves, summarizing with the paper's median/IQR statistics, and printing
//! markdown tables.
//!
//! Scale: experiment sizes are controlled by `TASM_BENCH_SCALE` (default
//! 1.0). The defaults are chosen so every figure regenerates in minutes on a
//! laptop CPU; the *shapes* (orderings, crossovers, rough factors) are the
//! reproduction target, not absolute GPU-decode milliseconds.

use std::ops::Range;
use std::path::PathBuf;
use tasm_codec::TileLayout;
use tasm_core::{
    Granularity, LabelPredicate, PartitionConfig, StorageConfig, Tasm, TasmConfig, WorkSample,
};
use tasm_data::{Dataset, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_suite::TempDir;
use tasm_video::FrameSource;

pub mod stats;

pub use stats::{mean, median, quartiles, Summary};

/// Experiment scale factor from `TASM_BENCH_SCALE` (e.g. `0.5` to halve
/// video durations for a quick pass).
pub fn scale() -> f64 {
    std::env::var("TASM_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or(1.0)
}

/// Scaled duration in seconds (at least 1).
pub fn scaled_secs(base: u32) -> u32 {
    ((base as f64 * scale()).round() as u32).max(1)
}

/// Scaled count (at least 1).
pub fn scaled_count(base: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(1)
}

/// Directory where experiment outputs (JSON) are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a serializable result to `results/<name>.json`.
pub fn write_result<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_vec_pretty(value).expect("serialize"))
        .expect("write result");
    eprintln!("[results written to {}]", path.display());
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
/// Decode execution is pinned to *serial and uncached*: the figure
/// reproductions (and the cost-model fit) measure per-query decode work as
/// the paper's system — which has neither a decoded-GOP cache nor
/// tile-parallel decode — would incur it, and `ScanResult::seconds()` is
/// wall-clock, so extra workers would fold multicore speedup into the
/// measurements. Everything else is `TasmConfig::default()`: the paper's
/// 1-second GOPs and SOTs at 30 fps, QP 28, η = 1, α = 0.8.
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
            workers: 1,
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
        mut layout_for: impl FnMut(
            &SyntheticVideo,
            std::ops::Range<u32>,
        ) -> Option<tasm_codec::TileLayout>,
    ) {
        let sots: Vec<(usize, std::ops::Range<u32>)> = self
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

    /// Times the microbenchmark query `SELECT label FROM v` (full range)
    /// three times and returns the fastest run: the minimum is the standard
    /// estimator for deterministic work under scheduler noise.
    pub fn time_select(&self, label: &str) -> WorkSample {
        (0..3)
            .map(|_| {
                let r = self
                    .tasm
                    .scan(
                        &self.name,
                        &LabelPredicate::label(label),
                        0..self.video.len(),
                    )
                    .expect("scan");
                WorkSample {
                    pixels: r.stats.samples_decoded,
                    tile_chunks: r.stats.tile_chunks_decoded,
                    seconds: r.seconds(),
                }
            })
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .expect("three runs")
    }

    /// Ground-truth boxes of `labels` over a frame range (layout design
    /// input for the microbenchmarks, which assume a populated index).
    pub fn boxes_for(
        &self,
        labels: &[&str],
        frames: std::ops::Range<u32>,
    ) -> Vec<tasm_video::Rect> {
        let mut out = Vec::new();
        for f in frames {
            for (l, b) in self.video.ground_truth(f) {
                if labels.contains(&l) {
                    out.push(b);
                }
            }
        }
        out
    }
}

/// Percentage improvement of `tiled` over `untiled` (positive = faster).
pub fn improvement_pct(untiled: f64, tiled: f64) -> f64 {
    100.0 * (1.0 - tiled / untiled)
}

/// A cumulative-cost curve at 11 checkpoints: 0 %, 10 %, …, 100 % of the
/// query sequence.
pub fn deciles(curve: &[f64]) -> Vec<f64> {
    (0..=10)
        .map(|d| curve[d * (curve.len() - 1) / 10])
        .collect()
}

/// The checkpoint-wise median of several [`deciles`] curves (the upper
/// middle value of an even count).
pub fn median_deciles(curves: &[Vec<f64>]) -> Vec<f64> {
    (0..=10)
        .map(|d| {
            let mut vals: Vec<f64> = curves.iter().map(|c| c[d]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            vals[vals.len() / 2]
        })
        .collect()
}

/// Prints a markdown table's header row and separator. `columns` is the
/// header cells joined by ` | `; the rows follow as `| a | b |` lines,
/// printed as each is measured.
pub fn table_header(columns: &str) {
    println!("| {columns} |");
    println!("|{}", "---|".repeat(columns.split(" | ").count()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_core::partition;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(10.0, 5.0), 50.0);
        assert_eq!(improvement_pct(10.0, 10.0), 0.0);
        assert!(improvement_pct(10.0, 12.0) < 0.0);
    }

    #[test]
    fn bench_video_prepare_and_select() {
        let mut bv = BenchVideo::prepare(Dataset::VisualRoad2K, 1, 3, "lib-test");
        let untiled = bv.time_select("car");
        assert!(untiled.seconds > 0.0);
        assert!(untiled.pixels > 0);
        assert!(untiled.tile_chunks > 0);
        // Tiling around cars reduces decode.
        bv.apply_layout(|video, frames| {
            let boxes: Vec<_> = frames
                .clone()
                .flat_map(|f| video.ground_truth_for(f, "car"))
                .collect();
            let l = partition(
                video.width(),
                video.height(),
                &boxes,
                &micro_partition(Granularity::Fine),
            );
            (!l.is_untiled()).then_some(l)
        });
        assert!(bv.time_select("car").pixels < untiled.pixels);
        // The store goes with its owner.
        let dir = bv._dir.path().to_path_buf();
        assert!(dir.exists());
        drop(bv);
        assert!(!dir.exists(), "{} left behind", dir.display());
    }
}
