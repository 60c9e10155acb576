//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure (see DESIGN.md's
//! per-experiment index); this library holds the common machinery: building
//! corpus videos, ingesting them under a fixed layout, timing object
//! queries, and summarizing with the paper's median/IQR statistics.
//!
//! Scale: experiment sizes are controlled by `TASM_BENCH_SCALE` (default
//! 1.0). The defaults are chosen so every figure regenerates in minutes on a
//! laptop CPU; the *shapes* (orderings, crossovers, rough factors) are the
//! reproduction target, not absolute GPU-decode milliseconds.

use std::path::PathBuf;
use tasm_core::{Granularity, LabelPredicate, PartitionConfig, StorageConfig, Tasm, TasmConfig};
use tasm_data::{Dataset, SyntheticVideo};
use tasm_index::MemoryIndex;
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

/// A fresh store directory under the system temp dir.
pub fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tasm-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
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

/// The storage configuration used by the microbenchmarks: 1-second GOPs and
/// SOTs at 30 fps, QP 28 (the paper's defaults).
pub fn micro_storage() -> StorageConfig {
    StorageConfig {
        qp: 28,
        gop_len: 30,
        sot_frames: 30,
        search_range: 7,
        deblock: true,
        rate: tasm_codec::RateControl::ConstantQp,
        parallel_encode: true,
    }
}

/// Partition parameters scaled to the simulated resolutions.
pub fn micro_partition(granularity: Granularity) -> PartitionConfig {
    PartitionConfig {
        min_tile_width: 64,
        min_tile_height: 32,
        granularity,
    }
}

/// Standard TASM configuration for experiments.
///
/// Decode execution is pinned to *serial and uncached* here: the figure
/// reproductions (and the cost-model fit) measure per-query decode work as
/// the paper's system — which has neither a decoded-GOP cache nor
/// tile-parallel decode — would incur it, and `ScanResult::seconds()` is
/// wall-clock, so extra workers would fold multicore speedup into the
/// measurements. The pipeline benchmarks opt back in through
/// [`BenchVideo::from_video_exec`].
pub fn micro_config() -> TasmConfig {
    TasmConfig {
        storage: micro_storage(),
        partition: micro_partition(Granularity::Fine),
        workers: 1,
        cache_bytes: 0,
        ..Default::default()
    }
}

/// A video under measurement: the synthetic scene plus its ingested,
/// ground-truth-indexed TASM instance.
pub struct BenchVideo {
    /// The scene (ground-truth oracle and frame source).
    pub video: SyntheticVideo,
    /// The storage manager holding the ingested copy.
    pub tasm: Tasm,
    /// Video name inside the store.
    pub name: String,
}

impl BenchVideo {
    /// Builds, ingests (untiled), and indexes a dataset preset.
    pub fn prepare(dataset: Dataset, duration_s: u32, seed: u64, tag: &str) -> Self {
        let video = dataset.build(duration_s, seed);
        Self::from_video(video, tag)
    }

    /// Ingests an existing scene untiled and indexes its ground truth.
    pub fn from_video(video: SyntheticVideo, tag: &str) -> Self {
        let cfg = micro_config();
        Self::from_video_exec(video, tag, cfg.workers, cfg.cache_bytes)
    }

    /// [`BenchVideo::from_video`] with explicit execution-pipeline settings
    /// (decode worker count and decoded-GOP cache budget).
    pub fn from_video_exec(
        video: SyntheticVideo,
        tag: &str,
        workers: usize,
        cache_bytes: u64,
    ) -> Self {
        let tasm = Tasm::open(
            bench_dir(tag),
            Box::new(MemoryIndex::in_memory()),
            TasmConfig {
                workers,
                cache_bytes,
                ..micro_config()
            },
        )
        .expect("open tasm");
        let name = "v".to_string();
        tasm.ingest(&name, &video, 30).expect("ingest");
        for f in 0..video.len() {
            for (label, bbox) in video.ground_truth(f) {
                tasm.add_metadata(&name, label, f, bbox).expect("metadata");
            }
            tasm.mark_processed(&name, f).expect("mark");
        }
        BenchVideo { video, tasm, name }
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

    /// Times the microbenchmark query `SELECT label FROM v` (full range),
    /// returning (seconds, samples, tile_chunks).
    pub fn time_select(&mut self, label: &str) -> (f64, u64, u64) {
        let frames = 0..self.video.len();
        let r = self
            .tasm
            .scan(&self.name, &LabelPredicate::label(label), frames)
            .expect("scan");
        (
            r.seconds(),
            r.stats.samples_decoded,
            r.stats.tile_chunks_decoded,
        )
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
        let (secs, samples, chunks) = bv.time_select("car");
        assert!(secs > 0.0);
        assert!(samples > 0);
        assert!(chunks > 0);
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
        let (_, samples_tiled, _) = bv.time_select("car");
        assert!(samples_tiled < samples);
    }
}
