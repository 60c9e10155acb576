//! TASM's cost model and its calibration (§4.1).
//!
//! The estimated cost of executing query `q` over a sequence of tiles `s`
//! encoded with layout `L` is `C(s, q, L) = β·P + γ·T`, where `P` is the
//! number of pixels (samples) decoded and `T` the number of tile chunks
//! decoded. The paper validates this form by fitting a linear model over
//! 1,400 (video, object, layout) decode measurements, reaching R² = 0.996;
//! [`fit_linear`] reproduces that fit from this codec's measurements (see
//! the `fit_cost_model` harness binary), and the defaults below come from
//! running it on the reference machine.
//!
//! [`estimate_work`] counts `P` and `T` as the read plan of the query's boxes
//! under `L` (`plan::ReadPlan`) decodes them: what [`crate::Tasm::query`]
//! decodes without a cache, whose [`DecodeStats`] convert to a [`Work`].
//!
//! Re-encoding cost `R(s, L)` is likewise "estimated using a linear model
//! based on the number of pixels being encoded" (§5.3).

use crate::plan::ReadPlan;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tasm_codec::{DecodeStats, TileLayout};
use tasm_index::Detection;
use tasm_video::Rect;

/// Decode work, predicted for a query under some layout or counted by the
/// decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Samples decoded (luma + chroma), the paper's `P`.
    pub pixels: u64,
    /// Tile chunks decoded (tiles × frames), the paper's `T`.
    pub tile_chunks: u64,
}

impl From<&DecodeStats> for Work {
    fn from(stats: &DecodeStats) -> Self {
        Work {
            pixels: stats.samples_decoded,
            tile_chunks: stats.tile_chunks_decoded,
        }
    }
}

/// The fitted query cost model `C = β·P + γ·T`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds per decoded sample.
    pub beta: f64,
    /// Seconds per decoded tile chunk.
    pub gamma: f64,
}

impl CostModel {
    /// The prices every plan, layout and re-tile decision uses.
    // Calibrated on the reference machine with `fit_cost_model`
    // (single-threaded software decode): ~3.3 ns/sample plus ~7 µs of
    // per-tile-chunk overhead. `fit_cost_model` (its `fit_linear`)
    // measures new hardware, as §4.1 prescribes, but nothing feeds a
    // fit back: changing these is a code change. β is by now
    // ≈ 3x the decode rate the perf ledger measures
    // (`codec.decode_us_per_mpixel` ≈ 1000, i.e. 1.0 ns/sample, was
    // ≈ 1280 before the decoder's table step) and is still not
    // re-fitted: layouts and re-tile decisions come from these
    // constants, never from a timing, so they must be changed on their
    // own, with every exact count re-checked.
    pub const CALIBRATED: CostModel = CostModel {
        beta: 3.3e-9,
        gamma: 7.4e-6,
    };

    /// Estimated seconds to perform `work`.
    pub fn cost(&self, work: Work) -> f64 {
        self.beta * work.pixels as f64 + self.gamma * work.tile_chunks as f64
    }
}

/// The linear re-encode cost model `R(s, L)` (§5.3): seconds per encoded
/// sample, fit from encode timings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncodeModel {
    /// Seconds per encoded source sample.
    pub seconds_per_sample: f64,
}

impl EncodeModel {
    /// The re-encode price every re-tile decision uses.
    // Calibrated alongside the decode model; software encode with motion
    // search is roughly 2-3× decode. Still not fitted: this predicts
    // 83 ms for a 640×352×30 SOT (10.1 M samples) and a re-tile of one
    // into DCT tiles, the only codec the write path has, measures
    // ≈ 28 ms (2.8 ns/sample; its encode alone ≈ 11.5 ms, 1.1
    // ns/sample). An encode rate alone can now stand for `R(s, L)`:
    // file I/O was ≈ 22 % of a measured re-tile, and grew with the tile
    // count, while each tile was a file of its own; with one pack per
    // SOT it is ≈ 7 % and flat. Left as it is so the regret policy
    // keeps making the re-tiles it made (`storage.retile_count` is
    // pinned by the ledger).
    pub const CALIBRATED: EncodeModel = EncodeModel {
        seconds_per_sample: 8.2e-9,
    };

    /// Estimated seconds to re-encode `frames` frames of a `w`×`h` region.
    pub fn reencode_cost(&self, w: u32, h: u32, frames: u32) -> f64 {
        let samples = w as u64 * h as u64 * 3 / 2;
        self.seconds_per_sample * (samples * frames as u64) as f64
    }
}

/// One calibration measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkSample {
    /// Samples decoded.
    pub pixels: u64,
    /// Tile chunks decoded.
    pub tile_chunks: u64,
    /// Measured wall-clock seconds.
    pub seconds: f64,
}

/// Result of the two-variable least-squares fit (no intercept: zero work
/// takes zero time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// Seconds per sample.
    pub beta: f64,
    /// Seconds per tile chunk.
    pub gamma: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Ordinary least squares for `seconds ≈ β·pixels + γ·chunks`.
///
/// # Panics
/// Panics with fewer than three samples (under-determined).
pub fn fit_linear(samples: &[WorkSample]) -> FitResult {
    assert!(samples.len() >= 3, "need at least 3 samples to fit");
    // Normal equations for X = [p, t]: (XᵀX) w = Xᵀy.
    let (mut spp, mut spt, mut stt, mut spy, mut sty) = (0f64, 0f64, 0f64, 0f64, 0f64);
    for s in samples {
        let p = s.pixels as f64;
        let t = s.tile_chunks as f64;
        spp += p * p;
        spt += p * t;
        stt += t * t;
        spy += p * s.seconds;
        sty += t * s.seconds;
    }
    let det = spp * stt - spt * spt;
    let (beta, gamma) = if det.abs() < 1e-30 {
        // Degenerate (e.g. all chunks proportional to pixels): fall back to
        // a single-variable fit on pixels.
        (if spp > 0.0 { spy / spp } else { 0.0 }, 0.0)
    } else {
        ((spy * stt - sty * spt) / det, (sty * spp - spy * spt) / det)
    };

    let mean_y: f64 = samples.iter().map(|s| s.seconds).sum::<f64>() / samples.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for s in samples {
        let pred = beta * s.pixels as f64 + gamma * s.tile_chunks as f64;
        ss_res += (s.seconds - pred).powi(2);
        ss_tot += (s.seconds - mean_y).powi(2);
    }
    let r2 = if ss_tot <= 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    FitResult { beta, gamma, r2 }
}

/// Estimates the decode work of a query whose boxes on `query_frames` are
/// `detections`, in the SOT that starts at `sot_start`, were that SOT laid
/// out as `layout`: what the query's read plan decodes without a cache.
pub fn estimate_work(
    layout: &TileLayout,
    detections: &[Detection],
    query_frames: std::ops::Range<u32>,
    sot_start: u32,
    gop_len: u32,
) -> Work {
    let mut regions: BTreeMap<u32, Vec<Rect>> = BTreeMap::new();
    for d in detections {
        regions.entry(d.frame).or_default().push(d.bbox);
    }
    let size = (layout.frame_width(), layout.frame_height());
    ReadPlan::for_layout(sot_start, query_frames, layout, size, &regions).work(gop_len)
}

/// `P(s, q, L) / P(s, q, ω)` — the pixel ratio behind the not-tiling rule
/// (§3.4.4 / §5.2.3). Returns 1.0 when the untiled work is zero.
pub fn pixel_ratio(
    layout: &TileLayout,
    detections: &[Detection],
    query_frames: std::ops::Range<u32>,
    sot_start: u32,
    gop_len: u32,
) -> f64 {
    let omega = TileLayout::untiled(layout.frame_width(), layout.frame_height());
    let tiled = estimate_work(layout, detections, query_frames.clone(), sot_start, gop_len);
    let untiled = estimate_work(&omega, detections, query_frames, sot_start, gop_len);
    match untiled.pixels {
        0 => 1.0,
        p => tiled.pixels as f64 / p as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_video::Rect;

    fn det(frame: u32, x: u32, y: u32) -> Detection {
        Detection {
            frame,
            bbox: Rect::new(x, y, 32, 32),
        }
    }

    #[test]
    fn fit_recovers_known_coefficients() {
        let beta = 2e-8;
        let gamma = 3e-5;
        let samples: Vec<WorkSample> = (1..100u64)
            .map(|i| WorkSample {
                pixels: i * 100_000,
                tile_chunks: (i % 7) * 30,
                seconds: beta * (i * 100_000) as f64 + gamma * ((i % 7) * 30) as f64,
            })
            .collect();
        let fit = fit_linear(&samples);
        assert!((fit.beta - beta).abs() / beta < 1e-6, "beta {}", fit.beta);
        assert!(
            (fit.gamma - gamma).abs() / gamma < 1e-6,
            "gamma {}",
            fit.gamma
        );
        assert!(fit.r2 > 0.9999, "r2 {}", fit.r2);
    }

    #[test]
    fn fit_handles_degenerate_collinear_input() {
        // chunks exactly proportional to pixels: determinant ~ 0.
        let samples: Vec<WorkSample> = (1..50u64)
            .map(|i| WorkSample {
                pixels: i * 1000,
                tile_chunks: i * 10,
                seconds: 1e-8 * (i * 1000) as f64,
            })
            .collect();
        let fit = fit_linear(&samples);
        let pred = fit.beta * 10_000.0 + fit.gamma * 100.0;
        assert!((pred - 1e-4).abs() < 1e-6, "prediction {pred}");
    }

    #[test]
    fn estimate_work_empty_inputs() {
        let l = TileLayout::untiled(640, 352);
        assert_eq!(estimate_work(&l, &[], 0..30, 0, 30), Work::default());
        assert_eq!(
            estimate_work(&l, &[det(0, 0, 0)], 10..10, 0, 30),
            Work::default()
        );
    }

    #[test]
    fn untiled_work_charges_whole_frames() {
        let l = TileLayout::untiled(640, 352);
        // A box on frame 5 decodes the whole frame from keyframe 0: 6 frames.
        let w = estimate_work(&l, &[det(5, 100, 100)], 0..30, 0, 30);
        assert_eq!(w.tile_chunks, 6);
        assert_eq!(w.pixels, 6 * 640 * 352 * 3 / 2);
    }

    #[test]
    fn tiled_work_charges_only_needed_tiles() {
        let l = TileLayout::uniform(640, 352, 2, 2).unwrap();
        // One box fully inside the top-left tile.
        let w = estimate_work(&l, &[det(0, 10, 10)], 0..30, 0, 30);
        assert_eq!(w.tile_chunks, 1);
        assert_eq!(w.pixels, (320 * 176) * 3 / 2);
        // Box straddling all four tiles.
        let center = Detection {
            frame: 0,
            bbox: Rect::new(300, 160, 40, 40),
        };
        let w = estimate_work(&l, &[center], 0..30, 0, 30);
        assert_eq!(w.tile_chunks, 4);
        assert_eq!(w.pixels, (640 * 352) * 3 / 2);
    }

    /// A zero-width box at an odd x is priced at the tile the executor
    /// reads for it: the one under its 2 px aligned rectangle.
    #[test]
    fn a_zero_width_box_at_an_odd_x_is_priced_at_its_tile() {
        let l = TileLayout::uniform(640, 352, 2, 2).unwrap();
        let sliver = Detection {
            frame: 0,
            bbox: Rect::new(333, 17, 0, 20),
        };
        let w = estimate_work(&l, &[sliver], 0..30, 0, 30);
        assert_eq!(w.tile_chunks, 1);
        assert_eq!(w.pixels, (320 * 176) * 3 / 2);
    }

    #[test]
    fn warmup_frames_are_charged() {
        let l = TileLayout::untiled(640, 352);
        // SOT starts at frame 100, GOP 30. A box on frame 115 (local 15)
        // decodes from the GOP boundary at local 0: local frames 0..16.
        let w = estimate_work(&l, &[det(115, 0, 0)], 115..125, 100, 30);
        assert_eq!(w.tile_chunks, 16);
    }

    #[test]
    fn pixel_ratio_bounds() {
        let fine = TileLayout::new(vec![64, 512, 64], vec![32, 288, 32]).unwrap();
        let dets = [Detection {
            frame: 0,
            bbox: Rect::new(0, 0, 48, 24),
        }];
        let r = pixel_ratio(&fine, &dets, 0..30, 0, 30);
        assert!(r > 0.0 && r < 1.0, "ratio {r}");
        let omega = TileLayout::untiled(640, 352);
        assert_eq!(pixel_ratio(&omega, &dets, 0..30, 0, 30), 1.0);
        assert_eq!(pixel_ratio(&omega, &[], 0..30, 0, 30), 1.0);
    }

    #[test]
    fn cost_model_orders_layouts() {
        let m = CostModel::CALIBRATED;
        let small = Work {
            pixels: 1_000_000,
            tile_chunks: 30,
        };
        let large = Work {
            pixels: 10_000_000,
            tile_chunks: 30,
        };
        assert!(m.cost(small) < m.cost(large));
        // Many tiny tiles can cost more than fewer larger ones.
        let many_tiles = Work {
            pixels: 1_000_000,
            tile_chunks: 3000,
        };
        assert!(m.cost(many_tiles) > m.cost(small));
    }

    #[test]
    fn encode_model_scales_linearly() {
        let m = EncodeModel::CALIBRATED;
        let one = m.reencode_cost(640, 352, 30);
        let two = m.reencode_cost(640, 352, 60);
        assert!((two / one - 2.0).abs() < 1e-9);
    }
}
