//! In-loop deblocking filter.
//!
//! Block-transform codecs exhibit discontinuities at transform-block edges;
//! an in-loop filter smooths them and is applied identically by encoder and
//! decoder (the filtered frame is the reference for subsequent prediction).
//!
//! Crucially for TASM, the filter operates on each tile's reconstruction in
//! isolation: it can never reach across a tile boundary, because tiles decode
//! independently. Interior block edges get filtered, *tile* edges do not —
//! which is exactly the boundary-artifact mechanism the paper cites (\[44\],
//! §2) as the quality cost of tiling, and what Figure 6(b) measures.

use tasm_video::{Frame, Plane};

/// Transform-block edge length: the filter runs on every 8th row and column.
const EDGE: usize = 8;

/// Applies the weak deblocking filter in place to one reconstructed tile.
///
/// `qstep` controls the filter strength thresholds: stronger quantization
/// produces larger discontinuities that still count as blocking artifacts
/// rather than real edges.
///
/// The filter's definition is, per plane, every vertical edge and then
/// every horizontal edge. A vertical edge touches only its own row and a
/// horizontal edge reads only the two rows either side of it, so the same
/// result comes from one walk down the plane in eight-row bands: filter the
/// band's rows across their vertical edges, then the horizontal edge at the
/// band's top — whose four rows are by then done — while the band is still
/// in cache.
pub fn deblock_frame(frame: &mut Frame, qstep: i32) {
    let t = Thresholds::new(qstep);
    for plane in Plane::ALL {
        let w = frame.plane_width(plane) as usize;
        let data = frame.plane_mut(plane);
        let mut top = 0;
        while top < data.len() {
            let band_end = (top + EDGE * w).min(data.len());
            filter_vertical_edges(&mut data[top..band_end], w, &t);
            // (The two rows below an interior edge exist in any even-height
            // plane; heights here are multiples of 8.)
            if top > 0 && band_end >= top + 2 * w {
                let (above, below) = data[top - 2 * w..top + 2 * w].split_at_mut(2 * w);
                let (p1, p0) = above.split_at_mut(w);
                let (q0, q1) = below.split_at_mut(w);
                filter_edge(p1, p0, q0, q1, &t);
            }
            top = band_end;
        }
    }
}

/// Filter thresholds, narrowed to `i16` so eight samples fit one 128-bit
/// vector lane set. Sample differences never exceed 255 in magnitude and a
/// correction never exceeds 160, so capping each threshold at 256 leaves
/// every comparison and clamp as it would be with the uncapped value.
struct Thresholds {
    /// Edges with a step of `beta` or more are real image content.
    beta: i16,
    /// Each side of the edge must be smoother than this.
    half_beta: i16,
    /// Corrections are clamped to ±`tc`.
    tc: i16,
}

impl Thresholds {
    fn new(qstep: i32) -> Self {
        let beta = 2 * qstep + 8;
        let cap = |v: i32| v.clamp(0, 256) as i16;
        Thresholds {
            beta: cap(beta),
            half_beta: cap(beta / 2),
            tc: cap(qstep / 2 + 1),
        }
    }
}

/// Filters the vertical block edges (samples left/right of columns 8, 16,
/// …) of a band of up to eight rows, `w` samples each. Plane widths are
/// multiples of 8, so `x + 1 < w` always holds at an edge.
///
/// Rows do not interact, so an edge is filtered for all the band's rows at
/// once: the four samples around it are gathered from each row into
/// eight-lane arrays, filtered in one straight-line pass that vectorises,
/// and the two corrected samples scattered back.
#[inline]
fn filter_vertical_edges(band: &mut [u8], w: usize, t: &Thresholds) {
    let mut x = EDGE;
    while x + 2 <= w {
        let mut lanes = [[0u8; EDGE]; 4];
        for (i, row) in band.chunks_exact(w).enumerate() {
            for (lane, &sample) in lanes.iter_mut().zip(&row[x - 2..x + 2]) {
                lane[i] = sample;
            }
        }
        let [p1, mut p0, mut q0, q1] = lanes;
        filter_edge(&p1, &mut p0, &mut q0, &q1, t);
        for (i, row) in band.chunks_exact_mut(w).enumerate() {
            row[x - 1] = p0[i];
            row[x] = q0[i];
        }
        x += EDGE;
    }
}

/// Filters one edge, sample by sample: `p1`, `p0` are the two lines of
/// samples before it, `q0`, `q1` the two after (rows, for a horizontal
/// edge). Straight-line per sample, so it vectorises.
#[inline]
fn filter_edge(p1: &[u8], p0: &mut [u8], q0: &mut [u8], q1: &[u8], t: &Thresholds) {
    for (((&p1, p0), q0), &q1) in p1.iter().zip(p0).zip(q0).zip(q1) {
        (*p0, *q0) = weak_filter(p1, *p0, *q0, q1, t);
    }
}

/// H.264-style weak filter on the two samples adjacent to an edge, in
/// select form: returns the corrected pair, which is the input pair when the
/// edge should not be touched.
#[inline(always)]
fn weak_filter(p1: u8, p0: u8, q0: u8, q1: u8, t: &Thresholds) -> (u8, u8) {
    let (p1, p0, q0, q1) = (p1 as i16, p0 as i16, q0 as i16, q1 as i16);
    let step = (p0 - q0).abs();
    // A step of `beta` or more is real image content; and the inside of each
    // block must be smooth, so true texture edges are not blurred.
    let on = (step != 0)
        & (step < t.beta)
        & ((p1 - p0).abs() < t.half_beta)
        & ((q1 - q0).abs() < t.half_beta);
    let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-t.tc, t.tc);
    let delta = if on { delta } else { 0 };
    (
        (p0 + delta).clamp(0, 255) as u8,
        (q0 - delta).clamp(0, 255) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_video::Rect;

    fn thresholds(beta: i16, tc: i16) -> Thresholds {
        Thresholds {
            beta,
            half_beta: beta / 2,
            tc,
        }
    }

    #[test]
    fn weak_filter_smooths_small_step() {
        // Flat 100 | 104 edge: blocking artifact, should be pulled together.
        let (p0, q0) = weak_filter(100, 100, 104, 104, &thresholds(40, 9));
        assert!(
            p0 > 100 && q0 < 104,
            "filter should reduce the step: {p0} {q0}"
        );
    }

    #[test]
    fn weak_filter_preserves_strong_edges() {
        // A 100-step edge is real content.
        let t = thresholds(40, 9);
        assert_eq!(weak_filter(100, 100, 200, 200, &t), (100, 200));
        // Identical samples need no filtering.
        assert_eq!(weak_filter(50, 50, 50, 50, &t), (50, 50));
    }

    #[test]
    fn weak_filter_respects_texture() {
        // Noisy insides (p1 far from p0) indicate texture, not blocking.
        assert_eq!(
            weak_filter(10, 100, 104, 104, &thresholds(40, 9)),
            (100, 104)
        );
    }

    #[test]
    fn deblock_reduces_block_edge_step() {
        let mut f = Frame::filled(32, 32, 100, 128, 128);
        // Create an artificial blocking step at x=8 in luma.
        f.fill_rect(Rect::new(8, 0, 24, 32), 106, 128, 128);
        let before = (f.sample(Plane::Y, 7, 4) as i32 - f.sample(Plane::Y, 8, 4) as i32).abs();
        deblock_frame(&mut f, 16);
        let after = (f.sample(Plane::Y, 7, 4) as i32 - f.sample(Plane::Y, 8, 4) as i32).abs();
        assert!(after < before, "step should shrink: {before} -> {after}");
    }

    #[test]
    fn deblock_leaves_flat_frame_unchanged() {
        let mut f = Frame::filled(32, 32, 90, 128, 128);
        let orig = f.clone();
        deblock_frame(&mut f, 16);
        assert_eq!(f, orig);
    }

    #[test]
    fn deblock_is_deterministic() {
        let mut a = Frame::filled(32, 32, 100, 128, 128);
        a.fill_rect(Rect::new(8, 8, 8, 8), 110, 120, 136);
        let mut b = a.clone();
        deblock_frame(&mut a, 16);
        deblock_frame(&mut b, 16);
        assert_eq!(a, b);
    }
}
