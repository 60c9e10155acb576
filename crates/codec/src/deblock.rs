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
            // plane; the codec's plane heights are multiples of 8.)
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
/// …) of a band of up to eight rows, `w` samples each. An edge is filtered
/// where it has two samples on either side (`x + 2 <= w`).
///
/// The codec's planes are 16-aligned, so a band is eight rows of a
/// multiple-of-8 width and goes straight to [`filter_band`]. Any other
/// shape `deblock_frame` is handed runs through the same kernel on an
/// eight-row scratch band, zero-padded, and only the real samples are copied
/// back. That is exact: rows do not interact, and the edge at `x = 8n`
/// reads only columns below `8n + 2`, so cutting the scratch width to the
/// widest multiple of 8 below `w + 7` holds every edge the plane has and
/// no other.
#[inline]
fn filter_vertical_edges(band: &mut [u8], w: usize, t: &Thresholds) {
    if w.is_multiple_of(EDGE) && band.len() == EDGE * w {
        filter_band(band, w, t);
        return;
    }
    let padded = (w + EDGE - 2) / EDGE * EDGE;
    if padded <= EDGE {
        return; // no edge
    }
    let real = w.min(padded);
    let mut scratch = vec![0u8; EDGE * padded];
    for (row, copy) in band.chunks_exact(w).zip(scratch.chunks_exact_mut(padded)) {
        copy[..real].copy_from_slice(&row[..real]);
    }
    filter_band(&mut scratch, padded, t);
    for (row, copy) in band.chunks_exact_mut(w).zip(scratch.chunks_exact(padded)) {
        row[..real].copy_from_slice(&copy[..real]);
    }
}

/// The vertical-edge kernel, on a band of exactly eight rows whose width
/// `w` is a multiple of 8.
///
/// Rows do not interact, so an edge is filtered for all eight rows at
/// once. The rows are split once into slices of 8-sample chunks of one
/// known length, so the per-sample work holds no bounds check (two index
/// tests per edge remain, shared by the eight rows). At edge `k` each row's
/// `[p1 p0 q0 q1]` — the last two samples of chunk `k - 1` and the first two
/// of chunk `k` — is read as one `u32`, then the eight words are split by
/// shift and mask into four eight-lane `i16` arrays; one straight-line loop
/// filters the lanes, and each row's corrected `(p0, q0)` goes back as an
/// adjacent pair.
///
/// Code generation is sensitive to this exact form, so time a change on
/// the `deblock/*` bench rows. Reading the words and splitting them in two
/// separate loops is what lets the compiler load each row's samples as two
/// 16-bit pairs instead of four bytes: splitting each word as it is read
/// gives back over half the gain. `[u8; 8]` lanes through [`filter_edge`],
/// the filter as an `array::from_fn` closure (2–4× slower) and an 8×8 SWAR
/// byte transpose per edge (30–40 % slower) all lose.
#[inline]
fn filter_band(band: &mut [u8], w: usize, t: &Thresholds) {
    let chunks = w / EDGE;
    let (band, _) = band.as_chunks_mut::<EDGE>();
    let mut split = band.chunks_exact_mut(chunks);
    let mut rows: [&mut [[u8; EDGE]]; EDGE] =
        std::array::from_fn(|_| &mut split.next().expect("eight rows")[..chunks]);
    for k in 1..chunks {
        let mut words = [0u32; EDGE];
        for (word, row) in words.iter_mut().zip(&rows) {
            let (left, right) = (row[k - 1], row[k]);
            *word = u32::from_le_bytes([left[6], left[7], right[0], right[1]]);
        }
        let (mut p1, mut p0, mut q0, mut q1) = ([0i16; EDGE], [0; EDGE], [0; EDGE], [0; EDGE]);
        for (i, &word) in words.iter().enumerate() {
            p1[i] = (word & 0xff) as i16;
            p0[i] = (word >> 8 & 0xff) as i16;
            q0[i] = (word >> 16 & 0xff) as i16;
            q1[i] = (word >> 24) as i16;
        }
        for i in 0..EDGE {
            (p0[i], q0[i]) = weak_filter(p1[i], p0[i], q0[i], q1[i], t);
        }
        for (i, row) in rows.iter_mut().enumerate() {
            row[k - 1][EDGE - 1] = p0[i] as u8;
            row[k][0] = q0[i] as u8;
        }
    }
}

/// Filters one horizontal edge, sample by sample: `p1`, `p0` are the two
/// rows above it, `q0`, `q1` the two below. Straight-line per sample, so it
/// vectorises.
#[inline]
fn filter_edge(p1: &[u8], p0: &mut [u8], q0: &mut [u8], q1: &[u8], t: &Thresholds) {
    for (((&p1, p0), q0), &q1) in p1.iter().zip(p0).zip(q0).zip(q1) {
        let (np0, nq0) = weak_filter(p1.into(), (*p0).into(), (*q0).into(), q1.into(), t);
        (*p0, *q0) = (np0 as u8, nq0 as u8);
    }
}

/// H.264-style weak filter on the two samples adjacent to an edge, in
/// select form: returns the corrected pair, within `0..=255`, which is the
/// input pair when the edge should not be touched. The only copy of the
/// filter arithmetic; both edge directions call it.
#[inline(always)]
fn weak_filter(p1: i16, p0: i16, q0: i16, q1: i16, t: &Thresholds) -> (i16, i16) {
    let step = (p0 - q0).abs();
    // A step of `beta` or more is real image content; and the inside of each
    // block must be smooth, so true texture edges are not blurred.
    let on = (step != 0)
        & (step < t.beta)
        & ((p1 - p0).abs() < t.half_beta)
        & ((q1 - q0).abs() < t.half_beta);
    let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-t.tc, t.tc);
    let delta = if on { delta } else { 0 };
    ((p0 + delta).clamp(0, 255), (q0 - delta).clamp(0, 255))
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
