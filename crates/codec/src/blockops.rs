//! Pixel-block helpers shared by the encoder and decoder.
//!
//! All functions operate on a single plane stored row-major with an explicit
//! stride, using 8×8 blocks (the transform size). Coordinates are in the
//! plane's own sample grid (chroma coordinates for chroma planes).

use crate::dct::{Inverse, BLOCK, BLOCK_AREA};

/// Zigzag scan order for an 8×8 coefficient block (JPEG/MPEG order):
/// low frequencies first so runs of trailing zeros compress well.
pub const ZIGZAG: [usize; BLOCK_AREA] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Loads an 8×8 block of samples as `i32`.
#[inline]
pub fn load_block(plane: &[u8], stride: usize, x: usize, y: usize) -> [i32; BLOCK_AREA] {
    let mut out = [0i32; BLOCK_AREA];
    for row in 0..BLOCK {
        let base = (y + row) * stride + x;
        for col in 0..BLOCK {
            out[row * BLOCK + col] = plane[base + col] as i32;
        }
    }
    out
}

/// Reconstructs an 8×8 block under a flat (DC) prediction: finishes
/// `residual`'s inverse transform and writes `pred` plus each residual row,
/// clamped to the 8-bit sample range, straight into the plane rows. Encoder
/// and decoder share it, so their reconstructions agree by construction.
#[inline]
pub fn reconstruct_flat(
    plane: &mut [u8],
    stride: usize,
    x: usize,
    y: usize,
    pred: i32,
    residual: &mut Inverse,
) {
    residual.finish_rows(|row, res| {
        add_flat_row(&mut plane[(y + row) * stride + x..][..BLOCK], pred, res);
    });
}

/// Reconstructs an 8×8 block under motion-compensated prediction: the block
/// at `(sx, sy)` of `src` plus `residual`'s rows, clamped, written at
/// `(x, y)`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_inter(
    plane: &mut [u8],
    stride: usize,
    x: usize,
    y: usize,
    src: &[u8],
    sx: usize,
    sy: usize,
    residual: &mut Inverse,
) {
    residual.finish_rows(|row, res| {
        let dst = &mut plane[(y + row) * stride + x..][..BLOCK];
        add_row(dst, &src[(sy + row) * stride + sx..][..BLOCK], res);
    });
}

/// `dst = clamp(pred + res)`. The sum wraps rather than overflows: only a
/// corrupt stream can push a residual that far, and it is clamped
/// regardless.
#[inline]
fn add_flat_row(dst: &mut [u8], pred: i32, res: [i32; BLOCK]) {
    for (d, r) in dst.iter_mut().zip(res) {
        *d = pred.wrapping_add(r).clamp(0, 255) as u8;
    }
}

/// `dst = clamp(pred + res)` sample by sample, wrapping as
/// [`add_flat_row`] does.
#[inline]
fn add_row(dst: &mut [u8], pred: &[u8], res: [i32; BLOCK]) {
    for ((d, &p), r) in dst.iter_mut().zip(pred).zip(res) {
        *d = (p as i32).wrapping_add(r).clamp(0, 255) as u8;
    }
}

/// Fills an 8×8 block with one sample value (a flat prediction with no
/// coded residual).
#[inline]
pub fn fill_block(plane: &mut [u8], stride: usize, x: usize, y: usize, value: u8) {
    for row in 0..BLOCK {
        plane[(y + row) * stride + x..][..BLOCK].fill(value);
    }
}

/// Copies an 8×8 block between planes (used for SKIP blocks and motion
/// compensation with integer vectors).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn copy_block(
    dst: &mut [u8],
    dst_stride: usize,
    dx: usize,
    dy: usize,
    src: &[u8],
    src_stride: usize,
    sx: usize,
    sy: usize,
) {
    for row in 0..BLOCK {
        let d = (dy + row) * dst_stride + dx;
        let s = (sy + row) * src_stride + sx;
        dst[d..d + BLOCK].copy_from_slice(&src[s..s + BLOCK]);
    }
}

/// Sum of absolute differences between a block in `a` and a block in `b`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn sad(
    a: &[u8],
    a_stride: usize,
    ax: usize,
    ay: usize,
    b: &[u8],
    b_stride: usize,
    bx: usize,
    by: usize,
) -> u32 {
    let mut total = 0u32;
    for row in 0..BLOCK {
        let pa = &a[(ay + row) * a_stride + ax..][..BLOCK];
        let pb = &b[(by + row) * b_stride + bx..][..BLOCK];
        for (&x, &y) in pa.iter().zip(pb) {
            total += (x as i32 - y as i32).unsigned_abs();
        }
    }
    total
}

/// DC intra prediction: the mean of the reconstructed samples directly above
/// and to the left of the block *within the same tile*, or 128 when the block
/// touches the tile's top-left corner. Mirrors HEVC DC mode restricted to the
/// tile (prediction never crosses tile boundaries — that is what makes tiles
/// independently decodable).
#[inline]
pub fn dc_predict(recon: &[u8], stride: usize, x: usize, y: usize) -> i32 {
    let mut sum = 0u32;
    let mut count = 0u32;
    if y > 0 {
        let base = (y - 1) * stride + x;
        for col in 0..BLOCK {
            sum += recon[base + col] as u32;
        }
        count += BLOCK as u32;
    }
    if x > 0 {
        for row in 0..BLOCK {
            sum += recon[(y + row) * stride + x - 1] as u32;
        }
        count += BLOCK as u32;
    }
    (sum + count / 2)
        .checked_div(count)
        .map_or(128, |v| v as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; BLOCK_AREA];
        for &z in &ZIGZAG {
            assert!(!seen[z], "duplicate index {z}");
            seen[z] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // First few entries follow the classic pattern.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[63], 63);
    }

    /// An accumulator fed `coefs`' nonzero coefficients in scan order.
    fn accumulated(coefs: &[i32; BLOCK_AREA]) -> Inverse {
        let mut inverse = Inverse::default();
        for &at in &ZIGZAG {
            if coefs[at] != 0 {
                inverse.add(at, coefs[at]);
            }
        }
        inverse
    }

    #[test]
    fn load_reconstruct_roundtrip() {
        let mut plane = vec![0u8; 16 * 16];
        for (i, p) in plane.iter_mut().enumerate() {
            *p = (i % 251) as u8;
        }
        // The block less 100, transformed: reconstructed over a flat
        // prediction of 100 it comes back within the transform's ±1.
        let block = load_block(&plane, 16, 8, 8).map(|v| v - 100);
        let coefs = crate::dct::forward(&block);
        let residual = crate::dct::inverse(&coefs);
        let mut out = vec![7u8; 16 * 16];
        reconstruct_flat(&mut out, 16, 8, 8, 100, &mut accumulated(&coefs));
        for (i, p) in out.iter().enumerate() {
            let (row, col) = (i / 16, i % 16);
            if row < 8 || col < 8 {
                assert_eq!(*p, 7, "outside the block");
                continue;
            }
            let at = (row - 8) * BLOCK + col - 8;
            assert_eq!(*p as i32, (100 + residual[at]).clamp(0, 255));
            assert!((*p as i32 - plane[i] as i32).abs() <= 1);
        }
        // The same residual over a motion-compensated prediction of 100s,
        // read from elsewhere in another plane.
        let mut src = vec![0u8; 16 * 16];
        for row in 5..13 {
            src[row * 16 + 3..][..BLOCK].fill(100);
        }
        let mut inter = vec![7u8; 16 * 16];
        reconstruct_inter(&mut inter, 16, 8, 8, &src, 3, 5, &mut accumulated(&coefs));
        assert_eq!(inter, out);
    }

    #[test]
    fn reconstruct_clamps_to_u8() {
        let mut row = [0u8; BLOCK];
        let mut vals = [0i32; BLOCK];
        vals[0] = -150;
        vals[1] = 200;
        vals[2] = 28;
        vals[3] = i32::MAX; // wraps negative, then clamps: no overflow panic
        add_flat_row(&mut row, 100, vals);
        assert_eq!(&row[..5], &[0, 255, 128, 0, 100]);
        row = [0; BLOCK];
        add_row(&mut row, &[100; BLOCK], vals);
        assert_eq!(&row[..5], &[0, 255, 128, 0, 100]);
        // A DC-only block far past the sample range either way, whole.
        let mut plane = vec![0u8; 64];
        let mut dc = [0i32; BLOCK_AREA];
        for (v, want) in [(4000, 255), (-4000, 0)] {
            dc[0] = v;
            reconstruct_flat(&mut plane, 8, 0, 0, 100, &mut accumulated(&dc));
            assert_eq!(plane, vec![want; 64]);
            reconstruct_inter(&mut plane, 8, 0, 0, &[100; 64], 0, 0, &mut accumulated(&dc));
            assert_eq!(plane, vec![want; 64]);
        }
    }

    #[test]
    fn fill_block_touches_only_its_block() {
        let mut plane = vec![7u8; 16 * 16];
        fill_block(&mut plane, 16, 8, 0, 200);
        assert_eq!(plane.iter().filter(|&&v| v == 200).count(), 64);
        assert_eq!(plane[8], 200);
        assert_eq!(plane[7], 7);
        assert_eq!(plane[8 * 16 + 8], 7);
    }

    #[test]
    fn sad_zero_for_identical() {
        let plane = vec![99u8; 64];
        assert_eq!(sad(&plane, 8, 0, 0, &plane, 8, 0, 0), 0);
    }

    #[test]
    fn sad_counts_differences() {
        let a = vec![10u8; 64];
        let b = vec![13u8; 64];
        assert_eq!(sad(&a, 8, 0, 0, &b, 8, 0, 0), 3 * 64);
    }

    #[test]
    fn copy_block_moves_pixels() {
        let mut src = vec![0u8; 16 * 16];
        src[3 * 16 + 4] = 200; // inside block at (0,0)? No: (4,3)
        let mut dst = vec![0u8; 16 * 16];
        copy_block(&mut dst, 16, 8, 8, &src, 16, 0, 0);
        assert_eq!(dst[(8 + 3) * 16 + 8 + 4], 200);
    }

    #[test]
    fn dc_predict_corner_is_mid_gray() {
        let recon = vec![77u8; 64];
        assert_eq!(dc_predict(&recon, 8, 0, 0), 128);
    }

    #[test]
    fn dc_predict_uses_top_and_left() {
        // 16x16 plane: row 7 (above block at (8,8)) = 100, col 7 = 50.
        let mut recon = vec![0u8; 16 * 16];
        for col in 8..16 {
            recon[7 * 16 + col] = 100;
        }
        for row in 8..16 {
            recon[row * 16 + 7] = 50;
        }
        assert_eq!(dc_predict(&recon, 16, 8, 8), 75);
    }

    #[test]
    fn dc_predict_top_only() {
        // Block at (0, 8): no left neighbours, top row 7 = 200.
        let mut recon = vec![0u8; 16 * 16];
        for col in 0..8 {
            recon[7 * 16 + col] = 200;
        }
        assert_eq!(dc_predict(&recon, 16, 0, 8), 200);
    }

    #[test]
    fn dc_predict_left_only() {
        // Block at (8, 0): no top neighbours, left column 7 = 60.
        let mut recon = vec![0u8; 16 * 16];
        for row in 0..8 {
            recon[row * 16 + 7] = 60;
        }
        assert_eq!(dc_predict(&recon, 16, 8, 0), 60);
    }
}
