//! 8×8 separable DCT-II / DCT-III transform pair.
//!
//! The transform operates on `i32` residuals and uses a fixed-point basis
//! (scaled by 2¹³, like HEVC's integer transforms) so that encode and decode
//! are bit-exact across platforms. The forward/inverse pair is not lossless —
//! it is a transform, and quantization downstream discards precision — but
//! `forward` followed by `inverse` reconstructs residuals within ±1, which is
//! below the quantizer's dead zone for every QP we use.

use std::ops::{Add, Mul, Sub};

/// Transform block edge length in samples.
pub const BLOCK: usize = 8;

/// Number of coefficients in a block.
pub const BLOCK_AREA: usize = BLOCK * BLOCK;

/// Fixed-point scale (2^13) for the DCT basis.
const SCALE_BITS: i64 = 13;
#[cfg(test)]
const SCALE: f64 = (1i64 << SCALE_BITS) as f64;

/// Basis matrix `C[k][n] = c(k) * cos((2n+1) k π / 16)` in Q13 fixed point.
const fn basis() -> [[i32; BLOCK]; BLOCK] {
    // const fn cannot call cos(); table computed offline and verified by the
    // `basis_matches_float` test below.
    [
        [2896, 2896, 2896, 2896, 2896, 2896, 2896, 2896],
        [4017, 3406, 2276, 799, -799, -2276, -3406, -4017],
        [3784, 1567, -1567, -3784, -3784, -1567, 1567, 3784],
        [3406, -799, -4017, -2276, 2276, 4017, 799, -3406],
        [2896, -2896, -2896, 2896, 2896, -2896, -2896, 2896],
        [2276, -4017, 799, 3406, -3406, -799, 4017, -2276],
        [1567, -3784, 3784, -1567, -1567, 3784, -3784, 1567],
        [799, -2276, 3406, -4017, 4017, -3406, 2276, -799],
    ]
}

const BASIS: [[i32; BLOCK]; BLOCK] = basis();

/// One 8-point forward pass: `Σ_n x[n]·C[k][n]` for `k` in `0..8`, in the
/// integer type the caller's values need. The basis rows' symmetry about the
/// middle (see [`inverse_pass`]) folds the eight inputs into four sums and
/// four differences, and the even rows' symmetry within each half folds the
/// sums once more: 22 multiplies for the dense form's 64, the same integers
/// (nothing is rounded in between).
#[inline(always)]
fn forward_pass<T>(x: [T; BLOCK]) -> [T; BLOCK]
where
    T: Copy + From<i32> + Add<Output = T> + Sub<Output = T> + Mul<Output = T>,
{
    let c = |k: usize, n: usize| T::from(BASIS[k][n]);
    let (s0, s1, s2, s3) = (x[0] + x[7], x[1] + x[6], x[2] + x[5], x[3] + x[4]);
    let d = [x[0] - x[7], x[1] - x[6], x[2] - x[5], x[3] - x[4]];
    let (ss0, ss1, sd0, sd1) = (s0 + s3, s1 + s2, s0 - s3, s1 - s2);
    let odd = |k: usize| d[0] * c(k, 0) + d[1] * c(k, 1) + d[2] * c(k, 2) + d[3] * c(k, 3);
    [
        (ss0 + ss1) * c(0, 0),
        odd(1),
        sd0 * c(2, 0) + sd1 * c(2, 1),
        odd(3),
        (ss0 - ss1) * c(4, 0),
        odd(5),
        sd0 * c(6, 0) + sd1 * c(6, 1),
        odd(7),
    ]
}

/// Forward 8×8 DCT of a residual block (row-major), producing coefficients
/// at the same nominal scale as the input. The row pass runs in `i32`, which
/// holds it for samples up to 2¹⁶ in magnitude (a residual is a difference of
/// two 8-bit samples); the column pass needs `i64`.
pub fn forward(block: &[i32; BLOCK_AREA]) -> [i32; BLOCK_AREA] {
    debug_assert!(block.iter().all(|v| v.unsigned_abs() <= 1 << 16));
    // Transform rows: tmp = block * C^T
    let mut tmp = [0i32; BLOCK_AREA];
    for (row, out) in block.chunks_exact(BLOCK).zip(tmp.chunks_exact_mut(BLOCK)) {
        out.copy_from_slice(&forward_pass::<i32>(row.try_into().expect("eight samples")));
    }
    // Transform columns: out = C * tmp. The basis is orthonormal at scale
    // 2^13, so the 2-D product carries a 2^26 factor that we shift away.
    let mut out = [0i32; BLOCK_AREA];
    let round = 1i64 << (2 * SCALE_BITS - 1);
    for c in 0..BLOCK {
        let column = forward_pass::<i64>(std::array::from_fn(|n| tmp[n * BLOCK + c] as i64));
        for (k, v) in column.into_iter().enumerate() {
            out[k * BLOCK + c] = ((v + round) >> (2 * SCALE_BITS)) as i32;
        }
    }
    out
}

/// Inverse 8×8 DCT, reconstructing the residual block: [`inverse_sparse`]
/// for a caller that does not know where the nonzero coefficients are.
#[cfg(test)]
pub(crate) fn inverse(coef: &[i32; BLOCK_AREA]) -> [i32; BLOCK_AREA] {
    let (mut rows, mut cols) = (0u8, 0u8);
    for (i, &c) in coef.iter().enumerate() {
        if c != 0 {
            rows |= 1 << (i / BLOCK);
            cols |= 1 << (i % BLOCK);
        }
    }
    let mut out = [0i32; BLOCK_AREA];
    inverse_sparse(coef, rows, cols, &mut [0i64; BLOCK_AREA], &mut out);
    out
}

/// The basis in `f64`, which holds every entry (an integer below 2¹²)
/// exactly.
const BASIS_F64: [[f64; BLOCK]; BLOCK] = {
    let mut basis = [[0.0; BLOCK]; BLOCK];
    let mut i = 0;
    while i < BLOCK_AREA {
        basis[i / BLOCK][i % BLOCK] = BASIS[i / BLOCK][i % BLOCK] as f64;
        i += 1;
    }
    basis
};

/// Blocks whose coefficients are all below this in magnitude take the `f64`
/// passes of [`inverse_sparse_bounded`], which are exact up to here.
const F64_EXACT_BELOW: u32 = 1 << 20;

/// `1.5 · 2⁷⁸`: adding it to an `f64` in (−2⁷⁷, 2⁷⁷) rounds that value to a
/// multiple of 2²⁶ (the sum's unit in the last place), and the low 32 bits
/// of the sum's mantissa are then the quotient, in two's complement.
const ROUND_OFF_26: f64 = (3u128 << 77) as f64;

/// Indices of the set bits of `mask`, ascending.
#[inline]
fn set_bits(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// One 8-point inverse pass: `Σ_k x[k]·C[k][n]` for `n` in `0..8`, over the
/// `k` in `occupied` only, plus `bias`, summed in `T` (`basis` is the basis
/// in `T` or in a type `T` holds). Basis rows with even index are symmetric
/// (`C[k][7-n] = C[k][n]`) and rows with odd index antisymmetric, so the two
/// kinds are summed separately for `n` in `0..4`; their sum is output `n`
/// and their difference output `7 - n`, which halves the multiplies.
#[inline]
fn inverse_pass<T, C>(
    x: impl Fn(usize) -> T,
    basis: &[[C; BLOCK]; BLOCK],
    occupied: u8,
    bias: T,
) -> [T; BLOCK]
where
    T: Copy + From<i32> + Add<Output = T> + Sub<Output = T> + Mul<Output = T>,
    C: Copy + Into<T>,
{
    let (mut even, mut odd) = ([bias; BLOCK / 2], [T::from(0); BLOCK / 2]);
    // (Two loops rather than one that picks its accumulator per `k`: the
    // accumulators then stay in registers.)
    let accumulate = |half: &mut [T; BLOCK / 2], ks: u8| {
        for k in set_bits(ks) {
            let v = x(k);
            for (acc, &c) in half.iter_mut().zip(&basis[k]) {
                *acc = *acc + v * c.into();
            }
        }
    };
    accumulate(&mut even, occupied & 0b0101_0101);
    accumulate(&mut odd, occupied & 0b1010_1010);
    let mut out = [T::from(0); BLOCK];
    for n in 0..BLOCK / 2 {
        out[n] = even[n] + odd[n];
        out[BLOCK - 1 - n] = even[n] - odd[n];
    }
    out
}

/// Inverse 8×8 DCT, reconstructing the residual block, for a caller that
/// knows where the block's nonzero coefficients are: bit `k` of `rows`
/// (`cols`) must be set if row (column) `k` holds any. Quantized blocks
/// carry a handful of low-frequency coefficients, and the transform is a sum
/// of products with no intermediate rounding, so leaving out the zero terms
/// (and regrouping the rest) changes nothing but the time: a DC-only block
/// is one multiply, and otherwise each pass runs over the occupied rows and
/// columns only.
/// `out` is overwritten; `tmp` is the caller's scratch, whatever it holds
/// (only the occupied columns are written, and only they are read back).
pub fn inverse_sparse(
    coef: &[i32; BLOCK_AREA],
    rows: u8,
    cols: u8,
    tmp: &mut [i64; BLOCK_AREA],
    out: &mut [i32; BLOCK_AREA],
) {
    let magnitude = coef.iter().fold(0, |m, c| m | c.unsigned_abs());
    inverse_sparse_bounded(coef, rows, cols, magnitude, tmp, out);
}

/// [`inverse_sparse`] for a caller that also knows a bound on the
/// coefficients: `magnitude` must be at least each one's `unsigned_abs()`
/// (their OR is, and a parse can collect it as it goes).
///
/// The passes sum in `f64` when every coefficient is below 2²⁰, with the
/// `i64` result, bit for bit: a column sum is at most 8 terms of |coef| ·
/// 4017 (< 2³⁵), a row sum 8 terms of that times 4017 (< 2⁵⁰), so every
/// product and partial sum is an integer (the row pass carries a bias of
/// ½) that `f64` holds exactly, and the order of the sums cannot matter.
/// The `i64` pass's `(v + 2²⁵) >> 26` is then one add of `ROUND_OFF_26`
/// (1.5 · 2⁷⁸) to `v + ½`, which rounds to the nearest multiple of 2²⁶ and
/// can never tie (`v` is an integer). That puts the transform on the packed
/// `f64` multiply every x86-64 has (two lanes an instruction) instead of the
/// scalar 64-bit one. Two things the equality leans on hold for any target
/// features: Rust never contracts `a * b + c` into a fused multiply-add,
/// which would round once where this rounds nothing (CI runs the codec's
/// tests with FMA available to keep it so), and the rounding add needs the
/// default round-to-nearest mode, which Rust code cannot change. A block
/// with a larger coefficient — only a corrupt stream or the saturating
/// dequantiser makes one — takes the `i64` passes, and a DC-only block
/// stays one integer multiply.
pub fn inverse_sparse_bounded(
    coef: &[i32; BLOCK_AREA],
    rows: u8,
    cols: u8,
    magnitude: u32,
    tmp: &mut [i64; BLOCK_AREA],
    out: &mut [i32; BLOCK_AREA],
) {
    debug_assert!(
        coef.iter()
            .enumerate()
            .all(|(i, &c)| c == 0 || (rows >> (i / BLOCK)) & (cols >> (i % BLOCK)) & 1 == 1),
        "nonzero coefficient outside the row/column masks"
    );
    debug_assert!(
        coef.iter().all(|c| c.unsigned_abs() <= magnitude),
        "coefficient above the magnitude bound"
    );
    let round = 1i64 << (2 * SCALE_BITS - 1);
    if rows <= 1 && cols <= 1 {
        // Only the DC term: every sample is the same value.
        let dc = coef[0] as i64 * (BASIS[0][0] as i64 * BASIS[0][0] as i64);
        *out = [((dc + round) >> (2 * SCALE_BITS)) as i32; BLOCK_AREA];
        return;
    }
    if magnitude < F64_EXACT_BELOW {
        // Inverse over columns, each sum's bits parked in the `i64` scratch.
        for c in set_bits(cols) {
            let column = inverse_pass(|k| coef[k * BLOCK + c] as f64, &BASIS_F64, rows, 0.0);
            for (n, v) in column.into_iter().enumerate() {
                tmp[n * BLOCK + c] = v.to_bits() as i64;
            }
        }
        // Inverse over rows, from `v + ½` to the `i64` pass's rounded shift.
        for (tmp_row, out_row) in tmp.chunks_exact(BLOCK).zip(out.chunks_exact_mut(BLOCK)) {
            let x = |k| f64::from_bits(tmp_row[k] as u64);
            let row = inverse_pass(x, &BASIS_F64, cols, 0.5);
            for (o, v) in out_row.iter_mut().zip(row) {
                *o = (v + ROUND_OFF_26).to_bits() as i32;
            }
        }
        return;
    }
    // Inverse over columns: tmp = C^T * coef, for the occupied columns.
    for c in set_bits(cols) {
        let column = inverse_pass(|k| coef[k * BLOCK + c] as i64, &BASIS, rows, 0);
        for (n, v) in column.into_iter().enumerate() {
            tmp[n * BLOCK + c] = v;
        }
    }
    // Inverse over rows with rounding and the remaining 1/4-ish normalization.
    for (tmp_row, out_row) in tmp.chunks_exact(BLOCK).zip(out.chunks_exact_mut(BLOCK)) {
        let row = inverse_pass(|k| tmp_row[k], &BASIS, cols, round);
        for (o, v) in out_row.iter_mut().zip(row) {
            *o = (v >> (2 * SCALE_BITS)) as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_basis() -> [[f64; BLOCK]; BLOCK] {
        let mut m = [[0.0; BLOCK]; BLOCK];
        for (k, row) in m.iter_mut().enumerate() {
            let ck = if k == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            };
            for (n, cell) in row.iter_mut().enumerate() {
                *cell =
                    ck * ((2.0 * n as f64 + 1.0) * k as f64 * std::f64::consts::PI / 16.0).cos();
            }
        }
        m
    }

    #[test]
    fn basis_matches_float() {
        // The const table is the orthonormal DCT-II basis in Q13: each entry
        // must equal round(c(k) · cos((2n+1)kπ/16) · 2^13) within 1 ulp.
        let fb = float_basis();
        for k in 0..BLOCK {
            for n in 0..BLOCK {
                let expected = fb[k][n] * SCALE;
                let got = BASIS[k][n] as f64;
                assert!(
                    (got - expected).abs() <= 1.0,
                    "basis[{k}][{n}] = {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn dc_block_transforms_to_dc_coefficient() {
        let block = [100i32; BLOCK_AREA];
        let coef = forward(&block);
        // DC coefficient should carry all energy: 8 * 100 = 800 for orthonormal.
        assert!(coef[0] > 0);
        for (i, &c) in coef.iter().enumerate().skip(1) {
            assert!(c.abs() <= 1, "AC coefficient {i} = {c} should be ~0");
        }
        let back = inverse(&coef);
        for &v in &back {
            assert!((v - 100).abs() <= 1, "reconstruction {v} != 100");
        }
    }

    #[test]
    fn roundtrip_error_within_one() {
        // Deterministic pseudo-random residuals in the range the encoder sees.
        let mut state = 0x12345678u32;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as i32 % 512) - 256
        };
        for _ in 0..50 {
            let mut block = [0i32; BLOCK_AREA];
            for v in block.iter_mut() {
                *v = next();
            }
            let coef = forward(&block);
            let back = inverse(&coef);
            for (a, b) in block.iter().zip(&back) {
                assert!((a - b).abs() <= 1, "roundtrip error {} vs {}", a, b);
            }
        }
    }

    #[test]
    fn linearity() {
        let a = [37i32; BLOCK_AREA];
        let mut b = [0i32; BLOCK_AREA];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i32 % 17) - 8;
        }
        let mut sum = [0i32; BLOCK_AREA];
        for i in 0..BLOCK_AREA {
            sum[i] = a[i] + b[i];
        }
        let fa = forward(&a);
        let fb = forward(&b);
        let fsum = forward(&sum);
        for i in 0..BLOCK_AREA {
            assert!(
                (fa[i] + fb[i] - fsum[i]).abs() <= 2,
                "linearity violated at {i}"
            );
        }
    }

    #[test]
    fn energy_preserved() {
        // Parseval: orthonormal transform preserves energy (within rounding).
        let mut block = [0i32; BLOCK_AREA];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 7919) % 255) as i32 - 127;
        }
        let coef = forward(&block);
        let e_in: i64 = block.iter().map(|&v| (v as i64) * (v as i64)).sum();
        let e_out: i64 = coef.iter().map(|&v| (v as i64) * (v as i64)).sum();
        let ratio = e_out as f64 / e_in as f64;
        assert!((ratio - 1.0).abs() < 0.02, "energy ratio {ratio}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_roundtrip_within_one(block in proptest::array::uniform32(-255i32..=255)) {
            // proptest offers fixed-size arrays up to 32; tile it to 64.
            let mut full = [0i32; BLOCK_AREA];
            for i in 0..BLOCK_AREA {
                full[i] = block[i % 32];
            }
            let back = inverse(&forward(&full));
            for (a, b) in full.iter().zip(&back) {
                prop_assert!((a - b).abs() <= 1);
            }
        }
    }
}
