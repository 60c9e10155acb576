//! 8×8 separable DCT-II / DCT-III transform pair.
//!
//! The transform operates on `i32` residuals and uses a fixed-point basis
//! (scaled by 2¹³, like HEVC's integer transforms) so that encode and decode
//! are bit-exact across platforms. The forward/inverse pair is not lossless —
//! it is a transform, and quantization downstream discards precision — but
//! `forward` followed by the inverse reconstructs residuals within ±1, which
//! is below the quantizer's dead zone for every QP we use.
//!
//! [`forward`] takes a whole residual block. The inverse is an accumulator,
//! [`Inverse`]: it takes coefficients one at a time, as the decoder's parse
//! or the encoder's quantiser produces them, sums the column pass as they
//! arrive, and hands the residual back a row at a time, which
//! `blockops::reconstruct_*` add to the prediction straight into the plane.

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
/// row pass of [`Inverse::finish_rows`], which is exact up to here.
const F64_EXACT_BELOW: u32 = 1 << 20;

/// Whether a block whose coefficients' magnitudes OR to `magnitude` takes
/// the `f64` row pass.
#[inline]
fn row_pass_in_f64(magnitude: u32) -> bool {
    magnitude < F64_EXACT_BELOW
}

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

/// The inverse 8×8 DCT as an accumulator: the column pass is summed as the
/// coefficients arrive ([`Inverse::add`], in any order — a parse's scan
/// order, say), and [`Inverse::finish_rows`] runs the row pass and hands
/// over the residual block a row at a time. One accumulator serves block
/// after block: finishing a block leaves it ready for the next.
///
/// Quantized blocks carry a handful of low-frequency coefficients, and the
/// transform is a sum of products with no intermediate rounding, so summing
/// only the coefficients there are (in whatever order) changes nothing but
/// the time. `add` spends four multiply-adds per coefficient; the row pass
/// runs over the occupied columns only; a DC-only block is one multiply.
///
/// Exactness: the column pass sums in `f64`. A product of an `i32` and a
/// basis entry is an integer below 2⁴³, each half (four terms) stays below
/// 2⁴⁵ and a column sum below 2⁴⁶, so `f64` holds every partial sum exactly
/// and the order of the sums cannot matter. The row pass sums in `f64` when
/// every coefficient is below 2²⁰: a column sum is then below 2³⁵ and a row
/// sum (8 terms of that times 4017) below 2⁵⁰, an integer plus the bias of
/// ½ that `f64` still holds exactly. The `i64` pass's `(v + 2²⁵) >> 26` is
/// then one add of `ROUND_OFF_26` (1.5 · 2⁷⁸) to `v + ½`, which rounds to
/// the nearest multiple of 2²⁶ and can never tie (`v` is an integer). That
/// puts the transform on the packed `f64` multiply every x86-64 has (two
/// lanes an instruction) instead of the scalar 64-bit one. Two things the
/// equality leans on hold for any target features: Rust never contracts
/// `a * b + c` into a fused multiply-add, which would round once where this
/// rounds nothing (CI runs the codec's tests with FMA available to keep it
/// so), and the rounding add needs the default round-to-nearest mode, which
/// Rust code cannot change. A block with a larger coefficient — only a
/// corrupt stream or the saturating dequantiser makes one — takes the `i64`
/// row pass on the column sums, converted exactly.
pub struct Inverse {
    /// Column `c`'s eight sums: `acc[c][..4]` collects the even-index basis
    /// rows and `acc[c][4..]` the odd ones (the halves of [`inverse_pass`]),
    /// so column output `n < 4` is their sum and `7 - n` their difference.
    acc: [[f64; BLOCK]; BLOCK],
    /// Bit `k` set: row `k` holds a coefficient.
    rows: u8,
    /// Bit `c` set: column `c` holds a coefficient.
    cols: u8,
    /// The OR of the coefficients' magnitudes, a bound on each.
    magnitude: u32,
}

impl Default for Inverse {
    fn default() -> Self {
        Inverse {
            acc: [[0.0; BLOCK]; BLOCK],
            rows: 0,
            cols: 0,
            magnitude: 0,
        }
    }
}

impl Inverse {
    /// Adds coefficient `coef` at raster position `at` (row `at / 8`,
    /// column `at % 8`) to the block: `coef · C[k][0..4]` into the even or
    /// odd half of its column's sums. Each position is added at most once
    /// per block.
    ///
    /// # Panics
    /// Panics if `at` is not below [`BLOCK_AREA`].
    #[inline]
    pub fn add(&mut self, at: usize, coef: i32) {
        let (k, c) = (at / BLOCK, at % BLOCK);
        let v = coef as f64;
        let half = &mut self.acc[c][k % 2 * (BLOCK / 2)..][..BLOCK / 2];
        for (sum, &b) in half.iter_mut().zip(&BASIS_F64[k]) {
            *sum += v * b;
        }
        self.rows |= 1 << k;
        self.cols |= 1 << c;
        self.magnitude |= coef.unsigned_abs();
    }

    /// Finishes the block: runs the row pass and hands `emit` each row of
    /// the residual, `emit(row, samples)`, then re-zeroes what the block
    /// occupied so the accumulator is ready for the next one.
    #[inline]
    pub fn finish_rows(&mut self, mut emit: impl FnMut(usize, [i32; BLOCK])) {
        let round = 1i64 << (2 * SCALE_BITS - 1);
        let cols = self.cols;
        if self.rows <= 1 && cols <= 1 {
            // Only the DC term: every sample is the same value.
            // `acc[0][0]` is `coef[0] · C[0][0]`, an integer below 2⁴³.
            let dc = self.acc[0][0] as i64 * BASIS[0][0] as i64;
            let sample = ((dc + round) >> (2 * SCALE_BITS)) as i32;
            for row in 0..BLOCK {
                emit(row, [sample; BLOCK]);
            }
        } else {
            // Rows `m` and `7 - m` in turn: at column `k` the column pass's
            // outputs there are its halves' sum and difference.
            let acc = &self.acc;
            let up = |m: usize| move |k: usize| acc[k][m] + acc[k][BLOCK / 2 + m];
            let down = |m: usize| move |k: usize| acc[k][m] - acc[k][BLOCK / 2 + m];
            if row_pass_in_f64(self.magnitude) {
                // From `v + ½` to the `i64` pass's rounded shift.
                let out = |row: [f64; BLOCK]| row.map(|v| (v + ROUND_OFF_26).to_bits() as i32);
                for m in 0..BLOCK / 2 {
                    emit(m, out(inverse_pass(up(m), &BASIS_F64, cols, 0.5)));
                    emit(
                        BLOCK - 1 - m,
                        out(inverse_pass(down(m), &BASIS_F64, cols, 0.5)),
                    );
                }
            } else {
                let out = |row: [i64; BLOCK]| row.map(|v| (v >> (2 * SCALE_BITS)) as i32);
                for m in 0..BLOCK / 2 {
                    let (up, down) = (up(m), down(m));
                    emit(m, out(inverse_pass(|k| up(k) as i64, &BASIS, cols, round)));
                    emit(
                        BLOCK - 1 - m,
                        out(inverse_pass(|k| down(k) as i64, &BASIS, cols, round)),
                    );
                }
            }
        }
        for c in set_bits(cols) {
            self.acc[c] = [0.0; BLOCK];
        }
        (self.rows, self.cols, self.magnitude) = (0, 0, 0);
    }
}

#[cfg(test)]
impl Inverse {
    /// [`Inverse::finish_rows`] into a row-major block.
    pub(crate) fn finish(&mut self) -> [i32; BLOCK_AREA] {
        let mut out = [0; BLOCK_AREA];
        self.finish_rows(|row, samples| out[row * BLOCK..][..BLOCK].copy_from_slice(&samples));
        out
    }
}

/// Inverse 8×8 DCT of a whole coefficient block: its nonzero coefficients
/// through an [`Inverse`], in raster order.
#[cfg(test)]
pub(crate) fn inverse(coef: &[i32; BLOCK_AREA]) -> [i32; BLOCK_AREA] {
    let mut inverse = Inverse::default();
    for (at, &c) in coef.iter().enumerate() {
        if c != 0 {
            inverse.add(at, c);
        }
    }
    inverse.finish()
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
    fn f64_row_pass_is_taken_below_2_20_only() {
        // Outputs cannot pin this bound: at exactly 2²⁰ every coefficient
        // is 0 or ±2²⁰, and the `f64` sums would still be exact there.
        assert!(row_pass_in_f64(0));
        assert!(row_pass_in_f64((1 << 20) - 1));
        assert!(!row_pass_in_f64(1 << 20));
        assert!(!row_pass_in_f64(u32::MAX));
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
