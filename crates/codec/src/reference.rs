//! The scalar reference kernels, compiled for tests only.
//!
//! This is the DCT decode path as it was before the fast path replaced it:
//! a bit-at-a-time exp-Golomb reader, a dense inverse DCT, a column-major
//! deblocking filter with a branch per sample, and a frame decoder that
//! starts from a black frame, copies every SKIP block and clones its
//! reference per frame, in both P-frame block syntaxes (a mode symbol per
//! block, or SKIP runs); and the encoder's coded-block path as it was: a
//! bit-at-a-time writer, the 1024-multiply forward DCT, and a block coded by
//! quantizing all 64 coefficients, walking the zigzag, and dequantizing and
//! inverse transforming them all again. The product code must agree with it
//! bit for bit — pixels, streams, `Result`s and error variants — and the
//! property tests at the bottom of this file are where that is checked.
//!
//! Two spots are written without the arithmetic overflow the old decoder
//! had (it panicked in debug builds and, for the motion vector, could index
//! out of bounds in release builds); both are reachable only from corrupt
//! streams and are marked below.

use crate::bitstream::BitstreamError;
use crate::blockops::{copy_block, dc_predict, ZIGZAG};
use crate::dct::{BLOCK, BLOCK_AREA};
use crate::decoder::DecodeError;
use crate::quant::{dequantize, qstep, quantize};
use tasm_video::{Frame, Plane};

/// Reads bits MSB-first from a byte slice, one byte (or bit) at a time.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    pub(crate) fn remaining_bits(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    pub(crate) fn get_bits(&mut self, n: u32) -> Result<u32, BitstreamError> {
        if n as usize > self.remaining_bits() {
            return Err(BitstreamError::UnexpectedEof);
        }
        let mut out = 0u32;
        let mut remaining = n;
        while remaining > 0 {
            let byte = self.data[self.pos / 8];
            let bit_off = (self.pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(remaining);
            let shifted = (byte as u32) >> (avail - take);
            let mask = (1u32 << take) - 1;
            out = (out << take) | (shifted & mask);
            self.pos += take as usize;
            remaining -= take;
        }
        Ok(out)
    }

    pub(crate) fn get_bit(&mut self) -> Result<bool, BitstreamError> {
        Ok(self.get_bits(1)? == 1)
    }

    pub(crate) fn get_ue(&mut self) -> Result<u32, BitstreamError> {
        let mut zeros = 0u32;
        loop {
            if self.remaining_bits() == 0 {
                return Err(BitstreamError::UnexpectedEof);
            }
            if self.get_bits(1)? == 1 {
                break;
            }
            zeros += 1;
            if zeros > 31 {
                return Err(BitstreamError::CodeTooLong);
            }
        }
        let rest = self.get_bits(zeros)?;
        let code = (1u32 << zeros) | rest;
        Ok(code - 1)
    }

    pub(crate) fn get_se(&mut self) -> Result<i32, BitstreamError> {
        let mapped = self.get_ue()?;
        if mapped % 2 == 1 {
            Ok(mapped.div_ceil(2) as i32)
        } else {
            Ok(-((mapped / 2) as i32))
        }
    }
}

/// Q13 DCT-II basis (a copy of the table in [`crate::dct`], so the dense
/// transform below shares nothing with the sparse one but the numbers).
const BASIS: [[i32; BLOCK]; BLOCK] = [
    [2896, 2896, 2896, 2896, 2896, 2896, 2896, 2896],
    [4017, 3406, 2276, 799, -799, -2276, -3406, -4017],
    [3784, 1567, -1567, -3784, -3784, -1567, 1567, 3784],
    [3406, -799, -4017, -2276, 2276, 4017, 799, -3406],
    [2896, -2896, -2896, 2896, 2896, -2896, -2896, 2896],
    [2276, -4017, 799, 3406, -3406, -799, 4017, -2276],
    [1567, -3784, 3784, -1567, -1567, 3784, -3784, 1567],
    [799, -2276, 3406, -4017, 4017, -3406, 2276, -799],
];

/// Dense inverse 8×8 DCT: 1024 multiply-accumulates whatever the block holds.
pub(crate) fn inverse(coef: &[i32; BLOCK_AREA]) -> [i32; BLOCK_AREA] {
    let mut tmp = [0i64; BLOCK_AREA];
    for c in 0..BLOCK {
        for n in 0..BLOCK {
            let mut acc = 0i64;
            for k in 0..BLOCK {
                acc += coef[k * BLOCK + c] as i64 * BASIS[k][n] as i64;
            }
            tmp[n * BLOCK + c] = acc;
        }
    }
    let mut out = [0i32; BLOCK_AREA];
    let round = 1i64 << 25;
    for r in 0..BLOCK {
        for n in 0..BLOCK {
            let mut acc = 0i64;
            for k in 0..BLOCK {
                acc += tmp[r * BLOCK + k] * BASIS[k][n] as i64;
            }
            out[r * BLOCK + n] = ((acc + round) >> 26) as i32;
        }
    }
    out
}

/// Quantizes a whole block in place, returning the number of nonzero levels.
pub(crate) fn quantize_block(coefs: &mut [i32], qstep: i32) -> usize {
    let mut nonzero = 0;
    for c in coefs.iter_mut() {
        *c = quantize(*c, qstep);
        if *c != 0 {
            nonzero += 1;
        }
    }
    nonzero
}

/// Dequantizes a whole block in place.
pub(crate) fn dequantize_block(levels: &mut [i32], qstep: i32) {
    for l in levels.iter_mut() {
        *l = dequantize(*l, qstep);
    }
}

/// Forward 8×8 DCT as two dense passes in `i64`: 1024 multiplies.
pub(crate) fn forward(block: &[i32; BLOCK_AREA]) -> [i32; BLOCK_AREA] {
    let mut tmp = [0i64; BLOCK_AREA];
    // Transform rows: tmp = block * C^T
    for r in 0..BLOCK {
        for k in 0..BLOCK {
            let mut acc = 0i64;
            for n in 0..BLOCK {
                acc += block[r * BLOCK + n] as i64 * BASIS[k][n] as i64;
            }
            tmp[r * BLOCK + k] = acc;
        }
    }
    // Transform columns: out = C * tmp, less the 2^26 the two passes carry.
    let mut out = [0i32; BLOCK_AREA];
    let round = 1i64 << 25;
    for c in 0..BLOCK {
        for k in 0..BLOCK {
            let mut acc = 0i64;
            for n in 0..BLOCK {
                acc += tmp[n * BLOCK + c] * BASIS[k][n] as i64;
            }
            out[k * BLOCK + c] = ((acc + round) >> 26) as i32;
        }
    }
    out
}

/// Writes bits MSB-first, one bit at a time.
#[derive(Debug, Default)]
pub(crate) struct BitwiseWriter {
    bytes: Vec<u8>,
    nbits: usize,
}

impl BitwiseWriter {
    pub(crate) fn put_bits(&mut self, value: u32, n: u32) {
        for i in (0..n).rev() {
            if self.nbits.is_multiple_of(8) {
                self.bytes.push(0);
            }
            let bit = (value >> i) as u8 & 1;
            *self.bytes.last_mut().expect("a byte was pushed") |= bit << (7 - self.nbits % 8);
            self.nbits += 1;
        }
    }

    pub(crate) fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u32, 1);
    }

    pub(crate) fn put_ue(&mut self, v: u32) {
        let code = v + 1;
        let len = 32 - code.leading_zeros();
        self.put_bits(0, len - 1);
        self.put_bits(code, len);
    }

    pub(crate) fn put_se(&mut self, v: i32) {
        let mapped = if v <= 0 {
            (-(v as i64) * 2) as u32
        } else {
            (v as u32) * 2 - 1
        };
        self.put_ue(mapped);
    }

    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Transforms, quantizes and entropy-codes a residual block, and returns
/// the residual as the decoder will reconstruct it (`None` when every level
/// quantizes to zero and only the coded-block flag is written).
pub(crate) fn code_coefficients(
    w: &mut BitwiseWriter,
    residual: &[i32; BLOCK_AREA],
    qstep: i32,
) -> Option<[i32; BLOCK_AREA]> {
    code_levels(w, forward(residual), qstep)
}

/// [`code_coefficients`] from the transform's output on.
pub(crate) fn code_levels(
    w: &mut BitwiseWriter,
    mut coefs: [i32; BLOCK_AREA],
    qstep: i32,
) -> Option<[i32; BLOCK_AREA]> {
    let nnz = quantize_block(&mut coefs, qstep);
    if nnz == 0 {
        w.put_bit(false); // coded-block flag
        return None;
    }
    w.put_bit(true);
    w.put_ue(nnz as u32 - 1);
    let mut run = 0u32;
    for &zz in ZIGZAG.iter() {
        let level = coefs[zz];
        if level == 0 {
            run += 1;
        } else {
            w.put_ue(run);
            w.put_se(level);
            run = 0;
        }
    }
    // Reconstruct exactly as the decoder will.
    dequantize_block(&mut coefs, qstep);
    Some(inverse(&coefs))
}

/// The weak deblocking filter, all vertical edges column by column and then
/// all horizontal edges, with an early return per sample.
pub(crate) fn deblock_frame(frame: &mut Frame, qstep: i32) {
    let beta = 2 * qstep + 8;
    let tc = qstep / 2 + 1;
    for plane in Plane::ALL {
        let w = frame.plane_width(plane) as usize;
        let h = frame.plane_height(plane) as usize;
        let data = frame.plane_mut(plane);
        let mut x = 8;
        while x < w {
            for y in 0..h {
                let row = y * w;
                let p1 = data[row + x - 2] as i32;
                let p0 = data[row + x - 1] as i32;
                let q0 = data[row + x] as i32;
                let q1 = data[row + x + 1] as i32;
                if let Some((np0, nq0)) = weak_filter(p1, p0, q0, q1, beta, tc) {
                    data[row + x - 1] = np0;
                    data[row + x] = nq0;
                }
            }
            x += 8;
        }
        let mut y = 8;
        while y < h {
            for x in 0..w {
                let p1 = data[(y - 2) * w + x] as i32;
                let p0 = data[(y - 1) * w + x] as i32;
                let q0 = data[y * w + x] as i32;
                let q1 = data[(y + 1) * w + x] as i32;
                if let Some((np0, nq0)) = weak_filter(p1, p0, q0, q1, beta, tc) {
                    data[(y - 1) * w + x] = np0;
                    data[y * w + x] = nq0;
                }
            }
            y += 8;
        }
    }
}

fn weak_filter(p1: i32, p0: i32, q0: i32, q1: i32, beta: i32, tc: i32) -> Option<(u8, u8)> {
    let step = (p0 - q0).abs();
    if step == 0 || step >= beta {
        return None;
    }
    if (p1 - p0).abs() >= beta / 2 || (q1 - q0).abs() >= beta / 2 {
        return None;
    }
    let delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3;
    let delta = delta.clamp(-tc, tc);
    Some((
        (p0 + delta).clamp(0, 255) as u8,
        (q0 - delta).clamp(0, 255) as u8,
    ))
}

fn store_block(plane: &mut [u8], stride: usize, x: usize, y: usize, values: &[i32; BLOCK_AREA]) {
    for row in 0..BLOCK {
        let base = (y + row) * stride + x;
        for col in 0..BLOCK {
            plane[base + col] = values[row * BLOCK + col].clamp(0, 255) as u8;
        }
    }
}

/// How many P-frame blocks of each kind a frame held: SKIP, the zero
/// vector with no residual, the zero vector with one, a nonzero vector,
/// and intra.
pub(crate) type Census = [u32; 5];

/// Decodes one frame of a `width`×`height` tile (16-aligned) from a black
/// frame, block by block, with P-frames in the v2 block syntax if
/// `skip_runs` and in v1's if not; and counts the P-frame's blocks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_frame(
    width: u32,
    height: u32,
    deblock: bool,
    skip_runs: bool,
    data: &[u8],
    is_key: bool,
    qp: u8,
    prev: Option<&Frame>,
) -> Result<(Frame, Census), DecodeError> {
    if !is_key && prev.is_none() {
        return Err(DecodeError::MissingReference);
    }
    let mut r = BitReader::new(data);
    let qs = qstep(qp);
    let mut recon = Frame::black(width, height);
    let mut census = Census::default();
    for plane in Plane::ALL {
        let pw = recon.plane_width(plane) as usize;
        let ph = recon.plane_height(plane) as usize;
        let prev_plane = prev.map(|f| f.plane(plane));
        let recon_plane = recon.plane_mut(plane);
        let blocks = (pw / BLOCK) * (ph / BLOCK);
        // v2: the SKIP blocks still ahead of the next coded block, once the
        // run that counts them is read.
        let mut ahead: Option<u64> = None;
        for b in 0..blocks {
            let (x, y) = (b % (pw / BLOCK) * BLOCK, b / (pw / BLOCK) * BLOCK);
            // The block's mode, `None` for a SKIP.
            let mode = if is_key {
                Some(2)
            } else if !skip_runs {
                Some(r.get_ue()?).filter(|&m| m != 0)
            } else {
                let skips = match ahead {
                    Some(n) => n,
                    None => u64::from(r.get_ue()?),
                };
                if skips > (blocks - b) as u64 {
                    return Err(DecodeError::InvalidSyntax("SKIP run past the plane's end"));
                }
                ahead = skips.checked_sub(1);
                match skips {
                    0 => Some(r.get_ue()?),
                    _ => None,
                }
            };
            let kind = decode_block(&mut r, recon_plane, prev_plane, x, y, pw, ph, qs, mode)?;
            if !is_key {
                census[kind] += 1;
            }
        }
    }
    if deblock {
        deblock_frame(&mut recon, qs);
    }
    Ok((recon, census))
}

/// Decodes one block in mode `mode` (`None` for a SKIP; v2's numbers, where
/// 0 is INTER at the zero vector with a residual) and returns its
/// [`Census`] slot.
#[allow(clippy::too_many_arguments)]
fn decode_block(
    r: &mut BitReader<'_>,
    recon: &mut [u8],
    prev: Option<&[u8]>,
    x: usize,
    y: usize,
    pw: usize,
    ph: usize,
    qs: i32,
    mode: Option<u32>,
) -> Result<usize, DecodeError> {
    let stride = pw;
    let Some(mode) = mode else {
        let prev = prev.ok_or(DecodeError::MissingReference)?;
        copy_block(recon, stride, x, y, prev, stride, x, y);
        return Ok(0);
    };
    match mode {
        0 | 1 => {
            let prev = prev.ok_or(DecodeError::MissingReference)?;
            let (mvx, mvy) = match mode {
                0 => (0, 0),
                _ => (r.get_se()?, r.get_se()?),
            };
            // Overflow-free: the old decoder added in i32, where a vector
            // near the limits wrapped past this check.
            let rx = x as i64 + mvx as i64;
            let ry = y as i64 + mvy as i64;
            if rx < 0 || ry < 0 || rx + BLOCK as i64 > pw as i64 || ry + BLOCK as i64 > ph as i64 {
                return Err(DecodeError::InvalidSyntax("motion vector outside tile"));
            }
            let (rx, ry) = (rx as usize, ry as usize);
            let (vals, coded) = read_residual(r, qs, mode == 1, |i| {
                prev[(ry + i / BLOCK) * stride + rx + i % BLOCK] as i32
            })?;
            store_block(recon, stride, x, y, &vals);
            Ok(if (mvx, mvy) != (0, 0) {
                3
            } else {
                1 + coded as usize
            })
        }
        2 => {
            let pred = dc_predict(recon, stride, x, y);
            let (vals, _) = read_residual(r, qs, true, |_| pred)?;
            store_block(recon, stride, x, y, &vals);
            Ok(4)
        }
        _ => Err(DecodeError::InvalidSyntax("unknown block mode")),
    }
}

/// Reads a coded-block flag (when `flagged`; otherwise the block is coded)
/// and the coefficients behind a set one, and returns the block's samples
/// and whether a residual was coded.
fn read_residual(
    r: &mut BitReader<'_>,
    qs: i32,
    flagged: bool,
    pred_at: impl Fn(usize) -> i32,
) -> Result<([i32; BLOCK_AREA], bool), DecodeError> {
    let mut out = [0i32; BLOCK_AREA];
    if flagged && !r.get_bit()? {
        for (i, o) in out.iter_mut().enumerate() {
            *o = pred_at(i);
        }
        return Ok((out, false));
    }
    let nnz = r.get_ue()? as usize + 1;
    if nnz > BLOCK_AREA {
        return Err(DecodeError::InvalidSyntax("too many coefficients"));
    }
    let mut coefs = [0i32; BLOCK_AREA];
    let mut pos = 0usize;
    for _ in 0..nnz {
        let run = r.get_ue()? as usize;
        pos += run;
        if pos >= BLOCK_AREA {
            return Err(DecodeError::InvalidSyntax(
                "coefficient run overflows block",
            ));
        }
        let level = r.get_se()?;
        if level == 0 {
            return Err(DecodeError::InvalidSyntax("zero level coded as nonzero"));
        }
        coefs[ZIGZAG[pos]] = level;
        pos += 1;
    }
    dequantize_block(&mut coefs, qs);
    let res = inverse(&coefs);
    for (i, o) in out.iter_mut().enumerate() {
        // Wrapping, as a release build of the old decoder added (a debug
        // build panicked): only a corrupt level can overflow here.
        *o = pred_at(i).wrapping_add(res[i]);
    }
    Ok((out, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;
    use crate::dct::Inverse;
    use crate::decoder::TileDecoder;
    use crate::encoder::{BlockCoder, EncoderConfig, RateControl, TileEncoder};
    use proptest::prelude::*;
    use tasm_video::Rect;

    /// splitmix64: the tests' own generator, seeded per case by proptest.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn u32(&mut self, r: std::ops::Range<u32>) -> u32 {
            r.start + (self.next() % (r.end - r.start) as u64) as u32
        }

        fn usize(&mut self, r: std::ops::Range<usize>) -> usize {
            r.start + (self.next() % (r.end - r.start) as u64) as usize
        }
    }

    /// Runs `f` over `cases` generated cases, each with its own generator.
    fn for_cases(cases: u32, name: &str, mut f: impl FnMut(&mut Rng)) {
        proptest::run_cases(cases, proptest::seed_for(name), |seeds| {
            f(&mut Rng(any::<u64>().generate(seeds)));
        });
    }

    /// A frame of flat 8×8 blocks at random levels plus noise of amplitude
    /// `amp`: small amplitudes leave steps the filter smooths, large ones
    /// look like texture it must leave alone.
    fn blocky_frame(rng: &mut Rng, w: u32, h: u32, amp: u32) -> Frame {
        let mut f = Frame::black(w, h);
        for plane in Plane::ALL {
            let (pw, ph) = (f.plane_width(plane), f.plane_height(plane));
            let bw = pw.div_ceil(8);
            let levels: Vec<u32> = (0..bw * ph.div_ceil(8)).map(|_| rng.u32(0..256)).collect();
            for y in 0..ph {
                for x in 0..pw {
                    let base = levels[((y / 8) * bw + x / 8) as usize] as i32;
                    let noise = rng.u32(0..2 * amp + 1) as i32 - amp as i32;
                    f.set_sample(plane, x, y, (base / 8 * 8 + noise).clamp(0, 255) as u8);
                }
            }
        }
        f
    }

    #[test]
    fn deblock_matches_reference_for_every_qstep() {
        let mut touched = 0u32;
        for_cases(24, "deblock", |rng| {
            // Chroma planes 8..=64 wide, luma twice that; multiples of 4,
            // so planes are even-sized but not all multiples of 8 (the old
            // filter reads one sample past an edge at column `w - 1`).
            let w = rng.u32(4..33) * 4;
            let h = rng.u32(4..20) * 4;
            let amp = [0, 1, 3, 12, 255][rng.usize(0..5)];
            let frame = blocky_frame(rng, w, h, amp);
            for qp in 0..=51u8 {
                let (mut fast, mut slow) = (frame.clone(), frame.clone());
                crate::deblock::deblock_frame(&mut fast, qstep(qp));
                deblock_frame(&mut slow, qstep(qp));
                assert!(fast == slow, "{w}x{h} amp {amp} qp {qp}");
                touched += u32::from(fast != frame);
            }
        });
        assert!(touched > 200, "the filter must actually fire ({touched})");
        // Whole eight-row bands at every plane width 8·n up to 640 — the
        // shape the codec produces, which the kernel takes without the
        // padded scratch band: luma 16·n wide, chroma 8·n, heights 16 or 32.
        let mut rng = Rng(0x5eed);
        touched = 0;
        for n in 1..=80u32 {
            let h = 16 * rng.u32(1..3);
            let amp = [0, 1, 3, 12][rng.usize(0..4)];
            let frame = blocky_frame(&mut rng, 16 * n, h, amp);
            for _ in 0..4 {
                let qp = rng.u32(0..52) as u8;
                let (mut fast, mut slow) = (frame.clone(), frame.clone());
                crate::deblock::deblock_frame(&mut fast, qstep(qp));
                deblock_frame(&mut slow, qstep(qp));
                assert!(fast == slow, "{}x{h} amp {amp} qp {qp}", 16 * n);
                touched += u32::from(fast != frame);
            }
        }
        assert!(
            touched > 200,
            "the filter must fire on whole bands ({touched})"
        );
        // Step sizes no QP produces, including ones past the i16 caps.
        let frame = blocky_frame(&mut Rng(7), 48, 32, 2);
        for qs in [-40, -4, -3, -1, 0, 123, 124, 127, 128, 300, 40_000, 1 << 29] {
            let (mut fast, mut slow) = (frame.clone(), frame.clone());
            crate::deblock::deblock_frame(&mut fast, qs);
            deblock_frame(&mut slow, qs);
            assert!(fast == slow, "qstep {qs}");
        }
    }

    fn arb_level(rng: &mut Rng) -> i32 {
        match rng.u32(0..8) {
            0 => i32::MAX,
            1 => i32::MIN,
            2 => rng.u32(0..u32::MAX) as i32,
            3 => rng.u32(0..1 << 20) as i32 - (1 << 19),
            _ => rng.u32(0..41) as i32 - 20,
        }
    }

    /// The orders a block's coefficients are fed to an accumulator in: scan
    /// order (the codec's), raster, reversed raster and a shuffle.
    fn feed_orders(rng: &mut Rng) -> [[usize; BLOCK_AREA]; 4] {
        let raster: [usize; BLOCK_AREA] = std::array::from_fn(|i| i);
        let mut reversed = raster;
        reversed.reverse();
        let mut shuffled = raster;
        for i in (1..BLOCK_AREA).rev() {
            shuffled.swap(i, rng.usize(0..i + 1));
        }
        [ZIGZAG, raster, reversed, shuffled]
    }

    /// Feeds `coefs` to `inverse` in each of [`feed_orders`] and checks each
    /// block it finishes is `want`. Zero coefficients are added too where
    /// `zeros` has a bit set (the accumulator then counts their rows and
    /// columns as occupied, which must change nothing).
    fn check_accumulator(
        inverse: &mut Inverse,
        coefs: &[i32; BLOCK_AREA],
        want: &[i32; BLOCK_AREA],
        zeros: u64,
        rng: &mut Rng,
    ) {
        for order in feed_orders(rng) {
            for at in order {
                if coefs[at] != 0 || zeros >> at & 1 == 1 {
                    inverse.add(at, coefs[at]);
                }
            }
            assert_eq!(
                &inverse.finish(),
                want,
                "{coefs:?} zeros {zeros:#x} order {order:?}"
            );
        }
    }

    #[test]
    fn inverse_matches_reference_on_sparse_and_dense_blocks() {
        // One accumulator for every block, as a frame decode has.
        let mut accumulator = Inverse::default();
        for_cases(4000, "inverse", |rng| {
            let qs = qstep(rng.u32(0..52) as u8);
            let mut coefs = [0i32; BLOCK_AREA];
            let count = match rng.u32(0..4) {
                0 => rng.usize(0..3),
                1 => rng.usize(1..6),
                2 => rng.usize(6..30),
                _ => 64,
            };
            // Mostly low-frequency positions, as a quantized block has.
            let reach = if rng.u32(0..3) == 0 { 64 } else { 12 };
            for _ in 0..count {
                let at = ZIGZAG[rng.usize(0..reach.max(count.min(64)))];
                coefs[at] = dequantize(arb_level(rng), qs);
            }
            let want = inverse(&coefs);
            assert_eq!(crate::dct::inverse(&coefs), want, "{coefs:?}");
            let zeros = rng.next();
            for zeros in [0, zeros] {
                check_accumulator(&mut accumulator, &coefs, &want, zeros, rng);
            }
        });
    }

    /// Both sides of the 2²⁰ bound under which the row pass sums in `f64`:
    /// the blocks that push those sums furthest, the smallest coefficient
    /// that must take the `i64` pass, and the `i32` extremes the saturating
    /// dequantiser hands on — each fed in several orders, with and without
    /// zero coefficients beside it, through one accumulator that has just
    /// finished a small block.
    #[test]
    fn inverse_matches_reference_on_both_sides_of_the_f64_bound() {
        let below = (1 << 20) - 1;
        let mut blocks: Vec<[i32; BLOCK_AREA]> = vec![[below; BLOCK_AREA], [-below; BLOCK_AREA]];
        // For each output sample, every coefficient at ±(2²⁰ − 1) with the
        // sign that makes every product in its sum positive: the largest
        // sums the `f64` pass can meet, and the column sums under them.
        for (r, n) in (0..BLOCK).flat_map(|r| (0..BLOCK).map(move |n| (r, n))) {
            let worst: [i32; BLOCK_AREA] = std::array::from_fn(|i| {
                let sign = (BASIS[i / BLOCK][r] * BASIS[i % BLOCK][n]).signum();
                sign * below
            });
            blocks.push(worst);
            blocks.push(worst.map(|c| -c));
        }
        // One coefficient at ±2²⁰ (the `i64` side) or ±(2²⁰ − 1), alone and
        // beside small ones, at every position.
        for at in 0..BLOCK_AREA {
            for v in [1 << 20, -(1 << 20), below, -below] {
                let mut alone = [0i32; BLOCK_AREA];
                alone[at] = v;
                let mut crowded: [i32; BLOCK_AREA] =
                    std::array::from_fn(|i| [0, 16, -48, 0, 400][i % 5]);
                crowded[at] = v;
                blocks.extend([alone, crowded]);
            }
        }
        // Sums exactly halfway between two outputs: with `a` at (0, 0) and
        // `b` at (0, 1), output (r, 0) is 2896 · (2896a + 4017b) = 181m · 2²⁵
        // for odd `m`, which the `i64` pass rounds up. The last two are past
        // 2⁵³, where an `f64` sum would lose the ½ that breaks the tie.
        for m in [1i64, -1, 3, -5, (1 << 21) + 1, -(1 << 21) - 3] {
            let b = (0..2896)
                .find(|b| ((m << 21) - 4017 * b) % 2896 == 0)
                .unwrap();
            let mut tie = [0i32; BLOCK_AREA];
            tie[0] = (((m << 21) - 4017 * b) / 2896) as i32;
            tie[1] = b as i32;
            blocks.push(tie);
        }
        // The ends of the `i32` range, as saturating dequantisation makes
        // them, at every step size.
        for qp in 0..=51u8 {
            let qs = qstep(qp);
            let (hi, lo) = (dequantize(i32::MAX, qs), dequantize(i32::MIN, qs));
            let mut mixed = [0i32; BLOCK_AREA];
            for (i, c) in mixed.iter_mut().enumerate() {
                *c = [hi, lo, 0, dequantize(3, qs), hi, lo, lo][i % 7];
            }
            let mut one = [0i32; BLOCK_AREA];
            one[ZIGZAG[qp as usize]] = if qp % 2 == 0 { hi } else { lo };
            blocks.extend([mixed, one, [hi; BLOCK_AREA], [lo; BLOCK_AREA]]);
        }
        // A block as the codec makes them, finished before each of the
        // above: every large block arrives right after a small one.
        let mut small = [0i32; BLOCK_AREA];
        for (pos, v) in [(0, 96), (1, -32), (2, 16), (4, 48), (9, -16)] {
            small[ZIGZAG[pos]] = v;
        }
        let small_want = inverse(&small);
        let mut extra = Rng(0x5eed);
        let mut accumulator = Inverse::default();
        for coefs in &blocks {
            let want = inverse(coefs);
            assert_eq!(crate::dct::inverse(coefs), want, "{coefs:?}");
            let zeros = extra.next();
            for zeros in [0, zeros, u64::MAX] {
                check_accumulator(&mut accumulator, &small, &small_want, 0, &mut extra);
                check_accumulator(&mut accumulator, coefs, &want, zeros, &mut extra);
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Bits(u32),
        Bit,
        Ue,
        Se,
    }

    /// Applies `op` to both readers and checks they agree on the result and
    /// on where they stand afterwards.
    fn step_both(fast: &mut crate::bitstream::BitReader<'_>, slow: &mut BitReader<'_>, op: Op) {
        let same = match op {
            Op::Bits(n) => fast.get_bits(n) == slow.get_bits(n),
            Op::Bit => fast.get_bit() == slow.get_bit(),
            Op::Ue => {
                let (f, s) = (fast.get_ue(), slow.get_ue());
                // After an error the old reader's position is mid-code;
                // nothing reads on from there, so only results must match.
                if f.is_err() {
                    assert_eq!(f, s);
                    return;
                }
                f == s
            }
            Op::Se => {
                let (f, s) = (fast.get_se(), slow.get_se());
                if f.is_err() {
                    assert_eq!(f, s);
                    return;
                }
                f == s
            }
        };
        assert!(same, "{op:?} disagrees");
        assert_eq!(fast.remaining_bits(), slow.remaining_bits(), "after {op:?}");
    }

    fn arb_op(rng: &mut Rng) -> Op {
        match rng.u32(0..4) {
            0 => Op::Bits(rng.u32(0..33)),
            1 => Op::Bit,
            2 => Op::Ue,
            _ => Op::Se,
        }
    }

    #[test]
    fn bit_reader_matches_reference_at_every_tail_length() {
        for_cases(600, "bitreader", |rng| {
            // A valid stream of random codes …
            let mut w = BitWriter::new();
            let mut ops = Vec::new();
            for _ in 0..rng.usize(0..40) {
                let op = arb_op(rng);
                let magnitude = match rng.u32(0..4) {
                    0 => rng.u32(0..4),
                    1 => rng.u32(0..1 << 12),
                    2 => rng.u32(0..1 << 28),
                    _ => rng.u32(0..u32::MAX),
                };
                match op {
                    Op::Bits(n) => w.put_bits(magnitude & ((1u64 << n) - 1) as u32, n),
                    Op::Bit => w.put_bit(magnitude & 1 == 1),
                    Op::Ue => w.put_ue(magnitude.min(u32::MAX - 1)),
                    Op::Se => w.put_se(magnitude as i32),
                }
                ops.push(op);
            }
            let body = w.finish();
            // … read back with 0..=9 bytes of random tail after it (so every
            // code is tried at every distance from the end of the buffer),
            // and again cut short, then reading on past the end.
            for tail in 0..10usize {
                let mut data = body.to_vec();
                data.extend((0..tail).map(|_| rng.u32(0..256) as u8));
                let cut = if rng.u32(0..3) == 0 {
                    rng.usize(0..data.len() + 1)
                } else {
                    data.len()
                };
                let data = &data[..cut];
                let mut fast = crate::bitstream::BitReader::new(data);
                let mut slow = BitReader::new(data);
                for &op in &ops {
                    step_both(&mut fast, &mut slow, op);
                }
                for _ in 0..24 {
                    step_both(&mut fast, &mut slow, arb_op(rng));
                }
            }
        });
    }

    #[test]
    fn bit_reader_matches_reference_on_garbage_and_long_prefixes() {
        for_cases(600, "bitreader-garbage", |rng| {
            let len = rng.usize(0..40);
            // Sparse bytes make long zero prefixes (CodeTooLong, and the
            // 29..=31-zero codes the window hands to the bitwise reader).
            let sparse = rng.u32(0..2) == 0;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    if sparse && rng.u32(0..6) != 0 {
                        0
                    } else {
                        rng.u32(0..256) as u8
                    }
                })
                .collect();
            let mut fast = crate::bitstream::BitReader::new(&data);
            let mut slow = BitReader::new(&data);
            for _ in 0..64 {
                step_both(&mut fast, &mut slow, arb_op(rng));
            }
        });
    }

    #[test]
    fn take_ones_counts_what_get_ue_would() {
        for_cases(600, "take-ones", |rng| {
            // Runs of ue(0) — single one bits — between other codes.
            let mut w = BitWriter::new();
            for _ in 0..rng.usize(1..8) {
                for _ in 0..rng.usize(0..200) {
                    w.put_ue(0);
                }
                w.put_ue(rng.u32(1..9));
            }
            let data = w.finish();
            let limit = rng.usize(0..400);
            // Fast: take runs of ones, read the code that ends each run.
            let mut fast = crate::bitstream::BitReader::new(&data);
            let mut slow = BitReader::new(&data);
            let (mut n_fast, mut n_slow) = (0usize, 0usize);
            let mut ended_fast = None;
            while n_fast < limit {
                n_fast += fast.take_ones(limit - n_fast);
                if n_fast == limit {
                    break;
                }
                match fast.get_ue() {
                    Ok(0) => n_fast += 1,
                    other => {
                        ended_fast = Some(other);
                        break;
                    }
                }
            }
            let mut ended_slow = None;
            while n_slow < limit {
                match slow.get_ue() {
                    Ok(0) => n_slow += 1,
                    other => {
                        ended_slow = Some(other);
                        break;
                    }
                }
            }
            assert_eq!((n_fast, &ended_fast), (n_slow, &ended_slow));
            if !matches!(ended_fast, Some(Err(_))) {
                assert_eq!(fast.remaining_bits(), slow.remaining_bits());
            }
        });
    }

    /// One coefficient's `(run, level)` pair, as `read_residual` reads it
    /// from the product reader: a table step, or what the step left alone.
    fn read_pair(r: &mut crate::bitstream::BitReader<'_>) -> Result<(u32, i32), BitstreamError> {
        match r.get_run_level() {
            Some(pair) => Ok(pair),
            None => Ok((r.get_ue()?, r.get_se()?)),
        }
    }

    /// The same pair from the reference reader: two exp-Golomb walks.
    fn read_pair_slow(r: &mut BitReader<'_>) -> Result<(u32, i32), BitstreamError> {
        Ok((r.get_ue()?, r.get_se()?))
    }

    /// Mostly the tiny runs and levels a quantized block holds, some of the
    /// 37–236-sized ones, a zero level, and the extremes of both codes.
    fn arb_pair(rng: &mut Rng) -> (u32, i32) {
        let run = match rng.u32(0..8) {
            0 => 37 + rng.u32(0..200),
            1 => u32::MAX - 1 - rng.u32(0..2),
            2 => rng.u32(3..64),
            _ => rng.u32(0..3),
        };
        let sign = if rng.u32(0..2) == 0 { 1 } else { -1 };
        let level = match rng.u32(0..8) {
            0 => i32::MAX,
            1 => i32::MIN + 1,
            2 => sign * (37 + rng.u32(0..200) as i32),
            3 => 0,
            _ => sign * rng.u32(1..4) as i32,
        };
        (run, level)
    }

    #[test]
    fn run_level_pairs_match_reference_at_every_cut() {
        for_cases(100, "run-level", |rng| {
            let pairs: Vec<(u32, i32)> = (0..rng.usize(1..24)).map(|_| arb_pair(rng)).collect();
            // 0..8 bits ahead of the pairs put every code at every bit
            // offset in its byte, and cutting after every byte puts the end
            // of the stream at every distance from every code.
            for lead in 0..8u32 {
                let mut w = BitWriter::new();
                w.put_bits(rng.u32(0..1 << lead), lead);
                for &(run, level) in &pairs {
                    w.put_ue(run);
                    w.put_se(level);
                }
                let whole = w.finish();
                for cut in 0..=whole.len() {
                    let data = &whole[..cut];
                    let mut fast = crate::bitstream::BitReader::new(data);
                    let mut slow = BitReader::new(data);
                    let skipped = fast.get_bits(lead);
                    assert_eq!(skipped, slow.get_bits(lead));
                    if skipped.is_err() {
                        continue;
                    }
                    // Every written pair, then on past them (padding, then
                    // the end), until the stream gives out.
                    let on = [(0, 0); 3];
                    for (i, &pair) in pairs.iter().chain(&on).enumerate() {
                        let got = read_pair(&mut fast);
                        assert_eq!(got, read_pair_slow(&mut slow), "lead {lead} cut {cut}");
                        match got {
                            // The codes are prefix-free: a cut never turns
                            // one pair into another.
                            Ok(got) if i < pairs.len() => assert_eq!(got, pair),
                            Ok(_) => {}
                            Err(_) => break,
                        }
                        assert_eq!(fast.remaining_bits(), slow.remaining_bits());
                    }
                }
            }
        });
    }

    /// Applies `op` with `magnitude` to both writers and checks they agree
    /// on the length of the stream so far.
    fn put_both(fast: &mut BitWriter, slow: &mut BitwiseWriter, op: Op, magnitude: u32) {
        match op {
            Op::Bits(n) => {
                let value = magnitude & ((1u64 << n) - 1) as u32;
                fast.put_bits(value, n);
                slow.put_bits(value, n);
            }
            Op::Bit => {
                fast.put_bit(magnitude & 1 == 1);
                slow.put_bit(magnitude & 1 == 1);
            }
            Op::Ue => {
                fast.put_ue(magnitude.min(u32::MAX - 1));
                slow.put_ue(magnitude.min(u32::MAX - 1));
            }
            Op::Se => {
                fast.put_se(magnitude as i32);
                slow.put_se(magnitude as i32);
            }
        }
        assert_eq!(fast.byte_len(), slow.byte_len(), "after {op:?} {magnitude}");
    }

    #[test]
    fn bit_writer_matches_reference_after_every_write() {
        for_cases(600, "bitwriter", |rng| {
            let mut fast = BitWriter::new();
            let mut slow = BitwiseWriter::default();
            assert_eq!(fast.byte_len(), 0);
            for _ in 0..rng.usize(0..120) {
                let magnitude = match rng.u32(0..4) {
                    0 => rng.u32(0..4),
                    1 => rng.u32(0..1 << 12),
                    2 => rng.u32(0..1 << 28),
                    _ => rng.u32(0..u32::MAX),
                };
                put_both(&mut fast, &mut slow, arb_op(rng), magnitude);
            }
            assert_eq!(fast.finish(), slow.finish());
        });
    }

    #[test]
    fn run_level_writes_match_two_reference_codes() {
        let (mut fast, mut slow) = (BitWriter::new(), BitwiseWriter::default());
        let mut put = |run: u32, level: i32| {
            fast.put_run_level(run, level);
            slow.put_ue(run);
            slow.put_se(level);
            assert_eq!(fast.byte_len(), slow.byte_len(), "after ({run}, {level})");
        };
        // The code table whole, and its four sides from outside.
        for run in 0..20 {
            for level in -20..=20 {
                put(run, level);
            }
        }
        for_cases(100, "put-run-level", |rng| {
            for _ in 0..rng.usize(1..24) {
                let (run, level) = arb_pair(rng);
                put(run, level);
            }
        });
        assert_eq!(fast.finish(), slow.finish());
    }

    #[test]
    fn forward_matches_the_1024_multiply_form() {
        for_cases(10_000, "forward", |rng| {
            // Residuals of a flat, a smooth and a noisy block, and the
            // widest input the transform documents.
            let amp: i32 = [1, 4, 32, 255, 1 << 16][rng.usize(0..5)];
            let base = rng.u32(0..2 * amp as u32 + 1) as i32 - amp;
            let mut block = [0i32; BLOCK_AREA];
            for (i, v) in block.iter_mut().enumerate() {
                *v = match rng.u32(0..3) {
                    0 => base,
                    1 => base * (i / BLOCK + i % BLOCK) as i32 / 14,
                    _ => rng.u32(0..2 * amp as u32 + 1) as i32 - amp,
                };
            }
            assert_eq!(crate::dct::forward(&block), forward(&block), "{block:?}");
        });
    }

    /// What a coded block starts from: a residual, or (to reach values no
    /// transform of 8-bit samples produces) its coefficients.
    #[derive(Debug, Clone, Copy)]
    enum BlockInput {
        Residual([i32; BLOCK_AREA]),
        Coefs([i32; BLOCK_AREA]),
    }

    /// Codes one block at `qp` with the product path and with the reference,
    /// `lead` bits into the stream and with a marker behind it, and checks
    /// the two write the same bits and hand back the same residual. Returns
    /// whether the block was coded.
    fn code_both(qp: u8, input: BlockInput, lead: u32) -> bool {
        // The coder's accumulator has finished another block, past 2²⁰.
        let mut coder = BlockCoder::new(qstep(qp));
        let stale = std::array::from_fn(|i| (i as i32 - 30) << 20);
        let stale = coder.code_levels(&mut BitWriter::new(), &stale);
        assert!(stale.map(Inverse::finish).is_some());
        let mut fast = BitWriter::new();
        let mut slow = BitwiseWriter::default();
        fast.put_bits((1u64 << lead) as u32 >> 1, lead);
        slow.put_bits((1u64 << lead) as u32 >> 1, lead);
        let (got, want) = match input {
            BlockInput::Residual(r) => (
                coder.code(&mut fast, &r).map(Inverse::finish),
                code_coefficients(&mut slow, &r, qstep(qp)),
            ),
            BlockInput::Coefs(c) => (
                coder.code_levels(&mut fast, &c).map(Inverse::finish),
                code_levels(&mut slow, c, qstep(qp)),
            ),
        };
        assert_eq!(got, want, "qp {qp} {input:?}: residual");
        assert_eq!(fast.byte_len(), slow.byte_len(), "qp {qp} {input:?}");
        fast.put_ue(5);
        slow.put_ue(5);
        assert_eq!(fast.finish(), slow.finish(), "qp {qp} {input:?}: bits");
        got.is_some()
    }

    #[test]
    fn coded_blocks_match_reference_at_every_qp() {
        let (mut coded, mut uncoded) = (0u32, 0u32);
        for qp in 0..=51 {
            assert!(!code_both(qp, BlockInput::Residual([0; BLOCK_AREA]), 0));
        }
        for_cases(200, "coded-block", |rng| {
            for qp in 0..=51 {
                // Flat, smooth and noisy residuals in the range a difference
                // of two 8-bit samples has.
                let amp: i32 = [1, 3, 12, 60, 255][rng.usize(0..5)];
                let base = rng.u32(0..2 * amp as u32 + 1) as i32 - amp;
                let noise = [0, 1, amp][rng.usize(0..3)];
                let (gx, gy) = (rng.u32(0..9) as i32 - 4, rng.u32(0..9) as i32 - 4);
                let mut residual = [0i32; BLOCK_AREA];
                for (i, v) in residual.iter_mut().enumerate() {
                    let ramp = (gx * (i % BLOCK) as i32 + gy * (i / BLOCK) as i32) * amp / 28;
                    let n = rng.u32(0..2 * noise as u32 + 1) as i32 - noise;
                    *v = (base + ramp + n).clamp(-255, 255);
                }
                if code_both(qp, BlockInput::Residual(residual), rng.u32(0..33)) {
                    coded += 1;
                } else {
                    uncoded += 1;
                }
            }
        });
        assert!(coded > 2000 && uncoded > 500, "{coded} / {uncoded}");
    }

    #[test]
    fn single_and_extreme_coefficients_match_reference_at_every_qp() {
        for qp in 0..=51 {
            let q = qstep(qp);
            // Both sides of the dead zone and of the next rounding step,
            // levels past any code table, and the ends of the `i32` range.
            // (`i32::MIN` at step 1 is left out: the old path's sign multiply
            // overflows there.)
            let mags = [
                (q - 1) / 2,
                q / 2,
                q / 2 + 1,
                q,
                (3 * q - 1) / 2,
                3 * q / 2 + 1,
                17 * q,
                4000 * q + 1,
                1 << 30,
                i32::MAX,
            ];
            for at in 0..BLOCK_AREA {
                for mag in mags {
                    for v in [mag, -mag] {
                        let mut coefs = [0i32; BLOCK_AREA];
                        coefs[at] = v;
                        let coded = code_both(qp, BlockInput::Coefs(coefs), at as u32 % 33);
                        assert_eq!(coded, 2 * mag as i64 >= q as i64, "qp {qp} at {at}: {v}");
                    }
                }
            }
            // Dense blocks of extremes: every pair takes the long codes.
            let mut lo = [i32::MIN + 1; BLOCK_AREA];
            let mut mixed = [0i32; BLOCK_AREA];
            for (i, v) in mixed.iter_mut().enumerate() {
                *v = [1 << 30, -(1 << 30), i32::MAX, 0, i32::MIN + 1, q, -q / 2][i % 7];
            }
            assert!(code_both(qp, BlockInput::Coefs(mixed), 7));
            assert!(code_both(qp, BlockInput::Coefs(lo), 31));
            if q > 1 {
                lo[ZIGZAG[63]] = i32::MIN;
                lo[0] = i32::MIN;
                assert!(code_both(qp, BlockInput::Coefs(lo), 13));
            }
        }
    }

    /// Random clip: textured background, a moving textured square, a patch
    /// of fresh noise — SKIP, INTER and INTRA blocks all occur.
    fn arb_clip(rng: &mut Rng, w: u32, h: u32, frames: u32) -> Vec<Frame> {
        let phase = rng.u32(0..64);
        let (dx, dy) = (rng.u32(0..4), rng.u32(0..3));
        (0..frames)
            .map(|t| {
                let mut f = Frame::filled(w, h, 0, 110, 150);
                for y in 0..h {
                    for x in 0..w {
                        let v = (x * 5 + y * 3 + phase) % 160 + 40 + (x * 7 + y * 13) % 5;
                        f.set_sample(Plane::Y, x, y, v as u8);
                    }
                }
                f.fill_rect(
                    Rect::new(((dx * t) % (w - 8)) & !1, ((dy * t) % (h - 8)) & !1, 8, 8),
                    215,
                    90,
                    170,
                );
                for y in 0..8.min(h) {
                    for x in 0..8.min(w) {
                        f.set_sample(Plane::Y, w - 1 - x, y, rng.u32(0..256) as u8);
                    }
                }
                f
            })
            .collect()
    }

    fn arb_config(rng: &mut Rng) -> EncoderConfig {
        EncoderConfig {
            gop_len: rng.u32(1..6),
            qp: rng.u32(0..52) as u8,
            search_range: rng.u32(0..8) as u8,
            deblock: rng.u32(0..2) == 0,
            rate: if rng.u32(0..3) == 0 {
                RateControl::TargetRate {
                    millibits_per_sample: rng.u32(50..800),
                }
            } else {
                RateControl::ConstantQp
            },
        }
    }

    /// A tile as both decoders take it: its size, whether the deblocking
    /// filter is on, and whether its P-frames are in the v2 block syntax.
    #[derive(Debug, Clone, Copy)]
    struct Geom {
        width: u32,
        height: u32,
        deblock: bool,
        skip_runs: bool,
    }

    fn geom(width: u32, height: u32, deblock: bool, skip_runs: bool) -> Geom {
        Geom {
            width,
            height,
            deblock,
            skip_runs,
        }
    }

    /// The fast decoder of `tile`.
    fn fast_decoder(tile: Geom) -> TileDecoder {
        TileDecoder::new(tile.width, tile.height, tile.deblock).with_skip_runs(tile.skip_runs)
    }

    /// Decodes `data` with the fast path and the reference and checks they
    /// agree: the same frame, or the same error.
    fn decode_both(
        tile: Geom,
        data: &[u8],
        is_key: bool,
        qp: u8,
        prev: Option<&Frame>,
    ) -> Result<Frame, DecodeError> {
        census_both(tile, data, is_key, qp, prev).map(|(frame, _)| frame)
    }

    /// [`decode_both`], and the reference's census of the frame's blocks.
    fn census_both(
        tile: Geom,
        data: &[u8],
        is_key: bool,
        qp: u8,
        prev: Option<&Frame>,
    ) -> Result<(Frame, Census), DecodeError> {
        let fast = fast_decoder(tile).decode_against(data, is_key, qp, prev, None);
        let Geom {
            width,
            height,
            deblock,
            skip_runs,
        } = tile;
        let slow = decode_frame(width, height, deblock, skip_runs, data, is_key, qp, prev);
        let census = slow.as_ref().ok().map(|&(_, census)| census);
        let slow = slow.map(|(frame, _)| frame);
        assert!(
            fast == slow,
            "fast path and reference disagree: {:?} vs {:?}",
            fast.as_ref().err(),
            slow.as_ref().err()
        );
        fast.map(|frame| (frame, census.expect("the reference decoded it too")))
    }

    /// Truncations, bit flips and a different QP of one frame, each decoded
    /// by both decoders in `tile`'s syntax and, for a P-frame, in the other
    /// one too: the same outcome, never a panic. Then garbage, as a
    /// keyframe and as a P-frame against `good`. Adds to `(errors,
    /// survivors)`.
    #[allow(clippy::too_many_arguments)]
    fn corrupt_both(
        rng: &mut Rng,
        tile: Geom,
        data: &[u8],
        is_key: bool,
        qp: u8,
        prev: Option<&Frame>,
        good: &Frame,
        tally: &mut (u32, u32),
    ) {
        let other = Geom {
            skip_runs: !tile.skip_runs,
            ..tile
        };
        for _ in 0..12 {
            let mut bad = data.to_vec();
            let qp = match rng.u32(0..4) {
                0 => {
                    bad.truncate(rng.usize(0..bad.len() + 1));
                    qp
                }
                1 => rng.u32(0..52) as u8,
                _ => {
                    for _ in 0..rng.u32(1..4) {
                        let at = rng.usize(0..bad.len());
                        bad[at] ^= 1 << rng.u32(0..8);
                    }
                    qp
                }
            };
            match decode_both(tile, &bad, is_key, qp, prev) {
                Ok(_) => tally.1 += 1,
                Err(_) => tally.0 += 1,
            }
            if !is_key {
                let _ = decode_both(other, &bad, is_key, qp, prev);
            }
        }
        let garbage: Vec<u8> = (0..rng.usize(0..200))
            .map(|_| rng.u32(0..256) as u8)
            .collect();
        for tile in [tile, other] {
            let _ = decode_both(tile, &garbage, true, qp, None);
            let _ = decode_both(tile, &garbage, false, qp, Some(good));
        }
    }

    #[test]
    fn frame_decode_matches_reference_on_valid_and_corrupt_streams() {
        let mut tally = (0u32, 0u32);
        for_cases(40, "frame-decode", |rng| {
            let w = rng.u32(1..5) * 16;
            let h = rng.u32(1..4) * 16;
            let cfg = arb_config(rng);
            let frames = rng.u32(2..8);
            let clip = arb_clip(rng, w, h, frames);
            let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, w, h));
            let tile = geom(w, h, cfg.deblock, true);
            let mut prev: Option<Frame> = None;
            for src in &clip {
                let ef = enc.encode_next(src);
                let (good, census) = census_both(tile, &ef.data, ef.is_key, ef.qp, prev.as_ref())
                    .expect("encoder output decodes");
                // A zero-vector block with nothing coded is written as a SKIP.
                assert_eq!(census[1], 0, "{census:?}");
                // Recycling a spent buffer changes nothing.
                let recycled = fast_decoder(tile)
                    .decode_against(
                        &ef.data,
                        ef.is_key,
                        ef.qp,
                        prev.as_ref(),
                        Some(Frame::filled(w, h, 9, 9, 9)),
                    )
                    .unwrap();
                assert!(recycled == good, "recycling a buffer changed the frame");
                let (data, qp) = (&ef.data, ef.qp);
                corrupt_both(
                    rng,
                    tile,
                    data,
                    ef.is_key,
                    qp,
                    prev.as_ref(),
                    &good,
                    &mut tally,
                );
                assert_eq!(
                    decode_both(tile, &ef.data, false, ef.qp, None),
                    Err(DecodeError::MissingReference)
                );
                prev = Some(good);
            }
        });
        let (errors, survivors) = tally;
        assert!(errors > 100 && survivors > 100, "{errors} / {survivors}");
    }

    /// A tile in the v1 block syntax, as the encoder wrote them before SKIP
    /// runs (`tests/golden.rs` pins its planes).
    const TILE_V1: &[u8] = include_bytes!("../testdata/tile_v1.tvf");

    /// The v1 fixture holds every kind of P-frame block, and it and its
    /// corruptions decode alike on both decoders, in its own syntax and in
    /// v2's.
    #[test]
    fn a_v1_tile_and_its_corruptions_match_reference() {
        let v1 = crate::TileVideo::from_bytes(TILE_V1.to_vec()).unwrap();
        let tile = geom(v1.width(), v1.height(), v1.deblock(), v1.skip_runs());
        assert!(!tile.skip_runs);
        let mut tally = (0u32, 0u32);
        let mut total = Census::default();
        for_cases(4, "tile-v1", |rng| {
            let mut prev: Option<Frame> = None;
            total = Census::default();
            for i in 0..v1.frame_count() {
                let ef = v1.frame(i).unwrap();
                let (good, census) = census_both(tile, ef.data, ef.is_key, ef.qp, prev.as_ref())
                    .expect("the fixture decodes");
                for (sum, n) in total.iter_mut().zip(census) {
                    *sum += n;
                }
                corrupt_both(
                    rng,
                    tile,
                    ef.data,
                    ef.is_key,
                    ef.qp,
                    prev.as_ref(),
                    &good,
                    &mut tally,
                );
                prev = Some(good);
            }
        });
        // SKIP, zero vector without and with a residual, moved, intra.
        assert_eq!(total, [740, 43, 59, 83, 35]);
        let (errors, survivors) = tally;
        assert!(errors > 50 && survivors > 20, "{errors} / {survivors}");
    }

    /// Hand-built streams for the corrupt values random flips rarely reach,
    /// in both block syntaxes. A v2 P-frame block is v1's behind a SKIP run
    /// of zero (`put_ue(0)`) where the mode numbers agree (1 and 2).
    #[test]
    fn extreme_syntax_values_are_typed_errors_or_exact() {
        let reference = Frame::filled(16, 16, 100, 128, 128);
        for skip_runs in [false, true] {
            let tile = geom(16, 16, true, skip_runs);
            let run = |w: &mut BitWriter| {
                if skip_runs {
                    w.put_ue(0);
                }
            };
            // A motion vector at the i32 limits: outside the tile, not
            // wrapped into it.
            for mv in [i32::MAX, i32::MIN + 1, i32::MAX - 3, -9, 9] {
                let mut w = BitWriter::new();
                run(&mut w);
                w.put_ue(1);
                w.put_se(mv);
                w.put_se(0);
                let data = w.finish();
                assert_eq!(
                    decode_both(tile, &data, false, 28, Some(&reference)),
                    Err(DecodeError::InvalidSyntax("motion vector outside tile"))
                );
            }
            // Levels at the i32 limits saturate through the dequantizer and
            // wrap in the final sum: pixels still agree, nothing panics.
            for level in [i32::MAX, i32::MIN + 1, 1 << 30, -(1 << 30)] {
                for qp in [0u8, 28, 51] {
                    let mut w = BitWriter::new();
                    for block in 0..6 {
                        w.put_bit(true);
                        w.put_ue(1); // two coefficients
                        w.put_ue(block % 3);
                        w.put_se(level);
                        w.put_ue(block);
                        w.put_se(-level);
                    }
                    let data = w.finish();
                    decode_both(tile, &data, true, qp, None).expect("a valid keyframe");
                }
            }
            // Unknown modes, overlong coefficient count, run past the
            // block, a zero level, a 32-zero prefix.
            type Build<'a> = &'a dyn Fn(&mut BitWriter);
            let cases: [(Build<'_>, DecodeError); 6] = [
                (
                    &|w| w.put_ue(3),
                    DecodeError::InvalidSyntax("unknown block mode"),
                ),
                (
                    &|w| w.put_ue(1000),
                    DecodeError::InvalidSyntax("unknown block mode"),
                ),
                (
                    &|w| {
                        w.put_ue(2);
                        w.put_bit(true);
                        w.put_ue(64);
                    },
                    DecodeError::InvalidSyntax("too many coefficients"),
                ),
                (
                    &|w| {
                        w.put_ue(2);
                        w.put_bit(true);
                        w.put_ue(0);
                        w.put_ue(64);
                    },
                    DecodeError::InvalidSyntax("coefficient run overflows block"),
                ),
                (
                    &|w| {
                        w.put_ue(2);
                        w.put_bit(true);
                        w.put_ue(0);
                        w.put_ue(0);
                        w.put_se(0);
                    },
                    DecodeError::InvalidSyntax("zero level coded as nonzero"),
                ),
                (
                    &|w| {
                        w.put_bits(0, 32);
                        w.put_bits(0, 32);
                        w.put_bits(u32::MAX, 32);
                    },
                    DecodeError::Bitstream(BitstreamError::CodeTooLong),
                ),
            ];
            for (build, want) in cases {
                let mut w = BitWriter::new();
                run(&mut w);
                build(&mut w);
                // Padding, so the window path (not the tail path) sees the
                // code.
                w.put_bits(u32::MAX, 32);
                w.put_bits(u32::MAX, 32);
                w.put_bits(u32::MAX, 32);
                let data = w.finish();
                assert_eq!(
                    decode_both(tile, &data, false, 28, Some(&reference)),
                    Err(want)
                );
            }
        }
    }

    /// The v2 prefix's own edges: SKIP runs past the plane's end (by one,
    /// and near `u32::MAX`, which must not wrap into range), a stream cut
    /// inside a run, a zero-vector block cut before its residual, and runs
    /// that reach each plane's end exactly.
    #[test]
    fn skip_runs_at_their_edges_are_typed_errors_or_exact() {
        // 16×16: four luma blocks, one in each chroma plane.
        let tile = geom(16, 16, true, true);
        let reference = Frame::filled(16, 16, 100, 128, 128);
        let past_end = DecodeError::InvalidSyntax("SKIP run past the plane's end");
        let eof = DecodeError::Bitstream(BitstreamError::UnexpectedEof);
        type Build<'a> = &'a dyn Fn(&mut BitWriter);
        let cases: [(Build<'_>, Result<(), DecodeError>); 9] = [
            (&|w| w.put_ue(5), Err(past_end.clone())),
            (&|w| w.put_ue(u32::MAX - 1), Err(past_end.clone())),
            (
                &|w| {
                    w.put_ue(3); // to the last luma block, coded
                    w.put_ue(1);
                    w.put_se(-8);
                    w.put_se(0);
                    w.put_bit(false);
                    w.put_ue(2); // one past the end of U
                },
                Err(past_end.clone()),
            ),
            (&|w| w.put_bits(0, 8), Err(eof.clone())),
            (
                &|w| {
                    w.put_ue(0);
                    w.put_ue(0); // zero vector, residual implied but cut off
                },
                Err(eof.clone()),
            ),
            (
                &|w| {
                    w.put_ue(1);
                    w.put_ue(0);
                    w.put_ue(0); // one coefficient
                    w.put_ue(0);
                    w.put_se(0);
                },
                Err(DecodeError::InvalidSyntax("zero level coded as nonzero")),
            ),
            // Every block SKIP: one run per plane.
            (
                &|w| {
                    w.put_ue(4);
                    w.put_ue(1);
                    w.put_ue(1);
                },
                Ok(()),
            ),
            // The last block of each plane coded, so no run ends the plane.
            (
                &|w| {
                    w.put_ue(3);
                    w.put_ue(2);
                    w.put_bit(false);
                    for _ in 0..2 {
                        w.put_ue(0);
                        w.put_ue(0);
                        w.put_ue(0);
                        w.put_ue(0);
                        w.put_se(3);
                    }
                },
                Ok(()),
            ),
            // A moved block with nothing coded, and a zero-vector one sent
            // as mode 1: legal, if the encoder writes neither.
            (
                &|w| {
                    w.put_ue(1);
                    w.put_ue(1);
                    w.put_se(-8);
                    w.put_se(0);
                    w.put_bit(false);
                    w.put_ue(0);
                    w.put_ue(1);
                    w.put_se(0);
                    w.put_se(0);
                    w.put_bit(false);
                    w.put_ue(1);
                    w.put_ue(1);
                    w.put_ue(1);
                },
                Ok(()),
            ),
        ];
        for (i, (build, want)) in cases.iter().enumerate() {
            let mut w = BitWriter::new();
            build(&mut w);
            let bare = w.finish();
            let got = decode_both(tile, &bare, false, 28, Some(&reference));
            assert_eq!(got.map(|_| ()), *want, "case {i}");
        }
        // A run cut off inside its code, and whole.
        let mut w = BitWriter::new();
        w.put_ue(300);
        let data = w.finish();
        for cut in 1..data.len() {
            let got = decode_both(tile, &data[..cut], false, 28, Some(&reference));
            assert_eq!(got, Err(eof.clone()), "cut at {cut}");
        }
        let got = decode_both(tile, &data, false, 28, Some(&reference));
        assert_eq!(got, Err(past_end));
    }

    /// Writes one coded residual: the flag, the count as coded (`nnz - 1`)
    /// and the pairs.
    fn put_residual(w: &mut BitWriter, nnz_code: u32, pairs: &[(u32, i32)]) {
        w.put_bit(true);
        w.put_ue(nnz_code);
        for &(run, level) in pairs {
            w.put_ue(run);
            w.put_se(level);
        }
    }

    /// Hand-built coefficient lists at the edges of `read_residual`'s checks,
    /// each with padding behind it and again as the last bits of the stream.
    #[test]
    fn constructed_residual_blocks_are_typed_errors_or_exact() {
        let tile = geom(16, 16, true, true);
        let zero_level = DecodeError::InvalidSyntax("zero level coded as nonzero");
        let overflow = DecodeError::InvalidSyntax("coefficient run overflows block");
        let eof = DecodeError::Bitstream(BitstreamError::UnexpectedEof);
        let full: Vec<(u32, i32)> = (0..64)
            .map(|i| (0, if i % 3 == 0 { -1 } else { 1 }))
            .collect();
        let mut full_but_one_run = full.clone();
        full_but_one_run[63].0 = 1;
        // (coded count, pairs, outcome with padding behind, outcome at the
        // end of the stream). `None`: the block is valid, so what follows
        // decides — more blocks from the padding, or the end.
        type Case<'a> = (
            u32,
            &'a [(u32, i32)],
            Option<&'a DecodeError>,
            &'a DecodeError,
        );
        let cases: [Case<'_>; 10] = [
            // A zero level by the shortest code, after a short run, after a
            // run no table holds, and as the second pair.
            (0, &[(0, 0)], Some(&zero_level), &zero_level),
            (0, &[(5, 0)], Some(&zero_level), &zero_level),
            (0, &[(40, 0)], Some(&zero_level), &zero_level),
            (1, &[(2, -1), (0, 0)], Some(&zero_level), &zero_level),
            // The last coefficient at position 63, and one past it.
            (1, &[(62, 1), (0, 1)], None, &eof),
            (1, &[(62, 1), (1, 1)], Some(&overflow), &overflow),
            (0, &[(64, 1)], Some(&overflow), &overflow),
            // All 64 coefficients, and a run among them.
            (63, &full, None, &eof),
            (63, &full_but_one_run, Some(&overflow), &overflow),
            // The run is checked before the level is read: an overflowing
            // run with no level behind it is the run's error, not the end's.
            (1, &[(62, 1), (1, 0)], Some(&overflow), &overflow),
        ];
        for (nnz_code, pairs, padded, at_end) in cases {
            let mut w = BitWriter::new();
            put_residual(&mut w, nnz_code, pairs);
            let bare = w.finish();
            assert_eq!(
                decode_both(tile, &bare, true, 28, None).as_ref().err(),
                Some(at_end),
                "{pairs:?} at the end of the stream"
            );
            let mut w = BitWriter::new();
            put_residual(&mut w, nnz_code, pairs);
            // Uncoded blocks behind it: a valid frame if the block is.
            w.put_bits(0, 32);
            let padded_data = w.finish();
            assert_eq!(
                decode_both(tile, &padded_data, true, 28, None)
                    .as_ref()
                    .err(),
                padded,
                "{pairs:?} with padding"
            );
        }
        // An overflowing run as the very last bits: its level cannot be
        // read, and must not be tried.
        for run in [1u32, 64, 300] {
            let mut w = BitWriter::new();
            put_residual(&mut w, 1, &[(62, 1)]);
            w.put_ue(run);
            let data = w.finish();
            assert_eq!(
                decode_both(tile, &data, true, 28, None),
                Err(overflow.clone()),
                "run {run}"
            );
        }
    }

    /// Blocks of mixed short and long pairs behind 0..64 SKIP blocks, so
    /// pairs start at many bit offsets of the reader's window (at every one
    /// in v1, where a SKIP is one bit) and some straddle each refill; whole,
    /// and cut after every byte.
    #[test]
    fn residuals_at_every_window_offset_match_reference() {
        let (w, h) = (128u32, 64u32);
        let reference = Frame::filled(w, h, 90, 120, 140);
        for skip_runs in [false, true] {
            let tile = geom(w, h, false, skip_runs);
            // `n` SKIP blocks, in the tile's syntax.
            let skips = |bits: &mut BitWriter, n: u32| match skip_runs {
                true => bits.put_ue(n),
                false => (0..n).for_each(|_| bits.put_ue(0)),
            };
            for_cases(2, "window-offsets", |rng| {
                for lead in 0..64u32 {
                    let mut bits = BitWriter::new();
                    skips(&mut bits, lead);
                    for block in 0..6 {
                        if block > 0 && skip_runs {
                            bits.put_ue(0);
                        }
                        bits.put_ue(2); // INTRA
                        let big = 37 + rng.u32(0..200) as i32;
                        let mut small = || [-3, -2, -1, 1, 2, 3][rng.usize(0..6)];
                        let pairs = [
                            (0, small() * 3),
                            (1, small()),
                            (37, big),
                            (0, -big),
                            (2, small()),
                            (0, small()),
                            (5, -37),
                            (0, small()),
                        ];
                        put_residual(&mut bits, pairs.len() as u32 - 1, &pairs);
                    }
                    // SKIP to the end of the frame: 128 luma blocks and 32
                    // in each chroma plane.
                    for n in [128 - lead - 6, 32, 32] {
                        skips(&mut bits, n);
                    }
                    let data = bits.finish();
                    decode_both(tile, &data, false, 28, Some(&reference)).expect("a valid P-frame");
                    for cut in 0..data.len() {
                        let _ = decode_both(tile, &data[..cut], false, 28, Some(&reference));
                    }
                }
            });
        }
    }
}
