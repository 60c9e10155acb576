//! The tile decoder, mirroring [`crate::encoder`] bit-exactly.
//!
//! In the P-frame block syntax every encode writes (v2), each coded block
//! follows a `ue` run of SKIP blocks and its `ue(mode)` is 0 for INTER at
//! the zero vector with a residual, 1 for INTER with a vector, 2 for INTRA.
//! In v1, which older tiles hold, every block has a mode, 0 being SKIP.
//! `FORMAT.md` gives both, byte by byte.

use crate::bitstream::{BitReader, BitstreamError};
use crate::blockops::{
    copy_block, dc_predict, fill_block, reconstruct_flat, reconstruct_inter, ZIGZAG,
};
use crate::dct::{Inverse, BLOCK, BLOCK_AREA};
use crate::deblock::deblock_frame;
use crate::grid::TILE_ALIGN;
use crate::quant::{dequantize, qstep};
use tasm_video::{Frame, Plane};

/// Errors surfaced while decoding a tile bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The entropy layer failed (truncated or corrupt stream).
    Bitstream(BitstreamError),
    /// A syntax element held an impossible value.
    InvalidSyntax(&'static str),
    /// A P-frame arrived before any keyframe.
    MissingReference,
    /// The lossless (predict + entropy-code) codec path failed.
    Lossless(String),
}

impl From<BitstreamError> for DecodeError {
    fn from(e: BitstreamError) -> Self {
        DecodeError::Bitstream(e)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Bitstream(e) => write!(f, "bitstream error: {e}"),
            DecodeError::InvalidSyntax(what) => write!(f, "invalid syntax: {what}"),
            DecodeError::MissingReference => {
                write!(f, "P-frame encountered with no prior keyframe")
            }
            DecodeError::Lossless(what) => write!(f, "lossless codec error: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Streaming decoder for one tile's bitstream.
pub struct TileDecoder {
    width: u32,
    height: u32,
    deblock: bool,
    /// P-frames code SKIP blocks as runs, as the encoder writes them.
    skip_runs: bool,
    recon_prev: Option<Frame>,
}

impl TileDecoder {
    /// Creates a decoder for a tile of the given dimensions and deblock
    /// setting (both recorded in the container header).
    pub fn new(width: u32, height: u32, deblock: bool) -> Self {
        TileDecoder {
            width,
            height,
            deblock,
            skip_runs: true,
            recon_prev: None,
        }
    }

    /// The decoder for P-frames in the block syntax `skip_runs` names, as
    /// a tile's header records it ([`crate::TileVideo::skip_runs`]).
    pub(crate) fn with_skip_runs(self, skip_runs: bool) -> Self {
        TileDecoder { skip_runs, ..self }
    }

    /// Creates a decoder primed with a reference reconstruction, so decoding
    /// can *resume* mid-GOP: `reference` must be the decoder's output for
    /// the frame immediately preceding the next chunk fed in. Because the
    /// decode loop is deterministic and closed (each P-frame depends only on
    /// the previous reconstruction), resuming this way is bit-exact with a
    /// decode that started from the keyframe.
    pub fn with_reference(width: u32, height: u32, deblock: bool, reference: Frame) -> Self {
        assert_eq!(reference.width(), width, "reference width mismatch");
        assert_eq!(reference.height(), height, "reference height mismatch");
        TileDecoder {
            recon_prev: Some(reference),
            ..TileDecoder::new(width, height, deblock)
        }
    }

    /// Decodes the next frame chunk with an explicit per-frame QP (frames
    /// vary in QP under rate control; the container records each frame's).
    pub fn decode_next_qp(
        &mut self,
        data: &[u8],
        is_key: bool,
        qp: u8,
    ) -> Result<Frame, DecodeError> {
        let recon = self.decode_against(data, is_key, qp, self.recon_prev.as_ref(), None)?;
        // The caller owns the frame it gets and the decoder keeps its
        // reference, so this streaming form pays one copy per frame; span
        // decodes borrow the reference instead (`decode_against`).
        self.recon_prev = Some(recon.clone());
        Ok(recon)
    }

    /// Decodes one frame chunk against an explicit reference, leaving the
    /// decoder's own state alone: `prev` is the reconstruction of the frame
    /// before (required for a P-frame), wherever the caller keeps it.
    /// `recycle` may hand back a frame of the tile's size that is no longer
    /// needed; its allocation becomes the result's.
    ///
    /// A P-frame starts as one copy of its reference, so SKIP blocks — most
    /// of a typical P-frame — cost no pixel work at all.
    pub(crate) fn decode_against(
        &self,
        data: &[u8],
        is_key: bool,
        qp: u8,
        prev: Option<&Frame>,
        recycle: Option<Frame>,
    ) -> Result<Frame, DecodeError> {
        // A P-frame reads its reference; a keyframe ignores any it is given.
        let prev = match (is_key, prev) {
            (true, _) => None,
            (false, Some(prev)) => {
                assert_eq!(
                    (prev.width(), prev.height()),
                    (self.width, self.height),
                    "reference dimensions mismatch"
                );
                Some(prev)
            }
            (false, None) => return Err(DecodeError::MissingReference),
        };
        // Blocks are 8×8 in every plane and chroma is subsampled 2×2, so the
        // block loops below cover a plane exactly only for 16-aligned tiles
        // (the only kind an encoder produces).
        if !self.width.is_multiple_of(TILE_ALIGN) || !self.height.is_multiple_of(TILE_ALIGN) {
            return Err(DecodeError::InvalidSyntax(
                "tile dimensions are not 16-aligned",
            ));
        }
        let recycle = recycle.filter(|f| (f.width(), f.height()) == (self.width, self.height));
        let mut recon = match (prev, recycle) {
            // A keyframe writes every block, so stale samples in a recycled
            // frame never show.
            (None, recycle) => recycle.unwrap_or_else(|| Frame::black(self.width, self.height)),
            (Some(prev), None) => prev.clone(),
            (Some(prev), Some(mut frame)) => {
                for plane in Plane::ALL {
                    frame.plane_mut(plane).copy_from_slice(prev.plane(plane));
                }
                frame
            }
        };
        let mut r = BitReader::new(data);
        let qs = qstep(qp);
        // One accumulator for the frame: each coded block leaves it zeroed.
        let mut block = Inverse::default();
        for plane in Plane::ALL {
            let pw = recon.plane_width(plane) as usize;
            let ph = recon.plane_height(plane) as usize;
            let samples = recon.plane_mut(plane);
            match prev {
                None => decode_key_plane(&mut r, &mut block, samples, pw, ph, qs)?,
                Some(prev) => decode_inter_plane(
                    &mut r,
                    &mut block,
                    samples,
                    prev.plane(plane),
                    (pw, ph),
                    qs,
                    self.skip_runs,
                )?,
            }
        }
        if self.deblock {
            deblock_frame(&mut recon, qs);
        }
        Ok(recon)
    }
}

/// Decodes one plane of a keyframe: every block is intra, no mode symbol.
fn decode_key_plane(
    r: &mut BitReader<'_>,
    block: &mut Inverse,
    recon: &mut [u8],
    pw: usize,
    ph: usize,
    qs: i32,
) -> Result<(), DecodeError> {
    for y in (0..ph).step_by(BLOCK) {
        for x in (0..pw).step_by(BLOCK) {
            decode_intra_block(r, block, recon, pw, x, y, qs)?;
        }
    }
    Ok(())
}

/// Decodes one `pw`×`ph` plane of a P-frame. `recon` arrives holding the
/// reference's samples, which is already every SKIP block's outcome, so a
/// SKIP costs only its parse. The two block syntaxes differ in the prefix
/// that finds the next coded block: with `skip_runs` (v2), a `ue` count of
/// the SKIP blocks before it; in v1, one `1` bit (`ue(0)`) per SKIP block,
/// taken a window at a time. Their modes agree but for 0.
fn decode_inter_plane(
    r: &mut BitReader<'_>,
    block: &mut Inverse,
    recon: &mut [u8],
    prev: &[u8],
    (pw, ph): (usize, usize),
    qs: i32,
    skip_runs: bool,
) -> Result<(), DecodeError> {
    let blocks_x = pw / BLOCK;
    let blocks = blocks_x * (ph / BLOCK);
    let mut b = 0;
    while b < blocks {
        b += if skip_runs {
            let run = r.get_ue()? as usize;
            if run > blocks - b {
                return Err(DecodeError::InvalidSyntax("SKIP run past the plane's end"));
            }
            run
        } else {
            r.take_ones(blocks - b)
        };
        if b == blocks {
            break;
        }
        let mode = r.get_ue()?;
        if mode == 0 && !skip_runs {
            // A v1 SKIP: `take_ones` leaves none behind, but it is legal.
            b += 1;
            continue;
        }
        let x = b % blocks_x * BLOCK;
        let y = b / blocks_x * BLOCK;
        match mode {
            // INTER: at the zero vector with a residual (v2's mode 0, whose
            // coded-block flag is implied), or a vector and a residual.
            0 | 1 => {
                let (mvx, mvy) = match mode {
                    0 => (0, 0),
                    _ => (r.get_se()?, r.get_se()?),
                };
                // In i64: a corrupt vector near the i32 limits must fail
                // the range check, not wrap into range.
                let rx = x as i64 + mvx as i64;
                let ry = y as i64 + mvy as i64;
                if rx < 0
                    || ry < 0
                    || rx + BLOCK as i64 > pw as i64
                    || ry + BLOCK as i64 > ph as i64
                {
                    return Err(DecodeError::InvalidSyntax("motion vector outside tile"));
                }
                let (rx, ry) = (rx as usize, ry as usize);
                let coded = match mode {
                    0 => read_levels(r, block, qs).map(|()| true)?,
                    _ => read_residual(r, block, qs)?,
                };
                if coded {
                    reconstruct_inter(recon, pw, x, y, prev, rx, ry, block);
                } else if (rx, ry) != (x, y) {
                    // At the zero vector the block already holds the copy.
                    copy_block(recon, pw, x, y, prev, pw, rx, ry);
                }
            }
            // INTRA fallback inside a P-frame.
            2 => decode_intra_block(r, block, recon, pw, x, y, qs)?,
            _ => return Err(DecodeError::InvalidSyntax("unknown block mode")),
        }
        b += 1;
    }
    Ok(())
}

/// Decodes one DC-predicted block: prediction from the reconstructed
/// neighbours inside the tile, plus the residual if one is coded.
fn decode_intra_block(
    r: &mut BitReader<'_>,
    block: &mut Inverse,
    recon: &mut [u8],
    stride: usize,
    x: usize,
    y: usize,
    qs: i32,
) -> Result<(), DecodeError> {
    let pred = dc_predict(recon, stride, x, y);
    if read_residual(r, block, qs)? {
        reconstruct_flat(recon, stride, x, y, pred, block);
    } else {
        fill_block(recon, stride, x, y, pred as u8);
    }
    Ok(())
}

/// Reads a coded-block flag and, if set, the block's coefficients
/// ([`read_levels`]): `true` means the block awaits its reconstruction,
/// `false` that no residual is coded.
fn read_residual(r: &mut BitReader<'_>, block: &mut Inverse, qs: i32) -> Result<bool, DecodeError> {
    if !r.get_bit()? {
        return Ok(false);
    }
    read_levels(r, block, qs)?;
    Ok(true)
}

/// Reads a coded block's coefficients, dequantized and added to `block`'s
/// inverse transform as they are parsed. A coefficient's `(run, level)`
/// pair is one table step where the table holds it; the others are read a
/// symbol at a time, and either way a run is checked before its level
/// counts, so errors come in the order the syntax has. (After an error the
/// frame is abandoned, and `block` with it.)
fn read_levels(r: &mut BitReader<'_>, block: &mut Inverse, qs: i32) -> Result<(), DecodeError> {
    let nnz = r.get_ue()? as usize + 1;
    if nnz > BLOCK_AREA {
        return Err(DecodeError::InvalidSyntax("too many coefficients"));
    }
    let mut pos = 0usize;
    for _ in 0..nnz {
        let pair = r.get_run_level();
        let run = match pair {
            Some((run, _)) => run,
            None => r.get_ue()?,
        };
        pos += run as usize;
        if pos >= BLOCK_AREA {
            return Err(DecodeError::InvalidSyntax(
                "coefficient run overflows block",
            ));
        }
        let level = match pair {
            Some((_, level)) => level,
            None => r.get_se()?,
        };
        if level == 0 {
            return Err(DecodeError::InvalidSyntax("zero level coded as nonzero"));
        }
        block.add(ZIGZAG[pos], dequantize(level, qs));
        pos += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncoderConfig, TileEncoder};
    use tasm_video::Rect;

    fn textured_frame(w: u32, h: u32, seed: u32) -> Frame {
        let mut f = Frame::black(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = ((x * 3 + y * 7 + seed * 13) % 200 + 20) as u8;
                f.set_sample(Plane::Y, x, y, v);
            }
        }
        for y in 0..h / 2 {
            for x in 0..w / 2 {
                f.set_sample(Plane::U, x, y, ((x + y + seed) % 128 + 64) as u8);
                f.set_sample(Plane::V, x, y, ((x * 2 + seed) % 128 + 64) as u8);
            }
        }
        f
    }

    /// Encoder and decoder must produce the same reconstruction — this is
    /// the fundamental closed-loop property of the codec.
    #[test]
    fn encode_decode_reconstruction_matches() {
        let cfg = EncoderConfig {
            gop_len: 4,
            qp: 28,
            ..Default::default()
        };
        let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 48, 32));
        let mut dec = TileDecoder::new(48, 32, cfg.deblock);
        for i in 0..10 {
            let frame = textured_frame(48, 32, i);
            let chunk = enc.encode_next(&frame);
            let out = dec
                .decode_next_qp(&chunk.data, chunk.is_key, cfg.qp)
                .unwrap();
            assert_eq!(out.width(), 48);
            assert_eq!(out.height(), 32);
            // Reconstruction should be within quantization error of source.
            let report = tasm_video::psnr_frames(&frame, &out);
            assert!(
                report.y > 28.0,
                "frame {i}: luma PSNR {:.1} too low",
                report.y
            );
        }
    }

    #[test]
    fn near_lossless_at_low_qp() {
        let cfg = EncoderConfig {
            gop_len: 2,
            qp: 4,
            deblock: false,
            ..Default::default()
        };
        let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 32, 32));
        let mut dec = TileDecoder::new(32, 32, false);
        for i in 0..4 {
            let frame = textured_frame(32, 32, i);
            let chunk = enc.encode_next(&frame);
            let out = dec
                .decode_next_qp(&chunk.data, chunk.is_key, cfg.qp)
                .unwrap();
            // qstep == 1 plus DCT rounding: every sample within ±2.
            for plane in Plane::ALL {
                for (a, b) in frame.plane(plane).iter().zip(out.plane(plane)) {
                    assert!(
                        (*a as i32 - *b as i32).abs() <= 2,
                        "plane {plane:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_region_decodes_same_as_full_frame_region() {
        // Independence: encoding a sub-rectangle as its own tile must decode
        // to the same pixels regardless of the rest of the frame.
        let cfg = EncoderConfig::default();
        let frame = textured_frame(64, 64, 3);
        let mut enc = TileEncoder::new(cfg, Rect::new(16, 16, 32, 32));
        let chunk = enc.encode_next(&frame);
        let mut dec = TileDecoder::new(32, 32, cfg.deblock);
        let out = dec
            .decode_next_qp(&chunk.data, chunk.is_key, cfg.qp)
            .unwrap();
        let reference = frame.crop(Rect::new(16, 16, 32, 32));
        let report = tasm_video::psnr_frames(&reference, &out);
        assert!(report.y > 28.0, "tile PSNR {:.1}", report.y);
    }

    #[test]
    fn p_frame_without_keyframe_is_error() {
        let mut dec = TileDecoder::new(32, 32, true);
        assert_eq!(
            dec.decode_next_qp(&[0u8; 4], false, 28),
            Err(DecodeError::MissingReference)
        );
    }

    #[test]
    fn truncated_stream_is_error_not_panic() {
        let cfg = EncoderConfig::default();
        let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 32, 32));
        let frame = textured_frame(32, 32, 0);
        let chunk = enc.encode_next(&frame);
        let mut dec = TileDecoder::new(32, 32, cfg.deblock);
        let truncated = &chunk.data[..chunk.data.len() / 2];
        assert!(dec.decode_next_qp(truncated, true, cfg.qp).is_err());
    }

    #[test]
    fn garbage_stream_is_error_not_panic() {
        let mut dec = TileDecoder::new(32, 32, true);
        let garbage: Vec<u8> = (0..64u16).map(|i| (i * 37 % 251) as u8).collect();
        // Must not panic; may error or produce nonsense pixels.
        let _ = dec.decode_next_qp(&garbage, true, 28);
    }
}
