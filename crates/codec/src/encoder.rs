//! The tile encoder.
//!
//! Each tile of a video is encoded as an independent bitstream by a
//! [`TileEncoder`]: intra prediction, motion estimation, and the in-loop
//! deblocking filter are all confined to the tile rectangle, so any tile can
//! later be decoded without touching its neighbours. This is the property
//! TASM exploits for spatial random access (§2 of the paper).
//!
//! Frames are grouped into GOPs: the first frame of each GOP is a keyframe
//! (all-intra), subsequent frames are P-frames predicted from the previous
//! reconstruction. Keyframes compress several times worse than P-frames,
//! which is what makes short GOPs (and therefore short tile-layout
//! durations) expensive in storage — the trade-off of Figure 9.

use crate::bitstream::BitWriter;
use crate::blockops::{
    copy_block, dc_predict, fill_block, load_block, reconstruct_flat, reconstruct_inter, sad,
    ZIGZAG,
};
use crate::dct::{forward, Inverse, BLOCK, BLOCK_AREA};
use crate::deblock::deblock_frame;
use crate::quant::{dequantize, outside_dead_zone, qstep, quantize};
use serde::{Deserialize, Serialize};
use tasm_video::{Frame, Plane, Rect};

/// The mode symbols of a P-frame's coded blocks. A block that copies the
/// co-located block of the previous reconstruction (SKIP) is not coded: it
/// is counted into the run ahead of the next coded block. Keyframe blocks
/// are implicitly `Intra`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The zero vector plus a residual (its coded-block flag is implied).
    ZeroInter = 0,
    /// Motion-compensated prediction plus optional residual.
    Inter = 1,
    /// DC intra prediction plus residual (fallback for new content).
    Intra = 2,
}

/// Rate-control mode.
///
/// Constant-QP holds quality fixed and lets the stream size float (the mode
/// most experiments use, since TASM's storage trade-offs are easiest to see
/// at fixed quality). Target-rate mode emulates a hardware encoder's leaky
/// bucket: the per-frame QP adapts so the stream hits a bits-per-sample
/// budget — under a shared budget, layouts that compress worse (many tile
/// boundaries severing prediction) are forced to coarser quantization and
/// lose PSNR, the Figure 6(b) mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateControl {
    /// Fixed QP for every frame.
    ConstantQp,
    /// Leaky-bucket rate control toward a target compressed size of
    /// `millibits_per_sample / 1000` bits per source sample.
    TargetRate {
        /// Thousandths of a bit per source sample (e.g. 300 = 0.3 bpp).
        millibits_per_sample: u32,
    },
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Frames per group of pictures. The first frame of every GOP is a
    /// keyframe. Paper default: one second of video.
    pub gop_len: u32,
    /// Quantization parameter (0–51). Higher = smaller + lower quality.
    /// Under [`RateControl::TargetRate`] this is the starting QP.
    pub qp: u8,
    /// Motion search range in pixels (luma). 0 restricts inter prediction to
    /// the zero vector.
    pub search_range: u8,
    /// Whether to run the in-loop deblocking filter.
    pub deblock: bool,
    /// Rate-control mode.
    pub rate: RateControl,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            gop_len: 30,
            qp: 28,
            search_range: 7,
            deblock: true,
            rate: RateControl::ConstantQp,
        }
    }
}

impl EncoderConfig {
    /// Per-block SAD threshold under which a P-block is coded as SKIP.
    /// Scales with the quantizer: coarser quantization tolerates more
    /// mismatch before a residual is worth coding.
    pub(crate) fn skip_threshold(&self) -> u32 {
        let q = qstep(self.qp) as u32;
        (BLOCK_AREA as u32) * (q / 4).max(2)
    }
}

/// One encoded frame of one tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// True if this frame is a keyframe (starts a GOP).
    pub is_key: bool,
    /// QP this frame was coded with (varies under rate control).
    pub qp: u8,
    /// Entropy-coded payload.
    pub data: Vec<u8>,
}

/// Streaming encoder for a single tile of a video.
///
/// Feed source frames in display order with [`TileEncoder::encode_next`];
/// the encoder extracts its tile rectangle from each frame and maintains the
/// reconstruction state needed for inter prediction.
pub struct TileEncoder {
    cfg: EncoderConfig,
    rect: Rect,
    /// QP of the next frame (adapted under rate control).
    current_qp: u8,
    qstep: i32,
    /// Leaky-bucket fullness in bits (rate control state).
    bucket: i64,
    /// Previous reconstructed tile (reference for P-frames).
    recon_prev: Option<Frame>,
    /// The reconstruction before that one: the next frame is built in it.
    recon_spare: Option<Frame>,
    frame_idx: u32,
}

impl TileEncoder {
    /// Creates an encoder for the tile at `rect` (luma coordinates) of a
    /// video. The rectangle must be aligned to [`crate::grid::TILE_ALIGN`].
    ///
    /// # Panics
    /// Panics if the rectangle is empty or misaligned.
    pub fn new(cfg: EncoderConfig, rect: Rect) -> Self {
        assert!(!rect.is_empty(), "tile rectangle must be non-empty");
        assert!(
            rect.x.is_multiple_of(crate::grid::TILE_ALIGN)
                && rect.y.is_multiple_of(crate::grid::TILE_ALIGN)
                && rect.w.is_multiple_of(crate::grid::TILE_ALIGN)
                && rect.h.is_multiple_of(crate::grid::TILE_ALIGN),
            "tile rectangle {rect:?} must be {}-aligned",
            crate::grid::TILE_ALIGN
        );
        assert!(cfg.gop_len > 0, "GOP length must be positive");
        TileEncoder {
            current_qp: cfg.qp,
            qstep: qstep(cfg.qp),
            bucket: 0,
            cfg,
            rect,
            recon_prev: None,
            recon_spare: None,
            frame_idx: 0,
        }
    }

    /// The tile rectangle this encoder covers.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Number of frames encoded so far.
    pub fn frames_encoded(&self) -> u32 {
        self.frame_idx
    }

    /// The in-loop reconstruction of the last frame encoded — what the
    /// decoder must reproduce sample for sample.
    #[cfg(test)]
    pub(crate) fn reconstruction(&self) -> Option<&Frame> {
        self.recon_prev.as_ref()
    }

    /// Encodes the tile region of the next source frame.
    ///
    /// # Panics
    /// Panics if the frame does not contain the tile rectangle.
    pub fn encode_next(&mut self, src: &Frame) -> EncodedFrame {
        assert!(
            src.rect().contains(&self.rect),
            "source frame {}x{} does not contain tile {:?}",
            src.width(),
            src.height(),
            self.rect
        );
        // A P-frame's reconstruction starts as a copy of its reference, as
        // in the decoder: SKIP blocks are then already in place. A keyframe
        // writes every block, so whatever its buffer held never shows.
        let reference = match &self.recon_prev {
            Some(prev) if !self.frame_idx.is_multiple_of(self.cfg.gop_len) => Some(prev),
            _ => None,
        };
        let is_key = reference.is_none();
        let mut recon = self
            .recon_spare
            .take()
            .unwrap_or_else(|| Frame::black(self.rect.w, self.rect.h));
        if let Some(prev) = reference {
            for plane in Plane::ALL {
                recon.plane_mut(plane).copy_from_slice(prev.plane(plane));
            }
        }
        let mut writer = BitWriter::new();
        let mut coder = BlockCoder::new(self.qstep);

        for plane in Plane::ALL {
            self.encode_plane(&mut writer, &mut coder, src, plane, &mut recon, is_key);
            coder.end_plane(&mut writer);
        }

        if self.cfg.deblock {
            deblock_frame(&mut recon, self.qstep);
        }
        self.recon_spare = self.recon_prev.replace(recon);
        self.frame_idx += 1;
        let frame_qp = self.current_qp;
        let data = writer.finish();
        self.update_rate_control(data.len() as i64 * 8, is_key);
        EncodedFrame {
            is_key,
            qp: frame_qp,
            data,
        }
    }

    /// Leaky-bucket rate control: after each frame, compare produced bits
    /// against the budget and nudge the next frame's QP. Keyframes get a 4×
    /// allowance (intra frames are inherently larger).
    fn update_rate_control(&mut self, bits: i64, was_key: bool) {
        let RateControl::TargetRate {
            millibits_per_sample,
        } = self.cfg.rate
        else {
            return;
        };
        let samples = (self.rect.w as i64 * self.rect.h as i64) * 3 / 2;
        let target = (samples * millibits_per_sample as i64 / 1000).max(64);
        let allowance = if was_key { target * 4 } else { target };
        self.bucket += bits - allowance;
        // Leak slowly toward zero so a single large keyframe does not keep
        // the quantizer coarse for the entire GOP.
        self.bucket -= self.bucket / 8;
        let step = if self.bucket > 4 * target {
            2
        } else if self.bucket > target {
            1
        } else if self.bucket < -4 * target {
            -2
        } else if self.bucket < -target {
            -1
        } else {
            0
        };
        let new_qp = (self.current_qp as i32 + step).clamp(8, 48) as u8;
        if new_qp != self.current_qp {
            self.current_qp = new_qp;
            self.qstep = qstep(new_qp);
        }
    }

    fn encode_plane(
        &self,
        w: &mut BitWriter,
        coder: &mut BlockCoder,
        src: &Frame,
        plane: Plane,
        recon: &mut Frame,
        is_key: bool,
    ) {
        let shift = plane.subsample_shift();
        let src_stride = src.plane_width(plane) as usize;
        let off_x = (self.rect.x >> shift) as usize;
        let off_y = (self.rect.y >> shift) as usize;
        let pw = (self.rect.w >> shift) as usize;
        let ph = (self.rect.h >> shift) as usize;
        let src_plane = src.plane(plane);
        let prev_plane = self.recon_prev.as_ref().map(|f| f.plane(plane));
        // Motion search only on luma: chroma inter uses the zero vector,
        // which keeps the search cheap while chroma residuals stay codable.
        let range = if plane == Plane::Y {
            self.cfg.search_range as i32
        } else {
            0
        };
        let skip_thresh = self.skip_threshold_for(plane);

        let recon_stride = pw;
        let mut by = 0;
        while by < ph {
            let mut bx = 0;
            while bx < pw {
                self.encode_block(BlockCtx {
                    w,
                    coder: &mut *coder,
                    src_plane,
                    src_stride,
                    src_x: off_x + bx,
                    src_y: off_y + by,
                    prev_plane,
                    recon_plane: recon.plane_mut(plane),
                    recon_stride,
                    x: bx,
                    y: by,
                    pw,
                    ph,
                    is_key,
                    range,
                    skip_thresh,
                });
                bx += BLOCK;
            }
            by += BLOCK;
        }
    }

    fn skip_threshold_for(&self, plane: Plane) -> u32 {
        // Chroma is smoother; a slightly tighter threshold avoids colour
        // smearing on moving objects.
        match plane {
            Plane::Y => self.cfg.skip_threshold(),
            Plane::U | Plane::V => self.cfg.skip_threshold() / 2,
        }
    }

    fn encode_block(&self, ctx: BlockCtx<'_, '_>) {
        let BlockCtx {
            w,
            coder,
            src_plane,
            src_stride,
            src_x,
            src_y,
            prev_plane,
            recon_plane,
            recon_stride,
            x,
            y,
            pw,
            ph,
            is_key,
            range,
            skip_thresh,
        } = ctx;

        if is_key {
            // Keyframe: always intra; no mode symbol.
            let pred = dc_predict(recon_plane, recon_stride, x, y);
            let cur = load_block(src_plane, src_stride, src_x, src_y);
            coder.code_intra(w, &cur, pred, recon_plane, recon_stride, x, y);
            return;
        }

        let prev = prev_plane.expect("P-frame requires a previous reconstruction");

        // 1. SKIP probe at the zero vector.
        let sad0 = sad(
            src_plane,
            src_stride,
            src_x,
            src_y,
            prev,
            recon_stride,
            x,
            y,
        );
        if sad0 <= skip_thresh {
            // The reconstruction already holds the co-located block.
            coder.skip();
            return;
        }

        // 2. Motion search (clamped inside the tile).
        let (mv, best_sad) = if range > 0 {
            three_step_search(
                src_plane,
                src_stride,
                src_x,
                src_y,
                prev,
                recon_stride,
                x,
                y,
                pw,
                ph,
                range,
            )
        } else {
            ((0, 0), sad0)
        };

        // 3. Intra alternative.
        let pred_dc = dc_predict(recon_plane, recon_stride, x, y);
        let cur = load_block(src_plane, src_stride, src_x, src_y);
        let intra_sad: u32 = cur.iter().map(|&v| (v - pred_dc).unsigned_abs()).sum();

        // Bias inter slightly because motion vectors cost bits.
        let mv_bits_bias = 32;
        if best_sad + mv_bits_bias <= intra_sad {
            let rx = (x as i32 + mv.0) as usize;
            let ry = (y as i32 + mv.1) as usize;
            let mut residual = [0i32; BLOCK_AREA];
            for row in 0..BLOCK {
                for col in 0..BLOCK {
                    let s = cur[row * BLOCK + col];
                    let p = prev[(ry + row) * recon_stride + rx + col] as i32;
                    residual[row * BLOCK + col] = s - p;
                }
            }
            let coefs = forward(&residual);
            let kept = coder.kept(&coefs);
            let levels = if mv != (0, 0) {
                coder.start_block(w, Mode::Inter);
                w.put_se(mv.0);
                w.put_se(mv.1);
                w.put_bit(kept != 0); // coded-block flag
                coder.put_levels(w, &coefs, kept)
            } else if kept != 0 {
                coder.start_block(w, Mode::ZeroInter);
                coder.put_levels(w, &coefs, kept)
            } else {
                // Nothing to code at the zero vector: the block is a SKIP,
                // and the reconstruction already holds it.
                coder.skip();
                return;
            };
            match levels {
                Some(res) => reconstruct_inter(recon_plane, recon_stride, x, y, prev, rx, ry, res),
                None => copy_block(recon_plane, recon_stride, x, y, prev, recon_stride, rx, ry),
            }
        } else {
            coder.start_block(w, Mode::Intra);
            coder.code_intra(w, &cur, pred_dc, recon_plane, recon_stride, x, y);
        }
    }
}

/// The coded-block path at one frame's QP, mirroring the decoder's
/// `read_residual`: the inverse transform's accumulator is owned by the
/// frame encode and reused block after block. It also counts the SKIP
/// blocks of a P-frame plane since its last coded block, the run that
/// block's header starts with.
pub(crate) struct BlockCoder {
    qstep: i32,
    inverse: Inverse,
    skips: u32,
}

impl BlockCoder {
    pub(crate) fn new(qstep: i32) -> Self {
        BlockCoder {
            qstep,
            inverse: Inverse::default(),
            skips: 0,
        }
    }

    /// Counts a SKIP block into the run ahead of the next coded block.
    fn skip(&mut self) {
        self.skips += 1;
    }

    /// Starts a P-frame's coded block: the SKIP run before it, then its
    /// mode.
    fn start_block(&mut self, w: &mut BitWriter, mode: Mode) {
        w.put_ue(std::mem::take(&mut self.skips));
        w.put_ue(mode as u32);
    }

    /// Ends a plane: the SKIP run that reaches its last block, if the plane
    /// does not end in a coded block.
    fn end_plane(&mut self, w: &mut BitWriter) {
        if self.skips > 0 {
            w.put_ue(std::mem::take(&mut self.skips));
        }
    }

    /// Transforms, quantizes and entropy-codes a residual block, and returns
    /// the accumulator holding the residual as the decoder will reconstruct
    /// it (`None` when every level quantizes to zero and only the coded-block
    /// flag is written), so the encoder's reference matches the decoder's
    /// bit-exactly. The caller finishes it (`blockops::reconstruct_*`)
    /// before the next block is coded.
    #[inline]
    pub(crate) fn code(
        &mut self,
        w: &mut BitWriter,
        residual: &[i32; BLOCK_AREA],
    ) -> Option<&mut Inverse> {
        self.code_levels(w, &forward(residual))
    }

    /// Intra path: subtract the DC prediction, transform-code the residual,
    /// and write the reconstruction into `recon`.
    #[allow(clippy::too_many_arguments)]
    fn code_intra(
        &mut self,
        w: &mut BitWriter,
        cur: &[i32; BLOCK_AREA],
        pred: i32,
        recon: &mut [u8],
        stride: usize,
        x: usize,
        y: usize,
    ) {
        let mut residual = [0i32; BLOCK_AREA];
        for i in 0..BLOCK_AREA {
            residual[i] = cur[i] - pred;
        }
        match self.code(w, &residual) {
            Some(res) => reconstruct_flat(recon, stride, x, y, pred, res),
            None => fill_block(recon, stride, x, y, pred as u8),
        }
    }

    /// [`BlockCoder::code`] from the transform's output on: the
    /// coded-block flag, then [`BlockCoder::put_levels`].
    pub(crate) fn code_levels(
        &mut self,
        w: &mut BitWriter,
        coefs: &[i32; BLOCK_AREA],
    ) -> Option<&mut Inverse> {
        let kept = self.kept(coefs);
        w.put_bit(kept != 0);
        self.put_levels(w, coefs, kept)
    }

    /// Which coefficients lie outside the dead zone, a bit each in scan
    /// order, gathered without a branch (which ones do is not predictable).
    fn kept(&self, coefs: &[i32; BLOCK_AREA]) -> u64 {
        let mut kept = 0u64;
        // (A byte of bits at a time: one chain of 64 ORs is 64 cycles long.)
        for (group, scan) in ZIGZAG.chunks_exact(8).enumerate() {
            let mut bits = 0u64;
            for (pos, &at) in scan.iter().enumerate() {
                bits |= (outside_dead_zone(coefs[at], self.qstep) as u64) << pos;
            }
            kept |= bits << (8 * group);
        }
        kept
    }

    /// Writes the coefficients `kept` marks: their count and runs read off
    /// the bits, and each level written, dequantized and added to the
    /// inverse transform in scan order, as the decoder's parse adds it.
    /// `None`, writing nothing, when `kept` is empty.
    fn put_levels(
        &mut self,
        w: &mut BitWriter,
        coefs: &[i32; BLOCK_AREA],
        mut kept: u64,
    ) -> Option<&mut Inverse> {
        if kept == 0 {
            return None;
        }
        w.put_ue(kept.count_ones() - 1);
        let mut next = 0;
        while kept != 0 {
            let pos = kept.trailing_zeros();
            kept &= kept - 1;
            let at = ZIGZAG[pos as usize];
            let level = quantize(coefs[at], self.qstep);
            w.put_run_level(pos - next, level);
            next = pos + 1;
            self.inverse.add(at, dequantize(level, self.qstep));
        }
        Some(&mut self.inverse)
    }
}

/// Per-block encoding context (bundles the many plane-local parameters).
struct BlockCtx<'a, 'b> {
    w: &'a mut BitWriter,
    coder: &'a mut BlockCoder,
    src_plane: &'b [u8],
    src_stride: usize,
    src_x: usize,
    src_y: usize,
    prev_plane: Option<&'b [u8]>,
    recon_plane: &'b mut [u8],
    recon_stride: usize,
    x: usize,
    y: usize,
    pw: usize,
    ph: usize,
    is_key: bool,
    range: i32,
    skip_thresh: u32,
}

/// Three-step logarithmic motion search around the zero vector, with every
/// candidate clamped so the reference block stays inside the tile plane.
#[allow(clippy::too_many_arguments)]
fn three_step_search(
    src: &[u8],
    src_stride: usize,
    sx: usize,
    sy: usize,
    prev: &[u8],
    prev_stride: usize,
    x: usize,
    y: usize,
    pw: usize,
    ph: usize,
    range: i32,
) -> ((i32, i32), u32) {
    let eval = |mvx: i32, mvy: i32| -> Option<u32> {
        let rx = x as i32 + mvx;
        let ry = y as i32 + mvy;
        if rx < 0 || ry < 0 || rx + BLOCK as i32 > pw as i32 || ry + BLOCK as i32 > ph as i32 {
            return None;
        }
        Some(sad(
            src,
            src_stride,
            sx,
            sy,
            prev,
            prev_stride,
            rx as usize,
            ry as usize,
        ))
    };

    let mut best_mv = (0i32, 0i32);
    let mut best = eval(0, 0).expect("zero vector is always valid");
    let mut step = ((range as u32).next_power_of_two() / 2).max(1) as i32;
    while step >= 1 {
        let center = best_mv;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let mv = (center.0 + dx, center.1 + dy);
                if mv.0.abs() > range || mv.1.abs() > range {
                    continue;
                }
                if let Some(s) = eval(mv.0, mv.1) {
                    if s < best {
                        best = s;
                        best_mv = mv;
                    }
                }
            }
        }
        step /= 2;
    }
    (best_mv, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This build writes no `codec` key. Configs from earlier builds carry
    /// `"codec"` as `Dct`, `Pred` or `Auto`, or lack the key. Every form
    /// reads back as the same config, which encodes DCT, the only codec
    /// the write path has. Any other missing field is still an error.
    #[test]
    fn config_without_codec_field_reads_as_dct() {
        let cfg = EncoderConfig {
            qp: 31,
            ..Default::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains("codec"), "{json}");
        assert_eq!(serde_json::from_str::<EncoderConfig>(&json).unwrap(), cfg);
        for codec in ["Dct", "Pred", "Auto"] {
            let body = json.strip_suffix('}').unwrap();
            let legacy = format!("{body},\"codec\":\"{codec}\"}}");
            let back: EncoderConfig = serde_json::from_str(&legacy).unwrap();
            assert_eq!(back, cfg, "{legacy}");
        }
        let broken = json.replace("\"qp\":31,", "");
        assert_ne!(broken, json);
        assert!(serde_json::from_str::<EncoderConfig>(&broken).is_err());
    }

    #[test]
    fn first_frame_is_keyframe() {
        let mut enc = TileEncoder::new(EncoderConfig::default(), Rect::new(0, 0, 32, 32));
        let f = Frame::filled(32, 32, 120, 128, 128);
        let e0 = enc.encode_next(&f);
        assert!(e0.is_key);
        let e1 = enc.encode_next(&f);
        assert!(!e1.is_key);
        assert_eq!(enc.frames_encoded(), 2);
    }

    #[test]
    fn gop_boundaries_are_keyframes() {
        let cfg = EncoderConfig {
            gop_len: 3,
            ..Default::default()
        };
        let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 32, 32));
        let f = Frame::filled(32, 32, 120, 128, 128);
        let keys: Vec<bool> = (0..7).map(|_| enc.encode_next(&f).is_key).collect();
        assert_eq!(keys, vec![true, false, false, true, false, false, true]);
    }

    #[test]
    fn static_p_frames_are_tiny() {
        let mut enc = TileEncoder::new(EncoderConfig::default(), Rect::new(0, 0, 64, 64));
        // Textured content: the keyframe must code every block, while the
        // static P-frame collapses to all-SKIP.
        let mut f = Frame::filled(64, 64, 120, 100, 150);
        for y in 0..64 {
            for x in 0..64 {
                f.set_sample(Plane::Y, x, y, ((x * 7 + y * 13) % 220 + 10) as u8);
            }
        }
        let key = enc.encode_next(&f);
        let p = enc.encode_next(&f);
        assert!(
            p.data.len() * 4 < key.data.len(),
            "static P-frame ({}) should be much smaller than keyframe ({})",
            p.data.len(),
            key.data.len()
        );
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_tile_rejected() {
        let _ = TileEncoder::new(EncoderConfig::default(), Rect::new(8, 0, 32, 32));
    }

    #[test]
    #[should_panic(expected = "does not contain tile")]
    fn frame_must_contain_tile() {
        let mut enc = TileEncoder::new(EncoderConfig::default(), Rect::new(32, 0, 32, 32));
        let f = Frame::filled(32, 32, 120, 128, 128);
        let _ = enc.encode_next(&f);
    }

    #[test]
    fn three_step_search_finds_shift() {
        // Previous frame: bright square at (16,16). Current: same square at
        // (20,18). The search from the co-located block should find ~(-4,-2)
        // when encoding the block at (20,18)... we test the primitive
        // directly: block at (16,16) in prev equals block at (20,18) in src.
        let mut prev = vec![0u8; 64 * 64];
        let mut src = vec![0u8; 64 * 64];
        for r in 0..8 {
            for c in 0..8 {
                prev[(16 + r) * 64 + 16 + c] = 200;
                src[(18 + r) * 64 + 20 + c] = 200;
            }
        }
        let ((mvx, mvy), sad) = three_step_search(&src, 64, 20, 18, &prev, 64, 20, 18, 64, 64, 7);
        assert_eq!((mvx, mvy), (-4, -2));
        assert_eq!(sad, 0);
    }

    fn textured(i: u32) -> Frame {
        let mut f = Frame::filled(64, 64, 100, 120, 140);
        for y in 0..64 {
            for x in 0..64 {
                f.set_sample(Plane::Y, x, y, ((x * 7 + y * 13 + i * 5) % 200 + 20) as u8);
            }
        }
        f
    }

    #[test]
    fn rate_control_raises_qp_under_tight_budget() {
        let cfg = EncoderConfig {
            gop_len: 4,
            qp: 20,
            rate: RateControl::TargetRate {
                millibits_per_sample: 50,
            }, // 0.05 bpp: very tight
            ..Default::default()
        };
        let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 64, 64));
        let frames: Vec<EncodedFrame> = (0..16).map(|i| enc.encode_next(&textured(i))).collect();
        assert_eq!(frames[0].qp, 20, "first frame uses the starting QP");
        let last_qp = frames.last().unwrap().qp;
        assert!(
            last_qp > 20,
            "noisy content at 0.05 bpp must push QP up (got {last_qp})"
        );
    }

    #[test]
    fn rate_control_hits_smaller_size_than_constant_qp() {
        let run = |rate: RateControl| -> u64 {
            let cfg = EncoderConfig {
                gop_len: 8,
                qp: 20,
                rate,
                ..Default::default()
            };
            let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 64, 64));
            (0..24)
                .map(|i| enc.encode_next(&textured(i)).data.len() as u64)
                .sum()
        };
        let cqp = run(RateControl::ConstantQp);
        let rc = run(RateControl::TargetRate {
            millibits_per_sample: 100,
        });
        assert!(
            rc < cqp,
            "0.1 bpp target ({rc} B) should undercut constant QP 20 ({cqp} B)"
        );
    }

    #[test]
    fn rate_controlled_stream_decodes_correctly() {
        use crate::decoder::TileDecoder;
        let cfg = EncoderConfig {
            gop_len: 4,
            qp: 24,
            rate: RateControl::TargetRate {
                millibits_per_sample: 200,
            },
            ..Default::default()
        };
        let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 64, 64));
        let mut dec = TileDecoder::new(64, 64, cfg.deblock);
        for i in 0..12 {
            let src = textured(i);
            let chunk = enc.encode_next(&src);
            let out = dec
                .decode_next_qp(&chunk.data, chunk.is_key, chunk.qp)
                .unwrap();
            let r = tasm_video::psnr_frames(&src, &out);
            assert!(r.y > 20.0, "frame {i} PSNR {:.1} (qp {})", r.y, chunk.qp);
        }
    }

    /// The closed loop, exactly: on every frame the encoder's in-loop
    /// reconstruction (the reference it predicts the next frame from) equals
    /// the decoder's output sample for sample — not merely within a PSNR
    /// bound. Any divergence would compound down the GOP as drift.
    #[test]
    fn encoder_reconstruction_equals_decoder_output_exactly() {
        use crate::decoder::TileDecoder;
        // Two GOPs with motion and fresh content, so P-frames carry SKIP,
        // INTER and INTRA blocks.
        let clip: Vec<Frame> = (0..12u32)
            .map(|i| {
                let mut f = textured(i / 3);
                f.fill_rect(Rect::new(4 + 3 * i, 8 + i, 16, 16), 215, 90, 170);
                for y in 40..56 {
                    for x in 8..24 {
                        let v = (x * 31 + y * 17 + i * 101).wrapping_mul(2_654_435_761) >> 24;
                        f.set_sample(Plane::Y, x, y, v as u8);
                    }
                }
                f
            })
            .collect();
        let rates = [
            RateControl::ConstantQp,
            RateControl::TargetRate {
                millibits_per_sample: 150,
            },
        ];
        for rate in rates {
            for deblock in [true, false] {
                let cfg = EncoderConfig {
                    gop_len: 6,
                    qp: 26,
                    deblock,
                    rate,
                    ..Default::default()
                };
                let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, 64, 64));
                let mut dec = TileDecoder::new(64, 64, cfg.deblock);
                let mut qps = std::collections::BTreeSet::new();
                for (i, src) in clip.iter().enumerate() {
                    let chunk = enc.encode_next(src);
                    qps.insert(chunk.qp);
                    let out = dec
                        .decode_next_qp(&chunk.data, chunk.is_key, chunk.qp)
                        .unwrap();
                    assert!(
                        enc.reconstruction() == Some(&out),
                        "frame {i} ({rate:?}, deblock {deblock}): encoder and decoder diverge"
                    );
                }
                if rate != RateControl::ConstantQp {
                    assert!(qps.len() > 1, "rate control must move the QP: {qps:?}");
                }
            }
        }
    }

    #[test]
    fn search_never_leaves_tile() {
        // Block at the tile corner: all negative vectors are invalid.
        let src = vec![50u8; 32 * 32];
        let prev = vec![60u8; 32 * 32];
        let ((mvx, mvy), _) = three_step_search(&src, 32, 0, 0, &prev, 32, 0, 0, 32, 32, 7);
        assert!(mvx >= 0 && mvy >= 0);
    }
}
