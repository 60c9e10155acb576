//! The `Pred` tile codec: lossless prediction + rANS entropy coding.
//!
//! Stores written by earlier builds, and peers running them, may hold
//! `Pred` tiles; this build reads them and writes only DCT tiles
//! ([`crate::encode_video`]). Frames are predicted — keyframes with
//! PNG-style per-row spatial predictors (none/left/up/average/Paeth),
//! P-frames with a temporal delta against the previous reconstruction, per
//! plane, with a spatial fallback when the scene cuts — and the residual
//! bytes are entropy-coded with [`crate::entropy`]. The codec is lossless,
//! so a P-frame's reference equals the source frame and resume-from-cache
//! decoding is trivially bit-exact.

use crate::container::{TileCodec, TileVideo};
use crate::encoder::{EncodedFrame, EncoderConfig};
use crate::entropy::{self, EntropyError};
use tasm_video::{Frame, FrameSource, Plane, Rect};

/// Errors surfaced while decoding a `Pred` frame payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredError {
    /// The entropy layer failed (truncated or corrupt stream).
    Entropy(EntropyError),
    /// The residual payload does not match the frame geometry.
    Malformed(&'static str),
    /// A temporal plane arrived without a reference frame.
    MissingReference,
}

impl From<EntropyError> for PredError {
    fn from(e: EntropyError) -> Self {
        PredError::Entropy(e)
    }
}

impl std::fmt::Display for PredError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredError::Entropy(e) => write!(f, "entropy layer: {e}"),
            PredError::Malformed(what) => write!(f, "malformed pred payload: {what}"),
            PredError::MissingReference => write!(f, "temporal plane with no reference frame"),
        }
    }
}

impl std::error::Error for PredError {}

/// Per-plane coding mode.
const PLANE_SPATIAL: u8 = 0;
const PLANE_TEMPORAL: u8 = 1;

/// Per-row spatial predictors (PNG filter set).
const PRED_NONE: u8 = 0;
const PRED_LEFT: u8 = 1;
const PRED_UP: u8 = 2;
const PRED_AVG: u8 = 3;
const PRED_PAETH: u8 = 4;

fn paeth(a: u8, b: u8, c: u8) -> u8 {
    // a = left, b = up, c = up-left.
    let p = a as i32 + b as i32 - c as i32;
    let (pa, pb, pc) = (
        (p - a as i32).abs(),
        (p - b as i32).abs(),
        (p - c as i32).abs(),
    );
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

fn predict(kind: u8, left: u8, up: u8, up_left: u8) -> u8 {
    match kind {
        PRED_NONE => 0,
        PRED_LEFT => left,
        PRED_UP => up,
        PRED_AVG => ((left as u16 + up as u16) / 2) as u8,
        _ => paeth(left, up, up_left),
    }
}

/// Cost proxy for a residual byte: distance from zero on the wrapping ring.
fn residual_cost(r: u8) -> u32 {
    (r as u32).min(256 - r as u32)
}

/// Residual of sample `x` of `row` under predictor `kind`; `prev` is the row
/// above (absent for the first row, where it reads as zeros).
#[inline]
fn residual(kind: u8, row: &[u8], prev: Option<&[u8]>, x: usize) -> u8 {
    let left = if x > 0 { row[x - 1] } else { 0 };
    let up = prev.map_or(0, |p| p[x]);
    let up_left = if x > 0 {
        prev.map_or(0, |p| p[x - 1])
    } else {
        0
    };
    row[x].wrapping_sub(predict(kind, left, up, up_left))
}

/// The cheapest predictor for one row and its residual cost (ties go to the
/// earlier predictor). `prev` is the row above, absent for the first row,
/// where only the predictors that do not look up are tried.
fn best_row_predictor(row: &[u8], prev: Option<&[u8]>) -> (u64, u8) {
    let mut best = (u64::MAX, PRED_NONE);
    for kind in [PRED_NONE, PRED_LEFT, PRED_UP, PRED_AVG, PRED_PAETH] {
        if prev.is_none() && (kind == PRED_UP || kind == PRED_AVG || kind == PRED_PAETH) {
            continue;
        }
        let mut cost = 0u64;
        for x in 0..row.len() {
            cost += residual_cost(residual(kind, row, prev, x)) as u64;
        }
        if cost < best.0 {
            best = (cost, kind);
        }
    }
    best
}

/// Row `y` of a `w`-wide plane and the row above it.
fn row_and_above(samples: &[u8], w: usize, y: usize) -> (&[u8], Option<&[u8]>) {
    let prev = (y > 0).then(|| &samples[(y - 1) * w..y * w]);
    (&samples[y * w..(y + 1) * w], prev)
}

/// Encodes one plane spatially: a predictor byte per row, then row-major
/// residuals. Appends to `out`.
fn encode_plane_spatial(samples: &[u8], w: usize, h: usize, out: &mut Vec<u8>) {
    out.push(PLANE_SPATIAL);
    let preds_at = out.len();
    out.resize(preds_at + h, PRED_NONE);
    for y in 0..h {
        let (row, prev) = row_and_above(samples, w, y);
        let (_, kind) = best_row_predictor(row, prev);
        out[preds_at + y] = kind;
        for x in 0..w {
            out.push(residual(kind, row, prev, x));
        }
    }
}

fn decode_plane_spatial(
    data: &[u8],
    pos: &mut usize,
    w: usize,
    h: usize,
) -> Result<Vec<u8>, PredError> {
    let preds = data
        .get(*pos..*pos + h)
        .ok_or(PredError::Malformed("plane shorter than predictor table"))?
        .to_vec();
    *pos += h;
    let mut plane = vec![0u8; w * h];
    let zeros = vec![0u8; w];
    for (y, &kind) in preds.iter().enumerate() {
        if kind > PRED_PAETH {
            return Err(PredError::Malformed("unknown row predictor"));
        }
        let res = data
            .get(*pos..*pos + w)
            .ok_or(PredError::Malformed("plane shorter than residual rows"))?;
        *pos += w;
        // Per-predictor row loops: the straightforward per-pixel
        // `predict(kind, ...)` dispatch costs a branch per sample and keeps
        // the vectorizer out; NONE/UP become straight copies/adds, and the
        // serial predictors keep their loop-carried value in a register.
        let (above, row) =
            plane[(y.saturating_sub(1)) * w..].split_at_mut(if y == 0 { 0 } else { w });
        let above: &[u8] = if y == 0 { &zeros } else { above };
        let row = &mut row[..w];
        match kind {
            PRED_NONE => row.copy_from_slice(res),
            PRED_LEFT => {
                let mut left = 0u8;
                for (d, &r) in row.iter_mut().zip(res) {
                    left = r.wrapping_add(left);
                    *d = left;
                }
            }
            PRED_UP => {
                for ((d, &r), &up) in row.iter_mut().zip(res).zip(above) {
                    *d = r.wrapping_add(up);
                }
            }
            PRED_AVG => {
                let mut left = 0u8;
                for ((d, &r), &up) in row.iter_mut().zip(res).zip(above) {
                    left = r.wrapping_add(((left as u16 + up as u16) / 2) as u8);
                    *d = left;
                }
            }
            _ => {
                let (mut left, mut up_left) = (0u8, 0u8);
                for ((d, &r), &up) in row.iter_mut().zip(res).zip(above) {
                    left = r.wrapping_add(paeth(left, up, up_left));
                    up_left = up;
                    *d = left;
                }
            }
        }
    }
    Ok(plane)
}

/// Whether [`encode_plane_spatial`] would reach a residual cost below
/// `temporal_cost` on the plane. Sums each row's best predictor cost, with
/// no plane encoded into a scratch buffer, and stops at the row where the
/// sum reaches `temporal_cost`: the rows below cannot bring it back down.
fn spatial_beats(samples: &[u8], w: usize, h: usize, temporal_cost: u64) -> bool {
    let mut sum = 0u64;
    for y in 0..h {
        if sum >= temporal_cost {
            return false;
        }
        let (row, prev) = row_and_above(samples, w, y);
        sum += best_row_predictor(row, prev).0;
    }
    sum < temporal_cost
}

/// The oracle for [`spatial_beats`]: the full row-cost sum, every row
/// visited whatever it is compared with.
#[cfg(test)]
fn spatial_cost(samples: &[u8], w: usize, h: usize) -> u64 {
    (0..h)
        .map(|y| {
            let (row, prev) = row_and_above(samples, w, y);
            best_row_predictor(row, prev).0
        })
        .sum()
}

/// Residual-buffer framing ahead of the entropy layer.
const PACK_PLAIN: u8 = 0;
const PACK_RLE0: u8 = 1;

/// Zero-run-length packs `data`: nonzero bytes pass through, a zero byte is
/// written as `0x00` followed by the run length (1..=255; longer runs emit
/// more pairs). Prediction residuals are overwhelmingly zero, so this
/// collapses both the stream *and* the number of symbols the rANS decoder
/// must pull — the dominant cost of a cold `Pred` scan.
fn rle0_pack(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        if b != 0 {
            out.push(b);
            i += 1;
            continue;
        }
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == 0 {
            run += 1;
        }
        i += run;
        while run > 0 {
            let n = run.min(255);
            out.push(0);
            out.push(n as u8);
            run -= n;
        }
    }
    out
}

/// Inverse of [`rle0_pack`]; refuses malformed pairs and output beyond
/// `max_len` (the geometric residual bound).
fn rle0_unpack(data: &[u8], max_len: usize) -> Result<Vec<u8>, PredError> {
    let mut out = Vec::with_capacity(max_len.min(data.len() * 4));
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        i += 1;
        if b != 0 {
            if out.len() >= max_len {
                return Err(PredError::Malformed("zero-run stream exceeds bound"));
            }
            out.push(b);
            continue;
        }
        let &n = data
            .get(i)
            .ok_or(PredError::Malformed("zero run missing length"))?;
        i += 1;
        if n == 0 {
            return Err(PredError::Malformed("zero-length zero run"));
        }
        if out.len() + n as usize > max_len {
            return Err(PredError::Malformed("zero-run stream exceeds bound"));
        }
        out.resize(out.len() + n as usize, 0);
    }
    Ok(out)
}

/// Zero-run packs the residual buffer when that is smaller, prepends the
/// framing byte, and entropy-codes the result.
fn seal(residuals: &[u8]) -> Vec<u8> {
    let packed = rle0_pack(residuals);
    let mut framed = Vec::with_capacity(packed.len().min(residuals.len()) + 1);
    if packed.len() < residuals.len() {
        framed.push(PACK_RLE0);
        framed.extend_from_slice(&packed);
    } else {
        framed.push(PACK_PLAIN);
        framed.extend_from_slice(residuals);
    }
    entropy::compress(&framed)
}

/// Encodes a keyframe: every plane spatial.
pub fn encode_intra(frame: &Frame) -> Vec<u8> {
    let mut residuals = Vec::with_capacity(frame.sample_count() as usize + 8);
    for plane in Plane::ALL {
        let (w, h) = (
            frame.plane_width(plane) as usize,
            frame.plane_height(plane) as usize,
        );
        encode_plane_spatial(frame.plane(plane), w, h, &mut residuals);
    }
    seal(&residuals)
}

/// Encodes a P-frame against the previous reconstruction (identical to the
/// previous source frame — the codec is lossless). Each plane picks
/// temporal delta or spatial prediction, whichever yields cheaper residuals
/// (temporal on a tie).
pub fn encode_inter(frame: &Frame, prev: &Frame) -> Vec<u8> {
    let mut residuals = Vec::with_capacity(frame.sample_count() as usize + 8);
    for plane in Plane::ALL {
        let (w, h) = (
            frame.plane_width(plane) as usize,
            frame.plane_height(plane) as usize,
        );
        let cur = frame.plane(plane);
        let old = prev.plane(plane);
        let temporal_cost: u64 = cur
            .iter()
            .zip(old)
            .map(|(&c, &p)| residual_cost(c.wrapping_sub(p)) as u64)
            .sum();
        if spatial_beats(cur, w, h, temporal_cost) {
            encode_plane_spatial(cur, w, h, &mut residuals);
        } else {
            residuals.push(PLANE_TEMPORAL);
            residuals.extend(cur.iter().zip(old).map(|(&c, &p)| c.wrapping_sub(p)));
        }
    }
    seal(&residuals)
}

/// The `Pred` tile at `rect` of every frame of `src`, in GOPs of
/// `gop_len`: keyframes intra, P-frames against the previous source tile
/// (which, the codec being lossless, is the decoder's reference). The
/// header's `qp` and `deblock` are the encoder defaults; a `Pred` decode
/// reads neither. The store never calls this: it is how tests build the
/// tiles an older store or peer may hold.
pub fn encode_tile(src: &dyn FrameSource, rect: Rect, gop_len: u32) -> TileVideo {
    let defaults = EncoderConfig::default();
    let mut prev: Option<Frame> = None;
    let frames = (0..src.len())
        .map(|i| {
            let tile = src.frame(i).crop(rect);
            let is_key = i.is_multiple_of(gop_len);
            let data = match &prev {
                Some(prev) if !is_key => encode_inter(&tile, prev),
                _ => encode_intra(&tile),
            };
            prev = Some(tile);
            EncodedFrame {
                is_key,
                qp: 0,
                data,
            }
        })
        .collect();
    TileVideo {
        width: rect.w,
        height: rect.h,
        gop_len,
        qp: defaults.qp,
        deblock: defaults.deblock,
        codec: TileCodec::Pred,
        frames,
    }
}

/// Upper bound on the residual-buffer size for a `width`×`height` frame —
/// the allocation cap handed to the entropy decoder.
fn residual_bound(width: u32, height: u32) -> usize {
    let luma = width as usize * height as usize;
    let chroma = luma / 4;
    // Per plane: mode byte + predictor byte per row + samples.
    3 + (height as usize + 2 * (height as usize / 2)) + luma + 2 * chroma
}

/// Decodes one `Pred` frame. `prev` must hold the previous reconstruction
/// when any plane was coded temporally (always available in GOP order;
/// keyframes never need it).
pub fn decode_frame(
    data: &[u8],
    width: u32,
    height: u32,
    prev: Option<&Frame>,
) -> Result<Frame, PredError> {
    let bound = residual_bound(width, height);
    // +1 for the framing byte; a zero-run stream is only chosen when it is
    // smaller than the plain residuals, so the bound holds for both.
    let framed = entropy::decompress(data, bound + 1)?;
    let (&pack, body) = framed
        .split_first()
        .ok_or(PredError::Malformed("empty residual stream"))?;
    let residuals = match pack {
        PACK_PLAIN => body.to_vec(),
        PACK_RLE0 => rle0_unpack(body, bound)?,
        _ => return Err(PredError::Malformed("unknown residual framing")),
    };
    let mut pos = 0usize;
    let mut planes: Vec<Vec<u8>> = Vec::with_capacity(3);
    for plane in Plane::ALL {
        let w = (width >> plane.subsample_shift()) as usize;
        let h = (height >> plane.subsample_shift()) as usize;
        let &mode = residuals
            .get(pos)
            .ok_or(PredError::Malformed("missing plane mode"))?;
        pos += 1;
        let decoded = match mode {
            PLANE_SPATIAL => decode_plane_spatial(&residuals, &mut pos, w, h)?,
            PLANE_TEMPORAL => {
                let reference = prev.ok_or(PredError::MissingReference)?;
                if reference.width() != width || reference.height() != height {
                    return Err(PredError::Malformed("reference dimension mismatch"));
                }
                let old = reference.plane(plane);
                let res = residuals.get(pos..pos + w * h).ok_or(PredError::Malformed(
                    "plane shorter than temporal residuals",
                ))?;
                pos += w * h;
                res.iter()
                    .zip(old)
                    .map(|(&r, &p)| r.wrapping_add(p))
                    .collect()
            }
            _ => return Err(PredError::Malformed("unknown plane mode")),
        };
        planes.push(decoded);
    }
    if pos != residuals.len() {
        return Err(PredError::Malformed("trailing residual bytes"));
    }
    let mut it = planes.into_iter();
    let (y, u, v) = (
        it.next().expect("three planes"),
        it.next().expect("three planes"),
        it.next().expect("three planes"),
    );
    Frame::from_planes(width, height, y, u, v)
        .ok_or(PredError::Malformed("plane sizes do not match dimensions"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TileLayout;
    use tasm_video::VecFrameSource;

    fn textured(w: u32, h: u32, t: u32) -> Frame {
        let mut f = Frame::filled(w, h, 90, 128, 128);
        for y in 0..h {
            for x in 0..w {
                f.set_sample(Plane::Y, x, y, ((x * 3 + y * 5 + t * 2) % 200 + 20) as u8);
            }
        }
        f.fill_rect(Rect::new((t * 4) % (w - 16), 8, 16, 16), 230, 90, 160);
        f
    }

    #[test]
    fn intra_roundtrip_is_lossless() {
        let f = textured(64, 48, 0);
        let data = encode_intra(&f);
        let back = decode_frame(&data, 64, 48, None).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn inter_roundtrip_is_lossless() {
        let a = textured(64, 48, 0);
        let b = textured(64, 48, 1);
        let data = encode_inter(&b, &a);
        let back = decode_frame(&data, 64, 48, Some(&a)).unwrap();
        assert_eq!(b, back);
    }

    /// Each tile `encode_tile` builds under a 2×2 layout survives its
    /// container bytes and decodes to its crop of the source, with a
    /// keyframe at every GOP start.
    #[test]
    fn encode_tile_roundtrips_losslessly() {
        let src = VecFrameSource::new((0..6).map(|t| textured(64, 64, t)).collect());
        for (_, rect) in TileLayout::uniform(64, 64, 2, 2).unwrap().tiles() {
            let tile = encode_tile(&src, rect, 4);
            assert_eq!(tile.codec, TileCodec::Pred);
            let keys: Vec<bool> = tile.frames.iter().map(|f| f.is_key).collect();
            assert_eq!(keys, [true, false, false, false, true, false]);
            let back = TileVideo::from_bytes(&tile.to_bytes()).unwrap();
            let (frames, _) = back.decode_all().unwrap();
            let crops: Vec<Frame> = src.frames().iter().map(|f| f.crop(rect)).collect();
            assert_eq!(frames, crops, "{rect:?}");
        }
    }

    #[test]
    fn static_content_yields_tiny_p_frames() {
        let a = textured(64, 48, 0);
        let key = encode_intra(&a);
        let p = encode_inter(&a, &a);
        assert!(
            p.len() * 4 < key.len(),
            "identical frames must delta to near nothing: key {} vs p {}",
            key.len(),
            p.len()
        );
    }

    #[test]
    fn gradient_frames_beat_raw_size() {
        let f = textured(64, 64, 0);
        let raw = f.sample_count();
        let data = encode_intra(&f);
        assert!(
            (data.len() as u64) < raw,
            "predictable texture must compress: {} vs raw {}",
            data.len(),
            raw
        );
    }

    #[test]
    fn temporal_plane_without_reference_is_typed_error() {
        let a = textured(32, 32, 0);
        let data = encode_inter(&a, &a); // all planes temporal
        assert_eq!(
            decode_frame(&data, 32, 32, None),
            Err(PredError::MissingReference)
        );
    }

    /// The oracle for [`encode_inter`]: the same encode, deciding on the
    /// full sum.
    fn encode_inter_full_sum(frame: &Frame, prev: &Frame) -> Vec<u8> {
        let mut residuals = Vec::new();
        for plane in Plane::ALL {
            let (w, h) = plane_dims(frame, plane);
            let (cur, old) = (frame.plane(plane), prev.plane(plane));
            let delta = || cur.iter().zip(old).map(|(&c, &p)| c.wrapping_sub(p));
            let temporal_cost: u64 = delta().map(|r| residual_cost(r) as u64).sum();
            if temporal_cost <= spatial_cost(cur, w, h) {
                residuals.push(PLANE_TEMPORAL);
                residuals.extend(delta());
            } else {
                encode_plane_spatial(cur, w, h, &mut residuals);
            }
        }
        seal(&residuals)
    }

    fn plane_dims(f: &Frame, plane: Plane) -> (usize, usize) {
        (
            f.plane_width(plane) as usize,
            f.plane_height(plane) as usize,
        )
    }

    /// A frame whose smooth planes a row predictor models almost exactly:
    /// what a scene cut lands on.
    fn smooth(w: u32, h: u32) -> Frame {
        let mut f = Frame::filled(w, h, 0, 70, 180);
        for y in 0..h {
            for x in 0..w {
                f.set_sample(Plane::Y, x, y, (40 + x / 2 + y) as u8);
            }
        }
        f
    }

    /// A reference frame at temporal cost exactly `cost(plane)` from each
    /// plane of `cur`: the cost is spread over the leading samples, at most
    /// 128 (the largest residual cost) apiece.
    fn reference_at(cur: &Frame, cost: impl Fn(Plane) -> u64) -> Frame {
        let [y, u, v] = Plane::ALL.map(|plane| {
            let mut left = cost(plane);
            let old: Vec<u8> = cur
                .plane(plane)
                .iter()
                .map(|&c| {
                    let d = left.min(128);
                    left -= d;
                    c.wrapping_sub(d as u8)
                })
                .collect();
            assert_eq!(left, 0, "cost does not fit the plane");
            old
        });
        Frame::from_planes(cur.width(), cur.height(), y, u, v).unwrap()
    }

    /// The thresholds at which the early exit could go wrong on a plane:
    /// around zero, around the full sum (a tie goes to temporal), after the
    /// first row and just before the last.
    fn edge_thresholds(samples: &[u8], w: usize, h: usize) -> [u64; 9] {
        let full = spatial_cost(samples, w, h);
        let first_row = spatial_cost(samples, w, 1);
        let all_but_last = spatial_cost(samples, w, h - 1);
        [
            0,
            1,
            first_row,
            first_row + 1,
            all_but_last,
            all_but_last + 1,
            full.saturating_sub(1),
            full,
            full + 1,
        ]
    }

    /// The row-cost sum is the cost of the plane's actual spatial encode.
    #[test]
    fn spatial_cost_is_what_a_spatial_encode_reaches() {
        for t in 0..6 {
            let f = textured(64, 48, t);
            for plane in Plane::ALL {
                let (w, h) = plane_dims(&f, plane);
                let samples = f.plane(plane);
                let mut scratch = Vec::new();
                encode_plane_spatial(samples, w, h, &mut scratch);
                let full: u64 = scratch[1 + h..]
                    .iter()
                    .map(|&r| residual_cost(r) as u64)
                    .sum();
                assert_eq!(spatial_cost(samples, w, h), full, "plane {plane:?} t {t}");
            }
        }
    }

    #[test]
    fn spatial_beats_is_the_full_sum_comparison() {
        let frames = [
            Frame::filled(64, 48, 0, 0, 0),
            Frame::filled(64, 48, 90, 128, 200),
            textured(64, 48, 0),
            textured(64, 48, 3),
            smooth(64, 48),
        ];
        for (i, f) in frames.iter().enumerate() {
            for plane in Plane::ALL {
                let (w, h) = plane_dims(f, plane);
                let samples = f.plane(plane);
                let full = spatial_cost(samples, w, h);
                for temporal in edge_thresholds(samples, w, h).into_iter().chain([u64::MAX]) {
                    assert_eq!(
                        spatial_beats(samples, w, h, temporal),
                        full < temporal,
                        "frame {i} plane {plane:?}: full {full}, temporal {temporal}"
                    );
                }
            }
        }
    }

    /// `encode_inter` against references placed at every edge threshold of
    /// every plane — the exact tie (temporal keeps the plane, so decoding
    /// needs the reference), one either side of it, the exit firing after
    /// the first row and at the last — is byte-equal to the full-sum encode.
    #[test]
    fn inter_matches_the_full_sum_encode_at_every_edge() {
        for cur in [textured(64, 48, 2), smooth(64, 48)] {
            let edges = |plane| {
                let (w, h) = plane_dims(&cur, plane);
                edge_thresholds(cur.plane(plane), w, h)
            };
            for k in 0..edges(Plane::Y).len() {
                let reference = reference_at(&cur, |plane| edges(plane)[k]);
                let data = encode_inter(&cur, &reference);
                assert_eq!(data, encode_inter_full_sum(&cur, &reference), "edge {k}");
                assert_eq!(
                    decode_frame(&data, 64, 48, Some(&reference)).as_ref(),
                    Ok(&cur)
                );
            }
            let full = |plane| {
                let (w, h) = plane_dims(&cur, plane);
                spatial_cost(cur.plane(plane), w, h)
            };
            // A tie on every plane is temporal on every plane; one past it
            // is spatial on every plane and decodes with no reference.
            let tie = encode_inter(&cur, &reference_at(&cur, full));
            assert_eq!(
                decode_frame(&tie, 64, 48, None),
                Err(PredError::MissingReference)
            );
            let past = encode_inter(&cur, &reference_at(&cur, |p| full(p) + 1));
            assert_eq!(decode_frame(&past, 64, 48, None).as_ref(), Ok(&cur));
        }
    }

    /// Real motion and a real cut, both directions: the decision, and so
    /// the bytes, are the full sum's.
    #[test]
    fn inter_matches_the_full_sum_encode_on_motion_and_cuts() {
        let clips = [
            (textured(64, 48, 0), textured(64, 48, 0)),
            (textured(64, 48, 0), textured(64, 48, 1)),
            (textured(64, 48, 0), smooth(64, 48)),
            (smooth(64, 48), textured(64, 48, 0)),
            (Frame::filled(64, 48, 90, 128, 128), smooth(64, 48)),
        ];
        for (i, (prev, cur)) in clips.iter().enumerate() {
            assert_eq!(
                encode_inter(cur, prev),
                encode_inter_full_sum(cur, prev),
                "clip {i}"
            );
        }
    }

    /// A scene cut takes the spatial branch on every plane: the P-frame
    /// decodes with no reference at all.
    #[test]
    fn inter_codes_a_scene_cut_spatially() {
        let a = textured(64, 48, 0);
        let mut cut = Frame::filled(64, 48, 200, 60, 190);
        cut.fill_rect(Rect::new(8, 8, 16, 16), 40, 128, 128);
        let data = encode_inter(&cut, &a);
        assert_eq!(decode_frame(&data, 64, 48, None), Ok(cut));
    }

    #[test]
    fn corrupt_payloads_never_panic() {
        let f = textured(32, 32, 0);
        let data = encode_intra(&f);
        for cut in 0..data.len() {
            let _ = decode_frame(&data[..cut], 32, 32, None);
        }
        for byte in 0..data.len() {
            let mut bad = data.clone();
            bad[byte] ^= 0x10;
            if let Ok(out) = decode_frame(&bad, 32, 32, None) {
                assert_eq!(out, f, "accepted corruption must still be bit-exact");
            }
        }
    }

    #[test]
    fn wrong_dimensions_rejected() {
        let f = textured(32, 32, 0);
        let data = encode_intra(&f);
        assert!(decode_frame(&data, 64, 64, None).is_err());
        assert!(decode_frame(&data, 16, 16, None).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_intra_roundtrip(
            seed in any::<u64>(),
        ) {
            // Pseudo-random plane contents driven by the seed: exercises
            // texture the row predictors cannot model.
            let (w, h) = (16 + (seed % 3) as u32 * 16, 16 + ((seed >> 8) % 2) as u32 * 16);
            let mut f = Frame::black(w, h);
            let mut s = seed | 1;
            for p in Plane::ALL {
                let (pw, ph) = (f.plane_width(p), f.plane_height(p));
                for y in 0..ph {
                    for x in 0..pw {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        f.set_sample(p, x, y, (s >> 33) as u8);
                    }
                }
            }
            let data = encode_intra(&f);
            prop_assert_eq!(decode_frame(&data, w, h, None).as_ref().ok(), Some(&f));
        }

        #[test]
        fn prop_spatial_beats_is_the_full_sum_comparison(
            seed in any::<u64>(),
            w in 1usize..40,
            h in 1usize..24,
            noise in 0u64..=255,
            eighths in 0u64..=16,
            nudge in 0u64..=2,
        ) {
            // A ramp the predictors model, under `noise` levels of texture
            // they cannot: from all-but-free to incompressible.
            let mut s = seed | 1;
            let samples: Vec<u8> = (0..w * h)
                .map(|i| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (((i % w) * 2 + i / w) as u64 + (s >> 33) % (noise + 1)) as u8
                })
                .collect();
            let full = spatial_cost(&samples, w, h);
            // Thresholds from zero to twice the sum, and one either side.
            let temporal = (full * eighths / 8 + nudge).saturating_sub(1);
            prop_assert_eq!(spatial_beats(&samples, w, h, temporal), full < temporal);
        }

        #[test]
        fn prop_inter_roundtrip(seed in any::<u64>(), delta in 0u8..=255u8) {
            let mut a = Frame::black(32, 32);
            let mut s = seed | 1;
            for y in 0..32 {
                for x in 0..32 {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    a.set_sample(Plane::Y, x, y, (s >> 40) as u8);
                }
            }
            let mut b = a.clone();
            for y in 8..16 {
                for x in 8..16 {
                    let v = b.sample(Plane::Y, x, y).wrapping_add(delta);
                    b.set_sample(Plane::Y, x, y, v);
                }
            }
            let data = encode_inter(&b, &a);
            prop_assert_eq!(decode_frame(&data, 32, 32, Some(&a)).as_ref().ok(), Some(&b));
        }
    }
}
