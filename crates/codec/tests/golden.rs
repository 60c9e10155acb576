//! Golden digests of the codecs (DCT first, `Pred` below): the encoders'
//! container bytes and every decoded plane, pinned as FNV-1a-64 values.
//!
//! The on-disk format, the encoder's output and the decoder's pixels are a
//! contract — stores written by one build are read by the next, and the
//! encoder's in-loop reconstruction must equal the decoder's. Any change to
//! the codec kernels (transform, deblocking filter, bit reader, block
//! reconstruction) must leave every digest below untouched; a digest that
//! moves means stored tiles would decode to different pixels.

use tasm_codec::{
    encode_video, pred, DecodeStats, EncoderConfig, RateControl, TileCodec, TileLayout, TileVideo,
};
use tasm_video::{Frame, Plane, Rect, VecFrameSource};

const W: u32 = 64;
const H: u32 = 64;
const FRAMES: u32 = 12;
const GOP: u32 = 6;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn hash3(x: u32, y: u32, t: u32) -> u32 {
    let mut v = x
        .wrapping_mul(0x9e37_79b1)
        .wrapping_add(y.wrapping_mul(0x85eb_ca6b))
        .wrapping_add(t.wrapping_mul(0xc2b2_ae35));
    v ^= v >> 15;
    v = v.wrapping_mul(0x2c1b_3c6d);
    v ^ (v >> 13)
}

/// A clip that exercises every block mode: a static textured background
/// (SKIP), a textured object moving 3 px right and 1 px down per frame
/// (INTER with nonzero vectors and residuals), and a square of fresh noise
/// every frame (INTRA fallback inside P-frames).
fn clip() -> VecFrameSource {
    let frames = (0..FRAMES)
        .map(|t| {
            let mut f = Frame::black(W, H);
            for y in 0..H {
                for x in 0..W {
                    let base = (x * 5 + y * 3) % 160 + 40 + hash3(x, y, 0) % 7;
                    f.set_sample(Plane::Y, x, y, base as u8);
                }
            }
            for y in 0..H / 2 {
                for x in 0..W / 2 {
                    f.set_sample(Plane::U, x, y, (96 + (x + 2 * y) % 64) as u8);
                    f.set_sample(Plane::V, x, y, (160 - (2 * x + y) % 64) as u8);
                }
            }
            // The moving object (its chroma moves with it).
            let (ox, oy) = (4 + 3 * t, 8 + t);
            f.fill_rect(Rect::new(ox & !1, oy & !1, 16, 16), 0, 90, 170);
            for y in 0..16 {
                for x in 0..16 {
                    let v = 215 - ((x ^ y) & 31) - hash3(x, y, 1) % 5;
                    f.set_sample(Plane::Y, ox + x, oy + y, v as u8);
                }
            }
            // Fresh noise each frame.
            for y in 40..56 {
                for x in 8..24 {
                    f.set_sample(Plane::Y, x, y, (hash3(x, y, t + 2) % 256) as u8);
                }
            }
            f
        })
        .collect();
    VecFrameSource::new(frames)
}

fn digest_frames(mut h: u64, frames: &[Frame]) -> u64 {
    for f in frames {
        for p in Plane::ALL {
            h = fnv1a(h, f.plane(p));
        }
    }
    h
}

/// Encodes the clip and returns (digest of all tiles' container bytes,
/// digest of every decoded plane of every tile), checking on the way that a
/// ranged decode with warm-up and a mid-GOP resume reproduce the full
/// decode's frames.
fn run(cfg: EncoderConfig, layout: &TileLayout) -> (u64, u64) {
    let (tiles, _) = encode_video(&clip(), layout, &cfg).unwrap();
    let mut bytes_digest = FNV_SEED;
    let mut pixel_digest = FNV_SEED;
    for tile in &tiles {
        let bytes = tile.as_bytes();
        bytes_digest = fnv1a(bytes_digest, bytes);
        let tile = TileVideo::from_bytes(bytes.to_vec()).unwrap();
        let (all, stats) = tile.decode_all().unwrap();
        assert_eq!(all.len(), FRAMES as usize);
        assert_eq!(stats.frames_decoded, FRAMES as u64);
        pixel_digest = digest_frames(pixel_digest, &all);

        // Warm-up frames are decoded, charged and discarded.
        let (ranged, stats) = tile.decode_range(GOP + 3..FRAMES).unwrap();
        assert_eq!(stats.frames_decoded, (FRAMES - GOP) as u64);
        assert_eq!(&all[(GOP + 3) as usize..], &ranged[..]);

        // Mid-GOP resume from the previous reconstruction.
        let from = GOP + 2;
        let (resumed, stats) = resume(&tile, from, &all[from as usize - 1]);
        assert_eq!(stats.frames_decoded, (FRAMES - from) as u64);
        assert_eq!(&all[from as usize..], &resumed[..]);
    }
    (bytes_digest, pixel_digest)
}

/// Frames `from..FRAMES` of `tile` from a cursor resumed at `from` against
/// `reference`, the reconstruction of frame `from - 1`, and the work done.
fn resume(tile: &TileVideo, from: u32, reference: &Frame) -> (Vec<Frame>, DecodeStats) {
    let mut cursor = tile.cursor_at(from, Some(reference)).unwrap();
    let mut frames = Vec::new();
    while cursor.position() < FRAMES {
        frames.push(cursor.advance().unwrap().clone());
    }
    (frames, *cursor.stats())
}

fn cfg(qp: u8, deblock: bool) -> EncoderConfig {
    EncoderConfig {
        gop_len: GOP,
        qp,
        deblock,
        ..Default::default()
    }
}

/// Every pinned configuration: qp 4 / 28 / 40, deblocking on and off,
/// untiled and 2x2, constant QP and target rate.
fn cases() -> Vec<(&'static str, EncoderConfig, TileLayout)> {
    let untiled = || TileLayout::untiled(W, H);
    let tiled = || TileLayout::uniform(W, H, 2, 2).unwrap();
    let rate = |millibits_per_sample| EncoderConfig {
        rate: RateControl::TargetRate {
            millibits_per_sample,
        },
        ..cfg(24, true)
    };
    vec![
        ("untiled/qp4/no-deblock", cfg(4, false), untiled()),
        ("untiled/qp4/deblock", cfg(4, true), untiled()),
        ("untiled/qp28/no-deblock", cfg(28, false), untiled()),
        ("untiled/qp28/deblock", cfg(28, true), untiled()),
        ("untiled/qp40/no-deblock", cfg(40, false), untiled()),
        ("untiled/qp40/deblock", cfg(40, true), untiled()),
        ("2x2/qp4/deblock", cfg(4, true), tiled()),
        ("2x2/qp28/deblock", cfg(28, true), tiled()),
        ("2x2/qp40/no-deblock", cfg(40, false), tiled()),
        ("untiled/rate-0.15bpp", rate(150), untiled()),
        ("2x2/rate-0.6bpp", rate(600), tiled()),
    ]
}

/// (case, container-bytes digest, decoded-planes digest), computed on the
/// scalar reference codec before any fast path existed.
const GOLDEN: &[(&str, u64, u64)] = &[
    (
        "untiled/qp4/no-deblock",
        0xb0f1da304342493e,
        0xdde317f103b4888f,
    ),
    (
        "untiled/qp4/deblock",
        0xf0cc2c681963499a,
        0xb6ed9465bda25034,
    ),
    (
        "untiled/qp28/no-deblock",
        0x5d422ed405d9d9af,
        0x1a6b0f6f4ebce0e3,
    ),
    (
        "untiled/qp28/deblock",
        0x443a28de04a7cd95,
        0x30fed70f9cb2a5bf,
    ),
    (
        "untiled/qp40/no-deblock",
        0x8c90f91efcae69cf,
        0xaa3fd10d18abff99,
    ),
    (
        "untiled/qp40/deblock",
        0x12c261f27c95bb90,
        0x5ebad71bf94cdee7,
    ),
    ("2x2/qp4/deblock", 0x2d91950289a96166, 0xa18ce7775aa9347e),
    ("2x2/qp28/deblock", 0x6e74f40c6450ddc7, 0x5fa6ce8f390e2428),
    (
        "2x2/qp40/no-deblock",
        0xec26a877a3590141,
        0xeec2db10f1c17f5f,
    ),
    (
        "untiled/rate-0.15bpp",
        0x8104e490bae170ee,
        0x902763148530384d,
    ),
    ("2x2/rate-0.6bpp", 0x2348b9aaf5436d47, 0x5a8c2faf5d9a690f),
];

#[test]
fn container_bytes_and_decoded_planes_are_pinned() {
    let got: Vec<(&str, u64, u64)> = cases()
        .into_iter()
        .map(|(name, cfg, layout)| {
            let (bytes, pixels) = run(cfg, &layout);
            (name, bytes, pixels)
        })
        .collect();
    if got != GOLDEN {
        let table: String = got
            .iter()
            .map(|(n, b, p)| format!("    (\"{n}\", {b:#018x}, {p:#018x}),\n"))
            .collect();
        panic!("codec digests moved; this build produces:\n{table}");
    }
}

/// `TileDecoder::with_reference` — the streaming form of a mid-GOP resume —
/// continues bit-exactly from a reconstruction handed in by value.
#[test]
fn golden_with_reference_resume() {
    use tasm_codec::TileDecoder;
    let c = cfg(28, true);
    let (tiles, _) = encode_video(&clip(), &TileLayout::untiled(W, H), &c).unwrap();
    let tile = &tiles[0];
    let (all, _) = tile.decode_all().unwrap();
    let from = 3u32;
    let mut dec =
        TileDecoder::with_reference(W, H, c.qp, c.deblock, all[from as usize - 1].clone());
    let resumed: Vec<Frame> = (from..GOP)
        .map(|i| tile.frame(i).unwrap())
        .map(|ef| dec.decode_next_qp(ef.data, ef.is_key, ef.qp).unwrap())
        .collect();
    assert_eq!(&all[from as usize..GOP as usize], &resumed[..]);
    let digest = digest_frames(FNV_SEED, &resumed);
    assert_eq!(
        digest, 0x057c5beec8550a52,
        "resumed planes digest moved: got {digest:#018x}"
    );
}

// ---------------------------------------------------------------------------
// `Pred` tiles, and DCT on more layouts
// ---------------------------------------------------------------------------
//
// No store writes `Pred` tiles any more, but stores written by earlier
// builds hold them: `pred::encode_tile` must keep producing their bytes and
// the decoder their planes.

/// A flat clip: constant background, one solid block moving 2 px per frame.
/// The lossless predictor codes it in a handful of bytes per frame.
fn flat_clip() -> VecFrameSource {
    let frames = (0..FRAMES)
        .map(|t| {
            let mut f = Frame::filled(W, H, 90, 120, 136);
            f.fill_rect(Rect::new(8 + 2 * t, 40, 8, 8), 200, 100, 150);
            f
        })
        .collect();
    VecFrameSource::new(frames)
}

/// A static textured clip: every sample from a hash, nothing moves. DCT
/// P-frames are all SKIP; lossless P-frames are all-zero temporal deltas.
fn textured_clip() -> VecFrameSource {
    let mut f = Frame::black(W, H);
    for p in Plane::ALL {
        let (pw, ph) = (f.plane_width(p), f.plane_height(p));
        for y in 0..ph {
            for x in 0..pw {
                let v = 64 + (x * 2 + y) % 96 + hash3(x, y, 7 + p as u32) % 24;
                f.set_sample(p, x, y, v as u8);
            }
        }
    }
    VecFrameSource::new(vec![f; FRAMES as usize])
}

/// Split-clip geometry.
const SW: u32 = 384;
const SH: u32 = 256;
/// Width of the split clip's flat part.
const FLAT_W: u32 = 256;

/// The left `FLAT_W` columns flat and static, the rest textured with a band
/// of fresh noise every frame: a layout that splits at `x = FLAT_W` has a
/// flat tile and a busy one.
fn split_clip() -> VecFrameSource {
    let frames = (0..FRAMES)
        .map(|t| {
            let mut f = Frame::filled(SW, SH, 90, 120, 136);
            for y in 0..SH {
                for x in FLAT_W..SW {
                    let noisy = (64..128).contains(&y);
                    let v = (x * 5 + y * 3) % 160
                        + 40
                        + hash3(x, y, if noisy { t + 1 } else { 0 }) % 23;
                    f.set_sample(Plane::Y, x, y, v as u8);
                }
            }
            f
        })
        .collect();
    VecFrameSource::new(frames)
}

/// Like [`run`] for tiles of `codec` (`Pred` through `pred::encode_tile`):
/// (container-bytes digest, decoded-planes digest).
fn run_codec(src: &VecFrameSource, codec: TileCodec, layout: &TileLayout) -> (u64, u64) {
    let tiles = encode(src, codec, layout);
    let mut bytes_digest = FNV_SEED;
    let mut pixel_digest = FNV_SEED;
    for (tile, (_, rect)) in tiles.iter().zip(layout.tiles()) {
        assert_eq!(tile.codec(), codec);
        let bytes = tile.as_bytes();
        bytes_digest = fnv1a(bytes_digest, bytes);
        let back = TileVideo::from_bytes(bytes.to_vec()).unwrap();
        assert_eq!(&back, tile);
        let (all, _) = back.decode_all().unwrap();
        assert_eq!(all.len(), FRAMES as usize);
        pixel_digest = digest_frames(pixel_digest, &all);
        if codec == TileCodec::Pred {
            // Lossless: the decoded tile is the source's tile.
            for (t, f) in all.iter().enumerate() {
                assert_eq!(f, &src.frames()[t].crop(rect));
            }
        }
        let from = GOP + 2;
        let (resumed, _) = resume(&back, from, &all[from as usize - 1]);
        assert_eq!(&all[from as usize..], &resumed[..]);
    }
    (bytes_digest, pixel_digest)
}

/// The clip's tiles under `layout` in `codec` at QP 28 with deblocking:
/// DCT through `encode_video`, `Pred` tile by tile.
fn encode(src: &VecFrameSource, codec: TileCodec, layout: &TileLayout) -> Vec<TileVideo> {
    match codec {
        TileCodec::Dct => encode_video(src, layout, &cfg(28, true)).unwrap().0,
        TileCodec::Pred => layout
            .tiles()
            .map(|(_, rect)| pred::encode_tile(src, rect, GOP))
            .collect(),
    }
}

type CodecCase = (&'static str, fn() -> VecFrameSource, TileCodec, TileLayout);

/// Flat, textured, moving and split clips; untiled, 2x2, 3x4 and non-uniform
/// layouts; `Pred`, and `Dct` on the layouts the first table lacks.
fn codec_cases() -> Vec<CodecCase> {
    let untiled = || TileLayout::untiled(W, H);
    let tiled = || TileLayout::uniform(W, H, 2, 2).unwrap();
    let uneven = || TileLayout::new(vec![16, 48], vec![48, 16]).unwrap();
    let split_cols = || TileLayout::new(vec![FLAT_W, SW - FLAT_W], vec![SH]).unwrap();
    let grid = || TileLayout::uniform(W, H, 3, 4).unwrap();
    let (dct, pred) = (TileCodec::Dct, TileCodec::Pred);
    vec![
        ("pred/flat/untiled", flat_clip, pred, untiled()),
        ("pred/flat/2x2", flat_clip, pred, tiled()),
        ("pred/textured/untiled", textured_clip, pred, untiled()),
        ("pred/textured/uneven", textured_clip, pred, uneven()),
        ("pred/moving/untiled", clip, pred, untiled()),
        ("pred/moving/2x2", clip, pred, tiled()),
        ("pred/moving/uneven", clip, pred, uneven()),
        ("pred/split/2cols", split_clip, pred, split_cols()),
        ("dct/moving/uneven", clip, dct, uneven()),
        ("dct/moving/3x4", clip, dct, grid()),
        ("pred/moving/3x4", clip, pred, grid()),
    ]
}

/// (case, container-bytes digest, decoded-planes digest), computed on the
/// per-tile encode loop before `encode_video` went frame-major and before
/// `encode_inter`'s early exit.
const GOLDEN_CODECS: &[(&str, u64, u64)] = &[
    ("pred/flat/untiled", 0x92cd2081e032c64e, 0xf553f45193a49a25),
    ("pred/flat/2x2", 0xeb9d6cdcc0f45336, 0x3d7747cd892f4425),
    (
        "pred/textured/untiled",
        0x2936ca98d490cd42,
        0xbb3e0ce4b2bc4955,
    ),
    (
        "pred/textured/uneven",
        0xdaebc75a4cc6a3a9,
        0x71927fa0b6faa435,
    ),
    (
        "pred/moving/untiled",
        0x9080c600832fa367,
        0xa538c98942e1a4cd,
    ),
    ("pred/moving/2x2", 0xb180bb6bfa77083f, 0xe484997ccd0748bd),
    ("pred/moving/uneven", 0x1a5a32156a076cb1, 0x5c4b671ad4ff7675),
    ("pred/split/2cols", 0x6ac8a0709163c96a, 0xdb8d02fc8484736c),
    ("dct/moving/uneven", 0x02618c175f17f4d7, 0xadb3dae31c8e3ad2),
    ("dct/moving/3x4", 0x17d46b6aec058fc9, 0x961064d725306db9),
    ("pred/moving/3x4", 0x3b2704d4a4391e67, 0x0fa1e86d24ac2ec9),
];

#[test]
fn pred_tiles_and_more_dct_layouts_are_pinned() {
    let got: Vec<(&str, u64, u64)> = codec_cases()
        .into_iter()
        .map(|(name, clip, codec, layout)| {
            let (bytes, pixels) = run_codec(&clip(), codec, &layout);
            (name, bytes, pixels)
        })
        .collect();
    if got != GOLDEN_CODECS {
        let table: String = got
            .iter()
            .map(|(n, b, p)| format!("    (\"{n}\", {b:#018x}, {p:#018x}),\n"))
            .collect();
        panic!("pred/dct digests moved; this build produces:\n{table}");
    }
}
