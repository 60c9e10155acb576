//! Golden digests of the codecs (DCT first, `Pred` and `Auto` below): the
//! encoder's container bytes and every decoded plane, pinned as FNV-1a-64
//! values.
//!
//! The on-disk format, the encoder's output and the decoder's pixels are a
//! contract — stores written by one build are read by the next, and the
//! encoder's in-loop reconstruction must equal the decoder's. Any change to
//! the codec kernels (transform, deblocking filter, bit reader, block
//! reconstruction) must leave every digest below untouched; a digest that
//! moves means stored tiles would decode to different pixels.

use tasm_codec::{
    encode_video, CodecChoice, EncoderConfig, RateControl, TileCodec, TileLayout, TileVideo,
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
    let (tiles, _) = encode_video(&clip(), layout, &cfg, false).unwrap();
    let mut bytes_digest = FNV_SEED;
    let mut pixel_digest = FNV_SEED;
    for tile in &tiles {
        let bytes = tile.to_bytes();
        bytes_digest = fnv1a(bytes_digest, &bytes);
        let tile = TileVideo::from_bytes(&bytes).unwrap();
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
        let (resumed, stats) = tile
            .decode_resume(from, FRAMES, Some(&all[from as usize - 1]))
            .unwrap();
        assert_eq!(stats.frames_decoded, (FRAMES - from) as u64);
        assert_eq!(&all[from as usize..], &resumed[..]);
    }
    (bytes_digest, pixel_digest)
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
    let (tiles, _) = encode_video(&clip(), &TileLayout::untiled(W, H), &c, false).unwrap();
    let tile = &tiles[0];
    let (all, _) = tile.decode_all().unwrap();
    let from = 3usize;
    let mut dec = TileDecoder::with_reference(W, H, c.qp, c.deblock, all[from - 1].clone());
    let resumed: Vec<Frame> = tile.frames[from..GOP as usize]
        .iter()
        .map(|ef| dec.decode_next_qp(&ef.data, ef.is_key, ef.qp).unwrap())
        .collect();
    assert_eq!(&all[from..GOP as usize], &resumed[..]);
    let digest = digest_frames(FNV_SEED, &resumed);
    assert_eq!(
        digest, 0x057c5beec8550a52,
        "resumed planes digest moved: got {digest:#018x}"
    );
}

// ---------------------------------------------------------------------------
// `CodecChoice::Pred` and `CodecChoice::Auto`
// ---------------------------------------------------------------------------
//
// The lossless codec and the per-tile size trial are pinned the same way:
// stores written with either must keep their bytes, and the trial must keep
// choosing the same codec for the same tile, whatever order `encode_video`
// visits tiles and frames in.

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

/// Split-clip geometry: a flat tile must be large before the lossless
/// stream wins (per frame it pays ~30 bytes of entropy header, the DCT one
/// bit per SKIP block; they cross near 30k samples).
const SW: u32 = 384;
const SH: u32 = 256;
/// Width of the split clip's flat part.
const FLAT_W: u32 = 256;

/// The left `FLAT_W` columns flat and static, the rest textured with a band
/// of fresh noise every frame: a layout that splits at `x = FLAT_W` has
/// tiles on which the size trial keeps the lossless stream and tiles on
/// which it keeps the DCT one.
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

/// Like [`run`] for an explicit codec choice: (container-bytes digest,
/// decoded-planes digest, codec id of every tile in raster order).
fn run_choice(
    src: &VecFrameSource,
    codec: CodecChoice,
    layout: &TileLayout,
) -> (u64, u64, Vec<u8>) {
    let cfg = EncoderConfig {
        codec,
        ..cfg(28, true)
    };
    let (tiles, _) = encode_video(src, layout, &cfg, false).unwrap();
    let mut bytes_digest = FNV_SEED;
    let mut pixel_digest = FNV_SEED;
    for (tile, (_, rect)) in tiles.iter().zip(layout.tiles()) {
        let bytes = tile.to_bytes();
        bytes_digest = fnv1a(bytes_digest, &bytes);
        let back = TileVideo::from_bytes(&bytes).unwrap();
        assert_eq!(&back, tile);
        let (all, _) = back.decode_all().unwrap();
        assert_eq!(all.len(), FRAMES as usize);
        pixel_digest = digest_frames(pixel_digest, &all);
        if tile.codec == TileCodec::Pred {
            // Lossless: the decoded tile is the source's tile.
            for (t, f) in all.iter().enumerate() {
                assert_eq!(f, &src.frames()[t].crop(rect));
            }
        }
        let from = GOP + 2;
        let (resumed, _) = back
            .decode_resume(from, FRAMES, Some(&all[from as usize - 1]))
            .unwrap();
        assert_eq!(&all[from as usize..], &resumed[..]);
    }
    let codecs = tiles.iter().map(|t| t.codec.id()).collect();
    (bytes_digest, pixel_digest, codecs)
}

type ChoiceCase = (
    &'static str,
    fn() -> VecFrameSource,
    CodecChoice,
    TileLayout,
);

/// Flat, textured, moving and split clips; untiled, 2x2, 3x4 and non-uniform
/// layouts; `Pred` and `Auto`, and `Dct` on the layouts the first table
/// lacks.
fn choice_cases() -> Vec<ChoiceCase> {
    let untiled = || TileLayout::untiled(W, H);
    let tiled = || TileLayout::uniform(W, H, 2, 2).unwrap();
    let uneven = || TileLayout::new(vec![16, 48], vec![48, 16]).unwrap();
    let split_cols = || TileLayout::new(vec![FLAT_W, SW - FLAT_W], vec![SH]).unwrap();
    let split_uneven = || TileLayout::new(vec![FLAT_W, 64, 64], vec![192, 64]).unwrap();
    let grid = || TileLayout::uniform(W, H, 3, 4).unwrap();
    let (dct, pred, auto) = (CodecChoice::Dct, CodecChoice::Pred, CodecChoice::Auto);
    vec![
        ("pred/flat/untiled", flat_clip, pred, untiled()),
        ("pred/flat/2x2", flat_clip, pred, tiled()),
        ("pred/textured/untiled", textured_clip, pred, untiled()),
        ("pred/textured/uneven", textured_clip, pred, uneven()),
        ("pred/moving/untiled", clip, pred, untiled()),
        ("pred/moving/2x2", clip, pred, tiled()),
        ("pred/moving/uneven", clip, pred, uneven()),
        ("auto/flat/untiled", flat_clip, auto, untiled()),
        ("auto/flat/uneven", flat_clip, auto, uneven()),
        ("auto/textured/2x2", textured_clip, auto, tiled()),
        ("auto/moving/untiled", clip, auto, untiled()),
        ("auto/moving/2x2", clip, auto, tiled()),
        ("auto/moving/uneven", clip, auto, uneven()),
        ("pred/split/2cols", split_clip, pred, split_cols()),
        (
            "auto/split/untiled",
            split_clip,
            auto,
            TileLayout::untiled(SW, SH),
        ),
        ("auto/split/2cols", split_clip, auto, split_cols()),
        ("auto/split/uneven", split_clip, auto, split_uneven()),
        ("dct/moving/uneven", clip, dct, uneven()),
        ("dct/moving/3x4", clip, dct, grid()),
        ("pred/moving/3x4", clip, pred, grid()),
        ("auto/moving/3x4", clip, auto, grid()),
        ("auto/flat/3x4", flat_clip, auto, grid()),
    ]
}

/// (case, container-bytes digest, decoded-planes digest, tile codec ids),
/// computed on the per-tile encode loop before `encode_video` went
/// frame-major and before `encode_inter`'s early exit.
const GOLDEN_CHOICE: &[(&str, u64, u64, &[u8])] = &[
    (
        "pred/flat/untiled",
        0x92cd2081e032c64e,
        0xf553f45193a49a25,
        &[1],
    ),
    (
        "pred/flat/2x2",
        0xeb9d6cdcc0f45336,
        0x3d7747cd892f4425,
        &[1, 1, 1, 1],
    ),
    (
        "pred/textured/untiled",
        0x2936ca98d490cd42,
        0xbb3e0ce4b2bc4955,
        &[1],
    ),
    (
        "pred/textured/uneven",
        0xdaebc75a4cc6a3a9,
        0x71927fa0b6faa435,
        &[1, 1, 1, 1],
    ),
    (
        "pred/moving/untiled",
        0x9080c600832fa367,
        0xa538c98942e1a4cd,
        &[1],
    ),
    (
        "pred/moving/2x2",
        0xb180bb6bfa77083f,
        0xe484997ccd0748bd,
        &[1, 1, 1, 1],
    ),
    (
        "pred/moving/uneven",
        0x1a5a32156a076cb1,
        0x5c4b671ad4ff7675,
        &[1, 1, 1, 1],
    ),
    (
        "auto/flat/untiled",
        0xd8b9688a312a7db1,
        0x513c06987ff51e88,
        &[0],
    ),
    (
        "auto/flat/uneven",
        0x470af11f0c84476a,
        0x2538150c1e4e1934,
        &[0, 0, 0, 0],
    ),
    (
        "auto/textured/2x2",
        0x9691aa6bd39ccdc7,
        0x311b27abb22db3f5,
        &[0, 0, 0, 0],
    ),
    (
        "auto/moving/untiled",
        0x443a28de04a7cd95,
        0x30fed70f9cb2a5bf,
        &[0],
    ),
    (
        "auto/moving/2x2",
        0x6e74f40c6450ddc7,
        0x5fa6ce8f390e2428,
        &[0, 0, 0, 0],
    ),
    (
        "auto/moving/uneven",
        0x02618c175f17f4d7,
        0xadb3dae31c8e3ad2,
        &[0, 0, 0, 0],
    ),
    (
        "pred/split/2cols",
        0x6ac8a0709163c96a,
        0xdb8d02fc8484736c,
        &[1, 1],
    ),
    (
        "auto/split/untiled",
        0x8a86d0da2c6d71fc,
        0x746dd4d0817a876c,
        &[0],
    ),
    (
        "auto/split/2cols",
        0xe53493d0c92435a4,
        0xe431750b5a3fb01e,
        &[1, 0],
    ),
    (
        "auto/split/uneven",
        0x6d0779212876ecfa,
        0xa780b24bf944dca2,
        &[1, 0, 0, 0, 0, 0],
    ),
    (
        "dct/moving/uneven",
        0x02618c175f17f4d7,
        0xadb3dae31c8e3ad2,
        &[0, 0, 0, 0],
    ),
    (
        "dct/moving/3x4",
        0x17d46b6aec058fc9,
        0x961064d725306db9,
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "pred/moving/3x4",
        0x3b2704d4a4391e67,
        0x0fa1e86d24ac2ec9,
        &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    ),
    (
        "auto/moving/3x4",
        0x17d46b6aec058fc9,
        0x961064d725306db9,
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "auto/flat/3x4",
        0x007cb8d2e30ae4cf,
        0xf4aced31c1f88d28,
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
];

#[test]
fn pred_and_auto_bytes_planes_and_choices_are_pinned() {
    let got: Vec<(&str, u64, u64, Vec<u8>)> = choice_cases()
        .into_iter()
        .map(|(name, clip, codec, layout)| {
            let (bytes, pixels, codecs) = run_choice(&clip(), codec, &layout);
            (name, bytes, pixels, codecs)
        })
        .collect();
    let same = got.len() == GOLDEN_CHOICE.len()
        && got
            .iter()
            .zip(GOLDEN_CHOICE)
            .all(|(g, w)| (g.0, g.1, g.2, g.3.as_slice()) == *w);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, b, p, c)| format!("    (\"{n}\", {b:#018x}, {p:#018x}, &{c:?}),\n"))
            .collect();
        panic!("pred/auto digests moved; this build produces:\n{table}");
    }
    // The trial is exercised both ways: the large flat tile keeps the
    // lossless stream, the busy one the DCT stream.
    let split = &got.iter().find(|g| g.0 == "auto/split/2cols").unwrap().3;
    assert_eq!(split, &[TileCodec::Pred.id(), TileCodec::Dct.id()]);
}

/// Worker threads each encode a run of tiles; the streams are the serial
/// ones (which the tables above pin) for every codec choice and layout.
#[test]
fn parallel_encode_equals_serial_on_every_pinned_case() {
    for (name, cfg, layout) in cases() {
        let (serial, _) = encode_video(&clip(), &layout, &cfg, false).unwrap();
        let (parallel, _) = encode_video(&clip(), &layout, &cfg, true).unwrap();
        assert_eq!(serial, parallel, "{name}");
    }
    for (name, clip, codec, layout) in choice_cases() {
        let cfg = EncoderConfig {
            codec,
            ..cfg(28, true)
        };
        let (serial, _) = encode_video(&clip(), &layout, &cfg, false).unwrap();
        let (parallel, _) = encode_video(&clip(), &layout, &cfg, true).unwrap();
        assert_eq!(serial, parallel, "{name}");
    }
}

/// The `Auto` size trial against its definition, through the public API:
/// per tile, the stream `Pred` alone writes where its payload is strictly
/// smaller than the one `Dct` alone writes, else that one — codec and
/// bytes, serial and parallel, for every clip, layout and encoder setting
/// pinned above. However the trial gets there, it may not decide otherwise.
#[test]
fn auto_keeps_per_tile_the_smaller_of_the_dct_and_pred_streams() {
    let settings = cases()
        .into_iter()
        .map(|(name, cfg, layout)| (name, clip as fn() -> VecFrameSource, cfg, layout))
        .chain(
            choice_cases()
                .into_iter()
                .map(|(name, clip, _, layout)| (name, clip, cfg(28, true), layout)),
        );
    let mut kept = [0usize; 2];
    for (name, clip, cfg, layout) in settings {
        let src = clip();
        let encode = |codec, parallel| {
            let cfg = EncoderConfig { codec, ..cfg };
            encode_video(&src, &layout, &cfg, parallel).unwrap().0
        };
        let dct = encode(CodecChoice::Dct, false);
        let pred = encode(CodecChoice::Pred, false);
        let want: Vec<TileVideo> = dct
            .into_iter()
            .zip(pred)
            .map(|(d, p)| {
                if p.payload_bytes() < d.payload_bytes() {
                    p
                } else {
                    d
                }
            })
            .collect();
        for parallel in [false, true] {
            assert_eq!(
                encode(CodecChoice::Auto, parallel),
                want,
                "{name} parallel={parallel}"
            );
        }
        for tile in &want {
            kept[tile.codec.id() as usize] += 1;
        }
    }
    assert!(kept[0] > 0 && kept[1] > 0, "kept {kept:?}");
}
