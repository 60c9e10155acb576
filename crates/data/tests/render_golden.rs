//! Golden digests of the scene renderer: the Y/U/V planes of frames 0,
//! len/2 and len−1, and the ground-truth boxes of the same frames, pinned
//! as FNV-1a-64 values for every dataset preset at two seeds and for
//! `SceneSpec::test_scene()`.
//!
//! Every store, fig bin and ledger corpus is built from these frames, so a
//! renderer change must leave every digest below untouched: a digest that
//! moves means the corpus (and every downstream count) would move with it.

use tasm_data::{Dataset, SceneSpec, SyntheticVideo};
use tasm_video::{FrameSource, Plane};

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (pixel digest, ground-truth digest) over frames 0, len/2 and len−1.
fn digests(video: &SyntheticVideo) -> (u64, u64) {
    let n = video.len();
    let (mut pixels, mut truth) = (FNV_SEED, FNV_SEED);
    for t in [0, n / 2, n - 1] {
        let f = video.frame(t);
        for p in Plane::ALL {
            pixels = fnv1a(pixels, f.plane(p));
        }
        for (label, b) in video.ground_truth(t) {
            truth = fnv1a(truth, label.as_bytes());
            for v in [b.x, b.y, b.w, b.h] {
                truth = fnv1a(truth, &v.to_le_bytes());
            }
        }
    }
    (pixels, truth)
}

/// Seconds of video per preset: 60 frames, so objects born or dying at a
/// quarter of the length differ between the three pinned frames.
const SECONDS: u32 = 2;

/// (preset, seed, pixel digest, ground-truth digest).
const PRESETS: [(Dataset, u64, u64, u64); 16] = [
    (
        Dataset::VisualRoad2K,
        1,
        0x33bc_a29b_2428_7acb,
        0xa1b9_efe1_0ba7_ddda,
    ),
    (
        Dataset::VisualRoad2K,
        42,
        0xc9c5_7f36_589e_f3d6,
        0xe50c_3138_3b64_88a9,
    ),
    (
        Dataset::VisualRoad4K,
        1,
        0xb477_257a_287f_443a,
        0x5175_2b4b_dd85_e376,
    ),
    (
        Dataset::VisualRoad4K,
        42,
        0xf428_f976_e4b2_3eec,
        0x36e9_e2ec_347f_98ee,
    ),
    (
        Dataset::NetflixPublic,
        1,
        0xc507_696f_a7d0_cadc,
        0xc1fe_e4b6_adef_f1f9,
    ),
    (
        Dataset::NetflixPublic,
        42,
        0xd001_dc3d_c28d_36c8,
        0x22e8_2b13_6553_f051,
    ),
    (
        Dataset::NetflixOpenSource,
        1,
        0x11ea_204d_af2d_ce7b,
        0x14a3_832a_7677_178e,
    ),
    (
        Dataset::NetflixOpenSource,
        42,
        0x1cb3_57b7_b92c_3135,
        0x3bcc_8d8d_d801_de3f,
    ),
    (
        Dataset::Xiph,
        1,
        0x9c4b_b3fb_1f90_be32,
        0x3864_9f2d_c196_0c51,
    ),
    (
        Dataset::Xiph,
        42,
        0x5bcb_2176_866e_5536,
        0xbcb1_30f1_26e2_9770,
    ),
    (
        Dataset::Mot16,
        1,
        0xa082_b912_b71a_7006,
        0xf4a5_b13a_6c2e_774c,
    ),
    (
        Dataset::Mot16,
        42,
        0x5456_b44f_0e9a_72c2,
        0x4713_429a_b33d_6d1f,
    ),
    (
        Dataset::ElFuenteSparse,
        1,
        0x2ce0_6bea_e91e_d29e,
        0xf284_528f_945d_4404,
    ),
    (
        Dataset::ElFuenteSparse,
        42,
        0x6f87_372d_7109_5722,
        0x79c6_5dc0_e4de_b2b8,
    ),
    (
        Dataset::ElFuenteDense,
        1,
        0xc8df_c359_f96b_6c02,
        0x16e6_a144_55e0_53bf,
    ),
    (
        Dataset::ElFuenteDense,
        42,
        0x3e23_4ebd_cea1_c6ea,
        0xa918_cffb_57d6_51ea,
    ),
];

#[test]
fn every_preset_renders_its_pinned_frames() {
    for (d, seed, pixels, truth) in PRESETS {
        let got = digests(&d.build(SECONDS, seed));
        assert_eq!(
            got,
            (pixels, truth),
            "{d:?} seed {seed} moved: got ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

#[test]
fn test_scene_renders_its_pinned_frames() {
    let got = digests(&SyntheticVideo::new(SceneSpec::test_scene()));
    assert_eq!(
        got,
        (0x51e3_153c_b6bf_7e01, 0x1478_d462_0800_67d8),
        "test scene moved: got ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}
