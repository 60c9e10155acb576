//! Stitching and quality integration tests: any tiled encoding must
//! stitch back (no re-encode) into a full video of good quality
//! (Figure 6(b)'s property).

use tasm_codec::{encode_video, DecodeStats, EncoderConfig, StitchedVideo, TileLayout, TileVideo};
use tasm_core::{partition, Granularity, PartitionConfig};
use tasm_data::SyntheticVideo;
use tasm_video::quality::psnr_sequence;
use tasm_video::{Frame, FrameSource, Rect};

fn scene(frames: u32) -> SyntheticVideo {
    tasm_suite::scene(320, 192, frames, 7)
}

fn raw_frames(v: &SyntheticVideo) -> Vec<Frame> {
    (0..v.len()).map(|i| v.frame(i)).collect()
}

/// Every frame of `tiles` stitched under `layout`, and the decode work.
fn stitch_all(layout: &TileLayout, tiles: &[TileVideo]) -> (Vec<Frame>, DecodeStats) {
    let mut sv = StitchedVideo::new(layout, tiles).unwrap();
    let frames = (0..sv.frame_count())
        .map(|f| sv.frame(f).unwrap().clone())
        .collect();
    (frames, sv.stats())
}

#[test]
fn uniform_tiled_video_stitches_to_good_quality() {
    let video = scene(20);
    let layout = TileLayout::uniform(320, 192, 2, 3).unwrap();
    let cfg = EncoderConfig {
        gop_len: 10,
        ..Default::default()
    };
    let (tiles, _) = encode_video(&video, &layout, &cfg).unwrap();
    let (decoded, stats) = stitch_all(&layout, &tiles);

    let original = raw_frames(&video);
    let report = psnr_sequence(original.iter(), decoded.iter());
    assert!(
        report.y > 30.0,
        "stitched uniform PSNR {:.1} dB below acceptable",
        report.y
    );
    assert_eq!(stats.tile_chunks_decoded, 20 * 6);
}

/// Under a shared bit budget (rate-controlled encoding), layouts that
/// fragment prediction across many tile boundaries compress worse, get
/// pushed to coarser quantization, and lose quality — the Figure 6(b)
/// mechanism. An untiled encode must therefore beat a heavily tiled one.
#[test]
fn under_rate_control_many_tiles_cost_quality() {
    let video = scene(20);
    let cfg = EncoderConfig {
        gop_len: 10,
        qp: 28,
        rate: tasm_codec::RateControl::TargetRate {
            millibits_per_sample: 120,
        },
        ..Default::default()
    };

    let original = raw_frames(&video);
    let psnr_of = |layout: TileLayout| {
        let (tiles, _) = encode_video(&video, &layout, &cfg).unwrap();
        let (decoded, _) = stitch_all(&layout, &tiles);
        psnr_sequence(original.iter(), decoded.iter()).y
    };

    let untiled = psnr_of(TileLayout::untiled(320, 192));
    let many_uniform = psnr_of(TileLayout::uniform(320, 192, 6, 10).unwrap());
    assert!(
        untiled > many_uniform,
        "untiled ({untiled:.2} dB) should beat a 60-tile grid ({many_uniform:.2} dB) at the same bitrate"
    );
}

/// Non-uniform object layouts still stitch to acceptable quality and their
/// boundaries do not corrupt content (every layout decodes to ≥ 30 dB).
#[test]
fn object_layout_stitches_to_acceptable_quality() {
    let video = scene(20);
    let cfg = EncoderConfig {
        gop_len: 10,
        ..Default::default()
    };
    let mut boxes: Vec<Rect> = Vec::new();
    for f in 0..20 {
        boxes.extend(video.ground_truth(f).into_iter().map(|(_, b)| b));
    }
    let nonuniform = partition(
        320,
        192,
        &boxes,
        &PartitionConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            granularity: Granularity::Fine,
        },
    );
    let original = raw_frames(&video);
    let (tiles, _) = encode_video(&video, &nonuniform, &cfg).unwrap();
    let (decoded, _) = stitch_all(&nonuniform, &tiles);
    let report = psnr_sequence(original.iter(), decoded.iter());
    assert!(report.y > 30.0, "object layout PSNR {:.2} dB", report.y);
}

#[test]
fn partial_decode_of_stitched_video_matches_full_decode() {
    let video = scene(20);
    let layout = TileLayout::uniform(320, 192, 2, 2).unwrap();
    let cfg = EncoderConfig {
        gop_len: 5,
        ..Default::default()
    };
    let (tiles, _) = encode_video(&video, &layout, &cfg).unwrap();
    let (all, _) = stitch_all(&layout, &tiles);

    // A walk asked first for frame 12 shows the same frames; it only goes
    // forward from frame 0, so it decodes every frame before them too.
    let mut sv = StitchedVideo::new(&layout, &tiles).unwrap();
    for f in 12..17 {
        assert_eq!(sv.frame(f).unwrap(), &all[f as usize], "frame {f}");
    }
    assert_eq!(sv.stats().frames_decoded, 4 * 17);
}
