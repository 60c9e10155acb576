//! Homomorphic stitching and quality integration tests: any tiled encoding
//! must stitch back (no re-encode) into a full video of good quality
//! (Figure 6(b)'s property).

use tasm_codec::{encode_video, EncoderConfig, StitchedVideo, TileLayout};
use tasm_core::{partition, Granularity, PartitionConfig};
use tasm_data::SyntheticVideo;
use tasm_suite::TempDir;
use tasm_video::quality::psnr_sequence;
use tasm_video::{FrameSource, Rect};

fn scene(frames: u32) -> SyntheticVideo {
    tasm_suite::scene(320, 192, frames, 7)
}

fn raw_frames(v: &SyntheticVideo) -> Vec<tasm_video::Frame> {
    (0..v.len()).map(|i| v.frame(i)).collect()
}

#[test]
fn uniform_tiled_video_stitches_to_good_quality() {
    let video = scene(20);
    let layout = TileLayout::uniform(320, 192, 2, 3).unwrap();
    let cfg = EncoderConfig {
        gop_len: 10,
        ..Default::default()
    };
    let (tiles, _) = encode_video(&video, &layout, &cfg, true).unwrap();
    let stitched = StitchedVideo::stitch(layout, tiles).unwrap();
    let (decoded, stats) = stitched.decode_all().unwrap();

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
        let (tiles, _) = encode_video(&video, &layout, &cfg, true).unwrap();
        let stitched = StitchedVideo::stitch(layout, tiles).unwrap();
        let (decoded, _) = stitched.decode_all().unwrap();
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
    let (tiles, _) = encode_video(&video, &nonuniform, &cfg, true).unwrap();
    let stitched = StitchedVideo::stitch(nonuniform, tiles).unwrap();
    let (decoded, _) = stitched.decode_all().unwrap();
    let report = psnr_sequence(original.iter(), decoded.iter());
    assert!(report.y > 30.0, "object layout PSNR {:.2} dB", report.y);
}

#[test]
fn stitched_serialization_survives_disk_roundtrip() {
    let video = scene(10);
    let layout = TileLayout::uniform(320, 192, 2, 2).unwrap();
    let cfg = EncoderConfig {
        gop_len: 5,
        ..Default::default()
    };
    let (tiles, _) = encode_video(&video, &layout, &cfg, false).unwrap();
    let stitched = StitchedVideo::stitch(layout, tiles).unwrap();

    let dir = TempDir::new("stitch");
    let path = dir.path().join("stitched.tsf");
    std::fs::write(&path, stitched.to_bytes()).unwrap();
    let back = StitchedVideo::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(stitched, back);

    let (a, _) = stitched.decode_range(3..7).unwrap();
    let (b, _) = back.decode_range(3..7).unwrap();
    assert_eq!(a, b, "decode must be identical after disk roundtrip");
}

#[test]
fn partial_decode_of_stitched_video_matches_full_decode() {
    let video = scene(20);
    let layout = TileLayout::uniform(320, 192, 2, 2).unwrap();
    let cfg = EncoderConfig {
        gop_len: 5,
        ..Default::default()
    };
    let (tiles, _) = encode_video(&video, &layout, &cfg, false).unwrap();
    let stitched = StitchedVideo::stitch(layout, tiles).unwrap();

    let (all, _) = stitched.decode_all().unwrap();
    let (part, stats) = stitched.decode_range(12..17).unwrap();
    assert_eq!(part.len(), 5);
    for (i, frame) in part.iter().enumerate() {
        assert_eq!(frame, &all[12 + i]);
    }
    // Warmup from the GOP boundary at frame 10 is charged for all 4 tiles.
    assert_eq!(stats.frames_decoded, 4 * 7);
}
