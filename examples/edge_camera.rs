//! Edge tiling (§4.3): when the query classes are known up front (an
//! amber-alert system only ever asks about vehicles), the camera itself can
//! detect objects as frames are captured — at a sampled rate its embedded
//! GPU can sustain — and encode the video *with tiles from the start*. The
//! VDBMS then never pays a re-encode, and the camera can upload only the
//! tiles that contain objects.
//!
//! ```sh
//! cargo run --release -p tasm-suite --example edge_camera
//! ```

use tasm_core::{edge_ingest, LabelPredicate, StorageConfig, Tasm, TasmConfig};
use tasm_data::Dataset;
use tasm_detect::yolo::{Platform, SimulatedYolo};
use tasm_index::MemoryIndex;
use tasm_video::FrameSource;

fn main() {
    // Removed, with every store under it, when `main` returns.
    let dir = tasm_suite::TempDir::new("edge");
    let root = dir.path();
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 30,
            sot_frames: 30,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut tasm = Tasm::open(root, Box::new(MemoryIndex::in_memory()), cfg).expect("open");

    // 3 seconds from a traffic camera; the VDBMS announced O_Q = {car}.
    let video = Dataset::VisualRoad2K.build(3, 11);
    let truth = |f: u32| video.ground_truth(f);

    // Full YOLOv3 on the embedded GPU manages ~16 fps; capture is 30 fps,
    // so the camera detects every 5th frame (§5.2.4 finds this adequate),
    // once per sampled frame, and its boxes both tile the video and fill
    // the index.
    let mut detector = SimulatedYolo::full(3).on(Platform::EdgeGpu);
    let report = edge_ingest(
        &mut tasm,
        "cam0",
        &video,
        30,
        &["car"],
        &mut detector,
        &truth,
    )
    .expect("edge ingest");

    println!(
        "camera processed {} of {} frames on-device",
        report.frames_processed,
        video.len()
    );
    println!(
        "simulated on-camera detection time: {:.2} s",
        report.detect_seconds
    );
    println!("SOTs tiled at capture time: {}", report.tiled_sots);
    println!(
        "upload: {:.1} KiB of object tiles vs {:.1} KiB full video ({:.0}% saved)",
        report.streamed_tile_bytes as f64 / 1024.0,
        report.full_video_bytes as f64 / 1024.0,
        report.bandwidth_saving() * 100.0
    );

    // First query arrives: the video is already tiled, the semantic index
    // already populated — no detection, no re-encode, minimal decode.
    let r = tasm
        .scan("cam0", &LabelPredicate::label("car"), 0..30)
        .expect("scan");
    println!(
        "\nfirst query: {} regions, {} samples decoded, {:.2} ms — no re-encode needed",
        r.regions.len(),
        r.stats.samples_decoded,
        r.seconds() * 1e3
    );
}
