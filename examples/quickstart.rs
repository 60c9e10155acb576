//! Quickstart: ingest a video, register detections, and scan for objects.
//!
//! ```sh
//! cargo run --release -p tasm-suite --example quickstart
//! ```

use tasm_core::{LabelPredicate, StorageConfig, Tasm, TasmConfig};
use tasm_data::{SceneSpec, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_video::FrameSource;

fn main() {
    // 1. Open a storage manager: a tile store on disk plus a semantic index.
    // Removed, with every store under it, when `main` returns.
    let dir = tasm_suite::TempDir::new("quickstart");
    let root = dir.path();
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 30,
            sot_frames: 30,
            ..Default::default()
        },
        ..Default::default()
    };
    let tasm =
        Tasm::open(root, Box::new(MemoryIndex::in_memory()), cfg).expect("open storage manager");

    // 2. A two-second synthetic traffic video (cars + pedestrians), rendered
    //    on demand. In a real deployment this is the camera feed.
    let video = SyntheticVideo::new(SceneSpec {
        width: 640,
        height: 352,
        frames: 60,
        ..SceneSpec::test_scene()
    });
    tasm.ingest("traffic", &video, 30).expect("ingest");
    println!(
        "ingested 'traffic': {} frames at {}x{}",
        video.len(),
        video.width(),
        video.height()
    );

    // 3. As the query processor detects objects, it feeds the semantic
    //    index through AddMetadata (here: perfect ground-truth detections).
    for f in 0..video.len() {
        for (label, bbox) in video.ground_truth(f) {
            tasm.add_metadata("traffic", label, f, bbox)
                .expect("add metadata");
        }
    }

    // 4. Scan for cars on an untiled video: whole frames decode.
    let before = tasm
        .scan("traffic", &LabelPredicate::label("car"), 0..60)
        .expect("scan");
    println!(
        "untiled scan:   {:>10} samples decoded, {:>4} tile-chunks, {:.1} ms",
        before.stats.samples_decoded,
        before.stats.tile_chunks_decoded,
        before.seconds() * 1e3,
    );

    // 5. Let TASM optimize the physical layout around cars (KQKO, §4.2)...
    tasm.kqko_retile_all("traffic", &["car".to_string()])
        .expect("retile");

    // 6. ...and scan again: only the tiles containing cars decode.
    let after = tasm
        .scan("traffic", &LabelPredicate::label("car"), 0..60)
        .expect("scan");
    println!(
        "tiled scan:     {:>10} samples decoded, {:>4} tile-chunks, {:.1} ms",
        after.stats.samples_decoded,
        after.stats.tile_chunks_decoded,
        after.seconds() * 1e3,
    );
    let saved =
        100.0 * (1.0 - after.stats.samples_decoded as f64 / before.stats.samples_decoded as f64);
    println!(
        "tiling saved {saved:.0}% of decoded samples; {} regions returned",
        after.regions.len()
    );

    // 7. Repeat the query: the parallel execution pipeline serves it from
    //    the decoded-GOP cache (see TasmConfig::workers / cache_bytes for
    //    the knobs — worker count and cache byte budget).
    let warm = tasm
        .scan("traffic", &LabelPredicate::label("car"), 0..60)
        .expect("scan");
    println!(
        "warm scan:      {:>10} samples decoded, {} GOP cache hits ({} samples reused), {:.1} ms",
        warm.stats.samples_decoded,
        warm.cache.hits,
        warm.cache.samples_reused,
        warm.seconds() * 1e3,
    );
}
