//! Spatiotemporal queries: region-of-interest, sampling, limits, and
//! aggregates against a synthetic traffic scene.
//!
//! ```sh
//! cargo run --release -p tasm-suite --example roi_query
//! ```
//!
//! The storage manager exists to accelerate *subframe, object-centric*
//! retrieval. This example shows the planner doing exactly that: the same
//! label predicate executed as a full scan and as progressively narrower
//! queries, with the plan statistics showing which tiles and GOPs were
//! never decoded.

use tasm_core::{LabelPredicate, Query, QueryMode, ScanResult, StorageConfig, Tasm, TasmConfig};
use tasm_data::{SceneSpec, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_video::FrameSource;

fn report(what: &str, r: &ScanResult) {
    println!(
        "{what:<26} {:>4} matches | {:>9} samples decoded | tiles {:>2} decoded / {:>2} pruned | GOPs {:>2} decoded / {:>2} skipped",
        r.matched,
        r.stats.samples_decoded,
        r.plan.tiles_planned,
        r.plan.tiles_pruned,
        r.plan.gops_planned,
        r.plan.gops_skipped,
    );
}

fn main() {
    // 1. A storage manager with short GOPs (so temporal pruning has units
    //    to skip) over a four-second synthetic intersection.
    // Removed, with every store under it, when `main` returns.
    let dir = tasm_suite::TempDir::new("roi-query");
    let root = dir.path();
    let tasm = Tasm::open(
        root,
        Box::new(MemoryIndex::in_memory()),
        TasmConfig {
            storage: StorageConfig {
                gop_len: 10,
                sot_frames: 30,
                ..Default::default()
            },
            // No decoded-GOP cache: every query below pays its plan's true
            // decode cost, so the reported savings are pure planner wins.
            cache_bytes: 0,
            ..Default::default()
        },
    )
    .expect("open storage manager");

    let video = SyntheticVideo::new(SceneSpec {
        width: 640,
        height: 352,
        frames: 120,
        ..SceneSpec::test_scene()
    });
    tasm.ingest("traffic", &video, 30).expect("ingest");
    for f in 0..video.len() {
        for (label, bbox) in video.ground_truth(f) {
            tasm.add_metadata("traffic", label, f, bbox)
                .expect("add metadata");
        }
    }

    // 2. Tile the layout around the detected objects, so spatial pruning
    //    has tiles to prune (KQKO, §4.2).
    tasm.kqko_retile_all("traffic", &["car".to_string(), "person".to_string()])
        .expect("retile");

    let cars = || Query::new(LabelPredicate::label("car")).frames(0..120);

    // 3. The baseline: every car, everywhere, every frame.
    let full = tasm.query("traffic", &cars()).expect("full query");
    report("all cars", &full);

    // 4. ROI: a watch zone around where the first car starts, covering
    //    under a quarter of the frame. Cars are retrieved only while they
    //    cross it; tiles whose cars never touch it are pruned from the
    //    decode plan entirely.
    let anchor = video.ground_truth_for(0, "car")[0];
    let zone = anchor.inflate(80, video.width(), video.height());
    println!(
        "watch zone {},{} {}x{} ({:.0}% of the frame)",
        zone.x,
        zone.y,
        zone.w,
        zone.h,
        100.0 * zone.area() as f64 / (video.width() * video.height()) as f64
    );
    let roi = tasm.query("traffic", &cars().roi(zone)).expect("roi query");
    report("cars in watch zone", &roi);

    // 5. ROI + sampling + limit: every 5th frame, stop after the first 4
    //    matching frames. GOPs outside the stride or past the satisfied
    //    limit are never decoded.
    let narrowed = tasm
        .query("traffic", &cars().roi(zone).stride(5).limit(4))
        .expect("narrowed query");
    report("  + stride 5, limit 4", &narrowed);

    // 6. Aggregates answer from the semantic index alone — no decode at
    //    all, useful as a cheap pre-flight before a pixel query.
    let count = tasm
        .query("traffic", &cars().roi(zone).mode(QueryMode::Count))
        .expect("count query");
    report("count only", &count);
    let exists = tasm
        .query("traffic", &cars().roi(zone).mode(QueryMode::Exists))
        .expect("exists query");
    println!(
        "exists? {} (decoded {} samples to answer)",
        exists.matched > 0,
        exists.stats.samples_decoded
    );

    let saved =
        100.0 * (1.0 - roi.stats.samples_decoded as f64 / full.stats.samples_decoded.max(1) as f64);
    println!("\nthe watch-zone query decoded {saved:.0}% fewer samples than the full scan,");
    println!("and its regions are bit-identical to filtering the full scan after the fact.");
}
