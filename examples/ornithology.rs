//! The ornithology scenario from the paper's introduction: a researcher
//! explores a nature video with *ad-hoc* queries — birds, then people, then
//! birds again — never declaring a workload up front. This example shows
//! CNF predicates on the Scan API (§3.1) and how the incremental-more
//! policy adapts the layout to whichever classes have been queried.
//!
//! ```sh
//! cargo run --release -p tasm-suite --example ornithology
//! ```

use tasm_core::{LabelPredicate, StorageConfig, Tasm, TasmConfig};
use tasm_data::Dataset;
use tasm_index::MemoryIndex;
use tasm_video::FrameSource;

fn main() {
    // Removed, with every store under it, when `main` returns.
    let dir = tasm_suite::TempDir::new("ornithology");
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

    // A Netflix-public-style nature clip: birds and a person.
    let video = Dataset::NetflixPublic.build(3, 77);
    tasm.ingest("nature", &video, 30).expect("ingest");
    for f in 0..video.len() {
        for (label, bbox) in video.ground_truth(f) {
            tasm.add_metadata("nature", label, f, bbox)
                .expect("metadata");
        }
    }

    fn run(tasm: &mut Tasm, what: &str, pred: &LabelPredicate, frames: std::ops::Range<u32>) {
        let r = tasm.scan("nature", pred, frames).expect("scan");
        println!(
            "{what:<34} {:>4} regions, {:>9} samples, {:>6.2} ms",
            r.regions.len(),
            r.stats.samples_decoded,
            r.seconds() * 1e3
        );
    }

    println!("-- exploratory session on the untiled video --");
    run(
        &mut tasm,
        "birds, first second",
        &LabelPredicate::label("bird"),
        0..30,
    );
    run(
        &mut tasm,
        "birds OR people, whole video",
        &LabelPredicate::any_of(&["bird", "person"]),
        0..90,
    );
    run(
        &mut tasm,
        "birds AND people (co-occurring)",
        &LabelPredicate::label("bird").and(&["person"]),
        0..90,
    );

    // The session keeps returning to birds: adapt the layout.
    for _ in 0..3 {
        tasm.observe_more("nature", "bird", 0..90).expect("observe");
    }
    println!("\n-- after incremental tiling around the queried class --");
    run(
        &mut tasm,
        "birds, first second",
        &LabelPredicate::label("bird"),
        0..30,
    );
    run(
        &mut tasm,
        "birds OR people, whole video",
        &LabelPredicate::any_of(&["bird", "person"]),
        0..90,
    );

    let m = tasm.manifest("nature").expect("manifest");
    let tiled = m.sots.iter().filter(|s| !s.layout.is_untiled()).count();
    println!(
        "\n{}/{} sections of the video are now tiled around birds",
        tiled,
        m.sots.len()
    );
}
