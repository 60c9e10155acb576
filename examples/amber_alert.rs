//! The paper's running example (§1): an amber-alert application repeatedly
//! queries a traffic feed for vehicles, without knowing in advance *where*
//! they are. TASM's regret-based incremental tiling (§4.4) observes the
//! query stream, accumulates estimated improvements for candidate layouts,
//! and re-tiles the hot sections of the video once the improvement pays for
//! the transcode — exactly like database cracking, but for pixels.
//!
//! ```sh
//! cargo run --release -p tasm-suite --example amber_alert
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use tasm_core::{retile_cost, run_workload, RunQuery, StorageConfig, Strategy, Tasm, TasmConfig};
use tasm_data::{Dataset, Zipf};
use tasm_detect::yolo::SimulatedYolo;
use tasm_index::MemoryIndex;
use tasm_video::FrameSource;

fn main() {
    // Removed, with every store under it, when `main` returns.
    let dir = tasm_suite::TempDir::new("amber");
    let root = dir.path();
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 30,
            sot_frames: 30,
            ..Default::default()
        },
        ..Default::default()
    };

    // A simulated Visual-Road-style traffic camera: 4 seconds of video.
    let video = Dataset::VisualRoad2K.build(4, 2026);
    let truth = |f: u32| video.ground_truth(f);

    // The alert workload: one-second vehicle queries, biased toward the
    // most recent (= first, under Zipf) part of the feed.
    let zipf = Zipf::new(video.len() as usize, 1.0);
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<RunQuery> = (0..40)
        .map(|_| {
            let start = (zipf.sample(&mut rng) as u32).min(video.len() - 30);
            RunQuery {
                label: "car".into(),
                frames: start..start + 30,
            }
        })
        .collect();

    for (label, strategy) in [
        ("not tiled          ", Strategy::NotTiled),
        ("incremental, regret", Strategy::IncrementalRegret),
    ] {
        let mut tasm = Tasm::open(
            root.join(label.trim()),
            Box::new(MemoryIndex::in_memory()),
            cfg.clone(),
        )
        .expect("open");
        tasm.ingest("feed", &video, 30).expect("ingest");
        let mut detector = SimulatedYolo::full(1);
        let report = run_workload(
            &mut tasm,
            "feed",
            &queries,
            strategy,
            &mut detector,
            &truth,
            None,
        )
        .expect("workload");
        // Counted work, priced with §4.1's model: the prices the regret
        // policy decides with.
        let retile: f64 = report.records.iter().map(|r| retile_cost(&r.retile)).sum();
        let decode = report.cost() - retile;
        println!(
            "{label}  priced decode {:7.1} ms   retile {:7.1} ms   re-tiles {}   final size {:.1} KiB",
            decode * 1e3,
            retile * 1e3,
            report.retile_ops,
            report.final_size_bytes as f64 / 1024.0,
        );
    }
    println!("\nThe regret strategy pays some transcode cost early, then every");
    println!("subsequent vehicle query decodes only the tiles containing cars.");
}
