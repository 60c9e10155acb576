//! End-to-end integration: synthetic corpus → detector → semantic index →
//! tiled storage → `Scan`, across all crates.

use tasm_core::{LabelPredicate, PartitionConfig, Query, ScanResult, TasmConfig};
use tasm_data::Dataset;
use tasm_detect::yolo::SimulatedYolo;
use tasm_detect::Detector;
use tasm_suite::{config, ingest, scene, Reference, TestStore};
use tasm_video::{FrameSource, Plane};

fn small_tasm(tag: &str) -> TestStore {
    let partition = PartitionConfig {
        min_tile_width: 64,
        min_tile_height: 32,
        ..Default::default()
    };
    TestStore::open(
        tag,
        TasmConfig {
            partition,
            ..config()
        },
    )
}

/// The full pipeline the paper's Figure 2 describes: ingest, detect during
/// query processing, add metadata, scan for objects, verify pixels.
#[test]
fn full_pipeline_scan_returns_object_pixels() {
    let video = scene(320, 192, 30, 7);
    let tasm = small_tasm("e2e-pipeline");
    tasm.ingest("traffic", &video, 30).unwrap();

    // Query processor detects objects as a byproduct and feeds the index.
    let mut yolo = SimulatedYolo::full(42);
    for f in 0..video.len() {
        let truth = video.ground_truth(f);
        for det in yolo.detect(f, None, &truth) {
            tasm.add_metadata("traffic", &det.label, f, det.bbox)
                .unwrap();
        }
        tasm.mark_processed("traffic", f).unwrap();
    }

    let result = tasm
        .scan("traffic", &LabelPredicate::label("car"), 0..30)
        .unwrap();
    assert!(!result.regions.is_empty(), "cars should be found");
    assert!(result.stats.samples_decoded > 0);
    // Every returned region corresponds to a frame within the range and
    // carries plausible pixel content (non-uniform).
    for r in &result.regions {
        assert!(r.frame < 30);
        let y = r.pixels.plane(Plane::Y);
        let min = y.iter().min().unwrap();
        let max = y.iter().max().unwrap();
        assert!(max > min, "region should have texture");
    }
}

/// Tiling around the queried object reduces decode work but returns the
/// same regions, each the reference's at its epoch (the core value
/// proposition, Figure 6(a)).
#[test]
fn tiling_reduces_decode_work_without_changing_results() {
    let video = scene(320, 192, 20, 7);
    let tasm = small_tasm("e2e-reduction");
    ingest(&tasm, "v", &video);
    let person = LabelPredicate::label("person");
    let query = Query::new(person.clone()).frames(0..20);
    let mut reference = Reference::new(&tasm);
    let mut scan = || {
        let r = tasm.scan("v", &person, 0..20).unwrap();
        reference.check("v", &query, &r, "scan");
        r
    };

    let before = scan();
    tasm.kqko_retile_all("v", &["person".to_string()]).unwrap();
    let after = scan();

    let rects = |r: &ScanResult| Vec::from_iter(r.regions.iter().map(|g| (g.frame, g.rect)));
    assert_eq!(rects(&before), rects(&after));
    assert!(
        after.stats.samples_decoded < before.stats.samples_decoded,
        "tiling must reduce decode: {} -> {}",
        before.stats.samples_decoded,
        after.stats.samples_decoded
    );
}

/// CNF predicates: disjunction retrieves both classes; conjunction with a
/// non-existent label retrieves nothing.
#[test]
fn cnf_predicates_compose() {
    let video = scene(320, 192, 10, 7);
    let tasm = small_tasm("e2e-cnf");
    ingest(&tasm, "v", &video);

    let cars = tasm
        .scan("v", &LabelPredicate::label("car"), 0..10)
        .unwrap();
    let people = tasm
        .scan("v", &LabelPredicate::label("person"), 0..10)
        .unwrap();
    let either = tasm
        .scan("v", &LabelPredicate::any_of(&["car", "person"]), 0..10)
        .unwrap();
    assert_eq!(
        either.regions.len(),
        cars.regions.len() + people.regions.len()
    );

    let none = tasm
        .scan("v", &LabelPredicate::label("car").and(&["unicorn"]), 0..10)
        .unwrap();
    assert!(none.regions.is_empty());
    assert_eq!(
        none.stats.samples_decoded, 0,
        "no tiles decoded for empty result"
    );
}

/// Datasets from the Table 1 presets flow through the whole system.
#[test]
fn dataset_presets_ingest_and_scan() {
    let video = Dataset::VisualRoad2K.build(1, 7);
    let tasm = small_tasm("e2e-dataset");
    ingest(&tasm, "vr", &video);
    let result = tasm
        .scan("vr", &LabelPredicate::label("car"), 0..30)
        .unwrap();
    assert!(!result.regions.is_empty());
    // Untiled: scanning decodes full frames (with chroma).
    let per_frame = 640 * 352 * 3 / 2;
    assert!(result.stats.samples_decoded >= per_frame);
}

/// Temporal predicates restrict decode to the covering SOTs.
#[test]
fn temporal_predicate_limits_decode() {
    let video = scene(320, 192, 40, 7);
    let tasm = small_tasm("e2e-temporal");
    ingest(&tasm, "v", &video);
    let narrow = tasm
        .scan("v", &LabelPredicate::label("car"), 10..15)
        .unwrap();
    let wide = tasm
        .scan("v", &LabelPredicate::label("car"), 0..40)
        .unwrap();
    assert!(narrow.stats.samples_decoded < wide.stats.samples_decoded);
    assert!(narrow.regions.iter().all(|r| (10..15).contains(&r.frame)));
}
