//! Integration tests of the incremental tiling strategies (§4.4 / §5.3)
//! over real synthetic video, exercising regret accumulation, the α safety
//! rule, and the workload runner.

use tasm_core::{run_workload, LabelPredicate, RunQuery, Strategy, Tasm, TasmConfig};
use tasm_detect::yolo::SimulatedYolo;
use tasm_index::MemoryIndex;
use tasm_suite::{config, ingest, scene, TempDir};

/// A store in `dir` the workload runner can drive: it takes the `Tasm` by
/// `&mut`.
fn small_tasm(dir: &TempDir, eta: f64) -> Tasm {
    let cfg = TasmConfig { eta, ..config() };
    Tasm::open(dir.path(), Box::new(MemoryIndex::in_memory()), cfg).unwrap()
}

fn repeated_queries(label: &str, windows: &[(u32, u32)], repeats: usize) -> Vec<RunQuery> {
    let mut out = Vec::new();
    for _ in 0..repeats {
        for &(a, b) in windows {
            out.push(RunQuery {
                label: label.to_string(),
                frames: a..b,
            });
        }
    }
    out
}

/// Repeated queries over the same section accumulate regret and re-tile
/// only that section, leaving unqueried SOTs untouched (database-cracking
/// behaviour).
#[test]
fn regret_retiles_only_queried_sections() {
    let video = scene(320, 192, 40, 3);
    let dir = TempDir::new("inc-cracking");
    let mut tasm = small_tasm(&dir, 1.0);
    tasm.ingest("v", &video, 30).unwrap();
    let truth = |f: u32| video.ground_truth(f);
    let queries = repeated_queries("car", &[(0, 10)], 30);
    let mut det = SimulatedYolo::full(1);
    let report = run_workload(
        &mut tasm,
        "v",
        &queries,
        Strategy::IncrementalRegret,
        &mut det,
        &truth,
        None,
    )
    .unwrap();
    assert!(
        report.retile_ops > 0,
        "hot section should have been re-tiled"
    );

    let manifest = tasm.manifest("v").unwrap();
    assert!(
        !manifest.sots[0].layout.is_untiled(),
        "queried SOT should be tiled"
    );
    for (i, sot) in manifest.sots.iter().enumerate().skip(1) {
        assert!(
            sot.layout.is_untiled(),
            "unqueried SOT {i} must remain untiled"
        );
    }
}

/// The same SOT evolves through multiple layouts as the query mix changes
/// ("TASM may even tile the same SOT multiple times", §4.4).
#[test]
fn layout_evolves_with_query_mix() {
    let video = scene(320, 192, 20, 5);
    let dir = TempDir::new("inc-evolve");
    let mut tasm = small_tasm(&dir, 1.0);
    tasm.ingest("v", &video, 30).unwrap();
    let truth = |f: u32| video.ground_truth(f);
    let mut det = SimulatedYolo::full(1);

    // Phase 1: hammer with car queries until it tiles around cars.
    let phase1 = repeated_queries("car", &[(0, 10)], 25);
    run_workload(
        &mut tasm,
        "v",
        &phase1,
        Strategy::IncrementalRegret,
        &mut det,
        &truth,
        None,
    )
    .unwrap();
    let l1 = tasm.manifest("v").unwrap().sots[0].layout.clone();
    assert!(!l1.is_untiled());

    // Phase 2: switch to person queries; the layout should change again.
    let phase2 = repeated_queries("person", &[(0, 10)], 40);
    let report2 = run_workload(
        &mut tasm,
        "v",
        &phase2,
        Strategy::IncrementalRegret,
        &mut det,
        &truth,
        None,
    )
    .unwrap();
    let l2 = tasm.manifest("v").unwrap().sots[0].layout.clone();
    assert!(
        report2.retile_ops > 0,
        "new object class should trigger re-tiling"
    );
    assert_ne!(l1, l2, "layout should evolve for the new query mix");
}

/// η = 0 re-tiles immediately on the first query; η = 1 waits for regret to
/// amortize the encode cost (§4.4's discussion of the threshold).
#[test]
fn eta_controls_retiling_eagerness() {
    let video = scene(320, 192, 20, 9);
    let truth = |f: u32| video.ground_truth(f);

    let count_retiles = |eta: f64, tag: &str| {
        let dir = TempDir::new(&format!("inc-eta-{tag}"));
        let mut tasm = small_tasm(&dir, eta);
        tasm.ingest("v", &video, 30).unwrap();
        let queries = repeated_queries("car", &[(0, 10)], 6);
        let mut det = SimulatedYolo::full(1);
        let report = run_workload(
            &mut tasm,
            "v",
            &queries,
            Strategy::IncrementalRegret,
            &mut det,
            &truth,
            None,
        )
        .unwrap();
        // Which query index first paid a retile?
        report
            .records
            .iter()
            .position(|r| r.retile_seconds > 1e-5)
            .map(|p| p as i64)
            .unwrap_or(i64::MAX)
    };

    let eager = count_retiles(0.0, "zero");
    let patient = count_retiles(1.0, "one");
    assert!(
        eager <= patient,
        "η=0 (first retile at {eager}) should act no later than η=1 (at {patient})"
    );
    assert_eq!(eager, 0, "η=0 must re-tile on the very first query");
}

/// The not-tiled baseline never re-tiles, and its per-query decode cost is
/// stable (the flat diagonal of Figure 11).
#[test]
fn not_tiled_baseline_is_stable() {
    let video = scene(320, 192, 20, 11);
    let dir = TempDir::new("inc-baseline");
    let mut tasm = small_tasm(&dir, 1.0);
    tasm.ingest("v", &video, 30).unwrap();
    let truth = |f: u32| video.ground_truth(f);
    let queries = repeated_queries("car", &[(0, 10), (10, 20)], 5);
    let mut det = SimulatedYolo::full(1);
    let report = run_workload(
        &mut tasm,
        "v",
        &queries,
        Strategy::NotTiled,
        &mut det,
        &truth,
        None,
    )
    .unwrap();
    assert_eq!(report.retile_ops, 0);
    // Same window -> identical samples touched every time. With the
    // decoded-GOP cache, repeats shift work from decode to reuse, but the
    // total stays flat (the flat diagonal of Figure 11).
    let samples: Vec<u64> = report.records.iter().map(|r| r.samples_touched()).collect();
    assert_eq!(samples[0], samples[2]);
    assert_eq!(samples[1], samples[3]);
    // The repeats themselves are served from the cache.
    assert!(
        report.cache_hits > 0,
        "repeated windows should hit the cache"
    );
    assert!(report.records[2].samples_decoded < report.records[0].samples_decoded.max(1));
}

/// After the regret policy re-tiles, scans still return exactly the same
/// regions (correctness is preserved across physical reorganization).
#[test]
fn results_stable_across_retiling() {
    let video = scene(320, 192, 20, 13);
    let dir = TempDir::new("inc-stable");
    let tasm = small_tasm(&dir, 1.0);
    ingest(&tasm, "v", &video);
    let before = tasm
        .scan("v", &LabelPredicate::label("car"), 0..20)
        .unwrap();
    // Drive regret until a re-tile happens.
    let mut retiled = false;
    for _ in 0..40 {
        let s = tasm.observe_regret("v", "car", 0..10).unwrap();
        if s.encode.bytes_produced > 0 {
            retiled = true;
            break;
        }
    }
    assert!(retiled, "regret should re-tile under repeated queries");
    let after = tasm
        .scan("v", &LabelPredicate::label("car"), 0..20)
        .unwrap();
    assert_eq!(before.regions.len(), after.regions.len());
    for (a, b) in before.regions.iter().zip(&after.regions) {
        assert_eq!((a.frame, a.rect), (b.frame, b.rect));
    }
}
