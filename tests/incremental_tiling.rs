//! Integration tests of the incremental tiling strategies (§4.4 / §5.3)
//! over real synthetic video, exercising regret accumulation, the α safety
//! rule, and the workload runner.

use std::sync::Arc;
use tasm_core::{run_workload, LabelPredicate, Query, RunQuery, Strategy, Tasm, TasmConfig};
use tasm_detect::yolo::SimulatedYolo;
use tasm_index::MemoryIndex;
use tasm_suite::{config, ingest, scene, Reference, TempDir};

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
/// amortize the encode cost (§4.4's discussion of the threshold). A query
/// re-tiled when the policy encoded samples after it: counted, not timed,
/// since an `observe` that re-tiles nothing still takes time.
#[test]
fn eta_controls_retiling_eagerness() {
    let video = scene(320, 192, 20, 9);
    let truth = |f: u32| video.ground_truth(f);

    let first_retile = |eta: f64, tag: &str| {
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
        let retiled = |r: &&tasm_core::QueryRecord| r.retile.encode.samples_encoded > 0;
        (
            report.records.iter().position(|r| retiled(&r)),
            report.records.iter().filter(retiled).count(),
        )
    };

    assert_eq!(
        first_retile(0.0, "zero"),
        (Some(0), 1),
        "η=0 re-tiles on the very first query, once"
    );
    assert_eq!(
        first_retile(1.0, "one"),
        (Some(2), 1),
        "η=1 waits until regret covers R(s, L)"
    );
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
    // Same window -> identical priced work every time (the flat diagonal
    // of Figure 11).
    let work: Vec<_> = report.records.iter().map(|r| r.work).collect();
    assert!(work[0].pixels > 0);
    assert_eq!(work[0], work[2]);
    assert_eq!(work[1], work[3]);
}

/// The regret policy's state after a fixed observation sequence, pinned to
/// the bit: repeats of one (label, window) interleave with others, a second
/// label arrives late (its subsets replay the history so far), and re-tiles
/// clear the regret so later alternatives replay it again. Each SOT's
/// regret for every subset, and the re-tiles each SOT took, must not move
/// however the history is stored.
#[test]
fn regret_state_after_a_fixed_sequence_is_pinned() {
    let video = scene(320, 192, 40, 21);
    let dir = TempDir::new("inc-pinned");
    let tasm = small_tasm(&dir, 1.0);
    ingest(&tasm, "v", &video);
    let steps = [
        ("car", 0, 10),
        ("car", 0, 10),
        ("car", 5, 15),
        ("car", 0, 10),
        ("person", 0, 10),
        ("car", 5, 15),
        ("person", 0, 10),
        ("car", 0, 10),
        ("person", 12, 30),
        ("car", 5, 15),
    ];
    let mut retiles = 0;
    for _ in 0..4 {
        for (label, a, b) in steps {
            let stats = tasm.observe_regret("v", label, a..b).unwrap();
            retiles += u32::from(stats.encode.bytes_produced > 0);
        }
    }
    let subsets = [vec!["car"], vec!["person"], vec!["car", "person"]];
    let mut bits = Vec::new();
    for sot in 0..4 {
        for subset in &subsets {
            let subset: Vec<String> = subset.iter().map(|s| s.to_string()).collect();
            bits.push(tasm.regret_for("v", sot, &subset).map(f64::to_bits));
        }
    }
    let epochs: Vec<u32> = tasm
        .manifest("v")
        .unwrap()
        .sots
        .iter()
        .map(|s| s.retile_count)
        .collect();
    assert_eq!((retiles, epochs), (3, vec![1, 1, 1, 0]));
    #[rustfmt::skip]
    let pinned = [
        Some(0), Some(4566086709318218054), Some(4572727707817136176),
        Some(0), Some(4563328847292222182), Some(13785610607785265466),
        Some(13788691361619527546), Some(0), Some(13782121431507996400),
        None, None, None,
    ];
    assert_eq!(
        bits, pinned,
        "regret bits per SOT × {{car}}, {{person}}, {{car, person}}"
    );
}

/// FNV-1a over every tile rectangle of each SOT's current layout.
fn layout_digests(tasm: &Tasm) -> Vec<u64> {
    let manifest = tasm.manifest("v").unwrap();
    let digest = |sot: &tasm_core::SotEntry| {
        let words = sot.layout.tiles().flat_map(|(_, r)| [r.x, r.y, r.w, r.h]);
        let bytes: Vec<u8> = words.flat_map(u32::to_le_bytes).collect();
        bytes.iter().fold(0xcbf29ce484222325u64, |acc, &b| {
            (acc ^ u64::from(b)).wrapping_mul(0x100000001b3)
        })
    };
    manifest.sots.iter().map(digest).collect()
}

/// The incremental-more and KQKO decisions for a fixed sequence, pinned:
/// labels arrive late (one with no detections at all), windows repeat and
/// span SOTs, and each SOT re-tiles only when a label new to it arrives.
/// KQKO then pre-tiles a fresh twin around both classes. Each SOT's layout
/// epoch, its tile rectangles and the bytes encoded must not move however
/// the policy state is stored.
#[test]
fn more_and_kqko_decisions_after_a_fixed_sequence_are_pinned() {
    let video = scene(320, 192, 40, 21);
    let dir = TempDir::new("inc-more-pinned");
    let tasm = small_tasm(&dir, 1.0);
    ingest(&tasm, "v", &video);
    let steps = [
        ("car", 0, 10),
        ("car", 0, 10),
        ("car", 5, 15),
        ("dog", 0, 10),
        ("person", 0, 10),
        ("person", 5, 25),
        ("car", 12, 30),
        ("car", 0, 10),
        ("person", 30, 40),
        ("car", 28, 40),
    ];
    let mut bytes = 0;
    for _ in 0..2 {
        for (label, a, b) in steps {
            bytes += tasm
                .observe_more("v", label, a..b)
                .unwrap()
                .encode
                .bytes_produced;
        }
    }
    let epochs = |tasm: &Tasm| -> Vec<u32> {
        let manifest = tasm.manifest("v").unwrap();
        manifest.sots.iter().map(|s| s.retile_count).collect()
    };
    assert_eq!(
        (epochs(&tasm), layout_digests(&tasm), bytes),
        (
            vec![2, 2, 2, 2],
            vec![
                8255006162904382805,
                13069553821341355589,
                6913416674475766314,
                6361625537437144389
            ],
            184162
        ),
        "incremental-more: per-SOT epochs, tile digests, bytes encoded"
    );

    let twin_dir = TempDir::new("inc-kqko-pinned");
    let twin = small_tasm(&twin_dir, 1.0);
    ingest(&twin, "v", &video);
    let objects = ["car".to_string(), "person".to_string()];
    let bytes = twin
        .kqko_retile_all("v", &objects)
        .unwrap()
        .encode
        .bytes_produced;
    assert_eq!(
        (epochs(&twin), layout_digests(&twin), bytes),
        (
            vec![1, 1, 1, 1],
            vec![
                8255006162904382805,
                13069553821341355589,
                6913416674475766314,
                6361625537437144389
            ],
            91999
        ),
        "KQKO: per-SOT epochs, tile digests, bytes encoded"
    );
}

/// After the regret policy re-tiles, scans still return the reference's
/// answer at their own epoch (correctness is preserved across physical
/// reorganization): the same regions, and each one's pixels.
#[test]
fn results_stable_across_retiling() {
    let video = scene(320, 192, 20, 13);
    let dir = TempDir::new("inc-stable");
    let tasm = Arc::new(small_tasm(&dir, 1.0));
    ingest(&tasm, "v", &video);
    let mut reference = Reference::new(&tasm);
    let car = LabelPredicate::label("car");
    let scan = Query::new(car.clone()).frames(0..20);
    // Held, so the first epoch's answer can be checked after the re-tile.
    let _first = tasm.pin_epoch("v", None).unwrap();
    let before = tasm.scan("v", &car, 0..20).unwrap();
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
    let after = tasm.scan("v", &car, 0..20).unwrap();
    assert_ne!(before.epoch, after.epoch);
    reference.check("v", &scan, &before, "before");
    reference.check("v", &scan, &after, "after");
}
