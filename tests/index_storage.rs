//! Integration tests of the persistent semantic index (the `TieredIndex`
//! that `tasm serve` opens) together with the tile store: durability across
//! process-style reopen, and index-driven scans over stored video.

use tasm_core::{LabelPredicate, StorageConfig, Tasm, TasmConfig};
use tasm_index::{SemanticIndex, TieredIndex};
use tasm_suite::{ingest, scene, TempDir};
use tasm_video::Rect;

#[test]
fn persistent_index_backs_scans() {
    let dir = TempDir::new("is-scan");
    let idx = TieredIndex::open(&dir.path().join("index")).unwrap();
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 10,
            sot_frames: 10,
            ..Default::default()
        },
        ..Default::default()
    };
    let tasm = Tasm::open(dir.path().join("store"), Box::new(idx), cfg).unwrap();

    let video = scene(320, 192, 20, 7);
    ingest(&tasm, "v", &video);
    let result = tasm
        .scan("v", &LabelPredicate::label("car"), 0..20)
        .unwrap();
    assert!(!result.regions.is_empty());
}

#[test]
fn index_survives_reopen_with_many_detections() {
    let dir = TempDir::new("is-durability");
    let boxes_per_frame = 4;
    let frames = 2_000u32;
    {
        let mut idx = TieredIndex::open(dir.path()).unwrap();
        for f in 0..frames {
            for i in 0..boxes_per_frame {
                idx.add_metadata(
                    0,
                    if i % 2 == 0 { "car" } else { "person" },
                    f,
                    Rect::new(10 * i, 20, 32, 32),
                )
                .unwrap();
            }
            idx.mark_processed(0, f).unwrap();
        }
        idx.flush().unwrap();
    }
    {
        let mut idx = TieredIndex::open(dir.path()).unwrap();
        assert_eq!(idx.detection_count(), (frames * boxes_per_frame) as u64);
        assert_eq!(idx.processed_count(0, 0..frames).unwrap(), frames);
        let cars = idx.query(0, "car", 500..510).unwrap();
        assert_eq!(cars.len(), 20); // 2 car boxes × 10 frames
                                    // Writes continue seamlessly.
        idx.add_metadata(0, "bird", 0, Rect::new(0, 0, 8, 8))
            .unwrap();
        assert_eq!(idx.detection_count(), (frames * boxes_per_frame) as u64 + 1);
    }
}

/// A restarted process attaches stored videos without re-encoding, and the
/// persistent index still answers because video ids are name-derived and
/// stable across sessions.
#[test]
fn attach_resumes_after_restart() {
    let dir = TempDir::new("is-attach");
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 10,
            sot_frames: 10,
            ..Default::default()
        },
        ..Default::default()
    };
    let video = scene(320, 192, 20, 7);

    // Session 1: ingest, index, tile.
    {
        let idx = TieredIndex::open(&dir.path().join("index")).unwrap();
        let tasm = Tasm::open(dir.path().join("store"), Box::new(idx), cfg.clone()).unwrap();
        ingest(&tasm, "cam", &video);
        tasm.kqko_retile_all("cam", &["car".to_string()]).unwrap();
        tasm.with_index(|ix| ix.flush()).unwrap();
    }

    // Session 2: attach — no re-encode, layouts preserved, scans work.
    {
        let idx = TieredIndex::open(&dir.path().join("index")).unwrap();
        let tasm = Tasm::open(dir.path().join("store"), Box::new(idx), cfg).unwrap();
        assert!(tasm.has_stored_video("cam"));
        assert!(!tasm.has_stored_video("other"));
        tasm.attach("cam").unwrap();
        let m = tasm.manifest("cam").unwrap();
        assert!(
            m.sots.iter().any(|s| !s.layout.is_untiled()),
            "tiled layouts must survive the restart"
        );
        let r = tasm
            .scan("cam", &LabelPredicate::label("car"), 0..20)
            .unwrap();
        assert!(
            !r.regions.is_empty(),
            "index must still resolve after restart"
        );
    }
}

#[test]
fn store_and_index_agree_after_reload() {
    // Manifest reload from disk yields the same SOT structure TASM had in
    // memory, so a "restarted" system can keep answering queries.
    let dir = TempDir::new("is-reload");
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 10,
            sot_frames: 10,
            ..Default::default()
        },
        ..Default::default()
    };
    let video = scene(320, 192, 30, 7);

    let manifest_before = {
        let idx = TieredIndex::open(&dir.path().join("index")).unwrap();
        let tasm = Tasm::open(dir.path().join("store"), Box::new(idx), cfg.clone()).unwrap();
        ingest(&tasm, "v", &video);
        tasm.kqko_retile_all("v", &["car".to_string()]).unwrap();
        tasm.with_index(|ix| ix.flush()).unwrap();
        tasm.manifest("v").unwrap().clone()
    };

    // "Restart": reload manifest directly from the store directory.
    let store = tasm_core::VideoStore::open(dir.path().join("store")).unwrap();
    let manifest_after = store.load_manifest("v").unwrap();
    assert_eq!(manifest_before, manifest_after);
    assert!(manifest_after.sots.iter().any(|s| !s.layout.is_untiled()));

    // And the persistent index still knows the labels (video ids are
    // name-derived, so a fresh session resolves the same id).
    let idx = TieredIndex::open(&dir.path().join("index")).unwrap();
    let tasm = Tasm::open(dir.path().join("store"), Box::new(idx), cfg).unwrap();
    let id = tasm.attach("v").unwrap();
    let labels = tasm.with_index(|ix| ix.labels(id)).unwrap();
    assert!(labels.contains(&"car".to_string()));
}
