//! Crash-safety tests of the storage layer: the deterministic crash-point
//! sweeps over ingest, re-tile and epoch GC, torn-write regressions for the
//! manifest, ingest cleanup, fsck, and kill-and-reattach under a live
//! query service.
//!
//! The sweep is the core property: for *every* injectable fault point of
//! ingest → re-tile → re-tile → epoch GC (fail-stop and torn-write at each
//! mutating I/O operation), reopening the store must recover to **exactly
//! one layout epoch of an uncrashed twin** — its manifest, every tile's
//! bytes and a full scan all from that epoch, never a mix — with `fsck`
//! clean and nothing in the video directory the manifest does not name.
//! The sweeps say nothing of file names or of the order of operations, so
//! they hold for any commit protocol.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tasm_codec::TileLayout;
use tasm_core::durable::{FaultIo, FaultKind};
use tasm_core::{
    LabelPredicate, PartitionConfig, Query, RecoveryAction, StorageConfig, StoreError, Tasm,
    TasmConfig, VideoManifest, VideoStore,
};
use tasm_index::MemoryIndex;
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_suite::TempDir;
use tasm_video::{Frame, Plane, Rect, VecFrameSource};

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("crash-{tag}"))
}

/// A small deterministic 64x64 source with texture and a moving patch.
fn test_source(frames: u32) -> VecFrameSource {
    VecFrameSource::new(
        (0..frames)
            .map(|i| {
                let mut f = Frame::filled(64, 64, 90, 128, 128);
                for y in 0..64 {
                    for x in 0..64 {
                        f.set_sample(Plane::Y, x, y, ((x * 3 + y * 5 + i * 2) % 200 + 20) as u8);
                    }
                }
                f.fill_rect(Rect::new((i * 4) % 48, 16, 16, 16), 230, 90, 160);
                f
            })
            .collect(),
    )
}

fn small_cfg() -> StorageConfig {
    StorageConfig {
        gop_len: 5,
        sot_frames: 10,
        parallel_encode: false,
        ..Default::default()
    }
}

/// What a store says of video "v" through its API, and nothing of how its
/// files are laid out: the manifest, every tile's container bytes
/// (`tile_file_bytes`, outer index = SOT) and a digest of one full-window
/// scan. Two stores in the same layout epoch agree on all three; equality
/// with exactly one state of an uncrashed twin is the "wholly one epoch,
/// never a mix" relation the sweeps assert.
#[derive(PartialEq)]
struct VideoState {
    manifest: VideoManifest,
    tiles: Vec<Vec<Vec<u8>>>,
    scan: u64,
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reopens the store on real I/O — startup recovery runs — and holds it to
/// what every recovered store owes, whatever the commit protocol: `fsck` is
/// clean, and the video directory holds the manifest plus one entry per SOT
/// (everything in it is named by the manifest: no residue, no second
/// epoch). Returns the video's state (`None` when it does not exist) and
/// what recovery did.
fn reopen_and_check(dir: &Path, what: &str) -> (Option<VideoState>, Vec<RecoveryAction>) {
    let config = TasmConfig {
        storage: small_cfg(),
        ..Default::default()
    };
    let tasm = Tasm::open(dir, Box::new(MemoryIndex::in_memory()), config).expect("reopen");
    let actions = tasm.recovery_report().actions.clone();
    assert!(!tasm.recovery_report().deferred, "{what}: lock still held");
    let fsck = tasm.fsck().expect("fsck runs");
    assert!(
        fsck.is_clean(),
        "{what}: fsck found {:?} (recovery did {actions:?})",
        fsck.issues
    );
    if !tasm.has_stored_video("v") {
        assert!(
            !dir.join("v").exists(),
            "{what}: a video without a manifest must be gone"
        );
        return (None, actions);
    }
    tasm.attach("v").expect("attach");
    let manifest = tasm.manifest("v").expect("manifest");
    assert!(fsck.tiles_checked > 0, "{what}: nothing checked");
    let entries: Vec<String> = fs::read_dir(dir.join("v"))
        .expect("video dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        entries.len(),
        1 + manifest.sots.len(),
        "{what}: the manifest names one entry per SOT, the directory holds {entries:?}"
    );
    let tiles = manifest
        .sots
        .iter()
        .enumerate()
        .map(|(i, sot)| {
            (0..sot.layout.tile_count())
                .map(|t| tasm.store().tile_file_bytes(&manifest, i, t).expect("tile"))
                .collect()
        })
        .collect();
    for frame in 0..manifest.frame_count {
        tasm.add_metadata("v", "patch", frame, Rect::new(8, 8, 48, 40))
            .expect("metadata");
        tasm.mark_processed("v", frame).expect("processed");
    }
    let result = tasm
        .scan(
            "v",
            &LabelPredicate::label("patch"),
            0..manifest.frame_count,
        )
        .expect("scan");
    assert_eq!(result.regions.len() as u32, manifest.frame_count, "{what}");
    let scan = result.regions.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        let h = fnv1a(h, &r.frame.to_le_bytes());
        Plane::ALL
            .iter()
            .fold(h, |h, &p| fnv1a(h, r.pixels.plane(p)))
    });
    let state = VideoState {
        manifest,
        tiles,
        scan,
    };
    (Some(state), actions)
}

/// The mutations under the sweep, stopping at the first error: an ingest of
/// two untiled SOTs, a re-tile of SOT 0 to 4x4 (its superseded epoch
/// reclaimed at once), a second re-tile of SOT 0 — now decoding sixteen
/// tiles — to 2x2 with the reclaim deferred, then that reclaim. `steps`
/// says how many of the four to run.
fn drive(store: &VideoStore, steps: usize) -> Result<(), StoreError> {
    let src = test_source(20);
    store.ingest("v", &src, 30, small_cfg(), |_, _| {
        TileLayout::untiled(64, 64)
    })?;
    if steps == 1 {
        return Ok(());
    }
    let mut manifest = store.load_manifest("v")?;
    let (_, retired) = store.retile(
        &mut manifest,
        0,
        TileLayout::uniform(64, 64, 4, 4).expect("layout"),
    )?;
    store.gc_epoch("v", retired.expect("a layout change retires an epoch"))?;
    if steps == 2 {
        return Ok(());
    }
    let (_, retired) = store.retile(
        &mut manifest,
        0,
        TileLayout::uniform(64, 64, 2, 2).expect("layout"),
    )?;
    if steps == 3 {
        return Ok(());
    }
    store.gc_epoch("v", retired.expect("a layout change retires an epoch"))
}

/// The crash-point sweep (acceptance criterion): crash — fail-stop *and*
/// torn write — at every mutating I/O operation of ingest → re-tile →
/// re-tile → epoch GC, reopen, and hold the recovered store to
/// [`reopen_and_check`] and to the uncrashed twin: the video is absent (the
/// ingest never published) or in exactly the state the twin was in after
/// one of the steps — manifest, every tile's bytes and the scan all from
/// that one epoch.
#[test]
fn crash_point_sweep_recovers_to_exactly_one_epoch() {
    // The twin's state after the ingest, the first and the second re-tile.
    let twin = temp_dir("sweep-twin");
    let states: Vec<VideoState> = (1..=3)
        .map(|steps| {
            let _ = fs::remove_dir_all(twin.path());
            let store = VideoStore::open(twin.path()).expect("open twin");
            drive(&store, steps).expect("twin step");
            drop(store);
            reopen_and_check(twin.path(), &format!("twin after step {steps}"))
                .0
                .expect("twin video")
        })
        .collect();
    let epochs: Vec<u64> = states.iter().map(|s| s.manifest.epoch()).collect();
    assert_eq!(epochs, [0, 1, 2]);

    // The whole sequence through a disarmed injector: how many fault
    // points there are, and that the reclaim leaves the last state as is.
    let _ = fs::remove_dir_all(twin.path());
    let counter = FaultIo::new();
    let store = VideoStore::open_with_io(twin.path(), 0, 0, counter.clone()).expect("open counted");
    let ops_before = counter.mutating_ops();
    drive(&store, 4).expect("clean sequence");
    let total_ops = counter.mutating_ops() - ops_before;
    drop(store);
    let (clean, actions) = reopen_and_check(twin.path(), "clean sequence");
    assert!(actions.is_empty(), "clean shutdown recovered {actions:?}");
    assert!(clean.expect("video") == states[2]);
    // Whatever the protocol: an ingest cannot publish in fewer than four
    // durable steps (two packs' worth of tiles, the manifest's bytes, its
    // name), a re-tile in fewer than three, a reclaim in fewer than two.
    assert!(
        total_ops >= 12,
        "the sequence must expose at least 12 fault points, got {total_ops}"
    );
    // Pinned exactly: ingest of two SOTs (7), a re-tile (6), a deferred
    // re-tile (4), the reclaim (2). A change to how durable writes are
    // issued must not add or drop a fault point.
    assert_eq!(
        total_ops, 19,
        "fault points of ingest → re-tile → re-tile → GC"
    );

    let scratch = temp_dir("sweep-scratch");
    let mut absent = 0u64;
    let mut landed = [0u64; 3];
    for kind in [FaultKind::FailStop, FaultKind::TornWrite] {
        for n in 1..=total_ops {
            let what = format!("{kind:?} at op {n} of {total_ops}");
            let _ = fs::remove_dir_all(scratch.path());
            let fault = FaultIo::new();
            let store = VideoStore::open_with_io(scratch.path(), 0, 0, fault.clone())
                .expect("open faulted");
            fault.arm(fault.mutating_ops() + n, kind);
            assert!(drive(&store, 4).is_err(), "{what} must surface as an error");
            assert!(fault.crashed(), "{what} must have fired");
            drop(store);

            match reopen_and_check(scratch.path(), &what).0 {
                None => absent += 1,
                Some(got) => match states.iter().position(|s| *s == got) {
                    Some(i) => landed[i] += 1,
                    None => panic!(
                        "{what}: recovered to layout epoch {} but not to the twin's state there \
                         (manifest equal to the twin's at {:?})",
                        got.manifest.epoch(),
                        states.iter().position(|s| s.manifest == got.manifest)
                    ),
                },
            }
        }
    }
    // The sweep must have crossed every publish point: before the ingest's,
    // and on both sides of each re-tile's.
    assert!(absent > 0, "no fault point left the video unpublished");
    assert!(
        landed.iter().all(|&n| n > 0),
        "fault points per twin state: {landed:?}"
    );
}

/// The crash-point sweep over MVCC epoch GC alone: fail-stop and torn-write
/// at every mutating I/O operation of `gc_epoch` (the reclamation that runs
/// when a pinned epoch's last reader drains).
///
/// Until the GC runs, the retired epoch stays readable through the manifest
/// snapshot a reader pinned; once it has, that snapshot's tiles are typed
/// `NotFound`. A crashed GC cannot roll *back* (the re-tile already
/// committed; what is left of the retired epoch is unreferenced), so
/// recovery converges on the post-GC state from every fault point: startup
/// reclaims superseded epochs the same way a completed GC would have.
#[test]
fn epoch_gc_crash_sweep_recovers_to_exactly_one_epoch_set() {
    let new_layout = TileLayout::uniform(64, 64, 2, 2).expect("layout");
    // Ingest, then a deferred re-tile as if a reader still pinned the
    // ingested epoch. Returns that reader's manifest snapshot and the
    // epoch to reclaim.
    let prepare = |store: &VideoStore| {
        let src = test_source(10);
        store
            .ingest("v", &src, 30, small_cfg(), |_, _| {
                TileLayout::untiled(64, 64)
            })
            .expect("ingest");
        let pinned = store.load_manifest("v").expect("manifest");
        let mut manifest = pinned.clone();
        let (_, retired) = store
            .retile(&mut manifest, 0, new_layout.clone())
            .expect("deferred retile");
        let retired = retired.expect("a layout change must retire an epoch");
        let old_tile = store
            .tile_file_bytes(&pinned, 0, 0)
            .expect("deferred mode must leave the retired epoch readable");
        assert!(!old_tile.is_empty());
        (pinned, retired)
    };

    // Clean run: count the GC's own mutating operations and capture the
    // post-GC state.
    let clean = temp_dir("gc-sweep-clean");
    let counter = FaultIo::new();
    let store = VideoStore::open_with_io(clean.path(), 0, 0, counter.clone()).expect("open clean");
    let (pinned, retired) = prepare(&store);
    let ops_before = counter.mutating_ops();
    store.gc_epoch("v", retired).expect("clean gc");
    let gc_ops = counter.mutating_ops() - ops_before;
    assert!(
        gc_ops >= 2,
        "epoch GC must expose at least its remove and dir-sync as fault points, got {gc_ops}"
    );
    assert_eq!(gc_ops, 2, "fault points of one epoch GC");
    assert!(matches!(
        store.tile_file_bytes(&pinned, 0, 0),
        Err(StoreError::NotFound(_))
    ));
    store.gc_epoch("v", retired).expect("GC is idempotent");
    drop(store);
    let (post, actions) = reopen_and_check(clean.path(), "clean gc");
    assert!(actions.is_empty(), "clean shutdown recovered {actions:?}");
    let post = post.expect("video");
    assert_eq!(post.manifest.epoch(), 1);

    let scratch = temp_dir("gc-sweep-scratch");
    let mut reclaimed_by_recovery = 0u32;
    for kind in [FaultKind::FailStop, FaultKind::TornWrite] {
        for n in 1..=gc_ops {
            let what = format!("{kind:?} at gc op {n}");
            let _ = fs::remove_dir_all(scratch.path());
            let fault = FaultIo::new();
            let store = VideoStore::open_with_io(scratch.path(), 0, 0, fault.clone())
                .expect("open faulted");
            // The re-tile itself runs clean; the crash lands inside GC.
            let (_, retired) = prepare(&store);
            fault.arm(fault.mutating_ops() + n, kind);
            assert!(
                store.gc_epoch("v", retired).is_err(),
                "{what} must surface as an error"
            );
            assert!(fault.crashed(), "{what} must have fired");
            drop(store);

            // Reopen with real I/O: startup recovery reclaims whatever the
            // crashed GC left of the superseded epoch.
            let (got, actions) = reopen_and_check(scratch.path(), &what);
            if actions
                .iter()
                .any(|a| matches!(a, RecoveryAction::ReclaimedEpoch { video, epoch: 0, .. } if video == "v"))
            {
                reclaimed_by_recovery += 1;
            }
            assert!(
                got.expect("video") == post,
                "{what}: recovery must land in the post-GC state (it did {actions:?})"
            );
        }
    }
    assert!(
        reclaimed_by_recovery > 0,
        "at least one fault point must leave the retired epoch for recovery to reclaim"
    );
}

/// Regression for the non-atomic `save_manifest`: a torn write must never
/// reach `manifest.json`, and the interrupted temp file is reaped at the
/// next open.
#[test]
fn torn_manifest_write_leaves_old_manifest_intact() {
    let dir = temp_dir("torn-manifest");
    let store = VideoStore::open(dir.path()).expect("open");
    let src = test_source(10);
    store
        .ingest("v", &src, 30, small_cfg(), |_, _| {
            TileLayout::untiled(64, 64)
        })
        .expect("ingest");
    drop(store);
    let manifest_path = dir.path().join("v").join("manifest.json");
    let original = fs::read(&manifest_path).expect("manifest on disk");

    // Tear the manifest rewrite mid-write.
    let fault = FaultIo::new();
    let store = VideoStore::open_with_io(dir.path(), 0, 0, fault.clone()).expect("open faulted");
    let mut manifest = store.load_manifest("v").expect("manifest");
    manifest.fps = 60;
    fault.arm(fault.mutating_ops() + 1, FaultKind::TornWrite);
    assert!(matches!(
        store.save_manifest(&manifest),
        Err(StoreError::Io(_))
    ));
    drop(store);
    assert_eq!(
        fs::read(&manifest_path).expect("manifest still on disk"),
        original,
        "a torn write must never touch the published manifest"
    );
    assert!(
        dir.path().join("v").join("manifest.json.tmp").exists(),
        "the torn temp file is what the crash left behind"
    );

    // Recovery reaps the temp file; the old manifest still reads.
    let store = VideoStore::open(dir.path()).expect("reopen");
    assert!(store
        .recovery_report()
        .actions
        .iter()
        .any(|a| matches!(a, RecoveryAction::RemovedTemp { video, .. } if video == "v")));
    assert!(!dir.path().join("v").join("manifest.json.tmp").exists());
    assert_eq!(store.load_manifest("v").expect("manifest").fps, 30);
    assert!(store.fsck(&[]).expect("fsck").is_clean());
    // Release the store lock: a live handle would (correctly) make the
    // openers below defer recovery.
    drop(store);

    // Fail-stop between temp write and rename: same outcome, the fully
    // written temp file is still not the published manifest.
    let fault = FaultIo::new();
    let store2 = VideoStore::open_with_io(dir.path(), 0, 0, fault.clone()).expect("open faulted");
    let mut manifest = store2.load_manifest("v").expect("manifest");
    manifest.fps = 90;
    fault.arm(fault.mutating_ops() + 2, FaultKind::FailStop);
    assert!(store2.save_manifest(&manifest).is_err());
    drop(store2);
    assert_eq!(fs::read(&manifest_path).expect("manifest"), original);
    let store = VideoStore::open(dir.path()).expect("reopen again");
    assert_eq!(store.load_manifest("v").expect("manifest").fps, 30);
    assert!(store.fsck(&[]).expect("fsck").is_clean());
}

/// A graceful mid-ingest failure (bad layout for a later SOT) must remove
/// the partially written video directory instead of leaving orphan packs
/// behind.
#[test]
fn failed_ingest_cleans_up_partial_video() {
    let dir = temp_dir("ingest-cleanup");
    let store = VideoStore::open(dir.path()).expect("open");
    let src = test_source(20); // two SOTs of 10
    let result = store.ingest("v", &src, 30, small_cfg(), |sot, _| {
        if sot == 0 {
            TileLayout::untiled(64, 64)
        } else {
            TileLayout::untiled(32, 32) // does not cover the frame: SOT 1 fails
        }
    });
    assert!(matches!(result, Err(StoreError::Layout(_))));
    assert!(
        !dir.path().join("v").exists(),
        "partial video directory must be removed"
    );
    assert!(matches!(
        store.load_manifest("v"),
        Err(StoreError::NotFound(_))
    ));
    assert!(store.fsck(&[]).expect("fsck").is_clean());
}

/// A *crash* mid-ingest cannot clean up (every further I/O fails, as after
/// `kill -9`), so the orphan directory survives until the next open, where
/// recovery removes it because it never gained a manifest.
#[test]
fn crashed_ingest_is_reaped_at_next_open() {
    let dir = temp_dir("ingest-crash");
    let fault = FaultIo::new();
    let store = VideoStore::open_with_io(dir.path(), 0, 0, fault.clone()).expect("open");
    let src = test_source(20);
    // Ops: video dir create, SOT 0's pack, SOT 1's pack… — tear SOT 1's.
    fault.arm(fault.mutating_ops() + 3, FaultKind::TornWrite);
    assert!(store
        .ingest("v", &src, 30, small_cfg(), |_, _| TileLayout::untiled(
            64, 64
        ))
        .is_err());
    drop(store);
    assert!(
        dir.path().join("v").exists(),
        "a crashed process cannot have cleaned up"
    );

    let store = VideoStore::open(dir.path()).expect("reopen");
    assert!(store
        .recovery_report()
        .actions
        .iter()
        .any(|a| matches!(a, RecoveryAction::RemovedPartialVideo { video } if video == "v")));
    assert!(!dir.path().join("v").exists(), "recovery reaps the orphan");
    assert!(matches!(
        store.load_manifest("v"),
        Err(StoreError::NotFound(_))
    ));
    assert!(store.fsck(&[]).expect("fsck").is_clean());
}

/// The names of a video directory's entries, sorted.
fn entry_names(video_dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(video_dir)
        .expect("video dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// fsck detects what recovery cannot: silent corruption of packs and of the
/// tiles in them, and entries the manifest does not account for.
#[test]
fn fsck_detects_corruption_and_strays() {
    use tasm_core::FsckIssue;
    let dir = temp_dir("fsck");
    let store = VideoStore::open(dir.path()).expect("open");
    let src = test_source(10);
    let layout = TileLayout::uniform(64, 64, 2, 2).expect("layout");
    store
        .ingest("v", &src, 30, small_cfg(), move |_, _| layout.clone())
        .expect("ingest");
    assert!(store.fsck(&[]).expect("fsck").is_clean());
    assert!(store.fsck_video("v", &[]).expect("fsck v").is_clean());
    assert!(matches!(
        store.fsck_video("nope", &[]),
        Err(StoreError::NotFound(_))
    ));

    // One pack per SOT beside the manifest: a 12-byte header, 16 bytes of
    // table per tile, then the tiles.
    assert_eq!(
        entry_names(&dir.path().join("v")),
        ["manifest.json", "sot_000000_000010.tiles"]
    );
    let pack = dir.path().join("v").join("sot_000000_000010.tiles");
    let original = fs::read(&pack).expect("pack bytes");
    let tile0 = 12 + 16 * 4;
    let manifest = store.load_manifest("v").expect("manifest");
    let served = store.tile_file_bytes(&manifest, 0, 0).expect("tile 0");
    assert_eq!(original[tile0..tile0 + served.len()], served[..]);

    // Torn tail: the table promises more than the file holds.
    fs::write(&pack, &original[..original.len() - 3]).expect("truncate");
    let report = store.fsck(&[]).expect("fsck");
    assert!(
        report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::PackCorrupt { sot_start: 0, .. })),
        "torn tail must be flagged, got {:?}",
        report.issues
    );
    assert!(store.read_tile(&manifest, 0, 3).is_err());
    assert_eq!(
        store.tile_file_bytes(&manifest, 0, 0).expect("whole tile"),
        served,
        "a tile that is all there still reads"
    );

    // Bit-flipped header of tile 0 (its width field): that tile, no other.
    let mut flipped = original.clone();
    flipped[tile0 + 5] ^= 0xff;
    fs::write(&pack, &flipped).expect("flip");
    let report = store.fsck(&[]).expect("fsck");
    assert!(!report.is_clean(), "flipped header must be flagged");
    assert!(
        report.issues.iter().all(|i| matches!(
            i,
            FsckIssue::TileCorrupt { tile: 0, .. } | FsckIssue::TileMismatch { tile: 0, .. }
        )),
        "{:?}",
        report.issues
    );

    // Restore, then drop strays: a foreign file, and what a build from
    // before packs would have called a commit record — to `fsck` on the
    // handle that owns the store, both are just entries nothing names.
    fs::write(&pack, &original).expect("restore");
    fs::write(dir.path().join("v").join("notes.txt"), b"?").expect("stray");
    fs::write(
        dir.path().join("v").join("commit_sot_000000_000010.json"),
        b"{",
    )
    .expect("stray commit-lookalike");
    let report = store.fsck(&[]).expect("fsck");
    let strays = report
        .issues
        .iter()
        .filter(|i| matches!(i, FsckIssue::Stray { .. }))
        .count();
    assert_eq!(strays, 2, "both strays flagged, got {:?}", report.issues);

    // A *missing* pack is every one of its tiles missing.
    fs::remove_file(dir.path().join("v").join("notes.txt")).expect("cleanup stray");
    fs::remove_file(&pack).expect("remove pack");
    let report = store.fsck_video("v", &[]).expect("fsck v");
    for tile in 0..4 {
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::MissingTile { tile: t, .. } if *t == tile)));
    }
    assert!(matches!(
        store.read_tile(&manifest, 0, 0),
        Err(StoreError::NotFound(_))
    ));
}

// ---------------------------------------------------------------------
// Kill-and-reattach under a live service
// ---------------------------------------------------------------------

/// A 128x96 source with a moving "car" and a static "person", matching the
/// deterministic ground truth `populate_truth` records.
fn service_source(frames: u32) -> VecFrameSource {
    VecFrameSource::new(
        (0..frames)
            .map(|i| {
                let mut f = Frame::filled(128, 96, 90, 128, 128);
                for y in 0..96 {
                    for x in 0..128 {
                        f.set_sample(Plane::Y, x, y, ((x * 3 + y * 7) % 180 + 30) as u8);
                    }
                }
                f.fill_rect(Rect::new((i * 2) % 96, 8, 24, 16), 220, 90, 170);
                f.fill_rect(Rect::new(96, 64, 12, 24), 60, 170, 90);
                f
            })
            .collect(),
    )
}

fn service_cfg() -> TasmConfig {
    TasmConfig {
        storage: StorageConfig {
            gop_len: 5,
            sot_frames: 10,
            parallel_encode: false,
            ..Default::default()
        },
        partition: PartitionConfig {
            min_tile_width: 32,
            min_tile_height: 16,
            ..Default::default()
        },
        // A tiny regret threshold so the daemon re-tiles within a few
        // observations — the crash must land mid-re-tile.
        eta: 0.05,
        workers: 2,
        cache_bytes: 32 << 20,
        ..Default::default()
    }
}

fn populate_truth(t: &Tasm, frames: u32) {
    for i in 0..frames {
        t.add_metadata("v", "car", i, Rect::new((i * 2) % 96, 8, 24, 16))
            .unwrap();
        t.add_metadata("v", "person", i, Rect::new(96, 64, 12, 24))
            .unwrap();
        t.mark_processed("v", i).unwrap();
    }
}

/// Kill-and-reattach: crash the storage layer while the regret daemon and
/// 4 query workers are live — at the second, fifth and seventh mutating
/// operation the daemon's re-tiles perform, so the crash lands early in a
/// commit, late in one, or in the next — reopen the store (recovery), and
/// verify that it holds nothing the manifest does not name and that every
/// tile's bytes and every post-recovery query are bit-identical to a
/// serially-driven twin brought to the same per-SOT layouts.
#[test]
fn kill_and_reattach_matches_serially_driven_twin() {
    for crash_at in [2, 5, 7] {
        kill_and_reattach(crash_at);
    }
}

fn kill_and_reattach(crash_at: u64) {
    const FRAMES: u32 = 40;
    let dir = temp_dir("kill-reattach");
    let fault = FaultIo::new();
    let tasm = Arc::new(
        Tasm::open_with_io(
            dir.path(),
            Box::new(MemoryIndex::in_memory()),
            service_cfg(),
            fault.clone(),
        )
        .expect("open"),
    );
    let src = service_source(FRAMES);
    tasm.ingest("v", &src, 30).expect("ingest");
    populate_truth(&tasm, FRAMES);

    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 4,
            queue_depth: 16,
            retile: RetilePolicy::Regret,
            retile_interval: Duration::from_millis(2),
            ..Default::default()
        },
    );
    // The next mutating I/O comes from the daemon's re-tiles.
    fault.arm(fault.mutating_ops() + crash_at, FaultKind::TornWrite);

    let windows = [0u32..10, 10..20, 20..30, 30..40];
    let mut submitted = 0u32;
    'drive: for round in 0..200 {
        let handles: Vec<_> = windows
            .iter()
            .filter_map(|w| {
                service
                    .try_submit(QueryRequest::new(
                        "v",
                        Query::new(LabelPredicate::label(if round % 3 == 0 {
                            "person"
                        } else {
                            "car"
                        }))
                        .frames(w.clone()),
                    ))
                    .ok()
            })
            .collect();
        submitted += handles.len() as u32;
        for h in handles {
            let _ = h.wait(); // post-crash queries fail; both are fine
        }
        if fault.crashed() {
            // Let the daemon run into the dead I/O a little longer so its
            // error accounting is observable, then stop driving.
            std::thread::sleep(Duration::from_millis(10));
            break 'drive;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        fault.crashed(),
        "the regret daemon never re-tiled ({submitted} queries submitted)"
    );
    let report = service.shutdown(Shutdown::Drain);
    assert!(
        report.stats.retile_ops > 0 || report.stats.retile_errors > 0,
        "the daemon must have attempted re-tiles"
    );
    drop(tasm);

    // "Restart": reopen the store on real I/O — recovery resolves the
    // interrupted re-tile to one epoch — and reattach the video.
    let recovered = Tasm::open(
        dir.path(),
        Box::new(MemoryIndex::in_memory()),
        service_cfg(),
    )
    .expect("reopen after kill");
    recovered.attach("v").expect("reattach");
    populate_truth(&recovered, FRAMES);
    assert!(recovered.fsck().expect("fsck").is_clean());
    let recovered_manifest = recovered.manifest("v").expect("manifest");
    assert_eq!(
        fs::read_dir(dir.path().join("v"))
            .expect("video dir")
            .count(),
        1 + recovered_manifest.sots.len(),
        "crash at op {crash_at}: the video directory holds the manifest and one entry per SOT"
    );

    // The twin is driven serially on clean I/O to the exact per-SOT
    // layouts recovery settled on; transcodes are deterministic, so every
    // tile and every query must then be bit-identical.
    let twin_dir = temp_dir("kill-reattach-twin");
    let twin = Tasm::open(
        twin_dir.path(),
        Box::new(MemoryIndex::in_memory()),
        service_cfg(),
    )
    .expect("open twin");
    twin.ingest("v", &src, 30).expect("twin ingest");
    populate_truth(&twin, FRAMES);
    for (sot_idx, sot) in recovered_manifest.sots.iter().enumerate() {
        // One re-tile from the ingested layout is what the twin can redo.
        assert!(sot.retile_count <= 1, "SOT {sot_idx} re-tiled twice");
        let twin_layout = twin.manifest("v").expect("twin manifest").sots[sot_idx]
            .layout
            .clone();
        if twin_layout != sot.layout {
            twin.retile("v", sot_idx, sot.layout.clone())
                .expect("twin retile");
        }
    }
    let twin_manifest = twin.manifest("v").expect("twin manifest");
    assert_eq!(recovered_manifest, twin_manifest);
    for (sot_idx, sot) in recovered_manifest.sots.iter().enumerate() {
        for t in 0..sot.layout.tile_count() {
            assert_eq!(
                recovered
                    .store()
                    .tile_file_bytes(&recovered_manifest, sot_idx, t)
                    .expect("recovered tile"),
                twin.store()
                    .tile_file_bytes(&twin_manifest, sot_idx, t)
                    .expect("twin tile"),
                "crash at op {crash_at}: SOT {sot_idx} tile {t}"
            );
        }
    }

    for label in ["car", "person"] {
        for window in [0u32..10, 10..20, 20..30, 30..40, 0..40] {
            let a = recovered
                .scan("v", &LabelPredicate::label(label), window.clone())
                .expect("recovered scan");
            let b = twin
                .scan("v", &LabelPredicate::label(label), window.clone())
                .expect("twin scan");
            tasm_suite::assert_regions_identical(
                &b.regions,
                &a.regions,
                &format!("'{label}' over {window:?} after a crash at op {crash_at}"),
            );
        }
    }
}

/// A handle whose re-tile of SOT `sot_idx` died at its `op`-th mutating
/// operation (1 = the pack write, torn; 2 = the directory fsync after it)
/// and which is then kept, lock and all: what a live server looks like on
/// disk between writing a pack and publishing it.
fn handle_with_unpublished_retile(dir: &Path, sot_idx: usize, op: u64) -> VideoStore {
    let fault = FaultIo::new();
    let live = VideoStore::open_with_io(dir, 0, 0, fault.clone()).expect("open live handle");
    assert!(!live.recovery_report().deferred);
    let mut manifest = live.load_manifest("v").expect("manifest");
    fault.arm(fault.mutating_ops() + op, FaultKind::TornWrite);
    let layout = TileLayout::uniform(64, 64, 4, 4).expect("layout");
    assert!(live.retile(&mut manifest, sot_idx, layout).is_err());
    live
}

/// While one handle holds the store lock (a live server), a second opener
/// (e.g. `tasm fsck` against a running `tasm serve`) must not run mutating
/// recovery — the pack of a re-tile the live handle has written and not yet
/// published is exactly what crash residue looks like, and deleting it
/// would pull the new epoch out from under the commit.
#[test]
fn second_opener_defers_recovery_while_store_is_live() {
    let dir = temp_dir("live-lock");
    let store = VideoStore::open(dir.path()).expect("open");
    let src = test_source(10);
    store
        .ingest("v", &src, 30, small_cfg(), |_, _| {
            TileLayout::untiled(64, 64)
        })
        .expect("ingest");
    drop(store);
    let ingested = entry_names(&dir.path().join("v"));

    let live = handle_with_unpublished_retile(dir.path(), 0, 2);
    let in_flight = entry_names(&dir.path().join("v"));
    assert_eq!(in_flight.len(), ingested.len() + 1, "{in_flight:?}");

    let second = VideoStore::open(dir.path()).expect("second opener");
    assert!(second.recovery_report().deferred, "lock is held: no repair");
    assert!(second.recovery_report().is_clean());
    // A deferred fsck treats the live handle's state (an unpublished or a
    // still-pinned epoch, temps) as in-flight, not as corruption.
    let fsck = second.fsck(&[]).expect("fsck on live store");
    assert!(fsck.is_clean(), "live re-tile flagged: {:?}", fsck.issues);
    drop(second);
    assert_eq!(
        entry_names(&dir.path().join("v")),
        in_flight,
        "the live re-tile must survive"
    );

    // Once the live handle is gone the next open recovers normally.
    drop(live);
    let fresh = VideoStore::open(dir.path()).expect("reopen after shutdown");
    assert!(!fresh.recovery_report().deferred);
    assert!(fresh.recovery_report().actions.iter().any(|a| matches!(
        a,
        RecoveryAction::ReclaimedEpoch {
            sot_start: 0,
            epoch: 1,
            ..
        }
    )));
    assert_eq!(entry_names(&dir.path().join("v")), ingested);
    assert!(fresh.fsck(&[]).expect("fsck").is_clean());
}

/// What a failed re-tile wrote must neither survive into a later commit nor
/// be taken for one. A handle that has not been through recovery since
/// (here: one opened beside the handle that failed, so deferred) re-tiles
/// the same SOT over a torn and over a whole unpublished pack, and another
/// SOT beside one; every tile it then serves is what a store that never
/// saw the failure serves, and a recovering open finds nothing amiss.
#[test]
fn a_failed_retiles_pack_never_outlives_a_later_commit() {
    let src = test_source(20); // two SOTs of 10
    let ingest = |dir: &Path| {
        let store = VideoStore::open(dir).expect("open");
        store
            .ingest("v", &src, 30, small_cfg(), |_, _| {
                TileLayout::untiled(64, 64)
            })
            .expect("ingest");
    };
    let later_layout = TileLayout::uniform(64, 64, 2, 2).expect("layout");
    let tiles_of = |store: &VideoStore| -> Vec<Vec<Vec<u8>>> {
        let manifest = store.load_manifest("v").expect("manifest");
        (0..manifest.sots.len())
            .map(|i| {
                (0..manifest.sots[i].layout.tile_count())
                    .map(|t| store.tile_file_bytes(&manifest, i, t).expect("tile"))
                    .collect()
            })
            .collect()
    };

    for later_sot in [0, 1] {
        // The twin never fails: ingest, then the later re-tile alone.
        let twin_dir = temp_dir("failed-retile-twin");
        ingest(twin_dir.path());
        let twin = VideoStore::open(twin_dir.path()).expect("open twin");
        let mut manifest = twin.load_manifest("v").expect("manifest");
        let (_, retired) = twin
            .retile(&mut manifest, later_sot, later_layout.clone())
            .expect("twin retile");
        twin.gc_epoch("v", retired.expect("retired")).expect("gc");
        let want = (manifest, tiles_of(&twin));

        for failed_at_op in [1, 2] {
            let what = format!("SOT 0 failed at op {failed_at_op}, then SOT {later_sot}");
            let dir = temp_dir("failed-retile");
            ingest(dir.path());
            let failed = handle_with_unpublished_retile(dir.path(), 0, failed_at_op);
            let residue = entry_names(&dir.path().join("v"));
            assert_eq!(residue.len(), 4, "{what}: {residue:?}");

            let store = VideoStore::open(dir.path()).expect("second handle");
            assert!(store.recovery_report().deferred, "{what}");
            let mut manifest = store.load_manifest("v").expect("manifest");
            let (_, retired) = store
                .retile(&mut manifest, later_sot, later_layout.clone())
                .expect("later retile");
            store.gc_epoch("v", retired.expect("retired")).expect("gc");
            assert_eq!(manifest, want.0, "{what}");
            assert_eq!(store.load_manifest("v").expect("on disk"), want.0, "{what}");
            assert_eq!(tiles_of(&store), want.1, "{what}");
            drop(store);
            drop(failed);

            let store = VideoStore::open(dir.path()).expect("recovering open");
            let actions = &store.recovery_report().actions;
            if later_sot == 0 {
                // The later commit took the failed attempt's name.
                assert!(actions.is_empty(), "{what}: {actions:?}");
            } else {
                assert!(
                    matches!(
                        actions[..],
                        [RecoveryAction::ReclaimedEpoch {
                            sot_start: 0,
                            epoch: 1,
                            ..
                        }]
                    ),
                    "{what}: {actions:?}"
                );
            }
            let fsck = store.fsck(&[]).expect("fsck");
            assert!(fsck.is_clean(), "{what}: {:?}", fsck.issues);
            assert_eq!(entry_names(&dir.path().join("v")).len(), 3, "{what}");
            assert_eq!(store.load_manifest("v").expect("manifest"), want.0);
            assert_eq!(tiles_of(&store), want.1, "{what}");
        }
    }
}

/// What builds from before packs can have left behind. The residue of
/// their re-tile protocol — a staging directory, a commit record, on
/// either side of that protocol's commit point — is discarded and reported
/// by a recovering open, the manifest untouched: it names an epoch whose
/// tiles exist, and a rolled-back re-tile loses work, never data. A SOT
/// they stored as a directory of tile files is not converted and gets no
/// second read path: recovery leaves it alone, reads are typed `NotFound`,
/// and `fsck` names the directory as the reason.
#[test]
fn an_older_builds_residue_is_discarded_and_its_sot_directories_are_named() {
    use tasm_core::FsckIssue;
    let dir = temp_dir("legacy");
    let store = VideoStore::open(dir.path()).expect("open");
    let src = test_source(20);
    store
        .ingest("v", &src, 30, small_cfg(), |_, _| {
            TileLayout::untiled(64, 64)
        })
        .expect("ingest");
    let manifest = store.load_manifest("v").expect("manifest");
    drop(store);
    let video = dir.path().join("v");
    let before = (
        entry_names(&video),
        fs::read(video.join("manifest.json")).expect("manifest bytes"),
    );

    let staging = video.join("staging_sot_000000_000010");
    fs::create_dir_all(&staging).expect("staging");
    fs::write(staging.join("tile_000.tvf"), b"half a re-tile").expect("tile");
    let record = format!(
        "{{\"sot_start\": 10, \"sot_end\": 20, \"manifest\": {}}}",
        String::from_utf8_lossy(&before.1)
    );
    fs::write(video.join("commit_sot_000010_000020.json"), record).expect("record");
    fs::write(video.join("commit_sot_000000_000010.json.tmp"), b"{").expect("temp");

    let store = VideoStore::open(dir.path()).expect("recovering open");
    let mut discarded: Vec<&str> = store
        .recovery_report()
        .actions
        .iter()
        .filter_map(|a| match a {
            RecoveryAction::DiscardedLegacyResidue { video, entry } if video == "v" => {
                Some(entry.as_str())
            }
            _ => None,
        })
        .collect();
    discarded.sort();
    assert_eq!(
        discarded,
        ["commit_sot_000010_000020.json", "staging_sot_000000_000010"]
    );
    assert_eq!(store.recovery_report().actions.len(), 3, "and the temp");
    assert_eq!(
        before,
        (
            entry_names(&video),
            fs::read(video.join("manifest.json")).expect("manifest bytes")
        )
    );
    assert!(store.fsck(&[]).expect("fsck").is_clean());
    drop(store);

    // SOT 1 as such a build stored it: a directory, one file per tile.
    let tile = {
        let store = VideoStore::open(dir.path()).expect("open");
        store.tile_file_bytes(&manifest, 1, 0).expect("tile")
    };
    fs::remove_file(video.join("sot_000010_000020.tiles")).expect("remove pack");
    let legacy = video.join("sot_000010_000020");
    fs::create_dir_all(&legacy).expect("legacy dir");
    fs::write(legacy.join("tile_000.tvf"), &tile).expect("legacy tile");

    let store = VideoStore::open(dir.path()).expect("open over a legacy SOT");
    assert!(store.recovery_report().is_clean());
    assert_eq!(fs::read(legacy.join("tile_000.tvf")).expect("kept"), tile);
    assert!(matches!(
        store.read_tile(&manifest, 1, 0),
        Err(StoreError::NotFound(_))
    ));
    assert!(store.read_tile(&manifest, 0, 0).is_ok());
    let report = store.fsck(&[]).expect("fsck");
    assert!(
        matches!(
            &report.issues[..],
            [
                FsckIssue::MissingTile {
                    sot_start: 10,
                    tile: 0,
                    ..
                },
                FsckIssue::LegacySotDirectory { path, .. }
            ] if path == "sot_000010_000020"
        ),
        "{:?}",
        report.issues
    );
}

/// Recovery only reaps directories that are recognizably the store's own
/// (tile residue or empty): a foreign directory — the store opened at a
/// wrong or shared path — is never deleted, even without a manifest.
#[test]
fn recovery_never_deletes_foreign_directories() {
    let dir = temp_dir("foreign");
    let store = VideoStore::open(dir.path()).expect("open");
    let src = test_source(10);
    store
        .ingest("v", &src, 30, small_cfg(), |_, _| {
            TileLayout::untiled(64, 64)
        })
        .expect("ingest");
    drop(store);

    // Not ours: a manifest-less directory holding unrelated data.
    let foreign = dir.path().join("my-backups");
    fs::create_dir_all(&foreign).expect("mkdir");
    fs::write(foreign.join("important.txt"), b"do not lose").expect("write");
    fs::write(foreign.join("notes.tmp"), b"also keep: not tile residue").expect("write");

    let store = VideoStore::open(dir.path()).expect("reopen");
    assert!(
        store.recovery_report().is_clean(),
        "foreign data must not be touched: {:?}",
        store.recovery_report().actions
    );
    assert_eq!(
        fs::read(foreign.join("important.txt")).expect("survives"),
        b"do not lose"
    );
    assert!(
        foreign.join("notes.tmp").exists(),
        "even .tmp files survive"
    );
    // fsck still *flags* the unknown directory — it should not be in a
    // store — it just never deletes it.
    assert!(!store.fsck(&[]).expect("fsck").is_clean());

    // An empty manifest-less directory, by contrast, is ingest residue.
    drop(store);
    fs::create_dir_all(dir.path().join("half-ingested")).expect("mkdir");
    let store = VideoStore::open(dir.path()).expect("reopen again");
    assert!(store.recovery_report().actions.iter().any(
        |a| matches!(a, RecoveryAction::RemovedPartialVideo { video } if video == "half-ingested")
    ));
    assert!(!dir.path().join("half-ingested").exists());
}

/// Re-tiles survive restart cleanly: no residue, no recovery actions, fsck
/// clean, one pack under the new epoch's name — the happy path of the
/// commit rule.
#[test]
fn clean_retile_leaves_no_residue() {
    let dir = temp_dir("clean-retile");
    let store = VideoStore::open(dir.path()).expect("open");
    let src = test_source(10);
    store
        .ingest("v", &src, 30, small_cfg(), |_, _| {
            TileLayout::untiled(64, 64)
        })
        .expect("ingest");
    let mut manifest = store.load_manifest("v").expect("manifest");
    let (_, retired) = store
        .retile(
            &mut manifest,
            0,
            TileLayout::uniform(64, 64, 2, 2).expect("layout"),
        )
        .expect("retile");
    store.gc_epoch("v", retired.expect("retired")).expect("gc");
    drop(store);

    let store = VideoStore::open(dir.path()).expect("reopen");
    assert!(
        store.recovery_report().is_clean(),
        "clean shutdown needs no recovery: {:?}",
        store.recovery_report().actions
    );
    let fsck = store.fsck(&[]).expect("fsck");
    assert!(fsck.is_clean(), "{:?}", fsck.issues);
    assert_eq!(fsck.tiles_checked, 4);
    assert_eq!(
        store.load_manifest("v").expect("manifest").sots[0].retile_count,
        1
    );
    assert_eq!(
        entry_names(&dir.path().join("v")),
        ["manifest.json", "sot_000000_000010_r000001.tiles"]
    );
}

/// GC reclaims only what a readable manifest does not name: with the
/// manifest garbage, or gone as between a re-ingest's unpublish and its
/// publish, the pack it named stays.
#[test]
fn gc_epoch_without_a_readable_manifest_reclaims_nothing() {
    let dir = temp_dir("gc-closed");
    let store = VideoStore::open(dir.path()).expect("open");
    let (manifest, _) = store
        .ingest("v", &test_source(10), 30, small_cfg(), |_, _| {
            TileLayout::untiled(64, 64)
        })
        .expect("ingest");
    let live = manifest.sots[0].pack_id();
    let video = dir.path().join("v");
    fs::write(video.join("manifest.json"), b"{ not a manifest").expect("garbage");
    let garbage = store.gc_epoch("v", live);
    assert!(
        matches!(garbage, Err(StoreError::Manifest(_))),
        "{garbage:?}"
    );
    fs::remove_file(video.join("manifest.json")).expect("unlink");
    let missing = store.gc_epoch("v", live);
    assert!(
        matches!(missing, Err(StoreError::NotFound(_))),
        "{missing:?}"
    );
    assert!(video.join("sot_000000_000010.tiles").exists());
}

/// What a commit costs is a count of durability steps, and the count does
/// not depend on what is committed: a re-tile is six mutating operations
/// (the pack's write, the video directory's fsync, the manifest's temp
/// write and rename, the retired pack's unlink, the directory's fsync
/// again) at 4, 16 and 30 tiles alike — four with the reclaim deferred —
/// and an ingest of S SOTs is S + 5 (the video directory, S packs, its
/// fsync, the manifest's two, the store root's fsync). A replica install
/// of S SOTs costs what an ingest does, a replicated SOT what a deferred
/// re-tile does plus the reclaim's two, and a removal three (the
/// manifest's unlink, the directory's removal, the store root's fsync).
#[test]
fn a_commits_mutating_operations_do_not_grow_with_the_tile_count() {
    let src = VecFrameSource::new(
        (0..50)
            .map(|i| {
                let mut f = Frame::filled(96, 80, 90, 128, 128);
                f.fill_rect(Rect::new((i * 4) % 64, 16, 32, 32), 200, 90, 160);
                f
            })
            .collect(),
    );
    let dir = temp_dir("op-counts");
    let io = FaultIo::new();
    let store = VideoStore::open_with_io(dir.path(), 0, 0, io.clone()).expect("open");
    let ops = |f: &mut dyn FnMut()| {
        let before = io.mutating_ops();
        f();
        io.mutating_ops() - before
    };

    for sots in [1, 2, 5] {
        let name = format!("v{sots}");
        let cfg = StorageConfig {
            gop_len: 5,
            sot_frames: 50 / sots,
            parallel_encode: false,
            ..Default::default()
        };
        let ingest_ops = ops(&mut || {
            store
                .ingest(&name, &src, 30, cfg, |_, _| TileLayout::untiled(96, 80))
                .expect("ingest");
        });
        assert_eq!(ingest_ops, u64::from(sots) + 5, "ingest of {sots} SOTs");
        let replica = replica_of(&store, &name, &format!("r{sots}"));
        let install_ops = ops(&mut || {
            store
                .install_video(&replica.0, &replica.1)
                .expect("install");
        });
        assert_eq!(install_ops, u64::from(sots) + 5, "install of {sots} SOTs");
    }

    let mut manifest = store.load_manifest("v5").expect("manifest");
    for (sot, (rows, cols)) in [(2, 2), (4, 4), (5, 6)].into_iter().enumerate() {
        let layout = TileLayout::uniform(96, 80, rows, cols).expect("layout");
        let tiles = layout.tile_count();
        let retile_ops = ops(&mut || {
            let (_, retired) = store
                .retile(&mut manifest, sot, layout.clone())
                .expect("retile");
            store.gc_epoch("v5", retired.expect("retired")).expect("gc");
        });
        assert_eq!(retile_ops, 6, "re-tile to {tiles} tiles");
        let (next, payload) = replica_of(&store, "v5", "r5");
        let mut retired = None;
        let install_ops = ops(&mut || {
            retired = store
                .install_sot(&next, sot, &payload[sot])
                .expect("install SOT");
        });
        assert_eq!(install_ops, 4, "SOT install of {tiles} tiles");
        let reclaim_ops = ops(&mut || {
            store
                .gc_epoch("r5", retired.expect("retired epoch"))
                .expect("reclaim");
        });
        assert_eq!(reclaim_ops, 2, "reclaim after a SOT install");
        let back = ops(&mut || {
            store
                .retile(&mut manifest, sot, TileLayout::untiled(96, 80))
                .expect("deferred retile")
                .1
                .expect("retired epoch");
        });
        assert_eq!(back, 4, "deferred re-tile from {tiles} tiles");
    }
    for name in ["r1", "r2", "r5"] {
        let remove_ops = ops(&mut || store.remove_video(name).expect("remove"));
        assert_eq!(remove_ops, 3, "removal of {name}");
    }
    drop(store);
}

/// `from`'s manifest as stored, renamed `to`, with every tile's bytes: a
/// replica payload for [`VideoStore::install_video`] and `install_sot`.
fn replica_of(store: &VideoStore, from: &str, to: &str) -> (VideoManifest, Vec<Vec<Vec<u8>>>) {
    let mut manifest = store.load_manifest(from).expect("manifest");
    let tiles = (0..manifest.sots.len())
        .map(|sot| {
            (0..manifest.sots[sot].layout.tile_count())
                .map(|t| store.tile_file_bytes(&manifest, sot, t).expect("tile"))
                .collect()
        })
        .collect();
    manifest.name = to.to_string();
    (manifest, tiles)
}

// ---------------------------------------------------------------------
// Crash-point sweep over the tiered semantic index
// ---------------------------------------------------------------------

/// One deterministic index workload step. Every step changes the logical
/// state (distinct detections / distinct processed frames), so every prefix
/// of the stream has a distinct fingerprint and "which prefix survived?"
/// has exactly one answer.
fn index_workload_step(
    ix: &mut dyn tasm_index::SemanticIndex,
    i: u32,
) -> Result<(), tasm_index::TreeError> {
    let video = i % 2;
    let labels = ["car", "person", "bus"];
    if i % 7 == 6 {
        ix.mark_processed(video, i)
    } else {
        ix.add_metadata(
            video,
            labels[(i % 3) as usize],
            i * 3,
            Rect::new(i, i * 2, 16, 16),
        )
    }
}

const INDEX_SWEEP_STEPS: u32 = 64;
const INDEX_SWEEP_FLUSH_EVERY: u32 = 5;

/// Runs the workload: a flush every [`INDEX_SWEEP_FLUSH_EVERY`] steps and
/// once at the end. Stops at the first error (the injected crash). With a
/// memtable limit of 8, the step count is chosen so the stream *ends* on an
/// auto-spill: run-flush and compaction I/O follows the final WAL append,
/// giving the sweep fault points after the last durability point.
fn run_index_workload(ix: &mut dyn tasm_index::SemanticIndex) -> Result<(), tasm_index::TreeError> {
    for i in 0..INDEX_SWEEP_STEPS {
        index_workload_step(ix, i)?;
        if i % INDEX_SWEEP_FLUSH_EVERY == INDEX_SWEEP_FLUSH_EVERY - 1 {
            ix.flush()?;
        }
    }
    ix.flush()
}

/// The observable logical state of a semantic index under the sweep
/// workload: every probe a planner could make, plus the counters.
fn index_fingerprint(ix: &mut dyn tasm_index::SemanticIndex) -> String {
    let mut out = String::new();
    out.push_str(&format!("detections={}\n", ix.detection_count()));
    for video in 0..2u32 {
        out.push_str(&format!(
            "labels[{video}]={:?}\n",
            ix.labels(video).expect("labels")
        ));
        out.push_str(&format!(
            "processed[{video}]={}\n",
            ix.processed_count(video, 0..INDEX_SWEEP_STEPS * 3 + 1)
                .expect("processed")
        ));
        for label in ["car", "person", "bus"] {
            let dets = ix
                .query(video, label, 0..INDEX_SWEEP_STEPS * 3 + 1)
                .expect("query");
            out.push_str(&format!("q[{video}/{label}]={dets:?}\n"));
        }
    }
    out
}

/// The index-tier crash-point sweep (acceptance criterion): fail-stop and
/// torn-write at every mutating I/O operation of the tiered index's WAL
/// appends, memtable→run flushes, and compactions. Reopening must replay to
/// a state equal to **exactly one prefix** of the acknowledged operation
/// stream — never a hole, never a torn or duplicated record — and the
/// tier's own verify() must be clean.
#[test]
fn index_tier_crash_sweep_recovers_to_exactly_one_prefix() {
    use tasm_index::TieredIndex;

    // Every prefix state of the workload, computed on the reference
    // in-memory index (equivalence with the tiered index is proven by the
    // index crate's property tests).
    let expected: Vec<String> = (0..=INDEX_SWEEP_STEPS)
        .map(|k| {
            let mut shadow = MemoryIndex::in_memory();
            for i in 0..k {
                index_workload_step(&mut shadow, i).expect("shadow step");
            }
            index_fingerprint(&mut shadow)
        })
        .collect();

    // Count the workload's mutating I/O operations with a disarmed
    // injector. The small memtable limit forces WAL appends, several run
    // flushes, and at least one 4-way compaction into the sweep's range.
    let clean = temp_dir("index-sweep-clean");
    let counter = FaultIo::new();
    let mut idx = TieredIndex::open_with_io(clean.path(), counter.clone()).expect("open clean");
    idx.set_memtable_limit(8);
    let ops_before = counter.mutating_ops();
    run_index_workload(&mut idx).expect("clean workload");
    let total_ops = counter.mutating_ops() - ops_before;
    let clean_runs = idx.stats().run_count;
    drop(idx);
    assert!(
        total_ops >= 20,
        "the index protocol must expose at least 20 fault points, got {total_ops}"
    );
    // Pinned exactly, so a change to the shim under the index cannot
    // silently add or drop a fault point.
    assert_eq!(total_ops, 65, "fault points of the index workload");
    assert!(clean_runs >= 2, "workload must leave multiple runs");

    let scratch = temp_dir("index-sweep-scratch");
    let mut matched: Vec<u32> = Vec::new();
    for kind in [FaultKind::FailStop, FaultKind::TornWrite] {
        for n in 1..=total_ops {
            let _ = fs::remove_dir_all(scratch.path());
            let fault = FaultIo::new();
            let mut idx =
                TieredIndex::open_with_io(scratch.path(), fault.clone()).expect("open faulted");
            idx.set_memtable_limit(8);
            fault.arm(fault.mutating_ops() + n, kind);
            let result = run_index_workload(&mut idx);
            assert!(result.is_err(), "{kind:?} at op {n} must surface an error");
            assert!(fault.crashed(), "{kind:?} at op {n} must have fired");
            drop(idx);

            // Reopen with real I/O: recovery (temp reaping, compaction
            // roll-forward, watermarked WAL replay) runs at open.
            let mut idx = TieredIndex::open(scratch.path()).expect("reopen after crash");
            let issues = idx.verify().expect("verify runs");
            assert!(
                issues.is_empty(),
                "{kind:?} at op {n}: verify found {issues:?}"
            );
            let got = index_fingerprint(&mut idx);
            let hits: Vec<u32> = (0..=INDEX_SWEEP_STEPS)
                .filter(|&k| expected[k as usize] == got)
                .collect();
            assert_eq!(
                hits.len(),
                1,
                "{kind:?} at op {n}: recovered state matches {} prefixes, want exactly 1:\n{got}",
                hits.len()
            );
            matched.push(hits[0]);
        }
    }
    // The sweep must observe real rollback (early prefixes) and real
    // durability (the full stream survives when the crash lands after the
    // last append).
    let min = *matched.iter().min().expect("nonempty sweep");
    let max = *matched.iter().max().expect("nonempty sweep");
    assert!(min < INDEX_SWEEP_STEPS, "no fault point ever rolled back");
    assert_eq!(
        max, INDEX_SWEEP_STEPS,
        "late fault points must preserve the whole acknowledged stream"
    );
}
