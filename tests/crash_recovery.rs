//! Crash-safety tests: the crash sweeps of `tasm_suite::crash` over the
//! store (ingest, re-tile, epoch GC), a manifest save, the tiered index and
//! a `cluster.json` save; then ingest cleanup, fsck, commit costs and
//! kill-and-reattach under a live query service. A store sweep's twin
//! state is one layout epoch — manifest, every tile's bytes and the
//! reference's answer to a full scan, which the store's own must equal —
//! with `fsck` clean and nothing in the video directory the manifest does
//! not name. The sweeps say nothing of file names or of the
//! order of operations, so they hold for any commit protocol.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fs;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tasm_cluster::{NodeInfo, ShardMap};
use tasm_codec::{TileLayout, TileVideo};
use tasm_core::durable::{FaultIo, FaultKind};
use tasm_core::{
    LabelPredicate, PartitionConfig, Query, RecoveryAction, StorageConfig, StoreError, Tasm,
    TasmConfig, VideoManifest, VideoStore,
};
use tasm_index::{MemoryIndex, SemanticIndex, TieredIndex, TreeError};
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_suite::crash::{sweep, until_error, Workload};
use tasm_suite::{Reference, TempDir};
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
/// files are laid out: the manifest, every tile's container bytes (outer
/// index = SOT) and a digest of the reference's answer to one full-window
/// scan, which the store's own scan must equal. Two stores in the same
/// layout epoch agree on all three.
#[derive(PartialEq)]
struct VideoState(VideoManifest, Vec<Vec<Vec<u8>>>, u64);

/// Reopens the store on real I/O — startup recovery runs — and holds it to
/// what every recovered store owes, whatever the commit protocol: `fsck` is
/// clean, and the video directory holds the manifest plus one entry per SOT
/// (everything in it is named by the manifest: no residue, no second
/// epoch); a video without a manifest is gone. Returns the video's state
/// (`None` when it does not exist) and what recovery did.
fn reopen_and_check(dir: &Path) -> (Option<VideoState>, Vec<RecoveryAction>) {
    let config = TasmConfig {
        storage: small_cfg(),
        ..Default::default()
    };
    let tasm = Tasm::open(dir, Box::new(MemoryIndex::in_memory()), config).expect("reopen");
    let tasm = Arc::new(tasm);
    let actions = tasm.recovery_report().actions.clone();
    assert!(!tasm.recovery_report().deferred, "lock still held");
    let fsck = tasm.fsck().expect("fsck runs");
    let issues = &fsck.issues;
    assert!(issues.is_empty(), "fsck found {issues:?} after {actions:?}");
    if !tasm.has_stored_video("v") {
        assert!(!dir.join("v").exists(), "a video with no manifest is gone");
        return (None, actions);
    }
    tasm.attach("v").expect("attach");
    let (manifest, tiles) = replica_of(tasm.store(), "v", "v");
    assert!(fsck.tiles_checked > 0, "nothing checked");
    let entries = entry_names(&dir.join("v"));
    assert_eq!(entries.len(), 1 + manifest.sots.len(), "{entries:?}");
    for frame in 0..manifest.frame_count {
        let bbox = Rect::new(8, 8, 48, 40);
        tasm.add_metadata("v", "patch", frame, bbox).expect("add");
        tasm.mark_processed("v", frame).expect("processed");
    }
    let patch = LabelPredicate::label("patch");
    let result = tasm.scan("v", &patch, 0..manifest.frame_count);
    let (result, pin) = (
        result.expect("scan"),
        tasm.pin_epoch("v", None).expect("pin"),
    );
    let whole = Query::new(patch).frames(0..manifest.frame_count);
    let expected = Reference::new(&tasm).answer(&pin, &whole);
    expected.check(result.matched, &result.regions, "the store's scan");
    assert_eq!(expected.regions.len() as u32, manifest.frame_count);
    let mut scan = DefaultHasher::new();
    for r in &expected.regions {
        (r.frame, Plane::ALL.map(|p| r.pixels.plane(p))).hash(&mut scan);
    }
    (Some(VideoState(manifest, tiles, scan.finish())), actions)
}

/// A store workload: `drive` runs the first `k` of its `ops` operations,
/// stopping at the first error, and returns how many were acknowledged and
/// attempted. What every recovery did is kept for the test to read.
struct Store {
    ops: u64,
    drive: fn(&VideoStore, u64) -> (u64, u64),
    actions: RefCell<Vec<RecoveryAction>>,
}

impl Workload for Store {
    type State = Option<VideoState>;

    fn run(&self, dir: &Path, io: Arc<FaultIo>) -> (u64, u64) {
        let store = VideoStore::open_with_io(dir, 0, 0, io).expect("open");
        (self.drive)(&store, self.ops)
    }

    fn open(&self, dir: &Path, io: Arc<FaultIo>) {
        let _ = VideoStore::open_with_io(dir, 0, 0, io);
    }

    fn recover(&self, dir: &Path) -> Self::State {
        let (state, actions) = reopen_and_check(dir);
        self.actions.borrow_mut().extend(actions);
        state
    }

    fn twin(&self, k: u64) -> Self::State {
        // `ops` tells the workloads' twins apart.
        let dir = temp_dir(&format!("twin-{}-{k}", self.ops));
        (self.drive)(&VideoStore::open(dir.path()).expect("open twin"), k);
        reopen_and_check(dir.path()).0
    }
}

fn ingest_untiled(store: &VideoStore, frames: u32) -> Result<VideoManifest, StoreError> {
    let layout = |_, _| TileLayout::untiled(64, 64);
    let src = test_source(frames);
    Ok(store.ingest("v", &src, 30, small_cfg(), layout)?.0)
}

/// An ingest of two untiled SOTs, a re-tile of SOT 0 to 4x4 with its
/// superseded epoch reclaimed at once, a second re-tile of SOT 0 — now
/// decoding sixteen tiles — to 2x2 with the reclaim deferred, then that
/// reclaim.
fn ingest_retile_retile_gc(store: &VideoStore, ops: u64) -> (u64, u64) {
    let (mut manifest, mut retired) = (None, None);
    until_error(ops, |i| {
        match i {
            0 => manifest = Some(ingest_untiled(store, 20)?),
            1 | 2 => {
                let n = [4, 2][i as usize - 1];
                let layout = TileLayout::uniform(64, 64, n, n).expect("layout");
                let manifest = manifest.as_mut().expect("ingested");
                retired = store.retile(manifest, 0, layout)?.1;
                if i == 1 {
                    store.gc_epoch("v", retired.expect("retired"))?;
                }
            }
            _ => store.gc_epoch("v", retired.expect("retired"))?,
        }
        Ok::<_, StoreError>(())
    })
}

/// A crash before the ingest publishes leaves no video, its directory
/// reaped; any later one leaves the twin's state at one of its epochs.
#[test]
fn a_crash_sweep_over_the_store_keeps_every_acknowledged_operation() {
    let w = Store {
        ops: 4,
        drive: ingest_retile_retile_gc,
        actions: RefCell::default(),
    };
    let sweep = sweep(&w);
    // Pinned exactly: ingest of two SOTs (7), a re-tile (6), a deferred
    // re-tile (4), the reclaim (2). A change to how durable writes are
    // issued must not add or drop a fault point.
    assert_eq!(sweep.points, 19, "ingest → re-tile → re-tile → GC");
    // The sweep crossed every publish point: before the ingest's, and on
    // both sides of each re-tile's.
    assert!((0..=3).all(|k| sweep.reached(k)));
    // Recoveries reaped the unpublished ingest and the epochs the
    // immediate and the deferred reclaim retire.
    let did = w.actions.take();
    let reclaimed = |epoch| RecoveryAction::ReclaimedEpoch {
        video: "v".into(),
        sot_start: 0,
        sot_end: 10,
        epoch,
    };
    let partial = RecoveryAction::RemovedPartialVideo { video: "v".into() };
    let want = [partial, reclaimed(0), reclaimed(1)];
    assert!(want.iter().all(|a| did.contains(a)), "{did:?}");
}

/// A crashed manifest save leaves the published manifest as it was or the
/// new one whole, its temp file reaped.
#[test]
fn a_crash_sweep_over_a_manifest_save_keeps_every_acknowledged_operation() {
    let drive = |store: &VideoStore, ops| {
        let mut manifest = None;
        until_error(ops, |_| {
            let Some(manifest) = manifest.as_mut() else {
                manifest = Some(ingest_untiled(store, 10)?);
                return Ok(());
            };
            manifest.fps = 60;
            store.save_manifest(manifest)
        })
    };
    let w = Store {
        ops: 2,
        drive,
        actions: RefCell::default(),
    };
    let sweep = sweep(&w);
    assert_eq!(sweep.points, 8, "an ingest of one SOT (6), then a save (2)");
    assert!(sweep.reached(1), "a crashed save keeps the old manifest");
    let (video, file) = ("v".into(), "manifest.json.tmp".into());
    let temp = RecoveryAction::RemovedTemp { video, file };
    assert!(w.actions.take().contains(&temp));
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
    let video = dir.path().join("v");
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
        entry_names(&video),
        ["manifest.json", "sot_000000_000010.tiles"]
    );
    let pack = video.join("sot_000000_000010.tiles");
    let original = fs::read(&pack).expect("pack bytes");
    let tile0 = 12 + 16 * 4;
    let manifest = store.load_manifest("v").expect("manifest");
    let served = store
        .read_tile(&manifest, 0, 0)
        .map(TileVideo::into_bytes)
        .expect("tile 0");
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
        store
            .read_tile(&manifest, 0, 0)
            .map(TileVideo::into_bytes)
            .expect("whole tile"),
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
    fs::write(video.join("notes.txt"), b"?").expect("stray");
    fs::write(video.join("commit_sot_000000_000010.json"), b"{").expect("stray");
    let report = store.fsck(&[]).expect("fsck");
    let strays = report
        .issues
        .iter()
        .filter(|i| matches!(i, FsckIssue::Stray { .. }))
        .count();
    assert_eq!(strays, 2, "both strays flagged, got {:?}", report.issues);

    // A *missing* pack is every one of its tiles missing.
    fs::remove_file(video.join("notes.txt")).expect("cleanup stray");
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
        storage: small_cfg(),
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
/// verify that it holds nothing the manifest does not name, that every
/// tile's bytes are those of a serially-driven twin brought to the same
/// per-SOT layouts, and that every post-recovery query is the reference's
/// answer.
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
    // tile must then be bit-identical.
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
                    .read_tile(&recovered_manifest, sot_idx, t)
                    .map(TileVideo::into_bytes)
                    .expect("recovered tile"),
                twin.store()
                    .read_tile(&twin_manifest, sot_idx, t)
                    .map(TileVideo::into_bytes)
                    .expect("twin tile"),
                "crash at op {crash_at}: SOT {sot_idx} tile {t}"
            );
        }
    }

    let recovered = Arc::new(recovered);
    let mut reference = Reference::new(&recovered);
    for label in ["car", "person"] {
        for window in [0u32..10, 10..20, 20..30, 30..40, 0..40] {
            let pred = LabelPredicate::label(label);
            let scan = recovered.scan("v", &pred, window.clone()).expect("scan");
            let what = format!("'{label}' over {window:?} after a crash at op {crash_at}");
            reference.check("v", &Query::new(pred).frames(window), &scan, &what);
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
                    .map(|t| {
                        store
                            .read_tile(&manifest, i, t)
                            .map(TileVideo::into_bytes)
                            .expect("tile")
                    })
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
        store
            .read_tile(&manifest, 1, 0)
            .map(TileVideo::into_bytes)
            .expect("tile")
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
    assert!(foreign.join("notes.tmp").exists(), "even a .tmp");
    // fsck still *flags* the unknown directory — it should not be in a
    // store — it just never deletes it.
    assert!(!store.fsck(&[]).expect("fsck").is_clean());
}

/// Re-tiles survive restart cleanly: no residue, no recovery actions, fsck
/// clean, one pack under the new epoch's name — the happy path of the
/// commit rule. A snapshot pinned before the re-tile reads the retired
/// epoch until GC, is typed `NotFound` after it, and GC is idempotent.
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
    let pinned = manifest.clone();
    let layout = TileLayout::uniform(64, 64, 2, 2).expect("layout");
    let retired = store.retile(&mut manifest, 0, layout).expect("retile").1;
    let retired = retired.expect("retired");
    assert!(store.read_tile(&pinned, 0, 0).is_ok(), "until GC");
    store.gc_epoch("v", retired).expect("gc");
    let gone = store.read_tile(&pinned, 0, 0);
    assert!(matches!(gone, Err(StoreError::NotFound(_))), "{gone:?}");
    store.gc_epoch("v", retired).expect("GC is idempotent");
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
/// fsync, the manifest's two, the store root's fsync), its SOTs encoded
/// serially or in parallel. A replica install
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
        // Serial, and with the SOTs encoded in parallel ("p1", ...).
        for (name, parallel_encode) in [(name.clone(), false), (format!("p{sots}"), true)] {
            let cfg = StorageConfig {
                gop_len: 5,
                sot_frames: 50 / sots,
                parallel_encode,
                ..Default::default()
            };
            let ingest_ops = ops(&mut || {
                store
                    .ingest(&name, &src, 30, cfg, |_, _| TileLayout::untiled(96, 80))
                    .expect("ingest");
            });
            assert_eq!(ingest_ops, u64::from(sots) + 5, "ingest of {name}");
        }
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
            retired = Some(
                store
                    .install_sot(&next, sot, &payload[sot])
                    .expect("install SOT"),
            );
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
                .map(|t| {
                    store
                        .read_tile(&manifest, sot, t)
                        .map(TileVideo::into_bytes)
                        .expect("tile")
                })
                .collect()
        })
        .collect();
    manifest.name = to.to_string();
    (manifest, tiles)
}

/// The index sweep's steps: each changes the logical state (distinct
/// detections, distinct processed frames), so no two prefixes of the
/// stream look alike.
const INDEX_STEPS: u64 = 64;

fn index_step(ix: &mut dyn SemanticIndex, i: u64) -> Result<(), TreeError> {
    let (i, label) = (i as u32, ["car", "person", "bus"][i as usize % 3]);
    match i % 7 {
        6 => ix.mark_processed(i % 2, i),
        _ => ix.add_metadata(i % 2, label, i * 3, Rect::new(i, i * 2, 16, 16)),
    }
}

/// What a semantic index says of the steps: every probe a planner could
/// make, and the counters.
fn index_fingerprint(ix: &mut dyn SemanticIndex) -> String {
    let frames = 0..INDEX_STEPS as u32 * 3 + 1;
    let mut out = format!("{}", ix.detection_count());
    for video in 0..2 {
        let labels = ix.labels(video);
        let processed = ix.processed_count(video, frames.clone());
        let all = ix.query_all(video, frames.clone());
        out += &format!(" {labels:?} {processed:?} {all:?}");
    }
    out
}

/// The tiered index, a flush after every fifth step and the last; a step is
/// acknowledged once a later flush returns `Ok`. A memtable limit of 8
/// puts run flushes and a compaction in the sweep, some after the last WAL
/// append. The twin is the in-memory index.
struct Index;

impl Workload for Index {
    type State = String;

    fn run(&self, dir: &Path, io: Arc<FaultIo>) -> (u64, u64) {
        let mut idx = TieredIndex::open_with_io(dir, io).expect("open");
        idx.set_memtable_limit(8);
        let mut acknowledged = 0;
        for i in 0..INDEX_STEPS {
            let flush = i % 5 == 4 || i == INDEX_STEPS - 1;
            if index_step(&mut idx, i).is_err() || (flush && idx.flush().is_err()) {
                return (acknowledged, i + 1);
            }
            acknowledged = if flush { i + 1 } else { acknowledged };
        }
        (acknowledged, INDEX_STEPS)
    }

    fn open(&self, dir: &Path, io: Arc<FaultIo>) {
        let _ = TieredIndex::open_with_io(dir, io);
    }

    fn recover(&self, dir: &Path) -> String {
        let mut idx = TieredIndex::open(dir).expect("reopen");
        let issues = idx.verify().expect("verify runs");
        assert!(issues.is_empty(), "verify found {issues:?}");
        index_fingerprint(&mut idx)
    }

    fn twin(&self, k: u64) -> String {
        let mut shadow = MemoryIndex::in_memory();
        (0..k).for_each(|i| index_step(&mut shadow, i).expect("twin step"));
        index_fingerprint(&mut shadow)
    }
}

/// WAL appends, run flushes, compactions and, when recovery crashes, its
/// rewrite of a torn WAL tail.
#[test]
fn a_crash_sweep_over_the_index_keeps_every_acknowledged_operation() {
    let sweep = sweep(&Index);
    // Pinned exactly, so a change to the shim under the index cannot
    // silently add or drop a fault point.
    assert_eq!(sweep.points, 65, "fault points of the index workload");
    // Real rollback, and real durability: the whole stream survives a
    // crash after the last append.
    let ks = || sweep.landed.iter().map(|l| l.k);
    assert!(ks().min() < Some(INDEX_STEPS), "no crash rolled back");
    assert_eq!(ks().max(), Some(INDEX_STEPS));
    assert!(sweep.landed.iter().any(|l| l.recovery_op.is_some()));
    let twins: HashSet<String> = (0..=INDEX_STEPS).map(|k| Index.twin(k)).collect();
    assert_eq!(twins.len() as u64, INDEX_STEPS + 1, "prefixes alike");
    let dir = temp_dir("index-runs");
    Index.run(dir.path(), FaultIo::new());
    let idx = TieredIndex::open(dir.path()).expect("open");
    assert!(idx.stats().run_count >= 2, "several runs");
}

/// A compaction publishes its merged run and then deletes the runs it
/// merged. When one of those deletions fails, the index returns the error,
/// but the live handle must still answer for every acknowledged detection,
/// as a reopen does: each mutating operation of twelve flushed adds, a run
/// each, fails in turn.
#[test]
fn a_failed_deletion_in_a_compaction_hides_no_acknowledged_detection() {
    const ADDS: u32 = 12;
    let run = |dir: &Path, io: Arc<FaultIo>| {
        let mut idx = TieredIndex::open_with_io(dir, io).ok()?;
        idx.set_memtable_limit(1);
        let mut acknowledged = Vec::new();
        for f in 0..ADDS {
            let bbox = Rect::new(f, 0, 8, 8);
            if idx.add_metadata(0, "car", f, bbox).is_ok() && idx.flush().is_ok() {
                acknowledged.push(f);
            }
        }
        Some((idx, acknowledged))
    };
    let missing = |idx: &mut TieredIndex, acknowledged: &[u32]| {
        let live = idx.query(0, "car", 0..ADDS).expect("query");
        let live: Vec<u32> = live.iter().map(|d| d.frame).collect();
        acknowledged.iter().filter(|f| !live.contains(f)).count()
    };
    let clean = FaultIo::new();
    let dir = temp_dir("compact-delete");
    let (idx, _) = run(dir.path(), clean.clone()).expect("open");
    assert!(idx.stats().run_count < ADDS as usize, "the runs compacted");
    for at in 1..=clean.mutating_ops() {
        let dir = temp_dir("compact-delete");
        let io = FaultIo::new();
        io.arm(at, FaultKind::Error);
        let Some((mut idx, acknowledged)) = run(dir.path(), io) else {
            continue; // the open failed: nothing was acknowledged
        };
        assert_eq!(missing(&mut idx, &acknowledged), 0, "live, op {at} failed");
        drop(idx);
        let mut reopened = TieredIndex::open(dir.path()).expect("reopen");
        assert_eq!(
            missing(&mut reopened, &acknowledged),
            0,
            "reopened, op {at} failed"
        );
    }
}

/// Two `cluster.json` saves, an old map then a new one. A map has no
/// recovery to crash: `load` only reads.
struct MapSaves([ShardMap; 2]);

impl Workload for MapSaves {
    type State = Option<ShardMap>;

    fn run(&self, dir: &Path, io: Arc<FaultIo>) -> (u64, u64) {
        let path = dir.join("cluster.json");
        until_error(2, |i| self.0[i as usize].save_with(&path, &*io))
    }

    fn open(&self, _: &Path, _: Arc<FaultIo>) {}

    fn recover(&self, dir: &Path) -> Option<ShardMap> {
        let path = dir.join("cluster.json");
        let map = path.exists().then(|| ShardMap::load(&path));
        map.map(|m| m.expect("a crashed save leaves a map that loads"))
    }

    fn twin(&self, k: u64) -> Option<ShardMap> {
        k.checked_sub(1).map(|i| self.0[i as usize].clone())
    }
}

#[test]
fn a_crash_sweep_over_a_map_save_keeps_every_acknowledged_operation() {
    let node = |i| NodeInfo {
        id: format!("n{i}"),
        addr: format!("127.0.0.1:{}", 7000 + i),
    };
    let old = ShardMap::new((0..3).map(node).collect(), 2).expect("map");
    let mut new = old.clone();
    new.pin("cam", vec!["n2".to_string(), "n0".to_string()]);
    let sweep = sweep(&MapSaves([old, new]));
    assert_eq!(sweep.points, 2 * 2, "two saves of two operations");
    assert!(sweep.reached(0) && sweep.reached(1));
}
