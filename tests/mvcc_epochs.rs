//! MVCC layout epochs: re-tiles never wait on scans.
//!
//! The contract under test: a re-tile commit publishes a new layout epoch
//! in bounded time — bounded by its own transcode I/O, never by in-flight
//! readers — while every reader pins the epoch it planned against and
//! reads it bit-exactly to completion. Retired epochs survive exactly as
//! long as their last reader; the moment it drains, their tile
//! packs and decoded-GOP cache entries are reclaimed, leaving
//! precisely the live epochs on disk with a clean `fsck`.

use proptest::run_cases;
use rand::Rng;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_codec::TileLayout;
use tasm_core::{
    EpochPin, LabelPredicate, PartitionConfig, Query, ScanResult, StorageConfig, Tasm, TasmConfig,
    TasmError,
};
use tasm_data::{SceneSpec, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_suite::assert_regions_identical;
use tasm_video::FrameSource;

const FRAMES: u32 = 20;

/// A bound generous enough for any transcode on CI yet far below "waits
/// for a reader that never drains" (which is forever).
const COMMIT_BOUND: Duration = Duration::from_secs(30);

fn scene() -> SyntheticVideo {
    SyntheticVideo::new(SceneSpec {
        width: 256,
        height: 160,
        frames: FRAMES,
        seed: 77,
        ..SceneSpec::test_scene()
    })
}

/// One SOT spanning the whole video, so the video-level epoch is the lone
/// SOT's retile count and every re-tile bumps it by exactly one.
fn open(tag: &str) -> (Arc<Tasm>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("tasm-mvcc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 10,
            sot_frames: FRAMES,
            ..Default::default()
        },
        partition: PartitionConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        workers: 1,
        cache_bytes: 64 << 20,
        ..Default::default()
    };
    let tasm = Arc::new(Tasm::open(&dir, Box::new(MemoryIndex::in_memory()), cfg).unwrap());
    (tasm, dir)
}

fn ingest(tasm: &Tasm, video: &SyntheticVideo) {
    tasm.ingest("v", video, 30).unwrap();
    for f in 0..video.len() {
        for (l, b) in video.ground_truth(f) {
            tasm.add_metadata("v", l, f, b).unwrap();
        }
        tasm.mark_processed("v", f).unwrap();
    }
}

fn full_query() -> Query {
    Query::new(LabelPredicate::label("car")).frames(0..FRAMES)
}

fn assert_result_matches(reference: &ScanResult, got: &ScanResult, what: &str) {
    let expected: Vec<_> = reference.regions.iter().collect();
    assert_regions_identical(&expected, &got.regions, what);
}

/// The pack naming contract of the storage layer (rc 0 is the unstamped
/// ingest epoch). Asserting on it here pins the on-disk format.
fn pack_name(start: u32, end: u32, rc: u32) -> String {
    if rc == 0 {
        format!("sot_{start:06}_{end:06}.tiles")
    } else {
        format!("sot_{start:06}_{end:06}_r{rc:06}.tiles")
    }
}

/// The `sot_*` packs present on disk for video `v`.
fn packs_on_disk(store_dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(store_dir.join("v"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("sot_"))
        .collect()
}

/// The packs a set of pinned epochs (plus the current manifest)
/// keeps alive.
fn expected_packs(tasm: &Tasm, pins: &[&EpochPin]) -> BTreeSet<String> {
    let mut dirs: BTreeSet<String> = tasm
        .manifest("v")
        .unwrap()
        .sots
        .iter()
        .map(|s| pack_name(s.start, s.end, s.retile_count))
        .collect();
    for pin in pins {
        dirs.extend(
            pin.manifest()
                .sots
                .iter()
                .map(|s| pack_name(s.start, s.end, s.retile_count)),
        );
    }
    dirs
}

/// Two layouts to alternate between; each switch is a real re-tile (a new
/// epoch with re-encoded tile bytes), so a writer can mint epochs forever.
fn alternating_layouts(tasm: &Tasm) -> [TileLayout; 2] {
    let tiled = tasm
        .kqko_layout("v", 0, &["car".to_string()])
        .unwrap()
        .expect("the test scene must produce a tiled KQKO layout");
    let m = tasm.manifest("v").unwrap();
    [tiled, TileLayout::untiled(m.width, m.height)]
}

/// The tentpole: a reader holds its epoch open for the whole test while a
/// writer thread re-tiles continuously. Every commit must land within
/// [`COMMIT_BOUND`] (the old reader-writer-lock design would block until
/// the pin dropped — i.e. forever), the pinned epoch must stay bit-exact
/// against a never-retiled twin throughout, and after the reader drains,
/// GC must leave exactly the live epochs on disk with a clean fsck.
#[test]
fn retile_commits_bounded_while_a_reader_pins_its_epoch() {
    let video = scene();
    let (twin, _twin_dir) = open("bounded-twin");
    ingest(&twin, &video);
    let reference = twin.query("v", &full_query()).unwrap();

    let (tasm, dir) = open("bounded");
    ingest(&tasm, &video);
    let e0 = tasm.current_epoch("v").unwrap();
    assert_eq!(e0, 0, "ingest is epoch zero");

    // The never-ending reader: pins epoch 0 and keeps it for the whole
    // torture run.
    let pin = tasm.pin_epoch("v", None).unwrap();
    assert_eq!(pin.epoch(), e0);

    // Writer thread: six full re-tile commits while the pin is held.
    let layouts = alternating_layouts(&tasm);
    let writer_tasm = Arc::clone(&tasm);
    let (tx, rx) = std::sync::mpsc::channel();
    let writer = std::thread::spawn(move || {
        for i in 0..6usize {
            let t0 = Instant::now();
            writer_tasm.retile("v", 0, layouts[i % 2].clone()).unwrap();
            tx.send((i, t0.elapsed())).unwrap();
        }
    });

    // Interleave: after every commit the writer reports, re-read the
    // pinned epoch and compare it bit for bit against the twin.
    for _ in 0..6 {
        let (i, commit_latency) = rx
            .recv_timeout(COMMIT_BOUND)
            .expect("a re-tile commit waited on a reader that never drains");
        assert!(
            commit_latency < COMMIT_BOUND,
            "commit {i} took {commit_latency:?}"
        );
        let pinned = tasm.query("v", &full_query().as_of(e0)).unwrap();
        assert_eq!(pinned.epoch, e0);
        assert_result_matches(
            &reference,
            &pinned,
            &format!("pinned epoch after {} commits", i + 1),
        );
    }
    writer.join().unwrap();

    // Six commits landed while the reader held epoch 0.
    assert_eq!(tasm.current_epoch("v").unwrap(), 6);
    // Intermediate epochs had no readers, so exactly the pinned epoch and
    // the current one are live.
    assert_eq!(tasm.live_epochs("v").unwrap(), vec![0, 6]);
    let held = expected_packs(&tasm, &[&pin]);
    assert_eq!(
        packs_on_disk(&dir),
        held,
        "disk must hold exactly the live epochs' packs"
    );

    // An unpinned epoch is not readable — it was reclaimed, not hidden.
    match tasm.query("v", &full_query().as_of(3)) {
        Err(TasmError::EpochNotLive {
            requested, current, ..
        }) => {
            assert_eq!((requested, current), (3, 6));
        }
        other => panic!("AS OF a reclaimed epoch must fail, got {other:?}"),
    }

    // The reader drains: epoch 0's packs are reclaimed on the spot.
    drop(pin);
    assert_eq!(tasm.live_epochs("v").unwrap(), vec![6]);
    assert_eq!(packs_on_disk(&dir), expected_packs(&tasm, &[]));
    assert!(
        tasm.query("v", &full_query().as_of(e0)).is_err(),
        "the drained epoch must no longer be readable"
    );

    // Post-drain results at the final epoch are still self-consistent...
    let after = tasm.query("v", &full_query()).unwrap();
    assert_eq!(after.epoch, 6);
    // ...and the store passes fsck with zero residue.
    let report = tasm.fsck().unwrap();
    assert!(report.is_clean(), "fsck after GC: {:?}", report.issues);
}

/// The regret daemon keeps re-tiling while a reader holds an epoch open:
/// the daemon must make progress (it no longer queues behind scans), the
/// held epoch stays bit-exact, and the drained store fscks clean.
#[test]
fn regret_daemon_retiles_while_a_scan_is_held_open() {
    let video = scene();
    let (twin, _twin_dir) = open("daemon-twin");
    ingest(&twin, &video);
    let reference = twin.query("v", &full_query()).unwrap();

    let (tasm, _dir) = open("daemon");
    ingest(&tasm, &video);
    let pin = tasm.pin_epoch("v", None).unwrap();
    let e0 = pin.epoch();

    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 4,
            queue_depth: 16,
            retile: RetilePolicy::Regret,
            retile_interval: Duration::from_millis(1),
            slow_query: None,
            ..Default::default()
        },
    );
    // Enough observations for the regret policy to cross its threshold.
    let handles: Vec<_> = (0..24)
        .map(|_| {
            service
                .submit(QueryRequest::scan(
                    "v",
                    LabelPredicate::label("car"),
                    0..FRAMES,
                ))
                .unwrap()
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert_eq!(stats.failed, 0);
    assert!(
        stats.retile_ops > 0,
        "the daemon must have committed a re-tile while the pin was held"
    );
    assert!(
        tasm.current_epoch("v").unwrap() > e0,
        "the daemon's commit must have advanced the epoch"
    );

    // The held epoch read the whole workload out bit-exactly.
    let pinned = tasm.query("v", &full_query().as_of(e0)).unwrap();
    assert_result_matches(&reference, &pinned, "pinned epoch under the regret daemon");

    drop(pin);
    assert_eq!(tasm.live_epochs("v").unwrap().len(), 1);
    let report = tasm.fsck().unwrap();
    assert!(
        report.is_clean(),
        "fsck after daemon run: {:?}",
        report.issues
    );
}

/// Property: under randomly interleaved readers, re-tilers, and pin drops,
/// (a) a pinned epoch is never reclaimed — its packs stay on disk
/// and `AS OF` re-reads it bit-identically to the snapshot taken when it
/// was current; (b) the moment an epoch's last reader drains it stops
/// being readable; (c) disk always holds exactly the live epochs.
#[test]
fn interleaved_readers_retilers_and_gc_never_reclaim_a_pinned_epoch() {
    let video = scene();
    let (tasm, dir) = open("prop");
    ingest(&tasm, &video);
    let layouts = alternating_layouts(&tasm);

    // Pinned epochs with the reference result recorded while each was
    // current ("a snapshot taken at epoch e").
    let mut pinned: Vec<(u64, EpochPin, ScanResult)> = Vec::new();
    let mut next_layout = 0usize;
    run_cases(60, proptest::seed_for("mvcc-interleave"), |rng| {
        match rng.gen_range(0u32..4) {
            // Re-tile: mint a new epoch.
            0 => {
                tasm.retile("v", 0, layouts[next_layout % 2].clone())
                    .unwrap();
                next_layout += 1;
            }
            // New reader: pin the current epoch and snapshot it.
            1 => {
                let pin = tasm.pin_epoch("v", None).unwrap();
                let snapshot = tasm.query("v", &full_query().as_of(pin.epoch())).unwrap();
                pinned.push((pin.epoch(), pin, snapshot));
            }
            // Reader re-reads a random pinned epoch: bit-identical to its
            // snapshot, and its packs are still on disk.
            2 => {
                if pinned.is_empty() {
                    return;
                }
                let (epoch, pin, snapshot) = &pinned[rng.gen_range(0..pinned.len())];
                let again = tasm.query("v", &full_query().as_of(*epoch)).unwrap();
                assert_eq!(again.epoch, *epoch);
                assert_result_matches(snapshot, &again, &format!("AS OF {epoch}"));
                let on_disk = packs_on_disk(&dir);
                for s in &pin.manifest().sots {
                    assert!(
                        on_disk.contains(&pack_name(s.start, s.end, s.retile_count)),
                        "pinned epoch {epoch} lost a pack"
                    );
                }
            }
            // Drop a random pin (GC). A drained non-current epoch must
            // stop being readable.
            _ => {
                if pinned.is_empty() {
                    return;
                }
                let (epoch, pin, _) = pinned.swap_remove(rng.gen_range(0..pinned.len()));
                drop(pin);
                let still_pinned = pinned.iter().any(|(e, ..)| *e == epoch);
                let current = tasm.current_epoch("v").unwrap();
                if !still_pinned && epoch != current {
                    assert!(
                        matches!(
                            tasm.query("v", &full_query().as_of(epoch)),
                            Err(TasmError::EpochNotLive { .. })
                        ),
                        "drained epoch {epoch} must be reclaimed"
                    );
                }
            }
        }
        // Invariant after every step: disk holds exactly the packs
        // of the live epochs (pinned ∪ current), nothing more or less.
        let pins: Vec<&EpochPin> = pinned.iter().map(|(_, p, _)| p).collect();
        assert_eq!(packs_on_disk(&dir), expected_packs(&tasm, &pins));
    });

    drop(pinned);
    assert_eq!(tasm.live_epochs("v").unwrap().len(), 1);
    let report = tasm.fsck().unwrap();
    assert!(report.is_clean(), "final fsck: {:?}", report.issues);
}

/// `AS OF` input validation: epochs that were never published are typed
/// errors, for queries and explicit pins alike, and the error reports the
/// current epoch so callers can recover.
#[test]
fn as_of_an_unknown_epoch_is_a_typed_error() {
    let video = scene();
    let (tasm, _dir) = open("unknown-epoch");
    ingest(&tasm, &video);
    match tasm.query("v", &full_query().as_of(41)) {
        Err(TasmError::EpochNotLive {
            video,
            requested,
            current,
        }) => {
            assert_eq!((video.as_str(), requested, current), ("v", 41, 0));
        }
        other => panic!("expected EpochNotLive, got {other:?}"),
    }
    assert!(tasm.pin_epoch("v", Some(41)).is_err());
    // The current epoch named explicitly is always pinnable.
    let pin = tasm.pin_epoch("v", Some(0)).unwrap();
    assert_eq!(pin.epoch(), 0);
}
