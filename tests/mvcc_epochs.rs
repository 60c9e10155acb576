//! MVCC layout epochs: re-tiles never wait on scans.
//!
//! The contract under test: a re-tile commit publishes a new layout epoch
//! in bounded time — bounded by its own transcode I/O, never by in-flight
//! readers — while every reader pins the epoch it planned against and
//! reads it bit-exactly to completion. Retired epochs survive exactly as
//! long as their last reader; the moment it drains, their tile
//! packs and decoded-GOP cache entries are reclaimed, leaving
//! precisely the live epochs on disk with a clean `fsck`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_codec::TileLayout;
use tasm_core::{EpochPin, LabelPredicate, Query, Tasm, TasmError, VideoManifest};
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_suite::{config, ingest, scene, Reference, TestStore};

const FRAMES: u32 = 20;

/// A bound generous enough for any transcode on CI yet far below "waits
/// for a reader that never drains" (which is forever).
const COMMIT_BOUND: Duration = Duration::from_secs(30);

/// The scene ingested into a store of one SOT spanning the whole video, so
/// the video-level epoch is the lone SOT's retile count and every re-tile
/// bumps it by exactly one.
fn open(tag: &str) -> TestStore {
    let mut cfg = config();
    cfg.storage.sot_frames = FRAMES;
    let tasm = TestStore::open(tag, cfg);
    ingest(&tasm, "v", &scene(256, 160, FRAMES, 77));
    tasm
}

fn full_query() -> Query {
    Query::new(LabelPredicate::label("car")).frames(0..FRAMES)
}

/// The packs a manifest reads through, named by the storage layer's
/// on-disk contract (rc 0 is the unstamped ingest epoch).
fn packs(manifest: &VideoManifest) -> impl Iterator<Item = String> + '_ {
    manifest.sots.iter().map(|s| match s.retile_count {
        0 => format!("sot_{:06}_{:06}.tiles", s.start, s.end),
        rc => format!("sot_{:06}_{:06}_r{rc:06}.tiles", s.start, s.end),
    })
}

/// The `sot_*` packs present on disk for video `v`.
fn packs_on_disk(store: &TestStore) -> BTreeSet<String> {
    std::fs::read_dir(store.dir.path().join("v"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("sot_"))
        .collect()
}

/// The packs the current manifest and a set of pinned epochs keep alive.
fn expected_packs(tasm: &Tasm, pins: &[&EpochPin]) -> BTreeSet<String> {
    let mut held: BTreeSet<String> = packs(&tasm.manifest("v").unwrap()).collect();
    for pin in pins {
        held.extend(packs(pin.manifest()));
    }
    held
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
/// the pin dropped — i.e. forever), the pinned epoch must stay the
/// reference's answer at it throughout, and after the reader drains,
/// GC must leave exactly the live epochs on disk with a clean fsck.
#[test]
fn retile_commits_bounded_while_a_reader_pins_its_epoch() {
    let tasm = open("mvcc-bounded");
    let e0 = tasm.current_epoch("v").unwrap();
    assert_eq!(e0, 0, "ingest is epoch zero");

    // The never-ending reader: pins epoch 0 and keeps it for the whole
    // torture run.
    let pin = tasm.pin_epoch("v", None).unwrap();
    assert_eq!(pin.epoch(), e0);
    let expected = Reference::new(&tasm).answer(&pin, &full_query());

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
    // pinned epoch and compare it bit for bit against the reference.
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
        expected.check(
            pinned.matched,
            &pinned.regions,
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
        packs_on_disk(&tasm),
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
    assert_eq!(packs_on_disk(&tasm), expected_packs(&tasm, &[]));
    assert!(
        tasm.query("v", &full_query().as_of(e0)).is_err(),
        "the drained epoch must no longer be readable"
    );

    // Post-drain answers at the final epoch are still the reference's...
    let after = tasm.query("v", &full_query()).unwrap();
    assert_eq!(after.epoch, 6);
    Reference::new(&tasm).check("v", &full_query(), &after, "after the drain");
    // ...and the store passes fsck with zero residue.
    let report = tasm.fsck().unwrap();
    assert!(report.is_clean(), "fsck after GC: {:?}", report.issues);
}

/// The regret daemon keeps re-tiling while a reader holds an epoch open:
/// the daemon must make progress (it no longer queues behind scans), the
/// held epoch stays bit-exact, and the drained store fscks clean.
#[test]
fn regret_daemon_retiles_while_a_scan_is_held_open() {
    let tasm = open("mvcc-daemon");
    let pin = tasm.pin_epoch("v", None).unwrap();
    let e0 = pin.epoch();
    let expected = Reference::new(&tasm).answer(&pin, &full_query());

    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 4,
            queue_depth: 16,
            retile: RetilePolicy::Regret,
            ..Default::default()
        },
    );
    // Enough observations for the regret policy to cross its threshold.
    let handles: Vec<_> = (0..24)
        .map(|_| {
            service
                .submit(QueryRequest::new(
                    "v",
                    Query::new(LabelPredicate::label("car")).frames(0..FRAMES),
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
    expected.check(
        pinned.matched,
        &pinned.regions,
        "pinned epoch under the regret daemon",
    );

    drop(pin);
    assert_eq!(tasm.live_epochs("v").unwrap().len(), 1);
    let report = tasm.fsck().unwrap();
    assert!(
        report.is_clean(),
        "fsck after daemon run: {:?}",
        report.issues
    );
}

/// `AS OF` input validation: epochs that were never published are typed
/// errors, for queries and explicit pins alike, and the error reports the
/// current epoch so callers can recover.
#[test]
fn as_of_an_unknown_epoch_is_a_typed_error() {
    let tasm = open("mvcc-unknown-epoch");
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
