//! The write path's bytes are a contract: ingest and re-tile must leave the
//! same files on disk whatever order the encoder visits frames and tiles
//! in, and whichever way `retile` hands decoded frames to it.
//!
//! Every tile digest below was computed on the per-tile encode loop (one
//! `frame(i)` per tile per frame, decoded SOTs composited into fresh frames)
//! and on a store that kept one file per tile. The tree digests are
//! FNV-1a-64 over each pack's store-relative path and bytes, in path order:
//! they pin the pack format and the files' names on top of the tiles.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_cluster::{apply_record, StagedSots};
use tasm_codec::{encode_video, pred, EncoderConfig, LayoutError, TileLayout, TileVideo};
use tasm_core::durable::{FaultIo, FaultKind};
use tasm_core::{
    LabelPredicate, Query, RetileStats, StorageConfig, StoreError, Tasm, TasmConfig, TasmError,
    VideoManifest, VideoStore,
};
use tasm_index::MemoryIndex;
use tasm_proto::ReplicationRecord;
use tasm_suite::{Reference, TempDir};
use tasm_video::{Frame, Plane, Rect, SliceSource, VecFrameSource};

const W: u32 = 384;
const H: u32 = 256;
/// Columns left of this are flat and static: the tile a store written by an
/// earlier build may hold as a lossless `Pred` tile.
const FLAT_W: u32 = 256;
const FRAMES: u32 = 12;
const GOP: u32 = 6;

fn hash3(x: u32, y: u32, t: u32) -> u32 {
    let mut v = x
        .wrapping_mul(0x9e37_79b1)
        .wrapping_add(y.wrapping_mul(0x85eb_ca6b))
        .wrapping_add(t.wrapping_mul(0xc2b2_ae35));
    v ^= v >> 15;
    v = v.wrapping_mul(0x2c1b_3c6d);
    v ^ (v >> 13)
}

/// Flat on the left, textured on the right with a band of fresh noise every
/// frame (the codec golden tests' split clip).
fn clip() -> VecFrameSource {
    let frames = (0..FRAMES)
        .map(|t| {
            let mut f = Frame::filled(W, H, 90, 120, 136);
            for y in 0..H {
                for x in FLAT_W..W {
                    let noisy = (64..128).contains(&y);
                    let v = (x * 5 + y * 3) % 160
                        + 40
                        + hash3(x, y, if noisy { t + 1 } else { 0 }) % 23;
                    f.set_sample(Plane::Y, x, y, v as u8);
                }
            }
            f
        })
        .collect();
    VecFrameSource::new(frames)
}

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("write-{tag}"))
}

fn cfg(parallel_encode: bool) -> StorageConfig {
    StorageConfig {
        gop_len: GOP,
        sot_frames: GOP,
        parallel_encode,
        ..Default::default()
    }
}

fn two_cols() -> TileLayout {
    TileLayout::new(vec![FLAT_W, W - FLAT_W], vec![H]).unwrap()
}

fn uneven() -> TileLayout {
    TileLayout::new(vec![FLAT_W, 64, 64], vec![192, 64]).unwrap()
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every regular file under `dir`, relative, sorted.
fn list_tree(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// Digest of every pack under `dir` (relative path, then bytes), in path
/// order. The manifest is left out: it records `parallel_encode`.
fn digest_tree(dir: &Path) -> u64 {
    list_tree(dir)
        .iter()
        .filter(|rel| rel.extension().is_some_and(|e| e == "tiles"))
        .fold(0xcbf2_9ce4_8422_2325, |h, rel| {
            let named = fnv1a(h, rel.to_string_lossy().as_bytes());
            fnv1a(named, &std::fs::read(dir.join(rel)).unwrap())
        })
}

/// The initial layouts: SOT 0 untiled, SOT 1 in two columns.
fn initial_layout(sot: usize) -> TileLayout {
    if sot == 0 {
        TileLayout::untiled(W, H)
    } else {
        two_cols()
    }
}

fn tile_codecs(manifest: &VideoManifest) -> Vec<Vec<u8>> {
    manifest
        .sots
        .iter()
        .map(|s| s.tile_codecs.clone())
        .collect()
}

/// Ingests the clip, then re-tiles SOT 0 from the untiled layout and again
/// from the tiled one, and SOT 1 from its two columns. Returns the packs'
/// digest and every SOT's `tile_codecs` after each of the four steps.
fn ingest_and_retile(tag: &str, cfg: StorageConfig) -> Vec<(u64, Vec<Vec<u8>>)> {
    let dir = temp_dir(tag);
    let store = VideoStore::open(dir.path()).unwrap();
    let (manifest, _) = store
        .ingest("v", &clip(), 30, cfg, |sot, _| initial_layout(sot))
        .unwrap();
    // Re-tile through a fresh handle and the manifest as it is on disk.
    drop(store);
    let store = VideoStore::open(dir.path()).unwrap();
    let mut manifest = {
        let on_disk = store.load_manifest("v").unwrap();
        assert_eq!(on_disk, manifest);
        on_disk
    };
    let video = dir.path().join("v");
    let mut steps = vec![(digest_tree(&video), tile_codecs(&manifest))];
    for (sot, layout) in [(0, two_cols()), (0, uneven()), (1, uneven())] {
        let (_, retired) = store.retile(&mut manifest, sot, layout).unwrap();
        store.gc_epoch("v", retired.unwrap()).unwrap();
        steps.push((digest_tree(&video), tile_codecs(&manifest)));
    }
    assert!(store.fsck(&[]).unwrap().is_clean());
    assert_eq!(manifest, store.load_manifest("v").unwrap());
    steps
}

/// After ingest / SOT 0 untiled→2 cols / SOT 0 2 cols→uneven / SOT 1 2
/// cols→uneven: (pack-tree digest, `tile_codecs` of SOT 0 and SOT 1).
type Step = (u64, [&'static [u8]; 2]);

const PINNED: [Step; 4] = [
    (0xe74194d7c99f7f66, [&[0], &[0, 0]]),
    (0xe177af8be8cfe0d6, [&[0, 0], &[0, 0]]),
    (0x49e5fa56c516011b, [&[0, 0, 0, 0, 0, 0], &[0, 0]]),
    (
        0x43af06948f8003b3,
        [&[0, 0, 0, 0, 0, 0], &[0, 0, 0, 0, 0, 0]],
    ),
];

/// Digest of the packs of the clip looped to `sots` two-frame SOTs,
/// alternately untiled and in two columns.
fn many_sots_digest(sots: usize, parallel_encode: bool) -> u64 {
    let dir = temp_dir(&format!("many-sots-{parallel_encode}"));
    let store = VideoStore::open(dir.path()).unwrap();
    let frames = clip().frames().to_vec();
    let looped = (0..2 * sots).map(|i| frames[i % frames.len()].clone());
    let cfg = StorageConfig {
        gop_len: 2,
        sot_frames: 2,
        parallel_encode,
        ..Default::default()
    };
    store
        .ingest(
            "v",
            &VecFrameSource::new(looped.collect()),
            30,
            cfg,
            |sot, _| initial_layout(sot % 2),
        )
        .unwrap();
    digest_tree(&dir.path().join("v"))
}

#[test]
fn ingest_and_retile_files_are_pinned() {
    let serial = ingest_and_retile("pin-serial", cfg(false));
    let parallel = ingest_and_retile("pin-parallel", cfg(true));
    assert_eq!(serial, parallel, "parallel encode moved bytes");
    // Enough SOTs that some thread encodes more than one.
    let sots = std::thread::available_parallelism().map_or(1, |n| n.get()) + 2;
    assert_eq!(
        many_sots_digest(sots, false),
        many_sots_digest(sots, true),
        "parallel encode of {sots} SOTs moved bytes"
    );
    let same = serial.len() == PINNED.len()
        && serial
            .iter()
            .zip(&PINNED)
            .all(|(g, w)| g.0 == w.0 && g.1.iter().map(Vec::as_slice).eq(w.1.iter().copied()));
    if !same {
        let rows: String = serial
            .iter()
            .map(|(digest, codecs)| {
                format!(
                    "    ({digest:#018x}, [&{:?}, &{:?}]),\n",
                    codecs[0], codecs[1]
                )
            })
            .collect();
        panic!("write-path digests moved; this build produces:\n{rows}");
    }
}

/// Digest of what the store serves for `manifest`, file layout aside: every
/// tile's container bytes as `read_tile` serves them, keyed by SOT
/// and raster index, then each SOT's `tile_codecs`.
fn digest_tiles(store: &VideoStore, manifest: &VideoManifest) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (i, sot) in manifest.sots.iter().enumerate() {
        for t in 0..sot.layout.tile_count() {
            h = fnv1a(h, &[i as u8, t as u8]);
            h = fnv1a(
                h,
                &store
                    .read_tile(manifest, i, t)
                    .map(TileVideo::into_bytes)
                    .unwrap(),
            );
        }
        h = fnv1a(h, &sot.tile_codecs);
    }
    h
}

/// [`digest_tiles`] after ingest and after each of four re-tiles: SOT 0
/// untiled→2 cols→uneven, SOT 1 2 cols→uneven→2 cols. Computed on the store
/// that kept one file per tile; how tiles are filed on disk must never move
/// them.
const TILES_PINNED: [u64; 5] = [
    0xed3d921ce2bda0e2,
    0xa696ed0b9b04e7ab,
    0x2aaca36b3c1b7d71,
    0xe6fabd5aa440d1a3,
    0x502e88b79a147254,
];

/// The bytes behind `read_tile` are the contract replication, `fsck`
/// and every decode rest on. Ingest, four re-tiles, and beside them a
/// replica that receives the ingested video whole and each re-tile as the
/// next epoch of its SOT: both serve the pinned bytes at every step.
#[test]
fn tiles_served_after_ingest_retile_and_replica_install_are_pinned() {
    let (dir, replica_dir) = (temp_dir("tiles"), temp_dir("tiles-replica"));
    let store = VideoStore::open(dir.path()).unwrap();
    let replica = VideoStore::open(replica_dir.path()).unwrap();
    let (mut manifest, _) = store
        .ingest("v", &clip(), 30, cfg(false), |sot, _| initial_layout(sot))
        .unwrap();
    let payload = |manifest: &VideoManifest, sot: usize| -> Vec<Vec<u8>> {
        (0..manifest.sots[sot].layout.tile_count())
            .map(|t| {
                store
                    .read_tile(manifest, sot, t)
                    .map(TileVideo::into_bytes)
                    .unwrap()
            })
            .collect()
    };
    let whole: Vec<_> = (0..manifest.sots.len())
        .map(|sot| payload(&manifest, sot))
        .collect();
    replica.install_video(&manifest, &whole).unwrap();
    let mut steps = vec![digest_tiles(&store, &manifest)];
    assert_eq!(digest_tiles(&replica, &manifest), steps[0]);
    for (sot, layout) in [
        (0, two_cols()),
        (0, uneven()),
        (1, uneven()),
        (1, two_cols()),
    ] {
        let (_, retired) = store.retile(&mut manifest, sot, layout).unwrap();
        store.gc_epoch("v", retired.unwrap()).unwrap();
        let retired = replica.install_sot(&manifest, sot, &payload(&manifest, sot));
        replica.gc_epoch("v", retired.unwrap()).unwrap();
        let digest = digest_tiles(&store, &manifest);
        assert_eq!(digest_tiles(&replica, &manifest), digest);
        steps.push(digest);
    }
    for s in [&store, &replica] {
        assert!(s.fsck(&[]).unwrap().is_clean());
        assert_eq!(s.load_manifest("v").unwrap(), manifest);
    }
    assert!(
        steps == TILES_PINNED,
        "served tile digests moved; this build produces:\n{steps:#018x?}"
    );
}

/// Every counter of one re-tile's [`RetileStats`], times left out: decode
/// (`frames_decoded`, `samples_decoded`, `tile_chunks_decoded`,
/// `bytes_read`, `blocks_decoded`), then encode (`frames_encoded`,
/// `samples_encoded`, `bytes_produced`).
fn retile_counts(s: &RetileStats) -> [u64; 8] {
    let (d, e) = (&s.decode, &s.encode);
    [
        d.frames_decoded,
        d.samples_decoded,
        d.tile_chunks_decoded,
        d.bytes_read,
        d.blocks_decoded,
        e.frames_encoded,
        e.samples_encoded,
        e.bytes_produced,
    ]
}

/// [`retile_counts`] of the four re-tiles of
/// [`tiles_served_after_ingest_retile_and_replica_install_are_pinned`]:
/// SOT 0 untiled→2 cols→uneven, SOT 1 2 cols→uneven→2 cols.
const RETILE_COUNTS_PINNED: [[u64; 8]; 4] = [
    [6, 884736, 6, 35369, 13824, 12, 884736, 35700],
    [12, 884736, 12, 35582, 13824, 36, 884736, 36378],
    [12, 884736, 12, 35078, 13824, 36, 884736, 35894],
    [36, 884736, 36, 35540, 13824, 12, 884736, 35935],
];

/// A re-tile's accounting is part of its contract: the cost model and the
/// ledger read it. Decoding the old tiles and encoding the new ones count
/// the same work whichever way the frames travel between them, serial or
/// parallel.
#[test]
fn retile_stats_are_pinned_serial_and_parallel() {
    for parallel in [false, true] {
        let dir = temp_dir(&format!("retile-stats-{parallel}"));
        let store = VideoStore::open(dir.path()).unwrap();
        let (mut manifest, _) = store
            .ingest("v", &clip(), 30, cfg(parallel), |sot, _| {
                initial_layout(sot)
            })
            .unwrap();
        let counts: Vec<[u64; 8]> = [
            (0, two_cols()),
            (0, uneven()),
            (1, uneven()),
            (1, two_cols()),
        ]
        .into_iter()
        .map(|(sot, layout)| retile_counts(&store.retile(&mut manifest, sot, layout).unwrap().0))
        .collect();
        assert!(
            counts == RETILE_COUNTS_PINNED,
            "re-tile counts moved (parallel: {parallel}); this build produces:\n{counts:?}"
        );
    }
}

/// SOT 1's flat column.
fn flat_column() -> Rect {
    Rect::new(0, 0, FLAT_W, H)
}

/// What a peer running an earlier build ships: the clip ingested under
/// [`initial_layout`], with SOT 1's flat column the lossless `Pred` tile
/// that build's `Auto` size trial kept there and the manifest recording
/// it. Returns the manifest and every SOT's tile payloads; `tag` names the
/// scratch store it is built in.
fn older_peer_video(tag: &str) -> (VideoManifest, Vec<Vec<Vec<u8>>>) {
    let dir = temp_dir(tag);
    let store = VideoStore::open(dir.path()).unwrap();
    let (mut manifest, _) = store
        .ingest("v", &clip(), 30, cfg(false), |sot, _| initial_layout(sot))
        .unwrap();
    let mut sots: Vec<Vec<Vec<u8>>> = (0..manifest.sots.len())
        .map(|sot| {
            (0..manifest.sots[sot].layout.tile_count())
                .map(|t| {
                    store
                        .read_tile(&manifest, sot, t)
                        .map(TileVideo::into_bytes)
                        .unwrap()
                })
                .collect()
        })
        .collect();
    let clip = clip();
    let sot1 = SliceSource::new(&clip, GOP, GOP);
    sots[1][0] = pred::encode_tile(&sot1, flat_column(), GOP).into_bytes();
    manifest.sots[1].tile_codecs = vec![1, 0];
    (manifest, sots)
}

/// [`digest_tiles`] of the older peer's video once SOT 1 is re-tiled to
/// [`uneven`]. Computed first on the last build that had the `Auto` size
/// trial, re-tiling the same store with its DCT-only setting.
const PRED_RETILED_PINNED: u64 = 0x288bc71187f1dde4;

/// Asserts that ROI, stride and whole-video queries over both labels of
/// [`pred_tiles_from_an_older_peer_are_served_and_retile_to_dct`] answer,
/// bit for bit, what the reference holds at the current epoch.
fn assert_queries_match_the_reference(tasm: &Arc<Tasm>, when: &str) {
    let all = Query::new(LabelPredicate::any_of(&["flat", "edge"])).frames(0..FRAMES);
    let mut reference = Reference::new(tasm);
    for (what, q) in [
        ("whole video", all.clone()),
        ("flat column", all.clone().roi(flat_column())),
        ("stride 4", all.stride(4)),
    ] {
        let result = tasm.query("v", &q).unwrap();
        reference.check("v", &q, &result, &format!("{when}: {what}"));
    }
}

/// A `Pred` tile from an older peer stays served. Installed whole through
/// `apply_replicated_video`, queries over it return the source's pixels
/// exactly (the codec is lossless), as does the reference, which pins the
/// reference itself to ground truth; `fsck` accepts it. A re-tile of its
/// SOT writes DCT tiles only. Before and after, queries answer what the
/// reference holds at the current epoch, bit for bit.
#[test]
fn pred_tiles_from_an_older_peer_are_served_and_retile_to_dct() {
    let root = temp_dir("pred-served");
    let tasm = Tasm::open(
        root.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .map(Arc::new)
    .unwrap();
    let (manifest, sots) = older_peer_video("pred-served-peer");
    tasm.apply_replicated_video(manifest, &sots).unwrap();
    assert!(tasm.fsck().unwrap().is_clean());
    // One box inside the flat column, one across both columns.
    for f in 0..FRAMES {
        tasm.add_metadata("v", "flat", f, Rect::new(32 + 4 * f, 48, 64, 32))
            .unwrap();
        tasm.add_metadata("v", "edge", f, Rect::new(FLAT_W - 32, 96, 64, 48))
            .unwrap();
        tasm.mark_processed("v", f).unwrap();
    }

    let clip = clip();
    let flat = Query::new(LabelPredicate::label("flat")).frames(GOP..FRAMES);
    let served = tasm.query("v", &flat).unwrap();
    let installed = tasm.pin_epoch("v", None).unwrap();
    let expected = Reference::new(&tasm).answer(&installed, &flat);
    assert_eq!(served.regions.len(), GOP as usize);
    assert_eq!(expected.regions.len(), GOP as usize);
    for (r, e) in served.regions.iter().zip(&expected.regions) {
        let truth = clip.frames()[r.frame as usize].crop(r.rect);
        assert_eq!(r.pixels, truth, "served, frame {}", r.frame);
        assert_eq!((e.frame, e.rect), (r.frame, r.rect));
        assert_eq!(e.pixels, truth, "the reference, frame {}", e.frame);
    }
    drop(installed);
    assert_queries_match_the_reference(&tasm, "as installed");

    tasm.retile("v", 1, uneven()).unwrap();
    let retiled = tasm.manifest("v").unwrap();
    assert_eq!(tile_codecs(&retiled), [vec![0], vec![0; 6]]);
    let digest = digest_tiles(tasm.store(), &retiled);
    assert_eq!(digest, PRED_RETILED_PINNED, "{digest:#018x}");
    assert!(tasm.fsck().unwrap().is_clean());
    assert_queries_match_the_reference(&tasm, "re-tiled");
}

/// Manifests written by earlier builds record a codec choice in their
/// storage config: `"codec"` as `Auto`, `Pred` or `Dct`, or no key before
/// it existed. Each loads, from a peer and from disk, installs through
/// `apply_replicated_video`, and re-tiles to DCT tiles. The manifests this
/// build writes carry no `codec` key.
#[test]
fn older_manifests_load_install_and_retile_to_dct() {
    let (manifest, sots) = older_peer_video("older-peer");
    let json = serde_json::to_string_pretty(&manifest).unwrap();
    assert!(!json.contains("\"codec\""), "{json}");
    let last = "\"parallel_encode\": false";
    let at = json.find(last).expect("the storage config's last field") + last.len();
    for codec in ["Auto", "Pred", "Dct", ""] {
        let older = match codec {
            "" => json.clone(),
            _ => format!(
                "{},\n    \"codec\": \"{codec}\"{}",
                &json[..at],
                &json[at..]
            ),
        };
        let from_peer: VideoManifest = serde_json::from_str(&older).unwrap();
        assert_eq!(from_peer, manifest, "{codec:?}");

        let root = temp_dir(&format!("older-{codec}"));
        let open = || {
            Tasm::open(
                root.path(),
                Box::new(MemoryIndex::in_memory()),
                TasmConfig::default(),
            )
            .unwrap()
        };
        let tasm = open();
        tasm.apply_replicated_video(from_peer, &sots).unwrap();
        // The manifest file as the earlier build wrote it.
        let path = root.path().join("v").join("manifest.json");
        std::fs::write(&path, &older).unwrap();
        assert_eq!(tasm.store().load_manifest("v").unwrap(), manifest);
        drop(tasm);

        let tasm = open();
        tasm.attach("v").unwrap();
        assert_eq!(tasm.manifest("v").unwrap(), manifest, "{codec:?}");
        tasm.retile("v", 1, uneven()).unwrap();
        let retiled = tasm.manifest("v").unwrap();
        assert_eq!(tile_codecs(&retiled), [vec![0], vec![0; 6]], "{codec:?}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(!written.contains("\"codec\""), "{codec:?}: {written}");
        assert!(tasm.fsck().unwrap().is_clean(), "{codec:?}");
    }
}

/// The default is one DCT encode per tile, nothing else: a store opened
/// with the default config records codec 0 (`Dct`) for every tile and
/// writes, byte for byte, the containers `encode_video` makes with the
/// default encoder settings spelled out — on the clip whose flat tile an
/// earlier build's size trial stored losslessly.
#[test]
fn a_default_ingest_records_dct_and_writes_what_an_explicit_dct_ingest_writes() {
    let root = temp_dir("default");
    let tasm = Tasm::open(
        root.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    tasm.ingest_with("v", &clip(), 30, |_, _| two_cols())
        .unwrap();
    let manifest = tasm.store().load_manifest("v").unwrap();
    assert_eq!(manifest, tasm.manifest("v").unwrap());
    assert_eq!(tile_codecs(&manifest), [[0, 0]]);
    let stored: Vec<Vec<u8>> = (0..2)
        .map(|t| {
            tasm.store()
                .read_tile(&manifest, 0, t)
                .map(TileVideo::into_bytes)
                .unwrap()
        })
        .collect();

    let storage = StorageConfig::default();
    let explicit = EncoderConfig {
        gop_len: storage.gop_len,
        qp: storage.qp,
        search_range: storage.search_range,
        deblock: storage.deblock,
        rate: storage.rate,
    };
    let (tiles, _) = encode_video(&clip(), &two_cols(), &explicit).unwrap();
    let encoded: Vec<Vec<u8>> = tiles.into_iter().map(TileVideo::into_bytes).collect();
    assert!(stored == encoded, "the default ingest's tiles moved");
}

/// A source the tile grid cannot hold (dimensions not multiples of
/// `TILE_ALIGN`), a config whose SOTs are not whole GOPs, a QP the
/// quantizer has no step for, a layout that does not cover the frame in a
/// middle SOT and a pack write that fails there are each refused with a
/// typed error, and leave nothing on disk — the first three used to panic,
/// the first and last of those after the video directory existed — and
/// the name stays usable. Serial and with the SOTs encoded in parallel.
#[test]
fn unaligned_sources_and_bad_configs_are_typed_errors_that_leave_nothing_behind() {
    for parallel_encode in [false, true] {
        refuse_and_leave_nothing(parallel_encode);
    }
}

fn refuse_and_leave_nothing(parallel_encode: bool) {
    let root = temp_dir(&format!("refused-{parallel_encode}"));
    let good = StorageConfig {
        parallel_encode,
        ..Default::default()
    };
    let open = |storage| {
        let config = TasmConfig {
            storage,
            ..Default::default()
        };
        Tasm::open(root.path(), Box::new(MemoryIndex::in_memory()), config).unwrap()
    };
    let tasm = open(good);
    let empty_store = list_tree(root.path());
    let unaligned = VecFrameSource::new(vec![Frame::filled(100, 100, 90, 128, 128); 2]);
    assert!(matches!(
        tasm.ingest("v", &unaligned, 30),
        Err(TasmError::Store(StoreError::Layout(
            LayoutError::Misaligned { dim: 100 }
        )))
    ));

    let untiled = |_: usize, _: std::ops::Range<u32>| TileLayout::untiled(W, H);
    // A source with no frames is not a video (a manifest of zero SOTs
    // would satisfy every scan and re-tile).
    let clip_frames = clip();
    let no_frames = SliceSource::new(&clip_frames, 0, 0);
    assert!(matches!(
        tasm.ingest("v", &no_frames, 30),
        Err(TasmError::Store(StoreError::InvalidConfig(
            "source has no frames"
        )))
    ));
    assert!(matches!(
        tasm.store().ingest("v", &no_frames, 30, good, untiled),
        Err(StoreError::InvalidConfig("source has no frames"))
    ));

    for bad in bad_configs() {
        let bad = StorageConfig {
            parallel_encode,
            ..bad
        };
        assert!(
            matches!(
                tasm.store().ingest("v", &clip(), 30, bad, untiled),
                Err(StoreError::InvalidConfig(_))
            ),
            "{bad:?}"
        );
        // The facade ingests with the config it was opened with.
        assert!(
            matches!(
                open(bad).ingest("v", &clip(), 30),
                Err(TasmError::Store(StoreError::InvalidConfig(_)))
            ),
            "{bad:?}"
        );
    }

    // Four SOTs, the third of them refused.
    let four_sots = StorageConfig {
        gop_len: 3,
        sot_frames: 3,
        ..good
    };
    let third_too_narrow = |sot: usize, _: std::ops::Range<u32>| match sot {
        2 => TileLayout::untiled(FLAT_W, H),
        _ => TileLayout::untiled(W, H),
    };
    assert!(matches!(
        tasm.store()
            .ingest("v", &clip(), 30, four_sots, third_too_narrow),
        Err(StoreError::Layout(LayoutError::CoverageMismatch {
            expected: W,
            got: FLAT_W
        }))
    ));
    let faulty_root = temp_dir(&format!("refused-io-{parallel_encode}"));
    let io = FaultIo::new();
    let faulty = VideoStore::open_with_io(faulty_root.path(), 0, 0, io.clone()).unwrap();
    let empty_faulty = list_tree(faulty_root.path());
    // The video directory, two packs, then the third pack's write.
    io.arm(io.mutating_ops() + 4, FaultKind::Error);
    assert!(matches!(
        faulty.ingest("v", &clip(), 30, four_sots, untiled),
        Err(StoreError::Io(e)) if e.to_string().contains("injected")
    ));
    assert_eq!(list_tree(faulty_root.path()), empty_faulty);
    faulty.ingest("v", &clip(), 30, four_sots, untiled).unwrap();
    assert!(faulty.fsck(&[]).unwrap().is_clean());

    assert_eq!(list_tree(root.path()), empty_store);
    assert!(!root.path().join("v").exists());
    assert!(tasm.fsck().unwrap().is_clean());
    assert!(!tasm.has_stored_video("v"));

    tasm.ingest("v", &clip(), 30).unwrap();
    assert_eq!(tasm.manifest("v").unwrap().frame_count, FRAMES);
    assert!(tasm.fsck().unwrap().is_clean());
}

/// Ingests the clip as "v" — DCT, untiled — and returns its manifest and
/// every SOT's one tile file: the payload a peer would replicate.
fn ingest_untiled_v(tasm: &Tasm) -> (VideoManifest, Vec<Vec<Vec<u8>>>) {
    let storage = cfg(false);
    let (manifest, _) = tasm
        .store()
        .ingest("v", &clip(), 30, storage, |_, _| TileLayout::untiled(W, H))
        .unwrap();
    let tiles = (0..manifest.sots.len())
        .map(|sot| {
            vec![tasm
                .store()
                .read_tile(&manifest, sot, 0)
                .map(TileVideo::into_bytes)
                .unwrap()]
        })
        .collect();
    (manifest, tiles)
}

/// Configs the codec or the executor would panic on: SOTs that are not whole
/// GOPs, no GOP at all, a QP past the quantizer's table.
fn bad_configs() -> Vec<StorageConfig> {
    [
        (28, 30, 45),
        (28, 30, 0),
        (28, 0, 30),
        (28, 0, 0),
        (52, 30, 30),
        (60, 6, 6),
    ]
    .into_iter()
    .map(|(qp, gop_len, sot_frames)| StorageConfig {
        qp,
        gop_len,
        sot_frames,
        ..Default::default()
    })
    .collect()
}

/// A manifest carries its video's config, and arrives from peers and from
/// disk: one the store would divide by zero or panic on (at the first query,
/// at the next re-tile) is a typed error from every entry point before a
/// byte lands, and a manifest file holding one does not load.
#[test]
fn out_of_range_configs_in_manifests_are_refused_from_peers_and_disk() {
    let root = temp_dir("peer-config");
    let tasm = Tasm::open(
        root.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let (manifest, tiles) = ingest_untiled_v(&tasm);
    tasm.attach("v").unwrap();
    let before = (list_tree(root.path()), digest_tree(root.path()));

    for bad in bad_configs() {
        // As a new video, as a rewrite of one it holds, and as a newer
        // epoch of one SOT.
        for name in ["w", "v"] {
            let mut hostile = VideoManifest {
                name: name.to_string(),
                config: bad,
                ..manifest.clone()
            };
            hostile.sots[0].retile_count += 1;
            let json = serde_json::to_vec_pretty(&hostile).unwrap();

            let mut staged = StagedSots::new();
            for (sot, t) in tiles.iter().enumerate() {
                staged.stage(name, sot as u32, t.clone());
            }
            let commit = ReplicationRecord::CommitVideo {
                epoch: 0,
                video: name.to_string(),
                manifest: json.clone(),
            };
            let err = apply_record(&tasm, &mut staged, commit).unwrap_err();
            assert!(err.contains("invalid storage config"), "{bad:?}: {err}");

            let store = tasm.store();
            let invalid =
                |r: Result<(), StoreError>| matches!(r, Err(StoreError::InvalidConfig(_)));
            assert!(invalid(store.install_video(&hostile, &tiles)), "{bad:?}");
            assert!(
                invalid(store.install_sot(&hostile, 0, &tiles[0]).map(|_| ())),
                "{bad:?}"
            );
        }
        let mut hostile = VideoManifest {
            config: bad,
            ..manifest.clone()
        };
        hostile.sots[0].retile_count += 1;
        let mut staged = StagedSots::new();
        staged.stage("v", 0, tiles[0].clone());
        let commit = ReplicationRecord::CommitSot {
            epoch: 1,
            video: "v".to_string(),
            sot_idx: 0,
            manifest: serde_json::to_vec_pretty(&hostile).unwrap(),
        };
        let err = apply_record(&tasm, &mut staged, commit).unwrap_err();
        assert!(err.contains("invalid storage config"), "{bad:?}: {err}");
    }
    assert_eq!(before, (list_tree(root.path()), digest_tree(root.path())));
    assert!(tasm.fsck().unwrap().is_clean());
    // The video the store holds still answers, and a sound manifest from a
    // peer still lands.
    tasm.apply_replicated_video(manifest.clone(), &tiles)
        .unwrap();
    assert!(tasm.fsck().unwrap().is_clean());

    // A manifest file that holds such a config (written by hand, or by a
    // build from before configs were checked) does not load: the video
    // does not attach, and fsck names it.
    let path = root.path().join("v").join("manifest.json");
    let sound = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, sound.replace("\"gop_len\": 6", "\"gop_len\": 0")).unwrap();
    assert!(matches!(
        tasm.store().load_manifest("v"),
        Err(StoreError::InvalidConfig(_))
    ));
    drop(tasm);
    let reopened = Tasm::open(
        root.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    assert!(matches!(
        reopened.attach("v"),
        Err(TasmError::Store(StoreError::InvalidConfig(_)))
    ));
    assert!(!reopened.fsck().unwrap().is_clean());
    std::fs::write(&path, sound).unwrap();
    reopened.attach("v").unwrap();
    assert!(reopened.fsck().unwrap().is_clean());
}

/// One untiled DCT tile container of the clip's first `frames` frames,
/// cropped to `w`×`h`, in GOPs of `gop_len`.
fn tile_container(w: u32, h: u32, frames: usize, gop_len: u32) -> Vec<u8> {
    let src = VecFrameSource::new(
        clip().frames()[..frames]
            .iter()
            .map(|f| f.crop(Rect::new(0, 0, w, h)))
            .collect(),
    );
    let cfg = EncoderConfig {
        gop_len,
        ..Default::default()
    };
    let (mut tiles, _) = encode_video(&src, &TileLayout::untiled(w, h), &cfg).unwrap();
    tiles.swap_remove(0).into_bytes()
}

/// A peer's tile payload is a container of its own: one that parses but is
/// the wrong size, length or GOP structure for the slot its manifest gives
/// it would be served clipped (`Frame::blit` does not complain) until
/// someone ran `fsck`. Every install path holds it to `fsck`'s comparisons
/// first: a typed error, nothing written.
#[test]
fn replicated_tiles_that_disagree_with_their_manifest_slot_are_refused() {
    let root = temp_dir("peer-tiles");
    let tasm = Tasm::open(
        root.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let (manifest, tiles) = ingest_untiled_v(&tasm);
    tasm.attach("v").unwrap();
    // What a peer sends after re-tiling SOT 0: the next epoch of it.
    let mut next = manifest.clone();
    next.sots[0].retile_count += 1;
    let json = serde_json::to_vec_pretty(&next).unwrap();
    let before = (list_tree(root.path()), digest_tree(root.path()));

    let sot_frames = GOP as usize;
    assert_eq!(tile_container(W, H, sot_frames, GOP), tiles[0][0]);
    for (bad, why) in [
        (
            tile_container(FLAT_W, H, sot_frames, GOP),
            "container is 256x256, layout rect is 384x256",
        ),
        (
            tile_container(W, H, sot_frames - 1, GOP),
            "container holds 5 frames, SOT spans 6",
        ),
        (
            tile_container(W, H, sot_frames, GOP / 2),
            "container GOP length 3 vs configured 6",
        ),
    ] {
        let sot0 = vec![bad];
        // As the next epoch of a SOT the store holds.
        let mut staged = StagedSots::new();
        let stage = ReplicationRecord::StageSot {
            video: "v".to_string(),
            sot_idx: 0,
            tiles: sot0.clone(),
        };
        apply_record(&tasm, &mut staged, stage).unwrap();
        let commit = ReplicationRecord::CommitSot {
            epoch: 1,
            video: "v".to_string(),
            sot_idx: 0,
            manifest: json.clone(),
        };
        let err = apply_record(&tasm, &mut staged, commit).unwrap_err();
        assert!(err.contains(why), "{why}: {err}");

        // As a whole video, new to the store and replacing the one it has.
        let sots = vec![sot0.clone(), tiles[1].clone()];
        for name in ["w", "v"] {
            let whole = VideoManifest {
                name: name.to_string(),
                ..next.clone()
            };
            let mut staged = StagedSots::new();
            for (sot, t) in sots.iter().enumerate() {
                staged.stage(name, sot as u32, t.clone());
            }
            let commit = ReplicationRecord::CommitVideo {
                epoch: 0,
                video: name.to_string(),
                manifest: serde_json::to_vec_pretty(&whole).unwrap(),
            };
            let err = apply_record(&tasm, &mut staged, commit).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
            let refused = tasm.store().install_video(&whole, &sots);
            assert!(invalid_data(refused, why), "{why}");
        }

        // The store's own entry points, below the facade.
        let store = tasm.store();
        let refused = store.install_sot(&next, 0, &sot0).map(|_| ());
        assert!(invalid_data(refused, why));
    }
    assert_eq!(before, (list_tree(root.path()), digest_tree(root.path())));
    assert!(tasm.fsck().unwrap().is_clean());

    // The honest payload of the same records then lands.
    let mut staged = StagedSots::new();
    staged.stage("v", 0, tiles[0].clone());
    let commit = ReplicationRecord::CommitSot {
        epoch: 1,
        video: "v".to_string(),
        sot_idx: 0,
        manifest: json,
    };
    apply_record(&tasm, &mut staged, commit).unwrap();
    assert_eq!(tasm.store().load_manifest("v").unwrap(), next);
    let whole = VideoManifest {
        name: "w".to_string(),
        ..next.clone()
    };
    tasm.apply_replicated_video(whole, &tiles).unwrap();
    assert!(tasm.fsck().unwrap().is_clean());
}

/// An install never touches the epoch the manifest on disk names. A peer's
/// record for an epoch the store already holds — or an older one — used to
/// reach `roll_forward`, which removed the *live* tile directory and wrote
/// the payload in its place, under any pinned reader (the facade skips such
/// records; the store's own entry points did not). Both are refused with
/// `InvalidData` and nothing touched, while readers pinned before and
/// after keep reading their own bytes.
#[test]
fn an_install_of_an_epoch_that_is_not_newer_is_refused_and_touches_nothing() {
    let root = temp_dir("stale-install");
    let tasm = Tasm::open(
        root.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let (ingested, tiles) = ingest_untiled_v(&tasm);
    tasm.attach("v").unwrap();
    tasm.retile("v", 0, two_cols()).unwrap();
    let current = tasm.manifest("v").unwrap();
    assert_eq!(current.sots[0].retile_count, 1);
    let served: Vec<Vec<u8>> = (0..2)
        .map(|t| {
            tasm.store()
                .read_tile(&current, 0, t)
                .map(TileVideo::into_bytes)
                .unwrap()
        })
        .collect();
    let before = (list_tree(root.path()), digest_tree(root.path()));

    // Same epoch, other bytes: what a confused (or hostile) peer sends.
    let mut same_epoch = ingested.clone();
    same_epoch.sots[0].retile_count = 1;
    let store = tasm.store();
    let why = "refusing to install epoch";
    for (manifest, payload) in [(&same_epoch, &tiles[0]), (&ingested, &tiles[0])] {
        let refused = store.install_sot(manifest, 0, payload).map(|_| ());
        assert!(invalid_data(refused, why));
    }
    // The same SOT at the store's epoch with the store's own bytes is
    // still not an install: nothing may be rewritten in place.
    let refused = store.install_sot(&current, 0, &served).map(|_| ());
    assert!(invalid_data(refused, why));
    assert!(!tasm.apply_replicated_sot(same_epoch, 0, &tiles[0]).unwrap());

    assert_eq!(before, (list_tree(root.path()), digest_tree(root.path())));
    assert_eq!(store.load_manifest("v").unwrap(), current);
    for (t, want) in served.iter().enumerate() {
        assert_eq!(
            &store
                .read_tile(&current, 0, t as u32)
                .map(TileVideo::into_bytes)
                .unwrap(),
            want
        );
    }
    assert!(tasm.fsck().unwrap().is_clean());

    // The next epoch still installs, and retires the one it supersedes.
    let mut next = ingested.clone();
    next.sots[0].retile_count = 2;
    let retired = store.install_sot(&next, 0, &tiles[0]).unwrap();
    assert_eq!(retired.retile_count, 1);
}

/// A replicated SOT commit takes the record's entry for that SOT and
/// nothing else of its manifest, so the rest must describe the video the
/// store holds: a record whose size, fps, frame count, config or SOT
/// bounds differ is `ReplicaMismatch`, from the facade and the store
/// alike, an entry whose layout does not cover the video is a layout
/// error, and nothing is written. The record that agrees then lands.
#[test]
fn a_sot_commit_whose_manifest_disagrees_with_the_stores_is_refused() {
    let root = temp_dir("disagree");
    let tasm = Tasm::open(
        root.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let (manifest, tiles) = ingest_untiled_v(&tasm);
    tasm.attach("v").unwrap();
    let mut next = manifest.clone();
    next.sots[0].retile_count += 1;
    let before = (list_tree(root.path()), digest_tree(root.path()));

    let edited = |edit: fn(&mut VideoManifest)| {
        let mut record = next.clone();
        edit(&mut record);
        record
    };
    let mismatch = |e: &StoreError| matches!(e, StoreError::ReplicaMismatch(v) if v == "v");
    for record in [
        edited(|m| m.width += 16),
        edited(|m| m.height -= 16),
        edited(|m| m.fps += 1),
        edited(|m| m.frame_count -= 1),
        edited(|m| m.config.qp += 1),
        edited(|m| (m.sots[0].end, m.sots[1].start) = (4, 4)),
    ] {
        match tasm.apply_replicated_sot(record.clone(), 0, &tiles[0]) {
            Err(TasmError::Store(e)) => assert!(mismatch(&e), "{e}"),
            other => panic!("{other:?}"),
        }
        let refused = tasm.store().install_sot(&record, 0, &tiles[0]).unwrap_err();
        assert!(mismatch(&refused), "{refused}");
    }
    // An entry whose layout does not cover the video, with a tile that
    // fits that layout.
    let mut narrow = next.clone();
    narrow.sots[0].layout = TileLayout::untiled(FLAT_W, H);
    let tile = vec![tile_container(FLAT_W, H, GOP as usize, GOP)];
    assert!(matches!(
        tasm.apply_replicated_sot(narrow, 0, &tile),
        Err(TasmError::Store(StoreError::Layout(_)))
    ));
    assert_eq!(before, (list_tree(root.path()), digest_tree(root.path())));
    assert_eq!(tasm.manifest("v").unwrap(), manifest);

    assert!(tasm
        .apply_replicated_sot(next.clone(), 0, &tiles[0])
        .unwrap());
    assert_eq!(tasm.manifest("v").unwrap(), next);
    assert!(tasm.fsck().unwrap().is_clean());
}

/// Whether `r` is the store's typed refusal of a peer's payload, for `why`.
fn invalid_data(r: Result<(), StoreError>, why: &str) -> bool {
    matches!(r, Err(StoreError::Io(e))
        if e.kind() == std::io::ErrorKind::InvalidData && e.to_string().contains(why))
}

/// A peer's `Replicate` frame names the video; the store joins that name
/// onto its root. A name that would leave the root (or be the root) is a
/// typed error from every entry point, and nothing outside — or inside —
/// the store is touched.
#[test]
fn hostile_video_names_never_leave_the_store_root() {
    let sandbox = temp_dir("names");
    let root = sandbox.path().join("node").join("videos");
    // What `CommitVideo { video: "../../victim" }` would remove and recreate.
    let victim = sandbox.path().join("victim");
    std::fs::create_dir_all(&victim).unwrap();
    std::fs::write(victim.join("keep.txt"), b"not the store's").unwrap();

    let tasm = Tasm::open(
        &root,
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let storage = cfg(false);
    let (manifest, tiles) = ingest_untiled_v(&tasm);
    let before = (list_tree(sandbox.path()), digest_tree(&root));

    for name in [
        "../../victim",
        "..",
        ".",
        "",
        "a/b",
        "a\\b",
        "/abs",
        "nul\0byte",
    ] {
        let hostile = VideoManifest {
            name: name.to_string(),
            ..manifest.clone()
        };
        let json = serde_json::to_vec_pretty(&hostile).unwrap();

        let mut staged = StagedSots::new();
        for (sot, t) in tiles.iter().enumerate() {
            let stage = ReplicationRecord::StageSot {
                video: name.to_string(),
                sot_idx: sot as u32,
                tiles: t.clone(),
            };
            apply_record(&tasm, &mut staged, stage).unwrap();
        }
        let commit = ReplicationRecord::CommitVideo {
            epoch: 0,
            video: name.to_string(),
            manifest: json.clone(),
        };
        let err = apply_record(&tasm, &mut staged, commit).unwrap_err();
        assert!(err.contains("invalid video name"), "{name:?}: {err}");

        let mut staged = StagedSots::new();
        staged.stage(name, 0, tiles[0].clone());
        let commit = ReplicationRecord::CommitSot {
            epoch: 1,
            video: name.to_string(),
            sot_idx: 0,
            manifest: json,
        };
        assert!(
            apply_record(&tasm, &mut staged, commit).is_err(),
            "{name:?}"
        );

        // The store's own entry points, below the facade's registry.
        let store = tasm.store();
        let invalid = |r: Result<(), StoreError>| matches!(r, Err(StoreError::InvalidName(_)));
        assert!(invalid(store.install_video(&hostile, &tiles)), "{name:?}");
        assert!(
            invalid(store.install_sot(&hostile, 0, &tiles[0]).map(|_| ())),
            "{name:?}"
        );
        assert!(invalid(store.remove_video(name)), "{name:?}");
        assert!(
            invalid(
                store
                    .ingest(name, &clip(), 30, storage, |_, _| TileLayout::untiled(W, H))
                    .map(|_| ())
            ),
            "{name:?}"
        );
    }

    assert_eq!(before, (list_tree(sandbox.path()), digest_tree(&root)));
    assert_eq!(
        std::fs::read(victim.join("keep.txt")).unwrap(),
        b"not the store's"
    );
    assert!(tasm.store().fsck(&[]).unwrap().is_clean());
}
