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
use tasm_cluster::{apply_record, StagedSots};
use tasm_codec::{encode_video, CodecChoice, EncoderConfig, LayoutError, TileLayout};
use tasm_core::{
    StorageConfig, StoreError, Tasm, TasmConfig, TasmError, VideoManifest, VideoStore,
};
use tasm_index::MemoryIndex;
use tasm_proto::ReplicationRecord;
use tasm_video::{Frame, Plane, Rect, SliceSource, VecFrameSource};

const W: u32 = 384;
const H: u32 = 256;
/// Columns left of this are flat and static: as one 256-wide tile they are
/// where the `Auto` size trial keeps the lossless stream.
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tasm-write-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cfg(codec: CodecChoice, parallel_encode: bool) -> StorageConfig {
    StorageConfig {
        gop_len: GOP,
        sot_frames: GOP,
        parallel_encode,
        codec,
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

/// The initial layouts: SOT 0 untiled, SOT 1 in two columns — under `Auto`
/// its flat column is stored losslessly, so re-tiling it decodes a
/// mixed-codec layout.
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
    let store = VideoStore::open(&dir).unwrap();
    let (manifest, _) = store
        .ingest("v", &clip(), 30, cfg, |sot, _| initial_layout(sot))
        .unwrap();
    // Re-tile through a fresh handle and the manifest as it is on disk: the
    // codec choice that counts is the one the store recorded at ingest.
    drop(store);
    let store = VideoStore::open(&dir).unwrap();
    let mut manifest = {
        let on_disk = store.load_manifest("v").unwrap();
        assert_eq!(on_disk, manifest);
        on_disk
    };
    let video = dir.join("v");
    let mut steps = vec![(digest_tree(&video), tile_codecs(&manifest))];
    for (sot, layout) in [(0, two_cols()), (0, uneven()), (1, uneven())] {
        store.retile(&mut manifest, sot, layout).unwrap();
        steps.push((digest_tree(&video), tile_codecs(&manifest)));
    }
    assert!(store.fsck().unwrap().is_clean());
    assert_eq!(manifest, store.load_manifest("v").unwrap());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    steps
}

/// Per codec choice, after ingest / SOT 0 untiled→2 cols / SOT 0 2 cols→
/// uneven / SOT 1 2 cols→uneven: (pack-tree digest, `tile_codecs` of SOT 0
/// and SOT 1).
type Step = (u64, [&'static [u8]; 2]);

const PINNED: &[(CodecChoice, [Step; 4])] = &[
    (
        CodecChoice::Dct,
        [
            (0xe74194d7c99f7f66, [&[0], &[0, 0]]),
            (0xe177af8be8cfe0d6, [&[0, 0], &[0, 0]]),
            (0x49e5fa56c516011b, [&[0, 0, 0, 0, 0, 0], &[0, 0]]),
            (
                0x43af06948f8003b3,
                [&[0, 0, 0, 0, 0, 0], &[0, 0, 0, 0, 0, 0]],
            ),
        ],
    ),
    (
        CodecChoice::Pred,
        [
            (0x7e8c5236c644cd79, [&[1], &[1, 1]]),
            (0x682f03b7e81df1d8, [&[1, 1], &[1, 1]]),
            (0x7f94e43ef258dab5, [&[1, 1, 1, 1, 1, 1], &[1, 1]]),
            (
                0xc8febdd1ede75e88,
                [&[1, 1, 1, 1, 1, 1], &[1, 1, 1, 1, 1, 1]],
            ),
        ],
    ),
    (
        CodecChoice::Auto,
        [
            (0x0a57983f11373e89, [&[0], &[1, 0]]),
            (0x00e0ed0c3111dab9, [&[0, 0], &[1, 0]]),
            (0xdf0e837467610e34, [&[0, 0, 0, 0, 0, 0], &[1, 0]]),
            (
                0xb4b79366bbf6c180,
                [&[0, 0, 0, 0, 0, 0], &[1, 0, 0, 0, 0, 0]],
            ),
        ],
    ),
];

/// What a run measured after each step: (pack-tree digest, every SOT's
/// `tile_codecs`).
type Steps = Vec<(u64, Vec<Vec<u8>>)>;

/// Whether a run's steps are the pinned ones.
fn steps_match(got: &[(u64, Vec<Vec<u8>>)], want: &[Step]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.iter().map(Vec::as_slice).eq(w.1.iter().copied()))
}

/// A run's steps as rows of a pinned table, to paste over a stale one.
fn steps_rows(steps: &[(u64, Vec<Vec<u8>>)]) -> String {
    steps
        .iter()
        .map(|(digest, codecs)| {
            format!(
                "            ({digest:#018x}, [&{:?}, &{:?}]),\n",
                codecs[0], codecs[1]
            )
        })
        .collect()
}

#[test]
fn ingest_and_retile_files_are_pinned() {
    let mut got = Vec::new();
    for codec in [CodecChoice::Dct, CodecChoice::Pred, CodecChoice::Auto] {
        let serial = ingest_and_retile("pin-serial", cfg(codec, false));
        let parallel = ingest_and_retile("pin-parallel", cfg(codec, true));
        assert_eq!(serial, parallel, "{codec:?}: parallel encode moved bytes");
        got.push((codec, serial));
    }
    let same = got.len() == PINNED.len()
        && got
            .iter()
            .zip(PINNED)
            .all(|(g, w)| g.0 == w.0 && steps_match(&g.1, &w.1));
    if !same {
        let mut table = String::new();
        for (codec, steps) in &got {
            table += &format!("    (\n        CodecChoice::{codec:?},\n        [\n");
            table += &steps_rows(steps);
            table += "        ],\n    ),\n";
        }
        panic!("write-path digests moved; this build produces:\n{table}");
    }
}

/// Digest of what the store serves for `manifest`, file layout aside: every
/// tile's container bytes as `tile_file_bytes` returns them, keyed by SOT
/// and raster index, then each SOT's `tile_codecs`.
fn digest_tiles(store: &VideoStore, manifest: &VideoManifest) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (i, sot) in manifest.sots.iter().enumerate() {
        for t in 0..sot.layout.tile_count() {
            h = fnv1a(h, &[i as u8, t as u8]);
            h = fnv1a(h, &store.tile_file_bytes(manifest, i, t).unwrap());
        }
        h = fnv1a(h, &sot.tile_codecs);
    }
    h
}

/// Per codec choice, [`digest_tiles`] after ingest and after each of four
/// re-tiles: SOT 0 untiled→2 cols→uneven, SOT 1 2 cols→uneven→2 cols.
/// Computed on the store that kept one file per tile; how tiles are filed
/// on disk must never move them.
const TILES_PINNED: &[(CodecChoice, [u64; 5])] = &[
    (
        CodecChoice::Dct,
        [
            0xed3d921ce2bda0e2,
            0xa696ed0b9b04e7ab,
            0x2aaca36b3c1b7d71,
            0xe6fabd5aa440d1a3,
            0x502e88b79a147254,
        ],
    ),
    (
        CodecChoice::Pred,
        [
            0x43f4b2059a4df513,
            0xad965f0ac9dae8ab,
            0xb7dc3c53dbea85cf,
            0xf1f596d40410a4a6,
            0xb7dc3c53dbea85cf,
        ],
    ),
    (
        CodecChoice::Auto,
        [
            0x7564d233d356d8d9,
            0xe670d72076152298,
            0xfec9511a8ee7fa02,
            0x250758013e2e46f8,
            0x342e8b2f5e0bb937,
        ],
    ),
];

/// The bytes behind `tile_file_bytes` are the contract replication, `fsck`
/// and every decode rest on. Ingest, four re-tiles, and beside them a
/// replica that receives the ingested video whole and each re-tile as the
/// next epoch of its SOT: both serve the pinned bytes at every step.
#[test]
fn tiles_served_after_ingest_retile_and_replica_install_are_pinned() {
    let mut got = Vec::new();
    for &(codec, _) in TILES_PINNED {
        let (dir, replica_dir) = (temp_dir("tiles"), temp_dir("tiles-replica"));
        let store = VideoStore::open(&dir).unwrap();
        let replica = VideoStore::open(&replica_dir).unwrap();
        let (mut manifest, _) = store
            .ingest("v", &clip(), 30, cfg(codec, false), |sot, _| {
                initial_layout(sot)
            })
            .unwrap();
        let payload = |manifest: &VideoManifest, sot: usize| -> Vec<Vec<u8>> {
            (0..manifest.sots[sot].layout.tile_count())
                .map(|t| store.tile_file_bytes(manifest, sot, t).unwrap())
                .collect()
        };
        let whole: Vec<_> = (0..manifest.sots.len())
            .map(|sot| payload(&manifest, sot))
            .collect();
        replica.install_video(&manifest, &whole).unwrap();
        let mut steps = vec![digest_tiles(&store, &manifest)];
        assert_eq!(digest_tiles(&replica, &manifest), steps[0], "{codec:?}");
        for (sot, layout) in [
            (0, two_cols()),
            (0, uneven()),
            (1, uneven()),
            (1, two_cols()),
        ] {
            store.retile(&mut manifest, sot, layout).unwrap();
            replica
                .install_sot(&manifest, sot, &payload(&manifest, sot))
                .unwrap();
            let digest = digest_tiles(&store, &manifest);
            assert_eq!(digest_tiles(&replica, &manifest), digest, "{codec:?}");
            steps.push(digest);
        }
        for s in [&store, &replica] {
            assert!(s.fsck().unwrap().is_clean(), "{codec:?}");
            assert_eq!(s.load_manifest("v").unwrap(), manifest, "{codec:?}");
        }
        drop((store, replica));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
        got.push((codec, steps));
    }
    let same = got
        .iter()
        .zip(TILES_PINNED)
        .all(|(g, w)| g.0 == w.0 && g.1 == w.1);
    if !same {
        let table: String = got
            .iter()
            .map(|(codec, steps)| format!("    (CodecChoice::{codec:?}, {steps:#018x?}),\n"))
            .collect();
        panic!("served tile digests moved; this build produces:\n{table}");
    }
}

/// One 192×128 clip per way `pred::encode_inter`'s temporal-vs-spatial
/// decision can go: `Static` repeats one noisy frame (temporal residuals
/// all zero), `Moving` slides a box over that background and drifts a
/// smooth band (some planes still, some changed a little), `Cut` swaps the
/// scene for a smooth one at frame 3, mid-GOP (spatial wins on every
/// plane), then holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Motion {
    Static,
    Moving,
    Cut,
}

const DW: u32 = 192;
const DH: u32 = 128;

fn decision_clip(motion: Motion) -> VecFrameSource {
    let frames = (0..FRAMES)
        .map(|t| {
            if motion == Motion::Cut && t >= 3 {
                let mut f = Frame::filled(DW, DH, 0, 70, 180);
                for y in 0..DH {
                    for x in 0..DW {
                        f.set_sample(Plane::Y, x, y, (40 + x / 2 + y) as u8);
                    }
                }
                return f;
            }
            let mut f = Frame::filled(DW, DH, 0, 120, 136);
            for y in 0..DH {
                for x in 0..DW {
                    let v = (x * 3 + y * 2) % 150 + 50 + hash3(x, y, 0) % 31;
                    f.set_sample(Plane::Y, x, y, v as u8);
                }
            }
            if motion == Motion::Moving {
                for y in 96..DH {
                    for x in 0..DW {
                        f.set_sample(Plane::Y, x, y, (60 + x / 2 + y / 4 + 3 * t) as u8);
                    }
                }
                f.fill_rect(Rect::new(8 * t, 16, 32, 32), 220, 90, 170);
            }
            f
        })
        .collect();
    VecFrameSource::new(frames)
}

/// `Tasm::ingest` (untiled) of a decision clip, then one re-tile of SOT 0
/// to 2×2: the packs' digest and both SOTs' `tile_codecs` after each, and
/// what the store serves.
fn tasm_ingest_and_retile(motion: Motion, storage: StorageConfig) -> (Steps, Vec<u64>) {
    let dir = temp_dir(&format!("decision-{motion:?}-{}", storage.parallel_encode));
    let tasm = Tasm::open(
        &dir,
        Box::new(MemoryIndex::in_memory()),
        TasmConfig {
            storage,
            ..Default::default()
        },
    )
    .unwrap();
    tasm.ingest("v", &decision_clip(motion), 30).unwrap();
    let video = dir.join("v");
    let mut steps = vec![(
        digest_tree(&video),
        tile_codecs(&tasm.manifest("v").unwrap()),
    )];
    let mut served = vec![digest_tiles(tasm.store(), &tasm.manifest("v").unwrap())];
    tasm.retile("v", 0, TileLayout::uniform(DW, DH, 2, 2).unwrap())
        .unwrap();
    steps.push((
        digest_tree(&video),
        tile_codecs(&tasm.manifest("v").unwrap()),
    ));
    served.push(digest_tiles(tasm.store(), &tasm.manifest("v").unwrap()));
    assert!(tasm.fsck().unwrap().is_clean());
    drop(tasm);
    std::fs::remove_dir_all(&dir).ok();
    (steps, served)
}

/// [`digest_tiles`] of the decision clips' stores, in [`DECISION_PINNED`]'s
/// order: what each serves after ingest and after the re-tile, however its
/// tiles are filed.
const DECISION_TILES_PINNED: &[[u64; 2]] = &[
    [0x2e6f6f9f8afdd354, 0xb530b2eb297af360],
    [0x2e6f6f9f8afdd354, 0xb530b2eb297af360],
    [0x841b336b1f984ebd, 0x2bdd2fcfba5988c7],
    [0xbe23c5831a1f8f29, 0x516887b791a0d37a],
    [0x7ec64e7795cffef7, 0x5efc1e3af23cca72],
    [0x6f28b7edaa9e8d28, 0x37693fa13bc363a0],
];

/// Per clip and codec choice, after ingest / SOT 0 untiled→2×2; computed
/// with the decision made on the full row-cost sum (no early exit).
const DECISION_PINNED: &[(Motion, CodecChoice, [Step; 2])] = &[
    (
        Motion::Static,
        CodecChoice::Auto,
        [
            (0xbc3b27cf4d34047a, [&[1], &[1]]),
            (0xdbf23c2f27d8cca9, [&[1, 1, 1, 1], &[1]]),
        ],
    ),
    (
        Motion::Static,
        CodecChoice::Pred,
        [
            (0xbc3b27cf4d34047a, [&[1], &[1]]),
            (0xdbf23c2f27d8cca9, [&[1, 1, 1, 1], &[1]]),
        ],
    ),
    (
        Motion::Moving,
        CodecChoice::Auto,
        [
            (0x38f5897c5b5f13fd, [&[0], &[0]]),
            (0xf4970b0e3e7cf15d, [&[0, 0, 0, 0], &[0]]),
        ],
    ),
    (
        Motion::Moving,
        CodecChoice::Pred,
        [
            (0x165cd3d66594fd43, [&[1], &[1]]),
            (0x3605ef308d811682, [&[1, 1, 1, 1], &[1]]),
        ],
    ),
    (
        Motion::Cut,
        CodecChoice::Auto,
        [
            (0x4cde73a7d3dfbb32, [&[0], &[0]]),
            (0x23df7b55cc89ba24, [&[0, 0, 0, 0], &[0]]),
        ],
    ),
    (
        Motion::Cut,
        CodecChoice::Pred,
        [
            (0xba9e444bb20505a4, [&[1], &[1]]),
            (0xc17669e5f69e5d7d, [&[1, 1, 1, 1], &[1]]),
        ],
    ),
];

#[test]
fn decision_clips_through_tasm_are_pinned() {
    let (mut got, mut served) = (Vec::new(), Vec::new());
    for motion in [Motion::Static, Motion::Moving, Motion::Cut] {
        for codec in [CodecChoice::Auto, CodecChoice::Pred] {
            let serial = tasm_ingest_and_retile(motion, cfg(codec, false));
            let parallel = tasm_ingest_and_retile(motion, cfg(codec, true));
            assert_eq!(
                serial, parallel,
                "{motion:?} {codec:?}: parallel encode moved bytes"
            );
            got.push((motion, codec, serial.0));
            served.push(serial.1);
        }
    }
    let pinned: Vec<&[u64]> = DECISION_TILES_PINNED.iter().map(|s| &s[..]).collect();
    assert!(
        served == pinned,
        "served tile digests moved; this build produces:\n{served:#018x?}"
    );
    let same = got.len() == DECISION_PINNED.len()
        && got
            .iter()
            .zip(DECISION_PINNED)
            .all(|(g, w)| (g.0, g.1) == (w.0, w.1) && steps_match(&g.2, &w.2));
    if !same {
        let mut table = String::new();
        for (motion, codec, steps) in &got {
            table += &format!(
                "    (\n        Motion::{motion:?},\n        CodecChoice::{codec:?},\n        [\n"
            );
            table += &steps_rows(steps);
            table += "        ],\n    ),\n";
        }
        panic!("decision-clip digests moved; this build produces:\n{table}");
    }
}

/// The manifest's JSON with the storage config's `codec` field (the last of
/// its object) cut out.
fn without_codec_field(json: &str) -> String {
    let at = json.find("\"codec\"").expect("manifest records the codec");
    let comma = json[..at].rfind(',').unwrap();
    let end = at + json[at..].find('\n').unwrap();
    format!("{}{}", &json[..comma], &json[end..])
}

/// The default is one DCT encode per tile, nothing else pins it: a store
/// opened with the default config records `Dct` and writes, byte for byte,
/// the tile files of one opened with `Dct` spelled out — on the clip whose
/// flat tile the size trial would have stored losslessly.
#[test]
fn a_default_ingest_records_dct_and_writes_what_an_explicit_dct_ingest_writes() {
    assert_eq!(StorageConfig::default().codec, CodecChoice::Dct);
    let explicit = TasmConfig {
        storage: StorageConfig {
            codec: CodecChoice::Dct,
            ..Default::default()
        },
        ..Default::default()
    };
    let ingested =
        [("default", TasmConfig::default()), ("explicit", explicit)].map(|(tag, cfg)| {
            let root = temp_dir(&format!("default-{tag}"));
            let tasm = Tasm::open(&root, Box::new(MemoryIndex::in_memory()), cfg).unwrap();
            tasm.ingest_with("v", &clip(), 30, |_, _| two_cols())
                .unwrap();
            let json = std::fs::read_to_string(root.join("v").join("manifest.json")).unwrap();
            assert!(json.contains("\"codec\": \"Dct\""), "{tag}: {json}");
            let manifest = tasm.manifest("v").unwrap();
            assert_eq!(tile_codecs(&manifest), [[0, 0]], "{tag}");
            let tiles: Vec<Vec<u8>> = (0..2)
                .map(|t| tasm.store().tile_file_bytes(&manifest, 0, t).unwrap())
                .collect();
            drop(tasm);
            std::fs::remove_dir_all(&root).ok();
            (json, tiles)
        });
    assert_eq!(ingested[0], ingested[1]);
}

/// A store's manifest says which codec choice it was ingested with, and a
/// re-tile runs what the manifest says (here the size trial), not the
/// default (`Dct`) — on the store that ingested it and on a replica that
/// was opened with the default and received the manifest from a peer; a
/// manifest from before the field existed parses as DCT-only, which is what
/// such a store holds.
#[test]
fn recorded_codec_choice_is_what_a_retile_honours() {
    let dir = temp_dir("recorded");
    let store = VideoStore::open(&dir).unwrap();
    store
        .ingest("v", &clip(), 30, cfg(CodecChoice::Auto, false), |sot, _| {
            initial_layout(sot)
        })
        .unwrap();
    let path = dir.join("v").join("manifest.json");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"codec\": \"Auto\""), "{json}");

    let mut manifest = store.load_manifest("v").unwrap();
    assert_eq!(manifest.config.codec, CodecChoice::Auto);
    let ingested = manifest.clone();
    let tiles: Vec<Vec<Vec<u8>>> = (0..ingested.sots.len())
        .map(|sot| {
            (0..ingested.sots[sot].layout.tile_count())
                .map(|t| store.tile_file_bytes(&ingested, sot, t).unwrap())
                .collect()
        })
        .collect();
    store.retile(&mut manifest, 1, uneven()).unwrap();
    assert_eq!(manifest.sots[1].tile_codecs, [1, 0, 0, 0, 0, 0]);

    let replica_dir = temp_dir("recorded-replica");
    let replica = Tasm::open(
        &replica_dir,
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    assert_eq!(replica.config().storage.codec, CodecChoice::Dct);
    replica.apply_replicated_video(ingested, &tiles).unwrap();
    assert_eq!(
        replica.manifest("v").unwrap().config.codec,
        CodecChoice::Auto
    );
    replica.retile("v", 1, uneven()).unwrap();
    assert_eq!(
        replica.manifest("v").unwrap().sots[1].tile_codecs,
        manifest.sots[1].tile_codecs,
        "the replica ran the trial its manifest records"
    );
    assert!(replica.fsck().unwrap().is_clean());
    drop(replica);
    std::fs::remove_dir_all(&replica_dir).ok();

    let legacy = without_codec_field(&json);
    assert!(!legacy.contains("codec\""), "{legacy}");
    let parsed: VideoManifest = serde_json::from_str(&legacy).unwrap();
    assert_eq!(parsed.config.codec, CodecChoice::Dct);
    assert_eq!(
        StorageConfig {
            codec: CodecChoice::Auto,
            ..parsed.config
        },
        cfg(CodecChoice::Auto, false)
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A source the tile grid cannot hold (dimensions not multiples of
/// `TILE_ALIGN`), a config whose SOTs are not whole GOPs or a QP the
/// quantizer has no step for is refused with a typed error before anything
/// is made on disk — all used to panic, the first and last after the video
/// directory existed — and the name stays usable.
#[test]
fn unaligned_sources_and_bad_configs_are_typed_errors_that_leave_nothing_behind() {
    let root = temp_dir("refused");
    let tasm = Tasm::open(
        &root,
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let empty_store = list_tree(&root);
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
    let (clip_frames, good) = (clip(), StorageConfig::default());
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
        assert!(
            matches!(
                tasm.store().ingest("v", &clip(), 30, bad, untiled),
                Err(StoreError::InvalidConfig(_))
            ),
            "{bad:?}"
        );
        // The facade ingests with the config it was opened with.
        let config = TasmConfig {
            storage: bad,
            ..Default::default()
        };
        let facade = Tasm::open(&root, Box::new(MemoryIndex::in_memory()), config).unwrap();
        assert!(
            matches!(
                facade.ingest("v", &clip(), 30),
                Err(TasmError::Store(StoreError::InvalidConfig(_)))
            ),
            "{bad:?}"
        );
    }

    assert_eq!(list_tree(&root), empty_store);
    assert!(!root.join("v").exists());
    assert!(tasm.fsck().unwrap().is_clean());
    assert!(!tasm.has_stored_video("v"));

    tasm.ingest("v", &clip(), 30).unwrap();
    assert_eq!(tasm.manifest("v").unwrap().frame_count, FRAMES);
    assert!(tasm.fsck().unwrap().is_clean());
    drop(tasm);
    std::fs::remove_dir_all(&root).ok();
}

/// Ingests the clip as "v" — DCT, untiled — and returns its manifest and
/// every SOT's one tile file: the payload a peer would replicate.
fn ingest_untiled_v(tasm: &Tasm) -> (VideoManifest, Vec<Vec<Vec<u8>>>) {
    let storage = cfg(CodecChoice::Dct, false);
    let (manifest, _) = tasm
        .store()
        .ingest("v", &clip(), 30, storage, |_, _| TileLayout::untiled(W, H))
        .unwrap();
    let tiles = (0..manifest.sots.len())
        .map(|sot| vec![tasm.store().tile_file_bytes(&manifest, sot, 0).unwrap()])
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
        &root,
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let (manifest, tiles) = ingest_untiled_v(&tasm);
    tasm.attach("v").unwrap();
    let before = (list_tree(&root), digest_tree(&root));

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
                invalid(store.install_sot(&hostile, 0, &tiles[0])),
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
    assert_eq!(before, (list_tree(&root), digest_tree(&root)));
    assert!(tasm.fsck().unwrap().is_clean());
    // The video the store holds still answers, and a sound manifest from a
    // peer still lands.
    tasm.apply_replicated_video(manifest.clone(), &tiles)
        .unwrap();
    assert!(tasm.fsck().unwrap().is_clean());

    // A manifest file that holds such a config (written by hand, or by a
    // build from before configs were checked) does not load: the video
    // does not attach, and fsck names it.
    let path = root.join("v").join("manifest.json");
    let sound = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, sound.replace("\"gop_len\": 6", "\"gop_len\": 0")).unwrap();
    assert!(matches!(
        tasm.store().load_manifest("v"),
        Err(StoreError::InvalidConfig(_))
    ));
    drop(tasm);
    let reopened = Tasm::open(
        &root,
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
    drop(reopened);
    std::fs::remove_dir_all(&root).ok();
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
    let (tiles, _) = encode_video(&src, &TileLayout::untiled(w, h), &cfg, false).unwrap();
    tiles[0].to_bytes().to_vec()
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
        &root,
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
    let before = (list_tree(&root), digest_tree(&root));

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
        assert!(invalid_data(store.install_sot(&next, 0, &sot0), why));
        let deferred = store.install_sot_deferred(&next, 0, &sot0).map(|_| ());
        assert!(invalid_data(deferred, why));
    }
    assert_eq!(before, (list_tree(&root), digest_tree(&root)));
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
    drop(tasm);
    std::fs::remove_dir_all(&root).ok();
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
        &root,
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
        .map(|t| tasm.store().tile_file_bytes(&current, 0, t).unwrap())
        .collect();
    let before = (list_tree(&root), digest_tree(&root));

    // Same epoch, other bytes: what a confused (or hostile) peer sends.
    let mut same_epoch = ingested.clone();
    same_epoch.sots[0].retile_count = 1;
    let store = tasm.store();
    let why = "refusing to install epoch";
    for (manifest, payload) in [(&same_epoch, &tiles[0]), (&ingested, &tiles[0])] {
        assert!(invalid_data(store.install_sot(manifest, 0, payload), why));
        let deferred = store.install_sot_deferred(manifest, 0, payload).map(|_| ());
        assert!(invalid_data(deferred, why));
    }
    // The same SOT at the store's epoch with the store's own bytes is
    // still not an install: nothing may be rewritten in place.
    assert!(invalid_data(store.install_sot(&current, 0, &served), why));
    assert!(!tasm.apply_replicated_sot(same_epoch, 0, &tiles[0]).unwrap());

    assert_eq!(before, (list_tree(&root), digest_tree(&root)));
    assert_eq!(store.load_manifest("v").unwrap(), current);
    for (t, want) in served.iter().enumerate() {
        assert_eq!(&store.tile_file_bytes(&current, 0, t as u32).unwrap(), want);
    }
    assert!(tasm.fsck().unwrap().is_clean());

    // The next epoch still installs, and retires the one it supersedes.
    let mut next = ingested.clone();
    next.sots[0].retile_count = 2;
    let retired = store.install_sot_deferred(&next, 0, &tiles[0]).unwrap();
    assert_eq!(retired.map(|r| r.retile_count), Some(1));
    drop(tasm);
    std::fs::remove_dir_all(&root).ok();
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
    let root = sandbox.join("node").join("videos");
    // What `CommitVideo { video: "../../victim" }` would remove and recreate.
    let victim = sandbox.join("victim");
    std::fs::create_dir_all(&victim).unwrap();
    std::fs::write(victim.join("keep.txt"), b"not the store's").unwrap();

    let tasm = Tasm::open(
        &root,
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .unwrap();
    let storage = cfg(CodecChoice::Dct, false);
    let (manifest, tiles) = ingest_untiled_v(&tasm);
    let before = (list_tree(&sandbox), digest_tree(&root));

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
            invalid(store.install_sot(&hostile, 0, &tiles[0])),
            "{name:?}"
        );
        assert!(
            invalid(
                store
                    .install_sot_deferred(&hostile, 0, &tiles[0])
                    .map(|_| ())
            ),
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

    assert_eq!(before, (list_tree(&sandbox), digest_tree(&root)));
    assert_eq!(
        std::fs::read(victim.join("keep.txt")).unwrap(),
        b"not the store's"
    );
    assert!(tasm.store().fsck().unwrap().is_clean());
    drop(tasm);
    std::fs::remove_dir_all(&sandbox).ok();
}
