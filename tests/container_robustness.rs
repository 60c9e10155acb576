//! Property tests of the TVF container reader: corrupt or truncated
//! input — torn tails, bit-flipped headers, garbage — must surface as
//! typed [`ContainerError`]s, never as panics, and
//! [`TileVideo::from_bytes`] must accept exactly the bytes the writer
//! produced.
//!
//! This is the on-disk analogue of `tests/wire_protocol.rs`: tiles are
//! what `tasm fsck` reads back after a crash, so the reader is the last
//! line of defense against a torn write that slipped past recovery.
//!
//! The same holds one level up, for the pack a store files a SOT's tiles
//! in: a table that is truncated, mutated or at odds with the containers it
//! points at is a typed `StoreError` from a read and an `FsckIssue` from
//! `fsck` — never a panic, and never one tile's bytes served as another's.

use proptest::run_cases;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_cluster::ReplicatorHook;
use tasm_codec::bitstream::{BitWriter, BitstreamError};
use tasm_codec::{
    ContainerError, DecodeError, EncodedFrame, EncoderConfig, TileCodec, TileEncoder, TileLayout,
    TileVideo,
};
use tasm_core::{
    FsckIssue, RealIo, StorageConfig, StorageIo, StoreError, Tasm, TasmConfig, TasmError,
    VideoManifest, VideoStore,
};
use tasm_index::MemoryIndex;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{RetileHook, ServiceConfig};
use tasm_suite::TempDir;
use tasm_video::{Frame, Plane, Rect, VecFrameSource};

const CASES: u32 = 48;

/// Encodes a small deterministic-but-arbitrary tile video: even dims,
/// textured frames with a moving patch so keyframes and P-frames both
/// carry real payload.
fn arb_tile_video(rng: &mut StdRng) -> TileVideo {
    let w = rng.gen_range(1u32..4) * 16;
    let h = rng.gen_range(1u32..4) * 16;
    let gop = rng.gen_range(1u32..6);
    let frames = rng.gen_range(1u32..11);
    let cfg = EncoderConfig {
        gop_len: gop,
        qp: rng.gen_range(10u32..40) as u8,
        ..Default::default()
    };
    let mut enc = TileEncoder::new(cfg, Rect::new(0, 0, w, h));
    let phase = rng.gen_range(0u32..16);
    let encoded: Vec<EncodedFrame> = (0..frames)
        .map(|i| {
            let mut f = Frame::filled(w, h, 100, 128, 128);
            for y in 0..h {
                for x in 0..w {
                    f.set_sample(Plane::Y, x, y, ((x * 7 + y * 13 + phase) % 200 + 20) as u8);
                }
            }
            if w >= 8 && h >= 8 {
                f.fill_rect(Rect::new((i * 2) % (w - 4), 2, 4, 4), 230, 90, 160);
            }
            enc.encode_next(&f)
        })
        .collect();
    TileVideo::from_frames(TileCodec::Dct, w, h, &cfg, &encoded)
}

/// Bytes after the last payload are no part of a tile: the one reader
/// refuses them, as it refuses a torn tail.
const TRAILING: ContainerError = ContainerError::InvalidHeader("trailing bytes after payload");

/// `from_bytes` accepts exactly what the writer produced, keeps it byte
/// for byte, and reads a header that agrees with the frames it was written
/// from: a keyframe every `gop_len()` frames, each at the tile's QP.
#[test]
fn validate_accepts_writer_output_exactly() {
    run_cases(CASES, proptest::seed_for("validate"), |rng| {
        let v = arb_tile_video(rng);
        let bytes = v.as_bytes().to_vec();
        let back = TileVideo::from_bytes(bytes.clone()).expect("writer output parses");
        assert_eq!(back, v);
        assert_eq!(back.size_bytes(), bytes.len() as u64);
        for i in 0..back.frame_count() {
            let frame = back.frame(i).expect("in range");
            assert_eq!(frame.is_key, i % back.gop_len() == 0, "frame {i}");
            assert_eq!(frame.qp, back.qp(), "frame {i}");
        }
        assert!(back.frame(back.frame_count()).is_none());
        assert_eq!(back.into_bytes(), bytes);

        // Appended garbage breaks the exact-length contract.
        let mut longer = bytes;
        longer.extend_from_slice(&[0u8; 3]);
        assert_eq!(TileVideo::from_bytes(longer), Err(TRAILING));
    });
}

/// A tile as the store serves it, with bytes appended after its last
/// payload, is refused with the error a torn tile's appended bytes always
/// got from the store's check: there is one rule for trailing bytes.
#[test]
fn a_stored_tile_with_bytes_appended_is_refused() {
    let p = packed_store("trailing");
    for (t, tile) in p.tiles.iter().enumerate() {
        let mut longer = tile.clone();
        longer.extend_from_slice(&[0u8; 7]);
        assert_eq!(TileVideo::from_bytes(longer), Err(TRAILING), "tile {t}");
    }
}

/// Every strict prefix — a torn tail at any byte — fails the reader with a
/// typed error; none panics, none silently succeeds.
#[test]
fn torn_tails_fail_with_typed_errors() {
    run_cases(CASES, proptest::seed_for("torn"), |rng| {
        let v = arb_tile_video(rng);
        let bytes = v.as_bytes();
        // Exhaustive for small containers, sampled for large ones.
        let cuts: Vec<usize> = if bytes.len() <= 96 {
            (0..bytes.len()).collect()
        } else {
            let mut c: Vec<usize> = (0..64)
                .map(|_| rng.gen_range(0usize..bytes.len()))
                .collect();
            c.extend([0, 1, 22, 23, bytes.len() - 1]);
            c
        };
        for cut in cuts {
            assert!(
                matches!(
                    TileVideo::from_bytes(bytes[..cut].to_vec()),
                    Err(ContainerError::Truncated)
                        | Err(ContainerError::BadMagic)
                        | Err(ContainerError::InvalidHeader(_))
                ),
                "prefix of {cut}/{} parsed",
                bytes.len()
            );
        }
    });
}

/// Bit flips in the header and frame table never panic the reader: it
/// parses to something or fails with a typed error.
#[test]
fn bit_flipped_headers_never_panic() {
    run_cases(CASES, proptest::seed_for("flip"), |rng| {
        let v = arb_tile_video(rng);
        let prelude_len = (23 + v.frame_count() as usize * 6).min(v.as_bytes().len());
        let mut bytes = v.into_bytes();
        for _ in 0..4 {
            let at = rng.gen_range(0usize..prelude_len);
            bytes[at] ^= 1 << rng.gen_range(0u32..8);
        }
        let _ = TileVideo::from_bytes(bytes); // must not panic
    });
}

/// Arbitrary garbage — not even a TVF prefix — is rejected with typed
/// errors at any length, including lengths that would imply enormous frame
/// tables.
#[test]
fn garbage_input_is_rejected() {
    run_cases(CASES, proptest::seed_for("garbage"), |rng| {
        let len = rng.gen_range(0usize..128);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let _ = TileVideo::from_bytes(garbage);
    });
    // A well-formed header declaring a frame table far larger than the
    // buffer must be truncation, not an allocation attempt.
    let v = {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(proptest::seed_for("huge"));
        arb_tile_video(&mut rng)
    };
    let mut bytes = v.into_bytes();
    bytes[19..23].copy_from_slice(&u32::MAX.to_le_bytes()); // frame count
    assert_eq!(
        TileVideo::from_bytes(bytes).unwrap_err(),
        ContainerError::Truncated
    );
}

// --- The decode fast path's early-outs -------------------------------------
//
// Each shortcut the DCT decoder takes (recycled/pre-copied frames, SKIP runs
// consumed as runs of one bits, the windowed exp-Golomb reader, the sparse
// inverse transform) has a boundary where it hands over to the general path
// or refuses the input. One hand-built container per boundary: a typed
// error or exactly the expected pixels, never a panic.

/// A DCT container of `w`×`h` tiles at QP 28 (step 16) around hand-written
/// frame payloads; the first is the keyframe.
fn handmade(w: u32, h: u32, deblock: bool, payloads: Vec<BitWriter>) -> TileVideo {
    let cfg = EncoderConfig {
        gop_len: payloads.len() as u32,
        qp: 28,
        deblock,
        ..Default::default()
    };
    let frames: Vec<EncodedFrame> = (payloads.into_iter().enumerate())
        .map(|(i, payload)| EncodedFrame {
            is_key: i == 0,
            qp: 28,
            data: payload.finish(),
        })
        .collect();
    TileVideo::from_frames(TileCodec::Dct, w, h, &cfg, &frames)
}

/// A 16×16 keyframe (4 luma + 1 + 1 chroma blocks) of DC-only blocks.
fn flat_keyframe(levels: [i32; 6]) -> BitWriter {
    let mut w = BitWriter::new();
    for level in levels {
        if level == 0 {
            w.put_bit(false); // no residual coded
        } else {
            w.put_bit(true);
            w.put_ue(0); // one coefficient …
            w.put_ue(0); // … at zigzag position 0 …
            w.put_se(level); // … with this level
        }
    }
    w
}

fn decode_error(v: &TileVideo) -> DecodeError {
    match v.decode_all() {
        Err(ContainerError::Decode(e)) => e,
        other => panic!("expected a decode error, got {other:?}"),
    }
}

#[test]
fn misaligned_tile_dimensions_are_a_typed_error() {
    // The container format does not constrain dimensions to the 16-pixel
    // tile grid; the decoder's block loops do. Such a header (a corrupt one:
    // no encoder writes it) must be refused, not decoded past a plane's end.
    for (w, h) in [(24, 16), (16, 24), (8, 8), (18, 16), (30, 30)] {
        let v = handmade(w, h, true, vec![flat_keyframe([0; 6])]);
        let back =
            TileVideo::from_bytes(v.into_bytes()).expect("the container itself is well-formed");
        assert_eq!(
            decode_error(&back),
            DecodeError::InvalidSyntax("tile dimensions are not 16-aligned"),
            "{w}x{h}"
        );
    }
}

#[test]
fn dc_only_blocks_decode_to_flat_samples() {
    // The sparse inverse transform's DC-only case: level L at step 16 is
    // residual round(16 L / 8) = 2 L on every sample, over DC prediction
    // 128 for the first block of each plane and the neighbours' mean after.
    let v = handmade(16, 16, false, vec![flat_keyframe([10, 0, -5, 0, 3, -3])]);
    let (frames, stats) = v.decode_all().unwrap();
    assert_eq!(stats.frames_decoded, 1);
    let y = frames[0].plane(Plane::Y);
    let block = |bx: usize, by: usize| -> Vec<u8> {
        (0..64)
            .map(|i| y[(by * 8 + i / 8) * 16 + bx * 8 + i % 8])
            .collect()
    };
    assert_eq!(block(0, 0), vec![148; 64]); // 128 + 20
    assert_eq!(block(1, 0), vec![148; 64]); // left neighbour, no residual
    assert_eq!(block(0, 1), vec![138; 64]); // top neighbour 148, -10
    assert_eq!(block(1, 1), vec![143; 64]); // mean(148, 138), no residual
    assert_eq!(frames[0].plane(Plane::U), &[134; 64][..]); // 128 + 6
    assert_eq!(frames[0].plane(Plane::V), &[122; 64][..]); // 128 - 6
}

#[test]
fn skip_runs_end_exactly_or_with_a_typed_error() {
    let key = || flat_keyframe([10, 0, -5, 0, 3, -3]);
    // Six SKIP blocks are six one bits: the P-frame is its reference.
    let mut w = BitWriter::new();
    w.put_bits(0b111111, 6);
    let v = handmade(16, 16, true, vec![key(), w]);
    let (frames, _) = v.decode_all().unwrap();
    // (deblocking is applied to the P-frame again, as the encoder does)
    let mut again = frames[0].clone();
    tasm_codec::deblock::deblock_frame(&mut again, tasm_codec::quant::qstep(28));
    assert_eq!(frames[1], again);

    // An empty payload ends inside the run.
    let v = handmade(16, 16, true, vec![key(), BitWriter::new()]);
    assert_eq!(
        decode_error(&v),
        DecodeError::Bitstream(BitstreamError::UnexpectedEof)
    );

    // A long run in a larger tile, ending one block short of the frame:
    // 64×64 has 96 blocks; 95 ones and then the padding's zero bits, which
    // read as the start of an exp-Golomb prefix that never completes.
    let big_key = || {
        let mut w = BitWriter::new();
        for _ in 0..96 {
            w.put_bit(false);
        }
        w
    };
    let mut w = BitWriter::new();
    for _ in 0..95 {
        w.put_bit(true);
    }
    let v = handmade(64, 64, true, vec![big_key(), w]);
    assert_eq!(
        decode_error(&v),
        DecodeError::Bitstream(BitstreamError::UnexpectedEof)
    );
    // With the 96th, it decodes — to the (flat) reference.
    let mut w = BitWriter::new();
    for _ in 0..96 {
        w.put_bit(true);
    }
    let v = handmade(64, 64, true, vec![big_key(), w]);
    let (frames, stats) = v.decode_all().unwrap();
    assert_eq!(frames[1], frames[0]);
    assert_eq!(stats.blocks_decoded, 2 * 96);
}

#[test]
fn corrupt_syntax_beyond_the_fast_paths_is_a_typed_error() {
    let p_frame = |build: &dyn Fn(&mut BitWriter)| {
        let mut w = BitWriter::new();
        build(&mut w);
        // Enough trailing bytes that the reader's 64-bit window is full.
        for _ in 0..4 {
            w.put_bits(u32::MAX, 32);
        }
        handmade(16, 16, true, vec![flat_keyframe([0; 6]), w])
    };
    // A motion vector at the i32 limits is outside the tile; it must not
    // wrap around into it.
    for mv in [i32::MAX, i32::MAX - 3, i32::MIN + 1, -1, 9] {
        let v = p_frame(&|w| {
            w.put_ue(1);
            w.put_se(mv);
            w.put_se(0);
        });
        assert_eq!(
            decode_error(&v),
            DecodeError::InvalidSyntax("motion vector outside tile"),
            "mv {mv}"
        );
    }
    // A 32-zero exp-Golomb prefix: past the window's reach and past what
    // the format allows.
    let v = p_frame(&|w| {
        w.put_bits(0, 32);
        w.put_bits(1, 1);
    });
    assert_eq!(
        decode_error(&v),
        DecodeError::Bitstream(BitstreamError::CodeTooLong)
    );
    // The longest legal code (31-zero prefix, 63 bits) is read whole by the
    // bitwise path and is merely an unknown block mode.
    let v = p_frame(&|w| {
        w.put_bits(0, 31);
        w.put_bits(1, 1);
        w.put_bits(12345, 31);
    });
    assert_eq!(
        decode_error(&v),
        DecodeError::InvalidSyntax("unknown block mode")
    );
    // Levels at the i32 limits saturate through the dequantizer and clamp:
    // pixels, not a panic.
    let mut w = BitWriter::new();
    for level in [i32::MAX, i32::MIN + 1, i32::MAX, i32::MIN + 1, 1, -1] {
        w.put_bit(true);
        w.put_ue(1); // two coefficients
        w.put_ue(0);
        w.put_se(level);
        w.put_ue(7);
        w.put_se(-level);
    }
    let v = handmade(16, 16, true, vec![w]);
    let (frames, _) = v.decode_all().unwrap();
    assert_eq!(frames.len(), 1);
}

// ---------------------------------------------------------------------
// Hostile packs
// ---------------------------------------------------------------------

/// A store holding "v" — one 10-frame SOT of 64x64 in a 2x2 layout — with
/// the path and bytes of that SOT's pack and each tile's container bytes as
/// the store served them before anything was tampered with.
struct PackedStore {
    store: VideoStore,
    manifest: VideoManifest,
    pack_path: std::path::PathBuf,
    pack: Vec<u8>,
    tiles: Vec<Vec<u8>>,
    /// Declared after `store`, so the store has closed before its
    /// directory is removed.
    dir: TempDir,
}

/// Header plus table of a four-tile pack.
const TABLE_LEN: usize = 12 + 16 * 4;

fn packed_store(tag: &str) -> PackedStore {
    let dir = TempDir::new(&format!("pack-{tag}"));
    let store = VideoStore::open(dir.path()).expect("open");
    let src = VecFrameSource::new(
        (0..10)
            .map(|i| {
                let mut f = Frame::filled(64, 64, 90, 128, 128);
                for y in 0..64 {
                    for x in 0..64 {
                        f.set_sample(Plane::Y, x, y, ((x * 3 + y * 5 + i * 2) % 200 + 20) as u8);
                    }
                }
                f
            })
            .collect(),
    );
    let cfg = StorageConfig {
        gop_len: 5,
        sot_frames: 10,
        parallel_encode: false,
        ..Default::default()
    };
    let layout = TileLayout::uniform(64, 64, 2, 2).expect("layout");
    let (manifest, _) = store
        .ingest("v", &src, 30, cfg, move |_, _| layout.clone())
        .expect("ingest");
    let pack_path = dir.path().join("v").join("sot_000000_000010.tiles");
    let pack = std::fs::read(&pack_path).expect("pack");
    let tiles: Vec<Vec<u8>> = (0..4)
        .map(|t| {
            store
                .read_tile(&manifest, 0, t)
                .map(TileVideo::into_bytes)
                .expect("tile")
        })
        .collect();
    // The pack is its table, then the tiles verbatim and back to back.
    assert_eq!(pack[TABLE_LEN..], tiles.concat()[..]);
    PackedStore {
        store,
        manifest,
        pack_path,
        pack,
        tiles,
        dir,
    }
}

impl PackedStore {
    /// Every read of every tile of whatever is at `pack_path` now: a typed
    /// error, or exactly the tile the store was given.
    fn reads_are_errors_or_the_right_tile(&self, what: &str) {
        for (t, want) in self.tiles.iter().enumerate() {
            if let Ok(tile) = self.store.read_tile(&self.manifest, 0, t as u32) {
                assert_eq!(
                    tile.as_bytes(),
                    want,
                    "{what}: tile {t} served foreign bytes"
                );
            }
        }
        let _ = self.store.video_size_bytes(&self.manifest);
    }

    fn fsck_issues(&self) -> Vec<FsckIssue> {
        self.store.fsck(&[]).expect("fsck runs").issues
    }
}

/// Any byte of a pack's header or table changed to any other value, and
/// the pack cut short anywhere: reads are typed errors or the right tile,
/// and `fsck` always notices.
#[test]
fn mutated_and_truncated_pack_tables_are_typed_errors() {
    let p = packed_store("mutated");
    assert!(p.fsck_issues().is_empty());
    run_cases(256, proptest::seed_for("pack-table"), |rng| {
        let mut bad = p.pack.clone();
        let at = rng.gen_range(0..TABLE_LEN);
        let was = bad[at];
        while bad[at] == was {
            bad[at] = if rng.gen_range(0u32..4) == 0 {
                was ^ (1 << rng.gen_range(0u32..8))
            } else {
                rng.gen_range(0u32..256) as u8
            };
        }
        std::fs::write(&p.pack_path, &bad).expect("write mutated pack");
        let what = format!("byte {at}: {was:#04x} -> {:#04x}", bad[at]);
        p.reads_are_errors_or_the_right_tile(&what);
        let issues = p.fsck_issues();
        assert!(
            matches!(issues[..], [FsckIssue::PackCorrupt { sot_start: 0, .. }]),
            "{what}: {issues:?}"
        );

        let keep = rng.gen_range(0..p.pack.len());
        std::fs::write(&p.pack_path, &p.pack[..keep]).expect("write truncated pack");
        let what = format!("cut to {keep} of {} bytes", p.pack.len());
        p.reads_are_errors_or_the_right_tile(&what);
        assert!(!p.fsck_issues().is_empty(), "{what}");
        if keep < TABLE_LEN {
            for t in 0..4 {
                assert!(
                    p.store.read_tile(&p.manifest, 0, t).is_err(),
                    "{what}: tile {t} read without a table"
                );
            }
        }
    });
}

/// A pack that is there but unsound is its own error from
/// `video_size_bytes`, never a missing SOT: a bad magic is not `NotFound`,
/// a pack that is gone is.
#[test]
fn video_size_of_an_unsound_pack_is_not_a_missing_sot() {
    let p = packed_store("size");
    let mut bad = p.pack.clone();
    bad[0] ^= 0xff;
    std::fs::write(&p.pack_path, &bad).expect("write bad magic");
    let err = p.store.video_size_bytes(&p.manifest).unwrap_err();
    assert!(!matches!(err, StoreError::NotFound(_)), "{err}");
    std::fs::remove_file(&p.pack_path).expect("remove pack");
    let err = p.store.video_size_bytes(&p.manifest).unwrap_err();
    assert!(matches!(err, StoreError::NotFound(_)), "{err}");
}

/// Tables that are sound by themselves and wrong about the pack: a last
/// range past the end of the file, ranges that overlap, a tile count other
/// than the layout's, and lengths that disagree with the containers' own.
#[test]
fn pack_tables_at_odds_with_their_pack_are_typed_errors() {
    let p = packed_store("at-odds");
    let entry = |t: usize| 12 + 16 * t;
    let set_u64 = |pack: &mut [u8], at: usize, v: u64| {
        pack[at..at + 8].copy_from_slice(&v.to_le_bytes());
    };
    let u64_at = |at: usize| u64::from_le_bytes(p.pack[at..at + 8].try_into().unwrap());
    let invalid_data = |r: Result<TileVideo, StoreError>| matches!(r, Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData);

    // The last tile's range runs past the end of the file.
    let mut bad = p.pack.clone();
    set_u64(&mut bad, entry(3) + 8, u64_at(entry(3) + 8) + 1);
    std::fs::write(&p.pack_path, &bad).unwrap();
    assert!(matches!(
        p.store.read_tile(&p.manifest, 0, 3),
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
    ));
    assert!(p.store.read_tile(&p.manifest, 0, 0).is_ok());
    assert!(matches!(
        p.fsck_issues()[..],
        [FsckIssue::PackCorrupt { .. }]
    ));

    // Tile 1 laid over tile 0: no tile is served at all.
    let mut bad = p.pack.clone();
    set_u64(&mut bad, entry(1), u64_at(entry(0)));
    std::fs::write(&p.pack_path, &bad).unwrap();
    for t in 0..4 {
        assert!(
            invalid_data(p.store.read_tile(&p.manifest, 0, t)),
            "tile {t}"
        );
    }
    assert!(matches!(
        p.fsck_issues()[..],
        [FsckIssue::PackCorrupt { .. }]
    ));

    // A manifest whose layout has another number of tiles than the pack.
    std::fs::write(&p.pack_path, &p.pack).unwrap();
    let mut other = p.manifest.clone();
    other.sots[0].layout = TileLayout::uniform(64, 64, 1, 2).expect("layout");
    assert!(invalid_data(p.store.read_tile(&other, 0, 0)));
    assert!(matches!(
        p.store.read_tile(&p.manifest, 0, 4),
        Err(StoreError::NotFound(_))
    ));

    // The last tile one byte short: its container says so. One byte long,
    // the file padded to match: the table is sound, the container is not.
    let mut bad = p.pack.clone();
    set_u64(&mut bad, entry(3) + 8, u64_at(entry(3) + 8) - 1);
    bad.pop();
    std::fs::write(&p.pack_path, &bad).unwrap();
    assert!(matches!(
        p.store.read_tile(&p.manifest, 0, 3),
        Err(StoreError::Container(ContainerError::Truncated))
    ));
    assert!(matches!(
        p.fsck_issues()[..],
        [FsckIssue::TileCorrupt { tile: 3, .. }]
    ));
    let mut bad = p.pack.clone();
    set_u64(&mut bad, entry(3) + 8, u64_at(entry(3) + 8) + 1);
    bad.push(0);
    std::fs::write(&p.pack_path, &bad).unwrap();
    assert!(matches!(
        p.store.read_tile(&p.manifest, 0, 3),
        Err(StoreError::Container(ContainerError::InvalidHeader(_)))
    ));
    assert!(matches!(
        p.fsck_issues()[..],
        [FsckIssue::TileCorrupt { tile: 3, .. }]
    ));
    p.reads_are_errors_or_the_right_tile("padded last tile");

    // Trailing bytes the table does not account for.
    let mut bad = p.pack.clone();
    bad.push(0);
    std::fs::write(&p.pack_path, &bad).unwrap();
    assert!(matches!(
        p.fsck_issues()[..],
        [FsckIssue::PackCorrupt { .. }]
    ));
}

/// A replica builds its pack from bytes that already passed the install
/// checks (`fsck`'s own comparisons, tile by tile), with the code an
/// ingest builds one with: the pack it files is the primary's, byte for
/// byte, whether the SOT arrived with the whole video or as a later epoch —
/// so an install needs, and has, no pack check of its own.
#[test]
fn a_replicas_pack_is_the_primarys_byte_for_byte() {
    let p = packed_store("replica-src");
    let replica_dir = TempDir::new("pack-replica");
    let replica_root = replica_dir.path();
    let replica = VideoStore::open(replica_root).expect("open replica");
    replica
        .install_video(&p.manifest, std::slice::from_ref(&p.tiles))
        .expect("install video");
    let replica_pack = replica_root.join("v").join("sot_000000_000010.tiles");
    assert_eq!(std::fs::read(&replica_pack).expect("replica pack"), p.pack);

    let mut manifest = p.manifest.clone();
    p.store
        .retile(&mut manifest, 0, TileLayout::untiled(64, 64))
        .expect("retile");
    let tile = (p
        .store
        .read_tile(&manifest, 0, 0)
        .map(TileVideo::into_bytes))
    .expect("tile");
    let retired = replica
        .install_sot(&manifest, 0, std::slice::from_ref(&tile))
        .expect("install SOT");
    replica.gc_epoch("v", retired).expect("gc");
    let next = "sot_000000_000010_r000001.tiles";
    assert_eq!(
        std::fs::read(replica_root.join("v").join(next)).expect("replica pack"),
        std::fs::read(p.dir.path().join("v").join(next)).expect("primary pack")
    );
    assert!(!replica_pack.exists(), "the superseded epoch is reclaimed");
    assert!(replica.fsck(&[]).expect("fsck").is_clean());
}

// ---------------------------------------------------------------------
// One reader per pack
// ---------------------------------------------------------------------

/// The production filesystem, counting how often each file is opened for
/// reading.
#[derive(Default)]
struct OpenCounter {
    /// Taken as is on poison: one insert per open.
    opens: std::sync::Mutex<std::collections::BTreeMap<PathBuf, u32>>,
}

impl OpenCounter {
    /// Opens per file since the last call, forgetting them.
    fn take(&self) -> Vec<(String, u32)> {
        let opens = std::mem::take(&mut *tasm_obs::sync::lock(&self.opens));
        opens
            .into_iter()
            .map(|(path, n)| (path.file_name().unwrap().to_string_lossy().into_owned(), n))
            .collect()
    }
}

impl StorageIo for OpenCounter {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealIo.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        RealIo.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        RealIo.append(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_dir_all(path)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        RealIo.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        RealIo.is_dir(path)
    }
    fn list_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        RealIo.list_dir(path)
    }
    fn open(&self, path: &Path) -> std::io::Result<std::fs::File> {
        *tasm_obs::sync::lock(&self.opens)
            .entry(path.to_path_buf())
            .or_default() += 1;
        RealIo.open(path)
    }
}

/// 20 frames of 128x96 in two 10-frame SOTs, each stored as a 3x4 layout,
/// through `io`.
fn ingest_3x4(store: &VideoStore) -> VideoManifest {
    let src = VecFrameSource::new(
        (0..20)
            .map(|i| {
                let mut f = Frame::filled(128, 96, 90, 128, 128);
                f.fill_rect(Rect::new(i * 4, 16 + i, 24, 20), 230, 90, 160);
                f
            })
            .collect(),
    );
    let cfg = StorageConfig {
        gop_len: 5,
        sot_frames: 10,
        parallel_encode: false,
        ..Default::default()
    };
    let layout = TileLayout::uniform(128, 96, 3, 4).expect("layout");
    store
        .ingest("v", &src, 30, cfg, move |_, _| layout.clone())
        .expect("ingest")
        .0
}

/// A re-tile decodes its SOT from one open of the SOT's pack, however many
/// tiles it holds, and a replication snapshot reads each SOT's pack once.
#[test]
fn each_pack_is_opened_once_per_retile_and_per_snapshot() {
    let dir = TempDir::new("pack-opens");
    let counter = Arc::new(OpenCounter::default());
    let tasm = Tasm::open_with_io(
        dir.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
        counter.clone(),
    )
    .expect("open");
    let mut manifest = ingest_3x4(tasm.store());
    tasm.attach("v").expect("attach");
    counter.take();

    tasm.replication_snapshot("v").expect("snapshot");
    let snapshot = counter.take();
    tasm.store()
        .retile(&mut manifest, 0, TileLayout::untiled(128, 96))
        .expect("retile");
    let retile = counter.take();
    let pack = |name: &str| (name.to_string(), 1);
    let packs = [
        pack("sot_000000_000010.tiles"),
        pack("sot_000010_000020.tiles"),
    ];
    assert_eq!((snapshot, retile), (packs.to_vec(), packs[..1].to_vec()));
}

/// A replication delta reads only the SOTs it ships: once SOT 0 of two is
/// re-tiled, the hook's delta to its one backup opens SOT 0's new pack on
/// the primary and no other.
#[test]
fn a_replication_delta_opens_only_the_packs_it_ships() {
    let dir = TempDir::new("pack-opens-delta");
    let counter = Arc::new(OpenCounter::default());
    let primary = Arc::new(
        Tasm::open_with_io(
            dir.path().join("primary"),
            Box::new(MemoryIndex::in_memory()),
            TasmConfig::default(),
            counter.clone(),
        )
        .expect("open primary"),
    );
    ingest_3x4(primary.store());
    primary.attach("v").expect("attach");
    let backup = Tasm::open(
        dir.path().join("backup"),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .expect("open backup");
    let backup = TasmServer::bind(
        Arc::new(backup),
        ServiceConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind backup");
    let hook = ReplicatorHook::bootstrap(Arc::clone(&primary), &[backup.local_addr().to_string()])
        .expect("full sync");
    primary
        .retile("v", 0, TileLayout::untiled(128, 96))
        .expect("retile");
    counter.take();

    hook.retiled("v").expect("delta");
    let shipped = ("sot_000000_000010_r000001.tiles".to_string(), 1);
    assert_eq!(counter.take(), vec![shipped]);
}

/// A tile that parses but does not fit its manifest slot is refused where
/// it is read for shipping, not first by every backup it would reach.
#[test]
fn a_snapshot_of_a_tile_that_does_not_fit_its_slot_is_refused_at_the_primary() {
    let dir = TempDir::new("pack-snapshot-slot");
    let tasm = Tasm::open(
        dir.path(),
        Box::new(MemoryIndex::in_memory()),
        TasmConfig::default(),
    )
    .expect("open");
    ingest_3x4(tasm.store());
    tasm.attach("v").expect("attach");
    tasm.replication_snapshot("v").expect("a sound snapshot");

    // Tile 0's width field: a whole container, the wrong size for its slot.
    let pack_path = dir.path().join("v").join("sot_000010_000020.tiles");
    let mut pack = std::fs::read(&pack_path).expect("pack");
    pack[12 + 16 * 12 + 5] ^= 0x40;
    std::fs::write(&pack_path, &pack).expect("write pack");
    match tasm.replication_snapshot("v") {
        Err(TasmError::Store(StoreError::TileMismatch {
            sot_start: 10,
            tile: 0,
            detail,
        })) => assert!(detail.contains("layout rect is 32x32"), "{detail}"),
        other => panic!("{:?}", other.map(|(m, _)| m.epoch())),
    }
}
