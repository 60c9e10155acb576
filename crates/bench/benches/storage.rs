//! Criterion benchmark of what it costs to make a re-tile durable, apart
//! from transcoding it: `storage/retile_commit_{6,16,30}` installs the next
//! layout epoch of one 640×352×30 SOT from ready-made tiles — the pack's
//! write, the commit (manifest replaced) and the reclaim of the superseded
//! epoch — at 6, 16 and 30 tiles of the same total payload, 1.5 MB. The
//! rows differ only in how the bytes are split, so a row that grows with
//! the tile count is paying per tile (files, fsyncs), not per byte.

use criterion::{criterion_group, criterion_main, Criterion};
use tasm_codec::{EncodedFrame, TileCodec, TileLayout, TileVideo};
use tasm_core::{SotEntry, StorageConfig, VideoManifest, VideoStore};
use tasm_suite::TempDir;

const FRAMES: u32 = 30;
const TOTAL_PAYLOAD: usize = 1_500_000;

/// A structurally valid tile container of `w`×`h` holding `payload` bytes
/// split evenly over its frames. It would not decode; nothing here decodes.
fn synthetic_tile(w: u32, h: u32, payload: usize) -> Vec<u8> {
    let cfg = StorageConfig::default();
    let frames = (0..FRAMES)
        .map(|i| EncodedFrame {
            is_key: i == 0,
            qp: cfg.qp,
            data: vec![0xa5; payload / FRAMES as usize].into(),
        })
        .collect();
    let tile = TileVideo {
        width: w,
        height: h,
        gop_len: cfg.gop_len,
        qp: cfg.qp,
        deblock: cfg.deblock,
        codec: TileCodec::Dct,
        frames,
    };
    tile.to_bytes().to_vec()
}

fn retile_commit_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    for (rows, cols) in [(2, 3), (4, 4), (5, 6)] {
        let layout = TileLayout::uniform(640, 352, rows, cols).expect("layout");
        let count = layout.tile_count() as usize;
        let tiles: Vec<Vec<u8>> = layout
            .tiles()
            .map(|(_, rect)| synthetic_tile(rect.w, rect.h, TOTAL_PAYLOAD / count))
            .collect();
        let mut manifest = VideoManifest {
            name: "v".to_string(),
            width: 640,
            height: 352,
            fps: 30,
            frame_count: FRAMES,
            config: StorageConfig::default(),
            sots: vec![SotEntry {
                start: 0,
                end: FRAMES,
                layout,
                retile_count: 0,
                tile_codecs: vec![TileCodec::Dct.id(); count],
            }],
        };
        let dir = TempDir::new(&format!("bench-retile-commit-{count}"));
        let store = VideoStore::open(dir.path()).expect("open");
        store
            .install_video(&manifest, std::slice::from_ref(&tiles))
            .expect("install");
        g.bench_function(format!("retile_commit_{count}"), |b| {
            b.iter(|| {
                manifest.sots[0].retile_count += 1;
                store.install_sot(&manifest, 0, &tiles).expect("commit");
            })
        });
    }
    g.finish();
}

criterion_group!(benches, retile_commit_benches);
criterion_main!(benches);
