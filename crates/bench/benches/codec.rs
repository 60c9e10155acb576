//! Criterion microbenchmarks of the codec substrate: encode and decode
//! throughput, tiled vs untiled, and stitching tiles back into frames.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tasm_codec::bitstream::{BitReader, BitWriter};
use tasm_codec::blockops::{load_block, ZIGZAG};
use tasm_codec::dct::{forward, Inverse, BLOCK, BLOCK_AREA};
use tasm_codec::deblock::deblock_frame;
use tasm_codec::quant::qstep;
use tasm_codec::{
    encode_video, EncoderConfig, StitchedVideo, TileCodec, TileEncoder, TileLayout, TileVideo,
};
use tasm_data::{Dataset, SceneSpec, SyntheticVideo};
use tasm_video::{Frame, FrameSource, Plane, Rect, VecFrameSource};

fn scene(frames: u32) -> VecFrameSource {
    let v = SyntheticVideo::new(SceneSpec {
        width: 320,
        height: 192,
        frames,
        ..SceneSpec::test_scene()
    });
    VecFrameSource::new((0..frames).map(|i| v.frame(i)).collect())
}

/// The luma 8×8 blocks of `frames`, less their means, that hold an AC level
/// at `qstep`: under a flat prediction these carry a coded residual wherever
/// they are placed, whatever the prediction is.
fn busy_blocks(frames: &[Frame], qstep: i32) -> Vec<[i32; BLOCK_AREA]> {
    let mut blocks = Vec::new();
    for f in frames {
        let (w, luma) = (f.width() as usize, f.plane(Plane::Y));
        for y in (0..f.height() as usize).step_by(BLOCK) {
            for x in (0..w).step_by(BLOCK) {
                let mut block = load_block(luma, w, x, y);
                let mean = block.iter().sum::<i32>() / BLOCK_AREA as i32;
                block.iter_mut().for_each(|v| *v -= mean);
                if forward(&block)[1..].iter().any(|c| 2 * c.abs() >= qstep) {
                    blocks.push(block);
                }
            }
        }
    }
    blocks
}

/// `count` dequantised blocks shaped like the coded blocks the ledger corpus
/// decodes: 1 % DC-only, the rest 8–15 nonzero coefficients (11.4 on
/// average, in 5.7 rows × 4.9 columns) among the first 24 scan positions,
/// |coef| ≤ 400 and mostly a few steps of 16.
fn coded_blocks(count: usize) -> Vec<[i32; BLOCK_AREA]> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as u32
    };
    (0..count)
        .map(|i| {
            let mut positions = 1u32;
            if i % 100 != 0 {
                let nonzero = 8 + next() % 8;
                while positions.count_ones() < nonzero {
                    positions |= 1 << (next() % 24);
                }
            }
            let mut coef = [0i32; BLOCK_AREA];
            for (pos, &at) in ZIGZAG.iter().enumerate().take(24) {
                if positions >> pos & 1 == 1 {
                    let r = next();
                    let steps = if r % 8 == 0 {
                        1 + (r >> 8) % 25
                    } else {
                        1 + (r >> 8) % 3
                    };
                    coef[at] = if r & 16 == 0 { 16 } else { -16 } * steps as i32;
                }
            }
            coef
        })
        .collect()
}

/// A frame whose three planes are tiled with `blocks` (from `first` on, in
/// turn) around `level`, each sample plus what `under` holds there.
fn mosaic(
    blocks: &[[i32; BLOCK_AREA]],
    first: usize,
    level: i32,
    under: Option<&Frame>,
    (w, h): (u32, u32),
) -> Frame {
    let mut frame = Frame::black(w, h);
    let mut next = first;
    for plane in Plane::ALL {
        let pw = frame.plane_width(plane) as usize;
        let ph = frame.plane_height(plane) as usize;
        for y in (0..ph).step_by(BLOCK) {
            for x in (0..pw).step_by(BLOCK) {
                let block = &blocks[next % blocks.len()];
                next += 1;
                for (i, &v) in block.iter().enumerate() {
                    let at = (y + i / BLOCK) * pw + x + i % BLOCK;
                    let base = under.map_or(level, |f| f.plane(plane)[at] as i32);
                    frame.plane_mut(plane)[at] = (base + v).clamp(0, 255) as u8;
                }
            }
        }
    }
    frame
}

/// The perf ledger's geometry — one 640×352, GOP-30 VisualRoad second, the
/// clip its `cold_select` workload decodes — rather than the 320×192 test
/// scene: whole-GOP decode untiled and 2×2 and the two kernels under it,
/// then the write path: one SOT's encode untiled and 3×4 from the rendered
/// frames, and 3×4 from the decoded ones a re-tile starts from, and the
/// coded-block path (encode and decode) and its transforms and bit writer
/// alone.
fn ledger_geometry_benches(c: &mut Criterion) {
    let (w, h, frames) = (640u32, 352u32, 30u32);
    let video = Dataset::VisualRoad2K.build(1, 11);
    let src = VecFrameSource::new((0..frames).map(|i| video.frame(i)).collect());
    let cfg = EncoderConfig::default();
    let untiled = encode_video(&src, &TileLayout::untiled(w, h), &cfg)
        .unwrap()
        .0;
    let tiled = encode_video(&src, &TileLayout::uniform(w, h, 2, 2).unwrap(), &cfg)
        .unwrap()
        .0;
    let samples = u64::from(w * h) * 3 / 2;

    let mut g = c.benchmark_group("decode");
    g.sample_size(20);
    g.throughput(Throughput::Elements(u64::from(frames) * samples));
    for (name, tiles) in [
        ("640x352_gop30_untiled", &untiled),
        ("640x352_gop30_2x2", &tiled),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                tiles
                    .iter()
                    .map(|t| t.decode_all().unwrap().0.len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();

    let decoded = untiled[0].decode_range(29..30).unwrap().0.remove(0);
    let mut g = c.benchmark_group("deblock");
    g.sample_size(20);
    g.throughput(Throughput::Elements(samples));
    g.bench_function("640x352", |b| {
        b.iter_batched(
            || decoded.clone(),
            |mut f| {
                deblock_frame(&mut f, qstep(cfg.qp));
                f
            },
            BatchSize::LargeInput,
        )
    });
    // The ledger's layouts are mostly narrow tiles, where a band's set-up
    // weighs more: the same frame's top 640×288 as twelve 160×96 tiles.
    let (tw, th) = (160u32, 96u32);
    let tiles: Vec<Frame> = (0..12)
        .map(|i| decoded.crop(Rect::new(i % 4 * tw, i / 4 * th, tw, th)))
        .collect();
    g.throughput(Throughput::Elements(12 * u64::from(tw * th) * 3 / 2));
    g.bench_function("160x96", |b| {
        b.iter_batched(
            || tiles.clone(),
            |mut tiles| {
                for f in &mut tiles {
                    deblock_frame(f, qstep(cfg.qp));
                }
                tiles
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // Runs, levels and counts as a coded block has them — mostly tiny
    // values, a few large ones — in an order no branch predictor can learn.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let codes: Vec<u32> = (0..4096)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 32) as u32;
            match r % 16 {
                0 => 37 + (r >> 8) % 200,
                1 | 2 => 3 + (r >> 8) % 5,
                _ => (r >> 8) % 3,
            }
        })
        .collect();
    let mut bits = BitWriter::new();
    for &v in &codes {
        bits.put_ue(v);
    }
    let stream = bits.finish();
    let mut g = c.benchmark_group("bitreader");
    g.sample_size(20);
    g.throughput(Throughput::Elements(codes.len() as u64));
    g.bench_function("ue", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&stream);
            (0..codes.len()).fold(0u32, |acc, _| acc.wrapping_add(r.get_ue().unwrap()))
        })
    });
    g.finish();

    // The same mix as a block's (run, level) pairs — every second value a
    // signed level — read by the joint table step and by two walks.
    let pairs: Vec<(u32, i32)> = codes
        .chunks_exact(2)
        .map(|c| (c[0], (c[1] as i32 + 1) * if c[0] % 2 == 0 { 1 } else { -1 }))
        .collect();
    let mut bits = BitWriter::new();
    for &(run, level) in &pairs {
        bits.put_ue(run);
        bits.put_se(level);
    }
    let stream = bits.finish();
    let two_walk = |r: &mut BitReader<'_>| (r.get_ue().unwrap(), r.get_se().unwrap());
    let mut g = c.benchmark_group("bitreader");
    g.sample_size(20);
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("run_level", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&stream);
            (0..pairs.len()).fold(0u32, |acc, _| {
                let (run, level) = r.get_run_level().unwrap_or_else(|| two_walk(&mut r));
                acc.wrapping_add(run).wrapping_add(level as u32)
            })
        })
    });
    g.bench_function("run_level_two_walk", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&stream);
            (0..pairs.len()).fold(0u32, |acc, _| {
                let (run, level) = two_walk(&mut r);
                acc.wrapping_add(run).wrapping_add(level as u32)
            })
        })
    });
    g.finish();

    // Writing those pairs, a run and a level at a time.
    let mut g = c.benchmark_group("bitwriter");
    g.sample_size(20);
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("run_level", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &(run, level) in &pairs {
                w.put_ue(run);
                w.put_se(level);
            }
            w.finish()
        })
    });
    g.finish();

    // The coded-block path alone, per block. The first frame is the scene's
    // own busy blocks side by side: as a keyframe every block carries a
    // residual (11 levels each). The second lays other busy blocks over the
    // first, so a P-frame codes 96 % of them as INTER with a residual (15
    // levels each; the rest SKIP). No motion search, no deblocking: predict,
    // transform, quantize, write, reconstruct.
    let size = (w, h);
    let busy = busy_blocks(&src.frames()[..2], qstep(cfg.qp));
    assert!(busy.len() as u64 * 2 > samples / BLOCK_AREA as u64);
    let key = mosaic(&busy, 0, 128, None, size);
    let over = mosaic(&busy, busy.len() / 2, 0, Some(&key), size);
    let blocks = samples / BLOCK_AREA as u64;
    let block_cfg = EncoderConfig {
        search_range: 0,
        deblock: false,
        ..cfg
    };
    let mut g = c.benchmark_group("encode");
    g.sample_size(20);
    g.throughput(Throughput::Elements(blocks));
    g.bench_function("coded_block_intra", |b| {
        b.iter(|| TileEncoder::new(block_cfg, key.rect()).encode_next(&key))
    });
    g.bench_function("coded_block_inter", |b| {
        b.iter_batched(
            || {
                let mut enc = TileEncoder::new(block_cfg, key.rect());
                enc.encode_next(&key);
                enc
            },
            |mut enc| enc.encode_next(&over),
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // Decoding those two frames back through the span decoder the store
    // uses: every block of the keyframe and 96 % of the P-frame's are coded,
    // at twice the coded blocks per sample of `decode/640x352_gop30_*`
    // (about what `cold_select`'s queries decode).
    let mut enc = TileEncoder::new(block_cfg, key.rect());
    let pair = TileVideo {
        width: w,
        height: h,
        gop_len: block_cfg.gop_len,
        qp: block_cfg.qp,
        deblock: false,
        codec: TileCodec::Dct,
        frames: vec![enc.encode_next(&key), enc.encode_next(&over)],
    };
    let reference = pair.decode_range(0..1).unwrap().0.remove(0);
    let mut g = c.benchmark_group("decode");
    g.sample_size(20);
    g.throughput(Throughput::Elements(blocks));
    g.bench_function("coded_block_intra", |b| {
        b.iter(|| pair.decode_range(0..1).unwrap())
    });
    g.bench_function("coded_block_inter", |b| {
        b.iter(|| pair.decode_resume(1, 2, Some(&reference)).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("dct");
    g.sample_size(20);
    g.throughput(Throughput::Elements(busy.len() as u64));
    g.bench_function("forward", |b| {
        b.iter(|| {
            busy.iter()
                .fold(0i32, |acc, block| acc.wrapping_add(forward(block)[9]))
        })
    });
    g.finish();

    // The inverse transform over blocks shaped like the ledger corpus's
    // coded blocks, their coefficients fed in scan order as the decoder's
    // parse feeds them, per block.
    let coded: Vec<Vec<(usize, i32)>> = coded_blocks(4096)
        .iter()
        .map(|coef| {
            ZIGZAG
                .iter()
                .filter(|&&at| coef[at] != 0)
                .map(|&at| (at, coef[at]))
                .collect()
        })
        .collect();
    let mut g = c.benchmark_group("dct");
    g.sample_size(20);
    g.throughput(Throughput::Elements(coded.len() as u64));
    g.bench_function("inverse", |b| {
        let mut inverse = Inverse::default();
        b.iter(|| {
            coded.iter().fold(0i32, |mut acc, scan| {
                for &(at, coef) in scan {
                    inverse.add(at, coef);
                }
                inverse.finish_rows(|_, row| acc = acc.wrapping_add(row[1]));
                acc
            })
        })
    });
    g.finish();

    let mut g = c.benchmark_group("encode");
    g.sample_size(10);
    g.throughput(Throughput::Elements(u64::from(frames) * samples));
    let grid = TileLayout::uniform(w, h, 3, 4).unwrap();
    for (name, layout) in [("untiled", &TileLayout::untiled(w, h)), ("3x4", &grid)] {
        g.bench_function(format!("640x352_gop30_{name}_dct"), |b| {
            b.iter(|| encode_video(&src, layout, &cfg).unwrap())
        });
    }
    // What a re-tile feeds the encoder: the untiled SOT's decoded frames.
    let redecoded = VecFrameSource::new(untiled[0].decode_all().unwrap().0);
    g.bench_function("640x352_gop30_3x4_dct_redecoded", |b| {
        b.iter(|| encode_video(&redecoded, &grid, &cfg).unwrap())
    });
    g.finish();
}

fn encode_benches(c: &mut Criterion) {
    let src = scene(30);
    let samples = 30u64 * 320 * 192 * 3 / 2;
    let cfg = EncoderConfig {
        gop_len: 30,
        ..Default::default()
    };

    let mut g = c.benchmark_group("codec/encode");
    g.sample_size(10);
    g.throughput(Throughput::Elements(samples));
    g.bench_function("untiled_30f", |b| {
        let layout = TileLayout::untiled(320, 192);
        b.iter(|| encode_video(&src, &layout, &cfg).unwrap())
    });
    g.bench_function("tiled_2x2_30f", |b| {
        let layout = TileLayout::uniform(320, 192, 2, 2).unwrap();
        b.iter(|| encode_video(&src, &layout, &cfg).unwrap())
    });
    g.bench_function("no_motion_search_30f", |b| {
        let layout = TileLayout::untiled(320, 192);
        let cfg = EncoderConfig {
            search_range: 0,
            ..cfg
        };
        b.iter(|| encode_video(&src, &layout, &cfg).unwrap())
    });
    g.finish();
}

fn decode_benches(c: &mut Criterion) {
    let src = scene(30);
    let cfg = EncoderConfig {
        gop_len: 30,
        ..Default::default()
    };
    let untiled = {
        let layout = TileLayout::untiled(320, 192);
        encode_video(&src, &layout, &cfg).unwrap().0.remove(0)
    };
    let layout4 = TileLayout::uniform(320, 192, 2, 2).unwrap();
    let tiled = encode_video(&src, &layout4, &cfg).unwrap().0;

    let mut g = c.benchmark_group("codec/decode");
    g.sample_size(20);
    g.throughput(Throughput::Elements(30u64 * 320 * 192 * 3 / 2));
    g.bench_function("full_gop_untiled", |b| {
        b.iter(|| untiled.decode_all().unwrap())
    });
    g.bench_function("single_tile_of_4", |b| {
        b.iter(|| tiled[0].decode_all().unwrap())
    });
    g.bench_function("range_with_warmup", |b| {
        b.iter(|| untiled.decode_range(20..30).unwrap())
    });
    g.finish();
}

fn stitch_benches(c: &mut Criterion) {
    let src = scene(30);
    let cfg = EncoderConfig {
        gop_len: 30,
        ..Default::default()
    };
    let layout = TileLayout::uniform(320, 192, 2, 2).unwrap();
    let tiles = encode_video(&src, &layout, &cfg).unwrap().0;

    // The walk a re-tile decodes its SOT through: every tile a frame at a
    // time, composited into one canvas.
    let mut g = c.benchmark_group("codec/stitch");
    g.sample_size(20);
    g.bench_function("decode_stitched_30f", |b| {
        b.iter(|| {
            let mut sv = StitchedVideo::new(&layout, &tiles).unwrap();
            for f in 0..sv.frame_count() {
                sv.frame(f).unwrap();
            }
            sv.stats()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ledger_geometry_benches,
    encode_benches,
    decode_benches,
    stitch_benches
);
criterion_main!(benches);
