//! Criterion benchmarks of the served byte path.
//!
//! `wire/stream_40_regions` isolates the result stream: one cache-warm
//! query whose answer is 40 regions, reactor server → `Connection` on
//! loopback, so what is timed is region encode, the vectored socket writes,
//! the buffered frame assembly and the plane copies — nothing decodes.
//! `wire/stream_40_regions_x200` is 200 such answers in a row over the one
//! connection. Whole served queries (queueing, cache, router hop) are the
//! perf ledger's `warm_serve` and `routed_evict` workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tasm_bench::{micro_partition, BenchDir};
use tasm_client::Connection;
use tasm_core::{Granularity, LabelPredicate, Query, StorageConfig, Tasm, TasmConfig};
use tasm_data::{SceneSpec, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::ServiceConfig;
use tasm_video::FrameSource;

const FRAMES: u32 = 60;

fn scene() -> SyntheticVideo {
    SyntheticVideo::new(SceneSpec {
        width: 256,
        height: 160,
        frames: FRAMES,
        seed: 23,
        ..SceneSpec::test_scene()
    })
}

/// The scene ingested and tiled around cars in `dir`, then reopened: a
/// fresh `Tasm` with the index populated from ground truth and a cold
/// decoded-GOP cache large enough to hold the whole video.
fn warm_tasm(dir: &BenchDir, video: &SyntheticVideo) -> Arc<Tasm> {
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 10,
            sot_frames: 10,
            ..Default::default()
        },
        partition: micro_partition(Granularity::Fine),
        workers: 1,
        cache_bytes: 128 << 20,
        ..Default::default()
    };
    let open =
        || Tasm::open(dir.path(), Box::new(MemoryIndex::in_memory()), cfg.clone()).expect("open");
    let populate = |tasm: &Tasm| {
        for f in 0..video.len() {
            for (l, b) in video.ground_truth(f) {
                tasm.add_metadata("v", l, f, b).expect("metadata");
            }
            tasm.mark_processed("v", f).expect("mark");
        }
    };
    let prepared = open();
    prepared.ingest("v", video, 30).expect("ingest");
    populate(&prepared);
    prepared
        .kqko_retile_all("v", &["car".to_string()])
        .expect("pre-tile");
    drop(prepared);
    let tasm = open();
    tasm.attach("v").expect("attach");
    populate(&tasm);
    Arc::new(tasm)
}

/// One connection streaming a 40-region answer out of a warm cache.
fn stream_bench(c: &mut Criterion) {
    let video = scene();
    let dir = BenchDir::new("remote");
    let server = TasmServer::bind(
        warm_tasm(&dir, &video),
        ServiceConfig {
            workers: 1,
            queue_depth: 64,
            ..Default::default()
        },
        ServerConfig {
            max_connections: 64,
            max_inflight: 8,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback server");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    let car = || Query::new(LabelPredicate::label("car"));
    // The shortest window from frame 0 whose answer reaches 40 regions,
    // cut to exactly 40 by dropping whole frames off its front.
    let regions = |q: &Query, conn: &mut Connection| conn.query("v", q).expect("query").regions;
    let end = (1..=FRAMES)
        .find(|&end| regions(&car().frames(0..end), &mut conn).len() >= 40)
        .expect("the scene holds 40 car regions");
    let start = (0..end)
        .find(|&start| regions(&car().frames(start..end), &mut conn).len() <= 40)
        .expect("some window");
    let query = car().frames(start..end);
    let answer = regions(&query, &mut conn);
    assert_eq!(answer.len(), 40, "frames {start}..{end}");
    let bytes: u64 = answer.iter().map(|r| r.pixels.sample_count()).sum();
    eprintln!("wire/stream_40_regions: frames {start}..{end}, {bytes} pixel bytes per answer");

    let mut g = c.benchmark_group("wire");
    g.bench_function("stream_40_regions", |b| {
        b.iter(|| regions(&query, &mut conn).len())
    });
    // The steady state the server's buffer pools exist for: every answer
    // after the first is built in the canvases and frame buffers of the one
    // before it.
    g.sample_size(10);
    g.bench_function("stream_40_regions_x200", |b| {
        b.iter(|| {
            (0..200)
                .map(|_| regions(&query, &mut conn).len())
                .sum::<usize>()
        })
    });
    g.finish();
    conn.goodbye().expect("goodbye");
    server.shutdown();
}

criterion_group!(benches, stream_bench);
criterion_main!(benches);
