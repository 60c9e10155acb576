//! Criterion benchmarks of the networked serving layer: loopback loadgen
//! throughput at connection-pool sizes 1 / 4 / 16 against the reactor
//! server, with the submit→complete latency percentiles, next to an
//! in-process `QueryService` run of the same workload so the wire +
//! session overhead is directly visible. Large fan-in is checked, not timed: CI's
//! `reactor-smoke` job holds 512 connections out of process, and
//! `tests/panic_safety.rs` pins the reactor's thread count and bit-exact
//! answers with 256 sessions open.
//!
//! `wire/stream_40_regions` isolates the result stream's byte path: one
//! cache-warm query whose answer is 40 regions, reactor server →
//! `Connection` on loopback, so what is timed is region encode, the
//! vectored socket writes, the buffered frame assembly and the plane
//! copies — nothing decodes. `wire/stream_40_regions_x200` is 200 such
//! answers in a row over the one connection.
//!
//! The workload mirrors `benches/service.rs`: overlapping windows over one
//! video so the decoded-GOP cache and shared-scan dedup carry most
//! repeats, leaving the serving layer itself as the measured quantity.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_bench::{bench_dir, micro_partition, scaled_count};
use tasm_client::{Connection, LoadGen, LoadGenConfig, LoadReport};
use tasm_core::{Granularity, LabelPredicate, Query, StorageConfig, Tasm, TasmConfig};
use tasm_data::{SceneSpec, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{QueryRequest, QueryService, ServiceConfig, ServiceStats, Shutdown};
use tasm_video::FrameSource;

const FRAMES: u32 = 60;
const WINDOW: u32 = 12;

fn scene() -> SyntheticVideo {
    SyntheticVideo::new(SceneSpec {
        width: 256,
        height: 160,
        frames: FRAMES,
        seed: 23,
        ..SceneSpec::test_scene()
    })
}

fn remote_config() -> TasmConfig {
    TasmConfig {
        storage: StorageConfig {
            gop_len: 10,
            sot_frames: 10,
            ..Default::default()
        },
        partition: micro_partition(Granularity::Fine),
        workers: 1, // decode threads per query; concurrency comes from the pool
        cache_bytes: 128 << 20,
        ..Default::default()
    }
}

fn populate(tasm: &Tasm, video: &SyntheticVideo) {
    for f in 0..video.len() {
        for (l, b) in video.ground_truth(f) {
            tasm.add_metadata("v", l, f, b).expect("metadata");
        }
        tasm.mark_processed("v", f).expect("mark");
    }
}

fn prepare_store(video: &SyntheticVideo) -> PathBuf {
    let dir = bench_dir("remote");
    let tasm =
        Tasm::open(&dir, Box::new(MemoryIndex::in_memory()), remote_config()).expect("open store");
    tasm.ingest("v", video, 30).expect("ingest");
    populate(&tasm, video);
    tasm.kqko_retile_all("v", &["car".to_string()])
        .expect("pre-tile");
    dir
}

fn warm_tasm(dir: &PathBuf, video: &SyntheticVideo) -> Arc<Tasm> {
    let tasm =
        Tasm::open(dir, Box::new(MemoryIndex::in_memory()), remote_config()).expect("open store");
    tasm.attach("v").expect("attach");
    populate(&tasm, video);
    Arc::new(tasm)
}

fn start_server(tasm: Arc<Tasm>, workers: usize) -> TasmServer {
    TasmServer::bind(
        tasm,
        ServiceConfig {
            workers,
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
    .expect("bind loopback server")
}

fn loadgen(requests: u64, connections: usize) -> LoadGen {
    LoadGen::new(LoadGenConfig {
        connections,
        requests,
        video: "v".to_string(),
        query: Query::new(LabelPredicate::label("car")),
        window: WINDOW,
        frames: FRAMES,
        busy_backoff: Duration::from_millis(1),
        reconnect_attempts: 0,
    })
}

/// The same sliding-window workload submitted straight to a
/// `QueryService`, for the in-process baseline.
fn run_in_process(tasm: &Arc<Tasm>, requests: u64, workers: usize) -> ServiceStats {
    let service = QueryService::start(
        Arc::clone(tasm),
        ServiceConfig {
            workers,
            queue_depth: 64,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..requests)
        .map(|seq| {
            let window = WINDOW.min(FRAMES);
            let span = (FRAMES - window) as u64;
            let start = ((seq * 37) % (span + 1)) as u32;
            service
                .submit(QueryRequest::scan(
                    "v",
                    LabelPredicate::label("car"),
                    start..start + window,
                ))
                .expect("submit")
        })
        .collect();
    for h in handles {
        h.wait().expect("query");
    }
    service.shutdown(Shutdown::Drain).stats
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// One connection streaming a 40-region answer out of a warm cache.
fn stream_bench(c: &mut Criterion, dir: &PathBuf, video: &SyntheticVideo) {
    let server = start_server(warm_tasm(dir, video), 1);
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

fn remote_benches(c: &mut Criterion) {
    let video = scene();
    let dir = prepare_store(&video);
    let requests = scaled_count(48) as u64;
    stream_bench(c, &dir, &video);

    let mut g = c.benchmark_group("remote");
    g.sample_size(10);
    for connections in [1usize, 4, 16] {
        // One warm server per pool size; the timed quantity is a whole
        // loadgen run against it (connect, query stream, goodbye).
        let server = start_server(warm_tasm(&dir, &video), connections);
        let addr = server.local_addr();
        let gen = loadgen(requests, connections);
        g.bench_function(format!("loadgen_reactor_c{connections}"), |b| {
            b.iter(|| gen.run(addr).expect("loadgen run"))
        });
        server.shutdown();
    }
    g.finish();

    // Summary: remote vs. in-process on identical work, one untimed
    // verification pass per configuration.
    eprintln!("\nremote serving summary ({requests} sliding-window queries):");
    eprintln!("  config               queries/s   p50 ms   p95 ms   p99 ms   busy");
    for connections in [1usize, 4, 16] {
        let server = start_server(warm_tasm(&dir, &video), connections);
        let addr = server.local_addr();
        // Warm pass, then the measured pass.
        loadgen(requests, connections).run(addr).expect("warm pass");
        let report: LoadReport = loadgen(requests, connections)
            .run(addr)
            .expect("measured pass");
        let stats = server.shutdown().service.stats;
        let tag = format!("reactor_c{connections}");
        eprintln!(
            "  remote_{tag:<12} {:>8.1}   {:>6} {:>8} {:>8}   {:>4}",
            report.throughput(),
            fmt_ms(report.latency.p50()),
            fmt_ms(report.latency.p95()),
            fmt_ms(report.latency.p99()),
            report.busy,
        );
        eprintln!(
            "   └ server            {:>8}   {:>6} {:>8} {:>8}      -",
            "-",
            fmt_ms(stats.latency.p50()),
            fmt_ms(stats.latency.p95()),
            fmt_ms(stats.latency.p99()),
        );
    }
    for workers in [1usize, 4, 16] {
        let tasm = warm_tasm(&dir, &video);
        run_in_process(&tasm, requests, workers); // warm
        let t0 = Instant::now();
        let stats = run_in_process(&tasm, requests, workers);
        let dt = t0.elapsed().as_secs_f64();
        eprintln!(
            "  inproc_c{workers:<2}    {:>8.1}   {:>6} {:>8} {:>8}      -",
            requests as f64 / dt.max(1e-9),
            fmt_ms(stats.latency.p50()),
            fmt_ms(stats.latency.p95()),
            fmt_ms(stats.latency.p99()),
        );
    }
}

criterion_group!(benches, remote_benches);
criterion_main!(benches);
