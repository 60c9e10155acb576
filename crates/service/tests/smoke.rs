//! Basic lifecycle tests of the query service: submission, backpressure,
//! error propagation, shutdown.

use std::sync::Arc;
use tasm_core::{LabelPredicate, Query, Tasm, TasmConfig};
use tasm_data::SyntheticVideo;
use tasm_index::MemoryIndex;
use tasm_service::{
    QueryRequest, QueryService, RetilePolicy, ServiceConfig, ServiceError, Shutdown,
};
use tasm_suite::{config, ingest, TempDir, TestStore};

fn scene(frames: u32) -> SyntheticVideo {
    tasm_suite::scene(192, 128, frames, 11)
}

/// The scene, `frames` long, ingested into a store of its own.
fn store(tag: &str, frames: u32) -> TestStore {
    let cfg = TasmConfig {
        cache_bytes: 32 << 20,
        ..config()
    };
    let tasm = TestStore::open(&format!("svc-{tag}"), cfg);
    ingest(&tasm, "v", &scene(frames));
    tasm
}

fn request(frames: std::ops::Range<u32>) -> QueryRequest {
    QueryRequest::new("v", Query::new(LabelPredicate::label("car")).frames(frames))
}

#[test]
fn completes_queries_and_reports_stats() {
    let tasm = store("basic", 20);
    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 8,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..6)
        .map(|i| {
            service
                .submit(request(i % 2 * 10..i % 2 * 10 + 10))
                .unwrap()
        })
        .collect();
    for h in handles {
        let outcome = h.wait().unwrap();
        assert!(!outcome.result.regions.is_empty());
        assert!(outcome.total_time >= outcome.queue_time);
    }
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.failed, 0);
    assert!(stats.samples_decoded + stats.samples_reused > 0);
}

#[test]
fn unknown_video_fails_the_query_not_the_service() {
    let tasm = store("unknown", 10);
    let service = QueryService::start(Arc::clone(&tasm), ServiceConfig::default());
    let bad = service
        .submit(QueryRequest::new(
            "nope",
            Query::new(LabelPredicate::label("car")).frames(0..10),
        ))
        .unwrap();
    assert!(matches!(bad.wait(), Err(ServiceError::Tasm(_))));
    // The service keeps serving.
    let good = service.submit(request(0..10)).unwrap();
    assert!(good.wait().is_ok());
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn try_submit_reports_backpressure() {
    let tasm = store("full", 10);
    // One worker, tiny queue: flood it and expect QueueFull eventually.
    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        },
    );
    let mut accepted = Vec::new();
    let mut rejections = 0;
    for _ in 0..64 {
        match service.try_submit(request(0..10)) {
            Ok(h) => accepted.push(h),
            Err(ServiceError::QueueFull) => rejections += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        rejections > 0,
        "a 1-deep queue must reject a 64-query flood"
    );
    for h in accepted {
        h.wait().unwrap();
    }
    service.shutdown(Shutdown::Drain);
}

#[test]
fn completed_queries_populate_the_latency_histogram() {
    let tasm = store("latency", 10);
    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..5)
        .map(|_| service.submit(request(0..10)).unwrap())
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let report = service.shutdown(Shutdown::Drain);
    assert_eq!(report.abandoned, 0);
    assert_eq!(report.completed, 5);
    let latency = report.stats.latency;
    assert_eq!(latency.count, 5, "one histogram entry per completed query");
    assert!(latency.p50() > std::time::Duration::ZERO);
    assert!(latency.p50() <= latency.p95());
    assert!(latency.p95() <= latency.p99());
}

#[test]
fn abort_abandons_queued_queries_with_typed_errors() {
    let tasm = store("abort", 20);
    // One worker and a deep queue: flood it, then abort while most queries
    // are still queued.
    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 64,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..32)
        .map(|_| service.submit(request(0..20)).unwrap())
        .collect();
    let report = service.shutdown(Shutdown::Abort);
    assert_eq!(report.mode, Shutdown::Abort);
    assert_eq!(
        report.completed + report.abandoned,
        32,
        "every accepted query is accounted for: {report:?}"
    );
    // The flood outruns a single worker; at least one query must have been
    // sitting in the queue when the abort landed.
    assert!(report.abandoned > 0, "abort should abandon queued queries");
    let mut completed = 0;
    let mut shutdown_errors = 0;
    for h in handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(ServiceError::ShuttingDown) => shutdown_errors += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(completed as u64, report.completed);
    assert_eq!(shutdown_errors as u64, report.abandoned);
}

#[test]
fn retile_daemon_retiles_in_background() {
    let tasm = store("daemon", 20);
    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 16,
            retile: RetilePolicy::More,
            ..Default::default()
        },
    );
    // The first "car" query makes incremental-more tile around cars.
    let handles: Vec<_> = (0..8)
        .map(|_| service.submit(request(0..20)).unwrap())
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    // Deterministic: force any queued observations through, then make sure
    // re-tiled layouts keep serving queries.
    service.drain_retile_backlog();
    let h = service.submit(request(0..20)).unwrap();
    assert!(h.wait().is_ok());
    // Shutdown joins the daemon, so all observations are fully processed
    // before the final stats are read (the daemon may still be mid-batch
    // when `drain_retile_backlog` returns).
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert!(stats.retile_ops > 0, "incremental-more must have re-tiled");
    assert_eq!(stats.retile_errors, 0);
    let manifest = tasm.manifest("v").unwrap();
    assert!(manifest.sots.iter().any(|s| !s.layout.is_untiled()));
}

#[test]
fn daemon_crash_is_contained_and_shutdown_drains() {
    use tasm_core::durable::{FaultIo, FaultKind};

    // A Tasm over fault-injecting storage: the daemon's re-tile will run
    // into a dead disk mid-commit, queries after the crash fail fast, and
    // shutdown must still drain cleanly — no hang, no panic, accurate
    // accounting. Recovery of the on-disk state is covered by
    // tests/crash_recovery.rs; this test pins the *service* behavior.
    let dir = TempDir::new("svc-crash");
    let fault = FaultIo::new();
    let cfg = TasmConfig {
        eta: 0.01, // re-tile almost immediately
        // No decoded-GOP cache: every scan must touch the (dead) disk, so
        // post-crash queries demonstrably fail typed instead of being
        // silently served from warm cache entries.
        cache_bytes: 0,
        ..config()
    };
    let index = Box::new(MemoryIndex::in_memory());
    let tasm = Arc::new(Tasm::open_with_io(dir.path(), index, cfg, fault.clone()).unwrap());
    ingest(&tasm, "v", &scene(20));

    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 16,
            retile: RetilePolicy::Regret,
            ..Default::default()
        },
    );
    // The only mutating I/O left comes from daemon re-tiles; die mid-way
    // through the first one.
    fault.arm(fault.mutating_ops() + 3, FaultKind::FailStop);
    for round in 0..300 {
        let handles: Vec<_> = (0..2)
            .filter_map(|_| service.try_submit(request(0..20)).ok())
            .collect();
        for h in handles {
            let _ = h.wait();
        }
        service.drain_retile_backlog();
        if fault.crashed() {
            break;
        }
        assert!(round < 299, "regret daemon never attempted a re-tile");
    }
    // The service survives the dead disk: submissions still resolve
    // (with typed errors), and Drain terminates.
    let h = service.submit(request(0..20)).unwrap();
    assert!(matches!(h.wait(), Err(ServiceError::Tasm(_))));
    let report = service.shutdown(Shutdown::Drain);
    assert!(
        report.stats.retile_errors > 0,
        "the failed re-tile is counted"
    );
    assert!(report.stats.failed > 0, "post-crash queries fail typed");
}
