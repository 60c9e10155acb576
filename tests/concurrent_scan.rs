//! The query service under concurrent re-tiling and shared-scan dedup.
//!
//! The contract under test: scans executed concurrently through
//! `QueryService` while the background regret daemon re-tiles
//! mid-workload return `tasm_suite::Reference`'s answer at the layout epoch
//! each scan observed, bit for bit, and identical cold queries join one
//! in-flight GOP decode. Fan-outs at a stable layout, at every cache
//! budget, are `tests/contract.rs`'s.

use std::sync::Arc;
use tasm_core::{LabelPredicate, Query};
use tasm_data::SyntheticVideo;
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_suite::{config, ingest, regions_identical, scene, Reference, TestStore};
use tasm_video::Rect;

fn scene20() -> SyntheticVideo {
    scene(256, 160, 20, 33)
}

/// Debug builds keep the stress affordable; release (the CI stress job)
/// runs the full width.
fn stress_scale() -> (usize, usize) {
    if cfg!(debug_assertions) {
        (4, 24) // (service workers, queries)
    } else {
        (16, 96)
    }
}

/// One SOT spanning the whole video and a hair-trigger regret threshold:
/// exactly two layout epochs exist (untiled at ingest, object-tiled after
/// the single regret re-tile).
fn single_sot(tag: &str) -> TestStore {
    let mut cfg = config();
    cfg.storage.sot_frames = 20;
    cfg.eta = 0.05; // regret crosses the threshold after a few queries
    let tasm = TestStore::open(tag, cfg);
    ingest(&tasm, "v", &scene20());
    tasm
}

/// Submits `queries` copies of `query` to a service over `store` whose
/// regret daemon re-tiles mid-workload, holding the ingest epoch pinned
/// throughout. Every answer must be the reference's at the epoch it
/// executed against, the ingest epoch or the one re-tile's, never a torn
/// mix; the two epochs' answers must differ, or a torn one could pass.
fn race_the_daemon(store: &TestStore, query: &Query, workers: usize, queries: usize) {
    let mut reference = Reference::new(store);
    let ingested = store.pin_epoch("v", None).unwrap();
    let service = QueryService::start(
        Arc::clone(store),
        ServiceConfig {
            workers,
            queue_depth: 16,
            retile: RetilePolicy::Regret,
            retile_interval: std::time::Duration::from_millis(1),
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..queries)
        .map(|_| {
            service
                .submit(QueryRequest::new("v", query.clone()))
                .unwrap()
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert_eq!(stats.failed, 0);
    // The daemon processed every observation by shutdown.
    assert!(stats.retile_ops > 0, "the daemon must have re-tiled");
    let retiled = store.pin_epoch("v", None).unwrap();
    assert_eq!(retiled.epoch(), ingested.epoch() + 1, "one re-tile");
    let [before, after] = [&ingested, &retiled].map(|pin| reference.answer(pin, query).regions);
    assert!(
        !before.is_empty() && !regions_identical(&before, &after),
        "the re-encode must change pixels, or a torn answer could pass"
    );
    // The service's plan accounting is the sum of its answers'.
    let sampled: u64 = outcomes.iter().map(|o| o.result.plan.frames_sampled).sum();
    assert!(sampled > 0);
    assert_eq!(stats.plan.frames_sampled, sampled, "aggregated plan");
    for (i, r) in outcomes.iter().map(|o| &o.result).enumerate() {
        reference.check("v", query, r, &format!("answer {i} at epoch {}", r.epoch));
        // Plan counters are epoch-dependent only through the layout; they
        // must always balance against execution accounting.
        assert_eq!(
            r.shared.owned + r.cache.hits,
            r.plan.gops_planned,
            "planned GOPs must each be decoded or served exactly once"
        );
    }
}

/// With the regret daemon firing mid-workload, every concurrent scan must
/// still be bit-identical to the reference at the layout epoch it
/// observed: either the pre-retile state or the post-retile state, never a
/// torn mix. A twin driven serially gives the layout the daemon must
/// converge to.
#[test]
fn retile_daemon_mid_workload_keeps_scans_bit_exact() {
    let window = 0..20;
    let (workers, queries) = stress_scale();
    let pred = LabelPredicate::label("car");

    let twin = single_sot("conc-twin");
    let mut retiled_after = None;
    for i in 0..queries {
        let cost = twin.observe_regret("v", "car", window.clone()).unwrap();
        if cost.encode.bytes_produced > 0 {
            retiled_after = Some(i + 1);
            break;
        }
    }
    let retiled_after = retiled_after.expect("the regret policy must re-tile within the workload");
    assert!(
        retiled_after <= queries / 2,
        "retile must land mid-workload, not at the end ({retiled_after}/{queries})"
    );
    let expected_layout = twin.manifest("v").unwrap().sots[0].layout.clone();
    assert!(!expected_layout.is_untiled());

    let conc = single_sot("conc-daemon-stress");
    race_the_daemon(&conc, &Query::new(pred).frames(window), workers, queries);
    assert_eq!(
        conc.manifest("v").unwrap().sots[0].layout,
        expected_layout,
        "concurrent regret must converge to the serial layout"
    );
}

/// The spatiotemporal planner under concurrent re-tiling: ROI + stride
/// queries racing the regret daemon must each return exactly the
/// reference's answer at *one* layout epoch — pruning tiles and GOPs must
/// never let a query observe a torn mix of layouts.
#[test]
fn roi_queries_bit_exact_across_concurrent_retile() {
    let (workers, queries) = stress_scale();
    let query = Query::new(LabelPredicate::label("car"))
        .frames(0..20)
        .roi(Rect::new(0, 0, 192, 160)) // most of the frame: keeps matches in both epochs
        .stride(2);
    let conc = single_sot("conc-roi-daemon");
    race_the_daemon(&conc, &query, workers, queries);
}

/// Shared-scan dedup must actually dedup: flood the service with identical
/// cold-cache queries and observe joined GOP decodes. Thread scheduling can
/// in principle serialize a whole attempt, so a few fresh attempts are
/// allowed before declaring failure.
#[test]
fn overlapping_queries_join_inflight_decodes() {
    let video = scene20();
    for attempt in 0..5 {
        let tasm = TestStore::open(&format!("conc-join-{attempt}"), config());
        ingest(&tasm, "v", &video);
        let service = QueryService::start(
            Arc::clone(&tasm),
            ServiceConfig {
                workers: 8,
                queue_depth: 32,
                ..Default::default()
            },
        );
        let handles: Vec<_> = (0..16)
            .map(|_| {
                service
                    .submit(QueryRequest::new(
                        "v",
                        Query::new(LabelPredicate::label("car")).frames(0..20),
                    ))
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let stats = service.shutdown(Shutdown::Drain).stats;
        assert!(stats.shared.owned > 0, "someone must decode");
        if stats.shared.joined > 0 {
            return; // dedup observed
        }
    }
    panic!("16 identical cold queries on 8 workers never joined an in-flight decode");
}
