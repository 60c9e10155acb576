//! The query service under concurrent re-tiling and shared-scan dedup.
//!
//! The contract under test: scans executed concurrently through
//! `QueryService` while the background regret daemon re-tiles
//! mid-workload return results bit-identical to a serial execution against
//! the layout epoch each scan observed, and identical cold queries join one
//! in-flight GOP decode. Fan-outs at a stable layout, at every cache
//! budget, are `tests/contract.rs`'s.

use std::sync::Arc;
use tasm_core::{LabelPredicate, Query, ScanResult};
use tasm_data::SyntheticVideo;
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_suite::{config, ingest, post_filter, regions_identical, scene, TestStore};
use tasm_video::{Plane, Rect};

fn scene20() -> SyntheticVideo {
    scene(256, 160, 20, 33)
}

fn scans_equal(a: &ScanResult, b: &ScanResult) -> bool {
    regions_identical(&a.regions, &b.regions)
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

/// With the regret daemon firing mid-workload, every concurrent scan must
/// still be bit-identical to a *serial* execution at the layout epoch it
/// observed: either the pre-retile state or the post-retile state, never a
/// torn mix. A twin instance driven serially provides both references and
/// the expected final layout.
#[test]
fn retile_daemon_mid_workload_keeps_scans_bit_exact() {
    let window = 0..20;
    let (workers, queries) = stress_scale();
    let pred = LabelPredicate::label("car");

    // Twin driven serially: reference results for both epochs.
    let twin = single_sot("conc-twin");
    let ref_pre = twin.scan("v", &pred, window.clone()).unwrap();
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
    let ref_post = twin.scan("v", &pred, window.clone()).unwrap();
    assert!(
        !scans_equal(&ref_pre, &ref_post),
        "re-encode must change pixels, or the test cannot detect torn scans"
    );
    let expected_layout = twin.manifest("v").unwrap().sots[0].layout.clone();
    assert!(!expected_layout.is_untiled());

    // Concurrent run with the daemon enabled.
    let conc = single_sot("conc-daemon-stress");
    let service = QueryService::start(
        Arc::clone(&conc),
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
                .submit(QueryRequest::new(
                    "v",
                    Query::new(pred.clone()).frames(window.clone()),
                ))
                .unwrap()
        })
        .collect();
    let mut pre = 0usize;
    let mut post = 0usize;
    for h in handles {
        let outcome = h.wait().unwrap();
        if scans_equal(&outcome.result, &ref_pre) {
            pre += 1;
        } else if scans_equal(&outcome.result, &ref_post) {
            post += 1;
        } else {
            panic!(
                "concurrent scan matches neither the pre- nor the post-retile \
                 serial reference: torn or nondeterministic execution"
            );
        }
    }
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert_eq!(pre + post, queries);
    assert_eq!(stats.failed, 0);
    // The daemon processed every observation by shutdown: the layout must
    // have converged to the same state the serial twin reached.
    assert!(stats.retile_ops > 0, "the daemon must have re-tiled");
    assert_eq!(
        conc.manifest("v").unwrap().sots[0].layout,
        expected_layout,
        "concurrent regret must converge to the serial layout"
    );
}

/// The spatiotemporal planner under concurrent re-tiling: ROI + stride
/// queries racing the regret daemon must each return exactly the
/// post-filtered serial scan of *one* layout epoch — pruning tiles and GOPs
/// must never let a query observe a torn mix of layouts.
#[test]
fn roi_queries_bit_exact_across_concurrent_retile() {
    let window = 0..20;
    let (workers, queries) = stress_scale();
    let pred = LabelPredicate::label("car");
    let query = Query::new(pred.clone())
        .frames(window.clone())
        .roi(Rect::new(0, 0, 192, 160)) // most of the frame: keeps matches in both epochs
        .stride(2);

    // Twin driven serially: post-filtered references for both epochs.
    let twin = single_sot("conc-roi-twin");
    let scan_pre = twin.scan("v", &pred, window.clone()).unwrap();
    let mut retiled = false;
    for _ in 0..queries {
        if twin
            .observe_regret("v", "car", window.clone())
            .unwrap()
            .encode
            .bytes_produced
            > 0
        {
            retiled = true;
            break;
        }
    }
    assert!(
        retiled,
        "the regret policy must re-tile within the workload"
    );
    let scan_post = twin.scan("v", &pred, window.clone()).unwrap();
    let ref_pre = post_filter(&scan_pre, &query, window.start);
    let ref_post = post_filter(&scan_post, &query, window.start);
    let refs_differ = ref_pre.len() != ref_post.len()
        || ref_pre.iter().zip(&ref_post).any(|(a, b)| {
            Plane::ALL
                .iter()
                .any(|&p| a.pixels.plane(p) != b.pixels.plane(p))
        });
    assert!(
        !ref_pre.is_empty() && refs_differ,
        "references must be distinguishable for the test to mean anything"
    );

    // Concurrent run with the daemon enabled, submitting full Query values.
    let conc = single_sot("conc-roi-daemon");
    let service = QueryService::start(
        Arc::clone(&conc),
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
    for h in handles {
        let outcome = h.wait().unwrap();
        let r = &outcome.result;
        assert!(
            regions_identical(&ref_pre, &r.regions) || regions_identical(&ref_post, &r.regions),
            "ROI query matches neither epoch's post-filtered serial reference: \
             torn or nondeterministic pruned execution"
        );
        // Plan counters are epoch-dependent only through the layout; they
        // must always balance against execution accounting.
        assert_eq!(
            r.shared.owned + r.cache.hits,
            r.plan.gops_planned,
            "planned GOPs must each be decoded or served exactly once"
        );
    }
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert_eq!(stats.failed, 0);
    assert!(stats.plan.frames_sampled > 0);
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
