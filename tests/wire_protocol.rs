//! Property tests of the wire protocol: every message type round-trips
//! bit-exactly, and no input — truncated, corrupted, or oversized — can
//! make the decoder panic.

use proptest::run_cases;
use rand::rngs::StdRng;
use rand::Rng;
use tasm_core::{LabelPredicate, PlanStats, Query, QueryMode, RegionPixels, SharedScanStats};
use tasm_proto::{
    ErrorCode, Message, ProtoError, ReplicatedDetection, ReplicationRecord, ResultSummary,
    MAX_FRAME_LEN, VERSION,
};
use tasm_service::{HistogramSnapshot, ServiceStats};
use tasm_video::{Frame, Rect};

const CASES: u32 = 96;

/// A message's payload: its encoded frame without the length prefix.
fn payload_of(msg: &Message) -> Vec<u8> {
    msg.encode()[4..].to_vec()
}

fn arb_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| char::from(rng.gen_range(32u32..127) as u8))
        .collect()
}

fn arb_label(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1usize..12);
    (0..len)
        .map(|_| char::from(rng.gen_range(97u32..123) as u8))
        .collect()
}

fn arb_rect(rng: &mut StdRng) -> Rect {
    Rect::new(
        rng.gen_range(0u32..4096),
        rng.gen_range(0u32..4096),
        rng.gen_range(0u32..512),
        rng.gen_range(0u32..512),
    )
}

fn arb_query(rng: &mut StdRng) -> Query {
    let mut predicate: Option<LabelPredicate> = None;
    for _ in 0..rng.gen_range(1usize..4) {
        let labels: Vec<String> = (0..rng.gen_range(1usize..4))
            .map(|_| arb_label(rng))
            .collect();
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        predicate = Some(match predicate {
            None => LabelPredicate::any_of(&refs),
            Some(p) => p.and(&refs),
        });
    }
    let start = rng.gen_range(0u32..10_000);
    let mut q = Query::new(predicate.expect("at least one clause"))
        .frames(start..start + rng.gen_range(1u32..5_000))
        .stride(rng.gen_range(1u32..30))
        .mode(match rng.gen_range(0u32..3) {
            0 => QueryMode::Pixels,
            1 => QueryMode::Count,
            _ => QueryMode::Exists,
        });
    if rng.gen_bool(0.5) {
        q = q.roi(arb_rect(rng));
    }
    if rng.gen_bool(0.5) {
        q = q.limit(rng.gen_range(0u32..100));
    }
    if rng.gen_bool(0.5) {
        q = q.as_of(rng.gen_range(0u64..1_000));
    }
    q
}

fn arb_plan(rng: &mut StdRng) -> PlanStats {
    PlanStats {
        tiles_planned: rng.gen_range(0u64..1_000),
        tiles_pruned: rng.gen_range(0u64..1_000),
        gops_planned: rng.gen_range(0u64..1_000),
        gops_skipped: rng.gen_range(0u64..1_000),
        frames_sampled: rng.gen_range(0u64..1_000),
    }
}

fn arb_region(rng: &mut StdRng) -> RegionPixels {
    let w = rng.gen_range(1u32..16) * 2;
    let h = rng.gen_range(1u32..16) * 2;
    let luma = (w * h) as usize;
    let plane =
        |rng: &mut StdRng, n: usize| (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect();
    let y = plane(rng, luma);
    let u = plane(rng, luma / 4);
    let v = plane(rng, luma / 4);
    RegionPixels {
        frame: rng.gen_range(0u32..100_000),
        rect: arb_rect(rng),
        pixels: Frame::from_planes(w, h, y, u, v).expect("even dims and exact plane lengths"),
    }
}

fn arb_stats(rng: &mut StdRng) -> ServiceStats {
    let mut latency = HistogramSnapshot::default();
    for _ in 0..rng.gen_range(0usize..50) {
        latency.record(std::time::Duration::from_micros(
            rng.gen_range(0u64..10_000_000),
        ));
    }
    ServiceStats {
        submitted: rng.gen_range(0u64..1_000_000),
        completed: rng.gen_range(0u64..1_000_000),
        failed: rng.gen_range(0u64..1_000),
        samples_decoded: rng.gen_range(0u64..u32::MAX as u64),
        samples_reused: rng.gen_range(0u64..u32::MAX as u64),
        cache_hits: rng.gen_range(0u64..100_000),
        cache_misses: rng.gen_range(0u64..100_000),
        shared: SharedScanStats {
            owned: rng.gen_range(0u64..100_000),
            joined: rng.gen_range(0u64..100_000),
        },
        plan: arb_plan(rng),
        retile_ops: rng.gen_range(0u64..1_000),
        retile_errors: rng.gen_range(0u64..10),
        queue_peak: rng.gen_range(0u64..512),
        latency,
    }
}

fn arb_error_code(rng: &mut StdRng) -> ErrorCode {
    [
        ErrorCode::Busy,
        ErrorCode::TooManyInflight,
        ErrorCode::TooManyConnections,
        ErrorCode::ShuttingDown,
        ErrorCode::VersionMismatch,
        ErrorCode::Malformed,
        ErrorCode::UnknownVideo,
        ErrorCode::Internal,
        ErrorCode::EpochNotLive,
    ][rng.gen_range(0usize..9)]
}

fn arb_blob(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

fn arb_record(rng: &mut StdRng) -> ReplicationRecord {
    match rng.gen_range(0u32..4) {
        0 => ReplicationRecord::StageSot {
            video: arb_label(rng),
            sot_idx: rng.gen_range(0u32..64),
            tiles: (0..rng.gen_range(0usize..5))
                .map(|_| arb_blob(rng, 96))
                .collect(),
        },
        1 => ReplicationRecord::CommitVideo {
            epoch: rng.gen_range(0u64..u32::MAX as u64),
            video: arb_label(rng),
            manifest: arb_blob(rng, 256),
        },
        2 => ReplicationRecord::CommitSot {
            epoch: rng.gen_range(0u64..u32::MAX as u64),
            video: arb_label(rng),
            sot_idx: rng.gen_range(0u32..64),
            manifest: arb_blob(rng, 256),
        },
        _ => ReplicationRecord::IndexState {
            video: arb_label(rng),
            detections: (0..rng.gen_range(0usize..9))
                .map(|_| ReplicatedDetection {
                    label: arb_label(rng),
                    frame: rng.gen_range(0u32..10_000),
                    rect: arb_rect(rng),
                })
                .collect(),
            processed: (0..rng.gen_range(0usize..17))
                .map(|_| rng.gen_range(0u32..10_000))
                .collect(),
        },
    }
}

fn arb_trace(rng: &mut StdRng) -> tasm_proto::QueryTrace {
    tasm_proto::QueryTrace {
        trace_id: rng.gen_range(0u64..u64::MAX),
        instance: arb_string(rng, 32),
        epoch: rng.gen_range(0u64..1_000),
        queue_micros: rng.gen_range(0u64..10_000_000),
        plan_micros: rng.gen_range(0u64..10_000_000),
        decode_micros: rng.gen_range(0u64..10_000_000),
        stream_micros: rng.gen_range(0u64..10_000_000),
        total_micros: rng.gen_range(0u64..40_000_000),
    }
}

/// One arbitrary message, cycling through every variant by case index.
fn arb_message(rng: &mut StdRng, variant: u32) -> Message {
    match variant % 17 {
        0 => Message::ClientHello {
            version: rng.gen_range(0u32..u16::MAX as u32 + 1) as u16,
        },
        1 => Message::ServerHello {
            version: VERSION,
            max_inflight: rng.gen_range(1u32..1_000),
        },
        2 => Message::Query {
            id: rng.gen_range(0u64..u64::MAX),
            video: arb_label(rng),
            query: arb_query(rng),
            trace_id: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..u64::MAX)),
        },
        3 => Message::ResultHeader {
            id: rng.gen_range(0u64..u64::MAX),
            matched: rng.gen_range(0u64..1_000_000),
            regions: rng.gen_range(0u32..100_000),
            plan: arb_plan(rng),
            epoch: rng.gen_range(0u64..1_000),
        },
        4 => Message::Region {
            id: rng.gen_range(0u64..u64::MAX),
            region: arb_region(rng),
        },
        5 => Message::ResultDone {
            id: rng.gen_range(0u64..u64::MAX),
            summary: ResultSummary {
                samples_decoded: rng.gen_range(0u64..u32::MAX as u64),
                samples_reused: rng.gen_range(0u64..u32::MAX as u64),
                cache_hits: rng.gen_range(0u64..100_000),
                cache_misses: rng.gen_range(0u64..100_000),
                shared: SharedScanStats {
                    owned: rng.gen_range(0u64..100_000),
                    joined: rng.gen_range(0u64..100_000),
                },
                lookup_micros: rng.gen_range(0u64..10_000_000),
                exec_micros: rng.gen_range(0u64..10_000_000),
            },
            trace: rng.gen_bool(0.5).then(|| arb_trace(rng)),
        },
        6 => Message::StatsRequest,
        7 => Message::StatsReply {
            stats: Box::new(arb_stats(rng)),
        },
        8 => Message::Error {
            id: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..u64::MAX)),
            code: arb_error_code(rng),
            message: arb_string(rng, 80),
        },
        9 => Message::Goodbye,
        10 => Message::ShutdownServer,
        11 => Message::Replicate {
            seq: rng.gen_range(0u64..u64::MAX),
            record: arb_record(rng),
        },
        12 => Message::ReplicateAck {
            seq: rng.gen_range(0u64..u64::MAX),
        },
        13 => Message::ManifestRequest {
            video: arb_label(rng),
        },
        14 => Message::ManifestReply {
            video: arb_label(rng),
            manifest: arb_blob(rng, 256),
        },
        15 => Message::PushVideo {
            seq: rng.gen_range(0u64..u64::MAX),
            video: arb_label(rng),
            target: arb_string(rng, 24),
        },
        _ => Message::RemoveVideo {
            seq: rng.gen_range(0u64..u64::MAX),
            video: arb_label(rng),
        },
    }
}

/// Round trip: decode(encode(m)) re-encodes to the identical bytes, for
/// every message variant. (Byte equality is the strongest identity the
/// protocol offers and sidesteps `PartialEq` on pixel buffers.)
#[test]
fn every_message_round_trips_bit_exactly() {
    let mut variant = 0u32;
    run_cases(CASES, proptest::seed_for("roundtrip"), |rng| {
        let msg = arb_message(rng, variant);
        variant += 1;
        let payload = payload_of(&msg);
        let decoded = Message::decode_payload(&payload)
            .unwrap_or_else(|e| panic!("decode failed for {msg:?}: {e}"));
        assert_eq!(
            payload_of(&decoded),
            payload,
            "re-encode diverged for {msg:?}"
        );
    });
}

/// The full frame path (length prefix included) round-trips through a
/// byte stream.
#[test]
fn framed_io_round_trips() {
    let mut variant = 0u32;
    run_cases(CASES, proptest::seed_for("framed"), |rng| {
        let msg = arb_message(rng, variant);
        variant += 1;
        let mut wire = Vec::new();
        msg.write_to(&mut wire).expect("write to Vec");
        let mut cursor = std::io::Cursor::new(wire);
        let decoded = Message::read_from(&mut cursor).expect("read back");
        assert_eq!(payload_of(&decoded), payload_of(&msg));
    });
}

/// Every strict prefix of every valid payload decodes to a typed error —
/// never a panic, never a silent success.
#[test]
fn truncated_payloads_fail_with_typed_errors() {
    let mut variant = 0u32;
    run_cases(CASES, proptest::seed_for("truncate"), |rng| {
        let msg = arb_message(rng, variant);
        variant += 1;
        let payload = payload_of(&msg);
        // Exhaustive for small payloads, sampled for pixel-bearing ones.
        let cuts: Vec<usize> = if payload.len() <= 64 {
            (0..payload.len()).collect()
        } else {
            (0..64)
                .map(|_| rng.gen_range(0usize..payload.len()))
                .collect()
        };
        for cut in cuts {
            assert!(
                Message::decode_payload(&payload[..cut]).is_err(),
                "prefix of len {cut}/{} decoded for {msg:?}",
                payload.len()
            );
        }
    });
}

/// Arbitrary byte flips never panic the decoder: they decode to some
/// message or fail with a typed error.
#[test]
fn corrupted_payloads_never_panic() {
    let mut variant = 0u32;
    run_cases(CASES, proptest::seed_for("corrupt"), |rng| {
        let msg = arb_message(rng, variant);
        variant += 1;
        let mut payload = payload_of(&msg);
        for _ in 0..8 {
            let at = rng.gen_range(0usize..payload.len());
            payload[at] ^= rng.gen_range(1u32..256) as u8;
        }
        let _ = Message::decode_payload(&payload); // must not panic
    });
}

/// Garbage streams fail the frame reader with typed errors, including the
/// oversized-length guard that bounds what a corrupt prefix can allocate.
#[test]
fn garbage_streams_are_rejected() {
    run_cases(CASES, proptest::seed_for("garbage"), |rng| {
        let len = rng.gen_range(0usize..64);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let mut cursor = std::io::Cursor::new(garbage);
        let _ = Message::read_from(&mut cursor); // must not panic
    });
    // A length prefix past the cap is refused before allocation.
    let huge = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    let mut cursor = std::io::Cursor::new(huge);
    assert!(matches!(
        Message::read_from(&mut cursor),
        Err(ProtoError::Oversized(_))
    ));
}

/// Unknown message tags are typed errors.
#[test]
fn unknown_tags_are_typed_errors() {
    for bad_tag in [0x00u8, 0x12, 0x7f, 0xff] {
        assert!(matches!(
            Message::decode_payload(&[bad_tag]),
            Err(ProtoError::UnknownMessage(_))
        ));
    }
}

/// Semantic spot checks: the decoded query preserves every clause of the
/// surface the planner sees.
#[test]
fn query_fields_survive_the_wire() {
    let query = Query::new(LabelPredicate::any_of(&["car", "bus"]).and(&["red"]))
        .frames(30..900)
        .roi(Rect::new(10, 20, 300, 200))
        .stride(7)
        .limit(12)
        .mode(QueryMode::Count)
        .as_of(3);
    let msg = Message::Query {
        id: 42,
        video: "traffic".to_string(),
        query: query.clone(),
        trace_id: Some(0xFEED_F00D),
    };
    let Message::Query {
        id,
        video,
        query: decoded,
        trace_id,
    } = Message::decode_payload(&payload_of(&msg)).expect("decode")
    else {
        panic!("wrong variant");
    };
    assert_eq!(id, 42);
    assert_eq!(video, "traffic");
    assert_eq!(decoded, query);
    assert_eq!(trace_id, Some(0xFEED_F00D));
}

/// The per-query trace attached to ResultDone — id, instance tag, epoch,
/// and every phase duration — survives the wire bit-exactly, with and
/// without the optional field present.
#[test]
fn query_traces_survive_the_wire() {
    run_cases(CASES, proptest::seed_for("traces"), |rng| {
        let trace = rng.gen_bool(0.75).then(|| arb_trace(rng));
        let msg = Message::ResultDone {
            id: rng.gen_range(0u64..u64::MAX),
            summary: ResultSummary::default(),
            trace: trace.clone(),
        };
        let Message::ResultDone { trace: decoded, .. } =
            Message::decode_payload(&payload_of(&msg)).expect("decode")
        else {
            panic!("wrong variant");
        };
        assert_eq!(decoded, trace);
    });
}

/// Malformed query bodies (empty predicate) are refused, matching the
/// builder's own invariants.
#[test]
fn empty_predicates_are_refused() {
    // Hand-build a query frame with zero clauses.
    let mut w = tasm_proto::Writer::new();
    w.u8(0x03); // query tag
    w.u64(1);
    w.str("v");
    w.u16(0); // zero clauses
    assert!(matches!(
        Message::decode_payload(&w.into_bytes()),
        Err(ProtoError::Malformed(_))
    ));
}

/// The stats snapshot — histogram included — survives the wire with its
/// percentiles intact.
#[test]
fn stats_percentiles_survive_the_wire() {
    run_cases(16, proptest::seed_for("stats"), |rng| {
        let stats = arb_stats(rng);
        let msg = Message::StatsReply {
            stats: Box::new(stats),
        };
        let Message::StatsReply { stats: decoded } =
            Message::decode_payload(&payload_of(&msg)).expect("decode")
        else {
            panic!("wrong variant");
        };
        assert_eq!(decoded.latency, stats.latency);
        assert_eq!(decoded.latency.p50(), stats.latency.p50());
        assert_eq!(decoded.latency.p99(), stats.latency.p99());
        assert_eq!(decoded.completed, stats.completed);
    });
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

/// One full response as a server frames it: header, a region through the
/// borrowed-region entry point, a region through `Message::encode`, done
/// with a trace.
fn golden_response(id: u64) -> Vec<Vec<u8>> {
    let a = RegionPixels {
        frame: 7,
        rect: Rect::new(4, 8, 4, 2),
        pixels: Frame::from_planes(4, 2, (10..18).collect(), vec![200, 201], vec![90, 91])
            .expect("4x2 planes"),
    };
    let b = RegionPixels {
        frame: 9,
        rect: Rect::new(0, 0, 2, 2),
        pixels: Frame::from_planes(2, 2, vec![1, 2, 3, 4], vec![5], vec![6]).expect("2x2 planes"),
    };
    vec![
        Message::ResultHeader {
            id,
            matched: 3,
            regions: 2,
            plan: PlanStats {
                tiles_planned: 1,
                tiles_pruned: 2,
                gops_planned: 3,
                gops_skipped: 4,
                frames_sampled: 5,
            },
            epoch: 6,
        }
        .encode(),
        tasm_proto::encode_region(id, &a, &tasm_proto::nio::wire_buffers()),
        Message::Region { id, region: b }.encode(),
        Message::ResultDone {
            id,
            summary: ResultSummary {
                samples_decoded: 11,
                samples_reused: 12,
                cache_hits: 13,
                cache_misses: 14,
                shared: SharedScanStats {
                    owned: 15,
                    joined: 16,
                },
                lookup_micros: 17,
                exec_micros: 18,
            },
            trace: Some(tasm_proto::QueryTrace {
                trace_id: 0xfeed,
                instance: "127.0.0.1:7743".to_string(),
                epoch: 6,
                queue_micros: 21,
                plan_micros: 22,
                decode_micros: 23,
                stream_micros: 24,
                total_micros: 25,
            }),
        }
        .encode(),
    ]
}

/// The wire format is pinned, not asserted: these are the bytes the
/// two-copy encoder (`frame(&encode_payload())`) produced for this
/// response on the commit before the single encoder replaced it.
#[test]
fn a_full_response_encodes_to_the_pinned_bytes() {
    const GOLDEN: [&str; 4] = [
        "45000000040807060504030201030000000000000002000000010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000",
        "3d00000005080706050403020107000000040000000800000004000000020000000400000002000000080000000a0b0c0d0e0f101102000000c8c9020000005a5b",
        "3700000005080706050403020109000000000000000000000002000000020000000200000002000000040000000102030401000000050100000006",
        "940000000608070605040302010b000000000000000c000000000000000d000000000000000e000000000000000f0000000000000010000000000000001100000000000000120000000000000001edfe0000000000000e0000003132372e302e302e313a37373433060000000000000015000000000000001600000000000000170000000000000018000000000000001900000000000000",
    ];
    let frames = golden_response(0x0102_0304_0506_0708);
    assert_eq!(frames.len(), GOLDEN.len());
    for (frame, golden) in frames.iter().zip(GOLDEN) {
        assert_eq!(frame, &unhex(golden));
    }
    // The frames that carry pixels are sized up front and never grow.
    for region in &frames[1..3] {
        assert_eq!(
            region.capacity(),
            region.len(),
            "encoded into its exact size"
        );
    }
}

/// A relayed result frame is the original with another request id: the
/// same bytes everywhere else, so re-addressing it back restores it.
#[test]
fn relayed_result_frames_differ_only_in_the_id() {
    use tasm_proto::{relay_result_frame, ResultFrame};
    let (id, relay_id) = (0x0102_0304_0506_0708u64, 0xa1a2_a3a4_a5a6_a7a8u64);
    let frames = golden_response(id);
    let kinds = [
        ResultFrame::Header { regions: 2 },
        ResultFrame::Region,
        ResultFrame::Region,
        ResultFrame::Done,
    ];
    // Frames are built in used buffers: nothing they held may show.
    let spare = tasm_proto::nio::wire_buffers();
    let used = || {
        for frame in &frames {
            spare.give(vec![0xEE; frame.len() + 9]);
        }
        &spare
    };
    for (frame, kind) in frames.iter().zip(kinds) {
        let (got, relayed) = relay_result_frame(&frame[4..], id, relay_id, used())
            .expect("well-formed")
            .expect("a result frame");
        assert_eq!(got, kind);
        assert_eq!(relayed.len(), frame.len());
        assert_eq!(relayed[..5], frame[..5]);
        assert_eq!(relayed[5..13], relay_id.to_le_bytes());
        assert_eq!(relayed[13..], frame[13..]);
        let (_, back) = relay_result_frame(&relayed[4..], relay_id, id, used())
            .expect("well-formed")
            .expect("a result frame");
        assert_eq!(&back, frame);
        // A frame of some other request is refused, not relayed.
        assert!(relay_result_frame(&frame[4..], id + 1, relay_id, used()).is_err());
    }
    // Anything that is not part of a result stream is left to the caller.
    let error = Message::Error {
        id: Some(id),
        code: ErrorCode::Busy,
        message: "queue full".to_string(),
    }
    .encode();
    assert!(relay_result_frame(&error[4..], id, relay_id, used())
        .expect("well-formed")
        .is_none());
    // A region whose planes disagree with its dimensions is caught without
    // decoding a pixel: here the last plane byte is cut off.
    let region = &frames[1];
    assert!(relay_result_frame(&region[4..region.len() - 1], id, relay_id, used()).is_err());
}
