//! Partial-write resumption of the reactor's frame writer.
//!
//! The contract under test: `tasm_proto::nio::FrameQueue` driven against a
//! sink that accepts arbitrary 1..N-byte slices — with `WouldBlock`
//! interleaved between them — emits a byte stream identical to a single
//! contiguous write of the same frames, for every `Message` variant the
//! protocol defines. This is the property the reactor's write-readiness
//! loop depends on: a session parked mid-frame at any byte offset must
//! resume exactly where it stopped, never duplicating, dropping, or
//! reordering a byte.

use std::io::{self, Write};

use proptest::collection::vec;
use proptest::prelude::*;
use tasm_core::{LabelPredicate, PlanStats, Query, QueryMode, RegionPixels};
use tasm_proto::nio::{FrameQueue, FrameReader, ReadProgress, WriteProgress};
use tasm_proto::{
    encode_region, ErrorCode, Message, QueryTrace, ReplicatedDetection, ReplicationRecord,
    ResultSummary, VERSION,
};
use tasm_service::ServiceStats;
use tasm_video::{Frame, Rect};

/// One encoded frame per protocol message variant (plus the borrowed-region
/// fast path, which bypasses `Message::encode` entirely), so the resumption
/// property is exercised across every frame shape the reactor can emit or
/// relay: empty-payload singletons, nested structs, and pixel planes.
fn all_frame_kinds() -> Vec<Vec<u8>> {
    let rect = Rect {
        x: 4,
        y: 8,
        w: 16,
        h: 12,
    };
    let region = RegionPixels {
        frame: 7,
        rect,
        pixels: Frame::filled(16, 12, 120, 90, 160),
    };
    let query = Query::new(LabelPredicate::label("car"))
        .frames(3..40)
        .roi(rect)
        .stride(2)
        .limit(5)
        .mode(QueryMode::Pixels);
    let detection = ReplicatedDetection {
        label: "van".into(),
        frame: 9,
        rect,
    };
    let messages = vec![
        Message::ClientHello { version: VERSION },
        Message::ServerHello {
            version: VERSION,
            max_inflight: 8,
        },
        Message::Query {
            id: 42,
            video: "v".into(),
            query: query.clone(),
            trace_id: Some(0xfeed_beef),
        },
        Message::ResultHeader {
            id: 42,
            matched: 3,
            regions: 2,
            plan: PlanStats {
                tiles_planned: 6,
                tiles_pruned: 10,
                ..PlanStats::default()
            },
            epoch: 1,
        },
        Message::Region {
            id: 42,
            region: region.clone(),
        },
        Message::ResultDone {
            id: 42,
            summary: ResultSummary {
                samples_decoded: 12,
                ..ResultSummary::default()
            },
            trace: Some(QueryTrace::default()),
        },
        Message::StatsRequest,
        Message::StatsReply {
            stats: Box::new(ServiceStats::default()),
        },
        Message::Error {
            id: Some(7),
            code: ErrorCode::Busy,
            message: "queue full".into(),
        },
        Message::Goodbye,
        Message::ShutdownServer,
        Message::Replicate {
            seq: 1,
            record: ReplicationRecord::StageSot {
                video: "v".into(),
                sot_idx: 0,
                tiles: vec![vec![1, 2, 3], vec![4]],
            },
        },
        Message::Replicate {
            seq: 2,
            record: ReplicationRecord::CommitVideo {
                epoch: 3,
                video: "v".into(),
                manifest: b"{}".to_vec(),
            },
        },
        Message::Replicate {
            seq: 3,
            record: ReplicationRecord::CommitSot {
                epoch: 4,
                video: "v".into(),
                sot_idx: 1,
                manifest: b"{}".to_vec(),
            },
        },
        Message::Replicate {
            seq: 4,
            record: ReplicationRecord::IndexState {
                video: "v".into(),
                detections: vec![detection],
                processed: vec![0, 10, 20],
            },
        },
        Message::ReplicateAck { seq: 4 },
        Message::ManifestRequest { video: "v".into() },
        Message::ManifestReply {
            video: "v".into(),
            manifest: b"{\"sots\":[]}".to_vec(),
        },
        Message::PushVideo {
            seq: 5,
            video: "v".into(),
            target: "127.0.0.1:9".into(),
        },
        Message::RemoveVideo {
            seq: 6,
            video: "v".into(),
        },
    ];
    let mut frames: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
    frames.push(encode_region(42, &region, &tasm_proto::nio::wire_buffers()));
    frames
}

/// A sink that accepts bytes according to a script: each entry is either
/// `WouldBlock` (0) or a cap on how many bytes the next `write` may take.
/// Once the script runs out the sink accepts everything, so the drive loop
/// always terminates.
struct ChunkSink {
    accepted: Vec<u8>,
    script: Vec<usize>,
    step: usize,
}

impl Write for ChunkSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let cap = self.script.get(self.step).copied();
        self.step += 1;
        match cap {
            Some(0) => Err(io::ErrorKind::WouldBlock.into()),
            Some(n) => {
                let n = n.min(buf.len());
                self.accepted.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            None => {
                self.accepted.extend_from_slice(buf);
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drives `queue` into `sink` the way the reactor does: one `write_to` per
/// "readiness event", resuming after every `Blocked` until flushed.
fn drive(queue: &mut FrameQueue, sink: &mut ChunkSink) -> usize {
    let mut passes = 0;
    loop {
        passes += 1;
        assert!(passes < 1_000_000, "writer failed to make progress");
        match queue
            .write_to(sink)
            .expect("scripted sink never hard-fails")
        {
            WriteProgress::Flushed => return passes,
            WriteProgress::Blocked { .. } => continue,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every frame type, under arbitrary slice sizes and WouldBlock
    /// interleavings, the accepted byte stream equals the contiguous
    /// concatenation — and re-framing it recovers the exact frames.
    #[test]
    fn resumed_writes_match_contiguous(
        // Per-write byte caps; 0 = WouldBlock. Heavy on tiny slices so
        // length prefixes and frame boundaries are split mid-u32.
        script in vec(0usize..7, 0..600),
        // Rotate which frame goes first so boundary splits land on
        // different variants across cases.
        rotate in 0usize..32,
    ) {
        let mut frames = all_frame_kinds();
        let r = rotate % frames.len();
        frames.rotate_left(r);
        let contiguous: Vec<u8> = frames.concat();

        let mut queue = FrameQueue::new();
        for f in &frames {
            queue.push(f.clone());
        }
        prop_assert_eq!(queue.queued_bytes(), contiguous.len());

        let mut sink = ChunkSink { accepted: Vec::new(), script, step: 0 };
        drive(&mut queue, &mut sink);

        prop_assert!(queue.is_empty());
        prop_assert_eq!(queue.queued_bytes(), 0);
        prop_assert_eq!(&sink.accepted, &contiguous);

        // Round-trip: the resumed stream must re-frame into exactly the
        // original payloads, each of which still decodes.
        let mut src = io::Cursor::new(&sink.accepted);
        let mut reader = FrameReader::new();
        let mut recovered = Vec::new();
        loop {
            match reader.fill_from(&mut src).expect("stream re-frames cleanly") {
                ReadProgress::Frame(payload) => recovered.push(payload.into_owned()),
                ReadProgress::Closed => break,
                ReadProgress::NeedMore => unreachable!("cursor never blocks"),
            }
        }
        prop_assert_eq!(recovered.len(), frames.len());
        for (payload, frame) in recovered.iter().zip(&frames) {
            prop_assert_eq!(payload.as_slice(), &frame[4..]);
            prop_assert!(Message::decode_payload(payload).is_ok());
        }
    }
}

/// A queue interleaved with new pushes mid-stall keeps strict FIFO order:
/// frames queued while the front frame is parked at a byte offset do not
/// reorder ahead of it.
#[test]
fn push_while_blocked_preserves_order() {
    let frames = all_frame_kinds();
    let contiguous: Vec<u8> = frames.concat();

    let mut queue = FrameQueue::new();
    let mut sink = ChunkSink {
        accepted: Vec::new(),
        // Accept 3 bytes then stall forever (until the script is spent).
        script: vec![3, 0, 0, 5, 0, 1, 0, 2],
        step: 0,
    };
    let mut pending = frames.clone().into_iter();
    queue.push(pending.next().unwrap());
    loop {
        match queue.write_to(&mut sink).unwrap() {
            WriteProgress::Blocked { .. } => {
                if let Some(f) = pending.next() {
                    queue.push(f);
                }
            }
            WriteProgress::Flushed => {
                if let Some(f) = pending.next() {
                    queue.push(f);
                } else {
                    break;
                }
            }
        }
    }
    assert!(queue.is_empty());
    assert_eq!(sink.accepted, contiguous);
}
