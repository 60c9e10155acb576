//! The protocol message set and its byte-level codec.

use crate::nio::WireBuffers;
use crate::wire::{encode_frame, read_frame, ProtoError, Reader, Writer};
use std::io::{Read, Write};
use tasm_core::{LabelPredicate, PlanStats, Query, QueryMode, RegionPixels, SharedScanStats};
use tasm_obs::{HistogramSnapshot, QueryTrace, HISTOGRAM_BANDS};
use tasm_service::ServiceStats;
use tasm_video::{Frame, Plane, Rect};

/// Protocol magic opening every client hello.
pub const MAGIC: [u8; 4] = *b"TASM";

/// Protocol version this build speaks. A server refuses hellos carrying any
/// other version with [`ErrorCode::VersionMismatch`].
pub const VERSION: u16 = 1;

/// Caps on predicate shape, far above anything the query surface produces;
/// they bound what a corrupt clause count can make the decoder build.
const MAX_CLAUSES: usize = 64;
const MAX_CLAUSE_LABELS: usize = 256;

/// Caps on replication payload shape: tile-count per staged SOT chunk and
/// index items per record. Both are far above anything the system produces
/// (layouts top out at dozens of tiles; index records ship one video's
/// detections); they bound what a corrupt count can make the decoder build.
const MAX_REPLICA_TILES: usize = 4096;
const MAX_INDEX_ITEMS: usize = 1 << 22;

mod tag {
    pub const CLIENT_HELLO: u8 = 0x01;
    pub const SERVER_HELLO: u8 = 0x02;
    pub const QUERY: u8 = 0x03;
    pub const RESULT_HEADER: u8 = 0x04;
    pub const REGION: u8 = 0x05;
    pub const RESULT_DONE: u8 = 0x06;
    pub const STATS_REQUEST: u8 = 0x07;
    pub const STATS_REPLY: u8 = 0x08;
    pub const ERROR: u8 = 0x09;
    pub const GOODBYE: u8 = 0x0a;
    pub const SHUTDOWN_SERVER: u8 = 0x0b;
    pub const REPLICATE: u8 = 0x0c;
    pub const REPLICATE_ACK: u8 = 0x0d;
    pub const MANIFEST_REQUEST: u8 = 0x0e;
    pub const MANIFEST_REPLY: u8 = 0x0f;
    pub const PUSH_VIDEO: u8 = 0x10;
    pub const REMOVE_VIDEO: u8 = 0x11;
}

/// One detection row of a replicated semantic-index state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedDetection {
    /// Object label.
    pub label: String,
    /// Frame the detection belongs to.
    pub frame: u32,
    /// Bounding box.
    pub rect: Rect,
}

/// One epoch-stamped primary→backup replication record, carried by
/// [`Message::Replicate`]. A full video sync is a sequence of `StageSot`
/// chunks (tile-file bytes, chunked to respect [`crate::MAX_FRAME_LEN`])
/// closed by one `CommitVideo`; a re-tile ships the changed SOT's tiles and
/// a `CommitSot`. Tile bytes travel verbatim, so the backup's files are
/// byte-identical to the primary's and a failed-over replica answers
/// bit-identically at the same layout epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationRecord {
    /// Tile-file bytes for one SOT, staged on the backup until a commit
    /// record lands. Consecutive `StageSot` frames for the same
    /// `(video, sot_idx)` append tiles in order.
    StageSot {
        /// Video name.
        video: String,
        /// Index of the SOT within the manifest.
        sot_idx: u32,
        /// Raw tile-file bytes, in tile order (possibly a chunk).
        tiles: Vec<Vec<u8>>,
    },
    /// Publish a whole staged video under `manifest` (JSON bytes, shipped
    /// verbatim from the primary).
    CommitVideo {
        /// The video's layout epoch (sum of per-SOT retile counts).
        epoch: u64,
        /// Video name.
        video: String,
        /// The primary's manifest, JSON-encoded.
        manifest: Vec<u8>,
    },
    /// Publish one staged SOT of an existing video at its new layout epoch.
    CommitSot {
        /// The SOT's post-commit `retile_count`.
        epoch: u64,
        /// Video name.
        video: String,
        /// Index of the re-tiled SOT within the manifest.
        sot_idx: u32,
        /// The primary's post-commit manifest, JSON-encoded. The backup
        /// installs only its entry for SOT `sot_idx`, over the backup's own
        /// manifest; the rest must agree with that manifest (name, size,
        /// fps, frame count, config, every SOT's bounds) or the record is
        /// refused.
        manifest: Vec<u8>,
    },
    /// The video's semantic-index state: every detection plus the set of
    /// detector-processed frames.
    IndexState {
        /// Video name.
        video: String,
        /// All detections of the video.
        detections: Vec<ReplicatedDetection>,
        /// Frames marked detector-processed.
        processed: Vec<u32>,
    },
}

/// Typed rejection codes carried by [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The service's submission queue is full — retry later. Returned
    /// instead of blocking the socket (admission control).
    Busy,
    /// The session already has its configured maximum of queries in
    /// flight.
    TooManyInflight,
    /// The server is at its connection limit; the connection is closed
    /// after this frame.
    TooManyConnections,
    /// The server is shutting down and accepts no new queries.
    ShuttingDown,
    /// The client hello's protocol version is not supported.
    VersionMismatch,
    /// The peer sent a frame this side could not decode; the connection is
    /// closed after this frame (a corrupt length-prefixed stream cannot be
    /// resynchronized).
    Malformed,
    /// The named video is not registered on the server.
    UnknownVideo,
    /// The query failed inside the storage manager.
    Internal,
    /// The query's `AS OF` epoch is not live on the server — it was never
    /// published, or its last reader drained and it has been reclaimed.
    EpochNotLive,
}

impl ErrorCode {
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Busy => 0,
            ErrorCode::TooManyInflight => 1,
            ErrorCode::TooManyConnections => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::VersionMismatch => 4,
            ErrorCode::Malformed => 5,
            ErrorCode::UnknownVideo => 6,
            ErrorCode::Internal => 7,
            ErrorCode::EpochNotLive => 8,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            0 => ErrorCode::Busy,
            1 => ErrorCode::TooManyInflight,
            2 => ErrorCode::TooManyConnections,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::VersionMismatch,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::UnknownVideo,
            7 => ErrorCode::Internal,
            8 => ErrorCode::EpochNotLive,
            other => return Err(ProtoError::UnknownErrorCode(other)),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Busy => "busy",
            ErrorCode::TooManyInflight => "too many queries in flight",
            ErrorCode::TooManyConnections => "too many connections",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::VersionMismatch => "protocol version mismatch",
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::UnknownVideo => "unknown video",
            ErrorCode::Internal => "internal error",
            ErrorCode::EpochNotLive => "epoch not live",
        };
        f.write_str(s)
    }
}

/// Decode-side accounting attached to a completed remote query
/// ([`Message::ResultDone`]): what the server actually did for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultSummary {
    /// Samples decoded for this query (cache reuse excluded).
    pub samples_decoded: u64,
    /// Samples served from the decoded-GOP cache.
    pub samples_reused: u64,
    /// Decoded-GOP cache hits.
    pub cache_hits: u64,
    /// Decoded-GOP cache misses.
    pub cache_misses: u64,
    /// Shared-scan dedup: GOP decodes owned vs. joined.
    pub shared: SharedScanStats,
    /// Server-side semantic-index lookup time, microseconds.
    pub lookup_micros: u64,
    /// Server-side decode execution wall clock, microseconds.
    pub exec_micros: u64,
}

/// One protocol message. Each message travels in one length-prefixed frame
/// (see the crate docs for the frame layout); `Query` results stream back as a
/// [`Message::ResultHeader`], zero or more [`Message::Region`] frames, and
/// a closing [`Message::ResultDone`], all carrying the request id so a
/// session can interleave responses of concurrent in-flight queries.
#[derive(Debug, Clone)]
pub enum Message {
    /// Client → server, first frame on a connection: magic plus version.
    ClientHello {
        /// Protocol version the client speaks.
        version: u16,
    },
    /// Server → client handshake acceptance.
    ServerHello {
        /// Protocol version the server speaks.
        version: u16,
        /// Per-session in-flight query cap the server will enforce.
        max_inflight: u32,
    },
    /// Client → server: execute `query` against `video`.
    Query {
        /// Client-chosen request id echoed on every response frame.
        id: u64,
        /// Video name, as registered on the server.
        video: String,
        /// The full spatiotemporal query (predicate ∧ ROI/stride/limit ∧
        /// aggregate mode).
        query: Query,
        /// Client-supplied distributed trace id. `None` lets the server
        /// assign one at admission; either way the id comes back on the
        /// [`Message::ResultDone`] trace.
        trace_id: Option<u64>,
    },
    /// Server → client: the query matched; `regions` region frames follow.
    ResultHeader {
        /// Echoed request id.
        id: u64,
        /// Regions matching the query's predicates (aggregate modes report
        /// this without materializing pixels).
        matched: u64,
        /// Number of [`Message::Region`] frames that follow.
        regions: u32,
        /// Planner accounting for this query.
        plan: PlanStats,
        /// The layout epoch the server executed the query against. Echoes
        /// the pinned epoch for `AS OF` queries; otherwise reports the
        /// epoch current at plan time.
        epoch: u64,
    },
    /// Server → client: one matched region with its pixels.
    ///
    /// Protocol limit: a region's encoded planes must fit one frame
    /// ([`crate::MAX_FRAME_LEN`]), which holds for any region up to an
    /// 8K video frame (~33 Mpixels ≈ 50 MiB of 4:2:0 planes) — beyond
    /// every source this storage manager serves. Larger regions would
    /// need a chunked region stream in a future protocol version.
    Region {
        /// Echoed request id.
        id: u64,
        /// The region (frame number, rectangle, decoded pixels).
        region: RegionPixels,
    },
    /// Server → client: the query's response stream is complete.
    ResultDone {
        /// Echoed request id.
        id: u64,
        /// What serving the query cost.
        summary: ResultSummary,
        /// Per-phase execution trace of the query on the node that served
        /// it, tagged with the serving instance and executed epoch. The
        /// router relays it unchanged, so a routed query's trace names the
        /// shard that ran it.
        trace: Option<QueryTrace>,
    },
    /// Client → server: report aggregate service statistics.
    StatsRequest,
    /// Server → client: the service statistics snapshot, including the
    /// latency histogram. Boxed: the histogram makes `ServiceStats` by far
    /// the largest body, and it would otherwise size every `Message`.
    StatsReply {
        /// Aggregate service counters.
        stats: Box<ServiceStats>,
    },
    /// Either direction: a typed failure. `id` names the request it
    /// belongs to, or `None` for connection-level errors.
    Error {
        /// Request the error belongs to, if any.
        id: Option<u64>,
        /// The typed rejection.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: clean close of the session.
    Goodbye,
    /// Client → server (administrative): ask the whole server to shut down
    /// gracefully — drain in-flight queries, stop the retile daemon, exit.
    ShutdownServer,
    /// Primary → backup: one replication record. The backup replies with
    /// [`Message::ReplicateAck`] echoing `seq` once the record is durably
    /// applied (or staged), or [`Message::Error`] carrying `seq` as its id.
    Replicate {
        /// Sender-chosen sequence number echoed on the ack.
        seq: u64,
        /// The record.
        record: ReplicationRecord,
    },
    /// Backup → primary: the record with this `seq` is durable.
    ReplicateAck {
        /// Echoed sequence number.
        seq: u64,
    },
    /// Client → server (administrative): fetch a video's manifest, for
    /// replica verification.
    ManifestRequest {
        /// Video name.
        video: String,
    },
    /// Server → client: the manifest, JSON-encoded exactly as stored.
    ManifestReply {
        /// Echoed video name.
        video: String,
        /// Manifest JSON bytes.
        manifest: Vec<u8>,
    },
    /// Client → server (administrative): replicate `video` in full to the
    /// node at `target` (the rebalance copy step, driven by the node that
    /// owns the bytes). Acked with [`Message::ReplicateAck`].
    PushVideo {
        /// Sender-chosen sequence number echoed on the ack.
        seq: u64,
        /// Video name.
        video: String,
        /// `host:port` of the receiving node.
        target: String,
    },
    /// Client → server (administrative): drop `video` from this node after
    /// draining in-flight queries (the rebalance GC step). Acked with
    /// [`Message::ReplicateAck`].
    RemoveVideo {
        /// Sender-chosen sequence number echoed on the ack.
        seq: u64,
        /// Video name.
        video: String,
    },
}

impl Message {
    /// Encodes the full frame — length prefix plus tagged payload — once,
    /// into its final buffer (sized exactly for a region, whose planes are
    /// the only bulk a served stream carries). The one message encoder:
    /// every frame this crate puts on a wire comes from here (or from
    /// [`encode_region`], its borrowed-region entry point).
    pub fn encode(&self) -> Vec<u8> {
        let hint = match self {
            Message::Region { region, .. } => region_payload_len(region),
            _ => SMALL_PAYLOAD_HINT,
        };
        encode_frame(Vec::new(), hint, |w| self.encode_payload(w))
    }

    /// Writes the payload (tag plus body) without the length prefix.
    fn encode_payload(&self, w: &mut Writer) {
        match self {
            Message::ClientHello { version } => {
                w.u8(tag::CLIENT_HELLO);
                for b in MAGIC {
                    w.u8(b);
                }
                w.u16(*version);
            }
            Message::ServerHello {
                version,
                max_inflight,
            } => {
                w.u8(tag::SERVER_HELLO);
                w.u16(*version);
                w.u32(*max_inflight);
            }
            Message::Query {
                id,
                video,
                query,
                trace_id,
            } => {
                w.u8(tag::QUERY);
                w.u64(*id);
                w.str(video);
                encode_query(w, query);
                match trace_id {
                    Some(trace_id) => {
                        w.u8(1);
                        w.u64(*trace_id);
                    }
                    None => w.u8(0),
                }
            }
            Message::ResultHeader {
                id,
                matched,
                regions,
                plan,
                epoch,
            } => {
                w.u8(tag::RESULT_HEADER);
                w.u64(*id);
                w.u64(*matched);
                w.u32(*regions);
                encode_plan(w, plan);
                w.u64(*epoch);
            }
            Message::Region { id, region } => encode_region_payload(w, *id, region),
            Message::ResultDone { id, summary, trace } => {
                w.u8(tag::RESULT_DONE);
                w.u64(*id);
                w.u64(summary.samples_decoded);
                w.u64(summary.samples_reused);
                w.u64(summary.cache_hits);
                w.u64(summary.cache_misses);
                w.u64(summary.shared.owned);
                w.u64(summary.shared.joined);
                w.u64(summary.lookup_micros);
                w.u64(summary.exec_micros);
                match trace {
                    Some(trace) => {
                        w.u8(1);
                        encode_trace(w, trace);
                    }
                    None => w.u8(0),
                }
            }
            Message::StatsRequest => w.u8(tag::STATS_REQUEST),
            Message::StatsReply { stats } => {
                w.u8(tag::STATS_REPLY);
                encode_stats(w, stats);
            }
            Message::Error { id, code, message } => {
                w.u8(tag::ERROR);
                match id {
                    Some(id) => {
                        w.u8(1);
                        w.u64(*id);
                    }
                    None => w.u8(0),
                }
                w.u8(code.as_u8());
                w.str(message);
            }
            Message::Goodbye => w.u8(tag::GOODBYE),
            Message::ShutdownServer => w.u8(tag::SHUTDOWN_SERVER),
            Message::Replicate { seq, record } => {
                w.u8(tag::REPLICATE);
                w.u64(*seq);
                encode_record(w, record);
            }
            Message::ReplicateAck { seq } => {
                w.u8(tag::REPLICATE_ACK);
                w.u64(*seq);
            }
            Message::ManifestRequest { video } => {
                w.u8(tag::MANIFEST_REQUEST);
                w.str(video);
            }
            Message::ManifestReply { video, manifest } => {
                w.u8(tag::MANIFEST_REPLY);
                w.str(video);
                w.bytes(manifest);
            }
            Message::PushVideo { seq, video, target } => {
                w.u8(tag::PUSH_VIDEO);
                w.u64(*seq);
                w.str(video);
                w.str(target);
            }
            Message::RemoveVideo { seq, video } => {
                w.u8(tag::REMOVE_VIDEO);
                w.u64(*seq);
                w.str(video);
            }
        }
    }

    /// Decodes one payload (tag plus body, no length prefix). The payload
    /// must be consumed exactly; malformed input of any shape returns a
    /// typed [`ProtoError`], never panics.
    pub fn decode_payload(payload: &[u8]) -> Result<Message, ProtoError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            tag::CLIENT_HELLO => {
                let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
                if magic != MAGIC {
                    return Err(ProtoError::BadMagic(magic));
                }
                Message::ClientHello { version: r.u16()? }
            }
            tag::SERVER_HELLO => Message::ServerHello {
                version: r.u16()?,
                max_inflight: r.u32()?,
            },
            tag::QUERY => Message::Query {
                id: r.u64()?,
                video: r.str()?,
                query: decode_query(&mut r)?,
                trace_id: match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(ProtoError::Malformed("trace id presence flag")),
                },
            },
            tag::RESULT_HEADER => Message::ResultHeader {
                id: r.u64()?,
                matched: r.u64()?,
                regions: r.u32()?,
                plan: decode_plan(&mut r)?,
                epoch: r.u64()?,
            },
            tag::REGION => {
                let region = RegionView::parse(&mut r)?;
                // The one copy a pixel pays on the receive side: out of
                // the payload (the receive buffer) into its plane.
                let [y, u, v] = region.planes.map(<[u8]>::to_vec);
                let pixels = Frame::from_planes(region.width, region.height, y, u, v)
                    .ok_or(ProtoError::Malformed("region plane dimensions"))?;
                Message::Region {
                    id: region.id,
                    region: RegionPixels {
                        frame: region.frame,
                        rect: region.rect,
                        pixels,
                    },
                }
            }
            tag::RESULT_DONE => Message::ResultDone {
                id: r.u64()?,
                summary: ResultSummary {
                    samples_decoded: r.u64()?,
                    samples_reused: r.u64()?,
                    cache_hits: r.u64()?,
                    cache_misses: r.u64()?,
                    shared: SharedScanStats {
                        owned: r.u64()?,
                        joined: r.u64()?,
                    },
                    lookup_micros: r.u64()?,
                    exec_micros: r.u64()?,
                },
                trace: match r.u8()? {
                    0 => None,
                    1 => Some(decode_trace(&mut r)?),
                    _ => return Err(ProtoError::Malformed("trace presence flag")),
                },
            },
            tag::STATS_REQUEST => Message::StatsRequest,
            tag::STATS_REPLY => Message::StatsReply {
                stats: Box::new(decode_stats(&mut r)?),
            },
            tag::ERROR => {
                let id = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(ProtoError::Malformed("error id presence flag")),
                };
                Message::Error {
                    id,
                    code: ErrorCode::from_u8(r.u8()?)?,
                    message: r.str()?,
                }
            }
            tag::GOODBYE => Message::Goodbye,
            tag::SHUTDOWN_SERVER => Message::ShutdownServer,
            tag::REPLICATE => Message::Replicate {
                seq: r.u64()?,
                record: decode_record(&mut r)?,
            },
            tag::REPLICATE_ACK => Message::ReplicateAck { seq: r.u64()? },
            tag::MANIFEST_REQUEST => Message::ManifestRequest { video: r.str()? },
            tag::MANIFEST_REPLY => Message::ManifestReply {
                video: r.str()?,
                manifest: r.bytes()?,
            },
            tag::PUSH_VIDEO => Message::PushVideo {
                seq: r.u64()?,
                video: r.str()?,
                target: r.str()?,
            },
            tag::REMOVE_VIDEO => Message::RemoveVideo {
                seq: r.u64()?,
                video: r.str()?,
            },
            other => return Err(ProtoError::UnknownMessage(other)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Writes this message as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Reads and decodes one frame (see [`read_frame`] for the timeout
    /// contract).
    pub fn read_from(r: &mut impl Read) -> Result<Message, ProtoError> {
        let payload = read_frame(r)?;
        Message::decode_payload(&payload)
    }
}

/// Buffer a non-region message starts with; most are a few dozen bytes,
/// and one that is not simply grows.
const SMALL_PAYLOAD_HINT: usize = 64;

/// Exact length of the payload [`encode_region_payload`] writes: tag, id,
/// frame, rect, dimensions, and three length-prefixed planes.
fn region_payload_len(region: &RegionPixels) -> usize {
    let planes: usize = Plane::ALL
        .iter()
        .map(|&plane| 4 + region.pixels.plane(plane).len())
        .sum();
    1 + 8 + 4 + 16 + 4 + 4 + planes
}

fn encode_region_payload(w: &mut Writer, id: u64, region: &RegionPixels) {
    w.u8(tag::REGION);
    w.u64(id);
    w.u32(region.frame);
    encode_rect(w, &region.rect);
    w.u32(region.pixels.width());
    w.u32(region.pixels.height());
    for plane in Plane::ALL {
        w.bytes(region.pixels.plane(plane));
    }
}

/// Encodes a [`Message::Region`] frame (length prefix included) from a
/// borrowed region, sparing the server a pixel-plane clone per streamed
/// region: [`Message::encode`] for a region the caller does not own. The
/// frame is written in a buffer from `spare`, the free list of the queue
/// it is bound for.
pub fn encode_region(id: u64, region: &RegionPixels, spare: &WireBuffers) -> Vec<u8> {
    let len = region_payload_len(region);
    encode_frame(spare.take(4 + len), len, |w| {
        encode_region_payload(w, id, region)
    })
}

/// A REGION body as it lies in a payload, planes still borrowed.
struct RegionView<'a> {
    id: u64,
    frame: u32,
    rect: Rect,
    width: u32,
    height: u32,
    planes: [&'a [u8]; 3],
}

impl<'a> RegionView<'a> {
    /// Parses the body after the tag and holds the plane lengths to the
    /// dimensions, without copying a pixel.
    fn parse(r: &mut Reader<'a>) -> Result<RegionView<'a>, ProtoError> {
        let view = RegionView {
            id: r.u64()?,
            frame: r.u32()?,
            rect: decode_rect(r)?,
            width: r.u32()?,
            height: r.u32()?,
            planes: [r.byte_slice()?, r.byte_slice()?, r.byte_slice()?],
        };
        let lens = view.planes.map(<[u8]>::len);
        match Frame::plane_lens(view.width, view.height) {
            Some((luma, chroma)) if lens == [luma, chroma, chroma] => Ok(view),
            _ => Err(ProtoError::Malformed("region plane dimensions")),
        }
    }
}

/// What a frame of a query's result stream is, as far as a relay needs to
/// know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultFrame {
    /// The [`Message::ResultHeader`]; `regions` region frames follow.
    Header {
        /// Region frames that follow.
        regions: u32,
    },
    /// One [`Message::Region`].
    Region,
    /// The closing [`Message::ResultDone`].
    Done,
}

/// Re-addresses one frame of a result stream for relay: checks that
/// `payload` is a well-formed header, region or done frame of request
/// `id` and returns its kind with the frame (length prefix included)
/// carrying `relay_id` instead — every byte but the eight of the id
/// verbatim, so a region crosses a router in one copy and its pixels are
/// never decoded. `Ok(None)` for any other message (an error frame, which
/// the caller decodes). The frame is written in a buffer from `spare`, as
/// [`encode_region`]'s is.
pub fn relay_result_frame(
    payload: &[u8],
    id: u64,
    relay_id: u64,
    spare: &WireBuffers,
) -> Result<Option<(ResultFrame, Vec<u8>)>, ProtoError> {
    let (kind, got) = match payload.first() {
        Some(&tag::REGION) => {
            let mut r = Reader::new(&payload[1..]);
            let region = RegionView::parse(&mut r)?;
            r.finish()?;
            (ResultFrame::Region, region.id)
        }
        Some(&tag::RESULT_HEADER) | Some(&tag::RESULT_DONE) => {
            match Message::decode_payload(payload)? {
                Message::ResultHeader { id, regions, .. } => (ResultFrame::Header { regions }, id),
                Message::ResultDone { id, .. } => (ResultFrame::Done, id),
                _ => return Ok(None),
            }
        }
        _ => return Ok(None),
    };
    if got != id {
        return Err(ProtoError::Malformed("response for a different request"));
    }
    // Header, region and done all carry the request id right after the tag.
    let buf = spare.take(4 + payload.len());
    let mut frame = encode_frame(buf, payload.len(), |w| w.raw(payload));
    frame[5..13].copy_from_slice(&relay_id.to_le_bytes());
    Ok(Some((kind, frame)))
}

fn encode_record(w: &mut Writer, rec: &ReplicationRecord) {
    match rec {
        ReplicationRecord::StageSot {
            video,
            sot_idx,
            tiles,
        } => {
            w.u8(0);
            w.str(video);
            w.u32(*sot_idx);
            w.u32(tiles.len() as u32);
            for t in tiles {
                w.bytes(t);
            }
        }
        ReplicationRecord::CommitVideo {
            epoch,
            video,
            manifest,
        } => {
            w.u8(1);
            w.u64(*epoch);
            w.str(video);
            w.bytes(manifest);
        }
        ReplicationRecord::CommitSot {
            epoch,
            video,
            sot_idx,
            manifest,
        } => {
            w.u8(2);
            w.u64(*epoch);
            w.str(video);
            w.u32(*sot_idx);
            w.bytes(manifest);
        }
        ReplicationRecord::IndexState {
            video,
            detections,
            processed,
        } => {
            w.u8(3);
            w.str(video);
            w.u32(detections.len() as u32);
            for d in detections {
                w.str(&d.label);
                w.u32(d.frame);
                encode_rect(w, &d.rect);
            }
            w.u32(processed.len() as u32);
            for &f in processed {
                w.u32(f);
            }
        }
    }
}

fn decode_record(r: &mut Reader<'_>) -> Result<ReplicationRecord, ProtoError> {
    Ok(match r.u8()? {
        0 => {
            let video = r.str()?;
            let sot_idx = r.u32()?;
            let n = r.u32()? as usize;
            if n > MAX_REPLICA_TILES {
                return Err(ProtoError::Malformed("staged tile count"));
            }
            let mut tiles = Vec::new();
            for _ in 0..n {
                tiles.push(r.bytes()?);
            }
            ReplicationRecord::StageSot {
                video,
                sot_idx,
                tiles,
            }
        }
        1 => ReplicationRecord::CommitVideo {
            epoch: r.u64()?,
            video: r.str()?,
            manifest: r.bytes()?,
        },
        2 => ReplicationRecord::CommitSot {
            epoch: r.u64()?,
            video: r.str()?,
            sot_idx: r.u32()?,
            manifest: r.bytes()?,
        },
        3 => {
            let video = r.str()?;
            let n = r.u32()? as usize;
            if n > MAX_INDEX_ITEMS {
                return Err(ProtoError::Malformed("replicated detection count"));
            }
            let mut detections = Vec::new();
            for _ in 0..n {
                detections.push(ReplicatedDetection {
                    label: r.str()?,
                    frame: r.u32()?,
                    rect: decode_rect(r)?,
                });
            }
            let n = r.u32()? as usize;
            if n > MAX_INDEX_ITEMS {
                return Err(ProtoError::Malformed("processed frame count"));
            }
            let mut processed = Vec::new();
            for _ in 0..n {
                processed.push(r.u32()?);
            }
            ReplicationRecord::IndexState {
                video,
                detections,
                processed,
            }
        }
        _ => return Err(ProtoError::Malformed("replication record kind")),
    })
}

fn encode_rect(w: &mut Writer, r: &Rect) {
    w.u32(r.x);
    w.u32(r.y);
    w.u32(r.w);
    w.u32(r.h);
}

fn decode_rect(r: &mut Reader<'_>) -> Result<Rect, ProtoError> {
    Ok(Rect::new(r.u32()?, r.u32()?, r.u32()?, r.u32()?))
}

fn encode_query(w: &mut Writer, q: &Query) {
    let clauses = q.predicate().clauses();
    w.u16(clauses.len() as u16);
    for clause in clauses {
        w.u16(clause.len() as u16);
        for label in clause {
            w.str(label);
        }
    }
    let frames = q.frame_range();
    w.u32(frames.start);
    w.u32(frames.end);
    match q.roi_rect() {
        Some(roi) => {
            w.u8(1);
            encode_rect(w, &roi);
        }
        None => w.u8(0),
    }
    w.u32(q.stride_len());
    match q.limit_count() {
        Some(limit) => {
            w.u8(1);
            w.u32(limit);
        }
        None => w.u8(0),
    }
    w.u8(match q.query_mode() {
        QueryMode::Pixels => 0,
        QueryMode::Count => 1,
        QueryMode::Exists => 2,
    });
    match q.as_of_epoch() {
        Some(epoch) => {
            w.u8(1);
            w.u64(epoch);
        }
        None => w.u8(0),
    }
}

fn decode_query(r: &mut Reader<'_>) -> Result<Query, ProtoError> {
    let n_clauses = r.u16()? as usize;
    if n_clauses == 0 || n_clauses > MAX_CLAUSES {
        return Err(ProtoError::Malformed("predicate clause count"));
    }
    let mut predicate: Option<LabelPredicate> = None;
    for _ in 0..n_clauses {
        let n_labels = r.u16()? as usize;
        if n_labels == 0 || n_labels > MAX_CLAUSE_LABELS {
            return Err(ProtoError::Malformed("clause label count"));
        }
        let labels: Vec<String> = (0..n_labels).map(|_| r.str()).collect::<Result<_, _>>()?;
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        predicate = Some(match predicate {
            None => LabelPredicate::any_of(&refs),
            Some(p) => p.and(&refs),
        });
    }
    let predicate = predicate.expect("n_clauses >= 1");
    let (start, end) = (r.u32()?, r.u32()?);
    let mut query = Query::new(predicate).frames(start..end);
    match r.u8()? {
        0 => {}
        1 => query = query.roi(decode_rect(r)?),
        _ => return Err(ProtoError::Malformed("roi presence flag")),
    }
    let stride = r.u32()?;
    if stride == 0 {
        return Err(ProtoError::Malformed("zero stride"));
    }
    query = query.stride(stride);
    match r.u8()? {
        0 => {}
        1 => query = query.limit(r.u32()?),
        _ => return Err(ProtoError::Malformed("limit presence flag")),
    }
    query = query.mode(match r.u8()? {
        0 => QueryMode::Pixels,
        1 => QueryMode::Count,
        2 => QueryMode::Exists,
        other => return Err(ProtoError::UnknownQueryMode(other)),
    });
    match r.u8()? {
        0 => {}
        1 => query = query.as_of(r.u64()?),
        _ => return Err(ProtoError::Malformed("as-of presence flag")),
    }
    Ok(query)
}

fn encode_trace(w: &mut Writer, t: &QueryTrace) {
    w.u64(t.trace_id);
    w.str(&t.instance);
    w.u64(t.epoch);
    w.u64(t.queue_micros);
    w.u64(t.plan_micros);
    w.u64(t.decode_micros);
    w.u64(t.stream_micros);
    w.u64(t.total_micros);
}

fn decode_trace(r: &mut Reader<'_>) -> Result<QueryTrace, ProtoError> {
    Ok(QueryTrace {
        trace_id: r.u64()?,
        instance: r.str()?,
        epoch: r.u64()?,
        queue_micros: r.u64()?,
        plan_micros: r.u64()?,
        decode_micros: r.u64()?,
        stream_micros: r.u64()?,
        total_micros: r.u64()?,
    })
}

fn encode_plan(w: &mut Writer, p: &PlanStats) {
    w.u64(p.tiles_planned);
    w.u64(p.tiles_pruned);
    w.u64(p.gops_planned);
    w.u64(p.gops_skipped);
    w.u64(p.frames_sampled);
}

fn decode_plan(r: &mut Reader<'_>) -> Result<PlanStats, ProtoError> {
    Ok(PlanStats {
        tiles_planned: r.u64()?,
        tiles_pruned: r.u64()?,
        gops_planned: r.u64()?,
        gops_skipped: r.u64()?,
        frames_sampled: r.u64()?,
    })
}

fn encode_stats(w: &mut Writer, s: &ServiceStats) {
    w.u64(s.submitted);
    w.u64(s.completed);
    w.u64(s.failed);
    w.u64(s.samples_decoded);
    w.u64(s.samples_reused);
    w.u64(s.cache_hits);
    w.u64(s.cache_misses);
    w.u64(s.shared.owned);
    w.u64(s.shared.joined);
    encode_plan(w, &s.plan);
    w.u64(s.retile_ops);
    w.u64(s.retile_errors);
    w.u64(s.queue_peak);
    w.u64(s.latency.count);
    w.u64(s.latency.total_micros);
    w.u16(HISTOGRAM_BANDS as u16);
    for &b in &s.latency.buckets {
        w.u64(b);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<ServiceStats, ProtoError> {
    let mut s = ServiceStats {
        submitted: r.u64()?,
        completed: r.u64()?,
        failed: r.u64()?,
        samples_decoded: r.u64()?,
        samples_reused: r.u64()?,
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        shared: SharedScanStats {
            owned: r.u64()?,
            joined: r.u64()?,
        },
        plan: decode_plan(r)?,
        ..Default::default()
    };
    s.retile_ops = r.u64()?;
    s.retile_errors = r.u64()?;
    s.queue_peak = r.u64()?;
    let mut latency = HistogramSnapshot {
        count: r.u64()?,
        total_micros: r.u64()?,
        ..Default::default()
    };
    if r.u16()? as usize != HISTOGRAM_BANDS {
        return Err(ProtoError::Malformed("latency bucket count"));
    }
    for b in latency.buckets.iter_mut() {
        *b = r.u64()?;
    }
    s.latency = latency;
    Ok(s)
}
