//! # tasm-proto: the TASM wire protocol
//!
//! A versioned, length-prefixed binary protocol carrying the full query
//! surface — [`Query`](tasm_core::Query) submission including ROI, stride,
//! limit, and aggregate modes; streamed result frames; service statistics;
//! and typed errors — between `tasm-server` and `tasm-client` over plain
//! TCP (`std::net` only, no external dependencies).
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────────────┬──────────┬──────────────────────────────┐
//! │ u32 LE       │ u8       │ body (message-specific)      │
//! │ payload len  │ tag      │                              │
//! └──────────────┴──────────┴──────────────────────────────┘
//! ```
//!
//! All integers are little-endian; strings and byte blobs carry a `u32`
//! length prefix. Payloads are capped at [`MAX_FRAME_LEN`] so a corrupt
//! length can never demand an unbounded allocation.
//!
//! ## Session flow
//!
//! ```text
//! client                                server
//!   │ ClientHello{magic, version}         │
//!   │ ───────────────────────────────────►│  version check
//!   │ ◄─────────────────────────────────  │  ServerHello{version, max_inflight}
//!   │ Query{id, video, query}             │
//!   │ ───────────────────────────────────►│  admission control:
//!   │                                     │   queue full  → Error{id, Busy}
//!   │                                     │   cap reached → Error{id, TooManyInflight}
//!   │ ◄─────────────────────────────────  │  ResultHeader{id, matched, n, plan}
//!   │ ◄─────────────────────────────────  │  Region{id, …}   × n
//!   │ ◄─────────────────────────────────  │  ResultDone{id, summary, trace}
//!   │ StatsRequest / Goodbye / Shutdown   │
//! ```
//!
//! Every response frame echoes the request id, so a session may keep
//! several queries in flight (up to the server-advertised cap) and match
//! interleaved responses.
//!
//! ## Replication and cluster administration
//!
//! Tags `0x0c`–`0x11` carry the cluster layer's primary→backup replication
//! stream and rebalance administration:
//!
//! ```text
//! primary                               backup
//!   │ Replicate{seq, StageSot{…}}         │  tile bytes → staging
//!   │ ───────────────────────────────────►│
//!   │ ◄─────────────────────────────────  │  ReplicateAck{seq}
//!   │ Replicate{seq, CommitVideo/CommitSot}│ staged-commit publish
//!   │ ───────────────────────────────────►│
//!   │ ◄─────────────────────────────────  │  ReplicateAck{seq}   (durable)
//! ```
//!
//! `ManifestRequest`/`ManifestReply` fetch a node's manifest for replica
//! verification; `PushVideo` asks a node to replicate a video to a target
//! (the rebalance copy step); `RemoveVideo` garbage-collects a moved video
//! after the shard-map epoch flips. See [`ReplicationRecord`].
//!
//! ## Robustness contract
//!
//! Decoding untrusted bytes never panics: truncated frames, oversized
//! length prefixes, unknown tags, bad UTF-8, empty predicate clauses, and
//! plane/dimension mismatches all come back as a typed [`ProtoError`].
//! `tests/wire_protocol.rs` property-tests round-trips and truncation/
//! corruption behavior for every message type.

#![forbid(unsafe_code)]

mod message;
pub mod nio;
mod wire;

pub use message::{
    encode_region, relay_result_frame, ErrorCode, Message, ReplicatedDetection, ReplicationRecord,
    ResultFrame, ResultSummary, MAGIC, VERSION,
};
pub use tasm_obs::QueryTrace;
pub use wire::{read_frame, ProtoError, Reader, Writer, MAX_FRAME_LEN};
