//! Semantic index substrate for the TASM reproduction.
//!
//! TASM maintains metadata about video contents — object labels and bounding
//! boxes — in a *semantic index* implemented as "a B-tree clustered on
//! (video, label, time)" (§3.2 of the paper). The paper's prototype stores
//! this in SQLite; here the index is built from scratch:
//!
//! * [`key`] — the `(video, label, frame, seq)` record key and the reserved
//!   label ids;
//! * [`index`] — the [`SemanticIndex`] trait, its error type, and the
//!   in-memory reference implementation, including processed-frame tracking
//!   used by TASM's lazy detection strategies (§4.3);
//! * [`tiered`] — the disk-resident index: a WAL'd memtable flushed to
//!   immutable prefix-compressed sorted runs, each with a resident range
//!   table of its `(video, label)` pairs and their frame bounds, plus
//!   size-tiered compaction;
//! * [`mod@io`] — [`StorageIo`], the one durable-write shim of the process
//!   (this index, the tile store and `cluster.json` all write through it),
//!   and its production implementation [`RealIo`].

#![forbid(unsafe_code)]

pub mod index;
pub mod io;
pub mod key;
pub mod tiered;

pub use index::{Detection, IndexResult, LabeledDetection, MemoryIndex, SemanticIndex, TreeError};
pub use io::{RealIo, StorageIo};
pub use key::RecordKey;
pub use tiered::{crc32, TierIssue, TierStats, TieredIndex};
