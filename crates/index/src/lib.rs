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
//!   size-tiered compaction. Its files have a module each, as `FORMAT.md`
//!   has a section each: `run.rs` the sorted run, `wal.rs` the write-ahead
//!   log, `crc.rs` the checksum of both ([`crc32`]);
//! * [`mod@io`] — [`StorageIo`], the one durable-write shim of the process
//!   (this index, the tile store and `cluster.json` all write through it),
//!   and its production implementation [`RealIo`].

#![forbid(unsafe_code)]

mod crc;
pub mod index;
pub mod io;
pub mod key;
mod run;
pub mod tiered;
mod wal;

pub use index::{Detection, IndexResult, LabeledDetection, MemoryIndex, SemanticIndex, TreeError};
pub use io::{RealIo, StorageIo};
pub use key::RecordKey;
pub use tiered::{crc32, TierIssue, TierStats, TieredIndex};

/// `FORMAT.md`'s worked examples, which the run and WAL tests match
/// against their encoders.
#[cfg(test)]
mod format_md {
    use crate::key::RecordKey;
    use tasm_video::Rect;

    /// The bytes of `FORMAT.md`'s `hex` block `name`: whitespace-separated
    /// bytes, `#` to the end of a line a comment.
    pub(crate) fn format_md_block(name: &str) -> Vec<u8> {
        let doc = include_str!("../../../FORMAT.md");
        let open = format!("```hex {name}\n");
        let start = doc.find(&open).unwrap_or_else(|| panic!("no block {name}")) + open.len();
        let body = &doc[start..start + doc[start..].find("```").unwrap()];
        body.lines()
            .flat_map(|l| l.split('#').next().unwrap().split_whitespace())
            .map(|b| u8::from_str_radix(b, 16).unwrap())
            .collect()
    }

    /// The key and box of the `car` boxes `FORMAT.md`'s examples hold.
    pub(crate) fn format_md_cars() -> [(RecordKey, Rect); 2] {
        [
            (RecordKey::new(7, 1, 10, 2), Rect::new(110, 50, 24, 16)),
            (RecordKey::new(7, 1, 11, 4), Rect::new(112, 50, 24, 16)),
        ]
    }
}
