//! The pack — every tile of one SOT at one layout epoch, in one file — and
//! [`PackReader`], the one reader of it.
//!
//! ```text
//! "TSMP"  version:u32  tile_count:u32              (12 bytes, little endian)
//! tile_count x { offset:u64  length:u64 }          (the table)
//! tile 0's container bytes, tile 1's, ...          (verbatim, back to back)
//! ```
//!
//! A tile's bytes are exactly its [`TileVideo`]'s container bytes, as an
//! encoder made them (or a peer replicated them). The table's length
//! follows from the tile count the manifest records, so a reader fetches
//! it with one ranged read and a tile with a second, never the whole pack.
//! Every read of a pack — a query's [`VideoStore::read_tile`], the
//! replication payload, a re-tile's source tiles, `video_size_bytes` and
//! `fsck` — opens it through [`PackReader`]; a tile is parsed once, by
//! [`TileVideo::from_bytes`], and [`check_tile`] is the one check of the
//! parsed tile against its manifest slot.
//!
//! The pack carries no checksum. The version field is what lets a later
//! format widen each table entry by a column (a CRC per tile) without
//! guessing; every byte of header and table is checked on read, and a
//! tile's CRC would be checked in [`PackReader::tile`].

use crate::storage::{PackId, SotEntry, StoreError, VideoManifest, VideoStore};
use std::fs;
use std::io;
use std::ops::Range;
use tasm_codec::TileVideo;

const MAGIC: [u8; 4] = *b"TSMP";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 12;
const ENTRY_LEN: usize = 16;

/// Extension of a pack file.
pub(crate) const PACK_SUFFIX: &str = ".tiles";

/// The file holding a SOT's tiles at one layout epoch. The initial epoch
/// (count 0) is unstamped; every re-tile writes a fresh `_r`-stamped pack,
/// so a superseded epoch's tiles coexist on disk with the current ones
/// until the readers pinned to the old epoch drain and its pack is
/// reclaimed — and a pack at an epoch no manifest names yet is what an
/// unfinished (or in-flight) re-tile looks like.
pub(crate) fn pack_file_name(id: PackId) -> String {
    let range = format!("sot_{:06}_{:06}", id.sot_start, id.sot_end);
    match id.retile_count {
        0 => format!("{range}{PACK_SUFFIX}"),
        rc => format!("{range}_r{rc:06}{PACK_SUFFIX}"),
    }
}

/// Recognizes a pack file name, stamped or not — the unstamped form is
/// epoch 0.
pub(crate) fn parse_pack_name(name: &str) -> Option<PackId> {
    let body = name.strip_prefix("sot_")?.strip_suffix(PACK_SUFFIX)?;
    let (range, retile_count) = match body.split_once("_r") {
        Some((range, rc)) if rc.len() == 6 => (range, rc.parse().ok()?),
        Some(_) => return None,
        None => (body, 0),
    };
    let (s, e) = range
        .split_once('_')
        .filter(|(s, e)| s.len() == 6 && e.len() == 6)?;
    Some(PackId {
        sot_start: s.parse().ok()?,
        sot_end: e.parse().ok()?,
        retile_count,
    })
}

/// Reads exactly the bytes `range` of an open file. A range that reaches
/// past the end of the file is [`io::ErrorKind::UnexpectedEof`], found out
/// before anything is allocated for it: ranges come from tables on disk.
pub(crate) fn read_exact_range(file: &fs::File, range: Range<u64>) -> io::Result<Vec<u8>> {
    use std::io::{Read as _, Seek as _};
    let len = file.metadata()?.len();
    if range.end > len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("bytes {range:?} reach past the end of a {len}-byte file"),
        ));
    }
    let mut file = file;
    file.seek(io::SeekFrom::Start(range.start))?;
    let mut data = vec![0; range.end.saturating_sub(range.start) as usize];
    file.read_exact(&mut data)?;
    Ok(data)
}

/// Bytes of the header plus the table of a pack of `tiles` tiles: what a
/// reader must fetch before it can locate a tile.
fn table_len(tiles: u32) -> usize {
    HEADER_LEN + ENTRY_LEN * tiles as usize
}

/// Builds a pack from each tile's container bytes, in raster order. Each
/// tile is appended as it is produced, so only one is ever held beside the
/// pack itself.
pub(crate) fn assemble<B: AsRef<[u8]>>(tiles: impl ExactSizeIterator<Item = B>) -> Vec<u8> {
    let count = tiles.len() as u32;
    let mut pack = vec![0u8; table_len(count)];
    pack[..4].copy_from_slice(&MAGIC);
    pack[4..8].copy_from_slice(&VERSION.to_le_bytes());
    pack[8..HEADER_LEN].copy_from_slice(&count.to_le_bytes());
    for (i, tile) in tiles.enumerate() {
        let (offset, tile) = (pack.len() as u64, tile.as_ref());
        let entry = HEADER_LEN + ENTRY_LEN * i;
        pack[entry..entry + 8].copy_from_slice(&offset.to_le_bytes());
        pack[entry + 8..entry + ENTRY_LEN].copy_from_slice(&(tile.len() as u64).to_le_bytes());
        pack.extend_from_slice(tile);
    }
    pack
}

/// Where each tile's bytes lie, from the head of a pack that must hold
/// `tiles` of them (the SOT's layout says how many). A table is accepted
/// only in the shape [`assemble`] writes: the first tile starts where the
/// table ends and each next one where the last ended, so no two ranges
/// overlap and none points back into the table. Whether the last range
/// ends inside the file is for the caller to check, against the file's
/// length or by reading it.
fn tile_ranges(head: &[u8], tiles: u32) -> io::Result<Vec<Range<u64>>> {
    let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    let too_short = || invalid(format!("pack is too short for a table of {tiles} tiles"));
    let header = head.get(..HEADER_LEN).ok_or_else(too_short)?;
    if header[..4] != MAGIC {
        return Err(invalid("not a tile pack (bad magic)".to_string()));
    }
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let (version, count) = (u32_at(4), u32_at(8));
    if version != VERSION {
        return Err(invalid(format!("unknown pack version {version}")));
    }
    if count != tiles {
        return Err(invalid(format!(
            "pack holds {count} tiles, the layout has {tiles}"
        )));
    }
    let table = head.get(..table_len(tiles)).ok_or_else(too_short)?;
    let u64_at = |at: usize| u64::from_le_bytes(table[at..at + 8].try_into().expect("8 bytes"));
    let mut next = table.len() as u64;
    let mut ranges = Vec::with_capacity(tiles as usize);
    for (i, entry) in (HEADER_LEN..table.len()).step_by(ENTRY_LEN).enumerate() {
        let (offset, len) = (u64_at(entry), u64_at(entry + 8));
        let end = offset
            .checked_add(len)
            .filter(|_| offset == next)
            .ok_or_else(|| {
                invalid(format!(
                    "pack table puts tile {i} at {offset}+{len}, the bytes before it end at {next}"
                ))
            })?;
        ranges.push(offset..end);
        next = end;
    }
    Ok(ranges)
}

/// One open pack of one SOT: the file, and where each of its tiles lies,
/// read and checked once. Tiles are read from it in any order, one ranged
/// read each.
pub(crate) struct PackReader<'m> {
    file: fs::File,
    /// Where each tile lies in the file, in raster order.
    ranges: Vec<Range<u64>>,
    sot: &'m SotEntry,
    gop_len: u32,
}

impl<'m> PackReader<'m> {
    /// Opens the pack of SOT `sot_idx` of `manifest` in `store`, at the
    /// epoch the manifest records, and reads its table. A pack that does
    /// not exist is [`StoreError::NotFound`].
    pub(crate) fn open(
        store: &VideoStore,
        manifest: &'m VideoManifest,
        sot_idx: usize,
    ) -> Result<Self, StoreError> {
        let sot = manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?;
        let path = store.pack_path(&manifest.name, sot);
        let file = store.io().open(&path).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => StoreError::NotFound(path.display().to_string()),
            _ => e.into(),
        })?;
        let tiles = sot.layout.tile_count();
        let head = read_exact_range(&file, 0..table_len(tiles) as u64)?;
        let ranges = tile_ranges(&head, tiles)?;
        Ok(PackReader {
            file,
            ranges,
            sot,
            gop_len: manifest.config.gop_len,
        })
    }

    /// This reader, once its table accounts for every byte of the file:
    /// `fsck`'s check, which no read needs.
    pub(crate) fn whole(self) -> Result<Self, StoreError> {
        let len = self.file.metadata()?.len();
        let end = self.ranges.last().map_or(HEADER_LEN as u64, |r| r.end);
        if end != len {
            let why = format!("pack table ends the last tile at {end}, the file is {len} bytes");
            return Err(io::Error::new(io::ErrorKind::InvalidData, why).into());
        }
        Ok(self)
    }

    /// Tile `t` as the table gives it, parsed ([`TileVideo::from_bytes`])
    /// but not held to its slot: what `fsck` reports either way.
    pub(crate) fn parse(&self, t: u32) -> Result<TileVideo, StoreError> {
        let range = self.ranges.get(t as usize).ok_or_else(|| {
            StoreError::NotFound(format!("SOT at frame {} tile {t}", self.sot.start))
        })?;
        let bytes = read_exact_range(&self.file, range.clone())?;
        Ok(TileVideo::from_bytes(bytes)?)
    }

    /// Tile `t`, parsed once and held to its slot by [`check_tile`]: what
    /// a query decodes, a re-tile stitches and a replication snapshot
    /// ships. A mismatch is [`StoreError::TileMismatch`].
    pub(crate) fn tile(&self, t: u32) -> Result<TileVideo, StoreError> {
        let tile = self.parse(t)?;
        let found = check_tile(&tile, self.sot, t, self.gop_len);
        if let Some(detail) = found.into_iter().next() {
            return Err(StoreError::TileMismatch {
                sot_start: self.sot.start,
                tile: t,
                detail,
            });
        }
        Ok(tile)
    }
}

/// The one check of a parsed tile against its slot, tile `t` of `sot` in a
/// video of `gop_len`-frame GOPs: every way its dimensions, GOP length,
/// frame count and codec disagree with the slot — empty when it fits. A
/// tile that got past it would still decode, and composing it into a frame
/// would clip it silently: reads, replica installs and `fsck` all apply it.
pub(crate) fn check_tile(tile: &TileVideo, sot: &SotEntry, t: u32, gop_len: u32) -> Vec<String> {
    let rect = sot.layout.tile_rect_by_index(t);
    let mut found = Vec::new();
    if tile.width() != rect.w || tile.height() != rect.h {
        found.push(format!(
            "container is {}x{}, layout rect is {}x{}",
            tile.width(),
            tile.height(),
            rect.w,
            rect.h
        ));
    }
    if tile.gop_len() != gop_len {
        found.push(format!(
            "container GOP length {} vs configured {gop_len}",
            tile.gop_len()
        ));
    }
    if tile.frame_count() != sot.len() {
        found.push(format!(
            "container holds {} frames, SOT spans {}",
            tile.frame_count(),
            sot.len()
        ));
    }
    if let Some(&declared) = sot.tile_codecs.get(t as usize) {
        if tile.codec().id() != declared {
            found.push(format!(
                "container codec id {} vs manifest codec id {declared}",
                tile.codec().id()
            ));
        }
    }
    found
}

/// The read path: every read of a stored tile goes through a `PackReader`.
impl VideoStore {
    /// Reads one tile of one SOT: the pack's table, then that tile's bytes
    /// and no other's. A container that does not fit its slot in
    /// `manifest` is [`StoreError::TileMismatch`].
    pub fn read_tile(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_idx: u32,
    ) -> Result<TileVideo, StoreError> {
        PackReader::open(self, manifest, sot_idx)?.tile(tile_idx)
    }

    /// `read` of every tile of SOT `sot_idx`, from one open of its pack:
    /// [`PackReader::tile`] for a re-tile's source, and its bytes for a
    /// replication snapshot.
    pub(crate) fn read_sot<'m, T>(
        &self,
        manifest: &'m VideoManifest,
        sot_idx: usize,
        read: impl Fn(&PackReader<'m>, u32) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        let pack = PackReader::open(self, manifest, sot_idx)?;
        (0..pack.ranges.len() as u32)
            .map(|t| read(&pack, t))
            .collect()
    }

    /// Total bytes of all tiles of a video, from each pack's table (the
    /// tables themselves, 12 + 16 bytes per tile, not counted). Only a
    /// missing pack is [`StoreError::NotFound`].
    pub fn video_size_bytes(&self, manifest: &VideoManifest) -> Result<u64, StoreError> {
        let mut total = 0;
        for i in 0..manifest.sots.len() {
            let pack = PackReader::open(self, manifest, i)?;
            total += pack.ranges.iter().map(|r| r.end - r.start).sum::<u64>();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pack_round_trips_its_tiles_verbatim() {
        let tiles: [&[u8]; 3] = [b"first", b"", b"third tile"];
        let pack = assemble(tiles.iter());
        let ranges = tile_ranges(&pack[..table_len(3)], 3).unwrap();
        assert_eq!(ranges.last().unwrap().end, pack.len() as u64);
        for (tile, r) in tiles.iter().zip(&ranges) {
            assert_eq!(&pack[r.start as usize..r.end as usize], *tile);
        }
        assert_eq!(assemble(std::iter::empty::<&[u8]>()).len(), table_len(0));
    }

    #[test]
    fn tables_not_in_the_written_shape_are_refused() {
        let pack = assemble([b"aaaa", b"bbbb"].iter());
        let refused = |pack: &[u8], tiles| {
            let e = tile_ranges(pack, tiles).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            e.to_string()
        };
        assert!(refused(&pack[..table_len(2) - 1], 2).contains("too short"));
        assert!(refused(&pack, 3).contains("holds 2 tiles"));
        assert!(refused(&pack, 1).contains("holds 2 tiles"));
        let mut bad = pack.clone();
        bad[0] ^= 1;
        assert!(refused(&bad, 2).contains("magic"));
        let mut bad = pack.clone();
        bad[4] = 2;
        assert!(refused(&bad, 2).contains("version 2"));
        // Tile 1 moved onto tile 0, tile 0 moved into the table, a length
        // that wraps: all name the tile.
        let entry = |i: usize| HEADER_LEN + ENTRY_LEN * i;
        let mut bad = pack.clone();
        let tile0 = bad[entry(0)..entry(0) + 8].to_vec();
        bad[entry(1)..entry(1) + 8].copy_from_slice(&tile0);
        assert!(refused(&bad, 2).contains("tile 1"));
        let mut bad = pack.clone();
        bad[entry(0)] -= 1;
        assert!(refused(&bad, 2).contains("tile 0"));
        let mut bad = pack.clone();
        bad[entry(1) + 8..entry(2)].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(refused(&bad, 2).contains("tile 1"));
    }
}
