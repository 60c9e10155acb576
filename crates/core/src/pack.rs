//! The pack: every tile of one SOT at one layout epoch, in one file.
//!
//! ```text
//! "TSMP"  version:u32  tile_count:u32              (12 bytes, little endian)
//! tile_count x { offset:u64  length:u64 }          (the table)
//! tile 0's container bytes, tile 1's, ...          (verbatim, back to back)
//! ```
//!
//! A tile's bytes are exactly what `TileVideo::to_bytes` produced (or a
//! peer replicated), so everything that reads a tile — decode, `fsck`,
//! replication — sees the bytes it saw when each tile was a file of its
//! own. The table comes first and its length follows from the tile count
//! the manifest already records, so a reader fetches it with one ranged
//! read and the tile with a second, never the whole pack.
//!
//! The pack carries no checksum. The version field is what lets a later
//! format widen each table entry by a column (a CRC per tile) without
//! guessing; every byte of header and table is checked on read.

use std::io;
use std::ops::Range;

const MAGIC: [u8; 4] = *b"TSMP";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 12;
const ENTRY_LEN: usize = 16;

/// Where each tile of a pack lies in it, in raster order.
pub(crate) type TileRanges = Vec<Range<u64>>;

/// Bytes of the header plus the table of a pack of `tiles` tiles: what a
/// reader must fetch before it can locate a tile.
pub(crate) fn table_len(tiles: u32) -> usize {
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
pub(crate) fn tile_ranges(head: &[u8], tiles: u32) -> io::Result<TileRanges> {
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
