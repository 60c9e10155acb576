//! Tile layout geometry.
//!
//! A [`TileLayout`] is the paper's
//! `L = (n_r, n_c, {h_1..h_nr}, {c_1..c_nc})`: a regular grid whose rows and
//! columns extend through the entire frame (irregular layouts are not valid
//! HEVC and are not supported here either, §2). The untiled layout `ω` is the
//! special case of a single tile covering the frame.
//!
//! Layout *generation* (around objects, uniform grids, cost-driven choices)
//! lives in `tasm-core`; this module owns only the geometry, which the codec
//! needs for encoding and stitching.

use serde::{Deserialize, Serialize};
use tasm_video::Rect;

/// Tile boundaries must fall on multiples of this many luma pixels so that
/// 8×8 transform blocks align in both luma and 2×-subsampled chroma planes.
/// This mirrors HEVC's requirement that tile boundaries align to CTUs.
pub const TILE_ALIGN: u32 = 16;

/// Error produced when constructing an invalid tile layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A row or column list was empty.
    Empty,
    /// A tile dimension was zero or not a multiple of [`TILE_ALIGN`].
    Misaligned { dim: u32 },
    /// The widths/heights do not sum to the frame dimensions.
    CoverageMismatch { expected: u32, got: u32 },
    /// Requested more uniform tiles than the frame can hold at alignment.
    TooManyTiles { requested: u32, max: u32 },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::Empty => write!(f, "layout must have at least one row and column"),
            LayoutError::Misaligned { dim } => {
                write!(
                    f,
                    "tile dimension {dim} is not a positive multiple of {TILE_ALIGN}"
                )
            }
            LayoutError::CoverageMismatch { expected, got } => {
                write!(f, "tile dimensions sum to {got}, frame needs {expected}")
            }
            LayoutError::TooManyTiles { requested, max } => {
                write!(
                    f,
                    "requested {requested} tiles but alignment permits at most {max}"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A tile layout: column widths and row heights that partition a frame.
///
/// Tiles are indexed in raster order: tile `r * cols + c` is the tile at row
/// `r`, column `c`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileLayout {
    col_widths: Vec<u32>,
    row_heights: Vec<u32>,
}

impl TileLayout {
    /// Builds a layout from explicit column widths and row heights.
    pub fn new(col_widths: Vec<u32>, row_heights: Vec<u32>) -> Result<Self, LayoutError> {
        if col_widths.is_empty() || row_heights.is_empty() {
            return Err(LayoutError::Empty);
        }
        for &d in col_widths.iter().chain(&row_heights) {
            if d == 0 || d % TILE_ALIGN != 0 {
                return Err(LayoutError::Misaligned { dim: d });
            }
        }
        Ok(TileLayout {
            col_widths,
            row_heights,
        })
    }

    /// The untiled layout `ω`: a single tile covering a `w`×`h` frame.
    ///
    /// # Panics
    /// Panics if the frame dimensions are not aligned. `VideoStore::ingest`
    /// refuses such a source before it asks for any layout; other callers
    /// holding unchecked dimensions use [`TileLayout::new`].
    pub fn untiled(w: u32, h: u32) -> Self {
        TileLayout::new(vec![w], vec![h]).expect("frame dimensions must be TILE_ALIGN-aligned")
    }

    /// A uniform `rows`×`cols` layout over a `w`×`h` frame. Tile dimensions
    /// are equalized to within one alignment unit.
    pub fn uniform(w: u32, h: u32, rows: u32, cols: u32) -> Result<Self, LayoutError> {
        Ok(TileLayout {
            col_widths: split_even(w, cols)?,
            row_heights: split_even(h, rows)?,
        })
    }

    /// Number of tile rows.
    pub fn rows(&self) -> u32 {
        self.row_heights.len() as u32
    }

    /// Number of tile columns.
    pub fn cols(&self) -> u32 {
        self.col_widths.len() as u32
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> u32 {
        self.rows() * self.cols()
    }

    /// True if this is the untiled layout `ω`.
    pub fn is_untiled(&self) -> bool {
        self.tile_count() == 1
    }

    /// Column widths, left to right.
    pub fn col_widths(&self) -> &[u32] {
        &self.col_widths
    }

    /// Row heights, top to bottom.
    pub fn row_heights(&self) -> &[u32] {
        &self.row_heights
    }

    /// Frame width covered by the layout.
    pub fn frame_width(&self) -> u32 {
        self.col_widths.iter().sum()
    }

    /// Frame height covered by the layout.
    pub fn frame_height(&self) -> u32 {
        self.row_heights.iter().sum()
    }

    /// Verifies the layout exactly covers a `w`×`h` frame.
    pub fn check_covers(&self, w: u32, h: u32) -> Result<(), LayoutError> {
        if self.frame_width() != w {
            return Err(LayoutError::CoverageMismatch {
                expected: w,
                got: self.frame_width(),
            });
        }
        if self.frame_height() != h {
            return Err(LayoutError::CoverageMismatch {
                expected: h,
                got: self.frame_height(),
            });
        }
        Ok(())
    }

    /// Rectangle of the tile at `(row, col)`.
    pub fn tile_rect(&self, row: u32, col: u32) -> Rect {
        let x: u32 = self.col_widths[..col as usize].iter().sum();
        let y: u32 = self.row_heights[..row as usize].iter().sum();
        Rect::new(
            x,
            y,
            self.col_widths[col as usize],
            self.row_heights[row as usize],
        )
    }

    /// Rectangle of the tile with raster index `idx`.
    pub fn tile_rect_by_index(&self, idx: u32) -> Rect {
        let cols = self.cols();
        self.tile_rect(idx / cols, idx % cols)
    }

    /// Iterator over `(index, rect)` for all tiles in raster order.
    pub fn tiles(&self) -> impl Iterator<Item = (u32, Rect)> + '_ {
        (0..self.tile_count()).map(move |i| (i, self.tile_rect_by_index(i)))
    }

    /// Raster indices of the tiles that overlap `region`.
    pub fn tiles_intersecting(&self, region: &Rect) -> Vec<u32> {
        if region.is_empty() {
            return Vec::new();
        }
        let (r0, r1) = span(&self.row_heights, region.y, region.bottom());
        let (c0, c1) = span(&self.col_widths, region.x, region.right());
        let mut out = Vec::with_capacity(((r1 - r0) * (c1 - c0)) as usize);
        for r in r0..r1 {
            for c in c0..c1 {
                out.push(r * self.cols() + c);
            }
        }
        out
    }
}

/// Index range `[first, last)` of grid cells overlapping `[lo, hi)`.
fn span(dims: &[u32], lo: u32, hi: u32) -> (u32, u32) {
    let mut first = dims.len() as u32;
    let mut last = 0u32;
    let mut start = 0u32;
    for (i, &d) in dims.iter().enumerate() {
        let end = start + d;
        if start < hi && end > lo {
            first = first.min(i as u32);
            last = (i + 1) as u32;
        }
        start = end;
    }
    if first >= last {
        (0, 0)
    } else {
        (first, last)
    }
}

/// Splits `total` into `parts` aligned segments as evenly as possible.
fn split_even(total: u32, parts: u32) -> Result<Vec<u32>, LayoutError> {
    if parts == 0 {
        return Err(LayoutError::Empty);
    }
    if total == 0 || !total.is_multiple_of(TILE_ALIGN) {
        return Err(LayoutError::Misaligned { dim: total });
    }
    let units = total / TILE_ALIGN;
    if parts > units {
        return Err(LayoutError::TooManyTiles {
            requested: parts,
            max: units,
        });
    }
    let base = units / parts;
    let extra = units % parts;
    Ok((0..parts)
        .map(|i| (base + u32::from(i < extra)) * TILE_ALIGN)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untiled_is_single_tile() {
        let l = TileLayout::untiled(640, 352);
        assert!(l.is_untiled());
        assert_eq!(l.tile_count(), 1);
        assert_eq!(l.tile_rect(0, 0), Rect::new(0, 0, 640, 352));
    }

    #[test]
    fn uniform_divides_evenly() {
        let l = TileLayout::uniform(640, 352, 2, 5).unwrap();
        assert_eq!(l.cols(), 5);
        assert_eq!(l.rows(), 2);
        assert_eq!(l.col_widths(), &[128, 128, 128, 128, 128]);
        assert_eq!(l.row_heights(), &[176, 176]);
        l.check_covers(640, 352).unwrap();
    }

    #[test]
    fn uniform_distributes_remainder_in_alignment_units() {
        let l = TileLayout::uniform(640, 352, 1, 7).unwrap();
        let widths = l.col_widths();
        assert_eq!(widths.iter().sum::<u32>(), 640);
        assert!(widths.iter().all(|w| w % TILE_ALIGN == 0));
        let min = widths.iter().min().unwrap();
        let max = widths.iter().max().unwrap();
        assert!(max - min <= TILE_ALIGN);
    }

    #[test]
    fn uniform_rejects_too_many_tiles() {
        assert!(matches!(
            TileLayout::uniform(64, 64, 1, 5),
            Err(LayoutError::TooManyTiles {
                requested: 5,
                max: 4
            })
        ));
    }

    #[test]
    fn new_rejects_misaligned() {
        assert!(matches!(
            TileLayout::new(vec![100, 540], vec![352]),
            Err(LayoutError::Misaligned { dim: 100 })
        ));
        assert!(matches!(
            TileLayout::new(vec![], vec![352]),
            Err(LayoutError::Empty)
        ));
        assert!(matches!(
            TileLayout::new(vec![0], vec![352]),
            Err(LayoutError::Misaligned { dim: 0 })
        ));
    }

    #[test]
    fn check_covers_detects_mismatch() {
        let l = TileLayout::new(vec![320, 320], vec![352]).unwrap();
        l.check_covers(640, 352).unwrap();
        assert!(l.check_covers(640, 368).is_err());
        assert!(l.check_covers(656, 352).is_err());
    }

    #[test]
    fn tile_rects_partition_frame() {
        let l = TileLayout::uniform(320, 160, 2, 4).unwrap();
        let total: u64 = l.tiles().map(|(_, r)| r.area()).sum();
        assert_eq!(total, 320 * 160);
        // No two tiles overlap.
        let rects: Vec<Rect> = l.tiles().map(|(_, r)| r).collect();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                assert!(!rects[i].intersects(&rects[j]), "{i} and {j} overlap");
            }
        }
    }

    #[test]
    fn tiles_intersecting_finds_correct_tiles() {
        let l = TileLayout::uniform(320, 160, 2, 2).unwrap();
        // Tiles: 160x80 each.
        assert_eq!(l.tiles_intersecting(&Rect::new(0, 0, 10, 10)), vec![0]);
        assert_eq!(
            l.tiles_intersecting(&Rect::new(150, 70, 20, 20)),
            vec![0, 1, 2, 3]
        );
        assert_eq!(l.tiles_intersecting(&Rect::new(200, 100, 10, 10)), vec![3]);
        assert!(l.tiles_intersecting(&Rect::new(5, 5, 0, 0)).is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let l = TileLayout::uniform(320, 160, 3, 4).unwrap();
        let json = serde_json::to_string(&l).unwrap();
        let back: TileLayout = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }
}
