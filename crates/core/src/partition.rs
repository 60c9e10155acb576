//! Non-uniform tile layout generation around objects (§3.4.2).
//!
//! Given the bounding boxes of the objects a layout should serve,
//! [`partition`] places tile boundaries so that **no boundary intersects any
//! box**, while respecting the codec's minimum tile dimensions:
//!
//! * **fine-grained** layouts cut in every gap between objects, isolating
//!   non-intersecting boxes into small tiles (Figure 4(a));
//! * **coarse-grained** layouts place all boxes within a single large tile
//!   (Figure 4(b)).
//!
//! Because valid HEVC layouts are regular grids, boundaries are chosen per
//! axis from the gaps left by the boxes' interval projections.

use serde::{Deserialize, Serialize};
use tasm_codec::{TileLayout, TILE_ALIGN};
use tasm_video::Rect;

/// Tile granularity (§3.4.2, evaluated in Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// Isolate objects into the smallest aligned tiles.
    Fine,
    /// One large tile containing every object.
    Coarse,
}

/// Parameters for layout generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Minimum tile width in luma pixels (HEVC imposes 256; scaled down with
    /// our frame sizes). Must be a multiple of [`TILE_ALIGN`].
    pub min_tile_width: u32,
    /// Minimum tile height in luma pixels (HEVC imposes 64).
    pub min_tile_height: u32,
    /// Fine or coarse tiles.
    pub granularity: Granularity,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            min_tile_width: 64,
            min_tile_height: 32,
            granularity: Granularity::Fine,
        }
    }
}

/// Designs a tile layout for a `frame_w`×`frame_h` frame around `boxes`.
///
/// Returns the untiled layout `ω` when no useful cut exists (no boxes, boxes
/// covering everything, or minimum dimensions admitting no boundary).
///
/// Guarantees, verified by tests and property tests:
/// * the layout exactly covers the frame;
/// * no interior boundary intersects any input box;
/// * every tile respects the configured minimum dimensions.
pub fn partition(frame_w: u32, frame_h: u32, boxes: &[Rect], cfg: &PartitionConfig) -> TileLayout {
    assert!(
        frame_w.is_multiple_of(TILE_ALIGN) && frame_h.is_multiple_of(TILE_ALIGN),
        "frame dimensions must be tile-aligned"
    );
    assert!(
        cfg.min_tile_width.is_multiple_of(TILE_ALIGN)
            && cfg.min_tile_height.is_multiple_of(TILE_ALIGN),
        "minimum tile dimensions must be multiples of {TILE_ALIGN}"
    );
    let boxes: Vec<Rect> = boxes
        .iter()
        .map(|b| b.clamp_to(frame_w, frame_h))
        .filter(|b| !b.is_empty())
        .collect();

    let cols = axis_cuts(
        frame_w,
        cfg.min_tile_width,
        &project(&boxes, |b| (b.x, b.right())),
        cfg.granularity,
    );
    let rows = axis_cuts(
        frame_h,
        cfg.min_tile_height,
        &project(&boxes, |b| (b.y, b.bottom())),
        cfg.granularity,
    );
    let col_widths = widths_from_cuts(frame_w, &cols);
    let row_heights = widths_from_cuts(frame_h, &rows);
    TileLayout::new(col_widths, row_heights).expect("generated cuts are aligned by construction")
}

/// Merges box projections into disjoint, sorted occupied intervals.
fn project(boxes: &[Rect], f: impl Fn(&Rect) -> (u32, u32)) -> Vec<(u32, u32)> {
    let mut iv: Vec<(u32, u32)> = boxes.iter().map(&f).collect();
    iv.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match merged.last_mut() {
            Some((_, end)) if a <= *end => *end = (*end).max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Chooses interior cut positions on one axis.
///
/// A cut at position `c` is *valid* if it is aligned, lies strictly inside
/// `(0, total)`, and does not fall strictly inside any occupied interval.
fn axis_cuts(total: u32, min_dim: u32, occupied: &[(u32, u32)], g: Granularity) -> Vec<u32> {
    let candidates: Vec<u32> = match g {
        Granularity::Fine => {
            // Tight cuts around every occupied interval: floor-align the
            // start, ceil-align the end.
            let mut c = Vec::with_capacity(occupied.len() * 2);
            for &(a, b) in occupied {
                c.push(a / TILE_ALIGN * TILE_ALIGN);
                c.push(b.div_ceil(TILE_ALIGN) * TILE_ALIGN);
            }
            c
        }
        Granularity::Coarse => {
            // One band containing all intervals.
            match (occupied.first(), occupied.last()) {
                (Some(&(a, _)), Some(&(_, b))) => {
                    vec![
                        a / TILE_ALIGN * TILE_ALIGN,
                        b.div_ceil(TILE_ALIGN) * TILE_ALIGN,
                    ]
                }
                _ => Vec::new(),
            }
        }
    };

    let mut cuts: Vec<u32> = candidates
        .into_iter()
        .filter(|&c| c > 0 && c < total)
        .filter(|&c| !occupied.iter().any(|&(a, b)| c > a && c < b))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    // Enforce minimum tile dimensions greedily left-to-right, always keeping
    // the later cut when two are too close (later cuts close off object
    // bands whose start survived).
    let mut spaced: Vec<u32> = Vec::with_capacity(cuts.len());
    for c in cuts {
        while let Some(&last) = spaced.last() {
            if c - last < min_dim {
                spaced.pop();
            } else {
                break;
            }
        }
        if c >= min_dim {
            spaced.push(c);
        }
    }
    // The final segment must also satisfy the minimum.
    while let Some(&last) = spaced.last() {
        if total - last < min_dim {
            spaced.pop();
        } else {
            break;
        }
    }
    spaced
}

/// Converts sorted interior cuts to segment widths covering `[0, total]`.
fn widths_from_cuts(total: u32, cuts: &[u32]) -> Vec<u32> {
    let mut widths = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0;
    for &c in cuts {
        widths.push(c - prev);
        prev = c;
    }
    widths.push(total - prev);
    widths
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u32 = 640;
    const H: u32 = 352;

    fn fine() -> PartitionConfig {
        PartitionConfig::default()
    }

    fn coarse() -> PartitionConfig {
        PartitionConfig {
            granularity: Granularity::Coarse,
            ..Default::default()
        }
    }

    /// Whether an interior tile boundary of `layout` cuts through `rect`.
    pub(super) fn boundary_cuts(layout: &TileLayout, rect: &Rect) -> bool {
        let cuts = |dims: &[u32], lo: u32, hi: u32| {
            let mut at = 0;
            dims[..dims.len() - 1].iter().any(|&d| {
                at += d;
                at > lo && at < hi
            })
        };
        !rect.is_empty()
            && (cuts(layout.col_widths(), rect.x, rect.right())
                || cuts(layout.row_heights(), rect.y, rect.bottom()))
    }

    fn check_invariants(layout: &TileLayout, boxes: &[Rect]) {
        layout
            .check_covers(W, H)
            .expect("layout must cover the frame");
        for b in boxes {
            assert!(
                !boundary_cuts(layout, b),
                "boundary cuts box {b:?} in layout {layout:?}"
            );
        }
    }

    #[test]
    fn no_boxes_yields_untiled() {
        let l = partition(W, H, &[], &fine());
        assert!(l.is_untiled());
        let l = partition(W, H, &[], &coarse());
        assert!(l.is_untiled());
    }

    #[test]
    fn single_central_box_fine_isolates_it() {
        let boxes = [Rect::new(300, 150, 40, 40)];
        let l = partition(W, H, &boxes, &fine());
        check_invariants(&l, &boxes);
        assert!(l.tile_count() > 1, "should tile around the box");
        // The tile containing the box should be much smaller than the frame.
        let tiles = l.tiles_intersecting(&boxes[0]);
        assert_eq!(tiles.len(), 1, "box should lie in exactly one tile");
        let area = l.tile_rect_by_index(tiles[0]).area();
        assert!(
            area < (W as u64 * H as u64) / 8,
            "containing tile too large: {area}"
        );
    }

    #[test]
    fn coarse_layout_puts_all_boxes_in_one_tile() {
        let boxes = [Rect::new(100, 50, 40, 40), Rect::new(400, 200, 60, 60)];
        let l = partition(W, H, &boxes, &coarse());
        check_invariants(&l, &boxes);
        // Both boxes must share a single tile.
        let t0 = l.tiles_intersecting(&boxes[0]);
        let t1 = l.tiles_intersecting(&boxes[1]);
        assert_eq!(t0.len(), 1);
        assert_eq!(t0, t1, "coarse tiles must contain all boxes together");
        // At most 9 tiles (3x3 band structure).
        assert!(l.tile_count() <= 9);
    }

    #[test]
    fn fine_separates_two_distant_boxes() {
        let boxes = [Rect::new(64, 64, 40, 40), Rect::new(480, 240, 60, 60)];
        let l = partition(W, H, &boxes, &fine());
        check_invariants(&l, &boxes);
        let t0 = l.tiles_intersecting(&boxes[0]);
        let t1 = l.tiles_intersecting(&boxes[1]);
        assert_eq!(t0.len(), 1);
        assert_eq!(t1.len(), 1);
        assert_ne!(t0, t1, "distant boxes should land in different tiles");
        // Fine layout decodes fewer pixels for box 0 than coarse.
        let lc = partition(W, H, &boxes, &coarse());
        let covered = |l: &TileLayout| -> u64 {
            let tiles = l.tiles_intersecting(&boxes[0]);
            tiles.iter().map(|&t| l.tile_rect_by_index(t).area()).sum()
        };
        assert!(covered(&l) < covered(&lc));
    }

    #[test]
    fn overlapping_boxes_share_a_tile() {
        let boxes = [Rect::new(200, 100, 80, 80), Rect::new(240, 140, 80, 80)];
        let l = partition(W, H, &boxes, &fine());
        check_invariants(&l, &boxes);
    }

    #[test]
    fn box_covering_whole_frame_yields_untiled() {
        let boxes = [Rect::new(0, 0, W, H)];
        assert!(partition(W, H, &boxes, &fine()).is_untiled());
    }

    #[test]
    fn boxes_out_of_bounds_are_clamped() {
        let boxes = [Rect::new(600, 330, 100, 100)];
        let l = partition(W, H, &boxes, &fine());
        l.check_covers(W, H).unwrap();
    }

    #[test]
    fn min_dims_respected() {
        // Many small boxes close together: cuts must stay >= min apart.
        let boxes: Vec<Rect> = (0..8)
            .map(|i| Rect::new(40 * i + 8, 30 * i + 8, 12, 12))
            .collect();
        for cfg in [fine(), coarse()] {
            let l = partition(W, H, &boxes, &cfg);
            l.check_covers(W, H).unwrap();
            assert!(l.col_widths().iter().all(|&w| w >= cfg.min_tile_width));
            assert!(l.row_heights().iter().all(|&h| h >= cfg.min_tile_height));
        }
    }

    #[test]
    fn fine_produces_no_fewer_tiles_than_coarse() {
        let boxes = [
            Rect::new(64, 32, 32, 32),
            Rect::new(256, 128, 48, 48),
            Rect::new(512, 256, 40, 40),
        ];
        let f = partition(W, H, &boxes, &fine());
        let c = partition(W, H, &boxes, &coarse());
        check_invariants(&f, &boxes);
        check_invariants(&c, &boxes);
        assert!(f.tile_count() >= c.tile_count());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_box() -> impl Strategy<Value = Rect> {
        (0u32..600, 0u32..320, 4u32..200, 4u32..150).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Layout invariants hold for arbitrary box sets at both
        /// granularities: full coverage, aligned min-sized tiles, and no
        /// boundary through any box.
        #[test]
        fn prop_partition_invariants(
            boxes in proptest::collection::vec(arb_box(), 0..12),
            coarse in any::<bool>(),
        ) {
            let cfg = PartitionConfig {
                granularity: if coarse { Granularity::Coarse } else { Granularity::Fine },
                ..Default::default()
            };
            let l = partition(640, 352, &boxes, &cfg);
            prop_assert!(l.check_covers(640, 352).is_ok());
            prop_assert!(l.col_widths().iter().all(|&w| w >= cfg.min_tile_width));
            prop_assert!(l.row_heights().iter().all(|&h| h >= cfg.min_tile_height));
            for b in &boxes {
                let clamped = b.clamp_to(640, 352);
                if !clamped.is_empty() {
                    prop_assert!(
                        !tests::boundary_cuts(&l, &clamped),
                        "boundary intersects {:?}", clamped
                    );
                }
            }
        }
    }
}
