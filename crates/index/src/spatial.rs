//! Spatial indexing of bounding boxes.
//!
//! §3.2 of the paper: "A spatial index could further accelerate queries
//! containing conjunctive predicates by efficiently computing the
//! intersection of bounding boxes before fetching tiles." This module
//! implements that extension: a uniform grid hash over boxes, so evaluating
//! `car ∧ red` probes only the grid cells a box overlaps instead of testing
//! every pair.
//!
//! A uniform grid beats tree structures here: boxes are small relative to
//! the frame, frame dimensions are fixed and known, and the index is
//! rebuilt per frame from a handful of boxes — insertion must be cheap.

use tasm_video::Rect;

/// A uniform-grid spatial index over rectangles.
///
/// Cells are `cell`×`cell` pixels; each box is registered in every cell it
/// overlaps. Query cost is proportional to the query box's cell footprint
/// plus candidates, not the total number of boxes.
#[derive(Debug)]
pub struct SpatialGrid {
    cell: u32,
    cols: u32,
    rows: u32,
    /// Box indices per cell.
    cells: Vec<Vec<u32>>,
    boxes: Vec<Rect>,
}

impl SpatialGrid {
    /// Creates an empty grid covering a `width`×`height` frame.
    ///
    /// # Panics
    /// Panics if any dimension or the cell size is zero.
    pub fn new(width: u32, height: u32, cell: u32) -> Self {
        assert!(width > 0 && height > 0, "frame must be non-empty");
        assert!(cell > 0, "cell size must be positive");
        let cols = width.div_ceil(cell);
        let rows = height.div_ceil(cell);
        SpatialGrid {
            cell,
            cols,
            rows,
            cells: vec![Vec::new(); (cols * rows) as usize],
            boxes: Vec::new(),
        }
    }

    /// Builds a grid from a set of boxes with a default cell size tuned for
    /// object queries (64 px).
    pub fn from_boxes(width: u32, height: u32, boxes: &[Rect]) -> Self {
        let mut g = SpatialGrid::new(width, height, 64);
        for b in boxes {
            g.insert(*b);
        }
        g
    }

    /// Number of indexed boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True if no boxes are indexed.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Inserts a box (clamped to the frame; empty boxes are ignored).
    pub fn insert(&mut self, rect: Rect) {
        let clamped = rect.clamp_to(self.cols * self.cell, self.rows * self.cell);
        if clamped.is_empty() {
            return;
        }
        let id = self.boxes.len() as u32;
        self.boxes.push(rect);
        let (c0, c1, r0, r1) = self.cell_span(&clamped);
        for r in r0..=r1 {
            for c in c0..=c1 {
                self.cells[(r * self.cols + c) as usize].push(id);
            }
        }
    }

    /// Pairwise intersections between `query` and the indexed boxes —
    /// the conjunctive-predicate primitive ("pixels in the intersection of
    /// boxes associated with all cᵢ", §3.1).
    pub fn intersections(&self, query: &Rect) -> Vec<Rect> {
        self.candidate_ids(query)
            .into_iter()
            .filter_map(|id| self.boxes[id as usize].intersect(query))
            .collect()
    }

    /// Candidate box ids from the cells `query` overlaps, deduplicated.
    fn candidate_ids(&self, query: &Rect) -> Vec<u32> {
        let clamped = query.clamp_to(self.cols * self.cell, self.rows * self.cell);
        if clamped.is_empty() || self.boxes.is_empty() {
            return Vec::new();
        }
        let (c0, c1, r0, r1) = self.cell_span(&clamped);
        let mut seen = vec![false; self.boxes.len()];
        let mut out = Vec::new();
        for r in r0..=r1 {
            for c in c0..=c1 {
                for &id in &self.cells[(r * self.cols + c) as usize] {
                    if !seen[id as usize] {
                        seen[id as usize] = true;
                        out.push(id);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn cell_span(&self, rect: &Rect) -> (u32, u32, u32, u32) {
        let c0 = rect.x / self.cell;
        let c1 = ((rect.right() - 1) / self.cell).min(self.cols - 1);
        let r0 = rect.y / self.cell;
        let r1 = ((rect.bottom() - 1) / self.cell).min(self.rows - 1);
        (c0, c1, r0, r1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_returns_nothing() {
        let g = SpatialGrid::new(640, 352, 64);
        assert!(g.is_empty());
        assert!(g.intersections(&Rect::new(0, 0, 640, 352)).is_empty());
    }

    #[test]
    fn finds_overlapping_boxes_only() {
        let mut g = SpatialGrid::new(640, 352, 64);
        g.insert(Rect::new(10, 10, 50, 50));
        g.insert(Rect::new(300, 200, 40, 40));
        g.insert(Rect::new(600, 300, 30, 30));
        let hits = g.intersections(&Rect::new(0, 0, 100, 100));
        assert_eq!(hits, vec![Rect::new(10, 10, 50, 50)]);
        let hits = g.intersections(&Rect::new(310, 210, 10, 10));
        assert_eq!(hits, vec![Rect::new(310, 210, 10, 10)]);
        assert!(g.intersections(&Rect::new(100, 100, 20, 20)).is_empty());
    }

    #[test]
    fn boxes_spanning_cells_are_deduplicated() {
        let mut g = SpatialGrid::new(640, 352, 64);
        // Box spanning 4+ cells.
        g.insert(Rect::new(32, 32, 128, 128));
        let hits = g.intersections(&Rect::new(0, 0, 640, 352));
        assert_eq!(hits, vec![Rect::new(32, 32, 128, 128)]);
    }

    #[test]
    fn intersections_clip_to_overlap() {
        let mut g = SpatialGrid::new(640, 352, 64);
        g.insert(Rect::new(0, 0, 100, 100));
        g.insert(Rect::new(80, 80, 100, 100));
        let inter = g.intersections(&Rect::new(50, 50, 60, 60));
        assert!(inter.contains(&Rect::new(50, 50, 50, 50))); // ∩ first box
        assert!(inter.contains(&Rect::new(80, 80, 30, 30))); // ∩ second box
    }

    #[test]
    fn out_of_frame_queries_are_safe() {
        let mut g = SpatialGrid::new(640, 352, 64);
        g.insert(Rect::new(600, 320, 100, 100)); // extends past the frame
        let hits = g.intersections(&Rect::new(630, 340, 500, 500));
        assert_eq!(hits, vec![Rect::new(630, 340, 70, 80)]);
        assert!(g.intersections(&Rect::new(5000, 5000, 10, 10)).is_empty());
    }

    #[test]
    fn from_boxes_builder() {
        let boxes = [Rect::new(0, 0, 10, 10), Rect::new(100, 100, 10, 10)];
        let g = SpatialGrid::from_boxes(640, 352, &boxes);
        assert_eq!(g.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0u32..640, 0u32..352, 1u32..200, 1u32..150).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
    }

    proptest! {
        /// The grid must agree exactly with brute force over the boxes that
        /// are at least partially inside the frame (boxes entirely outside
        /// are not indexed, mirroring the frame-bounded semantic index).
        #[test]
        fn prop_matches_brute_force(
            boxes in proptest::collection::vec(arb_rect(), 0..40),
            query in arb_rect(),
        ) {
            let g = SpatialGrid::from_boxes(640, 352, &boxes);
            let frame_w = g.cols * g.cell;
            let frame_h = g.rows * g.cell;
            let mut expected: Vec<Rect> = boxes
                .iter()
                .filter(|b| !b.clamp_to(frame_w, frame_h).is_empty())
                .filter_map(|b| b.intersect(&query))
                .collect();
            let mut got = g.intersections(&query);
            expected.sort_by_key(|r| (r.x, r.y, r.w, r.h));
            got.sort_by_key(|r| (r.x, r.y, r.w, r.h));
            prop_assert_eq!(got, expected);
        }
    }
}
