//! Integer rectangle geometry.
//!
//! [`Rect`] is used both for object bounding boxes stored in the semantic
//! index and for tile rectangles produced by layout generation, so the same
//! intersection / containment logic serves both sides of TASM.

use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle in pixel coordinates.
///
/// `x`/`y` is the top-left corner; the rectangle covers the half-open ranges
/// `[x, x + w)` × `[y, y + h)`. Zero-width or zero-height rectangles are
/// permitted and behave as empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x: u32,
    /// Top edge (inclusive).
    pub y: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle from its top-left corner and size.
    pub const fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// Exclusive right edge.
    pub const fn right(&self) -> u32 {
        self.x + self.w
    }

    /// Exclusive bottom edge.
    pub const fn bottom(&self) -> u32 {
        self.y + self.h
    }

    /// Area in pixels.
    pub const fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// True if the rectangle covers no pixels.
    pub const fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// True if `(px, py)` lies inside the rectangle.
    pub const fn contains_point(&self, px: u32, py: u32) -> bool {
        px >= self.x && px < self.right() && py >= self.y && py < self.bottom()
    }

    /// True if `other` lies entirely inside `self`. Empty rectangles are
    /// contained by everything.
    pub fn contains(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.x >= self.x
                && other.y >= self.y
                && other.right() <= self.right()
                && other.bottom() <= self.bottom())
    }

    /// Intersection of two rectangles, or `None` if they are disjoint
    /// (or either is empty).
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if x < right && y < bottom {
            Some(Rect::new(x, y, right - x, bottom - y))
        } else {
            None
        }
    }

    /// True if the two rectangles share at least one pixel.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }

    /// Smallest rectangle containing both inputs. Empty inputs are ignored;
    /// the union of two empty rectangles is empty.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        let right = self.right().max(other.right());
        let bottom = self.bottom().max(other.bottom());
        Rect::new(x, y, right - x, bottom - y)
    }

    /// Bounding hull of an iterator of rectangles (empty if none).
    pub fn hull<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Rect {
        rects
            .into_iter()
            .fold(Rect::new(0, 0, 0, 0), |acc, r| acc.union(r))
    }

    /// Intersection-over-union, used by detector-quality simulation.
    /// Returns 0.0 when either rectangle is empty.
    pub fn iou(&self, other: &Rect) -> f64 {
        let inter = self.intersect(other).map_or(0, |r| r.area());
        if inter == 0 {
            return 0.0;
        }
        let union = self.area() + other.area() - inter;
        inter as f64 / union as f64
    }

    /// Clamps the rectangle to lie within a `w`×`h` frame.
    pub fn clamp_to(&self, w: u32, h: u32) -> Rect {
        let x = self.x.min(w);
        let y = self.y.min(h);
        Rect::new(x, y, self.w.min(w - x), self.h.min(h - y))
    }

    /// Expands the rectangle by `margin` pixels on every side, clamping to
    /// the `w`×`h` frame. Used to pad detector bounding boxes.
    pub fn inflate(&self, margin: u32, w: u32, h: u32) -> Rect {
        let x = self.x.saturating_sub(margin);
        let y = self.y.saturating_sub(margin);
        let right = (self.right() + margin).min(w);
        let bottom = (self.bottom() + margin).min(h);
        Rect::new(x, y, right.saturating_sub(x), bottom.saturating_sub(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_overlapping() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 5, 5)));
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersect_disjoint_and_touching() {
        let a = Rect::new(0, 0, 10, 10);
        // Touching edges share no pixel in half-open coordinates.
        assert_eq!(a.intersect(&Rect::new(10, 0, 5, 5)), None);
        assert_eq!(a.intersect(&Rect::new(20, 20, 5, 5)), None);
    }

    #[test]
    fn intersect_empty_is_none() {
        let a = Rect::new(0, 0, 10, 10);
        assert_eq!(a.intersect(&Rect::new(3, 3, 0, 5)), None);
    }

    #[test]
    fn union_and_hull() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(10, 10, 2, 2);
        assert_eq!(a.union(&b), Rect::new(0, 0, 12, 12));
        let hull = Rect::hull([a, b].iter());
        assert_eq!(hull, Rect::new(0, 0, 12, 12));
        assert_eq!(Rect::hull([].iter()), Rect::new(0, 0, 0, 0));
    }

    #[test]
    fn union_with_empty_ignores_empty() {
        let a = Rect::new(5, 5, 3, 3);
        let e = Rect::new(100, 100, 0, 0);
        assert_eq!(a.union(&e), a);
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn contains_cases() {
        let outer = Rect::new(0, 0, 100, 100);
        assert!(outer.contains(&Rect::new(10, 10, 50, 50)));
        assert!(outer.contains(&Rect::new(0, 0, 100, 100)));
        assert!(!outer.contains(&Rect::new(60, 60, 50, 50)));
        assert!(outer.contains(&Rect::new(500, 500, 0, 0))); // empty
    }

    #[test]
    fn contains_point_half_open() {
        let r = Rect::new(2, 2, 4, 4);
        assert!(r.contains_point(2, 2));
        assert!(r.contains_point(5, 5));
        assert!(!r.contains_point(6, 6));
        assert!(!r.contains_point(1, 3));
    }

    #[test]
    fn iou_identical_and_disjoint() {
        let a = Rect::new(0, 0, 10, 10);
        assert!((a.iou(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.iou(&Rect::new(50, 50, 10, 10)), 0.0);
        let half = Rect::new(0, 0, 10, 5);
        assert!((a.iou(&half) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clamp_to_frame() {
        let r = Rect::new(90, 90, 20, 20);
        assert_eq!(r.clamp_to(100, 100), Rect::new(90, 90, 10, 10));
        let off = Rect::new(200, 200, 5, 5);
        assert!(off.clamp_to(100, 100).is_empty());
    }

    #[test]
    fn inflate_clamps_to_frame() {
        let r = Rect::new(5, 5, 10, 10);
        assert_eq!(r.inflate(10, 100, 18), Rect::new(0, 0, 25, 18));
    }
}
