//! Planar YUV 4:2:0 frames.
//!
//! All raw video in the reproduction flows through [`Frame`]: the synthetic
//! scene generator renders into frames, the codec consumes and reconstructs
//! them, and quality metrics compare them. Dimensions must be even because
//! chroma planes are subsampled 2×2.

use crate::geometry::Rect;

/// Identifies one of the three planes of a 4:2:0 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Luma, full resolution.
    Y,
    /// Blue-difference chroma, half resolution in both dimensions.
    U,
    /// Red-difference chroma, half resolution in both dimensions.
    V,
}

impl Plane {
    /// All three planes in canonical order.
    pub const ALL: [Plane; 3] = [Plane::Y, Plane::U, Plane::V];

    /// Log2 of the subsampling factor relative to luma (0 for Y, 1 for U/V).
    pub const fn subsample_shift(self) -> u32 {
        match self {
            Plane::Y => 0,
            Plane::U | Plane::V => 1,
        }
    }
}

/// A planar YUV 4:2:0, 8-bit video frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: u32,
    height: u32,
    y: Vec<u8>,
    u: Vec<u8>,
    v: Vec<u8>,
}

impl Frame {
    /// Creates a frame filled with black (Y=16, U=V=128, video range).
    ///
    /// # Panics
    /// Panics if either dimension is zero or odd.
    pub fn black(width: u32, height: u32) -> Self {
        Self::filled(width, height, 16, 128, 128)
    }

    /// Creates a frame with each plane filled with a constant value.
    ///
    /// # Panics
    /// Panics if either dimension is zero or odd.
    pub fn filled(width: u32, height: u32, y: u8, u: u8, v: u8) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "4:2:0 frame dimensions must be even (got {width}x{height})"
        );
        let luma = (width as usize) * (height as usize);
        let chroma = luma / 4;
        Frame {
            width,
            height,
            y: vec![y; luma],
            u: vec![u; chroma],
            v: vec![v; chroma],
        }
    }

    /// Reassembles a frame from raw plane buffers (the inverse of reading
    /// the three [`Frame::plane`] slices; used when frames arrive over a
    /// byte boundary such as the wire protocol). Returns `None` instead of
    /// panicking when the dimensions are not positive and even or a plane
    /// length does not match them — callers deserializing untrusted bytes
    /// turn that into a typed error.
    pub fn from_planes(
        width: u32,
        height: u32,
        y: Vec<u8>,
        u: Vec<u8>,
        v: Vec<u8>,
    ) -> Option<Self> {
        let (luma, chroma) = Frame::plane_lens(width, height)?;
        if y.len() != luma || u.len() != chroma || v.len() != chroma {
            return None;
        }
        Some(Frame {
            width,
            height,
            y,
            u,
            v,
        })
    }

    /// The three plane buffers (Y, U, V): the inverse of
    /// [`Frame::from_planes`], for a caller that builds its next frame in
    /// the allocations of one it is done with.
    pub fn into_planes(self) -> [Vec<u8>; 3] {
        [self.y, self.u, self.v]
    }

    /// Luma and chroma plane lengths of a `width`×`height` 4:2:0 frame;
    /// `None` when the dimensions are not positive and even. What
    /// [`Frame::from_planes`] holds its buffers to.
    pub fn plane_lens(width: u32, height: u32) -> Option<(usize, usize)> {
        if width == 0 || height == 0 || !width.is_multiple_of(2) || !height.is_multiple_of(2) {
            return None;
        }
        let luma = (width as usize).checked_mul(height as usize)?;
        Some((luma, luma / 4))
    }

    /// Frame width in luma pixels.
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in luma pixels.
    pub const fn height(&self) -> u32 {
        self.height
    }

    /// The full-frame rectangle.
    pub const fn rect(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Width of the given plane.
    pub const fn plane_width(&self, plane: Plane) -> u32 {
        self.width >> plane.subsample_shift()
    }

    /// Height of the given plane.
    pub const fn plane_height(&self, plane: Plane) -> u32 {
        self.height >> plane.subsample_shift()
    }

    /// Read-only access to a plane's samples in row-major order.
    pub fn plane(&self, plane: Plane) -> &[u8] {
        match plane {
            Plane::Y => &self.y,
            Plane::U => &self.u,
            Plane::V => &self.v,
        }
    }

    /// Mutable access to a plane's samples in row-major order.
    pub fn plane_mut(&mut self, plane: Plane) -> &mut [u8] {
        match plane {
            Plane::Y => &mut self.y,
            Plane::U => &mut self.u,
            Plane::V => &mut self.v,
        }
    }

    /// Sample value at `(x, y)` in the given plane's coordinate system.
    #[inline]
    pub fn sample(&self, plane: Plane, x: u32, y: u32) -> u8 {
        let w = self.plane_width(plane) as usize;
        self.plane(plane)[y as usize * w + x as usize]
    }

    /// Sets the sample at `(x, y)` in the given plane's coordinate system.
    #[inline]
    pub fn set_sample(&mut self, plane: Plane, x: u32, y: u32, value: u8) {
        let w = self.plane_width(plane) as usize;
        self.plane_mut(plane)[y as usize * w + x as usize] = value;
    }

    /// Fills a luma-coordinate rectangle with a solid YUV colour.
    /// The rectangle is clamped to the frame.
    pub fn fill_rect(&mut self, rect: Rect, y: u8, u: u8, v: u8) {
        let r = rect.clamp_to(self.width, self.height);
        if r.is_empty() {
            return;
        }
        fill_plane_rect(&mut self.y, self.width, &r, 0, y);
        fill_plane_rect(&mut self.u, self.width / 2, &chroma_rect(&r), 0, u);
        fill_plane_rect(&mut self.v, self.width / 2, &chroma_rect(&r), 0, v);
    }

    /// Copies the luma-coordinate region `src_rect` of `src` to position
    /// `(dst_x, dst_y)` in `self`. Coordinates must be even so chroma planes
    /// stay aligned; the copy is clipped to both frames.
    pub fn blit(&mut self, src: &Frame, src_rect: Rect, dst_x: u32, dst_y: u32) {
        debug_assert!(
            src_rect.x.is_multiple_of(2)
                && src_rect.y.is_multiple_of(2)
                && dst_x.is_multiple_of(2)
                && dst_y.is_multiple_of(2),
            "blit coordinates must be chroma-aligned (even)"
        );
        let src_rect = src_rect.clamp_to(src.width, src.height);
        let avail_w = self.width.saturating_sub(dst_x).min(src_rect.w);
        let avail_h = self.height.saturating_sub(dst_y).min(src_rect.h);
        if avail_w == 0 || avail_h == 0 {
            return;
        }
        for plane in Plane::ALL {
            let shift = plane.subsample_shift();
            let sw = src.plane_width(plane) as usize;
            let dw = self.plane_width(plane) as usize;
            let (sx, sy) = (
                (src_rect.x >> shift) as usize,
                (src_rect.y >> shift) as usize,
            );
            let (dx, dy) = ((dst_x >> shift) as usize, (dst_y >> shift) as usize);
            let (cw, ch) = ((avail_w >> shift) as usize, (avail_h >> shift) as usize);
            let sp = src.plane(plane);
            let dp = self.plane_mut(plane);
            for row in 0..ch {
                let s = (sy + row) * sw + sx;
                let d = (dy + row) * dw + dx;
                dp[d..d + cw].copy_from_slice(&sp[s..s + cw]);
            }
        }
    }

    /// Extracts a luma-coordinate region as a new frame. Coordinates must be
    /// even; the rectangle must lie within the frame.
    ///
    /// # Panics
    /// Panics if `rect` exceeds the frame bounds or is not chroma-aligned.
    pub fn crop(&self, rect: Rect) -> Frame {
        assert!(
            self.rect().contains(&rect) && !rect.is_empty(),
            "crop rect {rect:?} out of bounds for {}x{} frame",
            self.width,
            self.height
        );
        assert!(
            rect.x.is_multiple_of(2)
                && rect.y.is_multiple_of(2)
                && rect.w.is_multiple_of(2)
                && rect.h.is_multiple_of(2),
            "crop rect must be chroma-aligned: {rect:?}"
        );
        let mut out = Frame::black(rect.w, rect.h);
        out.blit(self, rect, 0, 0);
        out
    }

    /// Total number of samples across all three planes (the paper's decode
    /// cost is linear in decoded pixels; we count luma+chroma samples).
    pub fn sample_count(&self) -> u64 {
        self.y.len() as u64 + self.u.len() as u64 + self.v.len() as u64
    }
}

/// Maps a luma-coordinate rect to chroma coordinates (rounding outward so the
/// chroma area covers the full luma area).
fn chroma_rect(r: &Rect) -> Rect {
    let x = r.x / 2;
    let y = r.y / 2;
    let right = r.right().div_ceil(2);
    let bottom = r.bottom().div_ceil(2);
    Rect::new(x, y, right - x, bottom - y)
}

fn fill_plane_rect(plane: &mut [u8], plane_w: u32, r: &Rect, _shift: u32, value: u8) {
    let w = plane_w as usize;
    for row in r.y..r.bottom() {
        let start = row as usize * w + r.x as usize;
        plane[start..start + r.w as usize].fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_dimensions_and_planes() {
        let f = Frame::filled(16, 8, 100, 110, 120);
        assert_eq!(f.width(), 16);
        assert_eq!(f.height(), 8);
        assert_eq!(f.plane(Plane::Y).len(), 128);
        assert_eq!(f.plane(Plane::U).len(), 32);
        assert_eq!(f.plane(Plane::V).len(), 32);
        assert!(f.plane(Plane::Y).iter().all(|&s| s == 100));
        assert!(f.plane(Plane::U).iter().all(|&s| s == 110));
        assert!(f.plane(Plane::V).iter().all(|&s| s == 120));
        assert_eq!(f.sample_count(), 128 + 64);
    }

    #[test]
    fn planes_round_trip_without_moving() {
        let f = Frame::filled(16, 8, 200, 7, 9);
        let y = f.plane(Plane::Y).as_ptr();
        let [py, pu, pv] = f.clone().into_planes();
        assert_eq!(Frame::from_planes(16, 8, py, pu, pv), Some(f.clone()));
        assert_eq!(f.into_planes()[0].as_ptr(), y);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_dimensions_rejected() {
        let _ = Frame::black(15, 8);
    }

    #[test]
    fn sample_roundtrip() {
        let mut f = Frame::black(8, 8);
        f.set_sample(Plane::Y, 3, 2, 200);
        f.set_sample(Plane::U, 1, 1, 42);
        assert_eq!(f.sample(Plane::Y, 3, 2), 200);
        assert_eq!(f.sample(Plane::U, 1, 1), 42);
        assert_eq!(f.sample(Plane::Y, 0, 0), 16);
    }

    #[test]
    fn fill_rect_covers_chroma() {
        let mut f = Frame::black(16, 16);
        f.fill_rect(Rect::new(4, 4, 8, 8), 235, 50, 60);
        assert_eq!(f.sample(Plane::Y, 4, 4), 235);
        assert_eq!(f.sample(Plane::Y, 11, 11), 235);
        assert_eq!(f.sample(Plane::Y, 3, 4), 16);
        assert_eq!(f.sample(Plane::U, 2, 2), 50);
        assert_eq!(f.sample(Plane::V, 5, 5), 60);
    }

    #[test]
    fn fill_rect_clamps_out_of_bounds() {
        let mut f = Frame::black(8, 8);
        f.fill_rect(Rect::new(6, 6, 10, 10), 200, 128, 128);
        assert_eq!(f.sample(Plane::Y, 7, 7), 200);
        // Entirely outside: no panic, no effect.
        f.fill_rect(Rect::new(100, 100, 4, 4), 0, 0, 0);
    }

    #[test]
    fn blit_and_crop_roundtrip() {
        let mut src = Frame::black(32, 32);
        src.fill_rect(Rect::new(8, 8, 8, 8), 180, 90, 200);
        let cropped = src.crop(Rect::new(8, 8, 8, 8));
        assert_eq!(cropped.width(), 8);
        assert!(cropped.plane(Plane::Y).iter().all(|&s| s == 180));
        assert!(cropped.plane(Plane::U).iter().all(|&s| s == 90));

        let mut dst = Frame::black(32, 32);
        dst.blit(&cropped, cropped.rect(), 16, 16);
        assert_eq!(dst.sample(Plane::Y, 16, 16), 180);
        assert_eq!(dst.sample(Plane::Y, 23, 23), 180);
        assert_eq!(dst.sample(Plane::Y, 24, 24), 16);
        assert_eq!(dst.sample(Plane::V, 8, 8), 200);
    }

    #[test]
    fn blit_clips_to_destination() {
        let src = Frame::filled(8, 8, 77, 128, 128);
        let mut dst = Frame::black(8, 8);
        dst.blit(&src, src.rect(), 4, 4);
        assert_eq!(dst.sample(Plane::Y, 4, 4), 77);
        assert_eq!(dst.sample(Plane::Y, 7, 7), 77);
        assert_eq!(dst.sample(Plane::Y, 3, 3), 16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn crop_out_of_bounds_panics() {
        let f = Frame::black(8, 8);
        let _ = f.crop(Rect::new(4, 4, 8, 8));
    }

    #[test]
    fn chroma_rect_rounds_outward() {
        let r = chroma_rect(&Rect::new(1, 1, 3, 3));
        assert_eq!(r, Rect::new(0, 0, 2, 2));
    }
}
