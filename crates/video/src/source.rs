//! Random-access frame sources.
//!
//! Encoding a long video must not require holding every raw frame in memory,
//! so the codec pulls frames through [`FrameSource`]. Procedural generators
//! (the synthetic corpus in `tasm-data`) implement it by rendering on demand;
//! in-memory clips via [`VecFrameSource`]; a re-tile by decoding the old
//! tiles one frame at a time and lending each composed frame.

use crate::frame::Frame;

/// A video that can produce any frame by index.
///
/// Implementations must be deterministic: calling `frame(i)` twice returns
/// identical pixels. This is what lets the storage manager re-tile a section
/// of video without buffering the whole sequence: the encoder asks for each
/// frame once, in order, through [`FrameSource::lend`].
pub trait FrameSource: Sync {
    /// Frame width in luma pixels (constant across the video).
    fn width(&self) -> u32;
    /// Frame height in luma pixels (constant across the video).
    fn height(&self) -> u32;
    /// Total number of frames.
    fn len(&self) -> u32;
    /// True if the source has no frames.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Renders or fetches frame `idx` (must be `< len()`).
    fn frame(&self, idx: u32) -> Frame;
    /// Hands frame `idx` (must be `< len()`) to `f` by reference, for the
    /// duration of the call. By default that is an owned
    /// [`FrameSource::frame`]; a source that keeps the frame itself (a
    /// decoder's reconstruction, a composed canvas) lends it instead, and
    /// saves the copy.
    fn lend(&self, idx: u32, f: &mut dyn FnMut(&Frame)) {
        f(&self.frame(idx));
    }
}

/// An in-memory frame source backed by a `Vec<Frame>`.
///
/// It lends through the default [`FrameSource::lend`], a clone per frame:
/// lending its frames in place measured slower on ingest in the perf
/// ledger, so it keeps the copy.
#[derive(Debug, Clone)]
pub struct VecFrameSource {
    frames: Vec<Frame>,
}

impl VecFrameSource {
    /// Wraps a non-empty vector of equally sized frames.
    ///
    /// # Panics
    /// Panics if `frames` is empty or the frames disagree on dimensions.
    pub fn new(frames: Vec<Frame>) -> Self {
        assert!(
            !frames.is_empty(),
            "VecFrameSource requires at least one frame"
        );
        let (w, h) = (frames[0].width(), frames[0].height());
        assert!(
            frames.iter().all(|f| f.width() == w && f.height() == h),
            "all frames must share dimensions"
        );
        VecFrameSource { frames }
    }

    /// Borrow the underlying frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }
}

impl FrameSource for VecFrameSource {
    fn width(&self) -> u32 {
        self.frames[0].width()
    }

    fn height(&self) -> u32 {
        self.frames[0].height()
    }

    fn len(&self) -> u32 {
        self.frames.len() as u32
    }

    fn frame(&self, idx: u32) -> Frame {
        self.frames[idx as usize].clone()
    }
}

/// A view over a sub-range of another source, re-indexing from zero.
/// Used when transcoding a single sequence-of-tiles (SOT).
pub struct SliceSource<'a, S: FrameSource + ?Sized> {
    inner: &'a S,
    start: u32,
    len: u32,
}

impl<'a, S: FrameSource + ?Sized> SliceSource<'a, S> {
    /// Creates a view over `[start, start + len)` of `inner`.
    ///
    /// # Panics
    /// Panics if the range exceeds the inner source.
    pub fn new(inner: &'a S, start: u32, len: u32) -> Self {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= inner.len()),
            "slice [{start}, {start}+{len}) exceeds source of {} frames",
            inner.len()
        );
        SliceSource { inner, start, len }
    }
}

impl<S: FrameSource + ?Sized> FrameSource for SliceSource<'_, S> {
    fn width(&self) -> u32 {
        self.inner.width()
    }

    fn height(&self) -> u32 {
        self.inner.height()
    }

    fn len(&self) -> u32 {
        self.len
    }

    fn frame(&self, idx: u32) -> Frame {
        assert!(
            idx < self.len,
            "frame {idx} out of range for slice of {}",
            self.len
        );
        self.inner.frame(self.start + idx)
    }

    fn lend(&self, idx: u32, f: &mut dyn FnMut(&Frame)) {
        assert!(
            idx < self.len,
            "frame {idx} out of range for slice of {}",
            self.len
        );
        self.inner.lend(self.start + idx, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Plane;

    fn frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| Frame::filled(16, 16, i as u8, 128, 128))
            .collect()
    }

    #[test]
    fn vec_source_basics() {
        let s = VecFrameSource::new(frames(4));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.width(), 16);
        assert_eq!(s.frame(2).sample(Plane::Y, 0, 0), 2);
        let mut lent = Vec::new();
        s.lend(3, &mut |f| lent.push(f.sample(Plane::Y, 0, 0)));
        assert_eq!(lent, [3], "the default lend hands out frame(idx) once");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn vec_source_rejects_empty() {
        let _ = VecFrameSource::new(vec![]);
    }

    #[test]
    fn slice_source_reindexes() {
        let s = VecFrameSource::new(frames(10));
        let slice = SliceSource::new(&s, 3, 4);
        assert_eq!(slice.len(), 4);
        assert_eq!(slice.frame(0).sample(Plane::Y, 0, 0), 3);
        assert_eq!(slice.frame(3).sample(Plane::Y, 0, 0), 6);
    }

    #[test]
    #[should_panic(expected = "exceeds source")]
    fn slice_source_bounds_checked() {
        let s = VecFrameSource::new(frames(5));
        let _ = SliceSource::new(&s, 3, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_frame_bounds_checked() {
        let s = VecFrameSource::new(frames(5));
        let slice = SliceSource::new(&s, 1, 2);
        let _ = slice.frame(2);
    }
}
