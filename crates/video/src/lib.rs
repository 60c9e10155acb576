//! Raw-video substrate for the TASM reproduction.
//!
//! This crate provides the uncompressed-video building blocks everything else
//! sits on: planar YUV 4:2:0 [`Frame`]s, integer pixel [`geometry`], and the
//! quality metrics (MSE / PSNR) used by the paper's evaluation (Figure 6(b)).
//!
//! Nothing in this crate knows about encoding, tiles, or objects; it is the
//! equivalent of the raw-frame layer that NVDEC hands to LightDB in the
//! paper's prototype.

#![forbid(unsafe_code)]

pub mod frame;
pub mod geometry;
pub mod quality;
pub mod source;

pub use frame::{Frame, Plane};
pub use geometry::Rect;
pub use quality::{mse, psnr, psnr_frames, PsnrReport};
pub use source::{FrameSource, SliceSource, VecFrameSource};
