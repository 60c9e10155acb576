//! Tile-aware video codec substrate for the TASM reproduction.
//!
//! The paper's prototype delegates encoding to NVENC/NVDEC HEVC; this crate
//! implements the codec features TASM depends on from scratch, in Rust:
//!
//! * **GOP structure** — frames are grouped into GOPs; each begins with an
//!   intra-coded keyframe (temporal random access, expensive to store) and
//!   continues with motion-compensated P-frames.
//! * **Tiles** — a frame can be partitioned along a regular grid
//!   ([`TileLayout`]); every tile is an *independently decodable* bitstream
//!   because intra prediction, motion vectors, and the in-loop deblocking
//!   filter are confined to the tile rectangle (spatial random access).
//! * **Stitching** — a SOT's tiles are decoded a frame at a time and
//!   composited back into full frames without re-encoding
//!   ([`StitchedVideo`], the walk every re-tile decodes through).
//! * **Exact work accounting** — decoders report pixels, tiles, bytes, and
//!   blocks processed ([`DecodeStats`]), the quantities TASM's cost model
//!   `C = β·P + γ·T` is built on.
//!
//! The pipeline is a classic block codec: 8×8 integer DCT, scalar
//! quantization (QP with the HEVC step-doubling rule), DC intra prediction,
//! three-step motion search, zigzag run-level coding with exp-Golomb codes,
//! SKIP blocks coded as runs (H.264's `mb_skip_run`), and an H.264-style
//! weak deblocking filter. The block syntax is in [`decoder`].

#![forbid(unsafe_code)]

pub mod bitstream;
pub mod blockops;
pub mod container;
pub mod cursor;
pub mod dct;
pub mod deblock;
pub mod decoder;
pub mod encode;
pub mod encoder;
pub mod entropy;
pub mod grid;
pub mod pred;
pub mod quant;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod stitch;

pub use container::{ContainerError, TileCodec, TileFrame, TileVideo};
pub use cursor::TileCursor;
pub use decoder::{DecodeError, TileDecoder};
pub use encode::{encode_video, LayoutEncoder};
pub use encoder::{EncodedFrame, EncoderConfig, RateControl, TileEncoder};
pub use entropy::EntropyError;
pub use grid::{LayoutError, TileLayout, TILE_ALIGN};
pub use pred::PredError;
pub use stats::{DecodeStats, EncodeStats};
pub use stitch::{StitchError, StitchedVideo};
