//! Decoding one tile a frame at a time.
//!
//! A [`TileCursor`] walks a tile's stream in display order and holds only
//! what the next frame needs: the latest reconstruction (the next P-frame's
//! reference) and the buffer before it, which the next frame is decoded
//! into. The two take turns, so walking a whole SOT costs two frames of
//! memory however long it is. Every span decode of a [`TileVideo`] runs on
//! one, for the DCT and the lossless `Pred` codec alike, and so do the
//! storage manager's re-tile and its tile reads
//! ([`TileVideo::cursor_at`]).

use crate::container::{ContainerError, TileCodec, TileVideo};
use crate::decoder::{DecodeError, TileDecoder};
use crate::pred;
use crate::stats::DecodeStats;
use std::time::Instant;
use tasm_video::Frame;

/// A position in one tile's stream: decodes frame after frame, keeping
/// [`DecodeStats`] for every frame it decodes.
pub struct TileCursor<'a> {
    tile: &'a TileVideo,
    /// Present for a DCT tile; a `Pred` tile decodes without one.
    dct: Option<TileDecoder>,
    /// Index of the next frame to decode.
    next: u32,
    /// The caller's reconstruction of frame `next - 1`, read until the
    /// first decode (a resume from a cached prefix).
    reference: Option<&'a Frame>,
    /// The reconstruction of frame `next - 1`, once this cursor decoded it.
    current: Option<Frame>,
    /// Spent reconstructions, whose allocations the next frames take.
    spares: Vec<Frame>,
    stats: DecodeStats,
}

impl<'a> TileCursor<'a> {
    /// A cursor whose next frame is `from`. `from` must be a keyframe, or
    /// `reference` must hold the reconstruction of frame `from - 1`; the
    /// callers check both, as [`TileVideo::cursor_at`] does (a P-frame
    /// without its reference is a [`DecodeError::MissingReference`] when
    /// it is decoded).
    pub(crate) fn resume(tile: &'a TileVideo, from: u32, reference: Option<&'a Frame>) -> Self {
        let dct = (tile.codec() == TileCodec::Dct).then(|| {
            TileDecoder::new(tile.width(), tile.height(), tile.deblock())
                .with_skip_runs(tile.skip_runs())
        });
        TileCursor {
            tile,
            dct,
            next: from,
            reference,
            current: None,
            spares: Vec::new(),
            stats: DecodeStats::new(),
        }
    }

    /// Index of the next frame [`TileCursor::advance`] decodes.
    pub fn position(&self) -> u32 {
        self.next
    }

    /// The frame decoded last (frame `position() - 1`), if any.
    pub fn current(&self) -> Option<&Frame> {
        self.current.as_ref()
    }

    /// The work done so far.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// Lends the cursor `buffers` to decode into before it allocates, such
    /// as an earlier cursor's ([`TileCursor::into_buffers`]); one of
    /// another size than the tile's is dropped when its turn comes.
    pub fn with_buffers(mut self, buffers: Vec<Frame>) -> Self {
        self.spares = buffers;
        self
    }

    /// Decodes the next frame into the spare buffer and makes it current;
    /// the frame it replaces becomes the spare. Past the last frame this
    /// is [`ContainerError::InvalidRequest`].
    pub fn advance(&mut self) -> Result<&Frame, ContainerError> {
        let displaced = self.advance_keeping()?;
        self.spares.extend(displaced);
        Ok(self.current.as_ref().expect("a frame was just decoded"))
    }

    /// Decodes the next frame and makes it current; hands back the frame
    /// it replaces, for the caller to keep. A DCT frame is decoded into
    /// a spare, if there is one, or else into a fresh allocation; a
    /// `Pred` frame always allocates its own.
    pub fn advance_keeping(&mut self) -> Result<Option<Frame>, ContainerError> {
        let t0 = Instant::now();
        let tile = self.tile;
        let ef = tile
            .frame(self.next)
            .ok_or(ContainerError::InvalidRequest("frame range out of bounds"))?;
        let prev = self.current.as_ref().or(self.reference);
        let spare = self.spares.pop();
        let frame = match &self.dct {
            Some(dec) => dec.decode_against(ef.data, ef.is_key, ef.qp, prev, spare)?,
            None => {
                let prev = if ef.is_key { None } else { prev };
                pred::decode_frame(ef.data, tile.width(), tile.height(), prev).map_err(
                    |e| match e {
                        pred::PredError::MissingReference => DecodeError::MissingReference,
                        other => DecodeError::Lossless(other.to_string()),
                    },
                )?
            }
        };
        let luma = tile.width() as u64 * tile.height() as u64;
        let blocks = (tile.width() as u64 / 8) * (tile.height() as u64 / 8);
        self.stats.frames_decoded += 1;
        self.stats.samples_decoded += luma + luma / 2;
        self.stats.tile_chunks_decoded += 1;
        self.stats.bytes_read += ef.data.len() as u64;
        // 8×8 blocks in every plane; the quarter-size chroma planes add half.
        self.stats.blocks_decoded += blocks + blocks / 2;
        self.next += 1;
        self.reference = None;
        let displaced = self.current.replace(frame);
        self.stats.decode_time += t0.elapsed();
        Ok(displaced)
    }

    /// The current frame and the work done, ending the walk.
    pub fn finish(self) -> (Option<Frame>, DecodeStats) {
        (self.current, self.stats)
    }

    /// The work done and every buffer the cursor holds, ending the walk.
    pub fn into_buffers(mut self) -> (DecodeStats, Vec<Frame>) {
        self.spares.extend(self.current);
        (self.stats, self.spares)
    }
}
