//! The seeded request generator. The full request list of a run is produced
//! up front from `--seed`; the product receives only the queries.

use crate::corpus::LABELS;
use crate::rng::{Rng, Zipf};
use std::ops::Range;
use tasm_core::{LabelPredicate, Query};
use tasm_video::Rect;

pub const ZIPF_S: f64 = 1.1;

#[derive(Clone, Debug)]
pub struct Request {
    /// Index into the run's video list.
    pub video: usize,
    pub label: &'static str,
    pub frames: Range<u32>,
    pub roi: Option<Rect>,
    pub stride: u32,
}

impl Request {
    pub fn query(&self) -> Query {
        let q = Query::new(LabelPredicate::label(self.label))
            .frames(self.frames.clone())
            .stride(self.stride);
        match self.roi {
            Some(roi) => q.roi(roi),
            None => q,
        }
    }
}

/// The selection mix of `cold_select` and `warm_serve`: label Zipf(1.1),
/// video uniform, window of a third of the video up to all of it at a
/// uniform start, a quarter of the queries narrowed to a half-frame ROI and
/// a quarter sampled at stride 5.
pub fn select_mix(
    rng: &mut Rng,
    n: usize,
    videos: usize,
    frames: u32,
    dims: (u32, u32),
) -> Vec<Request> {
    let labels = Zipf::new(LABELS.len(), ZIPF_S);
    let (w, h) = dims;
    let halves = [
        Rect::new(0, 0, w / 2, h),
        Rect::new(w / 2, 0, w / 2, h),
        Rect::new(0, 0, w, h / 2),
        Rect::new(0, h / 2, w, h / 2),
    ];
    (0..n)
        .map(|_| {
            let label = LABELS[labels.sample(rng)];
            let video = rng.below(videos as u32) as usize;
            let len = rng.between(frames / 3, frames);
            let start = rng.below(frames - len + 1);
            let roi = (rng.below(4) == 0).then(|| halves[rng.below(4) as usize]);
            let stride = if rng.below(4) == 0 { 5 } else { 1 };
            Request {
                video,
                label,
                frames: start..start + len,
                roi,
                stride,
            }
        })
        .collect()
}

/// `routed_evict`: full-window pixel queries, video and label Zipf(1.1).
pub fn routed_mix(rng: &mut Rng, n: usize, videos: usize, frames: u32) -> Vec<Request> {
    let labels = Zipf::new(LABELS.len(), ZIPF_S);
    let by_video = Zipf::new(videos, ZIPF_S);
    (0..n)
        .map(|_| Request {
            video: by_video.sample(rng),
            label: LABELS[labels.sample(rng)],
            frames: 0..frames,
            roi: None,
            stride: 1,
        })
        .collect()
}

/// `adaptive_ingest`: a §5.3 Workload-3-style sequence whose target shifts
/// from cars to people midway (5 % traffic lights throughout), with Zipfian
/// window starts biased to the beginning of a video. `videos_at(i)` is how
/// many videos exist when query `i` runs (clips join as they are ingested).
pub fn adaptive_sequence(
    rng: &mut Rng,
    n: usize,
    videos_at: impl Fn(usize) -> usize,
    frames_of: impl Fn(usize) -> u32,
    window: u32,
) -> Vec<Request> {
    let starts = Zipf::new(64, 1.0);
    (0..n)
        .map(|i| {
            let label = if rng.below(20) == 0 {
                "traffic_light"
            } else if i < n / 2 {
                "car"
            } else {
                "person"
            };
            let video = rng.below(videos_at(i) as u32) as usize;
            let frames = frames_of(video);
            let len = window.min(frames);
            let start = (starts.sample(rng) as u32).min(frames - len);
            Request {
                video,
                label,
                frames: start..start + len,
                roi: None,
                stride: 1,
            }
        })
        .collect()
}

/// Fisher-Yates.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u32 + 1) as usize);
    }
}
