//! Probes that call one layer's public functions directly, for the numbers
//! no result type reports.

use crate::corpus::{self, BuildProbe, StoreDirs};
use crate::drive::TRACED_REQUESTS;
use crate::requests::Request;
use crate::schema::Values;
use crate::stats;
use std::time::Instant;
use tasm_codec::{entropy, pred};
use tasm_core::Tasm;
use tasm_index::{SemanticIndex, TieredIndex};
use tasm_video::FrameSource;

/// The entropy and predictor stages of the lossless tile codec, on frames
/// of a corpus scene: `entropy::decompress` alone, and `pred::decode_frame`
/// minus that part.
pub fn codec(layers: &mut Values, scene_seed: u64) {
    const FRAMES: u32 = 12;
    const ROUNDS: usize = 5;
    let scene = corpus::render("probe", 1, scene_seed, &mut BuildProbe::default());
    let (w, h) = (scene.frames.width(), scene.frames.height());
    let frames: Vec<_> = (0..FRAMES).map(|f| scene.frames.frame(f)).collect();
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| match i {
            0 => pred::encode_intra(f),
            _ => pred::encode_inter(f, &frames[i - 1]),
        })
        .collect();
    // Residuals never exceed the samples plus a mode byte per plane and a
    // predictor byte per row; twice the frame is a safe allocation cap.
    let cap = (w * h * 3) as usize;
    let (mut entropy_s, mut frame_s, mut plain_bytes) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        plain_bytes = payloads
            .iter()
            .map(|p| {
                entropy::decompress(p, cap)
                    .expect("entropy decompress")
                    .len()
            })
            .sum();
        entropy_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut prev = None;
        for p in &payloads {
            prev = Some(pred::decode_frame(p, w, h, prev.as_ref()).expect("pred decode"));
        }
        std::hint::black_box(&prev);
        frame_s.push(t.elapsed().as_secs_f64());
    }
    let (entropy_s, frame_s) = (stats::median(&entropy_s), stats::median(&frame_s));
    layers.insert(
        "codec.entropy_mb_per_s",
        stats::ratio(plain_bytes as f64 / 1e6, entropy_s),
    );
    layers.insert(
        "codec.pred_reconstruct_us_per_frame",
        (frame_s - entropy_s).max(0.0) * 1e6 / FRAMES as f64,
    );
}

/// The tiered index's filter counters for the sampled lookups, read the way
/// `tasm stats --storage` reads them: a second, read-only `TieredIndex`
/// handle on the index directory at a quiescent point.
pub fn index_filters(
    layers: &mut Values,
    dirs: &StoreDirs,
    tasm: &Tasm,
    names: &[String],
    requests: &[Request],
) {
    let mut tier = TieredIndex::open(&dirs.index()).expect("open tier read-only");
    let sample = &requests[..requests.len().min(TRACED_REQUESTS)];
    for r in sample {
        let id = tasm.video_id(&names[r.video]).expect("video id");
        tier.query(id, r.label, r.frames.clone())
            .expect("tier query");
    }
    let s = tier.stats();
    layers.insert(
        "index.runs_read_per_lookup",
        stats::ratio(s.runs_read as f64, sample.len() as f64),
    );
    layers.insert("index.filter_skip_ratio", s.filter_hit_rate());
}
