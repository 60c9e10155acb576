//! The per-sample scene renderer, compiled for tests only.
//!
//! This is `SyntheticVideo::frame` as it was before each texture cell was
//! hashed once: a black frame, then one splitmix64 hash and several integer
//! divisions for every background sample and every object sample, each
//! object painted over the background in turn. The product renderer must
//! agree with it on every sample of every frame, and the property test at
//! the bottom of this file is where that is checked.
//!
//! One spot is written without the overflow the old renderer had: it added
//! the frame's pan, which saturates at `i64::MAX` for a huge `camera_pan`,
//! to the column in `i64`, which panicked in debug builds. The sums are
//! taken in `i128` here, equal to the old ones wherever those did not
//! overflow.

use super::{splitmix, SceneObject, SyntheticVideo};
use tasm_video::{Frame, Plane, Rect};

/// Frame `idx` of `video`, rendered sample by sample.
pub(super) fn frame(video: &SyntheticVideo, idx: u32) -> Frame {
    let (w, h) = (video.spec.width, video.spec.height);
    let mut f = Frame::black(w, h);
    render_background(video, &mut f, idx);
    for obj in &video.objects {
        if let Some(rect) = obj.bbox(idx, w, h) {
            render_object(&mut f, obj, rect);
        }
    }
    f
}

fn render_background(video: &SyntheticVideo, frame: &mut Frame, t: u32) {
    let w = frame.width();
    let h = frame.height();
    let pan = (video.spec.camera_pan * t as f64) as i64;
    let seed = video.spec.seed;
    let yplane = frame.plane_mut(Plane::Y);
    for y in 0..h as usize {
        let row = y * w as usize;
        for x in 0..w as usize {
            let wx = ((x as i128 + pan as i128).rem_euclid(65) / 5) as u64;
            let wy = ((y % 65) / 5) as u64;
            let grad = (40 + (x * 30) / w as usize + (y * 50) / h as usize) as u64;
            let noise = splitmix(seed ^ (wx << 32) ^ (wy << 8)) % 36;
            yplane[row + x] = (grad + noise + 40) as u8;
        }
    }
    let (cw, ch) = (w / 2, h / 2);
    let uplane = frame.plane_mut(Plane::U);
    for y in 0..ch as usize {
        for x in 0..cw as usize {
            let wx = ((x as i128 + (pan / 2) as i128).rem_euclid(33) / 3) as u64;
            uplane[y * cw as usize + x] =
                (118 + splitmix(seed ^ 0xAA ^ (wx << 24) ^ ((y % 33 / 3) as u64)) % 14) as u8;
        }
    }
    let vplane = frame.plane_mut(Plane::V);
    for y in 0..ch as usize {
        for x in 0..cw as usize {
            let wx = ((x as i128 + (pan / 2) as i128).rem_euclid(33) / 3) as u64;
            vplane[y * cw as usize + x] =
                (118 + splitmix(seed ^ 0xBB ^ (wx << 24) ^ ((y % 33 / 3) as u64)) % 14) as u8;
        }
    }
}

fn render_object(frame: &mut Frame, obj: &SceneObject, rect: Rect) {
    let w = frame.width();
    let yplane = frame.plane_mut(Plane::Y);
    for y in rect.y..rect.bottom() {
        let row = y as usize * w as usize;
        for x in rect.x..rect.right() {
            let local = splitmix(
                obj.tex ^ (((x - rect.x) / 5) as u64) ^ ((((y - rect.y) / 5) as u64) << 20),
            );
            let stripe = if ((x - rect.x) / 5 + (y - rect.y) / 5).is_multiple_of(2) {
                25
            } else {
                0
            };
            let v = obj.base_luma as i32 + stripe + (local % 14) as i32 - 7;
            yplane[row + x as usize] = v.clamp(0, 255) as u8;
        }
    }
    let crect = Rect::new(
        rect.x / 2,
        rect.y / 2,
        rect.w.div_ceil(2),
        rect.h.div_ceil(2),
    );
    let cw = (w / 2) as usize;
    let uplane = frame.plane_mut(Plane::U);
    for y in crect.y..crect.bottom() {
        let row = y as usize * cw;
        uplane[row + crect.x as usize..row + crect.right() as usize].fill(obj.chroma_u);
    }
    let vplane = frame.plane_mut(Plane::V);
    for y in crect.y..crect.bottom() {
        let row = y as usize * cw;
        vplane[row + crect.x as usize..row + crect.right() as usize].fill(obj.chroma_v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{ObjectClass, SceneSpec};
    use proptest::prelude::*;
    use tasm_video::FrameSource;

    const CLASSES: [ObjectClass; 8] = [
        ObjectClass::Car,
        ObjectClass::Person,
        ObjectClass::Bird,
        ObjectClass::Boat,
        ObjectClass::Sheep,
        ObjectClass::Bicycle,
        ObjectClass::TrafficLight,
        ObjectClass::Food,
    ];

    /// A camera pan, pixels per frame, of one of six kinds drawn from
    /// `bits`: none, fractional (either sign), negative, large (up to ±1e19,
    /// so most such cases saturate the frame's `i64` pan by their last
    /// frame), ±1e300 and ±`f64::MAX` (saturated from frame 1 on).
    fn pan(kind: u32, bits: u64) -> f64 {
        let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
        match kind {
            0 => 0.0,
            1 => (bits % 20_001) as f64 / 1000.0 - 10.0,
            2 => -1.0 - (bits % 3_000_000) as f64 / 3.0,
            3 => ((bits % 2_001) as f64 - 1000.0) * 1e16,
            4 => sign * 1e300,
            _ => sign * f64::MAX,
        }
    }

    fn arb_spec() -> impl Strategy<Value = SceneSpec> {
        (
            (1u32..=80, 1u32..=45, 1u32..=6),
            (0u32..6, any::<u64>()),
            (10u32..=400, 0u32..3, any::<u64>()),
            proptest::collection::vec((0usize..8, 0u32..4), 0..5),
        )
            .prop_map(
                |((w, h, frames), (pan_kind, pan_bits), (scale, seed_kind, seed), objects)| {
                    SceneSpec {
                        width: 16 * w,
                        height: 16 * h,
                        fps: 30,
                        frames,
                        objects: objects.into_iter().map(|(c, n)| (CLASSES[c], n)).collect(),
                        size_scale: scale as f64 / 100.0,
                        camera_pan: pan(pan_kind, pan_bits),
                        seed: [0, u64::MAX, seed][seed_kind as usize],
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn every_frame_matches_the_per_sample_renderer(spec in arb_spec()) {
            let video = SyntheticVideo::new(spec.clone());
            for t in 0..video.len() {
                prop_assert!(video.frame(t) == frame(&video, t), "{spec:?} frame {t}");
            }
        }
    }
}
