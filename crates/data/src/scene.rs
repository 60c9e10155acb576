//! Procedural scene generation.
//!
//! The paper evaluates on real and synthetic corpora (Visual Road, Netflix,
//! XIPH, MOT16, El Fuente — Table 1). None of those are redistributable
//! here, so this module generates the *geometry* those experiments depend
//! on: textured moving objects of known classes over a textured background,
//! with exact ground-truth bounding boxes per frame. Every TASM experiment
//! is driven by object coverage, sparsity, and motion — which the generator
//! controls precisely (the presets in [`crate::datasets`] map each corpus
//! to a scene).
//!
//! Rendering is deterministic and random-access: `frame(i)` is a pure
//! function of the spec and `i`, so videos never need to be buffered.
//!
//! Every hashed texture value is constant over a cell (5×5 luma, 3×3
//! chroma, 5×5 on objects), so each cell is hashed once, never each
//! sample. The background's cell values depend on the seed alone and are
//! tabled when the video is built: one 13×13 luma table and one 11×11
//! table per chroma plane, one period of the texture each. A frame maps
//! its columns, shifted by that frame's camera pan, onto the tables once,
//! and then writes each row as copies and adds. `scene/reference.rs` is a
//! per-sample renderer for tests, and the property test there holds the
//! two equal on every frame of random scenes.

use serde::{Deserialize, Serialize};
use tasm_video::{Frame, FrameSource, Plane, Rect};

#[cfg(test)]
mod reference;

/// Object classes appearing in the corpora of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Vehicles (Visual Road, MOT16, El Fuente).
    Car,
    /// Pedestrians (all datasets).
    Person,
    /// Birds (Netflix public).
    Bird,
    /// Boats (XIPH, El Fuente).
    Boat,
    /// Sheep (Netflix Open Source).
    Sheep,
    /// Bicycles (El Fuente).
    Bicycle,
    /// Traffic lights (Visual Road; rare query class in Workload 3).
    TrafficLight,
    /// Market-stall food items (El Fuente dense scenes).
    Food,
}

impl ObjectClass {
    /// The label string stored in the semantic index.
    pub fn label(&self) -> &'static str {
        match self {
            ObjectClass::Car => "car",
            ObjectClass::Person => "person",
            ObjectClass::Bird => "bird",
            ObjectClass::Boat => "boat",
            ObjectClass::Sheep => "sheep",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::TrafficLight => "traffic_light",
            ObjectClass::Food => "food",
        }
    }

    /// Characteristic size as a fraction of frame width (w, h), and speed in
    /// pixels/frame at 640-wide scale. Rough visual plausibility only.
    fn profile(&self) -> ClassProfile {
        match self {
            ObjectClass::Car => ClassProfile {
                w: 0.11,
                h: 0.07,
                speed: 2.4,
                base_luma: 150,
            },
            ObjectClass::Person => ClassProfile {
                w: 0.035,
                h: 0.095,
                speed: 0.8,
                base_luma: 110,
            },
            ObjectClass::Bird => ClassProfile {
                w: 0.05,
                h: 0.04,
                speed: 3.2,
                base_luma: 190,
            },
            ObjectClass::Boat => ClassProfile {
                w: 0.16,
                h: 0.09,
                speed: 1.0,
                base_luma: 170,
            },
            ObjectClass::Sheep => ClassProfile {
                w: 0.06,
                h: 0.05,
                speed: 0.5,
                base_luma: 210,
            },
            ObjectClass::Bicycle => ClassProfile {
                w: 0.06,
                h: 0.06,
                speed: 1.8,
                base_luma: 90,
            },
            ObjectClass::TrafficLight => ClassProfile {
                w: 0.02,
                h: 0.05,
                speed: 0.0,
                base_luma: 60,
            },
            ObjectClass::Food => ClassProfile {
                w: 0.05,
                h: 0.05,
                speed: 0.2,
                base_luma: 140,
            },
        }
    }
}

struct ClassProfile {
    w: f64,
    h: f64,
    speed: f64,
    base_luma: u8,
}

/// Specification of a synthetic scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SceneSpec {
    /// Frame width (must be a multiple of 16 for the codec).
    pub width: u32,
    /// Frame height (must be a multiple of 16).
    pub height: u32,
    /// Frames per second (metadata; affects nothing in rendering).
    pub fps: u32,
    /// Total number of frames.
    pub frames: u32,
    /// How many objects of each class populate the scene.
    pub objects: Vec<(ObjectClass, u32)>,
    /// Scales object sizes (1.0 = class defaults). Dense scenes use > 1.
    pub size_scale: f64,
    /// Horizontal camera pan in pixels/frame (breaks background
    /// subtraction, §5.2.4).
    pub camera_pan: f64,
    /// Deterministic seed for layout and texture.
    pub seed: u64,
}

/// Why a [`SceneSpec`] cannot be rendered.
#[derive(Debug, Clone, PartialEq)]
pub enum SceneError {
    /// A dimension is zero or not a multiple of 16.
    Dimensions {
        /// The spec's width.
        width: u32,
        /// The spec's height.
        height: u32,
    },
    /// The spec has no frames.
    NoFrames,
    /// `camera_pan` or `size_scale` is NaN or infinite.
    NotFinite {
        /// The field's name.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for SceneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SceneError::Dimensions { width, height } => write!(
                f,
                "scene dimensions must be non-zero multiples of 16 (codec tile alignment), \
                 got {width}x{height}"
            ),
            SceneError::NoFrames => write!(f, "scene must have at least one frame"),
            SceneError::NotFinite { field, value } => {
                write!(f, "scene {field} must be finite, got {value}")
            }
        }
    }
}

impl std::error::Error for SceneError {}

impl SceneSpec {
    /// Checks that the spec can be rendered: non-zero dimensions that are
    /// multiples of 16, at least one frame, and a finite `camera_pan` and
    /// `size_scale`. [`SyntheticVideo::new`] panics on what this rejects;
    /// a caller holding a spec it did not build (a stored `scene.json`)
    /// checks it here first.
    pub fn validate(&self) -> Result<(), SceneError> {
        let aligned = |d: u32| d > 0 && d.is_multiple_of(16);
        if !aligned(self.width) || !aligned(self.height) {
            return Err(SceneError::Dimensions {
                width: self.width,
                height: self.height,
            });
        }
        if self.frames == 0 {
            return Err(SceneError::NoFrames);
        }
        for (field, value) in [
            ("camera_pan", self.camera_pan),
            ("size_scale", self.size_scale),
        ] {
            if !value.is_finite() {
                return Err(SceneError::NotFinite { field, value });
            }
        }
        Ok(())
    }

    /// A small default scene for tests.
    pub fn test_scene() -> Self {
        SceneSpec {
            width: 128,
            height: 96,
            fps: 30,
            frames: 60,
            objects: vec![(ObjectClass::Car, 2), (ObjectClass::Person, 2)],
            size_scale: 1.0,
            camera_pan: 0.0,
            seed: 7,
        }
    }
}

/// One object instance with a deterministic closed-form trajectory.
#[derive(Debug, Clone)]
struct SceneObject {
    class: ObjectClass,
    /// Initial top-left position.
    x0: f64,
    y0: f64,
    /// Velocity in pixels/frame.
    vx: f64,
    vy: f64,
    w: u32,
    h: u32,
    /// Frames during which the object exists.
    birth: u32,
    death: u32,
    /// Texture seed.
    tex: u64,
    base_luma: u8,
    chroma_u: u8,
    chroma_v: u8,
}

impl SceneObject {
    /// Top-left position at frame `t`, bouncing off the frame edges
    /// (closed-form triangle-wave reflection, so access is O(1)).
    fn position(&self, t: u32, frame_w: u32, frame_h: u32) -> (u32, u32) {
        let dt = t.saturating_sub(self.birth) as f64;
        let x = reflect(self.x0 + self.vx * dt, (frame_w - self.w) as f64);
        let y = reflect(self.y0 + self.vy * dt, (frame_h - self.h) as f64);
        (x as u32, y as u32)
    }

    fn bbox(&self, t: u32, frame_w: u32, frame_h: u32) -> Option<Rect> {
        if t < self.birth || t >= self.death {
            return None;
        }
        let (x, y) = self.position(t, frame_w, frame_h);
        Some(Rect::new(x, y, self.w, self.h))
    }
}

/// Reflects `v` into `[0, max]` as a triangle wave (elastic bounce).
fn reflect(v: f64, max: f64) -> f64 {
    if max <= 0.0 {
        return 0.0;
    }
    let period = 2.0 * max;
    let m = v.rem_euclid(period);
    if m <= max {
        m
    } else {
        period - m
    }
}

/// SplitMix64: cheap deterministic hashing for textures and layout.
#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Uniform f64 in [0, 1) from a hash state.
#[inline]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Background luma texture: a 65-pixel period of 13 cells of 5.
const LUMA_PERIOD: usize = 65;
const LUMA_CELL: usize = 5;
const LUMA_CELLS: usize = LUMA_PERIOD / LUMA_CELL;
/// Background chroma texture: a 33-sample period of 11 cells of 3.
const CHROMA_PERIOD: usize = 33;
const CHROMA_CELL: usize = 3;
const CHROMA_CELLS: usize = CHROMA_PERIOD / CHROMA_CELL;
/// Object luma texture cell edge.
const OBJECT_CELL: usize = 5;

/// One period of the background texture, hashed per cell from the seed:
/// `[cell row][cell column]`.
struct Texture {
    /// Luma noise plus the 80 every luma sample adds (the gradient's base
    /// 40 and an offset of 40).
    luma: [[u8; LUMA_CELLS]; LUMA_CELLS],
    u: [[u8; CHROMA_CELLS]; CHROMA_CELLS],
    v: [[u8; CHROMA_CELLS]; CHROMA_CELLS],
}

impl Texture {
    fn new(seed: u64) -> Self {
        let chroma = |salt: u64| {
            std::array::from_fn(|wy| {
                std::array::from_fn(|wx| {
                    (118 + splitmix(seed ^ salt ^ ((wx as u64) << 24) ^ wy as u64) % 14) as u8
                })
            })
        };
        Texture {
            luma: std::array::from_fn(|wy| {
                std::array::from_fn(|wx| {
                    (80 + splitmix(seed ^ ((wx as u64) << 32) ^ ((wy as u64) << 8)) % 36) as u8
                })
            }),
            u: chroma(0xAA),
            v: chroma(0xBB),
        }
    }
}

/// A fully specified synthetic video: renders frames on demand and exposes
/// exact ground truth.
pub struct SyntheticVideo {
    spec: SceneSpec,
    objects: Vec<SceneObject>,
    texture: Texture,
}

impl SyntheticVideo {
    /// Instantiates the scene (places objects deterministically from the
    /// spec's seed).
    ///
    /// # Panics
    /// Panics if [`SceneSpec::validate`] rejects the spec.
    pub fn new(spec: SceneSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let mut objects = Vec::new();
        let mut n = 0u64;
        for &(class, count) in &spec.objects {
            let p = class.profile();
            for _ in 0..count {
                let s = splitmix(spec.seed ^ (0xABCD << 16) ^ n);
                n += 1;
                let speed_scale = spec.width as f64 / 640.0;
                // Per-instance size variation: real corpora mix near and far
                // objects (distant pedestrians are what YOLOv3-tiny misses,
                // §5.2.4), from 60% to 150% of the class default.
                let instance_scale = 0.6 + 0.9 * unit(splitmix(s ^ 10));
                let w = ((p.w * spec.size_scale * instance_scale * spec.width as f64) as u32)
                    .clamp(4, spec.width / 2)
                    & !1;
                let h = ((p.h * spec.size_scale * instance_scale * spec.width as f64) as u32)
                    .clamp(4, spec.height / 2)
                    & !1;
                let angle = unit(splitmix(s ^ 1)) * std::f64::consts::TAU;
                // A quarter of the objects are stationary (parked cars,
                // standing people) — queried objects that sit in the
                // *background*, the failure mode the paper observes for
                // background-subtraction-driven layouts (§5.2.4).
                let parked = unit(splitmix(s ^ 9)) < 0.25;
                let speed = if parked {
                    0.0
                } else {
                    p.speed * speed_scale * (0.6 + 0.8 * unit(splitmix(s ^ 2)))
                };
                // Most objects live for the whole video; a third appear or
                // disappear partway (new content for the encoder and for
                // incremental detection).
                let (birth, death) = match splitmix(s ^ 3) % 3 {
                    0 => (0, spec.frames),
                    1 => (0, spec.frames - spec.frames / 4),
                    _ => (spec.frames / 4, spec.frames),
                };
                objects.push(SceneObject {
                    class,
                    x0: unit(splitmix(s ^ 4)) * (spec.width.saturating_sub(w)) as f64,
                    y0: unit(splitmix(s ^ 5)) * (spec.height.saturating_sub(h)) as f64,
                    vx: speed * angle.cos(),
                    vy: speed * angle.sin() * 0.4, // mostly horizontal motion
                    w: w.max(4),
                    h: h.max(4),
                    birth,
                    death,
                    tex: splitmix(s ^ 6),
                    base_luma: p.base_luma,
                    chroma_u: (96 + (splitmix(s ^ 7) % 64)) as u8,
                    chroma_v: (96 + (splitmix(s ^ 8) % 64)) as u8,
                });
            }
        }
        SyntheticVideo {
            texture: Texture::new(spec.seed),
            spec,
            objects,
        }
    }

    /// The scene specification.
    pub fn spec(&self) -> &SceneSpec {
        &self.spec
    }

    /// Ground-truth bounding boxes on frame `t` as (label, box) pairs.
    pub fn ground_truth(&self, t: u32) -> Vec<(&'static str, Rect)> {
        self.objects
            .iter()
            .filter_map(|o| {
                o.bbox(t, self.spec.width, self.spec.height)
                    .map(|b| (o.class.label(), b))
            })
            .collect()
    }

    /// Ground truth restricted to one class.
    pub fn ground_truth_for(&self, t: u32, label: &str) -> Vec<Rect> {
        self.ground_truth(t)
            .into_iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, b)| b)
            .collect()
    }

    /// Fraction of the frame covered by objects at frame `t` (the paper's
    /// per-frame object coverage, Table 1; sparse < 20% ≤ dense, §5.2.2).
    pub fn coverage(&self, t: u32) -> f64 {
        // Approximate union by summing areas (objects rarely overlap much);
        // clamp at 1.
        let total: u64 = self.ground_truth(t).iter().map(|(_, b)| b.area()).sum();
        (total as f64 / (self.spec.width as f64 * self.spec.height as f64)).min(1.0)
    }

    /// Mean coverage over the whole video.
    pub fn mean_coverage(&self) -> f64 {
        let n = self.spec.frames;
        (0..n).map(|t| self.coverage(t)).sum::<f64>() / n as f64
    }

    /// Distinct labels present anywhere in the video.
    pub fn labels(&self) -> Vec<&'static str> {
        let mut labels: Vec<&'static str> = self.objects.iter().map(|o| o.class.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// The background of frame `t`, each plane written once. A column map
    /// of the frame's pan-shifted cells expands each texture row to a full
    /// plane row; each luma row is then one of those plus its gradient
    /// term, each chroma row a copy of one.
    fn background(&self, t: u32) -> Frame {
        let (w, h) = (self.spec.width as usize, self.spec.height as usize);
        // Saturates for a huge pan; reduced modulo each texture's period
        // before it is added to a column, so no sum can overflow.
        let pan = (self.spec.camera_pan * t as f64) as i64;
        // Luma: low-frequency gradient + a coarse texture of 5×5 cells,
        // shifted by camera pan. Texture repeats every 65px so panning is
        // seamless. The texture is piecewise-constant over its cells —
        // natural video is smooth at pixel scale, and per-pixel white noise
        // would both defeat compression and mask codec quality effects. The
        // 5-pixel cell period is deliberately coprime with the 8-pixel
        // transform blocks so texture edges rarely coincide with block
        // boundaries.
        let shift = pan.rem_euclid(LUMA_PERIOD as i64) as usize;
        let columns: Vec<(usize, u8)> = (0..w)
            .map(|x| ((x + shift) % LUMA_PERIOD / LUMA_CELL, (x * 30 / w) as u8))
            .collect();
        let rows: Vec<u8> = self
            .texture
            .luma
            .iter()
            .flat_map(|cells| columns.iter().map(|&(c, grad)| cells[c] + grad))
            .collect();
        let mut luma = Vec::with_capacity(w * h);
        for y in 0..h {
            let row = &rows[y % LUMA_PERIOD / LUMA_CELL * w..][..w];
            let grad = (y * 50 / h) as u8;
            luma.extend(row.iter().map(|&s| s + grad));
        }
        // Chroma: the same construction at half resolution and half the pan.
        let (cw, ch) = (w / 2, h / 2);
        let shift = (pan / 2).rem_euclid(CHROMA_PERIOD as i64) as usize;
        let columns: Vec<usize> = (0..cw)
            .map(|x| (x + shift) % CHROMA_PERIOD / CHROMA_CELL)
            .collect();
        let chroma = |table: &[[u8; CHROMA_CELLS]; CHROMA_CELLS]| {
            let rows: Vec<u8> = table
                .iter()
                .flat_map(|cells| columns.iter().map(|&c| cells[c]))
                .collect();
            let mut plane = Vec::with_capacity(cw * ch);
            for y in 0..ch {
                plane.extend_from_slice(&rows[y % CHROMA_PERIOD / CHROMA_CELL * cw..][..cw]);
            }
            plane
        };
        let (u, v) = (chroma(&self.texture.u), chroma(&self.texture.v));
        Frame::from_planes(w as u32, h as u32, luma, u, v).expect("planes sized from the spec")
    }
}

/// Paints `obj` over the frame at `rect`. Luma: one hash per 5×5 cell
/// fills a band of 5 rows' texture, copied into each row of the band.
/// Chroma: flat per-object colour.
fn render_object(frame: &mut Frame, obj: &SceneObject, rect: Rect) {
    let w = frame.width() as usize;
    let (x0, y0) = (rect.x as usize, rect.y as usize);
    let (rw, bottom) = (rect.w as usize, rect.bottom() as usize);
    let yplane = frame.plane_mut(Plane::Y);
    let mut band = vec![0u8; rw];
    for (ly, top) in (y0..bottom).step_by(OBJECT_CELL).enumerate() {
        // Striped texture unique to the object, so motion search has
        // something to lock onto; smooth at pixel scale.
        for (lx, cell) in band.chunks_mut(OBJECT_CELL).enumerate() {
            let local = splitmix(obj.tex ^ lx as u64 ^ ((ly as u64) << 20));
            let stripe = if (lx + ly).is_multiple_of(2) { 25 } else { 0 };
            let v = obj.base_luma as i32 + stripe + (local % 14) as i32 - 7;
            cell.fill(v.clamp(0, 255) as u8);
        }
        for y in top..(top + OBJECT_CELL).min(bottom) {
            yplane[y * w + x0..][..rw].copy_from_slice(&band);
        }
    }
    let crect = Rect::new(
        rect.x / 2,
        rect.y / 2,
        rect.w.div_ceil(2),
        rect.h.div_ceil(2),
    );
    let cw = w / 2;
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

impl FrameSource for SyntheticVideo {
    fn width(&self) -> u32 {
        self.spec.width
    }

    fn height(&self) -> u32 {
        self.spec.height
    }

    fn len(&self) -> u32 {
        self.spec.frames
    }

    fn frame(&self, idx: u32) -> Frame {
        assert!(idx < self.spec.frames, "frame {idx} out of range");
        let mut f = self.background(idx);
        for obj in &self.objects {
            if let Some(rect) = obj.bbox(idx, self.spec.width, self.spec.height) {
                render_object(&mut f, obj, rect);
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflect_triangle_wave() {
        assert_eq!(reflect(0.0, 10.0), 0.0);
        assert_eq!(reflect(7.0, 10.0), 7.0);
        assert_eq!(reflect(13.0, 10.0), 7.0); // bounced off max
        assert_eq!(reflect(20.0, 10.0), 0.0);
        assert_eq!(reflect(23.0, 10.0), 3.0);
        assert_eq!(reflect(-3.0, 10.0), 3.0); // bounced off zero
        assert_eq!(reflect(5.0, 0.0), 0.0);
    }

    #[test]
    fn rendering_is_deterministic() {
        let v1 = SyntheticVideo::new(SceneSpec::test_scene());
        let v2 = SyntheticVideo::new(SceneSpec::test_scene());
        assert_eq!(v1.frame(17), v2.frame(17));
        assert_eq!(v1.ground_truth(17), v2.ground_truth(17));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticVideo::new(SceneSpec {
            seed: 1,
            ..SceneSpec::test_scene()
        });
        let b = SyntheticVideo::new(SceneSpec {
            seed: 2,
            ..SceneSpec::test_scene()
        });
        assert_ne!(a.frame(0), b.frame(0));
    }

    #[test]
    fn ground_truth_boxes_lie_in_frame() {
        let v = SyntheticVideo::new(SceneSpec::test_scene());
        for t in 0..v.len() {
            for (label, b) in v.ground_truth(t) {
                assert!(!b.is_empty(), "{label} box empty at t={t}");
                assert!(
                    b.right() <= v.width() && b.bottom() <= v.height(),
                    "{label} box {b:?} out of frame at t={t}"
                );
            }
        }
    }

    #[test]
    fn some_objects_move_and_some_may_park() {
        // With several cars, at least one must move over 30 frames (only a
        // quarter of objects are stationary in expectation).
        let v = SyntheticVideo::new(SceneSpec {
            objects: vec![(ObjectClass::Car, 6)],
            frames: 40,
            ..SceneSpec::test_scene()
        });
        let b0 = v.ground_truth_for(0, "car");
        let b30 = v.ground_truth_for(30, "car");
        assert!(!b0.is_empty() && !b30.is_empty());
        let moved = b0.iter().zip(&b30).filter(|(a, b)| a != b).count();
        assert!(moved >= 1, "at least one car should move over 30 frames");
    }

    #[test]
    fn object_sizes_vary_between_instances() {
        let v = SyntheticVideo::new(SceneSpec {
            objects: vec![(ObjectClass::Person, 8)],
            width: 640,
            height: 352,
            ..SceneSpec::test_scene()
        });
        let areas: Vec<u64> = v.ground_truth(0).iter().map(|(_, b)| b.area()).collect();
        let min = areas.iter().min().unwrap();
        let max = areas.iter().max().unwrap();
        assert!(max > min, "instances should differ in size: {areas:?}");
    }

    #[test]
    fn objects_render_visibly() {
        let v = SyntheticVideo::new(SceneSpec {
            objects: vec![(ObjectClass::Bird, 1)],
            ..SceneSpec::test_scene()
        });
        let f = v.frame(5);
        let boxes = v.ground_truth_for(5, "bird");
        if let Some(b) = boxes.first() {
            // Bird base luma 190 stands out from the darker background.
            let cx = b.x + b.w / 2;
            let cy = b.y + b.h / 2;
            let inside = f.sample(Plane::Y, cx, cy);
            assert!(inside > 150, "object pixel {inside} should be bright");
        } else {
            panic!("bird should exist at t=5");
        }
    }

    #[test]
    fn labels_enumerates_classes() {
        let v = SyntheticVideo::new(SceneSpec::test_scene());
        assert_eq!(v.labels(), vec!["car", "person"]);
    }

    #[test]
    fn coverage_scales_with_object_count() {
        let sparse = SyntheticVideo::new(SceneSpec {
            objects: vec![(ObjectClass::Person, 1)],
            ..SceneSpec::test_scene()
        });
        let dense = SyntheticVideo::new(SceneSpec {
            objects: vec![(ObjectClass::Boat, 8)],
            size_scale: 2.0,
            ..SceneSpec::test_scene()
        });
        assert!(sparse.mean_coverage() < dense.mean_coverage());
        assert!(sparse.mean_coverage() < 0.2, "1 person should be sparse");
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn misaligned_dimensions_rejected() {
        let _ = SyntheticVideo::new(SceneSpec {
            width: 100,
            ..SceneSpec::test_scene()
        });
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn zero_width_rejected_before_object_placement() {
        let _ = SyntheticVideo::new(SceneSpec {
            width: 0,
            ..SceneSpec::test_scene()
        });
    }

    #[test]
    fn validate_names_what_cannot_be_rendered() {
        let ok = SceneSpec::test_scene();
        assert_eq!(ok.validate(), Ok(()));
        let dims = |width, height| SceneError::Dimensions { width, height };
        for (width, height) in [(0, 96), (128, 0), (0, 0), (100, 96), (128, 8)] {
            let spec = SceneSpec {
                width,
                height,
                ..ok.clone()
            };
            assert_eq!(spec.validate(), Err(dims(width, height)));
        }
        let no_frames = SceneSpec {
            frames: 0,
            ..ok.clone()
        };
        assert_eq!(no_frames.validate(), Err(SceneError::NoFrames));
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let pan = SceneSpec {
                camera_pan: value,
                ..ok.clone()
            };
            let scale = SceneSpec {
                size_scale: value,
                ..ok.clone()
            };
            for (spec, field) in [(pan, "camera_pan"), (scale, "size_scale")] {
                match spec.validate() {
                    Err(SceneError::NotFinite { field: f, value: v }) => {
                        assert_eq!(f, field);
                        assert_eq!(v.to_bits(), value.to_bits());
                    }
                    other => panic!("{field} = {value}: {other:?}"),
                }
            }
        }
    }

    /// A frame's pan saturates at `i64::MAX` pixels, and adding a column to
    /// it overflowed (a panic in debug builds). It is now reduced modulo
    /// the textures' periods first, so the frame equals that of the
    /// smallest non-negative pan with the same luma and chroma phase,
    /// `pan mod (2 · 33 · 65)`.
    #[test]
    fn huge_camera_pan_renders_without_overflow() {
        for (camera_pan, saturated) in [
            (1e19, i64::MAX),
            (1e300, i64::MAX),
            (f64::MAX, i64::MAX),
            (-1e300, i64::MIN),
        ] {
            let huge = SyntheticVideo::new(SceneSpec {
                camera_pan,
                ..SceneSpec::test_scene()
            });
            let small = SyntheticVideo::new(SceneSpec {
                camera_pan: saturated.rem_euclid(2 * 33 * 65) as f64,
                ..SceneSpec::test_scene()
            });
            assert!(huge.frame(1) == small.frame(1), "camera_pan {camera_pan}");
        }
    }
}
