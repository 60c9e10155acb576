//! Dataset presets mirroring Table 1 of the paper.
//!
//! Each preset instantiates a [`SceneSpec`] whose object classes and
//! per-frame coverage band match the corresponding corpus row. Resolutions
//! are scaled down uniformly ([`RES_2K`], [`RES_4K`]) and durations are a
//! parameter of [`Dataset::build`], so experiments run on CPU.
//!
//! | Paper corpus        | Classes               | Coverage band | Character |
//! |---------------------|-----------------------|---------------|-----------|
//! | Visual Road (synth) | car, person           | 0.06–10 %     | sparse    |
//! | Netflix public      | person, car, bird     | 0.3–49 %      | mixed     |
//! | Netflix Open Source | person, car, sheep    | 25–45 %       | dense     |
//! | XIPH                | car, person, boat     | 2–59 %        | mixed     |
//! | MOT16               | car, person           | 3–36 %        | mixed     |
//! | El Fuente (scenes)  | person, car, boat, bicycle, food | 1–47 % | both |

use crate::scene::{ObjectClass, SceneSpec, SyntheticVideo};
use serde::{Deserialize, Serialize};

/// Simulated "2K" resolution (uniformly scaled from 1920×1080; multiple of 16).
pub const RES_2K: (u32, u32) = (640, 352);

/// Simulated "4K" resolution (uniformly scaled from 3840×2160).
pub const RES_4K: (u32, u32) = (1280, 704);

/// The corpora of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Visual Road synthetic traffic (2K variant): sparse cars + people.
    VisualRoad2K,
    /// Visual Road synthetic traffic (4K variant).
    VisualRoad4K,
    /// Netflix public dataset: single-subject clips (person or bird).
    NetflixPublic,
    /// Netflix Open Source content: dense scenes with people, cars, sheep.
    NetflixOpenSource,
    /// XIPH test clips: mixed density, cars/people/boats.
    Xiph,
    /// MOT16 pedestrian/vehicle tracking scenes.
    Mot16,
    /// El Fuente, sparse outdoor scene (boats on water).
    ElFuenteSparse,
    /// El Fuente, dense market scene (people, food stalls).
    ElFuenteDense,
}

impl Dataset {
    /// All presets in a stable order.
    pub const ALL: [Dataset; 8] = [
        Dataset::VisualRoad2K,
        Dataset::VisualRoad4K,
        Dataset::NetflixPublic,
        Dataset::NetflixOpenSource,
        Dataset::Xiph,
        Dataset::Mot16,
        Dataset::ElFuenteSparse,
        Dataset::ElFuenteDense,
    ];

    /// The sparse subset used where the paper evaluates on Visual Road.
    pub const SPARSE: [Dataset; 3] = [Dataset::VisualRoad2K, Dataset::VisualRoad4K, Dataset::Mot16];

    /// The dense subset used in Workloads 5–6.
    pub const DENSE: [Dataset; 3] = [
        Dataset::NetflixOpenSource,
        Dataset::ElFuenteDense,
        Dataset::Xiph,
    ];

    /// Human-readable name matching Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::VisualRoad2K => "visual-road-2k",
            Dataset::VisualRoad4K => "visual-road-4k",
            Dataset::NetflixPublic => "netflix-public",
            Dataset::NetflixOpenSource => "netflix-open-source",
            Dataset::Xiph => "xiph",
            Dataset::Mot16 => "mot16",
            Dataset::ElFuenteSparse => "el-fuente-sparse",
            Dataset::ElFuenteDense => "el-fuente-dense",
        }
    }

    /// The most frequently occurring object classes (query targets in §5.1).
    pub fn primary_labels(&self) -> &'static [&'static str] {
        match self {
            Dataset::VisualRoad2K | Dataset::VisualRoad4K => &["car", "person"],
            Dataset::NetflixPublic => &["person", "bird"],
            Dataset::NetflixOpenSource => &["person", "car", "sheep"],
            Dataset::Xiph => &["car", "person", "boat"],
            Dataset::Mot16 => &["car", "person"],
            Dataset::ElFuenteSparse => &["boat", "person"],
            Dataset::ElFuenteDense => &["person", "food"],
        }
    }

    /// Whether objects are dense (≥ 20% mean coverage) in this preset.
    pub fn is_dense(&self) -> bool {
        matches!(self, Dataset::NetflixOpenSource | Dataset::ElFuenteDense)
    }

    /// Builds the scene spec. `duration_s` is the simulated duration in
    /// seconds at 30 fps; the paper's durations (Table 1) are scaled down by
    /// the caller to fit CPU budgets.
    pub fn spec(&self, duration_s: u32, seed: u64) -> SceneSpec {
        let frames = (duration_s * 30).max(30);
        let (w, h) = self.resolution();
        let (objects, size_scale, camera_pan) = match self {
            Dataset::VisualRoad2K | Dataset::VisualRoad4K => (
                vec![
                    (ObjectClass::Car, 3),
                    (ObjectClass::Person, 3),
                    (ObjectClass::TrafficLight, 1),
                ],
                0.9,
                0.0,
            ),
            Dataset::NetflixPublic => (
                vec![(ObjectClass::Person, 1), (ObjectClass::Bird, 2)],
                1.6,
                0.0,
            ),
            Dataset::NetflixOpenSource => (
                vec![
                    (ObjectClass::Person, 9),
                    (ObjectClass::Car, 4),
                    (ObjectClass::Sheep, 7),
                ],
                2.9,
                0.1,
            ),
            Dataset::Xiph => (
                vec![
                    (ObjectClass::Car, 2),
                    (ObjectClass::Person, 2),
                    (ObjectClass::Boat, 1),
                ],
                1.4,
                0.0,
            ),
            Dataset::Mot16 => (
                vec![(ObjectClass::Person, 6), (ObjectClass::Car, 2)],
                1.0,
                0.3,
            ),
            Dataset::ElFuenteSparse => (
                vec![(ObjectClass::Boat, 2), (ObjectClass::Person, 1)],
                1.0,
                0.05,
            ),
            Dataset::ElFuenteDense => (
                vec![
                    (ObjectClass::Person, 11),
                    (ObjectClass::Food, 9),
                    (ObjectClass::Bicycle, 3),
                ],
                2.7,
                0.15,
            ),
        };
        SceneSpec {
            width: w,
            height: h,
            fps: 30,
            frames,
            objects,
            size_scale,
            camera_pan,
            seed: seed ^ (*self as u64) << 32,
        }
    }

    /// Simulated resolution of the preset.
    pub fn resolution(&self) -> (u32, u32) {
        match self {
            Dataset::VisualRoad4K | Dataset::NetflixOpenSource | Dataset::ElFuenteDense => RES_4K,
            _ => RES_2K,
        }
    }

    /// Instantiates the video.
    pub fn build(&self, duration_s: u32, seed: u64) -> SyntheticVideo {
        SyntheticVideo::new(self.spec(duration_s, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_video::FrameSource;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Dataset::ALL.len());
    }

    #[test]
    fn density_classification_matches_generated_coverage() {
        for d in Dataset::ALL {
            let v = d.build(2, 42);
            let cov = v.mean_coverage();
            if d.is_dense() {
                assert!(
                    cov >= 0.20,
                    "{}: coverage {cov:.3} should be dense",
                    d.name()
                );
            } else {
                assert!(
                    cov < 0.20,
                    "{}: coverage {cov:.3} should be sparse",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn primary_labels_exist_in_video() {
        for d in Dataset::ALL {
            let v = d.build(2, 9);
            let labels = v.labels();
            for l in d.primary_labels() {
                assert!(labels.contains(l), "{}: missing label {l}", d.name());
            }
        }
    }

    #[test]
    fn resolutions_are_codec_aligned() {
        for d in Dataset::ALL {
            let (w, h) = d.resolution();
            assert_eq!(w % 16, 0);
            assert_eq!(h % 16, 0);
        }
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = Dataset::Xiph.build(1, 5);
        let b = Dataset::Xiph.build(1, 5);
        assert_eq!(a.frame(10), b.frame(10));
    }
}
