//! Unit-test stores in directories of their own, removed when the test
//! ends.

use crate::tasm::{Tasm, TasmConfig};
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use tasm_index::{MemoryIndex, SemanticIndex};
use tasm_video::{Frame, Plane, Rect, VecFrameSource};

/// A value opened in `tasm-<name>-<pid>` under the system temp dir. The
/// directory goes once the value has dropped: fields drop in declaration
/// order.
pub(crate) struct Scratch<T> {
    value: T,
    _dir: Dir,
}

struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

impl<T> Scratch<T> {
    /// Clears whatever a killed run left at the path, then opens the value
    /// there.
    pub(crate) fn open(name: &str, open: impl FnOnce(PathBuf) -> T) -> Scratch<T> {
        let dir = std::env::temp_dir().join(format!("tasm-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir = Dir(dir);
        Scratch {
            value: open(dir.0.clone()),
            _dir: dir,
        }
    }
}

impl<T> Deref for Scratch<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl Scratch<Tasm> {
    /// A store for 128×96 test video: GOPs of 5 frames and SOTs of 10,
    /// tiles of at least 32×16, an in-memory index.
    pub(crate) fn tasm(name: &str) -> Self {
        Self::tasm_with(name, Box::new(MemoryIndex::in_memory()))
    }

    /// [`Scratch::tasm`] over `index`.
    pub(crate) fn tasm_with(name: &str, index: Box<dyn SemanticIndex + Send + Sync>) -> Self {
        let mut cfg = TasmConfig::default();
        let storage = &mut cfg.storage;
        (storage.gop_len, storage.sot_frames, storage.parallel_encode) = (5, 10, false);
        (cfg.partition.min_tile_width, cfg.partition.min_tile_height) = (32, 16);
        Scratch::open(name, |dir| Tasm::open(dir, index, cfg).unwrap())
    }
}

/// 128×96 frames of texture with a car, the box [`car_truth`] gives,
/// moving along the top.
pub(crate) fn car_source(frames: u32) -> VecFrameSource {
    VecFrameSource::new(
        (0..frames)
            .map(|i| {
                let mut f = Frame::filled(128, 96, 90, 128, 128);
                for y in 0..96 {
                    for x in 0..128 {
                        f.set_sample(Plane::Y, x, y, ((x * 5 + y * 3) % 170 + 40) as u8);
                    }
                }
                f.fill_rect(car_truth(i)[0].1, 220, 90, 170);
                f
            })
            .collect(),
    )
}

/// Where [`car_source`] draws its car.
pub(crate) fn car_truth(f: u32) -> Vec<(&'static str, Rect)> {
    vec![("car", Rect::new((f * 2) % 96, 8, 24, 16))]
}
