//! Workspace glue crate: hosts the repository-level examples (`/examples`)
//! and cross-crate integration tests (`/tests`), plus the fixture they
//! share: the test scene, stores whose directories go when they drop,
//! ingest with ground-truth detections, the one reference every pixel
//! check holds an answer to ([`Reference`]: the index's boxes, filtered,
//! cropped from frames stitched from whole-tile decodes, outside the
//! executor), region equality ([`region_diff`]), the one crash sweep
//! ([`crash`]) and the memory bounds' counting allocator ([`heap`]). See
//! the `tasm-core` crate for the library itself.

pub mod crash;
pub mod heap;
pub mod reference;

pub use reference::{Expected, Reference};

use std::borrow::Borrow;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tasm_core::{RegionPixels, Tasm, TasmConfig};
use tasm_data::{SceneSpec, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_video::{FrameSource, Plane};

/// A directory under the system temp dir, created empty and removed when
/// dropped. Whatever writes into it must close first: a store holds it in a
/// field declared after its `Tasm`, a test binds it before its stores.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `tasm-<tag>-<pid>-<n>`, numbered process-wide so two live ones never
    /// share a directory, and cleared of whatever a killed run left there.
    pub fn new(tag: &str) -> Self {
        static DIRS: AtomicUsize = AtomicUsize::new(0);
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let name = format!("tasm-{tag}-{}-{n}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        TempDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A [`Tasm`] over an in-memory index, alone in a [`TempDir`].
pub struct TestStore {
    pub tasm: Arc<Tasm>,
    /// Declared after `tasm`, so the store has closed before its directory
    /// is removed.
    pub dir: TempDir,
}

impl TestStore {
    /// Opens an empty store under `cfg`.
    pub fn open(tag: &str, cfg: TasmConfig) -> Self {
        let dir = TempDir::new(tag);
        let index = Box::new(MemoryIndex::in_memory());
        let tasm = Arc::new(Tasm::open(dir.path(), index, cfg).expect("open a test store"));
        TestStore { tasm, dir }
    }
}

impl Deref for TestStore {
    type Target = Arc<Tasm>;

    fn deref(&self) -> &Arc<Tasm> {
        &self.tasm
    }
}

/// The test scene's cars and people, `width`×`height`, `frames` long.
pub fn scene(width: u32, height: u32, frames: u32, seed: u64) -> SyntheticVideo {
    SyntheticVideo::new(SceneSpec {
        width,
        height,
        frames,
        seed,
        ..SceneSpec::test_scene()
    })
}

/// What most tests open a store with: GOPs and SOTs of 10 frames, tiles of
/// at least 32×32, one decode worker and a 64 MiB decoded-GOP cache.
pub fn config() -> TasmConfig {
    let mut cfg = TasmConfig {
        workers: 1,
        cache_bytes: 64 << 20,
        ..Default::default()
    };
    (cfg.storage.gop_len, cfg.storage.sot_frames) = (10, 10);
    (cfg.partition.min_tile_width, cfg.partition.min_tile_height) = (32, 32);
    cfg
}

/// Ingests `video` untiled as `name` and indexes its ground truth.
pub fn ingest(tasm: &Tasm, name: &str, video: &SyntheticVideo) {
    tasm.ingest(name, video, 30).expect("ingest");
    index_ground_truth(tasm, name, video);
}

/// Indexes every frame's ground-truth boxes and marks the frame
/// processed, as a detector run over the whole video would.
pub fn index_ground_truth(tasm: &Tasm, name: &str, video: &SyntheticVideo) {
    for f in 0..video.len() {
        for (label, bbox) in video.ground_truth(f) {
            tasm.add_metadata(name, label, f, bbox)
                .expect("add metadata");
        }
        tasm.mark_processed(name, f).expect("mark processed");
    }
}

/// The first difference between two region lists — count, frame, rectangle
/// or a plane's pixels — or `None` when they are bit-identical. The single
/// definition of region equality the integration tests build on.
pub fn region_diff<E: Borrow<RegionPixels>>(
    expected: &[E],
    got: &[RegionPixels],
) -> Option<String> {
    let (n, want) = (got.len(), expected.len());
    if n != want {
        return Some(format!("{n} regions, expected {want}"));
    }
    expected.iter().zip(got).find_map(|(e, g)| {
        let e = e.borrow();
        if (e.frame, e.rect) != (g.frame, g.rect) {
            return Some(format!(
                "frame {} {:?}, expected frame {} {:?}",
                g.frame, g.rect, e.frame, e.rect
            ));
        }
        let plane = Plane::ALL
            .into_iter()
            .find(|&p| e.pixels.plane(p) != g.pixels.plane(p));
        plane.map(|p| format!("pixels of frame {} plane {p:?}", e.frame))
    })
}

/// True when [`region_diff`] finds no difference.
pub fn regions_identical<E: Borrow<RegionPixels>>(expected: &[E], got: &[RegionPixels]) -> bool {
    region_diff(expected, got).is_none()
}

/// Asserts [`regions_identical`], naming the first difference and `what`.
pub fn assert_regions_identical<E: Borrow<RegionPixels>>(
    expected: &[E],
    got: &[RegionPixels],
    what: &str,
) {
    if let Some(diff) = region_diff(expected, got) {
        panic!("{what}: {diff}");
    }
}

#[cfg(test)]
mod tests {
    use super::TempDir;

    /// Two live directories of one tag are distinct, and dropping one
    /// leaves the other's files.
    #[test]
    fn temp_dirs_of_one_tag_do_not_share_a_directory() {
        let a = TempDir::new("t");
        std::fs::write(a.path().join("kept"), b"a").unwrap();
        let b = TempDir::new("t");
        assert_ne!(a.path(), b.path());
        drop(b);
        assert_eq!(std::fs::read(a.path().join("kept")).unwrap(), b"a");
    }
}
