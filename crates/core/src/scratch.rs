//! Unit-test stores in directories of their own, removed when the test
//! ends.

use std::ops::{Deref, DerefMut};
use std::path::PathBuf;

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
