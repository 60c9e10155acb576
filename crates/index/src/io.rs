//! The one filesystem shim every durable write in the process goes
//! through: tile packs and manifests (`tasm-core`), the tiered index's WAL,
//! runs and compactions ([`crate::tiered`]), and `cluster.json`
//! (`tasm-cluster`). It lives here because this is the lowest crate that
//! writes durably; `tasm-core` re-exports it and adds the deterministic
//! fault injector that the crash-point sweeps drive through it.

use std::fs;
use std::io::{self, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Suffix of the temp file an atomic replacement renames; recovery reaps it.
pub const TMP_SUFFIX: &str = ".tmp";

/// The filesystem surface of the storage layer. Every manifest, tile,
/// index and shard-map file operation goes through an implementation of
/// this trait, so tests can inject faults at any single operation and
/// production code gets durable (fsynced) writes in one place.
///
/// Mutating operations are [`StorageIo::write`], [`StorageIo::append`],
/// [`StorageIo::rename`], [`StorageIo::create_dir_all`],
/// [`StorageIo::remove_dir_all`], [`StorageIo::remove_file`] and
/// [`StorageIo::sync_dir`]; the rest only observe.
pub trait StorageIo: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Durably writes a whole file: create/truncate, write, fsync. Not
    /// atomic on its own — callers that need atomic replacement write to a
    /// temporary name and [`StorageIo::rename`] over the target.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Durably appends to a file (creating it if absent): open in append
    /// mode, write, fsync. The write-ahead log of the tiered semantic index
    /// goes through this, so fault injectors count it as mutating.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to` (replacing `to` if it exists) and
    /// makes the rename durable.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes a directory tree.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes a single file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Makes a directory's entries durable (directory fsync). Called once
    /// after a batch of [`StorageIo::write`]s and before the commit point
    /// that depends on them — per-file writes deliberately do *not* sync
    /// their parent, so batch dirent durability costs one barrier, not one
    /// per file. Counted as a mutating operation by fault injectors.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;

    /// Whether a path is a directory.
    fn is_dir(&self, path: &Path) -> bool;

    /// The entries of a directory, sorted by name (deterministic order for
    /// recovery and fault-point sweeps).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Opens a file for ranged reads — how one tile is read out of a pack,
    /// table first, without the tiles around it and from one open.
    fn open(&self, path: &Path) -> io::Result<fs::File>;
}

/// Reads exactly the bytes `range` of an open file. A range that reaches
/// past the end of the file is [`io::ErrorKind::UnexpectedEof`], found out
/// before anything is allocated for it: ranges come from tables on disk
/// (a pack's tile table, a run's restart index).
pub fn read_exact_range(file: &fs::File, range: Range<u64>) -> io::Result<Vec<u8>> {
    use std::io::{Read as _, Seek as _};
    let len = file.metadata()?.len();
    if range.end > len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("bytes {range:?} reach past the end of a {len}-byte file"),
        ));
    }
    let mut file = file;
    file.seek(io::SeekFrom::Start(range.start))?;
    let mut data = vec![0; range.end.saturating_sub(range.start) as usize];
    file.read_exact(&mut data)?;
    Ok(data)
}

/// Takes an exclusive advisory lock on `path` (created if missing): the rule
/// that decides which handle on a directory may repair it when it opens.
/// `(Some(lock), false)` when acquired, held until the file drops and
/// released by the OS when the process dies, so a `kill -9` wedges nothing;
/// `(None, true)` when another live handle, in this process or another,
/// holds it; `(None, false)` when the file cannot be created (say, a
/// read-only directory), which is no evidence of a live peer. Taken against
/// the real filesystem: it coordinates handles, it is not data I/O.
pub fn lock_owner(path: &Path) -> (Option<fs::File>, bool) {
    match fs::File::create(path) {
        Ok(f) => match f.try_lock() {
            Ok(()) => (Some(f), false),
            Err(_) => (None, true),
        },
        Err(_) => (None, false),
    }
}

/// The production [`StorageIo`]: plain filesystem calls with durability —
/// writes fsync the file before returning, renames fsync the destination's
/// parent directory so the new name survives a power cut. The only code
/// allowed to call `fs::rename` and `File::sync_all` (see `clippy.toml`).
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

#[allow(clippy::disallowed_methods)]
impl RealIo {
    /// Fsyncs a directory. A filesystem's *refusal* to fsync directories
    /// (ENOTSUP/EINVAL) is tolerated — that durability hole cannot be
    /// fixed from here — but a real I/O failure (e.g. EIO from a dying
    /// disk) must surface: the commit protocol's barriers depend on it.
    fn fsync_dir(dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            let handle = fs::File::open(dir)?;
            if let Err(e) = handle.sync_all() {
                if !matches!(
                    e.kind(),
                    io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput
                ) {
                    return Err(e);
                }
            }
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }

    /// [`RealIo::fsync_dir`] on a path's parent — what makes a rename's
    /// new name durable on POSIX.
    fn fsync_parent(path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => Self::fsync_dir(parent),
            _ => Self::fsync_dir(Path::new(".")),
        }
    }
}

#[allow(clippy::disallowed_methods)]
impl StorageIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        Self::fsync_parent(to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        Self::fsync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        Ok(entries)
    }

    fn open(&self, path: &Path) -> io::Result<fs::File> {
        fs::File::open(path)
    }
}
