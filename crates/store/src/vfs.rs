//! The virtual filesystem boundary of the persistence layer.
//!
//! Every file operation `cpdb_store` performs — snapshot writes, WAL
//! appends/replays/compactions, renames, directory fsyncs, `set_len`
//! rollbacks — goes through the [`Vfs`] trait instead of calling `std::fs`
//! directly. Production code uses [`StdVfs`], a transparent pass-through to
//! the operating system (the `perf-smoke` CI gate pins its overhead on the
//! durable-apply hot path at ≤ 2% versus direct I/O). Tests use
//! [`FaultVfs`](crate::FaultVfs), a deterministic in-memory filesystem that
//! injects short writes, failed fsyncs, `ENOSPC`, read errors, torn renames,
//! and simulated power loss at chosen operation indices — so every I/O call
//! site can be driven through every failure it will ever meet in
//! production, deterministically, in milliseconds.
//!
//! The surface is the *exact* set of operations the store performs, not a
//! general filesystem API: append-oriented file handles ([`VfsFile`]),
//! whole-file reads, atomic-rename publication, and directory fsyncs. That
//! keeps fault schedules meaningful — each operation index corresponds to
//! one real durability step.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// An open file handle routed through a [`Vfs`].
///
/// The store's handles are append-oriented: bytes are written at the end,
/// `set_len` rolls a torn append back to the acknowledged prefix, and
/// `sync_data`/`sync_all` are the durability barriers. `read_all` returns
/// the full current contents (the process-coherent view, not only the
/// durable image) and leaves the handle positioned at the end.
pub trait VfsFile: Send {
    /// Writes all of `buf` at the current position (the end, for the
    /// store's append-only usage).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes file *data* to durable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes file data and metadata to durable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends with zeros) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Positions the handle at the end of the file, returning the length.
    fn seek_end(&mut self) -> io::Result<u64>;
    /// Reads the entire file from the start, leaving the handle at the end.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
}

/// The filesystem operations the persistence layer performs, abstracted so
/// tests can inject every disk fault deterministically.
///
/// Implementations must be usable from multiple threads (the WAL writer and
/// the background compactor share one instance).
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Opens `path` read/write, creating it if missing, without truncating.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates (or truncates) `path` for writing — the staging handle of an
    /// atomic tmp-file + rename publication.
    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads the entire contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory `dir`, making renames within it durable.
    /// Implementations may treat this as best-effort on platforms that
    /// cannot open directories.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// The file names (not full paths) present in `dir`.
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The production [`Vfs`]: a transparent pass-through to `std::fs`.
///
/// Directory fsync is best-effort (ignored where directories cannot be
/// opened), matching the store's pre-VFS behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

/// A shared handle to the production [`StdVfs`].
pub fn std_vfs() -> Arc<dyn Vfs> {
    Arc::new(StdVfs)
}

/// Writes `bytes` to `path` atomically and durably: the full image goes to
/// `<path>.tmp`, is fsync'd, renamed over `path`, and the parent directory
/// is fsync'd so the rename itself survives a power cut. A crash leaves
/// the old file or the new one, never a hybrid.
pub(crate) fn write_atomic(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    bytes: &[u8],
) -> Result<(), crate::StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = vfs.create_truncated(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    vfs.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        vfs.sync_dir(dir)?;
    }
    Ok(())
}

struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        self.0.seek(SeekFrom::End(0))
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.0.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.0.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
}

impl Vfs for StdVfs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Persist rename/unlink directory entries on platforms that support
        // opening directories; elsewhere the rename is already the best
        // atomicity available.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_vfs_round_trips_files() {
        let dir = std::env::temp_dir().join(format!("cpdb_vfs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        let vfs = StdVfs;

        let mut f = vfs.open_rw(&path).unwrap();
        f.write_all(b"hello world").unwrap();
        f.sync_data().unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello world");
        f.set_len(5).unwrap();
        assert_eq!(f.seek_end().unwrap(), 5);
        f.write_all(b"!").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello!");

        let renamed = dir.join("renamed.bin");
        vfs.rename(&path, &renamed).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert!(vfs.exists(&renamed));
        assert!(!vfs.exists(&path));
        assert!(vfs
            .read_dir_names(&dir)
            .unwrap()
            .contains(&"renamed.bin".to_string()));
        vfs.remove_file(&renamed).unwrap();
        assert!(!vfs.exists(&renamed));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_truncated_discards_previous_contents() {
        let dir = std::env::temp_dir().join(format!("cpdb_vfs_trunc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        std::fs::write(&path, b"old contents").unwrap();
        let mut f = StdVfs.create_truncated(&path).unwrap();
        f.write_all(b"new").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
