//! A pass-through [`Vfs`] that counts what the store writes.
//!
//! Bytes written and fsyncs are counted in every run: a per-thread tally,
//! so the client thread can tell its own WAL traffic from a background
//! compaction's, plus process-wide bytes written (compaction threads
//! included). In the traced run every file operation is also timed into
//! the per-thread tally.

use cpdb_store::{Vfs, VfsFile};
use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide totals across every thread using the vfs.
#[derive(Debug, Default)]
pub struct Totals {
    pub bytes_written: AtomicU64,
}

/// One thread's I/O since its last [`take_thread_io`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadIo {
    pub bytes_written: u64,
    pub fsyncs: u64,
    /// Time in writes (traced run only).
    pub write_ns: u64,
    /// Time in fsyncs of files and directories (traced run only).
    pub fsync_ns: u64,
    /// Time in every other file operation (traced run only).
    pub other_ns: u64,
}

impl ThreadIo {
    pub fn total_ms(&self) -> f64 {
        (self.write_ns + self.fsync_ns + self.other_ns) as f64 / 1e6
    }
}

thread_local! {
    static THREAD_IO: Cell<ThreadIo> = Cell::new(ThreadIo::default());
}

/// Returns and resets the calling thread's tally.
pub fn take_thread_io() -> ThreadIo {
    THREAD_IO.with(|c| c.replace(ThreadIo::default()))
}

fn tally(f: impl FnOnce(&mut ThreadIo)) {
    THREAD_IO.with(|c| {
        let mut io = c.get();
        f(&mut io);
        c.set(io);
    });
}

#[derive(Clone, Copy)]
enum Kind {
    Write,
    Fsync,
    Other,
}

#[derive(Debug, Clone)]
struct Counting {
    timed: bool,
    totals: Arc<Totals>,
}

impl Counting {
    fn op<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        tally(|io| match kind {
            Kind::Write => io.write_ns += ns,
            Kind::Fsync => io.fsync_ns += ns,
            Kind::Other => io.other_ns += ns,
        });
        out
    }

    fn wrote(&self, bytes: usize) {
        self.totals.bytes_written.fetch_add(bytes as u64, Relaxed);
        tally(|io| io.bytes_written += bytes as u64);
    }

    fn synced(&self) {
        tally(|io| io.fsyncs += 1);
    }

    fn file(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner,
            counting: self.clone(),
        })
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counting: Counting,
}

impl CountingVfs {
    /// Wraps the production filesystem; `timed` turns on per-operation
    /// timing.
    pub fn std(timed: bool) -> (Arc<dyn Vfs>, Arc<Totals>) {
        let totals = Arc::new(Totals::default());
        let vfs = CountingVfs {
            inner: cpdb_store::std_vfs(),
            counting: Counting {
                timed,
                totals: totals.clone(),
            },
        };
        (Arc::new(vfs), totals)
    }
}

impl Vfs for CountingVfs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = self.counting.op(Kind::Other, || self.inner.open_rw(path))?;
        Ok(self.counting.file(f))
    }

    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = self
            .counting
            .op(Kind::Other, || self.inner.create_truncated(path))?;
        Ok(self.counting.file(f))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.counting.op(Kind::Other, || self.inner.read(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counting
            .op(Kind::Other, || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counting
            .op(Kind::Other, || self.inner.remove_file(path))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counting.op(Kind::Fsync, || self.inner.sync_dir(dir))?;
        self.counting.synced();
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.counting
            .op(Kind::Other, || self.inner.create_dir_all(dir))
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.counting
            .op(Kind::Other, || self.inner.read_dir_names(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.counting.op(Kind::Other, || self.inner.exists(path))
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counting: Counting,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counting
            .op(Kind::Write, || self.inner.write_all(buf))?;
        self.counting.wrote(buf.len());
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.counting.op(Kind::Fsync, || self.inner.sync_data())?;
        self.counting.synced();
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.counting.op(Kind::Fsync, || self.inner.sync_all())?;
        self.counting.synced();
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.counting.op(Kind::Other, || self.inner.set_len(len))
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        self.counting.op(Kind::Other, || self.inner.seek_end())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.counting.op(Kind::Other, || self.inner.read_all())
    }
}
