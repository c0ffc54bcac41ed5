//! Fault injection for the durability layer — **test-only hooks**.
//!
//! Crash-safety claims are only as good as the crashes they survive, so
//! the persistence layer is built to be attacked: a [`FaultPlan`] can be
//! handed to the daemon (via
//! [`PersistConfig::faults`](crate::persist::PersistConfig)) to make the
//! WAL misbehave on cue — torn writes, clean write failures, and fsync
//! failures — and the free functions corrupt files on disk the way a
//! crash or a decaying disk would (torn tails, bit flips, garbage
//! appends). Integration tests combine both: kill the daemon mid-ingest,
//! damage the log, restart, and assert the recovered window still equals
//! batch-mining the acknowledged units.
//!
//! Nothing here is compiled out in release builds — the hooks are plain
//! data consulted by the WAL writer and cost one `Option` check per
//! operation when unused — but no production code path ever constructs a
//! [`FaultPlan`].

use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What the WAL should do with one write it was asked to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteVerdict {
    /// Perform the write normally.
    Pass,
    /// Write only the first `n` bytes, then report failure — a torn
    /// write, as when the process dies or the disk fills mid-record.
    Torn(usize),
}

/// A scripted set of storage faults, shared with the WAL writer.
///
/// Cloning is cheap (the state is behind an [`Arc`]), so tests keep one
/// handle to steer faults while the daemon holds the other.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    state: Arc<FaultState>,
}

#[derive(Debug, Default)]
struct FaultState {
    /// 1-based fsync index from which every fsync fails; 0 = disabled.
    fail_fsync_from: AtomicU64,
    /// fsyncs attempted so far.
    fsyncs: AtomicU64,
    /// 1-based batch-write index to tear; 0 = disabled.
    torn_write_at: AtomicU64,
    /// Bytes to let through on the torn write.
    torn_keep_bytes: AtomicU64,
    /// 1-based batch-write index that fails cleanly; 0 = disabled.
    fail_write_at: AtomicU64,
    /// Batch writes attempted so far.
    writes: AtomicU64,
    /// Once set, every storage operation fails — the disk is "gone",
    /// so even the rollback truncation after a failed write cannot run
    /// and the torn tail survives to the next boot.
    dead: AtomicBool,
}

impl FaultPlan {
    /// A plan with no faults armed.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms an fsync failure: the `n`-th fsync (1-based) and every one
    /// after it return an error.
    pub fn fail_fsync_from(&self, n: u64) {
        self.state.fail_fsync_from.store(n.max(1), Ordering::SeqCst);
    }

    /// Arms a torn write: the `n`-th batch write (1-based) persists only
    /// its first `keep_bytes` bytes, then the storage goes dead — as if
    /// the machine lost power mid-write.
    pub fn torn_write_at(&self, n: u64, keep_bytes: u64) {
        self.state.torn_keep_bytes.store(keep_bytes, Ordering::SeqCst);
        self.state.torn_write_at.store(n.max(1), Ordering::SeqCst);
    }

    /// Arms a clean write failure: the `n`-th batch write (1-based)
    /// fails before any byte lands, and the storage stays alive, so the
    /// rollback succeeds, the log stays open and the next append reuses
    /// the sequence numbers — as when a write hits a full disk.
    pub fn fail_write_at(&self, n: u64) {
        self.state.fail_write_at.store(n.max(1), Ordering::SeqCst);
    }

    /// Whether the simulated storage has gone dead.
    pub fn is_dead(&self) -> bool {
        self.state.dead.load(Ordering::SeqCst)
    }

    fn dead_error(&self) -> io::Error {
        io::Error::other("injected fault: storage is dead")
    }

    /// Consulted before each batch write of `len` bytes.
    pub(crate) fn on_write(&self, len: usize) -> Result<WriteVerdict, io::Error> {
        if self.is_dead() {
            return Err(self.dead_error());
        }
        let n = self.state.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.state.fail_write_at.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected fault: write failed"));
        }
        let torn_at = self.state.torn_write_at.load(Ordering::SeqCst);
        if torn_at != 0 && n >= torn_at {
            self.state.dead.store(true, Ordering::SeqCst);
            let keep = self.state.torn_keep_bytes.load(Ordering::SeqCst);
            let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(len);
            return Ok(WriteVerdict::Torn(keep));
        }
        Ok(WriteVerdict::Pass)
    }

    /// Consulted before each fsync.
    pub(crate) fn on_fsync(&self) -> io::Result<()> {
        if self.is_dead() {
            return Err(self.dead_error());
        }
        let n = self.state.fsyncs.fetch_add(1, Ordering::SeqCst) + 1;
        let from = self.state.fail_fsync_from.load(Ordering::SeqCst);
        if from != 0 && n >= from {
            return Err(io::Error::other("injected fault: fsync failed"));
        }
        Ok(())
    }

    /// Consulted before truncating back a failed append.
    pub(crate) fn on_truncate(&self) -> io::Result<()> {
        if self.is_dead() {
            return Err(self.dead_error());
        }
        Ok(())
    }
}

/// Shortens `path` by `bytes` from the end — a torn tail, as left behind
/// by a crash between the length prefix landing and the payload landing.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn chop_tail(path: &Path, bytes: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    file.set_len(len.saturating_sub(bytes))?;
    file.sync_all()
}

/// Flips one bit of the byte at `offset` in `path` — silent media
/// corruption that only a checksum can catch.
///
/// # Errors
///
/// Propagates filesystem errors; `InvalidInput` when `offset` is past
/// the end of the file.
pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)?;
    // audit:allow(a1-index) reason="byte is a fixed [u8; 1]; index 0 always exists"
    byte[0] ^= 1u8.checked_shl(u32::from(bit.min(7))).unwrap_or(1);
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)?;
    file.sync_all()
}

/// Appends `bytes` of garbage to `path` — a partially-written record
/// whose length prefix never made sense.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_garbage(path: &Path, bytes: usize) -> io::Result<()> {
    let mut file = OpenOptions::new().append(true).open(path)?;
    let garbage: Vec<u8> = (0..bytes).map(|i| (i as u8) ^ 0xA5).collect();
    file.write_all(&garbage)?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_write_kills_storage() {
        let plan = FaultPlan::new();
        plan.torn_write_at(2, 5);
        assert_eq!(plan.on_write(100).unwrap(), WriteVerdict::Pass);
        assert_eq!(plan.on_write(100).unwrap(), WriteVerdict::Torn(5));
        assert!(plan.is_dead());
        assert!(plan.on_write(100).is_err());
        assert!(plan.on_fsync().is_err());
        assert!(plan.on_truncate().is_err());
    }

    #[test]
    fn failed_write_leaves_storage_alive() {
        let plan = FaultPlan::new();
        plan.fail_write_at(2);
        assert_eq!(plan.on_write(100).unwrap(), WriteVerdict::Pass);
        assert!(plan.on_write(100).is_err());
        assert!(!plan.is_dead());
        assert!(plan.on_truncate().is_ok());
        assert!(plan.on_fsync().is_ok());
        // Only the n-th write fails.
        assert_eq!(plan.on_write(100).unwrap(), WriteVerdict::Pass);
    }

    #[test]
    fn fsync_fails_from_index() {
        let plan = FaultPlan::new();
        plan.fail_fsync_from(3);
        assert!(plan.on_fsync().is_ok());
        assert!(plan.on_fsync().is_ok());
        assert!(plan.on_fsync().is_err());
        assert!(plan.on_fsync().is_err());
        // fsync failures do not kill writes.
        assert_eq!(plan.on_write(10).unwrap(), WriteVerdict::Pass);
    }

    #[test]
    fn file_corruption_helpers() {
        let dir = std::env::temp_dir().join(format!(
            "car-fault-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, [0u8; 16]).unwrap();

        chop_tail(&path, 6).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 10);

        flip_bit(&path, 3, 2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[3], 0b100);

        append_garbage(&path, 4).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 14);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
