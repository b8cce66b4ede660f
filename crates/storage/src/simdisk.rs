//! A simulated append-only disk with explicit sync barriers and crash
//! injection.
//!
//! The paper's representatives must "store critical information in a fashion
//! that recovers from failures" (§3.1). Real deployments would put the
//! write-ahead log on stable storage; for a laptop-scale reproduction we
//! simulate the one property recovery depends on — *data written before a
//! sync survives a crash, data after it may not, and the tail may be torn* —
//! so the recovery path is exercised against realistic failure shapes.

use std::fmt;

use repdir_core::sync::Mutex;

/// An append-only simulated disk.
///
/// Appended bytes sit in a volatile buffer until [`sync`](SimDisk::sync)
/// moves them to the durable region. [`crash`](SimDisk::crash) models power
/// loss: volatile bytes are lost, except for an arbitrary prefix the caller
/// chooses (hardware may have flushed part of the cache — a *torn write*).
///
/// # Examples
///
/// ```
/// use repdir_storage::SimDisk;
///
/// let disk = SimDisk::new();
/// disk.append(b"hello ");
/// disk.sync();
/// disk.append(b"world");
/// disk.crash(2); // only "wo" of the unsynced tail survived
/// assert_eq!(disk.read_all(), b"hello wo");
/// ```
pub struct SimDisk {
    inner: Mutex<DiskInner>,
}

#[derive(Default)]
struct DiskInner {
    durable: Vec<u8>,
    /// Durable bytes dropped from the front by log truncation.
    discarded: usize,
    volatile: Vec<u8>,
    syncs: u64,
    crashes: u64,
}

impl Default for SimDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl SimDisk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        SimDisk {
            inner: Mutex::new(DiskInner::default()),
        }
    }

    /// Appends bytes to the volatile buffer.
    pub fn append(&self, bytes: &[u8]) {
        self.inner.lock().volatile.extend_from_slice(bytes);
    }

    /// Flushes the volatile buffer into the durable region (an `fsync`).
    pub fn sync(&self) {
        let mut d = self.inner.lock();
        let tail = std::mem::take(&mut d.volatile);
        d.durable.extend_from_slice(&tail);
        d.syncs += 1;
    }

    /// Simulates a crash: at most `surviving_prefix` bytes of the volatile
    /// buffer reach the durable region (possibly tearing a record); the rest
    /// are lost.
    pub fn crash(&self, surviving_prefix: usize) {
        let mut d = self.inner.lock();
        let keep = surviving_prefix.min(d.volatile.len());
        let tail: Vec<u8> = d.volatile[..keep].to_vec();
        d.durable.extend_from_slice(&tail);
        d.volatile.clear();
        d.crashes += 1;
    }

    /// Drops the first `len` bytes of the durable region — log truncation.
    /// The caller must already have synced whatever makes them redundant
    /// (a checkpoint), so a crash at any point still finds a recoverable
    /// log.
    pub fn discard_prefix(&self, len: usize) {
        let mut d = self.inner.lock();
        let len = len.min(d.durable.len());
        d.durable.drain(..len);
        d.durable.shrink_to_fit();
        d.discarded += len;
    }

    /// Everything that would be readable after remounting: the durable
    /// region only.
    pub fn read_all(&self) -> Vec<u8> {
        self.inner.lock().durable.clone()
    }

    /// Bytes made durable since the disk was created — a log offset:
    /// truncation does not lower it.
    pub fn durable_len(&self) -> usize {
        let d = self.inner.lock();
        d.discarded + d.durable.len()
    }

    /// Bytes the durable region currently holds.
    pub fn retained_len(&self) -> usize {
        self.inner.lock().durable.len()
    }

    /// Bytes appended but not yet synced.
    pub fn volatile_len(&self) -> usize {
        self.inner.lock().volatile.len()
    }

    /// Number of syncs performed (the WAL's durability cost metric).
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().syncs
    }

    /// Number of crashes injected.
    pub fn crash_count(&self) -> u64 {
        self.inner.lock().crashes
    }
}

impl fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.lock();
        f.debug_struct("SimDisk")
            .field("durable", &d.durable.len())
            .field("volatile", &d.volatile.len())
            .field("syncs", &d.syncs)
            .field("crashes", &d.crashes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_data_survives_crash() {
        let disk = SimDisk::new();
        disk.append(b"abc");
        disk.sync();
        disk.append(b"def");
        disk.crash(0);
        assert_eq!(disk.read_all(), b"abc");
        assert_eq!(disk.crash_count(), 1);
    }

    #[test]
    fn torn_write_keeps_prefix() {
        let disk = SimDisk::new();
        disk.append(b"abcdef");
        disk.crash(4);
        assert_eq!(disk.read_all(), b"abcd");
    }

    #[test]
    fn crash_prefix_clamped_to_volatile_len() {
        let disk = SimDisk::new();
        disk.append(b"xy");
        disk.crash(100);
        assert_eq!(disk.read_all(), b"xy");
    }

    #[test]
    fn appends_accumulate_and_counters_track() {
        let disk = SimDisk::new();
        disk.append(b"a");
        disk.append(b"b");
        assert_eq!(disk.volatile_len(), 2);
        assert_eq!(disk.durable_len(), 0);
        disk.sync();
        assert_eq!(disk.volatile_len(), 0);
        assert_eq!(disk.durable_len(), 2);
        assert_eq!(disk.sync_count(), 1);
        disk.sync();
        assert_eq!(disk.sync_count(), 2);
        assert_eq!(disk.read_all(), b"ab");
    }

    #[test]
    fn discard_prefix_truncates_the_durable_region_only() {
        let disk = SimDisk::new();
        disk.append(b"old|new");
        disk.sync();
        disk.append(b"tail");
        disk.discard_prefix(4);
        assert_eq!(disk.read_all(), b"new");
        assert_eq!(disk.volatile_len(), 4);
        disk.discard_prefix(100);
        assert_eq!(disk.retained_len(), 0);
        assert_eq!(disk.durable_len(), 7, "an offset, not a size");
        disk.sync();
        assert_eq!(disk.read_all(), b"tail");
    }

    #[test]
    fn appends_after_crash_continue_normally() {
        let disk = SimDisk::new();
        disk.append(b"lost");
        disk.crash(0);
        disk.append(b"kept");
        disk.sync();
        assert_eq!(disk.read_all(), b"kept");
    }
}
