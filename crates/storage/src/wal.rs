//! The write-ahead log: record format, framing, and crash-recovery replay.
//!
//! Protocol (standard redo logging, applied at commit):
//!
//! * every mutating representative operation appends an [`WalRecord`] before
//!   the in-memory state changes;
//! * commit appends [`WalRecord::Commit`] and syncs the disk — the
//!   transaction is durable exactly when that sync returns;
//! * recovery decodes the durable log, ignores torn/corrupt tails, and
//!   re-applies the operations of committed transactions in commit order.
//!   Under strict two-phase locking, commit order is a valid serialization,
//!   so replay reconstructs the pre-crash committed state exactly.
//!
//! Framing: `[u32 body-length][body][u32 crc32(body)]`, little-endian. A
//! record whose frame is incomplete or whose CRC fails ends the usable log.

use repdir_core::bytes::{Buf, BufMut};
use repdir_core::{GapMap, Key, UserKey, Value, Version};

use crate::crc::crc32;
use crate::simdisk::SimDisk;
use crate::state::DirState;

/// A checkpointed entry: key, version, value, and the version of the gap
/// after it.
pub type CheckpointEntry = (UserKey, Version, Value, Version);

/// One log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction began.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// Redo for `DirRepInsert(key, version, value)`.
    Insert {
        /// Owning transaction.
        txn: u64,
        /// Inserted key.
        key: Key,
        /// Version written.
        version: Version,
        /// Value written.
        value: Value,
    },
    /// Redo for `DirRepCoalesce(low, high, version)`.
    Coalesce {
        /// Owning transaction.
        txn: u64,
        /// Lower boundary.
        low: Key,
        /// Upper boundary.
        high: Key,
        /// Version assigned to the coalesced gap.
        version: Version,
    },
    /// The transaction committed; its preceding operations are durable.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// The transaction aborted; its preceding operations must be discarded.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// A full snapshot of the representative state, taken while quiesced.
    /// Replay starts from the last complete checkpoint.
    Checkpoint {
        /// Version of the gap after `LOW`.
        low_gap: Version,
        /// Every entry with its trailing-gap version.
        entries: Vec<CheckpointEntry>,
    },
    /// Sidecar record: a stale vote observed against this representative,
    /// spilled so a restarted repair driver resumes its targeted pulls
    /// instead of waiting for the fallback sweep. Ignored by [`replay`]
    /// (it carries repair evidence, not directory state); a checkpoint
    /// retires every earlier spill.
    StaleVote {
        /// Suite index of the member that voted stale.
        member: u64,
        /// The key the read asked about.
        key: Key,
        /// The version the stale member answered with.
        seen: Version,
        /// The winning version the quorum merge settled on.
        latest: Version,
    },
}

impl WalRecord {
    /// Builds a checkpoint record capturing `state`'s exact state: one
    /// ascending pass over its entries, each with its trailing-gap version,
    /// and no copy of the state.
    pub fn checkpoint_of(state: &dyn DirState) -> WalRecord {
        let mut entries: Vec<CheckpointEntry> = Vec::with_capacity(state.len());
        state.visit_range(None, None, &mut |key, version, value, gap| {
            entries.push((key.clone(), version, value.clone(), gap));
        });
        WalRecord::Checkpoint {
            low_gap: state.low_gap(),
            entries,
        }
    }
}

const TAG_BEGIN: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_COALESCE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_STALE_VOTE: u8 = 7;

const KEY_LOW: u8 = 0;
const KEY_USER: u8 = 1;
const KEY_HIGH: u8 = 2;

fn put_key(buf: &mut Vec<u8>, key: &Key) {
    match key {
        Key::Low => buf.put_u8(KEY_LOW),
        Key::User(u) => {
            buf.put_u8(KEY_USER);
            buf.put_u32_le(u.len() as u32);
            buf.put_slice(u.as_bytes());
        }
        Key::High => buf.put_u8(KEY_HIGH),
    }
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

/// Errors raised while decoding or replaying a log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// A structurally complete record had an unknown tag or malformed body.
    Malformed(String),
    /// Replay hit an operation that cannot apply (e.g. a coalesce whose
    /// boundary is missing) — the log is inconsistent.
    Inconsistent(String),
    /// A checkpoint was requested while transactions were in flight; the
    /// caller should quiesce (or retry once the active transactions drain)
    /// and ask again. Carries the number of in-flight transactions.
    CheckpointBusy(usize),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Malformed(m) => write!(f, "malformed wal record: {m}"),
            WalError::Inconsistent(m) => write!(f, "inconsistent wal: {m}"),
            WalError::CheckpointBusy(n) => write!(
                f,
                "checkpoint requires a quiesced representative ({n} transactions in flight)"
            ),
        }
    }
}

impl std::error::Error for WalError {}

fn get_key(buf: &mut &[u8]) -> Result<Key, WalError> {
    if buf.remaining() < 1 {
        return Err(WalError::Malformed("missing key tag".into()));
    }
    match buf.get_u8() {
        KEY_LOW => Ok(Key::Low),
        KEY_HIGH => Ok(Key::High),
        KEY_USER => {
            if buf.remaining() < 4 {
                return Err(WalError::Malformed("missing key length".into()));
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(WalError::Malformed("short key bytes".into()));
            }
            let bytes = buf[..len].to_vec();
            buf.advance(len);
            Ok(Key::User(UserKey::from(bytes)))
        }
        t => Err(WalError::Malformed(format!("bad key tag {t}"))),
    }
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, WalError> {
    if buf.remaining() < 4 {
        return Err(WalError::Malformed("missing length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(WalError::Malformed("short bytes".into()));
    }
    let bytes = buf[..len].to_vec();
    buf.advance(len);
    Ok(bytes)
}

/// Appends a record body (without framing) to `b`.
fn encode_body(record: &WalRecord, b: &mut Vec<u8>) {
    match record {
        WalRecord::Begin { txn } => {
            b.put_u8(TAG_BEGIN);
            b.put_u64_le(*txn);
        }
        WalRecord::Insert {
            txn,
            key,
            version,
            value,
        } => {
            b.put_u8(TAG_INSERT);
            b.put_u64_le(*txn);
            put_key(b, key);
            b.put_u64_le(version.get());
            put_bytes(b, value.as_bytes());
        }
        WalRecord::Coalesce {
            txn,
            low,
            high,
            version,
        } => {
            b.put_u8(TAG_COALESCE);
            b.put_u64_le(*txn);
            put_key(b, low);
            put_key(b, high);
            b.put_u64_le(version.get());
        }
        WalRecord::Commit { txn } => {
            b.put_u8(TAG_COMMIT);
            b.put_u64_le(*txn);
        }
        WalRecord::Abort { txn } => {
            b.put_u8(TAG_ABORT);
            b.put_u64_le(*txn);
        }
        WalRecord::Checkpoint { low_gap, entries } => {
            // The frame in one allocation: tag, low gap and count (13 B), per
            // entry two lengths and two versions (24 B) and the bytes, then
            // the CRC (4 B).
            let sized = entries
                .iter()
                .map(|(k, _, v, _)| 24 + k.len() + v.as_bytes().len());
            b.reserve_exact(13 + sized.sum::<usize>() + 4);
            b.put_u8(TAG_CHECKPOINT);
            b.put_u64_le(low_gap.get());
            b.put_u32_le(entries.len() as u32);
            for (key, version, value, gap_after) in entries {
                put_bytes(b, key.as_bytes());
                b.put_u64_le(version.get());
                put_bytes(b, value.as_bytes());
                b.put_u64_le(gap_after.get());
            }
        }
        WalRecord::StaleVote {
            member,
            key,
            seen,
            latest,
        } => {
            b.put_u8(TAG_STALE_VOTE);
            b.put_u64_le(*member);
            put_key(b, key);
            b.put_u64_le(seen.get());
            b.put_u64_le(latest.get());
        }
    }
}

fn decode_body(mut buf: &[u8]) -> Result<WalRecord, WalError> {
    if buf.remaining() < 1 {
        return Err(WalError::Malformed("empty body".into()));
    }
    let tag = buf.get_u8();
    let need_u64 = |buf: &mut &[u8]| -> Result<u64, WalError> {
        if buf.remaining() < 8 {
            Err(WalError::Malformed("missing u64".into()))
        } else {
            Ok(buf.get_u64_le())
        }
    };
    match tag {
        TAG_BEGIN => Ok(WalRecord::Begin {
            txn: need_u64(&mut buf)?,
        }),
        TAG_INSERT => {
            let txn = need_u64(&mut buf)?;
            let key = get_key(&mut buf)?;
            let version = Version::new(need_u64(&mut buf)?);
            let value = Value::from(get_bytes(&mut buf)?);
            Ok(WalRecord::Insert {
                txn,
                key,
                version,
                value,
            })
        }
        TAG_COALESCE => {
            let txn = need_u64(&mut buf)?;
            let low = get_key(&mut buf)?;
            let high = get_key(&mut buf)?;
            let version = Version::new(need_u64(&mut buf)?);
            Ok(WalRecord::Coalesce {
                txn,
                low,
                high,
                version,
            })
        }
        TAG_COMMIT => Ok(WalRecord::Commit {
            txn: need_u64(&mut buf)?,
        }),
        TAG_ABORT => Ok(WalRecord::Abort {
            txn: need_u64(&mut buf)?,
        }),
        TAG_CHECKPOINT => {
            let low_gap = Version::new(need_u64(&mut buf)?);
            if buf.remaining() < 4 {
                return Err(WalError::Malformed("missing entry count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = UserKey::from(get_bytes(&mut buf)?);
                let version = Version::new(need_u64(&mut buf)?);
                let value = Value::from(get_bytes(&mut buf)?);
                let gap_after = Version::new(need_u64(&mut buf)?);
                entries.push((key, version, value, gap_after));
            }
            Ok(WalRecord::Checkpoint { low_gap, entries })
        }
        TAG_STALE_VOTE => {
            let member = need_u64(&mut buf)?;
            let key = get_key(&mut buf)?;
            let seen = Version::new(need_u64(&mut buf)?);
            let latest = Version::new(need_u64(&mut buf)?);
            Ok(WalRecord::StaleVote {
                member,
                key,
                seen,
                latest,
            })
        }
        t => Err(WalError::Malformed(format!("unknown tag {t}"))),
    }
}

/// Encodes one framed record: length, body, CRC.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    // The body is written in place behind a length to be patched: a
    // checkpoint's frame is one buffer, allocated once, never a copy.
    let mut out = vec![0; 4];
    encode_body(record, &mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[4..]);
    out.put_u32_le(crc);
    out
}

/// Decodes as many complete, CRC-valid records as the buffer holds.
///
/// Returns the records and whether the log ended cleanly (`true`) or with a
/// torn/corrupt tail that was discarded (`false`) — the expected outcome
/// after a crash mid-append.
pub fn decode_log(mut data: &[u8]) -> (Vec<WalRecord>, bool) {
    let mut out = Vec::new();
    loop {
        if data.is_empty() {
            return (out, true);
        }
        if data.len() < 4 {
            return (out, false);
        }
        let len = u32::from_le_bytes(data[..4].try_into().expect("4 bytes")) as usize;
        if data.len() < 4 + len + 4 {
            return (out, false);
        }
        let body = &data[4..4 + len];
        let stored_crc =
            u32::from_le_bytes(data[4 + len..4 + len + 4].try_into().expect("4 bytes"));
        if crc32(body) != stored_crc {
            return (out, false);
        }
        match decode_body(body) {
            Ok(rec) => out.push(rec),
            Err(_) => return (out, false),
        }
        data = &data[4 + len + 4..];
    }
}

/// Rebuilds representative state from a decoded log: start from the last
/// checkpoint, then re-apply the operations of committed transactions in
/// commit order.
///
/// # Errors
///
/// [`WalError::Inconsistent`] if a committed operation cannot be re-applied
/// (impossible for logs produced by this crate under two-phase locking).
pub fn replay(records: &[WalRecord]) -> Result<GapMap, WalError> {
    use std::collections::HashMap;

    // Start from the last checkpoint, if any.
    let start = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint { .. }));
    let mut map = GapMap::new();
    let tail = match start {
        Some(idx) => {
            let WalRecord::Checkpoint { low_gap, entries } = &records[idx] else {
                unreachable!("rposition matched a checkpoint");
            };
            for (key, version, value, gap_after) in entries {
                map.restore_entry(key.clone(), *version, value.clone(), *gap_after);
            }
            map.set_gap_after(&Key::Low, *low_gap)
                .expect("LOW always accepts a gap version");
            &records[idx + 1..]
        }
        None => records,
    };

    // Buffer operations per transaction; apply at Commit, drop at Abort.
    let mut pending: HashMap<u64, Vec<&WalRecord>> = HashMap::new();
    for rec in tail {
        match rec {
            WalRecord::Begin { txn } => {
                pending.entry(*txn).or_default();
            }
            WalRecord::Insert { txn, .. } | WalRecord::Coalesce { txn, .. } => {
                pending.entry(*txn).or_default().push(rec);
            }
            WalRecord::Abort { txn } => {
                pending.remove(txn);
            }
            WalRecord::Commit { txn } => {
                if let Some(ops) = pending.remove(txn) {
                    for op in ops {
                        apply(&mut map, op)?;
                    }
                }
            }
            WalRecord::Checkpoint { .. } => {
                unreachable!("later checkpoints handled by rposition")
            }
            // Repair evidence, not directory state: replay skips it. The
            // replica layer re-reads these via `stale_votes_after` when it
            // reseeds its drivers.
            WalRecord::StaleVote { .. } => {}
        }
    }
    // Transactions with no commit record died with the crash: discarded.
    Ok(map)
}

/// The live stale-vote spills in a decoded log: every
/// [`WalRecord::StaleVote`] after the last checkpoint, in append order, as
/// `(member, key, seen, latest)`. A checkpoint captures converged state, so
/// it retires every earlier spill; votes spilled after it are evidence a
/// restarted repair driver should still act on.
pub fn stale_votes_after(records: &[WalRecord]) -> Vec<(u64, Key, Version, Version)> {
    let start = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint { .. }))
        .map_or(0, |idx| idx + 1);
    records[start..]
        .iter()
        .filter_map(|r| match r {
            WalRecord::StaleVote {
                member,
                key,
                seen,
                latest,
            } => Some((*member, key.clone(), *seen, *latest)),
            _ => None,
        })
        .collect()
}

fn apply(map: &mut GapMap, op: &WalRecord) -> Result<(), WalError> {
    match op {
        WalRecord::Insert {
            key,
            version,
            value,
            ..
        } => {
            map.insert(key, *version, value.clone())
                .map_err(|e| WalError::Inconsistent(format!("insert {key:?}: {e}")))?;
        }
        WalRecord::Coalesce {
            low, high, version, ..
        } => {
            map.coalesce(low, high, *version)
                .map_err(|e| WalError::Inconsistent(format!("coalesce {low:?}..{high:?}: {e}")))?;
        }
        _ => unreachable!("only operations are buffered"),
    }
    Ok(())
}

/// A write-ahead log bound to a [`SimDisk`].
#[derive(Debug)]
pub struct Wal {
    disk: std::sync::Arc<SimDisk>,
}

impl Wal {
    /// Creates a log writing to `disk`.
    pub fn new(disk: std::sync::Arc<SimDisk>) -> Self {
        Wal { disk }
    }

    /// Appends a record (not yet durable).
    pub fn append(&self, record: &WalRecord) {
        self.disk.append(&encode_record(record));
    }

    /// Makes everything appended so far durable.
    pub fn sync(&self) {
        self.disk.sync();
    }

    /// The underlying disk (for crash injection in tests).
    pub fn disk(&self) -> &std::sync::Arc<SimDisk> {
        &self.disk
    }

    /// Decodes the durable log contents.
    pub fn durable_records(&self) -> (Vec<WalRecord>, bool) {
        decode_log(&self.disk.read_all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Insert {
                txn: 1,
                key: k("a"),
                version: v(1),
                value: val("A"),
            },
            WalRecord::Coalesce {
                txn: 1,
                low: Key::Low,
                high: Key::High,
                version: v(2),
            },
            WalRecord::Commit { txn: 1 },
            WalRecord::Abort { txn: 2 },
            WalRecord::StaleVote {
                member: 2,
                key: k("stale"),
                seen: v(1),
                latest: v(9),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let framed = encode_record(&rec);
            let (decoded, clean) = decode_log(&framed);
            assert!(clean);
            assert_eq!(decoded, vec![rec]);
        }
    }

    #[test]
    fn checkpoint_round_trips_exact_state() {
        let mut m = GapMap::new();
        m.insert(&k("a"), v(1), val("A")).unwrap();
        m.insert(&k("c"), v(3), val("C")).unwrap();
        m.coalesce(&k("a"), &k("c"), v(7)).unwrap();
        let rec = WalRecord::checkpoint_of(&m);
        let framed = encode_record(&rec);
        let (decoded, clean) = decode_log(&framed);
        assert!(clean);
        let rebuilt = replay(&decoded).unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn checkpoint_construction_is_linear_in_the_entries() {
        // Best of three builds at 4,096 and at 32,768 entries: linear work
        // is ~8x, a search per gap ~64x; 16 leaves room for a noisy host.
        fn best_build_of(entries: u64) -> std::time::Duration {
            let mut m = GapMap::new();
            for i in 0..entries {
                let key = Key::User(UserKey::from_u64(i));
                m.insert(&key, v(i + 1), val("v")).unwrap();
            }
            let build = || {
                let start = std::time::Instant::now();
                let rec = WalRecord::checkpoint_of(&m);
                let took = start.elapsed();
                assert!(matches!(&rec, WalRecord::Checkpoint { entries: e, .. }
                    if e.len() as u64 == entries));
                took
            };
            (0..3).map(|_| build()).min().expect("three builds")
        }
        let (small, large) = (best_build_of(4_096), best_build_of(32_768));
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(
            ratio < 16.0,
            "{small:?} at 4,096 entries, {large:?} at 32,768: {ratio:.1}x"
        );
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut log = Vec::new();
        for rec in sample_records() {
            log.extend(encode_record(&rec));
        }
        let full_len = log.len();
        // Frame boundaries: a cut landing exactly on one decodes clean (it
        // is indistinguishable from a shorter log); any other cut must be
        // reported torn. Either way only a prefix of records is returned.
        let mut boundaries = vec![0usize];
        {
            let mut off = 0;
            for rec in sample_records() {
                off += encode_record(&rec).len();
                boundaries.push(off);
            }
        }
        for cut in 1..full_len {
            let kept = full_len - cut;
            let (records, clean) = decode_log(&log[..kept]);
            let boundary = boundaries.iter().position(|&b| b == kept);
            match boundary {
                Some(n_records) => {
                    assert!(clean, "cut at boundary {kept} should decode clean");
                    assert_eq!(records.len(), n_records);
                }
                None => {
                    assert!(!clean, "mid-record cut at {kept} must be torn");
                    assert!(records.len() < sample_records().len());
                }
            }
        }
    }

    #[test]
    fn corrupt_record_stops_decode() {
        let mut log = encode_record(&WalRecord::Begin { txn: 1 });
        let second = encode_record(&WalRecord::Commit { txn: 1 });
        let offset = log.len() + 6; // inside the second record's body
        log.extend(second);
        log[offset] ^= 0xFF;
        let (records, clean) = decode_log(&log);
        assert_eq!(records, vec![WalRecord::Begin { txn: 1 }]);
        assert!(!clean);
    }

    #[test]
    fn replay_applies_committed_only() {
        let records = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Insert {
                txn: 1,
                key: k("a"),
                version: v(1),
                value: val("A"),
            },
            WalRecord::Commit { txn: 1 },
            WalRecord::Begin { txn: 2 },
            WalRecord::Insert {
                txn: 2,
                key: k("b"),
                version: v(1),
                value: val("B"),
            },
            // txn 2 never commits (crashed mid-flight).
            WalRecord::Begin { txn: 3 },
            WalRecord::Insert {
                txn: 3,
                key: k("c"),
                version: v(1),
                value: val("C"),
            },
            WalRecord::Abort { txn: 3 },
        ];
        let map = replay(&records).unwrap();
        assert!(map.lookup(&k("a")).is_present());
        assert!(!map.lookup(&k("b")).is_present());
        assert!(!map.lookup(&k("c")).is_present());
    }

    #[test]
    fn replay_interleaved_transactions_in_commit_order() {
        // txn 2 commits before txn 1 even though it began later; replay
        // must apply txn 2's ops first.
        let records = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Begin { txn: 2 },
            WalRecord::Insert {
                txn: 2,
                key: k("x"),
                version: v(1),
                value: val("X1"),
            },
            WalRecord::Commit { txn: 2 },
            WalRecord::Insert {
                txn: 1,
                key: k("x"),
                version: v(2),
                value: val("X2"),
            },
            WalRecord::Commit { txn: 1 },
        ];
        let map = replay(&records).unwrap();
        let r = map.lookup(&k("x"));
        assert_eq!(r.version(), v(2));
        assert_eq!(r.value(), Some(&val("X2")));
    }

    #[test]
    fn replay_starts_from_last_checkpoint() {
        let mut m = GapMap::new();
        m.insert(&k("base"), v(5), val("B")).unwrap();
        let records = vec![
            // A stale record before the checkpoint must be ignored.
            WalRecord::Begin { txn: 1 },
            WalRecord::Insert {
                txn: 1,
                key: k("stale"),
                version: v(1),
                value: val("S"),
            },
            WalRecord::Commit { txn: 1 },
            WalRecord::checkpoint_of(&m),
            WalRecord::Begin { txn: 2 },
            WalRecord::Insert {
                txn: 2,
                key: k("new"),
                version: v(1),
                value: val("N"),
            },
            WalRecord::Commit { txn: 2 },
        ];
        let map = replay(&records).unwrap();
        assert!(!map.lookup(&k("stale")).is_present());
        assert!(map.lookup(&k("base")).is_present());
        assert!(map.lookup(&k("new")).is_present());
    }

    #[test]
    fn stale_vote_spills_are_skipped_by_replay_and_retired_by_checkpoint() {
        let spill = |member: u64, key: &str, latest: u64| WalRecord::StaleVote {
            member,
            key: k(key),
            seen: v(0),
            latest: v(latest),
        };
        let mut m = GapMap::new();
        m.insert(&k("base"), v(5), val("B")).unwrap();
        let records = vec![
            spill(0, "retired", 3),
            WalRecord::checkpoint_of(&m),
            WalRecord::Begin { txn: 1 },
            spill(2, "a", 7),
            WalRecord::Insert {
                txn: 1,
                key: k("x"),
                version: v(6),
                value: val("X"),
            },
            WalRecord::Commit { txn: 1 },
            spill(1, "b", 9),
        ];
        // Replay ignores the sidecar records entirely.
        let map = replay(&records).unwrap();
        assert!(map.lookup(&k("base")).is_present());
        assert!(map.lookup(&k("x")).is_present());
        assert!(!map.lookup(&k("a")).is_present());
        // Only post-checkpoint spills are still live, in append order.
        let votes = stale_votes_after(&records);
        assert_eq!(
            votes,
            vec![(2, k("a"), v(0), v(7)), (1, k("b"), v(0), v(9))]
        );
    }

    #[test]
    fn replay_rejects_inconsistent_coalesce() {
        let records = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Coalesce {
                txn: 1,
                low: k("missing"),
                high: Key::High,
                version: v(1),
            },
            WalRecord::Commit { txn: 1 },
        ];
        assert!(matches!(replay(&records), Err(WalError::Inconsistent(_))));
    }

    #[test]
    fn wal_on_simdisk_survives_crash_after_commit_sync() {
        let disk = Arc::new(SimDisk::new());
        let wal = Wal::new(Arc::clone(&disk));
        wal.append(&WalRecord::Begin { txn: 1 });
        wal.append(&WalRecord::Insert {
            txn: 1,
            key: k("a"),
            version: v(1),
            value: val("A"),
        });
        wal.append(&WalRecord::Commit { txn: 1 });
        wal.sync(); // commit point

        wal.append(&WalRecord::Begin { txn: 2 });
        wal.append(&WalRecord::Insert {
            txn: 2,
            key: k("b"),
            version: v(1),
            value: val("B"),
        });
        // Crash mid-append of txn 2's commit; 3 bytes of garbage land.
        disk.crash(3);

        let (records, clean) = wal.durable_records();
        assert!(!clean);
        let map = replay(&records).unwrap();
        assert!(map.lookup(&k("a")).is_present());
        assert!(!map.lookup(&k("b")).is_present());
    }

    #[test]
    fn empty_log_replays_to_empty_map() {
        let (records, clean) = decode_log(&[]);
        assert!(clean);
        assert!(records.is_empty());
        assert!(replay(&records).unwrap().is_empty());
    }
}
