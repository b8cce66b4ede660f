//! Wire encoding for representative RPCs.
//!
//! A compact hand-rolled binary format (length-prefixed fields,
//! little-endian integers) mirroring the write-ahead log's conventions.
//! Every request and response round-trips exactly; decoding rejects
//! malformed input rather than panicking, since bytes arrive from the
//! network, and never allocates in proportion to a length or count field
//! the frame's bytes cannot back.
//!
//! This module is also the only place a list of [`Op`]s meets the wire
//! enums: [`request_frame`] / [`request_ops`] map a request's list to its
//! frame and back, [`reply_frame`] / [`reply_list`] its replies. The empty
//! list is [`Request::Ping`], one operation goes bare, several as one
//! [`Request::Batch`].

use crate::txn::TxnId;
use repdir_core::bytes::{Buf, BufMut};
use repdir_core::{
    CoalesceOutcome, InsertOutcome, Key, LookupReply, NeighborReply, Op, RemovedEntry, RepError,
    RepResult, Reply, UserKey, Value, Version,
};
use repdir_repair::{BucketEntry, BucketView, Digest};

/// A request to a representative server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// The empty operation list: a liveness probe (quorum collection).
    Ping,
    /// Register a transaction at this representative.
    Begin(TxnId),
    /// `DirRepLookup`.
    Lookup(TxnId, Key),
    /// `DirRepPredecessor` chain (§4): key and element limit; a limit of
    /// one is the paper's single-step call.
    PredecessorChain(TxnId, Key, u32),
    /// `DirRepSuccessor` chain.
    SuccessorChain(TxnId, Key, u32),
    /// `DirRepInsert`.
    Insert(TxnId, Key, Version, Value),
    /// `DirRepCoalesce`.
    Coalesce(TxnId, Key, Key, Version),
    /// Commit the transaction and release its locks.
    Commit(TxnId),
    /// Abort the transaction, roll back, release its locks.
    Abort(TxnId),
    /// A batched scatter envelope: several data operations of one
    /// transaction in one message, answered by a [`Response::Batch`] with
    /// replies in request order, or by one [`Response::Err`] for the first
    /// that failed. Decoding refuses an empty envelope, a nested one, and
    /// one carrying anything but data operations of one transaction.
    Batch(Vec<Request>),
    /// Anti-entropy: digests of one summary-tree level. Read-only; no
    /// transaction.
    Summary {
        /// Tree level: 0 for the 16 group digests, 1 for a group's leaves.
        level: u8,
        /// Group index when `level` is 1; ignored at level 0.
        path: u8,
    },
    /// Anti-entropy: the full view of the open interval `(after, before)`
    /// — the gap above `after` and every entry strictly inside. Read-only;
    /// no transaction. Decoding refuses `after >= before`.
    PullRange {
        /// Lower end, exclusive.
        after: Key,
        /// Upper end, exclusive.
        before: Key,
    },
}

/// A response from a representative server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Ping/Begin/Commit/Abort succeeded.
    Ok,
    /// Lookup result.
    Lookup(LookupReply),
    /// Chain result.
    Chain(Vec<NeighborReply>),
    /// Insert result.
    Insert(InsertOutcome),
    /// Coalesce result.
    Coalesce(CoalesceOutcome),
    /// The operation failed.
    Err(RepError),
    /// Replies to a [`Request::Batch`], in request order.
    Batch(Vec<Response>),
    /// Summary-level digests (reply to [`Request::Summary`]).
    Summary(Vec<Digest>),
    /// An interval view (reply to [`Request::PullRange`]).
    PullRange(BucketView),
}

/// Decoding failure: the peer sent bytes this codec cannot parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type DecodeResult<T> = Result<T, DecodeError>;

fn err<T>(msg: &str) -> DecodeResult<T> {
    Err(DecodeError(msg.into()))
}

// ---- field helpers ----

fn put_key(b: &mut Vec<u8>, key: &Key) {
    match key {
        Key::Low => b.put_u8(0),
        Key::User(u) => {
            b.put_u8(1);
            b.put_u32_le(u.len() as u32);
            b.put_slice(u.as_bytes());
        }
        Key::High => b.put_u8(2),
    }
}

fn get_key(b: &mut &[u8]) -> DecodeResult<Key> {
    if b.remaining() < 1 {
        return err("missing key tag");
    }
    match b.get_u8() {
        0 => Ok(Key::Low),
        2 => Ok(Key::High),
        1 => {
            if b.remaining() < 4 {
                return err("missing key len");
            }
            let n = b.get_u32_le() as usize;
            if b.remaining() < n {
                return err("short key");
            }
            let bytes = b[..n].to_vec();
            b.advance(n);
            Ok(Key::User(UserKey::from(bytes)))
        }
        _ => err("bad key tag"),
    }
}

fn put_user_key(b: &mut Vec<u8>, key: &UserKey) {
    b.put_u32_le(key.len() as u32);
    b.put_slice(key.as_bytes());
}

fn get_user_key(b: &mut &[u8]) -> DecodeResult<UserKey> {
    if b.remaining() < 4 {
        return err("missing user-key len");
    }
    let n = b.get_u32_le() as usize;
    if b.remaining() < n {
        return err("short user key");
    }
    let bytes = b[..n].to_vec();
    b.advance(n);
    Ok(UserKey::from(bytes))
}

fn put_value(b: &mut Vec<u8>, value: &Value) {
    b.put_u32_le(value.len() as u32);
    b.put_slice(value.as_bytes());
}

fn get_value(b: &mut &[u8]) -> DecodeResult<Value> {
    if b.remaining() < 4 {
        return err("missing value len");
    }
    let n = b.get_u32_le() as usize;
    if b.remaining() < n {
        return err("short value");
    }
    // Straight into the value's shared buffer: one allocation and one copy.
    let value = Value::from(&b[..n]);
    b.advance(n);
    Ok(value)
}

fn get_u64(b: &mut &[u8]) -> DecodeResult<u64> {
    if b.remaining() < 8 {
        return err("missing u64");
    }
    Ok(b.get_u64_le())
}

fn get_u32(b: &mut &[u8]) -> DecodeResult<u32> {
    if b.remaining() < 4 {
        return err("missing u32");
    }
    Ok(b.get_u32_le())
}

fn get_u8(b: &mut &[u8]) -> DecodeResult<u8> {
    if b.remaining() < 1 {
        return err("missing u8");
    }
    Ok(b.get_u8())
}

/// Reads an element count, refusing one the remaining bytes cannot hold at
/// `min` encoded bytes an element: a count never sizes an allocation its
/// frame cannot back.
fn get_count(b: &mut &[u8], min: usize) -> DecodeResult<usize> {
    let n = get_u32(b)? as usize;
    if n > b.remaining() / min {
        return err("count exceeds the frame");
    }
    Ok(n)
}

// Smallest encodings of a count-prefixed element: a sentinel key, two
// versions and a value flag; a user key, a version, a value and a gap version
// (empty key and value); two u64s.
const MIN_NEIGHBOR: usize = 1 + 8 + 8 + 1;
const MIN_ENTRY: usize = 4 + 8 + 4 + 8;
const MIN_DIGEST: usize = 8 + 8;

// ---- requests ----

const RQ_PING: u8 = 0;
const RQ_BEGIN: u8 = 1;
const RQ_LOOKUP: u8 = 2;
// Tags 3 and 4 carried the single-step neighbour requests; they stay retired
// so a stale peer's frame is refused, never misread.
const RQ_INSERT: u8 = 5;
const RQ_COALESCE: u8 = 6;
const RQ_COMMIT: u8 = 7;
const RQ_ABORT: u8 = 8;
const RQ_PRED_CHAIN: u8 = 9;
const RQ_SUCC_CHAIN: u8 = 10;
const RQ_BATCH: u8 = 11;
const RQ_SUMMARY: u8 = 12;
// Tags 13, 14 and 15 carried the bucket pull and the snapshot frames; they
// stay retired like 3 and 4.
const RQ_PULL_RANGE: u8 = 16;

/// Encodes a request.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut b = Vec::new();
    match req {
        Request::Ping => b.put_u8(RQ_PING),
        Request::Begin(t) => {
            b.put_u8(RQ_BEGIN);
            b.put_u64_le(t.0);
        }
        Request::Lookup(t, k) => {
            b.put_u8(RQ_LOOKUP);
            b.put_u64_le(t.0);
            put_key(&mut b, k);
        }
        Request::PredecessorChain(t, k, limit) => {
            b.put_u8(RQ_PRED_CHAIN);
            b.put_u64_le(t.0);
            put_key(&mut b, k);
            b.put_u32_le(*limit);
        }
        Request::SuccessorChain(t, k, limit) => {
            b.put_u8(RQ_SUCC_CHAIN);
            b.put_u64_le(t.0);
            put_key(&mut b, k);
            b.put_u32_le(*limit);
        }
        Request::Insert(t, k, v, val) => {
            b.put_u8(RQ_INSERT);
            b.put_u64_le(t.0);
            put_key(&mut b, k);
            b.put_u64_le(v.get());
            put_value(&mut b, val);
        }
        Request::Coalesce(t, l, h, v) => {
            b.put_u8(RQ_COALESCE);
            b.put_u64_le(t.0);
            put_key(&mut b, l);
            put_key(&mut b, h);
            b.put_u64_le(v.get());
        }
        Request::Commit(t) => {
            b.put_u8(RQ_COMMIT);
            b.put_u64_le(t.0);
        }
        Request::Abort(t) => {
            b.put_u8(RQ_ABORT);
            b.put_u64_le(t.0);
        }
        Request::Batch(reqs) => {
            b.put_u8(RQ_BATCH);
            let parts: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
            b.put_slice(&repdir_net::pack_parts(&parts));
        }
        Request::Summary { level, path } => {
            b.put_u8(RQ_SUMMARY);
            b.put_u8(*level);
            b.put_u8(*path);
        }
        Request::PullRange { after, before } => {
            b.put_u8(RQ_PULL_RANGE);
            put_key(&mut b, after);
            put_key(&mut b, before);
        }
    }
    b
}

/// Decodes a request.
///
/// # Errors
///
/// [`DecodeError`] on malformed input, and on an envelope that is empty,
/// nested, or carries anything but data operations of one transaction.
pub fn decode_request(b: &[u8]) -> DecodeResult<Request> {
    let Some((&RQ_BATCH, body)) = b.split_first() else {
        return decode_bare_request(b);
    };
    let parts = decode_parts(body, decode_bare_request)?;
    if envelope_txn(&parts).is_none() {
        return err("envelope must carry data operations of one transaction");
    }
    Ok(Request::Batch(parts))
}

/// An envelope's parts, each decoded without recursion: a part that is
/// itself an envelope is refused by `decode`, so nesting costs no stack.
fn decode_parts<T>(body: &[u8], decode: fn(&[u8]) -> DecodeResult<T>) -> DecodeResult<Vec<T>> {
    let Some(parts) = repdir_net::unpack_parts(body) else {
        return err("bad batch framing");
    };
    parts.iter().map(|part| decode(part)).collect()
}

/// Decodes any request but an envelope.
fn decode_bare_request(mut b: &[u8]) -> DecodeResult<Request> {
    let b = &mut b;
    match get_u8(b)? {
        RQ_PING => Ok(Request::Ping),
        RQ_BEGIN => Ok(Request::Begin(TxnId(get_u64(b)?))),
        RQ_LOOKUP => Ok(Request::Lookup(TxnId(get_u64(b)?), get_key(b)?)),
        RQ_PRED_CHAIN => Ok(Request::PredecessorChain(
            TxnId(get_u64(b)?),
            get_key(b)?,
            get_u32(b)?,
        )),
        RQ_SUCC_CHAIN => Ok(Request::SuccessorChain(
            TxnId(get_u64(b)?),
            get_key(b)?,
            get_u32(b)?,
        )),
        RQ_INSERT => Ok(Request::Insert(
            TxnId(get_u64(b)?),
            get_key(b)?,
            Version::new(get_u64(b)?),
            get_value(b)?,
        )),
        RQ_COALESCE => Ok(Request::Coalesce(
            TxnId(get_u64(b)?),
            get_key(b)?,
            get_key(b)?,
            Version::new(get_u64(b)?),
        )),
        RQ_COMMIT => Ok(Request::Commit(TxnId(get_u64(b)?))),
        RQ_ABORT => Ok(Request::Abort(TxnId(get_u64(b)?))),
        RQ_BATCH => err("nested batch request"),
        RQ_SUMMARY => Ok(Request::Summary {
            level: get_u8(b)?,
            path: get_u8(b)?,
        }),
        RQ_PULL_RANGE => {
            let (after, before) = (get_key(b)?, get_key(b)?);
            if after >= before {
                return err("empty pull range");
            }
            Ok(Request::PullRange { after, before })
        }
        _ => err("unknown request tag"),
    }
}

// ---- responses ----

const RS_OK: u8 = 0;
const RS_LOOKUP_PRESENT: u8 = 1;
const RS_LOOKUP_ABSENT: u8 = 2;
// Tag 3 carried the single-step neighbour reply; retired with its requests.
const RS_INSERT_CREATED: u8 = 4;
const RS_INSERT_UPDATED: u8 = 5;
const RS_COALESCE: u8 = 6;
const RS_ERR: u8 = 7;
const RS_CHAIN: u8 = 8;
const RS_BATCH: u8 = 9;
const RS_SUMMARY: u8 = 10;
// Tags 11, 12 and 13 carried the bucket and snapshot replies; retired with
// their requests.
const RS_PULL_RANGE: u8 = 14;

const ERR_NO_BOUNDARY: u8 = 0;
const ERR_SENTINEL: u8 = 1;
const ERR_RANGE: u8 = 2;
const ERR_UNAVAILABLE: u8 = 3;
const ERR_LOCK_TIMEOUT: u8 = 4;
const ERR_DEADLOCK: u8 = 5;
const ERR_TXN_ABORTED: u8 = 6;
const ERR_STORAGE: u8 = 7;

fn put_rep_error(b: &mut Vec<u8>, e: &RepError) {
    match e {
        RepError::NoSuchBoundary { key } => {
            b.put_u8(ERR_NO_BOUNDARY);
            put_key(b, key);
        }
        RepError::SentinelViolation { key, op } => {
            b.put_u8(ERR_SENTINEL);
            put_key(b, key);
            put_value(b, &Value::from(op.as_bytes()));
        }
        RepError::InvalidRange { low, high } => {
            b.put_u8(ERR_RANGE);
            put_key(b, low);
            put_key(b, high);
        }
        RepError::Unavailable => b.put_u8(ERR_UNAVAILABLE),
        RepError::LockTimeout => b.put_u8(ERR_LOCK_TIMEOUT),
        RepError::Deadlock => b.put_u8(ERR_DEADLOCK),
        RepError::TransactionAborted => b.put_u8(ERR_TXN_ABORTED),
        RepError::Storage(msg) => {
            b.put_u8(ERR_STORAGE);
            put_value(b, &Value::from(msg.as_bytes()));
        }
        _ => b.put_u8(ERR_UNAVAILABLE),
    }
}

/// Static operation names, restored when decoding `SentinelViolation` (the
/// in-memory type carries `&'static str`).
fn intern_op(op: &[u8]) -> &'static str {
    match op {
        b"insert" => "insert",
        b"predecessor" => "predecessor",
        b"successor" => "successor",
        b"set_gap_after" => "set_gap_after",
        _ => "operation",
    }
}

fn get_rep_error(b: &mut &[u8]) -> DecodeResult<RepError> {
    match get_u8(b)? {
        ERR_NO_BOUNDARY => Ok(RepError::NoSuchBoundary { key: get_key(b)? }),
        ERR_SENTINEL => {
            let key = get_key(b)?;
            let op = get_value(b)?;
            Ok(RepError::SentinelViolation {
                key,
                op: intern_op(op.as_bytes()),
            })
        }
        ERR_RANGE => Ok(RepError::InvalidRange {
            low: get_key(b)?,
            high: get_key(b)?,
        }),
        ERR_UNAVAILABLE => Ok(RepError::Unavailable),
        ERR_LOCK_TIMEOUT => Ok(RepError::LockTimeout),
        ERR_DEADLOCK => Ok(RepError::Deadlock),
        ERR_TXN_ABORTED => Ok(RepError::TransactionAborted),
        ERR_STORAGE => {
            let msg = get_value(b)?;
            Ok(RepError::Storage(
                String::from_utf8_lossy(msg.as_bytes()).into_owned(),
            ))
        }
        _ => err("unknown error tag"),
    }
}

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut b = Vec::new();
    match resp {
        Response::Ok => b.put_u8(RS_OK),
        Response::Lookup(LookupReply::Present { version, value }) => {
            b.put_u8(RS_LOOKUP_PRESENT);
            b.put_u64_le(version.get());
            put_value(&mut b, value);
        }
        Response::Lookup(LookupReply::Absent { gap_version }) => {
            b.put_u8(RS_LOOKUP_ABSENT);
            b.put_u64_le(gap_version.get());
        }
        Response::Chain(chain) => {
            b.put_u8(RS_CHAIN);
            b.put_u32_le(chain.len() as u32);
            for n in chain {
                put_key(&mut b, &n.key);
                b.put_u64_le(n.entry_version.get());
                b.put_u64_le(n.gap_version.get());
                match &n.value {
                    None => b.put_u8(0),
                    Some(value) => {
                        b.put_u8(1);
                        put_value(&mut b, value);
                    }
                }
            }
        }
        Response::Insert(InsertOutcome::Created { split_gap_version }) => {
            b.put_u8(RS_INSERT_CREATED);
            b.put_u64_le(split_gap_version.get());
        }
        Response::Insert(InsertOutcome::Updated {
            old_version,
            old_value,
        }) => {
            b.put_u8(RS_INSERT_UPDATED);
            b.put_u64_le(old_version.get());
            put_value(&mut b, old_value);
        }
        Response::Coalesce(out) => {
            b.put_u8(RS_COALESCE);
            b.put_u64_le(out.old_gap_version.get());
            b.put_u32_le(out.removed.len() as u32);
            for r in &out.removed {
                put_user_key(&mut b, &r.key);
                b.put_u64_le(r.version.get());
                put_value(&mut b, &r.value);
                b.put_u64_le(r.gap_after.get());
            }
        }
        Response::Err(e) => {
            b.put_u8(RS_ERR);
            put_rep_error(&mut b, e);
        }
        Response::Batch(resps) => {
            b.put_u8(RS_BATCH);
            let parts: Vec<Vec<u8>> = resps.iter().map(encode_response).collect();
            b.put_slice(&repdir_net::pack_parts(&parts));
        }
        Response::Summary(digests) => {
            b.put_u8(RS_SUMMARY);
            b.put_u32_le(digests.len() as u32);
            for d in digests {
                b.put_u64_le(d.hash);
                b.put_u64_le(d.count);
            }
        }
        Response::PullRange(view) => {
            b.put_u8(RS_PULL_RANGE);
            b.put_u64_le(view.lead_gap.get());
            b.put_u32_le(view.entries.len() as u32);
            for e in &view.entries {
                put_user_key(&mut b, &e.key);
                b.put_u64_le(e.version.get());
                put_value(&mut b, &e.value);
                b.put_u64_le(e.gap_after.get());
            }
        }
    }
    b
}

/// Decodes a response.
///
/// # Errors
///
/// [`DecodeError`] on malformed input.
pub fn decode_response(b: &[u8]) -> DecodeResult<Response> {
    let Some((&RS_BATCH, body)) = b.split_first() else {
        return decode_bare_response(b);
    };
    decode_parts(body, decode_bare_response).map(Response::Batch)
}

/// Decodes any response but an envelope's.
fn decode_bare_response(mut b: &[u8]) -> DecodeResult<Response> {
    let b = &mut b;
    match get_u8(b)? {
        RS_OK => Ok(Response::Ok),
        RS_LOOKUP_PRESENT => Ok(Response::Lookup(LookupReply::Present {
            version: Version::new(get_u64(b)?),
            value: get_value(b)?,
        })),
        RS_LOOKUP_ABSENT => Ok(Response::Lookup(LookupReply::Absent {
            gap_version: Version::new(get_u64(b)?),
        })),
        RS_CHAIN => {
            let n = get_count(b, MIN_NEIGHBOR)?;
            let mut chain = Vec::with_capacity(n);
            for _ in 0..n {
                chain.push(NeighborReply {
                    key: get_key(b)?,
                    entry_version: Version::new(get_u64(b)?),
                    gap_version: Version::new(get_u64(b)?),
                    value: match get_u8(b)? {
                        0 => None,
                        1 => Some(get_value(b)?),
                        _ => return err("bad value flag"),
                    },
                });
            }
            Ok(Response::Chain(chain))
        }
        RS_INSERT_CREATED => Ok(Response::Insert(InsertOutcome::Created {
            split_gap_version: Version::new(get_u64(b)?),
        })),
        RS_INSERT_UPDATED => Ok(Response::Insert(InsertOutcome::Updated {
            old_version: Version::new(get_u64(b)?),
            old_value: get_value(b)?,
        })),
        RS_COALESCE => {
            let old_gap_version = Version::new(get_u64(b)?);
            let n = get_count(b, MIN_ENTRY)?;
            let mut removed = Vec::with_capacity(n);
            for _ in 0..n {
                removed.push(RemovedEntry {
                    key: get_user_key(b)?,
                    version: Version::new(get_u64(b)?),
                    value: get_value(b)?,
                    gap_after: Version::new(get_u64(b)?),
                });
            }
            Ok(Response::Coalesce(CoalesceOutcome {
                removed,
                old_gap_version,
            }))
        }
        RS_ERR => Ok(Response::Err(get_rep_error(b)?)),
        RS_BATCH => err("nested batch response"),
        RS_SUMMARY => {
            let n = get_count(b, MIN_DIGEST)?;
            let mut digests = Vec::with_capacity(n);
            for _ in 0..n {
                digests.push(Digest {
                    hash: get_u64(b)?,
                    count: get_u64(b)?,
                });
            }
            Ok(Response::Summary(digests))
        }
        RS_PULL_RANGE => {
            let lead_gap = Version::new(get_u64(b)?);
            let n = get_count(b, MIN_ENTRY)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(BucketEntry {
                    key: get_user_key(b)?,
                    version: Version::new(get_u64(b)?),
                    value: get_value(b)?,
                    gap_after: Version::new(get_u64(b)?),
                });
            }
            Ok(Response::PullRange(BucketView { lead_gap, entries }))
        }
        _ => err("unknown response tag"),
    }
}

// ---- operation lists ----

/// The wire frame of one request: `ops`, run for `txn`. The empty list is
/// [`Request::Ping`], one operation goes bare, several as one
/// [`Request::Batch`]. The inverse of [`request_ops`].
pub fn request_frame(txn: TxnId, ops: &[Op]) -> Request {
    // A chain limit past `u32::MAX` asks for at most that many.
    let limit = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
    let wire = |op: &Op| match op.clone() {
        Op::Lookup(key) => Request::Lookup(txn, key),
        Op::PredecessorChain(key, n) => Request::PredecessorChain(txn, key, limit(n)),
        Op::SuccessorChain(key, n) => Request::SuccessorChain(txn, key, limit(n)),
        Op::Insert(key, version, value) => Request::Insert(txn, key, version, value),
        Op::Coalesce(low, high, version) => Request::Coalesce(txn, low, high, version),
    };
    match ops {
        [] => Request::Ping,
        [op] => wire(op),
        ops => Request::Batch(ops.iter().map(wire).collect()),
    }
}

/// The operations a data frame carries and the transaction they run for:
/// the inverse of [`request_frame`]. A ping names no transaction — it runs
/// nothing, so the default id it is given is never read. Any other request
/// (transaction control, anti-entropy, a malformed envelope) is handed back
/// untouched.
///
/// # Errors
///
/// The request itself when it carries no operation list.
pub fn request_ops(req: Request) -> Result<(TxnId, Vec<Op>), Request> {
    match req {
        Request::Ping => Ok((TxnId::default(), Vec::new())),
        Request::Batch(parts) => match envelope_txn(&parts) {
            // Every part is a data operation: `envelope_txn` checked.
            Some(txn) => Ok((txn, parts.into_iter().filter_map(data_op).collect())),
            None => Err(Request::Batch(parts)),
        },
        bare => match data_txn(&bare) {
            Some(txn) => Ok((txn, data_op(bare).into_iter().collect())),
            None => Err(bare),
        },
    }
}

/// The transaction a data operation's frame names; `None` for any other
/// request.
fn data_txn(req: &Request) -> Option<TxnId> {
    match req {
        Request::Lookup(t, ..)
        | Request::PredecessorChain(t, ..)
        | Request::SuccessorChain(t, ..)
        | Request::Insert(t, ..)
        | Request::Coalesce(t, ..) => Some(*t),
        _ => None,
    }
}

/// The one transaction every part of an envelope names; `None` for an empty
/// envelope or one with a part that is not a data operation of it.
fn envelope_txn(parts: &[Request]) -> Option<TxnId> {
    let txn = data_txn(parts.first()?)?;
    parts
        .iter()
        .all(|part| data_txn(part) == Some(txn))
        .then_some(txn)
}

fn data_op(req: Request) -> Option<Op> {
    Some(match req {
        Request::Lookup(_, key) => Op::Lookup(key),
        Request::PredecessorChain(_, key, limit) => Op::PredecessorChain(key, limit as usize),
        Request::SuccessorChain(_, key, limit) => Op::SuccessorChain(key, limit as usize),
        Request::Insert(_, key, version, value) => Op::Insert(key, version, value),
        Request::Coalesce(_, low, high, version) => Op::Coalesce(low, high, version),
        _ => return None,
    })
}

/// The wire frame answering a request: its first failing operation's error
/// as one [`Response::Err`], or its replies shaped like the request — the
/// empty list as [`Response::Ok`], one reply bare, several as one
/// [`Response::Batch`]. The inverse of [`reply_list`].
pub fn reply_frame(result: RepResult<Vec<Reply>>) -> Response {
    let wire = |reply| match reply {
        Reply::Lookup(r) => Response::Lookup(r),
        Reply::Chain(c) => Response::Chain(c),
        Reply::Insert(r) => Response::Insert(r),
        Reply::Coalesce(r) => Response::Coalesce(r),
    };
    let mut parts: Vec<Response> = match result {
        Ok(replies) => replies.into_iter().map(wire).collect(),
        Err(e) => return Response::Err(e),
    };
    match parts.len() {
        0 => Response::Ok,
        1 => parts.swap_remove(0),
        _ => Response::Batch(parts),
    }
}

/// The replies a response carries for a request of `asked` operations: the
/// inverse of [`reply_frame`]. A response that is not exactly the shape of
/// `asked` replies is a protocol violation, never a silent truncation — a
/// short envelope zipped against its request would quietly drop the tail
/// operations' outcomes.
///
/// # Errors
///
/// The error the response carries, or [`RepError::Storage`] for a protocol
/// violation.
pub fn reply_list(resp: Response, asked: usize) -> RepResult<Vec<Reply>> {
    let parts = match resp {
        Response::Err(e) => return Err(e),
        Response::Ok => Vec::new(),
        Response::Batch(parts) => parts,
        bare => vec![bare],
    };
    if parts.len() != asked {
        return Err(RepError::Storage(format!(
            "protocol violation: reply arity {} for {asked} operations",
            parts.len()
        )));
    }
    parts
        .into_iter()
        .map(|part| match part {
            Response::Lookup(r) => Ok(Reply::Lookup(r)),
            Response::Chain(c) => Ok(Reply::Chain(c)),
            Response::Insert(r) => Ok(Reply::Insert(r)),
            Response::Coalesce(r) => Ok(Reply::Coalesce(r)),
            Response::Err(e) => Err(e),
            other => Err(RepError::Storage(format!(
                "protocol violation: unexpected response {other:?}"
            ))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Begin(TxnId(7)),
            Request::Lookup(TxnId(1), k("a")),
            Request::Lookup(TxnId(1), Key::Low),
            Request::PredecessorChain(TxnId(3), k("m"), 3),
            Request::SuccessorChain(TxnId(3), Key::Low, 5),
            Request::Insert(TxnId(4), k("key"), v(9), Value::from("val")),
            Request::Coalesce(TxnId(5), Key::Low, Key::High, v(3)),
            Request::Coalesce(TxnId(5), k("a"), k("z"), v(3)),
            Request::Commit(TxnId(6)),
            Request::Abort(TxnId(6)),
            Request::Batch(vec![
                Request::Lookup(TxnId(8), k("q")),
                Request::SuccessorChain(TxnId(8), k("q"), 4),
            ]),
            Request::Batch(vec![
                Request::Insert(TxnId(9), k("bulk"), v(2), Value::from("B")),
                Request::Lookup(TxnId(9), k("bulk")),
            ]),
            Request::Summary { level: 0, path: 0 },
            Request::Summary { level: 1, path: 15 },
            Request::PullRange {
                after: Key::Low,
                before: Key::High,
            },
            Request::PullRange {
                after: k(""),
                before: k("a"),
            },
            Request::PullRange {
                after: k("m"),
                before: Key::High,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Lookup(LookupReply::Present {
                version: v(4),
                value: Value::from("x"),
            }),
            Response::Lookup(LookupReply::Absent { gap_version: v(2) }),
            Response::Chain(vec![
                NeighborReply {
                    key: k("n"),
                    entry_version: v(1),
                    gap_version: v(2),
                    value: Some(Value::from("N")),
                },
                NeighborReply {
                    key: k("m"),
                    entry_version: v(3),
                    gap_version: v(1),
                    value: None,
                },
                NeighborReply {
                    key: Key::Low,
                    entry_version: v(0),
                    gap_version: v(0),
                    value: None,
                },
            ]),
            Response::Chain(vec![]),
            Response::Insert(InsertOutcome::Created {
                split_gap_version: v(2),
            }),
            Response::Insert(InsertOutcome::Updated {
                old_version: v(1),
                old_value: Value::from("old"),
            }),
            Response::Coalesce(CoalesceOutcome {
                removed: vec![
                    RemovedEntry {
                        key: UserKey::from("g1"),
                        version: v(1),
                        value: Value::from("v1"),
                        gap_after: v(0),
                    },
                    RemovedEntry {
                        key: UserKey::from("g2"),
                        version: v(2),
                        value: Value::empty(),
                        gap_after: v(3),
                    },
                ],
                old_gap_version: v(1),
            }),
            Response::Err(RepError::NoSuchBoundary { key: k("b") }),
            Response::Err(RepError::SentinelViolation {
                key: Key::Low,
                op: "insert",
            }),
            Response::Err(RepError::InvalidRange {
                low: k("z"),
                high: k("a"),
            }),
            Response::Err(RepError::Unavailable),
            Response::Err(RepError::LockTimeout),
            Response::Err(RepError::Deadlock),
            Response::Err(RepError::TransactionAborted),
            Response::Err(RepError::Storage("disk on fire".into())),
            Response::Batch(vec![]),
            Response::Batch(vec![
                Response::Lookup(LookupReply::Absent { gap_version: v(1) }),
                Response::Insert(InsertOutcome::Created {
                    split_gap_version: v(4),
                }),
                Response::Chain(vec![NeighborReply {
                    key: Key::High,
                    entry_version: v(0),
                    gap_version: v(6),
                    value: None,
                }]),
                Response::Err(RepError::Unavailable),
            ]),
            Response::Summary(vec![]),
            Response::Summary(vec![
                Digest { hash: 0, count: 0 },
                Digest {
                    hash: u64::MAX,
                    count: 12,
                },
            ]),
            Response::PullRange(BucketView {
                lead_gap: v(7),
                entries: vec![],
            }),
            Response::PullRange(BucketView {
                lead_gap: v(0),
                entries: vec![
                    BucketEntry {
                        key: UserKey::from("p1"),
                        version: v(3),
                        value: Value::from("V"),
                        gap_after: v(9),
                    },
                    BucketEntry {
                        key: UserKey::from(""),
                        version: v(1),
                        value: Value::empty(),
                        gap_after: v(0),
                    },
                ],
            }),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).unwrap();
            assert_eq!(back, resp);
        }
    }

    /// Every strict prefix and every single-byte mutation of `frame`.
    fn damaged(frame: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let prefixes = (0..frame.len()).map(|cut| frame[..cut].to_vec());
        let mutations = (0..frame.len()).flat_map(move |at| {
            (0..=u8::MAX)
                .filter(move |&byte| byte != frame[at])
                .map(move |byte| {
                    let mut mutated = frame.to_vec();
                    mutated[at] = byte;
                    mutated
                })
        });
        prefixes.chain(mutations)
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        // Any strict prefix or single-byte mutation must decode to `Ok` or
        // `Err`, never panic — a length or count field turned hostile
        // included. Some damaged frames decode to a different valid message;
        // that is acceptable for a length-delimited transport, which never
        // truncates.
        let chains = Response::Batch(vec![
            Response::Chain(vec![
                NeighborReply {
                    key: k("chain"),
                    entry_version: v(1),
                    gap_version: v(2),
                    value: None,
                };
                3
            ]);
            2
        ]);
        let carried = Response::Chain(vec![
            NeighborReply {
                key: k("small"),
                entry_version: v(1),
                gap_version: v(2),
                value: Some(Value::from("value")),
            };
            2
        ]);
        for req in sample_requests() {
            for frame in damaged(&encode_request(&req)) {
                let _ = decode_request(&frame);
            }
        }
        for resp in sample_responses().into_iter().chain([chains, carried]) {
            for frame in damaged(&encode_response(&resp)) {
                let _ = decode_response(&frame);
            }
        }
    }

    #[test]
    fn garbage_tags_rejected() {
        assert!(decode_request(&[200]).is_err());
        assert!(decode_response(&[200]).is_err());
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[]).is_err());
    }

    #[test]
    fn retired_tags_are_unknown_not_a_panic() {
        // Retired frames, as a peer from before their removal would send
        // them. Requests: the single-step neighbour calls (a lookup's
        // layout under tags 3 and 4), the bucket pull (`bucket`, tag 13),
        // the snapshot manifest (tag 14, no body) and the snapshot chunk
        // (`cursor flag | key | max`, tag 15).
        let lookup = encode_request(&Request::Lookup(TxnId(7), k("a")));
        let mut chunk = vec![15, 1];
        put_user_key(&mut chunk, &UserKey::from("cursor"));
        chunk.extend_from_slice(&512u32.to_le_bytes());
        let frames = [
            [&[3][..], &lookup[1..]].concat(),
            [&[4][..], &lookup[1..]].concat(),
            vec![13, 7],
            vec![14],
            chunk,
        ];
        for frame in frames {
            let err = decode_request(&frame).unwrap_err();
            assert!(err.0.contains("unknown request tag"), "{err}");
            let envelope = [&[RQ_BATCH][..], &repdir_net::pack_parts(&[frame])].concat();
            let err = decode_request(&envelope).unwrap_err();
            assert!(err.0.contains("unknown request tag"), "{err}");
        }
        // Responses: the neighbour reply (`key | entry version | gap
        // version`, tag 3), the bucket view (`lead gap | count`, tag 11),
        // the manifest (`hash | count | low gap`, tag 12) and the chunk
        // (`done | count`, tag 13).
        let mut neighbour = vec![3];
        put_key(&mut neighbour, &k("n"));
        neighbour.extend_from_slice(&[0; 16]);
        let replies = [
            neighbour,
            [&[11][..], &[0; 12]].concat(),
            [&[12][..], &[0; 24]].concat(),
            [&[13][..], &[1, 0, 0, 0, 0]].concat(),
        ];
        for reply in replies {
            let err = decode_response(&reply).unwrap_err();
            assert!(err.0.contains("unknown response tag"), "{err}");
        }
    }

    #[test]
    fn pull_range_with_an_empty_interval_is_refused() {
        // Encodable (the encoder trusts its caller), never decodable: the
        // representative is not asked to serve a range with no interior.
        for (after, before) in [
            (k("b"), k("a")),
            (k("a"), k("a")),
            (Key::High, Key::Low),
            (Key::High, Key::High),
            (Key::Low, Key::Low),
            (Key::High, k("a")),
        ] {
            let frame = encode_request(&Request::PullRange { after, before });
            let err = decode_request(&frame).unwrap_err();
            assert!(err.0.contains("empty pull range"), "{err}");
        }
        // A key length claiming more bytes than the frame holds is refused
        // before anything is allocated for it.
        let mut frame = vec![RQ_PULL_RANGE, 1];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&frame).is_err());
    }

    #[test]
    fn nested_batch_rejected() {
        let req = Request::Batch(vec![Request::Batch(vec![Request::Ping])]);
        let err = decode_request(&encode_request(&req)).unwrap_err();
        assert!(err.0.contains("nested"), "{err}");
        let resp = Response::Batch(vec![Response::Batch(vec![Response::Ok])]);
        let err = decode_response(&encode_response(&resp)).unwrap_err();
        assert!(err.0.contains("nested"), "{err}");
    }

    #[test]
    fn batch_with_trailing_junk_rejected() {
        let mut bytes = encode_request(&Request::Batch(vec![Request::Ping]));
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    fn arity_violation(result: RepResult<Vec<Reply>>) -> bool {
        matches!(result, Err(RepError::Storage(msg)) if msg.contains("arity"))
    }

    #[test]
    fn reply_arity_mismatch_is_an_error_not_a_truncation() {
        // A reply carrying one part for a two-operation envelope must not zip
        // silently — the dropped tail would read as "request had no outcome".
        let absent = || Response::Lookup(LookupReply::Absent { gap_version: v(1) });
        assert!(arity_violation(reply_list(
            Response::Batch(vec![absent()]),
            2
        )));
        // Extra parts are just as malformed.
        let two = Response::Batch(vec![absent(), absent()]);
        assert!(arity_violation(reply_list(two.clone(), 1)));
        assert!(arity_violation(reply_list(two.clone(), 3)));
        // The matching arity answers, as does a refusal of the whole request.
        let replies = reply_list(two, 2).unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(
            reply_list(Response::Err(RepError::Unavailable), 3),
            Err(RepError::Unavailable)
        );
    }

    #[test]
    fn reply_of_the_wrong_shape_is_an_error() {
        // A nested batch is rejected by the decode...
        let nested = encode_response(&Response::Batch(vec![Response::Batch(vec![])]));
        let err = decode_response(&nested).unwrap_err();
        assert!(err.0.contains("nested"), "{err}");
        // ...a bare `Ok` answers only the ping, a data reply only one
        // operation, and an anti-entropy reply none.
        assert!(arity_violation(reply_list(Response::Ok, 1)));
        let absent = Response::Lookup(LookupReply::Absent { gap_version: v(1) });
        assert!(arity_violation(reply_list(absent, 0)));
        assert!(reply_list(Response::Summary(vec![]), 1).is_err());
        assert!(reply_list(Response::Batch(vec![Response::Ok; 2]), 2).is_err());
    }

    #[test]
    fn envelopes_carry_data_operations_of_one_transaction() {
        let t = TxnId(3);
        let insert = |txn| Request::Insert(txn, k("a"), v(1), Value::from("A"));
        let refused = [
            vec![],
            vec![insert(t), Request::Commit(t)],
            vec![insert(t), Request::Abort(t)],
            vec![Request::Begin(t), insert(t)],
            vec![insert(t), Request::Ping],
            vec![insert(t), Request::Summary { level: 0, path: 0 }],
            vec![Request::PullRange {
                after: Key::Low,
                before: Key::High,
            }],
            vec![insert(t), Request::Lookup(TxnId(4), k("b"))],
        ];
        for parts in refused {
            let frame = encode_request(&Request::Batch(parts.clone()));
            let err = decode_request(&frame).unwrap_err();
            assert!(err.0.contains("one transaction"), "{parts:?}: {err}");
            assert!(request_ops(Request::Batch(parts)).is_err());
        }
        // The benchmark's `codec.batch64_us` shape — 64 inserts of one
        // transaction — still round-trips.
        let batch = Request::Batch(
            (0..64u64)
                .map(|i| {
                    let key = Key::User(UserKey::from_u64(i));
                    Request::Insert(TxnId(7), key, v(3), Value::from(vec![0xAB; 100]))
                })
                .collect(),
        );
        assert_eq!(decode_request(&encode_request(&batch)).unwrap(), batch);
        let (txn, ops) = request_ops(batch.clone()).unwrap();
        assert_eq!((txn, ops.len()), (TxnId(7), 64));
        assert_eq!(request_frame(txn, &ops), batch);
    }

    #[test]
    fn counts_beyond_the_frame_are_refused() {
        // Each count-prefixed reply claims a million elements in a frame
        // that holds at most one: refused before anything is reserved for
        // them.
        let million = 1_000_000u32.to_le_bytes();
        let frames = [
            [&[RS_CHAIN][..], &million, &[0; 18]].concat(),
            [&[RS_COALESCE][..], &[0; 8], &million, &[0; 24]].concat(),
            [&[RS_SUMMARY][..], &million, &[0; 16]].concat(),
            [&[RS_PULL_RANGE][..], &[0; 8], &million, &[0; 24]].concat(),
        ];
        for frame in frames {
            let err = decode_response(&frame).unwrap_err();
            assert!(err.0.contains("count exceeds"), "{err}");
            // The one element's worth of bytes decodes a count of one.
            let mut one = frame.clone();
            let count_at = match frame[0] {
                RS_COALESCE | RS_PULL_RANGE => 9,
                _ => 1,
            };
            one[count_at..count_at + 4].copy_from_slice(&1u32.to_le_bytes());
            assert!(decode_response(&one).is_ok(), "{one:?}");
        }
    }

    #[test]
    fn chain_value_flag_other_than_zero_or_one_is_refused() {
        // The flag is the element's last fixed byte: `tag | count | key tag |
        // two versions`, then the flag.
        let chain = Response::Chain(vec![NeighborReply::sentinel(Key::High, v(3))]);
        let mut frame = encode_response(&chain);
        let flag = 1 + 4 + 1 + 8 + 8;
        assert_eq!((frame.len(), frame[flag]), (flag + 1, 0));
        for bad in [2, 0xff] {
            frame[flag] = bad;
            let err = decode_response(&frame).unwrap_err();
            assert!(err.0.contains("bad value flag"), "{err}");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn list_frames_keep_their_bytes() {
        // Frames recorded from the codec as it stood before requests became
        // lists of operations: the same lists must encode to the same bytes
        // and decode back to the same lists. The chain frames are newer: each
        // element ends in a value flag, and a set flag is followed by the
        // value's length and bytes.
        let t = TxnId(7);
        let requests: [(&[Op], &str); 7] = [
            (&[], "00"),
            (&[Op::Lookup(k("a"))], "020700000000000000010100000061"),
            (
                &[Op::PredecessorChain(k("m"), 3)],
                "09070000000000000001010000006d03000000",
            ),
            (
                &[Op::SuccessorChain(Key::Low, 64)],
                "0a07000000000000000040000000",
            ),
            (
                &[Op::Insert(k("key"), v(9), Value::from("val"))],
                "05070000000000000001030000006b657909000000000000000300000076616c",
            ),
            (
                &[Op::Coalesce(k("a"), Key::High, v(3))],
                "060700000000000000010100000061020300000000000000",
            ),
            (
                &[
                    Op::Insert(k("b"), v(2), Value::from("B")),
                    Op::Lookup(k("c")),
                    Op::Coalesce(k("a"), k("d"), v(4)),
                ],
                "0b030000001c000000050700000000000000010100000062020000000000000001000000420f00\
                 00000207000000000000000101000000631d00000006070000000000000001010000006101010000\
                 00640400000000000000",
            ),
        ];
        for (ops, bytes) in requests {
            let frame = encode_request(&request_frame(t, ops));
            assert_eq!(hex(&frame), bytes, "{ops:?}");
            let (txn, back) = request_ops(decode_request(&frame).unwrap()).unwrap();
            assert_eq!(back, ops);
            assert!(ops.is_empty() || txn == t);
        }
        let replies: [(Vec<Reply>, &str); 9] = [
            (vec![], "00"),
            (
                vec![Reply::Lookup(LookupReply::Present {
                    version: v(4),
                    value: Value::from("x"),
                })],
                "0104000000000000000100000078",
            ),
            (
                vec![Reply::Lookup(LookupReply::Absent { gap_version: v(2) })],
                "020200000000000000",
            ),
            (
                vec![Reply::Chain(vec![
                    NeighborReply {
                        key: k("n"),
                        entry_version: v(1),
                        gap_version: v(2),
                        value: None,
                    },
                    NeighborReply {
                        key: Key::High,
                        entry_version: v(0),
                        gap_version: v(5),
                        value: None,
                    },
                ])],
                "080200000001010000006e0100000000000000020000000000000000020000000000000000050000\
                 000000000000",
            ),
            (
                vec![Reply::Chain(vec![NeighborReply {
                    key: k("n"),
                    entry_version: v(1),
                    gap_version: v(2),
                    value: Some(Value::from("N")),
                }])],
                "080100000001010000006e0100000000000000020000000000000001010000004e",
            ),
            (
                vec![Reply::Insert(InsertOutcome::Created {
                    split_gap_version: v(2),
                })],
                "040200000000000000",
            ),
            (
                vec![Reply::Insert(InsertOutcome::Updated {
                    old_version: v(1),
                    old_value: Value::from("old"),
                })],
                "050100000000000000030000006f6c64",
            ),
            (
                vec![Reply::Coalesce(CoalesceOutcome {
                    removed: vec![RemovedEntry {
                        key: UserKey::from("g"),
                        version: v(1),
                        value: Value::from("G"),
                        gap_after: v(3),
                    }],
                    old_gap_version: v(1),
                })],
                "060100000000000000010000000100000067010000000000000001000000470300000000000000",
            ),
            (
                vec![
                    Reply::Insert(InsertOutcome::Created {
                        split_gap_version: v(2),
                    }),
                    Reply::Lookup(LookupReply::Absent { gap_version: v(2) }),
                    Reply::Coalesce(CoalesceOutcome {
                        removed: vec![],
                        old_gap_version: v(2),
                    }),
                ],
                "090300000009000000040200000000000000090000000202000000000000000d000000060200\
                 00000000000000000000",
            ),
        ];
        for (list, bytes) in replies {
            let frame = encode_response(&reply_frame(Ok(list.clone())));
            assert_eq!(hex(&frame), bytes, "{list:?}");
            let back = reply_list(decode_response(&frame).unwrap(), list.len());
            assert_eq!(back, Ok(list));
        }
        // A refusal, and the anti-entropy replies, which no list carries.
        let refusal = reply_frame(Err(RepError::LockTimeout));
        assert_eq!(hex(&encode_response(&refusal)), "0704");
        let summary = Response::Summary(vec![Digest { hash: 5, count: 2 }]);
        assert_eq!(
            hex(&encode_response(&summary)),
            "0a0100000005000000000000000200000000000000"
        );
        let pulled = Response::PullRange(BucketView {
            lead_gap: v(7),
            entries: vec![BucketEntry {
                key: UserKey::from("p"),
                version: v(3),
                value: Value::from("V"),
                gap_after: v(9),
            }],
        });
        assert_eq!(
            hex(&encode_response(&pulled)),
            "0e0700000000000000010000000100000070030000000000000001000000560900000000000000"
        );
    }

    #[test]
    fn unknown_sentinel_op_interns_to_generic_name() {
        let e = Response::Err(RepError::SentinelViolation {
            key: Key::High,
            op: "successor",
        });
        let back = decode_response(&encode_response(&e)).unwrap();
        assert_eq!(back, e);
        // A name not in the intern table maps to "operation".
        assert_eq!(intern_op(b"whatever"), "operation");
    }

    mod lists {
        //! Operation and reply lists round-trip through their frames.
        //!
        //! Keys are drawn from four shapes: the two sentinels, the empty
        //! key, one-byte keys and 8-byte keys (`UserKey::from_u64`). Lists
        //! run from 0 to 64 operations: the empty ping, a bare operation,
        //! and envelopes up to the `bulk_chunk` arity of 64.
        use super::super::*;
        use repdir_core::proptest_mini::prelude::*;
        use repdir_core::INLINE_VALUE_MAX;

        fn key() -> impl Strategy<Value = Key> {
            prop_oneof![
                (0u8..3)
                    .prop_map(|pick| [Key::Low, Key::High, Key::from("")][pick as usize].clone()),
                any::<u8>().prop_map(|byte| Key::User(UserKey::from(vec![byte]))),
                any::<u64>().prop_map(|n| Key::User(UserKey::from_u64(n))),
            ]
        }

        fn value() -> impl Strategy<Value = Value> {
            proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::from)
        }

        fn version() -> impl Strategy<Value = Version> {
            any::<u64>().prop_map(Version::new)
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                key().prop_map(Op::Lookup),
                (key(), any::<u32>()).prop_map(|(k, n)| Op::PredecessorChain(k, n as usize)),
                (key(), any::<u32>()).prop_map(|(k, n)| Op::SuccessorChain(k, n as usize)),
                (key(), version(), value()).prop_map(|(k, v, z)| Op::Insert(k, v, z)),
                (key(), key(), version()).prop_map(|(l, h, v)| Op::Coalesce(l, h, v)),
            ]
        }

        /// No value, or one on either side of `INLINE_VALUE_MAX`: the codec
        /// frames whatever value it is given.
        fn carried() -> impl Strategy<Value = Option<Value>> {
            (any::<bool>(), 0..2 * INLINE_VALUE_MAX, any::<u8>())
                .prop_map(|(some, len, byte)| some.then(|| Value::from(vec![byte; len])))
        }

        fn neighbor() -> impl Strategy<Value = NeighborReply> {
            (key(), version(), version(), carried()).prop_map(
                |(key, entry_version, gap_version, value)| NeighborReply {
                    key,
                    entry_version,
                    gap_version,
                    value,
                },
            )
        }

        fn removed() -> impl Strategy<Value = RemovedEntry> {
            (any::<u64>(), version(), value(), version()).prop_map(|(k, version, value, gap)| {
                RemovedEntry {
                    key: UserKey::from_u64(k),
                    version,
                    value,
                    gap_after: gap,
                }
            })
        }

        fn reply() -> impl Strategy<Value = Reply> {
            prop_oneof![
                (version(), value()).prop_map(|(version, value)| {
                    Reply::Lookup(LookupReply::Present { version, value })
                }),
                version()
                    .prop_map(|gap_version| Reply::Lookup(LookupReply::Absent { gap_version })),
                proptest::collection::vec(neighbor(), 0..65).prop_map(Reply::Chain),
                version().prop_map(|split_gap_version| {
                    Reply::Insert(InsertOutcome::Created { split_gap_version })
                }),
                (version(), value()).prop_map(|(old_version, old_value)| {
                    Reply::Insert(InsertOutcome::Updated {
                        old_version,
                        old_value,
                    })
                }),
                (proptest::collection::vec(removed(), 0..8), version()).prop_map(
                    |(removed, old_gap_version)| {
                        Reply::Coalesce(CoalesceOutcome {
                            removed,
                            old_gap_version,
                        })
                    }
                ),
            ]
        }

        /// The replies a member's answer carries after the wire.
        fn across(result: RepResult<Vec<Reply>>, asked: usize) -> RepResult<Vec<Reply>> {
            let frame = encode_response(&reply_frame(result));
            reply_list(decode_response(&frame).expect("well-formed"), asked)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn operation_lists_round_trip(
                txn in any::<u64>(),
                ops in proptest::collection::vec(op(), 0..65),
            ) {
                let frame = encode_request(&request_frame(TxnId(txn), &ops));
                let decoded = decode_request(&frame).expect("well-formed");
                let (back_txn, back) = request_ops(decoded).expect("a data frame");
                prop_assert_eq!(&back, &ops);
                prop_assert!(ops.is_empty() || back_txn == TxnId(txn));
            }

            #[test]
            fn reply_lists_round_trip(
                replies in proptest::collection::vec(reply(), 0..65),
            ) {
                let asked = replies.len();
                prop_assert_eq!(across(Ok(replies.clone()), asked), Ok(replies));
                prop_assert_eq!(
                    across(Err(RepError::Deadlock), asked),
                    Err(RepError::Deadlock)
                );
            }
        }

        #[test]
        fn full_envelope_of_full_chains_round_trips() {
            let chain = |c: u64| {
                (0..64u64)
                    .map(|i| NeighborReply {
                        key: Key::User(UserKey::from_u64(c * 64 + i)),
                        entry_version: Version::new(i),
                        gap_version: Version::new(c),
                        value: None,
                    })
                    .collect()
            };
            let replies: Vec<Reply> = (0..64).map(|c| Reply::Chain(chain(c))).collect();
            assert_eq!(across(Ok(replies.clone()), 64), Ok(replies));
        }
    }
}
