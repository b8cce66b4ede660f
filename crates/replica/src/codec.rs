//! Wire encoding for representative RPCs.
//!
//! A compact hand-rolled binary format (length-prefixed fields,
//! little-endian integers) mirroring the write-ahead log's conventions.
//! Every request and response round-trips exactly; decoding rejects
//! malformed input rather than panicking, since bytes arrive from the
//! network.

use repdir_core::bytes::{Buf, BufMut};
use repdir_core::{
    CoalesceOutcome, InsertOutcome, Key, LookupReply, NeighborReply, RemovedEntry, RepError,
    UserKey, Value, Version,
};
use repdir_repair::{BucketEntry, BucketView, Digest};
use repdir_txn::TxnId;

/// A request to a representative server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe (quorum collection).
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
    /// A batched scatter envelope: several requests in one message, answered
    /// by a [`Response::Batch`] with replies in request order. Envelopes do
    /// not nest.
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
    let bytes = b[..n].to_vec();
    b.advance(n);
    Ok(Value::from(bytes))
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
/// [`DecodeError`] on malformed input.
pub fn decode_request(mut b: &[u8]) -> DecodeResult<Request> {
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
        RQ_BATCH => {
            let parts = match repdir_net::unpack_parts(b) {
                Some(parts) => parts,
                None => return err("bad batch framing"),
            };
            let reqs = parts
                .iter()
                .map(|part| decode_request(part))
                .collect::<DecodeResult<Vec<Request>>>()?;
            if reqs.iter().any(|r| matches!(r, Request::Batch(_))) {
                return err("nested batch request");
            }
            Ok(Request::Batch(reqs))
        }
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
pub fn decode_response(mut b: &[u8]) -> DecodeResult<Response> {
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
            let n = get_u32(b)? as usize;
            let mut chain = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                chain.push(NeighborReply {
                    key: get_key(b)?,
                    entry_version: Version::new(get_u64(b)?),
                    gap_version: Version::new(get_u64(b)?),
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
            let n = get_u32(b)? as usize;
            let mut removed = Vec::with_capacity(n.min(4096));
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
        RS_BATCH => {
            let parts = match repdir_net::unpack_parts(b) {
                Some(parts) => parts,
                None => return err("bad batch framing"),
            };
            let resps = parts
                .iter()
                .map(|part| decode_response(part))
                .collect::<DecodeResult<Vec<Response>>>()?;
            if resps.iter().any(|r| matches!(r, Response::Batch(_))) {
                return err("nested batch response");
            }
            Ok(Response::Batch(resps))
        }
        RS_SUMMARY => {
            let n = get_u32(b)? as usize;
            let mut digests = Vec::with_capacity(n.min(4096));
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
            let n = get_u32(b)? as usize;
            let mut entries = Vec::with_capacity(n.min(4096));
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

/// Decodes the reply to a [`Request::Batch`] of `expect` sub-requests.
///
/// Accepts exactly a [`Response::Batch`] whose arity matches the request,
/// or a top-level [`Response::Err`] (the server refusing the envelope as a
/// whole). Anything else — wrong arity, a nested batch (rejected by
/// [`decode_response`]), a non-batch reply — is a [`DecodeError`], never a
/// panic or a silent truncation: a short reply zipped against the request
/// list would quietly drop the tail sub-requests' outcomes.
///
/// # Errors
///
/// [`DecodeError`] on malformed input or a reply shape that cannot answer
/// a batch of `expect` sub-requests.
pub fn decode_batch_response(bytes: &[u8], expect: usize) -> DecodeResult<Response> {
    let resp = decode_response(bytes)?;
    match &resp {
        Response::Batch(parts) if parts.len() == expect => Ok(resp),
        Response::Batch(parts) => Err(DecodeError(format!(
            "batch arity mismatch: {} replies to {} requests",
            parts.len(),
            expect
        ))),
        Response::Err(_) => Ok(resp),
        _ => err("non-batch reply to a batch request"),
    }
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
            Request::Batch(vec![]),
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
                },
                NeighborReply {
                    key: Key::Low,
                    entry_version: v(0),
                    gap_version: v(0),
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

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            for cut in 1..bytes.len() {
                // Any strict prefix must decode to an error (no panic). Some
                // prefixes of variable-length messages may decode to a
                // different valid message; that is acceptable for a
                // length-delimited transport, which never truncates.
                let _ = decode_request(&bytes[..cut]);
            }
        }
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            for cut in 1..bytes.len() {
                let _ = decode_response(&bytes[..cut]);
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

    #[test]
    fn batch_reply_arity_mismatch_is_a_decode_error() {
        // A reply carrying one part for a two-request envelope must not zip
        // silently — the dropped tail would read as "request had no outcome".
        let short = encode_response(&Response::Batch(vec![Response::Ok]));
        let err = decode_batch_response(&short, 2).unwrap_err();
        assert!(err.0.contains("arity"), "{err}");
        // Extra parts are just as malformed.
        let long = encode_response(&Response::Batch(vec![Response::Ok, Response::Ok]));
        let err = decode_batch_response(&long, 1).unwrap_err();
        assert!(err.0.contains("arity"), "{err}");
        // The matching arity decodes, as does a whole-envelope refusal.
        assert_eq!(
            decode_batch_response(&long, 2).unwrap(),
            Response::Batch(vec![Response::Ok, Response::Ok])
        );
        let refusal = encode_response(&Response::Err(RepError::Unavailable));
        assert_eq!(
            decode_batch_response(&refusal, 3).unwrap(),
            Response::Err(RepError::Unavailable)
        );
    }

    #[test]
    fn batch_reply_wrong_shape_is_a_decode_error() {
        // A nested batch is rejected by the inner decode...
        let nested = encode_response(&Response::Batch(vec![Response::Batch(vec![])]));
        let err = decode_batch_response(&nested, 1).unwrap_err();
        assert!(err.0.contains("nested"), "{err}");
        // ...and a non-batch reply cannot answer a batch request at all.
        let plain = encode_response(&Response::Ok);
        let err = decode_batch_response(&plain, 1).unwrap_err();
        assert!(err.0.contains("non-batch"), "{err}");
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
}
