//! Wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message — request or response — is one *frame*: a `u32`
//! little-endian byte length followed by that many body bytes. Frames
//! are pipelined: a client may write any number of requests before
//! reading responses, and the server answers every admitted request
//! exactly once, in submission order per connection.
//!
//! ```text
//! request body  = req_id:u64 | opcode:u8 | payload
//! response body = req_id:u64 | status:u8 | payload
//! ```
//!
//! Opcodes: `GET(1) key:u64` · `PUT(2) key:u64 value:bytes(≤56)` ·
//! `DELETE(3) key:u64` · `SCAN(4) lo:u64 hi:u64 max:u32` ·
//! `BATCH(5) count:u8 {op:u8 key:u64 [vlen:u8 value]}×count` (one
//! transaction, all-or-nothing) · `DRAIN(6)` (graceful shutdown) ·
//! `STATS(7)` (the server's counters; answered at admission, like
//! `DRAIN`, without engine work).
//!
//! Responses carry a typed [`Status`]; overload and shutdown sheds are
//! explicit statuses, never silent drops. A `GET` `Ok` payload is the
//! 56-byte value region; a `SCAN` `Ok` payload is `count:u32` followed
//! by `count` `(key:u64, stamp:u64)` pairs, where the stamp is the
//! first 8 value bytes, and `count` never exceeds [`MAX_SCAN_ROWS`]
//! whatever `max` asked for — the reply has to fit one frame; a client
//! that wants more resumes from the last key it got. A `STATS` `Ok`
//! payload is a [`CounterSnapshot`]: twelve little-endian `u64`s in
//! field order.

use std::io::{self, Read, Write};

/// Hard ceiling on a frame body; larger length prefixes are rejected
/// before any allocation, so a hostile 4 GiB prefix cannot balloon the
/// server.
pub const MAX_FRAME: usize = 64 * 1024;

/// Bytes of user value in a row (the row is `key:u64 | value[56]`).
pub const VALUE_BYTES: usize = 56;

/// Full row width on the device.
pub const ROW_BYTES: usize = 64;

/// Most sub-operations a `BATCH` transaction may carry.
pub const MAX_BATCH_OPS: usize = 64;

/// Most rows one `SCAN` reply carries: what fits a [`MAX_FRAME`] body
/// after `req_id:u64 | status:u8 | count:u32`, at 16 bytes a row.
pub const MAX_SCAN_ROWS: usize = (MAX_FRAME - 13) / 16;

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_SCAN: u8 = 4;
const OP_BATCH: u8 = 5;
const OP_DRAIN: u8 = 6;
const OP_STATS: u8 = 7;

/// One write inside a `BATCH` transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Upsert `key` to `value` (≤ [`VALUE_BYTES`], zero-padded on disk).
    Put {
        /// Row key.
        key: u64,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// Row key.
        key: u64,
    },
}

/// A decoded request operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point read; `Ok` payload is the value region.
    Get {
        /// Row key.
        key: u64,
    },
    /// Upsert one row (its own transaction).
    Put {
        /// Row key.
        key: u64,
        /// Value bytes (≤ [`VALUE_BYTES`]).
        value: Vec<u8>,
    },
    /// Delete one row (its own transaction).
    Delete {
        /// Row key.
        key: u64,
    },
    /// Ordered range read over `[lo, hi]`, at most `max` rows.
    Scan {
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound.
        hi: u64,
        /// Row-count cap for the reply.
        max: u32,
    },
    /// Several writes in one all-or-nothing transaction.
    Batch(Vec<WriteOp>),
    /// Ask the server to drain gracefully: it acks, stops accepting,
    /// flushes the group-commit queue, checkpoints, and exits 0.
    Drain,
    /// Read the server's counters; `Ok` payload is a
    /// [`CounterSnapshot`].
    Stats,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

/// Typed response status. Every admitted request gets exactly one of
/// these; overload is a *response*, not a dropped connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; payload depends on the opcode.
    Ok = 0,
    /// `GET`/`DELETE` of an absent key.
    NotFound = 1,
    /// Duplicate insert (surfaced by `BATCH` inserting a key twice).
    Duplicate = 2,
    /// Shed at admission: the request queue is at its hard cap.
    Overloaded = 3,
    /// The transient-error retry budget ran out; the transaction was
    /// rolled back and has no durable effect.
    RetryExhausted = 4,
    /// The frame failed to decode (bad opcode, truncated payload,
    /// oversized value, batch too large).
    BadRequest = 5,
    /// Shed because the server is draining.
    ShuttingDown = 6,
    /// Any other engine error; the transaction was rolled back.
    Error = 7,
}

impl Status {
    /// Decode a wire status byte.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::Duplicate,
            3 => Status::Overloaded,
            4 => Status::RetryExhausted,
            5 => Status::BadRequest,
            6 => Status::ShuttingDown,
            7 => Status::Error,
            _ => return None,
        })
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Correlation id echoed from the request.
    pub id: u64,
    /// Typed outcome.
    pub status: Status,
    /// Status-dependent payload (empty for most non-`Ok` statuses).
    pub payload: Vec<u8>,
}

/// Plain-value snapshot of the server's counters
/// ([`ServerCounters`](crate::server::ServerCounters)). On the wire
/// (the `STATS` payload) it is the fields as little-endian `u64`s, in
/// declaration order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CounterSnapshot {
    pub admitted: u64,
    pub shed_overloaded: u64,
    pub shed_shutting_down: u64,
    pub bad_requests: u64,
    pub timeouts: u64,
    pub conns_opened: u64,
    pub conns_closed: u64,
    pub retries: u64,
    pub retries_exhausted: u64,
    pub batches: u64,
    pub batch_txns: u64,
    pub batch_peak: u64,
}

impl CounterSnapshot {
    /// Encode as a `STATS` response payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let fields = [
            self.admitted,
            self.shed_overloaded,
            self.shed_shutting_down,
            self.bad_requests,
            self.timeouts,
            self.conns_opened,
            self.conns_closed,
            self.retries,
            self.retries_exhausted,
            self.batches,
            self.batch_txns,
            self.batch_peak,
        ];
        fields.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    /// Decode a `STATS` response payload.
    pub fn decode(payload: &[u8]) -> Result<CounterSnapshot, ProtoError> {
        let mut c = Cursor::new(payload);
        // Struct-expression fields evaluate in the order written, which
        // is the wire order.
        let snap = CounterSnapshot {
            admitted: c.u64()?,
            shed_overloaded: c.u64()?,
            shed_shutting_down: c.u64()?,
            bad_requests: c.u64()?,
            timeouts: c.u64()?,
            conns_opened: c.u64()?,
            conns_closed: c.u64()?,
            retries: c.u64()?,
            retries_exhausted: c.u64()?,
            batches: c.u64()?,
            batch_txns: c.u64()?,
            batch_peak: c.u64()?,
        };
        c.finish()?;
        Ok(snap)
    }
}

/// Why a frame body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Body ended before a fixed-width field.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// `PUT` value longer than [`VALUE_BYTES`].
    ValueTooLong(usize),
    /// `BATCH` count of zero or above [`MAX_BATCH_OPS`].
    BadBatchCount(usize),
    /// Unknown status byte in a response.
    BadStatus(u8),
    /// Trailing bytes after a fully decoded body.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {b}"),
            ProtoError::ValueTooLong(n) => {
                write!(f, "value of {n} bytes exceeds the {VALUE_BYTES}-byte row")
            }
            ProtoError::BadBatchCount(n) => {
                write!(f, "batch of {n} ops outside 1..={MAX_BATCH_OPS}")
            }
            ProtoError::BadStatus(b) => write!(f, "unknown status {b}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after body"),
        }
    }
}

/// Byte-cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), ProtoError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(left))
        }
    }
}

fn check_value(v: &[u8]) -> Result<(), ProtoError> {
    if v.len() > VALUE_BYTES {
        Err(ProtoError::ValueTooLong(v.len()))
    } else {
        Ok(())
    }
}

/// Encode a request body (no length prefix).
#[must_use]
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    b.extend_from_slice(&r.id.to_le_bytes());
    match &r.op {
        Op::Get { key } => {
            b.push(OP_GET);
            b.extend_from_slice(&key.to_le_bytes());
        }
        Op::Put { key, value } => {
            b.push(OP_PUT);
            b.extend_from_slice(&key.to_le_bytes());
            b.extend_from_slice(value);
        }
        Op::Delete { key } => {
            b.push(OP_DELETE);
            b.extend_from_slice(&key.to_le_bytes());
        }
        Op::Scan { lo, hi, max } => {
            b.push(OP_SCAN);
            b.extend_from_slice(&lo.to_le_bytes());
            b.extend_from_slice(&hi.to_le_bytes());
            b.extend_from_slice(&max.to_le_bytes());
        }
        Op::Batch(ops) => {
            b.push(OP_BATCH);
            b.push(u8::try_from(ops.len()).unwrap_or(u8::MAX));
            for op in ops {
                match op {
                    WriteOp::Put { key, value } => {
                        b.push(OP_PUT);
                        b.extend_from_slice(&key.to_le_bytes());
                        b.push(u8::try_from(value.len()).unwrap_or(u8::MAX));
                        b.extend_from_slice(value);
                    }
                    WriteOp::Delete { key } => {
                        b.push(OP_DELETE);
                        b.extend_from_slice(&key.to_le_bytes());
                    }
                }
            }
        }
        Op::Drain => b.push(OP_DRAIN),
        Op::Stats => b.push(OP_STATS),
    }
    b
}

/// Decode a request body.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(body);
    let id = c.u64()?;
    let opcode = c.u8()?;
    let op = match opcode {
        OP_GET => Op::Get { key: c.u64()? },
        OP_PUT => {
            let key = c.u64()?;
            let value = c.rest().to_vec();
            check_value(&value)?;
            Op::Put { key, value }
        }
        OP_DELETE => Op::Delete { key: c.u64()? },
        OP_SCAN => Op::Scan {
            lo: c.u64()?,
            hi: c.u64()?,
            max: c.u32()?,
        },
        OP_BATCH => {
            let n = c.u8()? as usize;
            if n == 0 || n > MAX_BATCH_OPS {
                return Err(ProtoError::BadBatchCount(n));
            }
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let sub = c.u8()?;
                let key = c.u64()?;
                ops.push(match sub {
                    OP_PUT => {
                        let vlen = c.u8()? as usize;
                        let value = c.take(vlen)?.to_vec();
                        check_value(&value)?;
                        WriteOp::Put { key, value }
                    }
                    OP_DELETE => WriteOp::Delete { key },
                    other => return Err(ProtoError::BadOpcode(other)),
                });
            }
            Op::Batch(ops)
        }
        OP_DRAIN => Op::Drain,
        OP_STATS => Op::Stats,
        other => return Err(ProtoError::BadOpcode(other)),
    };
    c.finish()?;
    Ok(Request { id, op })
}

/// Encode a response body (no length prefix).
#[must_use]
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut b = Vec::with_capacity(16 + r.payload.len());
    encode_response_into(r, &mut b);
    b
}

/// Append a response body (no length prefix) to `out`.
pub fn encode_response_into(r: &Response, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.id.to_le_bytes());
    out.push(r.status as u8);
    out.extend_from_slice(&r.payload);
}

/// Append a response as one whole frame (length prefix + body) to
/// `out`, so a writer can put several in one buffer and one `write`. A
/// body above [`MAX_FRAME`] would mis-frame everything after it in the
/// buffer (the peer's `read_frame` rejects the prefix), so it goes out
/// as an empty [`Status::Error`] reply to the same request instead.
pub fn frame_response_into(r: &Response, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode_response_into(r, out);
    if out.len() - at - 4 > MAX_FRAME {
        out.truncate(at + 4);
        out.extend_from_slice(&r.id.to_le_bytes());
        out.push(Status::Error as u8);
    }
    let len = u32::try_from(out.len() - at - 4).expect("body is at most MAX_FRAME");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode a response body.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(body);
    let id = c.u64()?;
    let sb = c.u8()?;
    let status = Status::from_u8(sb).ok_or(ProtoError::BadStatus(sb))?;
    let payload = c.rest().to_vec();
    Ok(Response {
        id,
        status,
        payload,
    })
}

/// Write one frame (length prefix + body) with a single `write_all`:
/// two writes on a socket are two segments, and Nagle's algorithm holds
/// the second until the peer's (delayed) ACK of the first. A body above
/// [`MAX_FRAME`] is `InvalidInput` — [`read_frame`] would reject it.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                body.len()
            ),
        ));
    }
    let len = u32::try_from(body.len()).expect("checked against MAX_FRAME");
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Read one frame body. `Ok(None)` means the stream closed cleanly at a
/// frame boundary; EOF inside a frame is `UnexpectedEof`, and a length
/// prefix above [`MAX_FRAME`] is `InvalidData` (rejected before any
/// allocation).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match read_exact_or_eof(r, &mut len)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

enum ReadOutcome {
    Filled,
    CleanEof,
}

/// `read_exact`, except EOF before the *first* byte is a clean close.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(ReadOutcome::CleanEof),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Filled)
}

/// A `Write` that counts calls: one `write` is one segment on a
/// `TCP_NODELAY` socket.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: Op) {
        let req = Request { id: 0xBEEF, op };
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).unwrap(), req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip(Op::Get { key: 7 });
        roundtrip(Op::Put {
            key: 9,
            value: vec![1, 2, 3],
        });
        roundtrip(Op::Put {
            key: 9,
            value: vec![0xAB; VALUE_BYTES],
        });
        roundtrip(Op::Delete { key: u64::MAX });
        roundtrip(Op::Scan {
            lo: 0,
            hi: 99,
            max: 1000,
        });
        roundtrip(Op::Batch(vec![
            WriteOp::Put {
                key: 1,
                value: vec![4; 8],
            },
            WriteOp::Delete { key: 2 },
            WriteOp::Put {
                key: 3,
                value: Vec::new(),
            },
        ]));
        roundtrip(Op::Drain);
        roundtrip(Op::Stats);
    }

    #[test]
    fn stats_payload_roundtrips_and_rejects_bad_lengths() {
        let snap = CounterSnapshot {
            admitted: 1,
            shed_overloaded: 2,
            shed_shutting_down: 3,
            bad_requests: 4,
            timeouts: 5,
            conns_opened: 6,
            conns_closed: 7,
            retries: 8,
            retries_exhausted: 9,
            batches: 10,
            batch_txns: 11,
            batch_peak: u64::MAX,
        };
        let mut wire = snap.encode();
        assert_eq!(wire.len(), 12 * 8);
        assert_eq!(wire[..8], 1u64.to_le_bytes(), "admitted leads");
        assert_eq!(CounterSnapshot::decode(&wire), Ok(snap));
        assert_eq!(
            CounterSnapshot::decode(&wire[..95]),
            Err(ProtoError::Truncated)
        );
        wire.push(0);
        assert_eq!(
            CounterSnapshot::decode(&wire),
            Err(ProtoError::TrailingBytes(1))
        );
    }

    #[test]
    fn response_roundtrips() {
        for status in [
            Status::Ok,
            Status::NotFound,
            Status::Duplicate,
            Status::Overloaded,
            Status::RetryExhausted,
            Status::BadRequest,
            Status::ShuttingDown,
            Status::Error,
        ] {
            let r = Response {
                id: 42,
                status,
                payload: vec![9; 5],
            };
            let body = encode_response(&r);
            assert_eq!(decode_response(&body).unwrap(), r);
        }
        assert_eq!(
            decode_response(&[0; 9]),
            Ok(Response {
                id: 0,
                status: Status::Ok,
                payload: Vec::new(),
            })
        );
        assert_eq!(decode_response(&[0; 8]), Err(ProtoError::Truncated));
        assert_eq!(
            decode_response(&[0, 0, 0, 0, 0, 0, 0, 0, 200]),
            Err(ProtoError::BadStatus(200))
        );
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_request(&[0; 8]), Err(ProtoError::Truncated));
        // Unknown opcode.
        let mut b = vec![0; 8];
        b.push(0xEE);
        assert_eq!(decode_request(&b), Err(ProtoError::BadOpcode(0xEE)));
        // Oversized PUT value.
        let big = encode_request(&Request {
            id: 1,
            op: Op::Put {
                key: 1,
                value: vec![0; VALUE_BYTES],
            },
        });
        let mut big = big.clone();
        big.push(0); // 57th value byte
        assert_eq!(decode_request(&big), Err(ProtoError::ValueTooLong(57)));
        // Empty batch.
        let mut eb = vec![0; 8];
        eb.push(OP_BATCH);
        eb.push(0);
        assert_eq!(decode_request(&eb), Err(ProtoError::BadBatchCount(0)));
        // Trailing garbage after a GET.
        let mut tg = encode_request(&Request {
            id: 2,
            op: Op::Get { key: 3 },
        });
        tg.extend_from_slice(&[1, 2]);
        assert_eq!(decode_request(&tg), Err(ProtoError::TrailingBytes(2)));
    }

    #[test]
    fn a_frame_is_one_write_and_an_oversize_body_is_none() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.writes, 1, "length and body leave together");
        assert_eq!(w.bytes, [&5u32.to_le_bytes()[..], b"hello"].concat());

        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, &vec![0; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.writes, 0, "nothing of a bad frame reaches the stream");
        write_frame(&mut w, &vec![0; MAX_FRAME]).unwrap();
    }

    #[test]
    fn coalesced_responses_read_back_frame_by_frame() {
        let resp = |id: u64, n: usize| Response {
            id,
            status: Status::Ok,
            payload: vec![id as u8; n],
        };
        // The largest SCAN reply fits a frame; a `MAX_FRAME` payload
        // (plus id and status) does not.
        let widest = 4 + MAX_SCAN_ROWS * 16;
        let batch = [
            resp(1, 0),
            resp(2, VALUE_BYTES),
            resp(3, widest),
            resp(4, MAX_FRAME),
            resp(5, 7),
        ];
        let mut buf = b"already here".to_vec();
        encode_response_into(&batch[1], &mut buf);
        let whole = [&b"already here"[..], &encode_response(&batch[1])].concat();
        assert_eq!(buf, whole, "appends, and the same bytes");

        buf.clear();
        for r in &batch {
            frame_response_into(r, &mut buf);
        }
        let mut rd = &buf[..];
        for r in &batch {
            let body = read_frame(&mut rd)
                .unwrap()
                .expect("one frame per response");
            let got = decode_response(&body).unwrap();
            if r.id == 4 {
                // Oversize: a typed failure for that request alone; the
                // frames behind it are intact.
                assert_eq!((got.id, got.status), (4, Status::Error));
                assert!(got.payload.is_empty());
            } else {
                assert_eq!(&got, r);
            }
        }
        assert!(read_frame(&mut rd).unwrap().is_none());
    }

    #[test]
    fn frames_roundtrip_and_enforce_the_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // Oversized length prefix: rejected without allocating.
        let huge = (u32::MAX).to_le_bytes();
        let mut r = &huge[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // EOF inside a frame is a hard error, not a clean close.
        let torn = 10u32.to_le_bytes();
        let mut partial = torn.to_vec();
        partial.extend_from_slice(&[1, 2, 3]);
        let mut r = &partial[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
