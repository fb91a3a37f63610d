//! Execution core shared by the live TCP server and the deterministic
//! simulator: engine construction, one-request execution with the
//! capped jittered-backoff retry policy, and the request → typed
//! status mapping.
//!
//! Semantic outcomes (`GET`/`DELETE` of an absent key, a duplicate
//! insert inside a `BATCH`) are definitive responses, not retryable
//! failures; only errors [`TxnError::transient`] classifies as
//! transient — conflicts and log overflow — re-enter the retry loop.
//! Backoff advances the worker's *virtual* clock, so retry schedules
//! are deterministic in `(seed, attempt)` and identical between the
//! simulator and a live run.

use crate::proto::{Op, Status, WriteOp, MAX_SCAN_ROWS, ROW_BYTES, VALUE_BYTES};
use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{CcAlgo, Engine, EngineConfig, RetryPolicy, TxnError, Worker};
use falcon_storage::{ColType, Schema};
use pmem_sim::{PmemDevice, SimConfig};

/// The single serving table (`kv`, 64-byte rows, B⁺-tree primary
/// index — `SCAN` needs key order).
pub const TABLE: u32 = 0;

/// Byte offset of the value region inside a row.
pub const VALUE_OFF: u32 = 8;

/// Device capacity for server databases. Deliberately small: the
/// falcon-chaos plane shares it and forks the image several times per
/// iteration, so image size is the dominant cost of its fuzzing loop.
pub const DEVICE_CAPACITY: u64 = 24 << 20;

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

/// The serving table definition.
#[must_use]
pub fn kv_def() -> TableDef {
    TableDef {
        schema: Schema::new(
            "kv",
            &[
                ("k", ColType::U64),
                ("v", ColType::Bytes(VALUE_BYTES as u32)),
            ],
        ),
        index_kind: IndexKind::BTree,
        capacity_hint: 4096,
        primary_key: key_fn,
        secondary: None,
    }
}

/// The serving engine configuration: Falcon (in-place, small log
/// window, selective flush) with the commit fence deferred to
/// [`Engine::group_fence`], OCC, one worker thread.
#[must_use]
pub fn server_engine_config() -> EngineConfig {
    EngineConfig::falcon()
        .with_cc(CcAlgo::Occ)
        .with_threads(1)
        .with_group_commit(true)
}

/// A full on-device row for `key` holding `value` (zero-padded).
#[must_use]
pub fn row_of(key: u64, value: &[u8]) -> Vec<u8> {
    let mut r = vec![0u8; ROW_BYTES];
    r[0..8].copy_from_slice(&key.to_le_bytes());
    r[8..8 + value.len()].copy_from_slice(value);
    r
}

/// The zero-padded 56-byte value field for an update.
#[must_use]
pub fn value_field(value: &[u8]) -> [u8; VALUE_BYTES] {
    let mut f = [0u8; VALUE_BYTES];
    f[..value.len()].copy_from_slice(value);
    f
}

/// Create a fresh eADR device and engine, preloading keys
/// `0..preload_keys` durably (fenced, quiesced baseline — the group
/// commit plane only governs serving-era transactions).
pub fn create_engine(preload_keys: u64) -> Result<(PmemDevice, Engine), String> {
    let sim = SimConfig::small().with_capacity(DEVICE_CAPACITY);
    let dev = PmemDevice::new(sim).map_err(|e| format!("device: {e:?}"))?;
    let e = Engine::create(dev.clone(), server_engine_config(), &[kv_def()])
        .map_err(|e| format!("engine: {e:?}"))?;
    {
        let mut w = e.worker(0).map_err(|e| format!("worker: {e:?}"))?;
        for k in 0..preload_keys {
            let mut t = e.begin(&mut w, false);
            t.insert(TABLE, &row_of(k, &[]))
                .map_err(|e| format!("preload insert {k}: {e}"))?;
            t.commit().map_err(|e| format!("preload commit {k}: {e}"))?;
        }
        // The preload ran under group commit: fence it durable before
        // serving, so the baseline is never part of any serving batch.
        e.group_fence(&mut w);
    }
    Ok((dev, e))
}

/// How a retried operation ended.
pub enum RetryOutcome<T> {
    /// The attempt succeeded (possibly after retries).
    Done(T),
    /// The retry budget ran out; carries the last transient error.
    Exhausted(TxnError),
    /// A non-transient error; retrying cannot help.
    Permanent(TxnError),
}

/// Retry bookkeeping for one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Total virtual backoff accrued, in nanoseconds.
    pub backoff_ns: u64,
}

/// Drive `attempt` under `policy`: transient errors back off
/// (deterministically in `(seed, attempt)`) and retry until the budget
/// is spent; permanent errors return immediately.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    seed: u64,
    mut attempt: impl FnMut() -> Result<T, TxnError>,
) -> (RetryOutcome<T>, RetryStats) {
    let mut stats = RetryStats::default();
    let mut failures = 0u64;
    loop {
        match attempt() {
            Ok(v) => return (RetryOutcome::Done(v), stats),
            Err(e) if e.transient() => {
                failures += 1;
                if !policy.allows(failures) {
                    return (RetryOutcome::Exhausted(e), stats);
                }
                stats.retries += 1;
                stats.backoff_ns += policy.backoff_ns(seed, failures - 1);
            }
            Err(e) => return (RetryOutcome::Permanent(e), stats),
        }
    }
}

/// Outcome of executing one request against the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// Typed wire status.
    pub status: Status,
    /// Response payload (`GET` value, `SCAN` rows).
    pub payload: Vec<u8>,
    /// Transient-error retries the operation consumed.
    pub retries: u64,
    /// Whether the operation committed a write transaction that is now
    /// waiting on the next [`Engine::group_fence`] for its ack.
    pub wrote: bool,
}

/// Execute one operation, retrying transient failures under `policy`.
/// Write commits stamp their records without fencing (group commit);
/// the caller must fence before releasing acks for results with
/// `wrote == true`.
pub fn apply_op(e: &Engine, w: &mut Worker, op: &Op, policy: &RetryPolicy, seed: u64) -> OpResult {
    let pending_before = e.group_pending(w);
    let (outcome, stats) = with_retry(policy, seed, || attempt_op(e, w, op));
    // Backoff is virtual time: deterministic, and free of real stalls
    // on the (single) engine thread.
    w.ctx.clock += stats.backoff_ns;
    let (status, payload) = match outcome {
        RetryOutcome::Done((status, payload)) => (status, payload),
        RetryOutcome::Exhausted(_) => (Status::RetryExhausted, Vec::new()),
        RetryOutcome::Permanent(_) => (Status::Error, Vec::new()),
    };
    OpResult {
        status,
        payload,
        retries: stats.retries,
        wrote: e.group_pending(w) > pending_before,
    }
}

/// One transaction attempt. Definitive semantic outcomes return
/// `Ok((status, payload))`; `Err` aborts the attempt and is classified
/// by the retry loop.
fn attempt_op(e: &Engine, w: &mut Worker, op: &Op) -> Result<(Status, Vec<u8>), TxnError> {
    match op {
        Op::Get { key } => {
            let mut t = e.begin(w, false);
            match t.read(TABLE, *key) {
                Ok(row) => {
                    let payload = row[VALUE_OFF as usize..].to_vec();
                    t.commit()?;
                    Ok((Status::Ok, payload))
                }
                Err(TxnError::NotFound) => {
                    t.abort();
                    Ok((Status::NotFound, Vec::new()))
                }
                Err(e) => {
                    t.abort();
                    Err(e)
                }
            }
        }
        Op::Put { key, value } => {
            let mut t = e.begin(w, false);
            upsert(&mut t, *key, value)?;
            t.commit()?;
            Ok((Status::Ok, Vec::new()))
        }
        Op::Delete { key } => {
            let mut t = e.begin(w, false);
            match t.delete(TABLE, *key) {
                Ok(()) => {
                    t.commit()?;
                    Ok((Status::Ok, Vec::new()))
                }
                Err(TxnError::NotFound) => {
                    t.abort();
                    Ok((Status::NotFound, Vec::new()))
                }
                Err(e) => {
                    t.abort();
                    Err(e)
                }
            }
        }
        Op::Scan { lo, hi, max } => {
            let mut t = e.begin(w, false);
            let mut rows: Vec<(u64, u64)> = Vec::new();
            // `max` is the client's; the reply must still fit one frame.
            let cap = (*max as usize).min(MAX_SCAN_ROWS);
            let res = t.scan(TABLE, *lo, *hi, |k, row| {
                if rows.len() >= cap {
                    return false;
                }
                rows.push((k, u64::from_le_bytes(row[8..16].try_into().unwrap())));
                true
            });
            if let Err(e) = res {
                t.abort();
                return Err(e);
            }
            t.commit()?;
            let mut payload = Vec::with_capacity(4 + rows.len() * 16);
            payload.extend_from_slice(&u32::try_from(rows.len()).unwrap_or(u32::MAX).to_le_bytes());
            for (k, stamp) in rows {
                payload.extend_from_slice(&k.to_le_bytes());
                payload.extend_from_slice(&stamp.to_le_bytes());
            }
            Ok((Status::Ok, payload))
        }
        Op::Batch(ops) => {
            let mut t = e.begin(w, false);
            for wop in ops {
                let res = match wop {
                    WriteOp::Put { key, value } => upsert(&mut t, *key, value),
                    WriteOp::Delete { key } => t.delete(TABLE, *key),
                };
                match res {
                    Ok(()) => {}
                    // A batch is all-or-nothing: a definitive miss or
                    // duplicate rolls the whole transaction back and is
                    // the response for the batch.
                    Err(TxnError::NotFound) => {
                        t.abort();
                        return Ok((Status::NotFound, Vec::new()));
                    }
                    Err(TxnError::Duplicate) => {
                        t.abort();
                        return Ok((Status::Duplicate, Vec::new()));
                    }
                    Err(e) => {
                        t.abort();
                        return Err(e);
                    }
                }
            }
            t.commit()?;
            Ok((Status::Ok, Vec::new()))
        }
        // DRAIN and STATS never reach the engine; the server answers
        // them at the admission layer.
        Op::Drain | Op::Stats => Ok((Status::Ok, Vec::new())),
    }
}

/// Insert `key` if absent, else overwrite its value field.
fn upsert(t: &mut falcon_core::Txn<'_, '_>, key: u64, value: &[u8]) -> Result<(), TxnError> {
    let present = match t.read(TABLE, key) {
        Ok(_) => true,
        Err(TxnError::NotFound) => false,
        Err(e) => return Err(e),
    };
    if present {
        t.update(TABLE, key, &[(VALUE_OFF, &value_field(value))])
    } else {
        t.insert(TABLE, &row_of(key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_retry_counts_and_backs_off_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay_ns: 100,
            max_delay_ns: 10_000,
        };
        // Succeeds on the third attempt: two retries, two backoffs.
        let run = |seed: u64| {
            let mut left = 2;
            with_retry(&policy, seed, || {
                if left > 0 {
                    left -= 1;
                    Err(TxnError::Conflict)
                } else {
                    Ok(7u32)
                }
            })
        };
        let (out, stats) = run(5);
        assert!(matches!(out, RetryOutcome::Done(7)));
        assert_eq!(stats.retries, 2);
        assert!(stats.backoff_ns > 0);
        let (_, again) = run(5);
        assert_eq!(stats, again, "same seed, same schedule");
        let (_, other) = run(6);
        assert_ne!(stats.backoff_ns, other.backoff_ns, "seeds decorrelate");

        // Never succeeds: budget exhausted after max_attempts failures,
        // of which all but the last backed off.
        let (out, stats) = with_retry(&policy, 9, || -> Result<(), TxnError> {
            Err(TxnError::Conflict)
        });
        assert!(matches!(out, RetryOutcome::Exhausted(TxnError::Conflict)));
        assert_eq!(stats.retries, policy.max_attempts - 1);

        // Permanent errors never retry.
        let (out, stats) = with_retry(&policy, 9, || -> Result<(), TxnError> {
            Err(TxnError::ReadOnly)
        });
        assert!(matches!(out, RetryOutcome::Permanent(TxnError::ReadOnly)));
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.backoff_ns, 0);
    }

    #[test]
    fn ops_execute_with_typed_outcomes_and_group_pending() {
        let (_dev, e) = create_engine(4).expect("engine");
        let mut w = e.worker(0).expect("worker");
        let policy = RetryPolicy::server();

        // Reads never join the group batch.
        let r = apply_op(&e, &mut w, &Op::Get { key: 0 }, &policy, 1);
        assert_eq!((r.status, r.wrote), (Status::Ok, false));
        assert_eq!(r.payload.len(), VALUE_BYTES);
        let r = apply_op(&e, &mut w, &Op::Get { key: 99 }, &policy, 1);
        assert_eq!((r.status, r.wrote), (Status::NotFound, false));

        // Writes stamp without fencing and wait on the group fence.
        let r = apply_op(
            &e,
            &mut w,
            &Op::Put {
                key: 99,
                value: vec![7; 8],
            },
            &policy,
            2,
        );
        assert_eq!((r.status, r.wrote), (Status::Ok, true));
        assert_eq!(e.group_pending(&w), 1);
        let r = apply_op(
            &e,
            &mut w,
            &Op::Batch(vec![
                WriteOp::Put {
                    key: 100,
                    value: vec![1],
                },
                WriteOp::Delete { key: 0 },
            ]),
            &policy,
            3,
        );
        assert_eq!((r.status, r.wrote), (Status::Ok, true));
        assert_eq!(e.group_pending(&w), 2);
        assert_eq!(e.group_fence(&mut w), 2, "one fence covers both txns");

        // The upsert landed and the batch applied atomically.
        let r = apply_op(&e, &mut w, &Op::Get { key: 99 }, &policy, 4);
        assert_eq!(&r.payload[..8], &[7; 8]);
        let r = apply_op(&e, &mut w, &Op::Get { key: 0 }, &policy, 4);
        assert_eq!(r.status, Status::NotFound);

        // A batch hitting a definitive error rolls back entirely.
        let r = apply_op(
            &e,
            &mut w,
            &Op::Batch(vec![
                WriteOp::Put {
                    key: 200,
                    value: vec![2],
                },
                WriteOp::Delete { key: 4444 },
            ]),
            &policy,
            5,
        );
        assert_eq!((r.status, r.wrote), (Status::NotFound, false));
        assert_eq!(e.group_pending(&w), 0);
        let r = apply_op(&e, &mut w, &Op::Get { key: 200 }, &policy, 6);
        assert_eq!(r.status, Status::NotFound, "aborted batch left no trace");

        // Scan sees exactly the live keys in order.
        let r = apply_op(
            &e,
            &mut w,
            &Op::Scan {
                lo: 0,
                hi: u64::MAX,
                max: 100,
            },
            &policy,
            7,
        );
        assert_eq!(r.status, Status::Ok);
        let n = u32::from_le_bytes(r.payload[0..4].try_into().unwrap());
        let keys: Vec<u64> = (0..n as usize)
            .map(|i| u64::from_le_bytes(r.payload[4 + i * 16..12 + i * 16].try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 99, 100]);
    }
}
