//! Deterministic serving simulator: the virtual-clock driver of the
//! [`GroupCommitter`].
//!
//! [`run_loop`] feeds the same committer the TCP server's engine thread
//! feeds — admission cap, group batches, one fence per batch, typed
//! sheds — under the worker's virtual clock with no threads and no
//! sockets, so every metric is a pure function of the [`SimSpec`] and
//! bit-identical across runs. The falcon-perf `server` suites gate on
//! [`run_sim`], the benchmark's `served` twin calls [`run_loop`], and
//! the falcon-chaos `falcon-serve` spec runs [`run_loop`] under a power
//! cut: its [`ReqRecord`]s say which acks were released before the cut
//! and which write raced it, and [`LoopRun::fence_brackets`] lets the
//! cut be biased into the group fence (DESIGN.md §15).

use crate::commit::{CommitSink, GroupCommitter};
use crate::proto::{Op, Response, Status, WriteOp};
use crate::store::{create_engine, kv_def, server_engine_config, OpResult};
use falcon_core::recovery::recover;
use falcon_core::retry::mix64;
use falcon_core::{Engine, RetryPolicy};
use pmem_sim::PmemDevice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a simulated serving run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSpec {
    /// Simulated client connections.
    pub conns: usize,
    /// Arrival waves; each wave every connection offers `burst`
    /// pipelined requests before the server drains the queue.
    pub waves: u64,
    /// Requests per connection per wave.
    pub burst: usize,
    /// Hard cap on queued requests; the rest shed `Overloaded`.
    pub admission_cap: usize,
    /// Most transactions one group fence covers.
    pub group_max_batch: usize,
    /// Rows preloaded durably before serving, keys `0..preload_keys`.
    pub preload_keys: u64,
    /// Keys addressed by the workload, `0..key_space`.
    pub key_space: u64,
    /// Percent of requests that are writes (puts, deletes, batches);
    /// the rest are point reads and scans.
    pub write_pct: u32,
    /// Workload and jitter seed.
    pub seed: u64,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            conns: 4,
            waves: 8,
            burst: 2,
            admission_cap: 16,
            group_max_batch: 8,
            preload_keys: 16,
            key_space: 32,
            write_pct: 70,
            seed: 0xFA1C_5E4F,
        }
    }
}

/// Per-request record produced by the serving loop, in execution order.
#[derive(Debug, Clone)]
pub struct ReqRecord {
    /// Simulated connection the request arrived on.
    pub conn: usize,
    /// The operation.
    pub op: Op,
    /// Virtual enqueue timestamp.
    pub enqueue_ns: u64,
    /// What became of it.
    pub outcome: ReqOutcome,
}

/// Outcome of one simulated request.
#[derive(Debug, Clone)]
pub enum ReqOutcome {
    /// Shed at admission with a typed `Overloaded` response.
    Shed,
    /// Executed (any typed status) and answered.
    Done {
        /// Typed wire status.
        status: Status,
        /// Transient-error retries consumed.
        retries: u64,
        /// Virtual acknowledgement timestamp (after the group fence
        /// for writes).
        ack_ns: u64,
        /// The ack was released before the fault plan tripped — the
        /// client observed it.
        acked: bool,
        /// Committed a write transaction entirely before the trip.
        committed_pre_trip: bool,
        /// The write transaction that raced the power cut.
        boundary: bool,
        /// Committed a write transaction (group-commit member).
        wrote: bool,
    },
}

/// Aggregate counters from one serving loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopStats {
    /// Group fences issued.
    pub fences: u64,
    /// Write transactions covered by those fences.
    pub batch_txns: u64,
    /// Largest single fence batch.
    pub batch_peak: u64,
    /// Transient-error retries across all requests.
    pub retries: u64,
    /// Requests that exhausted the retry budget.
    pub retry_exhausted: u64,
    /// Final virtual clock.
    pub elapsed_ns: u64,
}

/// Everything one serving loop produced.
pub struct LoopRun {
    /// Per-request records in execution order.
    pub records: Vec<ReqRecord>,
    /// Aggregate counters.
    pub stats: LoopStats,
    /// Device-event bracket `[start, end)` of each group fence, for
    /// cut biasing.
    pub fence_brackets: Vec<(u64, u64)>,
}

/// Generate the next request for the seeded workload. `stamp` is the
/// global write-stamp counter; every put carries a unique stamp in its
/// first 8 value bytes so recovered state identifies its writer.
fn gen_op(rng: &mut StdRng, spec: &SimSpec, stamp: &mut u64) -> Op {
    let key = |rng: &mut StdRng| rng.random_range(0..spec.key_space);
    let mut put = |rng: &mut StdRng| {
        let s = *stamp;
        *stamp += 1;
        WriteOp::Put {
            key: key(rng),
            value: s.to_le_bytes().to_vec(),
        }
    };
    if rng.random_range(0..100u32) < spec.write_pct {
        match rng.random_range(0..10u32) {
            0..=4 => match put(rng) {
                WriteOp::Put { key, value } => Op::Put { key, value },
                WriteOp::Delete { .. } => unreachable!(),
            },
            5 | 6 => Op::Delete { key: key(rng) },
            _ => {
                // 2–4 puts on distinct keys, one all-or-nothing txn.
                let n = rng.random_range(2..5u64);
                let mut ops: Vec<WriteOp> = Vec::new();
                for _ in 0..n {
                    let p = put(rng);
                    let WriteOp::Put { key: k, .. } = &p else {
                        unreachable!()
                    };
                    if !ops
                        .iter()
                        .any(|o| matches!(o, WriteOp::Put { key, .. } if key == k))
                    {
                        ops.push(p);
                    }
                }
                Op::Batch(ops)
            }
        }
    } else if rng.random_range(0..4u32) == 0 {
        let lo = key(rng);
        Op::Scan {
            lo,
            hi: lo + rng.random_range(1..spec.key_space),
            max: 32,
        }
    } else {
        Op::Get { key: key(rng) }
    }
}

/// The simulator's [`CommitSink`]: acks stamp per-request outcomes with
/// the virtual clock and the fault plane's trip state, fences are
/// bracketed in device events.
struct RecordSink<'a> {
    dev: &'a PmemDevice,
    /// Outcomes of the current wave's admitted requests, in execution
    /// order; the ack token is the position in this vector.
    outcomes: Vec<ReqOutcome>,
    stats: LoopStats,
    fence_brackets: Vec<(u64, u64)>,
    /// Device-event index at the last `fence_begin`.
    fence_ev0: u64,
    /// Trip state after the last device activity the sink saw, which
    /// is the state before the next request executes.
    tripped: bool,
}

impl CommitSink for RecordSink<'_> {
    type Ack = usize;

    fn executed(&mut self, _ack: &usize, res: &OpResult) {
        let tripped_after = self.dev.fault_tripped();
        self.stats.retries += res.retries;
        if res.status == Status::RetryExhausted {
            self.stats.retry_exhausted += 1;
        }
        self.outcomes.push(ReqOutcome::Done {
            status: res.status,
            retries: res.retries,
            ack_ns: 0,
            acked: false,
            committed_pre_trip: res.wrote && !tripped_after,
            boundary: res.wrote && tripped_after && !self.tripped,
            wrote: res.wrote,
        });
        self.tripped = tripped_after;
    }

    fn fence_begin(&mut self) {
        self.fence_ev0 = self.dev.fault_events();
    }

    fn fence_end(&mut self, txns: u64) {
        let ev1 = self.dev.fault_events().max(self.fence_ev0 + 1);
        self.fence_brackets.push((self.fence_ev0, ev1));
        self.stats.fences += 1;
        self.stats.batch_txns += txns;
        self.stats.batch_peak = self.stats.batch_peak.max(txns);
        self.tripped = self.dev.fault_tripped();
    }

    fn release(&mut self, ack: usize, _resp: Response, virt_ns: u64) {
        if let ReqOutcome::Done { ack_ns, acked, .. } = &mut self.outcomes[ack] {
            *ack_ns = virt_ns;
            *acked = !self.dev.fault_tripped();
        }
    }
}

/// Run the serving loop against an open engine: waves of pipelined
/// arrivals, a hard admission cap, and the admitted requests delivered
/// to the [`GroupCommitter`] in chunks of `group_max_batch` with a
/// `flush` after each — the live server's "a batch lands, then the
/// queue runs empty". A chunk can reach
/// `group_max_batch` pending writes only on its last request, so the
/// committer's size trigger and the chunk-end flush coincide.
/// Deterministic in `(engine state, spec)`; an armed fault plan does
/// not perturb the execution path, so calibration and cut runs with the
/// same spec take identical schedules.
pub fn run_loop(e: &Engine, dev: &PmemDevice, spec: &SimSpec, policy: &RetryPolicy) -> LoopRun {
    let sink = RecordSink {
        dev,
        outcomes: Vec::new(),
        stats: LoopStats::default(),
        fence_brackets: Vec::new(),
        fence_ev0: 0,
        tripped: dev.fault_tripped(),
    };
    let mut gc = GroupCommitter::new(e, *policy, spec.group_max_batch, sink).expect("worker 0");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut stamp = 1u64;
    let mut records: Vec<ReqRecord> = Vec::new();
    for _wave in 0..spec.waves {
        // Arrivals: every connection offers its burst; the queue admits
        // up to the cap and sheds the rest with a typed response.
        let first = records.len();
        for conn in 0..spec.conns {
            for _ in 0..spec.burst {
                records.push(ReqRecord {
                    conn,
                    op: gen_op(&mut rng, spec, &mut stamp),
                    enqueue_ns: gc.virt_ns(),
                    outcome: ReqOutcome::Shed,
                });
            }
        }
        let end = records.len().min(first + spec.admission_cap);
        let mut idx = first;
        for chunk in records[first..end].chunks(spec.group_max_batch) {
            for r in chunk {
                let seed = mix64(spec.seed ^ mix64(idx as u64));
                gc.submit(idx as u64, &r.op, seed, idx - first);
                idx += 1;
            }
            gc.flush();
        }
        let done = gc.sink_mut().outcomes.drain(..);
        for (r, outcome) in records[first..end].iter_mut().zip(done) {
            r.outcome = outcome;
        }
    }
    let elapsed_ns = gc.virt_ns();
    let sink = gc.sink_mut();
    LoopRun {
        records,
        stats: LoopStats {
            elapsed_ns,
            ..sink.stats
        },
        fence_brackets: std::mem::take(&mut sink.fence_brackets),
    }
}

/// Metrics from one deterministic serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Requests offered.
    pub requests: u64,
    /// Requests admitted and answered with an executed status.
    pub admitted: u64,
    /// Requests shed `Overloaded` at admission.
    pub shed: u64,
    /// Write transactions committed (group-commit members).
    pub committed: u64,
    /// Group fences issued.
    pub fences: u64,
    /// Largest single fence batch.
    pub batch_peak: u64,
    /// Mean write transactions per fence, ×1000 (integer for exact
    /// baseline comparison).
    pub mean_batch_milli: u64,
    /// Transient-error retries consumed.
    pub retries: u64,
    /// Requests that exhausted the retry budget.
    pub retry_exhausted: u64,
    /// Final virtual clock, ns.
    pub elapsed_ns: u64,
    /// p99 admitted-request latency (enqueue → ack), virtual ns.
    pub p99_latency_ns: u64,
    /// Committed write transactions per virtual second.
    pub txn_per_sec: f64,
    /// Host bytes the device image held at the end
    /// ([`PmemDevice::resident_bytes`]).
    pub resident_bytes: u64,
}

/// Run the simulator once and reduce to metrics. Bit-identical for a
/// given spec.
pub fn run_sim(spec: &SimSpec) -> Result<SimReport, String> {
    // Serve from a recovered, quiesced image, so only serving-era
    // device traffic is measured.
    let (dev, e) = create_engine(spec.preload_keys)?;
    drop(e);
    dev.quiesce();
    let (e, _) = recover(dev.clone(), server_engine_config(), &[kv_def()])
        .map_err(|e| format!("open: {e:?}"))?;
    let run = run_loop(&e, &dev, spec, &RetryPolicy::server());
    let mut shed = 0u64;
    let mut admitted = 0u64;
    let mut committed = 0u64;
    let mut lat: Vec<u64> = Vec::new();
    for r in &run.records {
        match &r.outcome {
            ReqOutcome::Shed => shed += 1,
            ReqOutcome::Done { ack_ns, wrote, .. } => {
                admitted += 1;
                if *wrote {
                    committed += 1;
                }
                lat.push(ack_ns.saturating_sub(r.enqueue_ns));
            }
        }
    }
    lat.sort_unstable();
    let p99 = if lat.is_empty() {
        0
    } else {
        lat[(lat.len() - 1).min(lat.len() * 99 / 100)]
    };
    let s = run.stats;
    Ok(SimReport {
        requests: run.records.len() as u64,
        admitted,
        shed,
        committed,
        fences: s.fences,
        batch_peak: s.batch_peak,
        mean_batch_milli: (s.batch_txns * 1000).checked_div(s.fences).unwrap_or(0),
        retries: s.retries,
        retry_exhausted: s.retry_exhausted,
        elapsed_ns: s.elapsed_ns,
        p99_latency_ns: p99,
        txn_per_sec: if s.elapsed_ns == 0 {
            0.0
        } else {
            committed as f64 * 1e9 / s.elapsed_ns as f64
        },
        resident_bytes: dev.resident_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_is_deterministic_and_group_commit_amortizes_fences() {
        let spec = SimSpec::default();
        let a = run_sim(&spec).expect("sim");
        let b = run_sim(&spec).expect("sim");
        assert_eq!(a, b, "same spec must reproduce bit-identically");
        assert!(a.committed > 0 && a.fences > 0);
        assert!(
            a.committed > a.fences,
            "group commit must cover >1 txn per fence on average \
             ({} txns, {} fences)",
            a.committed,
            a.fences
        );
        assert_eq!(a.shed, 0, "default spec fits under the admission cap");

        let c = run_sim(&SimSpec {
            seed: spec.seed + 1,
            ..spec
        })
        .expect("sim");
        assert_ne!(a.elapsed_ns, c.elapsed_ns, "seeds decorrelate");
    }

    #[test]
    fn overload_sheds_typed_and_answers_everything() {
        // 2× the admission cap per wave: sheds are guaranteed, and
        // every request still has a recorded outcome.
        let spec = SimSpec {
            conns: 8,
            burst: 2,
            admission_cap: 8,
            ..SimSpec::default()
        };
        let r = run_sim(&spec).expect("sim");
        assert!(r.shed > 0, "2x-cap load must shed");
        assert_eq!(r.admitted + r.shed, r.requests, "no silent drops");
        assert!(r.admitted >= spec.admission_cap as u64 * spec.waves);
    }

    /// The structural numbers of three fixed specs, captured on the
    /// parent commit (11197927, where `run_loop` was a hand-written copy
    /// of the server's engine loop): moving the simulator onto the
    /// shared [`GroupCommitter`] must not move any of them. `server` and
    /// `server_overload` are the `falcon_perf` suites' specs, so these
    /// are also the `bench/BENCH_0010.json` values. `elapsed_ns` alone
    /// was re-captured (117 820 / 966 040 / 229 788 before) when the
    /// B⁺-tree under the key-value table began reading nodes through
    /// one-read views: a cheaper index probe changes virtual time, and
    /// every other field here — admission, sheds, commits, fences,
    /// batching, retries — must still match the parent exactly.
    #[test]
    fn structural_numbers_are_pinned_to_the_parent_commit() {
        let server = SimSpec {
            conns: 8,
            waves: 32,
            burst: 2,
            admission_cap: 16,
            group_max_batch: 8,
            write_pct: 100,
            key_space: 64,
            preload_keys: 64,
            ..SimSpec::default()
        };
        let server_overload = SimSpec {
            conns: 8,
            waves: 16,
            burst: 4,
            admission_cap: 8,
            group_max_batch: 8,
            ..SimSpec::default()
        };
        // requests, admitted, shed, committed, fences, batch_peak,
        // mean_batch_milli, retries, elapsed_ns
        let pinned = [
            (SimSpec::default(), [64, 64, 0, 45, 8, 8, 5625, 0, 105_823]),
            (server, [512, 512, 0, 502, 64, 8, 7843, 0, 814_003]),
            (
                server_overload,
                [512, 128, 384, 95, 16, 8, 5937, 0, 203_355],
            ),
        ];
        for (spec, want) in pinned {
            let r = run_sim(&spec).expect("sim");
            let got = [
                r.requests,
                r.admitted,
                r.shed,
                r.committed,
                r.fences,
                r.batch_peak,
                r.mean_batch_milli,
                r.retries,
                r.elapsed_ns,
            ];
            assert_eq!(got, want, "{spec:?}");
        }
    }
}
