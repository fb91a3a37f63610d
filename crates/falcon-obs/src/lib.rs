//! # falcon-obs — observability for the Falcon reproduction
//!
//! Three pieces, mirroring pmem-sim's zero-shared-state design:
//!
//! * [`EngineStats`] — per-worker engine counters (commits/aborts by
//!   cause, log-window activity, hinted-flush decisions, hot-LRU and
//!   version-heap pressure, recovery replay counts). Carried by value
//!   in each `Worker`, merged at the end of a run; the hot path never
//!   touches shared memory.
//! * [`Phase`] spans — virtual-clock time attributed to the stages of
//!   a transaction (index lookup, CC acquire/validate, log append,
//!   commit fence, data flush), accumulated into log-scale
//!   [`Histogram`]s per transaction type by the harness.
//! * [`report::RunReport`] — a schema-versioned serde_json document
//!   merging `EngineStats` + `DeviceStats` + histograms, written under
//!   `results/` and printable as a table.
//!
//! All of it is compiled into every build: the numbers a report shows
//! come from the same binary whose speed is published. See DESIGN.md
//! §10.

pub mod cost;
pub mod hist;
pub mod report;

pub use cost::CostMatrix;
pub use hist::Histogram;

/// Why a transaction aborted, as classified by the harness from
/// `TxnError`. Retry-able causes only; hard errors panic the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Concurrency-control conflict (lock, timestamp, or validation).
    Conflict,
    /// A read or update targeted a missing key.
    NotFound,
    /// An insert collided with an existing key.
    Duplicate,
    /// The small log window could not hold the transaction's redo.
    LogOverflow,
    /// Any other retry-able cause.
    Other,
}

impl AbortCause {
    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::Conflict => "conflict",
            AbortCause::NotFound => "not_found",
            AbortCause::Duplicate => "duplicate",
            AbortCause::LogOverflow => "log_overflow",
            AbortCause::Other => "other",
        }
    }
}

/// A traced stage of transaction execution. Span time is virtual-clock
/// nanoseconds from the simulator, so attribution is exact and
/// deterministic, not wall-clock noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Primary-index point lookups and scans.
    IndexLookup = 0,
    /// Concurrency-control acquire: read-meta protocol and write locks.
    CcAcquire = 1,
    /// OCC read-set validation at commit.
    CcValidate = 2,
    /// Redo-record appends into the small log window.
    LogAppend = 3,
    /// Commit-point ordering: log-window commit mark and fences,
    /// out-of-place watermark publish.
    CommitFence = 4,
    /// Data flush stage: hinted tuple/header flushes after commit.
    DataFlush = 5,
    /// Fuzzy checkpoint: dirty-line write-back, epoch publish, and
    /// overflow-spill truncation (boundary and backpressure runs).
    Checkpoint = 6,
    /// Batched group-commit fence: the one `sfence` issued per commit
    /// batch when the engine runs with `group_commit` (the deferred
    /// per-transaction fences land here instead of `CommitFence`).
    GroupFence = 7,
}

/// Number of [`Phase`] variants.
pub const PHASES: usize = 8;

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; PHASES] = [
        Phase::IndexLookup,
        Phase::CcAcquire,
        Phase::CcValidate,
        Phase::LogAppend,
        Phase::CommitFence,
        Phase::DataFlush,
        Phase::Checkpoint,
        Phase::GroupFence,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::IndexLookup => "index_lookup",
            Phase::CcAcquire => "cc_acquire",
            Phase::CcValidate => "cc_validate",
            Phase::LogAppend => "log_append",
            Phase::CommitFence => "commit_fence",
            Phase::DataFlush => "data_flush",
            Phase::Checkpoint => "checkpoint",
            Phase::GroupFence => "group_fence",
        }
    }
}

/// Per-worker engine counters. Same discipline as pmem-sim's
/// `ThreadStats`: plain integers, owned by one worker, summed by the
/// harness afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transactions committed.
    pub commits: u64,
    /// Transaction attempts aborted (any cause).
    pub aborts: u64,
    /// Aborts from concurrency-control conflicts.
    pub aborts_conflict: u64,
    /// Aborts from missing keys.
    pub aborts_not_found: u64,
    /// Aborts from duplicate inserts.
    pub aborts_duplicate: u64,
    /// Aborts because the log window overflowed.
    pub aborts_log_overflow: u64,
    /// Aborts from any other retry-able cause.
    pub aborts_other: u64,

    /// Redo records appended to the small log window.
    pub log_appends: u64,
    /// On-media bytes those appends occupied (header + payload).
    pub log_append_bytes: u64,
    /// Times the window cursor wrapped back to slot 0.
    pub log_wraps: u64,
    /// Transactions that spilled from their slot into the shared
    /// overflow region.
    pub log_overflow_spills: u64,
    /// On-media bytes appended into the overflow region (header +
    /// padded payload of every spilled record).
    pub log_spill_bytes: u64,
    /// Appends rejected because the overflow region was full
    /// (window-full stall → `TxnError::LogOverflow` abort).
    pub log_full_stalls: u64,

    /// Hinted data flushes actually issued (clwb on tuple bytes).
    pub flush_hinted: u64,
    /// Hinted flushes skipped because the tuple was hot-LRU resident.
    pub flush_skipped_hot: u64,

    /// Hot-tuple LRU probes that found the address already tracked.
    pub hot_hits: u64,
    /// Probes that inserted a new address.
    pub hot_misses: u64,
    /// LRU entries evicted to make room.
    pub hot_evictions: u64,

    /// Versions allocated from the DRAM version heap.
    pub version_allocs: u64,
    /// Versions reclaimed by epoch GC.
    pub version_frees: u64,
    /// Snapshot reads that walked a version chain.
    pub version_chain_walks: u64,
    /// Total versions visited across those walks (steps / walks =
    /// mean chain length).
    pub version_chain_steps: u64,

    /// Committed transactions replayed during recovery.
    pub recovery_committed_replayed: u64,
    /// Uncommitted log-window transactions discarded during recovery.
    pub recovery_uncommitted_discarded: u64,

    /// Fuzzy checkpoints published (epoch swings committed).
    pub ckpt_published: u64,
    /// Highest checkpoint epoch this worker has published.
    pub ckpt_epoch: u64,
    /// Dirty cache lines written back by checkpoints.
    pub ckpt_dirty_writebacks: u64,
    /// Peak size of the deferred-flush dirty-line set.
    pub ckpt_dirty_peak: u64,
    /// Appends that stalled on the spill cap and triggered an inline
    /// drain checkpoint before retrying (bounded backpressure, never a
    /// panic or a drop).
    pub ckpt_backpressure_stalls: u64,
    /// Overflow-spill bytes reclaimed by checkpoint truncation.
    pub spill_bytes_truncated: u64,
    /// Spill-region truncations performed.
    pub spill_truncations: u64,

    /// Group-commit fences issued (`Engine::group_fence` with a
    /// non-empty batch).
    pub group_fences: u64,
    /// Transactions whose commit fence was amortized into a group
    /// fence. `group_commit_txns / group_fences` is the mean batch.
    pub group_commit_txns: u64,
    /// Largest single group-commit batch.
    pub group_batch_peak: u64,

    /// Per-phase virtual-clock nanoseconds accumulated for the
    /// transaction attempt currently in flight; the harness drains
    /// this with [`EngineStats::take_pending`] at each commit.
    pub pending: [u64; PHASES],
}

impl EngineStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count a committed transaction.
    #[inline]
    pub fn commit_inc(&mut self) {
        self.commits += 1;
    }

    /// Count an aborted attempt (cause recorded separately by the
    /// harness via [`EngineStats::abort_cause`]).
    #[inline]
    pub fn abort_inc(&mut self) {
        self.aborts += 1;
    }

    /// Attribute the most recent abort to a cause.
    #[inline]
    pub fn abort_cause(&mut self, c: AbortCause) {
        match c {
            AbortCause::Conflict => self.aborts_conflict += 1,
            AbortCause::NotFound => self.aborts_not_found += 1,
            AbortCause::Duplicate => self.aborts_duplicate += 1,
            AbortCause::LogOverflow => self.aborts_log_overflow += 1,
            AbortCause::Other => self.aborts_other += 1,
        }
    }

    /// Add `ns` virtual nanoseconds to `phase` for the in-flight
    /// transaction.
    #[inline]
    pub fn phase_add(&mut self, phase: Phase, ns: u64) {
        self.pending[phase as usize] += ns;
    }

    /// Count a hinted flush that was issued.
    #[inline]
    pub fn flush_hinted_inc(&mut self) {
        self.flush_hinted += 1;
    }

    /// Count a hinted flush skipped because the tuple was hot.
    #[inline]
    pub fn flush_skipped_hot_inc(&mut self) {
        self.flush_skipped_hot += 1;
    }

    /// Count the start of a version-chain walk.
    #[inline]
    pub fn chain_walk_inc(&mut self) {
        self.version_chain_walks += 1;
    }

    /// Count one version visited during a chain walk.
    #[inline]
    pub fn chain_step_inc(&mut self) {
        self.version_chain_steps += 1;
    }

    /// Record a group-commit fence covering `batch` transactions.
    #[inline]
    pub fn group_fence_record(&mut self, batch: u64) {
        self.group_fences += 1;
        self.group_commit_txns += batch;
        self.group_batch_peak = self.group_batch_peak.max(batch);
    }

    /// Drain and return the in-flight per-phase span accumulator.
    #[inline]
    pub fn take_pending(&mut self) -> [u64; PHASES] {
        core::mem::take(&mut self.pending)
    }

    /// Discard the in-flight span accumulator (dropped transaction).
    #[inline]
    pub fn clear_pending(&mut self) {
        self.pending = [0; PHASES];
    }

    /// Fold another worker's counters into this one. Pending spans are
    /// not merged — they are per-attempt scratch, drained or cleared
    /// before a worker finishes.
    pub fn merge(&mut self, o: &EngineStats) {
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.aborts_conflict += o.aborts_conflict;
        self.aborts_not_found += o.aborts_not_found;
        self.aborts_duplicate += o.aborts_duplicate;
        self.aborts_log_overflow += o.aborts_log_overflow;
        self.aborts_other += o.aborts_other;
        self.log_appends += o.log_appends;
        self.log_append_bytes += o.log_append_bytes;
        self.log_wraps += o.log_wraps;
        self.log_overflow_spills += o.log_overflow_spills;
        self.log_spill_bytes += o.log_spill_bytes;
        self.log_full_stalls += o.log_full_stalls;
        self.flush_hinted += o.flush_hinted;
        self.flush_skipped_hot += o.flush_skipped_hot;
        self.hot_hits += o.hot_hits;
        self.hot_misses += o.hot_misses;
        self.hot_evictions += o.hot_evictions;
        self.version_allocs += o.version_allocs;
        self.version_frees += o.version_frees;
        self.version_chain_walks += o.version_chain_walks;
        self.version_chain_steps += o.version_chain_steps;
        self.recovery_committed_replayed += o.recovery_committed_replayed;
        self.recovery_uncommitted_discarded += o.recovery_uncommitted_discarded;
        self.ckpt_published += o.ckpt_published;
        self.ckpt_epoch = self.ckpt_epoch.max(o.ckpt_epoch);
        self.ckpt_dirty_writebacks += o.ckpt_dirty_writebacks;
        self.ckpt_dirty_peak = self.ckpt_dirty_peak.max(o.ckpt_dirty_peak);
        self.ckpt_backpressure_stalls += o.ckpt_backpressure_stalls;
        self.spill_bytes_truncated += o.spill_bytes_truncated;
        self.spill_truncations += o.spill_truncations;
        self.group_fences += o.group_fences;
        self.group_commit_txns += o.group_commit_txns;
        self.group_batch_peak = self.group_batch_peak.max(o.group_batch_peak);
    }
}

/// Serving-layer counters: admission, shedding, timeouts, retries, and
/// group-commit batch occupancy as seen at the network edge. One value
/// per server (the server's worker threads record into atomics and
/// snapshot into this struct), carried in the run report's optional
/// `server` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted past the admission cap into the engine queue.
    pub admitted: u64,
    /// Requests shed with a typed `Overloaded` response because the
    /// admission queue was full (never a silent drop).
    pub shed_overloaded: u64,
    /// Requests refused with a typed `ShuttingDown` response during
    /// drain.
    pub shed_shutting_down: u64,
    /// Frames rejected as malformed (`BadRequest` responses).
    pub bad_requests: u64,
    /// Connections reaped by the idle/read-timeout sweep.
    pub timeouts: u64,
    /// Connections accepted.
    pub conns_opened: u64,
    /// Connections closed (any reason: client EOF, error, reap, drain).
    pub conns_closed: u64,
    /// Transient-error retries performed by the execution loop.
    pub retries: u64,
    /// Requests whose retry budget ran out (`RetryExhausted` responses).
    pub retries_exhausted: u64,
    /// Group-commit batches executed (fences issued).
    pub batches: u64,
    /// Transactions covered by those batches; `batch_txns / batches`
    /// is mean batch occupancy.
    pub batch_txns: u64,
    /// Largest batch observed.
    pub batch_peak: u64,
}

impl ServerStats {
    /// Fold another server's counters into this one (sums everywhere
    /// except the batch peak, which maxes).
    pub fn merge(&mut self, o: &ServerStats) {
        self.admitted += o.admitted;
        self.shed_overloaded += o.shed_overloaded;
        self.shed_shutting_down += o.shed_shutting_down;
        self.bad_requests += o.bad_requests;
        self.timeouts += o.timeouts;
        self.conns_opened += o.conns_opened;
        self.conns_closed += o.conns_closed;
        self.retries += o.retries;
        self.retries_exhausted += o.retries_exhausted;
        self.batches += o.batches;
        self.batch_txns += o.batch_txns;
        self.batch_peak = self.batch_peak.max(o.batch_peak);
    }
}

/// Latency and span histograms for one transaction type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnTypeObs {
    /// Workload-defined transaction-type name (e.g. "payment").
    pub name: String,
    /// End-to-end committed-attempt latency (virtual ns).
    pub latency: Histogram,
    /// Per-[`Phase`] span time, indexed by `Phase as usize`.
    pub phases: Vec<Histogram>,
}

impl TxnTypeObs {
    /// Empty histograms for a named transaction type.
    pub fn new(name: &str) -> Self {
        TxnTypeObs {
            name: name.to_string(),
            latency: Histogram::new(),
            phases: vec![Histogram::new(); PHASES],
        }
    }
}

/// Everything the engine-side observability produced for one run:
/// merged worker counters plus per-transaction-type histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsRun {
    /// Engine counters summed over all workers.
    pub engine: EngineStats,
    /// One entry per workload transaction type.
    pub types: Vec<TxnTypeObs>,
    /// (txn_type × phase) device-cost matrix, when the harness ran
    /// with attribution enabled.
    pub cost: Option<CostMatrix>,
}

impl ObsRun {
    /// Empty run observability for the given transaction-type names.
    pub fn new(type_names: &[&str]) -> Self {
        ObsRun {
            engine: EngineStats::default(),
            types: type_names.iter().map(|n| TxnTypeObs::new(n)).collect(),
            cost: None,
        }
    }

    /// Fold another run (typically one worker thread) into this one.
    /// Transaction-type lists must match positionally.
    pub fn merge(&mut self, o: &ObsRun) {
        self.engine.merge(&o.engine);
        assert_eq!(self.types.len(), o.types.len(), "txn type mismatch");
        for (t, ot) in self.types.iter_mut().zip(o.types.iter()) {
            t.latency.merge(&ot.latency);
            for (h, oh) in t.phases.iter_mut().zip(ot.phases.iter()) {
                h.merge(oh);
            }
        }
        match (&mut self.cost, &o.cost) {
            (Some(a), Some(b)) => a.merge(b),
            (c @ None, Some(b)) => *c = Some(b.clone()),
            (_, None) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_causes_partition_aborts() {
        let mut s = EngineStats::default();
        for c in [
            AbortCause::Conflict,
            AbortCause::Conflict,
            AbortCause::NotFound,
            AbortCause::Duplicate,
            AbortCause::LogOverflow,
            AbortCause::Other,
        ] {
            s.abort_inc();
            s.abort_cause(c);
        }
        assert_eq!(s.aborts, 6);
        assert_eq!(
            s.aborts_conflict
                + s.aborts_not_found
                + s.aborts_duplicate
                + s.aborts_log_overflow
                + s.aborts_other,
            s.aborts
        );
    }

    #[test]
    fn pending_spans_drain() {
        let mut s = EngineStats::default();
        s.phase_add(Phase::IndexLookup, 10);
        s.phase_add(Phase::LogAppend, 5);
        s.phase_add(Phase::LogAppend, 5);
        let spans = s.take_pending();
        assert_eq!(spans[Phase::IndexLookup as usize], 10);
        assert_eq!(spans[Phase::LogAppend as usize], 10);
        assert_eq!(s.pending, [0; PHASES]);
    }

    #[test]
    fn merge_sums_counters_not_pending() {
        let mut a = EngineStats {
            commits: 1,
            log_appends: 3,
            ..Default::default()
        };
        let mut b = EngineStats {
            commits: 2,
            hot_hits: 7,
            ..Default::default()
        };
        b.phase_add(Phase::DataFlush, 99);
        a.merge(&b);
        assert_eq!(a.commits, 3);
        assert_eq!(a.log_appends, 3);
        assert_eq!(a.hot_hits, 7);
        assert_eq!(a.pending, [0; PHASES]);
    }

    #[test]
    fn obs_run_merges_types() {
        let mut a = ObsRun::new(&["read", "update"]);
        let mut b = ObsRun::new(&["read", "update"]);
        a.types[0].latency.record(100);
        b.types[0].latency.record(200);
        b.types[1].phases[Phase::DataFlush as usize].record(40);
        a.merge(&b);
        assert_eq!(a.types[0].latency.count(), 2);
        assert_eq!(a.types[1].phases[Phase::DataFlush as usize].count(), 1);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::ALL.len(), PHASES);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        assert_eq!(Phase::CommitFence.name(), "commit_fence");
        assert_eq!(Phase::Checkpoint.name(), "checkpoint");
        assert_eq!(Phase::GroupFence.name(), "group_fence");
        assert_eq!(AbortCause::LogOverflow.name(), "log_overflow");
    }

    #[test]
    fn group_fence_record_and_merge() {
        let mut a = EngineStats::default();
        a.group_fence_record(8);
        a.group_fence_record(3);
        assert_eq!((a.group_fences, a.group_commit_txns), (2, 11));
        assert_eq!(a.group_batch_peak, 8);
        let mut b = EngineStats::default();
        b.group_fence_record(16);
        a.merge(&b);
        assert_eq!((a.group_fences, a.group_commit_txns), (3, 27));
        assert_eq!(a.group_batch_peak, 16);
    }

    #[test]
    fn server_stats_merge_sums_and_maxes() {
        let mut a = ServerStats {
            admitted: 10,
            shed_overloaded: 2,
            batches: 3,
            batch_txns: 12,
            batch_peak: 6,
            ..Default::default()
        };
        let b = ServerStats {
            admitted: 5,
            retries: 4,
            retries_exhausted: 1,
            batches: 1,
            batch_txns: 8,
            batch_peak: 8,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.admitted, 15);
        assert_eq!(a.shed_overloaded, 2);
        assert_eq!(a.retries, 4);
        assert_eq!(a.retries_exhausted, 1);
        assert_eq!((a.batches, a.batch_txns, a.batch_peak), (4, 20, 8));
    }

    #[test]
    fn ckpt_merge_sums_counters_but_maxes_epoch_and_peak() {
        let mut a = EngineStats {
            ckpt_published: 2,
            ckpt_epoch: 5,
            ckpt_dirty_peak: 10,
            spill_bytes_truncated: 100,
            ..Default::default()
        };
        let b = EngineStats {
            ckpt_published: 3,
            ckpt_epoch: 4,
            ckpt_dirty_peak: 12,
            ckpt_backpressure_stalls: 1,
            spill_bytes_truncated: 50,
            spill_truncations: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ckpt_published, 5);
        assert_eq!(a.ckpt_epoch, 5);
        assert_eq!(a.ckpt_dirty_peak, 12);
        assert_eq!(a.ckpt_backpressure_stalls, 1);
        assert_eq!(a.spill_bytes_truncated, 150);
        assert_eq!(a.spill_truncations, 2);
    }
}
