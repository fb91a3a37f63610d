//! The measurement harness.
//!
//! Runs a [`Workload`] on N logical worker threads. Every thread owns a
//! [`Worker`] (and therefore a virtual clock); the harness paces the
//! clocks with a [`Pacer`] so transactions overlap realistically in
//! virtual time even when the host has fewer cores than workers.
//! Throughput is committed transactions divided by the *virtual*
//! makespan; latency is the virtual duration of a transaction from its
//! first attempt to its commit (aborted attempts retry and are counted).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem_sim::{DeviceStats, Pacer, ThreadStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use falcon_core::retry::mix64;
use falcon_core::table::TableDef;
use falcon_core::{device_capacity_for, Engine, EngineConfig, RetryPolicy, TxnError, Worker};
use falcon_obs::{cost::COST_COLS, AbortCause, CostMatrix, ObsRun};
use pmem_sim::{PmemDevice, SimConfig};

/// A benchmark workload.
pub trait Workload: Sync {
    /// Load the initial database (not measured).
    fn setup(&self, engine: &Engine);

    /// Execute one transaction attempt; returns the transaction-type
    /// index on commit. `Err(Conflict)` attempts are retried by the
    /// harness.
    fn txn(&self, engine: &Engine, w: &mut Worker, rng: &mut StdRng) -> Result<usize, TxnError>;

    /// Names of the transaction types (indexed by [`Workload::txn`]'s
    /// return value).
    fn txn_types(&self) -> &'static [&'static str];
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Logical worker threads.
    pub threads: usize,
    /// Committed transactions per thread (measurement phase).
    pub txns_per_thread: u64,
    /// Committed transactions per thread before the clocks reset
    /// (warm-up).
    pub warmup_per_thread: u64,
    /// Virtual-clock pacing quantum in ns.
    pub quantum_ns: u64,
    /// Retry policy for transient aborts: capped jittered-exponential
    /// backoff, advanced on the worker's virtual clock and deterministic
    /// from `seed`. The budget (`retry.max_attempts`) converts a
    /// persistently failing slot into a `dropped` count — the same
    /// policy falcon-server applies before answering `RetryExhausted`.
    pub retry: RetryPolicy,
    /// RNG seed base (thread `t` uses `seed + t`).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 4,
            txns_per_thread: 1_000,
            warmup_per_thread: 100,
            quantum_ns: 20_000,
            retry: RetryPolicy::default(),
            seed: 0x000F_A1C0,
        }
    }
}

/// Per-transaction-type latency summary.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Transaction-type name.
    pub name: &'static str,
    /// Committed count.
    pub count: u64,
    /// Mean latency in virtual ns.
    pub avg_ns: u64,
    /// 95th-percentile latency in virtual ns.
    pub p95_ns: u64,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Committed transactions (measurement phase).
    pub committed: u64,
    /// Aborted attempts (measurement phase).
    pub aborted: u64,
    /// Transactions given up on after the retry budget
    /// (`RunConfig::retry.max_attempts`) ran out. Each one consumed a
    /// slot of `txns_per_thread` without committing, so
    /// `committed + dropped == threads * txns_per_thread`.
    pub dropped: u64,
    /// Virtual makespan: the largest worker clock, ns.
    pub elapsed_ns: u64,
    /// Throughput in transactions per virtual second.
    pub txn_per_sec: f64,
    /// Per-type latency summaries.
    pub latency: Vec<LatencySummary>,
    /// Aggregated device statistics (measurement phase).
    pub stats: DeviceStats,
    /// Engine observability: merged per-worker counters plus
    /// per-transaction-type latency and phase histograms.
    pub obs: ObsRun,
}

impl RunResult {
    /// Throughput in millions of transactions per virtual second (the
    /// paper's unit).
    pub fn mtps(&self) -> f64 {
        self.txn_per_sec / 1e6
    }

    /// Abort ratio (aborts / attempts).
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }
}

/// Build an engine on a fresh simulated device sized for
/// `data_bytes` of loaded tuples (plus logs/index slack).
pub fn build_engine(
    cfg: EngineConfig,
    defs: &[TableDef],
    data_bytes: u64,
    sim: Option<SimConfig>,
) -> Engine {
    let cap = device_capacity_for(data_bytes, cfg.threads, defs.len());
    let sim = sim.unwrap_or_else(SimConfig::experiment).with_capacity(cap);
    let dev = PmemDevice::new(sim).expect("device");
    Engine::create(dev, cfg, defs).expect("engine")
}

/// Run `workload` on `engine` (which must already be set up) under
/// `cfg`.
pub fn run(engine: &Engine, workload: &dyn Workload, cfg: &RunConfig) -> RunResult {
    assert_eq!(
        engine.config().threads,
        cfg.threads,
        "engine must be opened for the harness thread count"
    );
    // Do not bill loader-era dirty cache lines to the measurement.
    engine.device().quiesce();
    let pacer = Arc::new(Pacer::new(cfg.threads, cfg.quantum_ns));
    let aborted_total = AtomicU64::new(0);
    let ntypes = workload.txn_types().len();

    struct ThreadOut {
        clock: u64,
        stats: ThreadStats,
        committed: u64,
        dropped: u64,
        lat: Vec<Vec<u64>>,
        obs: ObsRun,
    }

    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let pacer = Arc::clone(&pacer);
            let aborted_total = &aborted_total;
            handles.push(s.spawn(move || {
                // If this worker panics, release its pacer slot so the
                // other workers do not spin forever waiting for it.
                struct FinishGuard<'p>(&'p Pacer, usize);
                impl Drop for FinishGuard<'_> {
                    fn drop(&mut self) {
                        self.0.finish(self.1);
                    }
                }
                let _guard = FinishGuard(&pacer, t);
                let mut w = engine.worker(t).expect("worker");
                let mut rng = StdRng::seed_from_u64(cfg.seed + t as u64);
                let mut lat: Vec<Vec<u64>> = vec![Vec::new(); ntypes];
                let mut aborted = 0u64;

                // Warm-up: run, then reset clocks and stats.
                let mut done = 0;
                while done < cfg.warmup_per_thread {
                    if workload.txn(engine, &mut w, &mut rng).is_ok() {
                        done += 1;
                    }
                    pacer.pace(t, w.ctx.clock);
                }
                w.reset_clock();
                engine.obs_reset(&mut w);
                let mut obs = ObsRun::new(workload.txn_types());
                // Attribute device events to (txn_type, phase) from the
                // same instant the stats reset, so the matrix total
                // equals exactly what `w.ctx.stats` counts. Row ntypes
                // is the catch-all for dropped attempts and GC.
                w.ctx.attr_enable(ntypes + 1, COST_COLS);

                let mut committed = 0u64;
                let mut dropped = 0u64;
                while committed + dropped < cfg.txns_per_thread {
                    let start = w.ctx.clock;
                    let mut attempts = 0u64;
                    loop {
                        match workload.txn(engine, &mut w, &mut rng) {
                            Ok(ty) => {
                                let dt = w.ctx.clock - start;
                                lat[ty].push(dt);
                                // A phase that did not run is a zero
                                // sample; those are added in one step
                                // when the worker finishes.
                                let spans = w.obs.take_pending();
                                for (h, ns) in obs.types[ty].phases.iter_mut().zip(spans) {
                                    if ns != 0 {
                                        h.record(ns);
                                    }
                                }
                                // Charge the slot's cost — aborted
                                // retries included, matching the
                                // latency accounting — to the
                                // committed type.
                                w.ctx.attr_fold(ty);
                                committed += 1;
                                break;
                            }
                            Err(e) if e.transient() => {
                                w.obs.abort_cause(match e {
                                    TxnError::Conflict => AbortCause::Conflict,
                                    TxnError::Duplicate => AbortCause::Duplicate,
                                    TxnError::NotFound => AbortCause::NotFound,
                                    TxnError::LogOverflow => AbortCause::LogOverflow,
                                    _ => AbortCause::Other,
                                });
                                aborted += 1;
                                attempts += 1;
                                if !cfg.retry.allows(attempts) {
                                    // Budget exhausted: the slot is spent
                                    // but no commit happened. Discard any
                                    // phase spans the doomed attempts
                                    // accrued.
                                    dropped += 1;
                                    w.obs.clear_pending();
                                    w.ctx.attr_fold(ntypes);
                                    break;
                                }
                                // Jittered-exponential backoff on the
                                // virtual clock, seeded per (run, thread,
                                // slot) so reruns reproduce exactly.
                                let slot_seed =
                                    mix64(cfg.seed ^ mix64(t as u64) ^ mix64(committed + dropped));
                                w.ctx.clock += cfg.retry.backoff_ns(slot_seed, attempts - 1);
                            }
                            Err(e) => panic!("workload error on thread {t}: {e}"),
                        }
                        pacer.pace(t, w.ctx.clock);
                    }
                    engine.maybe_gc(&mut w);
                    // GC runs on no transaction's behalf: catch-all row.
                    w.ctx.attr_fold(ntypes);
                    pacer.pace(t, w.ctx.clock);
                }
                pacer.finish(t);
                aborted_total.fetch_add(aborted, Ordering::Relaxed);
                for (tobs, samples) in obs.types.iter_mut().zip(&lat) {
                    for &dt in samples {
                        tobs.latency.record(dt);
                    }
                    for h in &mut tobs.phases {
                        h.record_n(0, samples.len() as u64 - h.count());
                    }
                }
                obs.engine = engine.collect_obs(&w);
                if let Some(m) = w.ctx.attr_take() {
                    obs.cost = Some(CostMatrix::from_matrix(workload.txn_types(), m));
                }
                ThreadOut {
                    clock: w.ctx.clock,
                    stats: w.ctx.stats,
                    committed,
                    dropped,
                    lat,
                    obs,
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    let committed: u64 = outs.iter().map(|o| o.committed).sum();
    let dropped: u64 = outs.iter().map(|o| o.dropped).sum();
    let elapsed_ns = outs.iter().map(|o| o.clock).max().unwrap_or(0);
    let mut obs = ObsRun::new(workload.txn_types());
    for o in &outs {
        obs.merge(&o.obs);
    }
    let stats = DeviceStats::aggregate(outs.iter().map(|o| &o.stats));
    let mut latency = Vec::with_capacity(ntypes);
    for (ty, name) in workload.txn_types().iter().enumerate() {
        let mut all: Vec<u64> = outs
            .iter()
            .flat_map(|o| o.lat[ty].iter().copied())
            .collect();
        all.sort_unstable();
        let count = all.len() as u64;
        let avg = all.iter().sum::<u64>().checked_div(count).unwrap_or(0);
        let p95 = if count == 0 {
            0
        } else {
            all[((count as f64 * 0.95) as usize).min(all.len() - 1)]
        };
        latency.push(LatencySummary {
            name,
            count,
            avg_ns: avg,
            p95_ns: p95,
        });
    }
    let txn_per_sec = if elapsed_ns == 0 {
        0.0
    } else {
        committed as f64 * 1e9 / elapsed_ns as f64
    };
    RunResult {
        committed,
        aborted: aborted_total.load(Ordering::Relaxed),
        dropped,
        elapsed_ns,
        txn_per_sec,
        latency,
        stats,
        obs,
    }
}

/// Run the workload with race-mode tracing live and analyze the trace
/// with falcon-race's happens-before detector (feature `trace`).
///
/// The whole measurement phase — every worker thread — is recorded;
/// the returned report covers data races, lock discipline, and the
/// cross-thread persist-order rule R5. Traces grow with `threads ×
/// txns_per_thread`, so race-checked runs should use the small
/// configurations the check.sh gate uses, not benchmark scale.
#[cfg(feature = "trace")]
pub fn run_race_checked(
    engine: &Engine,
    workload: &dyn Workload,
    cfg: &RunConfig,
) -> (RunResult, falcon_race::RaceReport) {
    engine.device().quiesce();
    engine.device().trace_start_race();
    let result = run(engine, workload, cfg);
    engine.device().quiesce();
    let trace = engine.device().trace_take();
    (result, falcon_race::analyze(&trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = RunConfig::default();
        assert!(c.threads > 0 && c.quantum_ns > 0);
    }

    #[test]
    fn result_helpers() {
        let r = RunResult {
            committed: 1_000,
            aborted: 250,
            dropped: 0,
            elapsed_ns: 1_000_000,
            txn_per_sec: 1e9,
            latency: vec![],
            stats: DeviceStats::default(),
            obs: ObsRun::default(),
        };
        assert!((r.mtps() - 1e3).abs() < 1e-9);
        assert!((r.abort_ratio() - 0.2).abs() < 1e-9);
    }

    /// A workload whose every attempt conflicts: the retry cap must
    /// convert each transaction slot into a `dropped` count instead of
    /// spinning forever, and the totals must still add up.
    #[test]
    fn retry_cap_counts_dropped_transactions() {
        use falcon_core::table::{IndexKind, TableDef};
        use falcon_storage::{ColType, Schema};

        struct AlwaysConflict;
        impl Workload for AlwaysConflict {
            fn setup(&self, _engine: &Engine) {}
            fn txn(
                &self,
                _engine: &Engine,
                w: &mut Worker,
                _rng: &mut StdRng,
            ) -> Result<usize, TxnError> {
                // Advance the virtual clock so the pacer makes progress,
                // then report a conflict.
                w.ctx.clock += 100;
                Err(TxnError::Conflict)
            }
            fn txn_types(&self) -> &'static [&'static str] {
                &["doomed"]
            }
        }

        fn key(_schema: &Schema, row: &[u8]) -> u64 {
            u64::from_le_bytes(row[0..8].try_into().unwrap())
        }
        let def = TableDef {
            schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::U64)]),
            index_kind: IndexKind::Hash,
            capacity_hint: 64,
            primary_key: key,
            secondary: None,
        };
        let cfg = RunConfig {
            threads: 2,
            txns_per_thread: 5,
            warmup_per_thread: 0,
            quantum_ns: 1_000,
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            seed: 7,
        };
        let engine = build_engine(
            EngineConfig::falcon().with_threads(cfg.threads),
            &[def],
            1 << 20,
            None,
        );
        let r = run(&engine, &AlwaysConflict, &cfg);
        assert_eq!(r.committed, 0);
        assert_eq!(r.dropped, 10, "every slot must be given up on");
        assert_eq!(r.aborted, 30, "max_attempts attempts per dropped txn");
        assert_eq!(
            r.committed + r.dropped,
            cfg.threads as u64 * cfg.txns_per_thread,
            "accounting must balance"
        );
    }

    /// Every transient error class retries (not just `Conflict`), the
    /// backoff advances the virtual clock, and equal seeds reproduce the
    /// run bit-identically while different seeds diverge in elapsed
    /// time (the jitter is live).
    #[test]
    fn transient_retries_back_off_deterministically() {
        use falcon_core::table::{IndexKind, TableDef};
        use falcon_storage::{ColType, Schema};
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Cycles through all four transient errors, committing nothing.
        struct AllTransient(AtomicU64);
        impl Workload for AllTransient {
            fn setup(&self, _engine: &Engine) {}
            fn txn(
                &self,
                _engine: &Engine,
                w: &mut Worker,
                _rng: &mut StdRng,
            ) -> Result<usize, TxnError> {
                w.ctx.clock += 100;
                let n = self.0.fetch_add(1, Ordering::Relaxed);
                Err(match n % 4 {
                    0 => TxnError::Conflict,
                    1 => TxnError::Duplicate,
                    2 => TxnError::NotFound,
                    _ => TxnError::LogOverflow,
                })
            }
            fn txn_types(&self) -> &'static [&'static str] {
                &["doomed"]
            }
        }

        fn key(_schema: &Schema, row: &[u8]) -> u64 {
            u64::from_le_bytes(row[0..8].try_into().unwrap())
        }
        let def = || TableDef {
            schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::U64)]),
            index_kind: IndexKind::Hash,
            capacity_hint: 64,
            primary_key: key,
            secondary: None,
        };
        let run_with = |seed: u64| {
            let cfg = RunConfig {
                threads: 1,
                txns_per_thread: 4,
                warmup_per_thread: 0,
                quantum_ns: 1_000,
                retry: RetryPolicy {
                    max_attempts: 4,
                    base_delay_ns: 500,
                    max_delay_ns: 64_000,
                },
                seed,
            };
            let engine = build_engine(
                EngineConfig::falcon().with_threads(1),
                &[def()],
                1 << 20,
                None,
            );
            run(&engine, &AllTransient(AtomicU64::new(0)), &cfg)
        };

        let a = run_with(11);
        let b = run_with(11);
        let c = run_with(12);
        // LogOverflow (and every other transient class) retried: 4 slots
        // × 4 attempts, all dropped, accounting balanced.
        assert_eq!(a.committed, 0);
        assert_eq!(a.dropped, 4);
        assert_eq!(a.aborted, 16);
        assert_eq!(a.committed + a.dropped, 4);
        // Backoff advanced the clock beyond the workload's own 100ns
        // per attempt: 16 attempts × 100 = 1600 < elapsed.
        assert!(a.elapsed_ns > 1_600, "backoff must cost virtual time");
        // Determinism from the seed; divergence across seeds.
        assert_eq!(a.elapsed_ns, b.elapsed_ns, "same seed, same schedule");
        assert_ne!(a.elapsed_ns, c.elapsed_ns, "jitter must vary by seed");
    }

    /// Permanent errors must not be retried: the harness panics (the
    /// workload is broken), it does not spin the retry loop. The worker
    /// thread's panic surfaces through the join as "worker".
    #[test]
    #[should_panic(expected = "worker")]
    fn permanent_errors_panic_not_retry() {
        use falcon_core::table::{IndexKind, TableDef};
        use falcon_storage::{ColType, Schema};

        struct Broken;
        impl Workload for Broken {
            fn setup(&self, _engine: &Engine) {}
            fn txn(
                &self,
                _engine: &Engine,
                w: &mut Worker,
                _rng: &mut StdRng,
            ) -> Result<usize, TxnError> {
                w.ctx.clock += 100;
                Err(TxnError::ReadOnly)
            }
            fn txn_types(&self) -> &'static [&'static str] {
                &["broken"]
            }
        }

        fn key(_schema: &Schema, row: &[u8]) -> u64 {
            u64::from_le_bytes(row[0..8].try_into().unwrap())
        }
        let def = TableDef {
            schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::U64)]),
            index_kind: IndexKind::Hash,
            capacity_hint: 64,
            primary_key: key,
            secondary: None,
        };
        let cfg = RunConfig {
            threads: 1,
            txns_per_thread: 1,
            warmup_per_thread: 0,
            quantum_ns: 1_000,
            ..RunConfig::default()
        };
        let engine = build_engine(
            EngineConfig::falcon().with_threads(1),
            &[def],
            1 << 20,
            None,
        );
        let _ = run(&engine, &Broken, &cfg);
    }
}
