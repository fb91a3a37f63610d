#![warn(missing_docs)]

//! Chaos crash-injection driver for the Falcon reproduction.
//!
//! Every iteration builds a database, runs a seeded random workload
//! against one engine of the lineup, cuts power at an arbitrary device
//! event (via the pmem-sim [`FaultPlan`]), recovers, and checks the
//! recovered state against a committed-transaction oracle maintained
//! alongside the workload. Sampled iterations additionally re-crash in
//! the middle of recovery itself and inject media bit-rot into the log
//! window before recovering.
//!
//! Everything is a pure function of `(spec, iteration seed, cut index)`,
//! so any violation the fuzzer finds is replayable: the driver prints
//! exactly that tuple and `falcon-chaos --spec <label> --repro
//! <seed>:<cut>` re-runs the single failing iteration.
//!
//! # Oracle modes
//!
//! Under eADR the simulated cache is inside the persistence domain, so a
//! transaction whose `commit()` returned before the cut is durable in
//! full: the oracle is **strict** (every key holds exactly the last
//! committed value). Under ADR only flushed lines survive; engines that
//! flush and fence their log at commit (Outp) stay strict, while
//! deferred-flush in-place engines (Falcon, Inp) guarantee atomicity but
//! not immediate durability, so the oracle **relaxes** to membership:
//! every recovered value must be *some* committed (or initial) state of
//! that key — never an uncommitted or post-cut write.
//!
//! The transaction in flight when the plan trips is the *boundary*
//! transaction: its commit raced the power cut, so it may surface fully
//! applied or fully absent — but never partially.
//!
//! # The serving spec
//!
//! The last spec of the lineup, `falcon-serve`, swaps the random
//! transaction workload for `falcon_server::sim::run_loop` — the
//! virtual-clock driver of the `GroupCommitter` that also serves TCP —
//! and feeds its per-request records into the same oracle. Half of its
//! cuts are biased into a group-fence event bracket (found by a
//! same-seed calibration pass), and three serving-only checks ride on
//! top of the Strict verdict: an ack released before the cut implies a
//! write committed before the cut (*acked ⇒ durable*), no request ends
//! in an untyped `Error`, and requests shed at admission leave no
//! trace. See DESIGN.md §15.

use falcon_core::checkpoint;
use falcon_core::recovery::recover;
use falcon_core::table::TableDef;
use falcon_core::{CcAlgo, Engine, EngineConfig, EngineError, RetryPolicy, TxnError};
use falcon_index::nvm_btree::raise_splitting_flag;
use falcon_server::proto::{Op, Status, WriteOp, VALUE_BYTES};
use falcon_server::sim::{run_loop, LoopRun, ReqOutcome, SimSpec};
use falcon_server::store::{self, row_of, DEVICE_CAPACITY, TABLE, VALUE_OFF as STAMP_OFF};
use falcon_storage::layout::{index_slot, INDEX_SLOTS};
use falcon_storage::Catalog;
use pmem_sim::{BitFlip, FaultPlan, MemCtx, PAddr, PersistDomain, PmemDevice, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

pub use falcon_core::table::IndexKind;

/// How strictly the recovered state must match the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Every key holds exactly the last committed value (boundary
    /// transaction all-or-nothing).
    Strict,
    /// Every key holds *some* committed (or initial) value of that key;
    /// uncommitted and post-cut writes must never surface.
    Relaxed,
}

/// One engine configuration under test.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Display label, e.g. `falcon/OCC/eadr/hash`.
    pub label: String,
    /// Engine configuration (threads forced to 1 by the runner).
    pub cfg: EngineConfig,
    /// Persistence domain of the simulated device.
    pub domain: PersistDomain,
    /// Primary index structure of the chaos table.
    pub index: IndexKind,
    /// Oracle strictness for this engine/domain pair.
    pub oracle: OracleMode,
    /// Run the checkpoint-stress legs on sampled iterations: crash
    /// mid-epoch-publish, crash mid-spill-truncation, re-crash during
    /// checkpoint recovery, and bit-rot of the persisted checkpoint
    /// record. Only meaningful for specs whose tiny window and spill cap
    /// keep the checkpoint machinery constantly busy.
    pub ckpt_stress: bool,
    /// `Some(shape)` makes this the serving spec: the workload is the
    /// falcon-server serving loop of that shape (seeded per iteration),
    /// and [`ChaosConfig`]'s `keys`/`extra_keys`/`txns` do not apply.
    pub serving: Option<SimSpec>,
}

impl ChaosSpec {
    /// Effective `(keys, extra_keys)` workload sizing. B⁺-tree specs
    /// floor the baseline at one entry under the leaf capacity (62), so
    /// the iteration's first few inserts push the tree through a split
    /// *inside* the fault window — otherwise a 24-key workload never
    /// exercises the split paths the plane exists to crash.
    fn sizing(&self, cfg: &ChaosConfig) -> (u64, u64) {
        if let Some(shape) = &self.serving {
            return (shape.preload_keys, shape.key_space - shape.preload_keys);
        }
        match self.index {
            IndexKind::Hash => (cfg.keys, cfg.extra_keys),
            IndexKind::BTree => (cfg.keys.max(61), cfg.extra_keys.max(16)),
        }
    }
}

fn spec(
    cfg: EngineConfig,
    cc: CcAlgo,
    domain: PersistDomain,
    index: IndexKind,
    oracle: OracleMode,
) -> ChaosSpec {
    let d = match domain {
        PersistDomain::Eadr => "eadr",
        PersistDomain::Adr => "adr",
    };
    let ix = match index {
        IndexKind::Hash => "hash",
        IndexKind::BTree => "btree",
    };
    ChaosSpec {
        label: format!("{}/{}/{}/{}", cfg.name, cc.name(), d, ix),
        cfg: cfg.with_cc(cc).with_threads(1),
        domain,
        index,
        oracle,
        ckpt_stress: false,
        serving: None,
    }
}

/// Checkpoint-stress spec: Falcon under eADR with a 128-byte log slot
/// (any multi-record transaction overflows into the spill region) and
/// the minimum spill cap with an aggressive truncation threshold, so
/// boundary checkpoints, backpressure drains, and spill truncation all
/// fire continuously inside the fault window.
fn ckpt_spec(index: IndexKind) -> ChaosSpec {
    let mut cfg = EngineConfig::falcon().with_spill_cap(4096, 1024);
    cfg.name = "falcon-ckpt";
    cfg.window_bytes = 1024;
    cfg.window_slots = 8;
    let mut sp = spec(
        cfg,
        CcAlgo::Occ,
        PersistDomain::Eadr,
        index,
        OracleMode::Strict,
    );
    sp.ckpt_stress = true;
    sp
}

/// Group-commit spec: Falcon with the commit fence deferred to
/// `Engine::group_fence` (the serving layer's batching mode). The
/// workload never fences — every commit record reaches the device as an
/// unfenced store — which is exactly the window the serving layer's
/// crash oracle cuts inside. Under eADR stores are persistent at store
/// time, so the Strict oracle still holds: a transaction stamped
/// COMMITTED before the cut must survive recovery even though no fence
/// ever covered it.
fn group_spec(index: IndexKind) -> ChaosSpec {
    let mut cfg = EngineConfig::falcon().with_group_commit(true);
    cfg.name = "falcon-group";
    spec(
        cfg,
        CcAlgo::Occ,
        PersistDomain::Eadr,
        index,
        OracleMode::Strict,
    )
}

/// Serving spec: the falcon-server engine configuration (Falcon, OCC,
/// group commit) under the serving loop itself. The shape keeps the
/// admission cap below the wave volume so sheds occur inside the fault
/// window and the shed-leaves-no-trace check bites.
fn serve_spec() -> ChaosSpec {
    let mut cfg = store::server_engine_config();
    cfg.name = "falcon-serve";
    let mut sp = spec(
        cfg,
        CcAlgo::Occ,
        PersistDomain::Eadr,
        IndexKind::BTree,
        OracleMode::Strict,
    );
    sp.serving = Some(SimSpec {
        admission_cap: 6,
        group_max_batch: 4,
        waves: 4,
        ..SimSpec::default()
    });
    sp
}

/// The default lineup: Falcon, Inp, and Outp across concurrency-control
/// algorithms and both persistence domains, each once with the hash
/// index and once with the B⁺-tree — four specs per engine, so
/// `iterations` per spec gives `4 × iterations` crash points per engine.
/// The B⁺-tree specs additionally run the range-scan verification leg
/// every iteration and the re-crash-during-split-recovery leg on sampled
/// iterations.
///
/// Falcon appears only under eADR: its small log window deliberately
/// never flushes (the persistent cache *is* the durability domain), so
/// on an ADR device nothing orders its log ahead of its index writes —
/// that configuration is unsound by design, not a recovery bug.
///
/// Two Falcon stress variants ride along per index: the
/// checkpoint-squeeze spec ([`ckpt_spec`]) and the group-commit spec
/// ([`group_spec`]), whose commits are never fenced by the workload.
/// The serving spec ([`serve_spec`]) closes the lineup.
pub fn lineup() -> Vec<ChaosSpec> {
    use IndexKind::{BTree, Hash};
    use OracleMode::{Relaxed, Strict};
    use PersistDomain::{Adr, Eadr};
    let mut v = Vec::new();
    for ix in [Hash, BTree] {
        v.push(spec(EngineConfig::falcon(), CcAlgo::Occ, Eadr, ix, Strict));
        v.push(spec(
            EngineConfig::falcon(),
            CcAlgo::TwoPl,
            Eadr,
            ix,
            Strict,
        ));
        v.push(spec(EngineConfig::inp(), CcAlgo::To, Eadr, ix, Strict));
        v.push(spec(EngineConfig::inp(), CcAlgo::Occ, Adr, ix, Relaxed));
        v.push(spec(EngineConfig::outp(), CcAlgo::TwoPl, Eadr, ix, Strict));
        v.push(spec(EngineConfig::outp(), CcAlgo::Occ, Adr, ix, Strict));
        // Checkpoint stress: same oracle, but the engine is squeezed
        // into a 1 KiB window and a 4 KiB spill cap so every iteration
        // crashes an engine that is actively checkpointing, and sampled
        // iterations run the four dedicated checkpoint legs.
        v.push(ckpt_spec(ix));
        // Group commit: commits stamp without fencing, crash points
        // land between the stamp and any fence.
        v.push(group_spec(ix));
    }
    v.push(serve_spec());
    v
}

/// Fuzzing-loop configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Crash-recover-verify iterations per spec.
    pub iterations: u64,
    /// Base seed; iteration seeds are derived by a splitmix64 mix.
    pub seed: u64,
    /// Baseline keys loaded (durably) before the fault plan is armed.
    pub keys: u64,
    /// Additional key slots the workload may insert into.
    pub extra_keys: u64,
    /// Transactions per iteration (1–3 operations each).
    pub txns: u64,
    /// Run the re-crash-during-recovery and bit-rot legs every N
    /// iterations (0 = never).
    pub legs_every: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            iterations: 100,
            seed: 0x0043_4841_4F53, // "CHAOS"
            keys: 24,
            extra_keys: 8,
            txns: 24,
            legs_every: 8,
        }
    }
}

/// One oracle violation, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Spec label.
    pub spec: String,
    /// Iteration seed (workload and tear pattern).
    pub seed: u64,
    /// Absolute device-event index of the power cut (`None` = the plan
    /// never tripped: a clean end-of-workload crash).
    pub cut: Option<u64>,
    /// What went wrong.
    pub detail: String,
}

/// Aggregate outcome of fuzzing one spec.
#[derive(Debug, Clone, Default)]
pub struct SpecOutcome {
    /// Spec label.
    pub label: String,
    /// Iterations executed.
    pub iterations: u64,
    /// Iterations whose plan tripped (power cut mid-workload).
    pub tripped: u64,
    /// Torn records recovery classified across all iterations.
    pub torn_records: u64,
    /// Corrupt records recovery classified across all iterations.
    pub corrupt_records: u64,
    /// Windows salvaged across all iterations.
    pub windows_salvaged: u64,
    /// Mid-split index images salvaged by recovery across all
    /// iterations (`RecoveryReport::index_repairs`).
    pub index_repairs: u64,
    /// Re-crash-during-recovery legs executed.
    pub recrash_checks: u64,
    /// Range-scan verification legs executed (B⁺-tree specs).
    pub scan_checks: u64,
    /// Re-crash-during-split-recovery legs executed (B⁺-tree specs).
    pub split_recrash_checks: u64,
    /// Bit-rot legs executed.
    pub bitrot_checks: u64,
    /// Crash-mid-epoch-publish legs executed (ckpt-stress specs).
    pub ckpt_crash_checks: u64,
    /// Crash-mid-spill-truncation legs executed (ckpt-stress specs).
    pub ckpt_trunc_checks: u64,
    /// Re-crash-during-checkpoint-recovery legs executed.
    pub ckpt_recrash_checks: u64,
    /// Checkpoint-record bit-rot legs executed.
    pub ckpt_bitrot_checks: u64,
    /// Checkpoint records recovery classified as corrupt and fell back
    /// from (expected under the bit-rot leg, a violation anywhere else).
    pub ckpt_meta_corrupt: u64,
    /// Cuts that landed inside a group-fence event bracket (serving
    /// spec).
    pub fence_bracket_cuts: u64,
    /// Write acks released before the cut, summed (serving spec).
    pub acked_writes: u64,
    /// Requests shed at admission, summed (serving spec).
    pub sheds: u64,
    /// Oracle violations (empty on a clean run).
    pub violations: Vec<Violation>,
}

/// splitmix64: derive independent sub-seeds from one base seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The serving table's definition (`k:u64 | v:Bytes(56)`, stamp in the
/// first 8 value bytes) with the spec's primary index structure.
fn kv_def(index: IndexKind) -> TableDef {
    TableDef {
        index_kind: index,
        ..store::kv_def()
    }
}

fn row_bytes(k: u64, stamp: u64) -> Vec<u8> {
    row_of(k, &stamp.to_le_bytes())
}

/// Per-key committed history plus the boundary transaction's writes.
struct Oracle {
    /// Committed states of each key, in commit order (`None` = absent).
    history: Vec<Vec<Option<u64>>>,
    /// Last committed state of each key.
    latest: Vec<Option<u64>>,
    /// Final per-key states written by the boundary transaction, if any.
    boundary: Vec<(u64, Option<u64>)>,
}

impl Oracle {
    fn new(keys: u64, total: u64) -> Oracle {
        let init = |k: u64| if k < keys { Some(0) } else { None };
        Oracle {
            history: (0..total).map(|k| vec![init(k)]).collect(),
            latest: (0..total).map(init).collect(),
            boundary: Vec::new(),
        }
    }

    /// Record a fully durable commit.
    fn commit(&mut self, pending: &[(u64, Option<u64>)]) {
        for &(k, s) in Self::finals(pending) {
            self.latest[k as usize] = s;
            self.history[k as usize].push(s);
        }
    }

    /// Record the boundary transaction (raced the power cut).
    fn set_boundary(&mut self, pending: &[(u64, Option<u64>)]) {
        self.boundary = Self::finals(pending).to_vec();
    }

    /// Reduce an op list to the final state per key (last write wins).
    fn finals(pending: &[(u64, Option<u64>)]) -> &[(u64, Option<u64>)] {
        // Ops already deduplicate per key at generation time.
        pending
    }
}

/// Run the seeded workload, maintaining the oracle as commits land.
///
/// Deterministic in `(engine state, seed)`: a tripped fault plan does
/// not change live execution, so a calibration run and a cut run with
/// the same seed take identical paths.
fn run_workload(
    e: &Engine,
    dev: &PmemDevice,
    seed: u64,
    cfg: &ChaosConfig,
    total: u64,
    oracle: &mut Oracle,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = e.worker(0).expect("worker 0");
    let mut stamp = 1u64;
    for _ in 0..cfg.txns {
        let tripped_before = dev.fault_tripped();
        let mut t = e.begin(&mut w, false);
        let nops = rng.random_range(1..4u64);
        let mut pending: Vec<(u64, Option<u64>)> = Vec::new();
        let mut failed = false;
        for _ in 0..nops {
            let k = rng.random_range(0..total);
            if pending.iter().any(|&(pk, _)| pk == k) {
                // One op per key per transaction keeps the oracle's
                // final-state bookkeeping trivial.
                continue;
            }
            let present = oracle.latest[k as usize].is_some();
            let s = stamp;
            stamp += 1;
            let res = if !present {
                pending.push((k, Some(s)));
                t.insert(TABLE, &row_bytes(k, s))
            } else if rng.random_range(0..10u32) < 8 {
                pending.push((k, Some(s)));
                t.update(TABLE, k, &[(STAMP_OFF, &s.to_le_bytes())])
            } else {
                pending.push((k, None));
                t.delete(TABLE, k)
            };
            if res.is_err() {
                failed = true;
                break;
            }
        }
        if failed || pending.is_empty() {
            t.abort();
            continue;
        }
        if t.commit().is_ok() {
            if !dev.fault_tripped() {
                oracle.commit(&pending);
            } else if !tripped_before {
                oracle.set_boundary(&pending);
            }
            // Post-trip commits leave no durable trace; ignored.
        }
    }
}

/// The stamp a serving put carries in its first 8 value bytes.
fn stamp_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[0..8].try_into().unwrap())
}

/// Final per-key writes of a served request, given its typed status (a
/// `NotFound` delete changed nothing; an aborted batch left no trace).
fn writes_of(op: &Op, status: Status) -> Vec<(u64, Option<u64>)> {
    let write = |w: &WriteOp| match w {
        WriteOp::Put { key, value } => (*key, Some(stamp_of(value))),
        WriteOp::Delete { key } => (*key, None),
    };
    if status != Status::Ok {
        return Vec::new();
    }
    match op {
        Op::Put { key, value } => vec![(*key, Some(stamp_of(value)))],
        Op::Delete { key } => vec![(*key, None)],
        Op::Batch(ops) => ops.iter().map(write).collect(),
        _ => Vec::new(),
    }
}

/// One seeded run of the falcon-server serving loop of `shape`.
fn serve(e: &Engine, dev: &PmemDevice, shape: &SimSpec, seed: u64) -> LoopRun {
    let spec = SimSpec {
        seed,
        ..shape.clone()
    };
    run_loop(e, dev, &spec, &RetryPolicy::server())
}

/// Serving workload: run the falcon-server serving loop of `shape`
/// under the installed fault plan and fold its per-request records into
/// the oracle. The serving-only checks on the records themselves —
/// acked ⇒ committed before the trip, no untyped `Error` — land in
/// `r.problems`. Returns every stamp a request shed at admission would
/// have written: stamps are unique per request, so none may appear in
/// the recovered state. Deterministic in `(engine state, seed)`, like
/// [`run_workload`].
fn serve_workload(
    e: &Engine,
    dev: &PmemDevice,
    shape: &SimSpec,
    seed: u64,
    oracle: &mut Oracle,
    r: &mut IterResult,
) -> BTreeSet<u64> {
    let run = serve(e, dev, shape, seed);
    let mut shed_stamps = BTreeSet::new();
    for (i, req) in run.records.iter().enumerate() {
        match &req.outcome {
            ReqOutcome::Shed => {
                r.sheds += 1;
                let stamps = writes_of(&req.op, Status::Ok);
                shed_stamps.extend(stamps.iter().filter_map(|&(_, s)| s));
            }
            ReqOutcome::Done {
                status,
                acked,
                committed_pre_trip,
                boundary,
                wrote,
                ..
            } => {
                if *wrote && *acked {
                    r.acked_writes += 1;
                    if !committed_pre_trip {
                        r.problems.push(format!(
                            "request {i}: ack released for a write that did not \
                             commit before the cut"
                        ));
                    }
                }
                if *status == Status::Error {
                    r.problems
                        .push(format!("request {i}: untyped engine error"));
                }
                if *committed_pre_trip {
                    oracle.commit(&writes_of(&req.op, *status));
                } else if *boundary {
                    oracle.set_boundary(&writes_of(&req.op, *status));
                }
                // Post-trip commits leave no durable trace; ignored.
            }
        }
    }
    shed_stamps
}

/// Read every key's recovered state (`None` = absent). `Err` carries a
/// structural problem (key field mismatch, unexpected read error).
fn dump_states(e: &Engine, total: u64) -> Result<Vec<Option<u64>>, String> {
    let mut w = e.worker(0).map_err(|err| format!("worker: {err:?}"))?;
    let mut out = Vec::with_capacity(total as usize);
    for k in 0..total {
        let mut t = e.begin(&mut w, false);
        let state = match t.read(TABLE, k) {
            Ok(row) => {
                let kk = u64::from_le_bytes(row[0..8].try_into().unwrap());
                if kk != k {
                    return Err(format!("key {k}: row key field holds {kk}"));
                }
                Some(u64::from_le_bytes(row[8..16].try_into().unwrap()))
            }
            Err(TxnError::NotFound) => None,
            Err(err) => return Err(format!("key {k}: read failed: {err}")),
        };
        t.commit().map_err(|err| format!("key {k}: {err}"))?;
        out.push(state);
    }
    Ok(out)
}

/// Check the recovered state against the oracle.
fn verify(got: &[Option<u64>], oracle: &Oracle, mode: OracleMode) -> Vec<String> {
    let mut problems = Vec::new();
    let in_boundary = |k: u64| oracle.boundary.iter().any(|&(bk, _)| bk == k);
    match mode {
        OracleMode::Strict => {
            let all_b = !oracle.boundary.is_empty()
                && oracle.boundary.iter().all(|&(k, s)| got[k as usize] == s);
            let all_l = oracle
                .boundary
                .iter()
                .all(|&(k, _)| got[k as usize] == oracle.latest[k as usize]);
            if !all_b && !all_l {
                problems.push(format!(
                    "boundary txn partially applied: writes {:?}",
                    oracle.boundary
                ));
            }
            for (k, want) in oracle.latest.iter().enumerate() {
                if in_boundary(k as u64) {
                    continue; // covered by the all-or-nothing check
                }
                if got[k] != *want {
                    problems.push(format!(
                        "key {k}: recovered {:?}, last committed {want:?}",
                        got[k]
                    ));
                }
            }
        }
        OracleMode::Relaxed => {
            for (k, g) in got.iter().enumerate() {
                let b = oracle
                    .boundary
                    .iter()
                    .find(|&&(bk, _)| bk == k as u64)
                    .map(|&(_, s)| s);
                if !oracle.history[k].contains(g) && b != Some(*g) {
                    problems.push(format!(
                        "key {k}: recovered {g:?} is not any committed state {:?}",
                        oracle.history[k]
                    ));
                }
            }
        }
    }
    problems
}

/// Build the durable baseline database for a spec: create, load `keys`
/// rows, and push everything to media so the fault plan only governs
/// workload-era events.
fn make_base(sp: &ChaosSpec, cfg: &ChaosConfig) -> PmemDevice {
    let sim = SimConfig::small()
        .with_capacity(DEVICE_CAPACITY)
        .with_domain(sp.domain);
    let dev = PmemDevice::new(sim).expect("device");
    let e = Engine::create(dev.clone(), sp.cfg.clone(), &[kv_def(sp.index)]).expect("engine");
    let mut w = e.worker(0).expect("worker");
    let (keys, _) = sp.sizing(cfg);
    for k in 0..keys {
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row_bytes(k, 0)).expect("load insert");
        t.commit().expect("load commit");
    }
    drop(w);
    drop(e);
    dev.quiesce();
    dev
}

#[derive(Default)]
struct IterResult {
    events: u64,
    tripped: bool,
    torn: u64,
    corrupt: u64,
    salvaged: u64,
    repairs: u64,
    recrash_checked: bool,
    scan_checked: bool,
    split_recrash_checked: bool,
    bitrot_checked: bool,
    ckpt_crash_checked: bool,
    ckpt_trunc_checked: bool,
    ckpt_recrash_checked: bool,
    ckpt_bitrot_checked: bool,
    ckpt_meta_corrupt: u64,
    acked_writes: u64,
    sheds: u64,
    problems: Vec<String>,
}

/// Run one crash-recover-verify iteration. `cut = None` never trips
/// (the crash is a clean end-of-workload power loss) and doubles as the
/// event-count calibration for the next iteration's cut choice.
fn run_iteration(
    sp: &ChaosSpec,
    cfg: &ChaosConfig,
    base: &PmemDevice,
    seed: u64,
    cut: Option<u64>,
    legs: bool,
) -> IterResult {
    let defs = [kv_def(sp.index)];
    let (keys, extra) = sp.sizing(cfg);
    let total = keys + extra;
    let mut r = IterResult::default();
    let d = base.fork();
    d.install_fault_plan(match cut {
        Some(c) => FaultPlan::cut(seed, c),
        None => FaultPlan::calibrate(),
    });
    // Open the (clean) baseline image. The cut may land in here too —
    // that is a legal crash point; the oracle then expects baseline
    // state everywhere.
    let e = match recover(d.clone(), sp.cfg.clone(), &defs) {
        Ok((e, _)) => e,
        Err(err) => {
            r.problems.push(format!("opening recovery failed: {err:?}"));
            return r;
        }
    };
    let mut oracle = Oracle::new(keys, total);
    let shed_stamps = match &sp.serving {
        Some(shape) => serve_workload(&e, &d, shape, seed, &mut oracle, &mut r),
        None => {
            run_workload(&e, &d, seed, cfg, total, &mut oracle);
            BTreeSet::new()
        }
    };
    drop(e);
    d.crash();
    let outcome = d.fault_outcome().expect("plan consumed");
    r.events = outcome.events;
    r.tripped = outcome.tripped_at.is_some();
    let btree = sp.index == IndexKind::BTree;
    let ckpt_legs = legs && sp.ckpt_stress;
    let recrash_fork = legs.then(|| d.fork());
    let split_fork = (legs && btree).then(|| d.fork());
    let bitrot_fork = legs.then(|| d.fork());
    let ckpt_crash_fork = ckpt_legs.then(|| d.fork());
    let ckpt_trunc_fork = ckpt_legs.then(|| d.fork());
    let ckpt_recrash_fork = ckpt_legs.then(|| d.fork());
    let ckpt_bitrot_fork = ckpt_legs.then(|| d.fork());
    match recover(d, sp.cfg.clone(), &defs) {
        Ok((e2, rep)) => {
            r.torn = rep.torn_records;
            r.corrupt = rep.corrupt_records;
            r.salvaged = rep.windows_salvaged;
            r.repairs = rep.index_repairs;
            if sp.ckpt_stress && rep.ckpt_meta_corrupt > 0 {
                // The fenced swing must leave the record readable at
                // every cut point: exactly pre- or post-publish state.
                r.problems.push(format!(
                    "crash left {} checkpoint record(s) corrupt: the epoch \
                     publish must never be torn",
                    rep.ckpt_meta_corrupt
                ));
            }
            match dump_states(&e2, total) {
                Ok(got) => {
                    r.problems.extend(verify(&got, &oracle, sp.oracle));
                    for (k, g) in got.iter().enumerate() {
                        if let Some(s) = g.filter(|s| shed_stamps.contains(s)) {
                            r.problems.push(format!(
                                "key {k}: recovered stamp {s} belongs to a request \
                                 shed at admission"
                            ));
                        }
                    }
                    if btree {
                        scan_leg(&e2, &got, seed, &mut r.problems);
                        r.scan_checked = true;
                    }
                    if let Some(d3) = recrash_fork {
                        recrash_leg(sp, &defs, &d3, seed, &got, total, &mut r.problems);
                        r.recrash_checked = true;
                    }
                    if let Some(d5) = split_fork {
                        r.repairs +=
                            split_recrash_leg(sp, &defs, &d5, seed, &got, total, &mut r.problems);
                        r.split_recrash_checked = true;
                    }
                    if let Some(d6) = ckpt_crash_fork {
                        r.ckpt_crash_checked =
                            ckpt_cut_leg(sp, &defs, &d6, seed, &got, total, false, &mut r.problems);
                    }
                    if let Some(d7) = ckpt_trunc_fork {
                        r.ckpt_trunc_checked =
                            ckpt_cut_leg(sp, &defs, &d7, seed, &got, total, true, &mut r.problems);
                    }
                    if let Some(d8) = ckpt_recrash_fork {
                        r.ckpt_recrash_checked =
                            ckpt_recrash_leg(sp, &defs, &d8, seed, &got, total, &mut r.problems);
                    }
                    if let Some(d9) = ckpt_bitrot_fork {
                        r.ckpt_bitrot_checked =
                            ckpt_bitrot_leg(sp, &defs, &d9, seed, &got, total, &mut r);
                    }
                }
                Err(p) => r.problems.push(p),
            }
        }
        Err(err) => r.problems.push(format!("recovery failed: {err:?}")),
    }
    if let Some(d4) = bitrot_fork {
        bitrot_leg(sp, &defs, &d4, seed, total, &mut r);
        r.bitrot_checked = true;
    }
    r
}

/// Range-scan verification leg (B⁺-tree specs, every iteration): a full
/// ordered scan and seeded random sub-ranges must agree exactly with the
/// per-key point lookups in `got` — catching lost, duplicated, unordered
/// or cyclic leaf links that point lookups alone cannot see. (`got`
/// itself was verified against the committed-transaction oracle first,
/// so agreement with `got` is agreement with the oracle.)
fn scan_leg(e: &Engine, got: &[Option<u64>], seed: u64, problems: &mut Vec<String>) {
    let want: Vec<(u64, u64)> = got
        .iter()
        .enumerate()
        .filter_map(|(k, s)| s.map(|s| (k as u64, s)))
        .collect();
    let mut w = match e.worker(0) {
        Ok(w) => w,
        Err(err) => {
            problems.push(format!("scan worker: {err:?}"));
            return;
        }
    };
    let total = got.len() as u64;
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5CA9));
    // Range 0 is the full ordered scan; then random sub-ranges.
    for pass in 0..5u32 {
        let (lo, hi) = if pass == 0 {
            (0, u64::MAX)
        } else {
            let lo = rng.random_range(0..total);
            (lo, rng.random_range(lo..total))
        };
        let expect: Vec<(u64, u64)> = want
            .iter()
            .copied()
            .filter(|&(k, _)| k >= lo && k <= hi)
            .collect();
        let mut t = e.begin(&mut w, false);
        let mut scanned: Vec<(u64, u64)> = Vec::new();
        let res = t.scan(TABLE, lo, hi, |k, row| {
            scanned.push((k, u64::from_le_bytes(row[8..16].try_into().unwrap())));
            true
        });
        if let Err(err) = res {
            problems.push(format!("scan [{lo}, {hi}]: {err}"));
            t.abort();
            return;
        }
        if let Err(err) = t.commit() {
            problems.push(format!("scan [{lo}, {hi}] commit: {err}"));
            return;
        }
        if !scanned.windows(2).all(|p| p[0].0 < p[1].0) {
            problems.push(format!(
                "scan [{lo}, {hi}]: keys not strictly increasing (duplicated or unordered leaf links)"
            ));
            return;
        }
        if scanned != expect {
            problems.push(format!(
                "scan [{lo}, {hi}]: {} rows scanned but point lookups hold {}",
                scanned.len(),
                expect.len()
            ));
            return;
        }
    }
}

/// Re-crash-during-split-recovery leg (B⁺-tree specs, sampled
/// iterations): forge the first legal window of a split on a fork of
/// the crash image (the persistent `splitting` flag durably raised,
/// structure untouched), verify recovery counts the salvage, then cut
/// power at a random event *inside* that structural rebuild, recover
/// once more, and require the final state to match the uninterrupted
/// recovery's. Returns the repairs counted by the calibration run.
fn split_recrash_leg(
    sp: &ChaosSpec,
    defs: &[TableDef],
    d: &PmemDevice,
    seed: u64,
    want: &[Option<u64>],
    total: u64,
    problems: &mut Vec<String>,
) -> u64 {
    let mut ctx = MemCtx::new(0);
    // Table 0's primary index root lives in catalog index slot 0.
    raise_splitting_flag(d, index_slot(0), &mut ctx);
    let cal = d.fork();
    cal.install_fault_plan(FaultPlan::calibrate());
    let repairs = match recover(cal.clone(), sp.cfg.clone(), defs) {
        Ok((_, rep)) => {
            if rep.index_repairs == 0 {
                problems
                    .push("split-recrash: raised splitting flag produced no index repair".into());
            }
            rep.index_repairs
        }
        Err(err) => {
            problems.push(format!("split-recrash calibration failed: {err:?}"));
            return 0;
        }
    };
    let events = cal.fault_events().max(1);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x0005_B117));
    let cut = rng.random_range(0..events);
    d.install_fault_plan(FaultPlan::cut(mix(seed, 2), cut));
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e, _)) => drop(e),
        Err(err) => {
            problems.push(format!("split-recrash mid-cut recovery failed: {err:?}"));
            return repairs;
        }
    }
    d.crash();
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e2, _)) => match dump_states(&e2, total) {
            Ok(got) => {
                if got != want {
                    problems.push(format!(
                        "split-recrash at recovery event {cut}/{events} diverged from clean recovery"
                    ));
                }
            }
            Err(p) => problems.push(format!("post-split-recrash {p}")),
        },
        Err(err) => problems.push(format!("post-split-recrash recovery failed: {err:?}")),
    }
    repairs
}

/// Cut power in the middle of recovery itself, recover again, and
/// require the final state to match the uninterrupted recovery's.
fn recrash_leg(
    sp: &ChaosSpec,
    defs: &[TableDef],
    d: &PmemDevice,
    seed: u64,
    want: &[Option<u64>],
    total: u64,
    problems: &mut Vec<String>,
) {
    let cal = d.fork();
    cal.install_fault_plan(FaultPlan::calibrate());
    match recover(cal.clone(), sp.cfg.clone(), defs) {
        Ok((e, _)) => drop(e),
        Err(err) => {
            problems.push(format!("recrash calibration failed: {err:?}"));
            return;
        }
    }
    let events = cal.fault_events().max(1);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5EC0_4E41));
    let cut = rng.random_range(0..events);
    d.install_fault_plan(FaultPlan::cut(mix(seed, 1), cut));
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e, _)) => drop(e),
        Err(err) => {
            problems.push(format!("mid-cut recovery failed: {err:?}"));
            return;
        }
    }
    d.crash();
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e2, _)) => match dump_states(&e2, total) {
            Ok(got) => {
                if got != want {
                    problems.push(format!(
                        "re-crash at recovery event {cut}/{events} diverged from clean recovery"
                    ));
                }
            }
            Err(p) => problems.push(format!("post-recrash {p}")),
        },
        Err(err) => problems.push(format!("post-recrash recovery failed: {err:?}")),
    }
}

/// Flip seeded media bits inside the log window of the crashed image,
/// then recover: the engine must salvage (Ok) or refuse with a typed
/// error — never panic, never follow a wild pointer.
fn bitrot_leg(
    sp: &ChaosSpec,
    defs: &[TableDef],
    d: &PmemDevice,
    seed: u64,
    total: u64,
    r: &mut IterResult,
) {
    let mut ctx = MemCtx::new(0);
    let win = match Catalog::open(d.clone(), &mut ctx) {
        Ok(cat) => cat.log_window(0, &mut ctx),
        Err(err) => {
            r.problems
                .push(format!("bit-rot: catalog open failed: {err:?}"));
            return;
        }
    };
    if win == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xB17_407));
    let span = sp.cfg.window_bytes;
    let base = if sp.ckpt_stress {
        // With a 1 KiB window the slot headers are a large fraction of
        // the span, and a flip that turns a FREE state word into
        // COMMITTED resurrects a stale but internally-valid record —
        // indistinguishable from a genuine crash mid-apply, so the
        // structural-soundness contract below cannot hold over header
        // bytes. Confine rot to the record payload area; the dedicated
        // ckpt-bitrot leg rots the checkpoint metadata instead.
        let slots = sp.cfg.window_slots as u64;
        falcon_core::logwindow::slot_payload(PAddr(win), slots, span / slots, 0).0
    } else {
        win
    };
    let nflips = rng.random_range(1..4u64);
    let bit_flips = (0..nflips)
        .map(|_| BitFlip {
            addr: base + rng.random_range(0..span),
            bit: rng.random_range(0..8u32) as u8,
        })
        .collect();
    d.install_fault_plan(FaultPlan {
        seed,
        cut_at_event: None,
        tear_writes: false,
        bit_flips,
    });
    d.crash();
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e, rep)) => {
            r.torn += rep.torn_records;
            r.corrupt += rep.corrupt_records;
            // No oracle here (rot can eat committed records); reads must
            // still be structurally sound — unless the rot provably ate
            // a record recovery needed to repair a mid-apply tear, in
            // which case the loss must at least have been *counted*.
            // Undetected corruption is always a violation.
            if let Err(p) = dump_states(&e, total) {
                let noticed = rep.torn_records
                    + rep.corrupt_records
                    + rep.windows_salvaged
                    + rep.spill_truncated_refs;
                if noticed == 0 {
                    r.problems
                        .push(format!("bit-rot: undetected corruption: {p}"));
                }
            }
        }
        Err(EngineError::Corrupt(_)) => {} // typed refusal is a pass
        Err(err) => r
            .problems
            .push(format!("bit-rot: untyped recovery error: {err:?}")),
    }
}

/// Churn transactions driven by the checkpoint legs before the
/// bracketed explicit checkpoint.
const CHURN_TXNS: u64 = 9;

/// Churn stamps live far above workload stamps so the checkpoint legs'
/// verdicts can never confuse a churn write with a workload write.
const CHURN_STAMP_BASE: u64 = 1 << 32;

/// Committed-churn bookkeeping for the checkpoint legs, mirroring the
/// main [`Oracle`]'s strict eADR semantics over the churn transactions.
struct ChurnLog {
    /// Last stamp committed (pre-trip) to each key; `None` = untouched.
    latest: Vec<Option<u64>>,
    /// Writes of the churn transaction that raced the power cut.
    boundary: Vec<(u64, u64)>,
}

impl ChurnLog {
    fn new(total: u64) -> ChurnLog {
        ChurnLog {
            latest: vec![None; total as usize],
            boundary: Vec::new(),
        }
    }

    /// Record a churn commit with the same trip bookkeeping as the main
    /// workload: commits that finished before the plan tripped are
    /// durable (eADR), the one that raced the trip is the boundary.
    fn commit(&mut self, d: &PmemDevice, tripped_before: bool, tw: &[(u64, u64)]) {
        if !d.fault_tripped() {
            for &(k, s) in tw {
                self.latest[k as usize] = Some(s);
            }
        } else if !tripped_before {
            self.boundary = tw.to_vec();
        }
    }
}

/// The keys holding a row in the recovered pre-churn state.
fn present_keys(want: &[Option<u64>]) -> Vec<u64> {
    want.iter()
        .enumerate()
        .filter_map(|(k, s)| s.map(|_| k as u64))
        .collect()
}

/// Recover a fork, drive a deterministic spill-heavy churn over the
/// `present` keys (full-value updates overflow the 128-byte slots, and
/// periodic explicit checkpoints truncate the tail behind them), then
/// publish one final explicit checkpoint and return its device-event
/// bracket `[a, b)`: everything inside is dirty write-back, the fenced
/// epoch publish, and the spill-tail truncation, in that order.
///
/// Deterministic in `(image, seed)` — a tripped fault plan does not
/// change live execution — so a calibration run and a cut run with the
/// same seed take identical event paths.
fn churn_and_checkpoint(
    d: &PmemDevice,
    sp: &ChaosSpec,
    defs: &[TableDef],
    seed: u64,
    present: &[u64],
    log: &mut ChurnLog,
) -> Result<(u64, u64), String> {
    let (e, _) = recover(d.clone(), sp.cfg.clone(), defs)
        .map_err(|err| format!("churn recovery failed: {err:?}"))?;
    let mut w = e
        .worker(0)
        .map_err(|err| format!("churn worker: {err:?}"))?;
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xC4A1));
    let mut stamp = CHURN_STAMP_BASE;
    let mut val = [0u8; VALUE_BYTES];
    for i in 0..CHURN_TXNS {
        let tripped_before = d.fault_tripped();
        let mut t = e.begin(&mut w, false);
        let nops = rng.random_range(1..3u64);
        let mut tw: Vec<(u64, u64)> = Vec::new();
        let mut failed = false;
        for _ in 0..nops {
            let k = present[rng.random_range(0..present.len() as u64) as usize];
            if tw.iter().any(|&(pk, _)| pk == k) {
                continue;
            }
            let s = stamp;
            stamp += 1;
            val[0..8].copy_from_slice(&s.to_le_bytes());
            if t.update(TABLE, k, &[(STAMP_OFF, &val)]).is_err() {
                failed = true;
                break;
            }
            tw.push((k, s));
        }
        if failed || tw.is_empty() {
            t.abort();
            continue;
        }
        if t.commit().is_ok() {
            log.commit(d, tripped_before, &tw);
        }
        if i % 3 == 2 {
            e.checkpoint(&mut w);
        }
    }
    // Two guaranteed-spill transactions (two 112-byte records overflow
    // the 128-byte slot) so the bracketed checkpoint usually has a live
    // tail to truncate even right after a boundary checkpoint drained it.
    for _ in 0..2 {
        let tripped_before = d.fault_tripped();
        let mut t = e.begin(&mut w, false);
        let mut tw: Vec<(u64, u64)> = Vec::new();
        let mut failed = false;
        for &k in &[present[0], present[present.len() - 1]] {
            let s = stamp;
            stamp += 1;
            val[0..8].copy_from_slice(&s.to_le_bytes());
            if t.update(TABLE, k, &[(STAMP_OFF, &val)]).is_err() {
                failed = true;
                break;
            }
            tw.push((k, s));
        }
        if failed {
            t.abort();
        } else if t.commit().is_ok() {
            log.commit(d, tripped_before, &tw);
        }
    }
    let a = d.fault_events();
    e.checkpoint(&mut w);
    let b = d.fault_events();
    Ok((a, b.max(a + 2)))
}

/// Check a churn leg's recovered state against the churn log: every key
/// holds its last churn-committed stamp (or its pre-churn state when
/// untouched), and the boundary churn transaction is all-or-nothing.
fn verify_churn(
    leg: &str,
    got: &[Option<u64>],
    want: &[Option<u64>],
    log: &ChurnLog,
    problems: &mut Vec<String>,
) {
    let expected = |k: usize| log.latest[k].or(want[k]);
    let in_boundary = |k: u64| log.boundary.iter().any(|&(bk, _)| bk == k);
    if !log.boundary.is_empty() {
        let all_b = log
            .boundary
            .iter()
            .all(|&(k, s)| got[k as usize] == Some(s));
        let all_e = log
            .boundary
            .iter()
            .all(|&(k, _)| got[k as usize] == expected(k as usize));
        if !all_b && !all_e {
            problems.push(format!(
                "{leg}: boundary churn txn partially applied: writes {:?}",
                log.boundary
            ));
        }
    }
    for (k, g) in got.iter().enumerate() {
        if in_boundary(k as u64) {
            continue; // covered by the all-or-nothing check
        }
        let e = expected(k);
        if *g != e {
            problems.push(format!(
                "{leg}: key {k} recovered {g:?}, churn expects {e:?}"
            ));
        }
    }
}

/// Cut power *inside* an explicit checkpoint — in its publish half
/// (`late = false`, the dirty write-back and fenced epoch swing) or in
/// its truncation half (`late = true`, the spill-tail reclaim) — then
/// recover and hold the state to the strict churn oracle. The record
/// must also never read back corrupt: a cut at any point of the publish
/// leaves exactly the pre- or post-checkpoint epoch.
#[allow(clippy::too_many_arguments)]
fn ckpt_cut_leg(
    sp: &ChaosSpec,
    defs: &[TableDef],
    d: &PmemDevice,
    seed: u64,
    want: &[Option<u64>],
    total: u64,
    late: bool,
    problems: &mut Vec<String>,
) -> bool {
    let leg = if late { "ckpt-trunc" } else { "ckpt-crash" };
    let present = present_keys(want);
    if present.len() < 2 {
        return false;
    }
    // Calibrate the event bracket of the final explicit checkpoint.
    let cal = d.fork();
    cal.install_fault_plan(FaultPlan::calibrate());
    let (a, b) =
        match churn_and_checkpoint(&cal, sp, defs, seed, &present, &mut ChurnLog::new(total)) {
            Ok(v) => v,
            Err(p) => {
                problems.push(format!("{leg} calibration: {p}"));
                return false;
            }
        };
    let half = (b - a) / 2;
    let (lo, hi) = if late { (a + half, b) } else { (a, a + half) };
    let mut rng = StdRng::seed_from_u64(mix(seed, if late { 0xCC02 } else { 0xCC01 }));
    let cut = rng.random_range(lo..hi.max(lo + 1));
    d.install_fault_plan(FaultPlan::cut(mix(seed, 0xCC10 + u64::from(late)), cut));
    let mut log = ChurnLog::new(total);
    if let Err(p) = churn_and_checkpoint(d, sp, defs, seed, &present, &mut log) {
        problems.push(format!("{leg} churn: {p}"));
        return false;
    }
    d.crash();
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e, rep)) => {
            if rep.ckpt_meta_corrupt > 0 {
                problems.push(format!(
                    "{leg}: cut at event {cut} of [{a}, {b}) left the checkpoint record corrupt"
                ));
            }
            match dump_states(&e, total) {
                Ok(got) => verify_churn(leg, &got, want, &log, problems),
                Err(p) => problems.push(format!("{leg}: {p}")),
            }
        }
        Err(err) => problems.push(format!(
            "{leg}: recovery after cut at event {cut} of [{a}, {b}) failed: {err:?}"
        )),
    }
    true
}

/// Cut power in the middle of a recovery that must consume a published
/// checkpoint epoch and a truncated spill tail, recover again, and
/// require the final state to match the uninterrupted recovery's.
fn ckpt_recrash_leg(
    sp: &ChaosSpec,
    defs: &[TableDef],
    d: &PmemDevice,
    seed: u64,
    want: &[Option<u64>],
    total: u64,
    problems: &mut Vec<String>,
) -> bool {
    let present = present_keys(want);
    if present.len() < 2 {
        return false;
    }
    // Build a crash image with live checkpoint state to recover.
    d.install_fault_plan(FaultPlan::calibrate());
    let mut log = ChurnLog::new(total);
    if let Err(p) = churn_and_checkpoint(d, sp, defs, seed, &present, &mut log) {
        problems.push(format!("ckpt-recrash churn: {p}"));
        return false;
    }
    d.crash();
    // Uninterrupted reference recovery, which also calibrates the
    // recovery-only event count (read before the dump adds events).
    let cal = d.fork();
    cal.install_fault_plan(FaultPlan::calibrate());
    let (e_ref, rep) = match recover(cal.clone(), sp.cfg.clone(), defs) {
        Ok(v) => v,
        Err(err) => {
            problems.push(format!("ckpt-recrash reference recovery failed: {err:?}"));
            return false;
        }
    };
    let events = cal.fault_events().max(1);
    if rep.ckpt_epoch == 0 {
        problems.push("ckpt-recrash: churned image recovered without a published epoch".into());
    }
    let ref_got = match dump_states(&e_ref, total) {
        Ok(g) => g,
        Err(p) => {
            problems.push(format!("ckpt-recrash reference: {p}"));
            return true;
        }
    };
    drop(e_ref);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xCC03));
    let cut = rng.random_range(0..events);
    d.install_fault_plan(FaultPlan::cut(mix(seed, 0xCC13), cut));
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e, _)) => drop(e),
        Err(err) => {
            problems.push(format!("ckpt-recrash mid-cut recovery failed: {err:?}"));
            return true;
        }
    }
    d.crash();
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e2, _)) => match dump_states(&e2, total) {
            Ok(got) => {
                if got != ref_got {
                    problems.push(format!(
                        "ckpt-recrash at recovery event {cut}/{events} diverged from clean recovery"
                    ));
                }
            }
            Err(p) => problems.push(format!("post-ckpt-recrash {p}")),
        },
        Err(err) => problems.push(format!("post-ckpt-recrash recovery failed: {err:?}")),
    }
    true
}

/// Flip seeded media bits inside the persisted checkpoint record of the
/// crashed image, then recover: the corruption is confined to checkpoint
/// *metadata*, so recovery must succeed by falling back to the full
/// spill scan and reproduce exactly the states of a clean recovery.
fn ckpt_bitrot_leg(
    sp: &ChaosSpec,
    defs: &[TableDef],
    d: &PmemDevice,
    seed: u64,
    want: &[Option<u64>],
    total: u64,
    r: &mut IterResult,
) -> bool {
    let mut ctx = MemCtx::new(0);
    let area = match Catalog::open(d.clone(), &mut ctx) {
        Ok(cat) => {
            let wm = PAddr(cat.index_root(INDEX_SLOTS - 1, 0, &mut ctx));
            checkpoint::area_if_valid(d, wm)
        }
        Err(err) => {
            r.problems
                .push(format!("ckpt-bitrot: catalog open failed: {err:?}"));
            return false;
        }
    };
    let Some(area) = area else {
        return false;
    };
    // The single chaos worker's record (thread 0).
    let rec = checkpoint::record_addr(area, 0);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xCCB1));
    let nflips = rng.random_range(1..4u64);
    let bit_flips = (0..nflips)
        .map(|_| BitFlip {
            addr: rec.0 + rng.random_range(0..checkpoint::CKPT_STRIDE),
            bit: rng.random_range(0..8u32) as u8,
        })
        .collect();
    d.install_fault_plan(FaultPlan {
        seed,
        cut_at_event: None,
        tear_writes: false,
        bit_flips,
    });
    d.crash();
    match recover(d.clone(), sp.cfg.clone(), defs) {
        Ok((e, rep)) => {
            r.ckpt_meta_corrupt += rep.ckpt_meta_corrupt;
            match dump_states(&e, total) {
                Ok(got) => {
                    if got != want {
                        r.problems.push(
                            "ckpt-bitrot: rotted checkpoint metadata changed recovered row states"
                                .into(),
                        );
                    }
                }
                Err(p) => r.problems.push(format!("ckpt-bitrot: {p}")),
            }
        }
        Err(err) => r.problems.push(format!(
            "ckpt-bitrot: recovery must survive rotted checkpoint metadata: {err:?}"
        )),
    }
    true
}

/// Cut choice for the serving spec: a same-seed calibration pass counts
/// the run's device events and records the event bracket of every
/// group fence; half the cuts are then uniform over the run and half
/// land inside a random bracket — the window between a batch's commit
/// stamps and the fence that releases its acks. Returns the cut and
/// whether it is inside a bracket.
fn serving_cut(sp: &ChaosSpec, shape: &SimSpec, base: &PmemDevice, seed: u64) -> (u64, bool) {
    let cal = base.fork();
    cal.install_fault_plan(FaultPlan::calibrate());
    let (e, _) = recover(cal.clone(), sp.cfg.clone(), &[kv_def(sp.index)])
        .expect("the clean base image recovers");
    let brackets = serve(&e, &cal, shape, seed).fence_brackets;
    let events = cal.fault_events().max(1);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x00F0_0C75));
    let cut = if !brackets.is_empty() && rng.random_range(0..2u32) == 0 {
        let (b0, b1) = brackets[rng.random_range(0..brackets.len() as u64) as usize];
        b0 + rng.random_range(0..b1 - b0)
    } else {
        rng.random_range(0..events)
    };
    let in_bracket = brackets.iter().any(|&(b0, b1)| (b0..b1).contains(&cut));
    (cut, in_bracket)
}

/// Fuzz one spec for `cfg.iterations` iterations.
pub fn run_spec(sp: &ChaosSpec, cfg: &ChaosConfig) -> SpecOutcome {
    let base = make_base(sp, cfg);
    let mut out = SpecOutcome {
        label: sp.label.clone(),
        ..SpecOutcome::default()
    };
    let mut est_events: Option<u64> = None;
    for i in 0..cfg.iterations {
        let seed = mix(cfg.seed, i);
        let cut = match &sp.serving {
            Some(shape) => {
                let (cut, in_bracket) = serving_cut(sp, shape, &base, seed);
                out.fence_bracket_cuts += u64::from(in_bracket);
                Some(cut)
            }
            None => est_events.map(|e| {
                let mut rng = StdRng::seed_from_u64(mix(seed, 0xC07));
                rng.random_range(0..e.max(1))
            }),
        };
        let legs = cfg.legs_every != 0 && i % cfg.legs_every == cfg.legs_every - 1;
        let r = run_iteration(sp, cfg, &base, seed, cut, legs);
        est_events = Some(r.events.max(1));
        out.iterations += 1;
        out.tripped += u64::from(r.tripped);
        out.torn_records += r.torn;
        out.corrupt_records += r.corrupt;
        out.windows_salvaged += r.salvaged;
        out.index_repairs += r.repairs;
        out.recrash_checks += u64::from(r.recrash_checked);
        out.scan_checks += u64::from(r.scan_checked);
        out.split_recrash_checks += u64::from(r.split_recrash_checked);
        out.bitrot_checks += u64::from(r.bitrot_checked);
        out.ckpt_crash_checks += u64::from(r.ckpt_crash_checked);
        out.ckpt_trunc_checks += u64::from(r.ckpt_trunc_checked);
        out.ckpt_recrash_checks += u64::from(r.ckpt_recrash_checked);
        out.ckpt_bitrot_checks += u64::from(r.ckpt_bitrot_checked);
        out.ckpt_meta_corrupt += r.ckpt_meta_corrupt;
        out.acked_writes += r.acked_writes;
        out.sheds += r.sheds;
        for detail in r.problems {
            out.violations.push(Violation {
                spec: sp.label.clone(),
                seed,
                cut,
                detail,
            });
        }
    }
    out
}

/// Replay a single iteration from a printed `(seed, cut)` tuple, with
/// both sampled legs enabled. Returns the violations (empty = clean).
pub fn replay(sp: &ChaosSpec, cfg: &ChaosConfig, seed: u64, cut: Option<u64>) -> Vec<Violation> {
    let base = make_base(sp, cfg);
    run_iteration(sp, cfg, &base, seed, cut, true)
        .problems
        .into_iter()
        .map(|detail| Violation {
            spec: sp.label.clone(),
            seed,
            cut,
            detail,
        })
        .collect()
}

/// Fuzz every spec of the lineup.
pub fn run_lineup(cfg: &ChaosConfig) -> Vec<SpecOutcome> {
    lineup().iter().map(|sp| run_spec(sp, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_index::nvm_btree::sever_leaf_chain;

    fn btree_spec() -> ChaosSpec {
        lineup()
            .into_iter()
            .find(|s| s.index == IndexKind::BTree && s.domain == PersistDomain::Eadr)
            .expect("lineup has an eADR btree spec")
    }

    /// The post-recovery verifier must catch a clobbered split: sever
    /// the leaf chain of a multi-leaf base image (exactly the damage a
    /// buggy split could persist), raise the splitting flag, and require
    /// the oracle check to flag the lost keys — a salvage that silently
    /// drops data is a violation, not a recovery.
    #[test]
    fn verifier_catches_severed_leaf_chain() {
        let sp = btree_spec();
        // Enough baseline keys that the base tree spans several leaves.
        let cfg = ChaosConfig {
            keys: 200,
            ..ChaosConfig::default()
        };
        let (keys, extra) = sp.sizing(&cfg);
        let total = keys + extra;
        let d = make_base(&sp, &cfg).fork();
        let mut ctx = MemCtx::new(0);
        assert!(
            sever_leaf_chain(&d, index_slot(0), &mut ctx),
            "200-key base must span multiple leaves"
        );
        raise_splitting_flag(&d, index_slot(0), &mut ctx);
        d.crash();
        let (e, rep) =
            recover(d, sp.cfg.clone(), &[kv_def(sp.index)]).expect("truncated chain salvages");
        assert!(rep.index_repairs >= 1, "salvage must be counted");
        let oracle = Oracle::new(keys, total);
        let got = dump_states(&e, total).expect("dump");
        let problems = verify(&got, &oracle, sp.oracle);
        assert!(
            !problems.is_empty(),
            "oracle must flag the keys lost behind the severed link"
        );
        // The scan leg agrees with point lookups (both see the truncated
        // tree), so it stays quiet here — the oracle is what catches it.
        let mut scan_problems = Vec::new();
        scan_leg(&e, &got, 1, &mut scan_problems);
        assert!(scan_problems.is_empty(), "{scan_problems:?}");
    }

    /// The checkpoint-stress specs must actually execute all four
    /// checkpoint legs on sampled iterations and come back clean — the
    /// epoch publish, the truncation, the checkpoint recovery, and the
    /// metadata bit-rot fallback all crash-consistent.
    #[test]
    fn ckpt_stress_legs_run_and_stay_clean() {
        let sp = lineup()
            .into_iter()
            .find(|s| s.ckpt_stress && s.index == IndexKind::Hash)
            .expect("lineup has a ckpt-stress hash spec");
        let cfg = ChaosConfig {
            iterations: 3,
            legs_every: 1,
            ..ChaosConfig::default()
        };
        let out = run_spec(&sp, &cfg);
        assert_eq!(out.iterations, 3);
        assert!(
            out.ckpt_crash_checks >= 1
                && out.ckpt_trunc_checks >= 1
                && out.ckpt_recrash_checks >= 1
                && out.ckpt_bitrot_checks >= 1,
            "all four checkpoint legs must run: {out:?}"
        );
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
    }

    /// The scan leg must catch a scan/point-lookup divergence: a forged
    /// flag makes recovery rebuild the inner structure from the chain,
    /// and the scan leg then cross-checks every row three ways.
    #[test]
    fn split_recovery_preserves_scan_point_agreement() {
        let sp = btree_spec();
        let cfg = ChaosConfig {
            keys: 150,
            ..ChaosConfig::default()
        };
        let (keys, extra) = sp.sizing(&cfg);
        let total = keys + extra;
        let d = make_base(&sp, &cfg).fork();
        let mut ctx = MemCtx::new(0);
        raise_splitting_flag(&d, index_slot(0), &mut ctx);
        d.crash();
        let (e, rep) = recover(d, sp.cfg.clone(), &[kv_def(sp.index)]).expect("recover");
        assert_eq!(rep.index_repairs, 1);
        let got = dump_states(&e, total).expect("dump");
        let oracle = Oracle::new(keys, total);
        assert!(verify(&got, &oracle, sp.oracle).is_empty());
        let mut problems = Vec::new();
        scan_leg(&e, &got, 7, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }
}
