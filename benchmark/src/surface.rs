//! The one file that calls into the repository's crates.
//!
//! Performance changes may not edit `benchmark/`, so the functions used
//! here are the API the benchmark freezes; `README.md` lists them. The
//! rest of the benchmark imports repository types and functions only
//! through this module.
//!
//! Two rules keep later changes possible without touching this file:
//! rows returned by `Txn::read` are only ever looked at through
//! `AsRef<[u8]>` / `len()` (so it may return a borrowed view one day),
//! and embedded workloads are driven only through
//! `falcon_wl::Workload::txn` — there is no private copy of YCSB or
//! TPC-C here.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use falcon_core::{recover, CcAlgo, EngineConfig, RetryPolicy};
use falcon_server::proto::{self, Op, Request, Response, Status};
use falcon_server::sim::{run_loop, ReqOutcome, SimSpec};
use falcon_server::{store, ServerConfig};
use falcon_storage::tuple::TupleRef;
use falcon_wl::harness::{build_engine, run, RunConfig};
use falcon_wl::tpcc::{self, TpccScale};
use falcon_wl::ycsb::{self, Dist, YcsbConfig, YcsbWorkload};
use falcon_wl::zipf::Zipfian;
use pmem_sim::{FaultPlan, PAddr, SimConfig, ThreadStats};
use rand::SeedableRng;

pub use falcon_core::{Engine, TxnError, Worker};
pub use falcon_server::ServerHandle;
pub use falcon_wl::harness::Workload;
pub use falcon_wl::{Tpcc, Ycsb};
pub use pmem_sim::{MemCtx, PmemDevice};
pub use rand::rngs::StdRng;

use crate::gen::KvOp;

// ----------------------------------------------------------------------
// Embedded workloads: construction.
// ----------------------------------------------------------------------

/// Rows in the YCSB table: 64 Ki × 1 008 B ≈ 66 MB against the 4 MB
/// simulated cache of `SimConfig::experiment()` — the
/// larger-than-cache case.
pub const YCSB_RECORDS: u64 = 64 << 10;

/// The YCSB table id.
pub const YCSB_TABLE: u32 = ycsb::TABLE;

/// TPC-C warehouses (`TpccScale::bench()` cardinalities otherwise).
pub const TPCC_WAREHOUSES: u64 = 2;

/// The engine every embedded workload runs on: the paper's Falcon
/// (in-place, small log window, selective flush, NVM indexes), OCC.
fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig::falcon()
        .with_cc(CcAlgo::Occ)
        .with_threads(threads)
}

/// A workload with the engine it was loaded into.
pub struct Loaded<W> {
    /// The workload driver (`Workload::txn` source).
    pub workload: W,
    /// The engine holding its tables.
    pub engine: Engine,
}

/// Create the engine and load YCSB-C (`read_only`) or YCSB-A,
/// Zipfian θ = 0.99, one worker.
pub fn load_ycsb(read_only: bool) -> Loaded<Ycsb> {
    let letter = if read_only {
        YcsbWorkload::C
    } else {
        YcsbWorkload::A
    };
    let y = Ycsb::new(YcsbConfig::new(letter, Dist::Zipfian).with_records(YCSB_RECORDS));
    let data = YCSB_RECORDS * (u64::from(y.config().tuple_size()) + 64);
    let engine = build_engine(engine_config(1), &[y.table_def()], data * 2, None);
    y.setup(&engine);
    Loaded {
        workload: y,
        engine,
    }
}

/// Create the engine and load TPC-C for `threads` workers. The device
/// is sized for growth: `txns` transactions insert roughly 2 KB each
/// (orders, order lines, history, index nodes).
pub fn load_tpcc(threads: usize, txns: u64) -> Loaded<Tpcc> {
    let t = Tpcc::new(TpccScale::bench().with_warehouses(TPCC_WAREHOUSES));
    let data = t.scale().approx_bytes() * 2 + txns * 2048;
    let engine = build_engine(engine_config(threads), &t.table_defs(), data, None);
    t.setup(&engine);
    Loaded {
        workload: t,
        engine,
    }
}

// ----------------------------------------------------------------------
// Embedded workloads: running through the repository's harness.
// ----------------------------------------------------------------------

/// Simulated-device counters of a measured window (sum over workers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Cache-model line accesses.
    pub accesses: u64,
    /// Of those, misses.
    pub cache_misses: u64,
    /// Media block reads serving miss fills.
    pub media_fill_reads: u64,
    /// Dirty lines written back by capacity eviction.
    pub evictions: u64,
    /// Dirty lines written back by `clwb`.
    pub clwb_writebacks: u64,
    /// `clwb` issued.
    pub clwb: u64,
    /// `sfence` issued.
    pub sfence: u64,
    /// 256 B media block writes.
    pub media_block_writes: u64,
    /// Of those, read-modify-write (partially dirty block).
    pub media_rmw: u64,
}

impl From<ThreadStats> for Counters {
    fn from(s: ThreadStats) -> Counters {
        Counters {
            accesses: s.accesses,
            cache_misses: s.cache_misses,
            media_fill_reads: s.media_fill_reads,
            evictions: s.evictions,
            clwb_writebacks: s.clwb_writebacks,
            clwb: s.clwb_issued,
            sfence: s.sfences,
            media_block_writes: s.media_block_writes,
            media_rmw: s.media_rmw,
        }
    }
}

impl Counters {
    /// Field-wise sum.
    pub fn plus(&self, o: &Counters) -> Counters {
        Counters {
            accesses: self.accesses + o.accesses,
            cache_misses: self.cache_misses + o.cache_misses,
            media_fill_reads: self.media_fill_reads + o.media_fill_reads,
            evictions: self.evictions + o.evictions,
            clwb_writebacks: self.clwb_writebacks + o.clwb_writebacks,
            clwb: self.clwb + o.clwb,
            sfence: self.sfence + o.sfence,
            media_block_writes: self.media_block_writes + o.media_block_writes,
            media_rmw: self.media_rmw + o.media_rmw,
        }
    }

    /// Counters accumulated since the earlier snapshot `then`.
    pub fn since(&self, then: &Counters) -> Counters {
        Counters {
            accesses: self.accesses - then.accesses,
            cache_misses: self.cache_misses - then.cache_misses,
            media_fill_reads: self.media_fill_reads - then.media_fill_reads,
            evictions: self.evictions - then.evictions,
            clwb_writebacks: self.clwb_writebacks - then.clwb_writebacks,
            clwb: self.clwb - then.clwb,
            sfence: self.sfence - then.sfence,
            media_block_writes: self.media_block_writes - then.media_block_writes,
            media_rmw: self.media_rmw - then.media_rmw,
        }
    }
}

/// Bytes in a media block (`media_bytes_per_txn` multiplies by it).
pub const MEDIA_BLOCK: u64 = pmem_sim::MEDIA_BLOCK;

/// Bytes in a cache line.
pub const CACHE_LINE: u64 = pmem_sim::CACHE_LINE;

/// What `falcon_wl::harness::run` reported for one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    /// Transaction slots requested (`threads × txns_per_thread`).
    pub requested: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted attempts (conflicts and TPC-C spec rollbacks).
    pub aborted: u64,
    /// Slots given up on after the retry budget.
    pub dropped: u64,
    /// Virtual makespan (the largest worker clock), ns.
    pub virt_elapsed_ns: u64,
    /// Device counters of the measured phase.
    pub counters: Counters,
}

/// Run `workload` on `engine` through the repository's harness: real
/// threads, the `Pacer`, its retry policy and GC calls. `warm` commits
/// per thread run first; the harness then resets clocks and counters.
pub fn run_harness(
    engine: &Engine,
    workload: &dyn Workload,
    txns_per_thread: u64,
    warm_per_thread: u64,
    seed: u64,
) -> RunOutcome {
    let threads = engine.config().threads;
    let cfg = RunConfig {
        threads,
        txns_per_thread,
        warmup_per_thread: warm_per_thread,
        seed,
        ..RunConfig::default()
    };
    let r = run(engine, workload, &cfg);
    RunOutcome {
        requested: threads as u64 * txns_per_thread,
        committed: r.committed,
        aborted: r.aborted,
        dropped: r.dropped,
        virt_elapsed_ns: r.elapsed_ns,
        counters: r.stats.total.into(),
    }
}

/// `Workload::txn`: one transaction attempt, as the harness makes it.
pub fn workload_txn(
    wl: &dyn Workload,
    engine: &Engine,
    w: &mut Worker,
    rng: &mut StdRng,
) -> Result<usize, TxnError> {
    wl.txn(engine, w, rng)
}

/// `Workload::txn_types`: names indexed by `workload_txn`'s result.
pub fn workload_types(wl: &dyn Workload) -> &'static [&'static str] {
    wl.txn_types()
}

/// Logical thread id of a worker.
pub fn worker_thread(w: &Worker) -> usize {
    w.thread
}

/// A worker's virtual clock, ns.
pub fn worker_clock(w: &Worker) -> u64 {
    w.ctx.clock
}

/// Device counters a worker has accumulated.
pub fn worker_counters(w: &Worker) -> Counters {
    w.ctx.stats.into()
}

/// `(checkpoints published, backpressure stalls)` of a worker so far.
pub fn worker_ckpt(w: &Worker) -> (u64, u64) {
    let s = w.ckpt_stats();
    (s.published, s.backpressure_stalls)
}

/// A fresh worker for `thread` (call between harness runs only).
pub fn worker(engine: &Engine, thread: usize) -> Worker {
    engine.worker(thread).expect("engine worker")
}

// ----------------------------------------------------------------------
// Power cut and recovery.
// ----------------------------------------------------------------------

/// Count mutating device events from now on without ever cutting.
pub fn arm_calibration(engine: &Engine) {
    engine.device().install_fault_plan(FaultPlan::calibrate());
}

/// Mutating device events since the last plan was armed.
pub fn fault_events(engine: &Engine) -> u64 {
    engine.device().fault_events()
}

/// Cut power at mutating event `at` (torn writes on): execution goes
/// on, but the next crash restores the image as of that event.
pub fn arm_cut(engine: &Engine, seed: u64, at: u64) {
    engine.device().install_fault_plan(FaultPlan::cut(seed, at));
}

/// What recovery reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOutcome {
    /// The armed cut was reached before the crash.
    pub tripped: bool,
    /// Host time of `recover()`, ms.
    pub host_ms: f64,
    /// `RecoveryReport.total_ns`.
    pub total_virt_ns: u64,
    /// Catalog + DRAM structure initialisation, virtual ns.
    pub catalog_virt_ns: u64,
    /// Index attach / repair, virtual ns.
    pub index_virt_ns: u64,
    /// Log-window replay, virtual ns.
    pub replay_virt_ns: u64,
    /// Committed transactions replayed from windows.
    pub committed_replayed: u64,
    /// Uncommitted transactions rolled back.
    pub uncommitted_discarded: u64,
}

/// Crash the engine's device (applying the armed plan) and recover a
/// new engine from the surviving image.
pub fn crash_and_recover(engine: Engine) -> Result<(Engine, RecoveryOutcome), String> {
    let dev = engine.device().clone();
    let cfg = engine.config().clone();
    let defs = engine.table_defs().to_vec();
    drop(engine);
    dev.crash();
    let tripped = dev.fault_outcome().is_some_and(|o| o.tripped_at.is_some());
    let t0 = Instant::now();
    let (engine, rep) = recover(dev, cfg, &defs).map_err(|e| format!("recover: {e:?}"))?;
    let host_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((
        engine,
        RecoveryOutcome {
            tripped,
            host_ms,
            total_virt_ns: rep.total_ns,
            catalog_virt_ns: rep.catalog_ns,
            index_virt_ns: rep.index_ns,
            replay_virt_ns: rep.replay_ns,
            committed_replayed: rep.committed_replayed as u64,
            uncommitted_discarded: rep.uncommitted_discarded as u64,
        },
    ))
}

// ----------------------------------------------------------------------
// Output checks.
// ----------------------------------------------------------------------

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// YCSB after recovery: every loaded key is readable, its row has the
/// full width and carries its own key, and the index holds exactly the
/// loaded rows. Returns the rows checked.
pub fn check_ycsb(engine: &Engine) -> Result<u64, String> {
    let width = engine.table(YCSB_TABLE).tuple_size() as usize;
    let mut w = worker(engine, 0);
    for key in 0..YCSB_RECORDS {
        let mut t = engine.begin(&mut w, true);
        let row = t
            .read(YCSB_TABLE, key)
            .map_err(|e| format!("key {key} unreadable after recovery: {e}"))?;
        let bytes: &[u8] = row.as_ref();
        if bytes.len() != width || le_u64(bytes) != key {
            return Err(format!("key {key}: row does not carry its key"));
        }
        t.commit().map_err(|e| format!("key {key}: {e}"))?;
    }
    let indexed = engine.table(YCSB_TABLE).primary.len(&mut w.ctx);
    if indexed != YCSB_RECORDS {
        return Err(format!("index holds {indexed} rows, loaded {YCSB_RECORDS}"));
    }
    Ok(YCSB_RECORDS)
}

/// TPC-C money invariant: every warehouse's `W_YTD` equals the sum of
/// its districts' `D_YTD` (Payment updates both in one transaction, so
/// a recovered image that splits one is off by at least 1.00). Returns
/// the warehouses checked.
pub fn check_tpcc(engine: &Engine, t: &Tpcc) -> Result<u64, String> {
    let ytd = |row: &[u8], off: u32| {
        f64::from_le_bytes(row[off as usize..][..8].try_into().expect("8 bytes"))
    };
    let mut w = worker(engine, 0);
    let scale = t.scale();
    for wh in 1..=scale.warehouses {
        let mut txn = engine.begin(&mut w, true);
        let row = txn
            .read(tpcc::WAREHOUSE, tpcc::wh_key(wh))
            .map_err(|e| format!("warehouse {wh}: {e}"))?;
        let w_ytd = ytd(row.as_ref(), tpcc::col::W_YTD);
        let mut d_sum = 0.0;
        for d in 1..=scale.districts {
            let row = txn
                .read(tpcc::DISTRICT, tpcc::dist_key(wh, d))
                .map_err(|e| format!("district {wh}/{d}: {e}"))?;
            d_sum += ytd(row.as_ref(), tpcc::col::D_YTD);
        }
        txn.commit().map_err(|e| format!("warehouse {wh}: {e}"))?;
        // Amounts are multiples of 0.01; rounding error of the two
        // summation orders is far below half a cent.
        if (w_ytd - d_sum).abs() > 0.005 {
            return Err(format!(
                "warehouse {wh}: W_YTD {w_ytd} != sum(D_YTD) {d_sum}"
            ));
        }
    }
    Ok(scale.warehouses)
}

/// The serving fixture after recovery: every preloaded key is
/// readable and its row carries its key. Returns the rows checked.
pub fn check_kv(engine: &Engine) -> Result<u64, String> {
    let mut w = worker(engine, 0);
    for key in 0..KV_KEYS {
        let mut t = engine.begin(&mut w, true);
        let row = t
            .read(KV_TABLE, key)
            .map_err(|e| format!("fixture key {key} unreadable after recovery: {e}"))?;
        if le_u64(row.as_ref()) != key {
            return Err(format!("fixture key {key}: row does not carry its key"));
        }
        t.commit().map_err(|e| format!("fixture key {key}: {e}"))?;
    }
    Ok(KV_KEYS)
}

// ----------------------------------------------------------------------
// Key streams for probes (the workload's own distributions).
// ----------------------------------------------------------------------

/// Draws keys the way a workload does.
pub enum KeyStream {
    /// YCSB: scrambled Zipfian θ = 0.99 over the loaded rows.
    Zipf(Box<Zipfian>, StdRng),
    /// TPC-C stock: uniform warehouse, NURand(8191) item.
    TpccStock(StdRng),
    /// TPC-C order lines loaded at setup: uniform (warehouse,
    /// district, order), first line.
    TpccOrderLine(StdRng),
    /// `served` and the KV fixture: uniform over the preloaded keys.
    Uniform(u64, StdRng),
}

impl KeyStream {
    /// YCSB's request distribution.
    pub fn ycsb(seed: u64) -> KeyStream {
        KeyStream::Zipf(
            Box::new(Zipfian::new(YCSB_RECORDS, 0.99)),
            StdRng::seed_from_u64(seed),
        )
    }

    /// Stock rows as NewOrder picks them.
    pub fn tpcc_stock(seed: u64) -> KeyStream {
        KeyStream::TpccStock(StdRng::seed_from_u64(seed))
    }

    /// Order lines present since load.
    pub fn tpcc_order_line(seed: u64) -> KeyStream {
        KeyStream::TpccOrderLine(StdRng::seed_from_u64(seed))
    }

    /// Uniform over `0..n`.
    pub fn uniform(n: u64, seed: u64) -> KeyStream {
        KeyStream::Uniform(n, StdRng::seed_from_u64(seed))
    }

    /// The next key.
    pub fn next_key(&mut self) -> u64 {
        use rand::Rng;
        let s = TpccScale::bench();
        match self {
            KeyStream::Zipf(z, rng) => z.next_scrambled(rng),
            KeyStream::TpccStock(rng) => {
                let w = rng.random_range(1..=TPCC_WAREHOUSES);
                tpcc::stock_key(w, tpcc::nurand(rng, 8191, 7911, 1, s.items))
            }
            KeyStream::TpccOrderLine(rng) => {
                let w = rng.random_range(1..=TPCC_WAREHOUSES);
                let d = rng.random_range(1..=s.districts);
                let o = rng.random_range(1..=s.initial_orders);
                tpcc::ol_key(w, d, o, 1)
            }
            KeyStream::Uniform(n, rng) => rng.random_range(0..*n),
        }
    }
}

/// TPC-C table ids the probes use.
pub mod tpcc_tables {
    /// Hash-indexed, 10 000 rows per warehouse, updated by NewOrder.
    pub const STOCK: u32 = falcon_wl::tpcc::STOCK;
    /// B-tree-indexed, grows with every NewOrder.
    pub const ORDER_LINE: u32 = falcon_wl::tpcc::ORDER_LINE;
    /// Hash-indexed, insert-only.
    pub const HISTORY: u32 = falcon_wl::tpcc::HISTORY;
}

// ----------------------------------------------------------------------
// Layer probes: pmem-sim.
// ----------------------------------------------------------------------

/// A standalone device with the experiment cache (4 MB, 16-way) and
/// `capacity` bytes of NVM, for device-op probes.
pub fn probe_device(capacity: u64) -> PmemDevice {
    PmemDevice::new(SimConfig::experiment().with_capacity(capacity)).expect("probe device")
}

/// A private context (virtual clock + counters) for probe calls.
pub fn mem_ctx() -> MemCtx {
    MemCtx::new(0)
}

/// Virtual clock of a context, ns.
pub fn ctx_clock(ctx: &MemCtx) -> u64 {
    ctx.clock
}

/// Device accesses a context has made.
pub fn ctx_accesses(ctx: &MemCtx) -> u64 {
    ctx.stats.accesses
}

/// `PmemDevice::read`.
pub fn dev_read(dev: &PmemDevice, addr: u64, buf: &mut [u8], ctx: &mut MemCtx) {
    dev.read(PAddr(addr), buf, ctx);
}

/// `PmemDevice::write`.
pub fn dev_write(dev: &PmemDevice, addr: u64, data: &[u8], ctx: &mut MemCtx) {
    dev.write(PAddr(addr), data, ctx);
}

/// Write 256 B, `clwb` its four lines, `sfence`: one hinted flush of a
/// full media block.
pub fn dev_flush256(dev: &PmemDevice, addr: u64, data: &[u8; 256], ctx: &mut MemCtx) {
    dev.write(PAddr(addr), data, ctx);
    for line in 0..4 {
        dev.clwb(PAddr(addr + line * CACHE_LINE), ctx);
    }
    dev.sfence(ctx);
}

// ----------------------------------------------------------------------
// Layer probes: falcon-storage and falcon-index, through the engine's
// public table handles.
// ----------------------------------------------------------------------

/// Row width of a table.
pub fn tuple_size(engine: &Engine, table: u32) -> usize {
    engine.table(table).tuple_size() as usize
}

/// `TupleHeap::alloc_slot` + `free_slot` on worker 0's heap partition.
/// Reclamation is allowed, so after the first call the same slot
/// cycles through the delete list and the heap does not grow.
pub fn heap_alloc_free(engine: &Engine, table: u32, ctx: &mut MemCtx) {
    let heap = &engine.table(table).heap;
    let slot = heap.alloc_slot(0, u64::MAX, ctx).expect("alloc_slot");
    heap.free_slot(0, slot, 1, ctx);
}

/// `Index::get` on the primary index.
pub fn index_get(engine: &Engine, table: u32, key: u64, ctx: &mut MemCtx) -> Option<u64> {
    engine.table(table).primary.get(key, ctx)
}

/// `Index::insert` + `Index::remove` of a key the table does not hold.
pub fn index_insert_remove(engine: &Engine, table: u32, key: u64, ctx: &mut MemCtx) {
    let idx = &engine.table(table).primary;
    idx.insert(key, 8, ctx).expect("probe key is absent");
    assert!(idx.remove(key, ctx), "probe key was inserted");
}

/// `Index::scan` from `lo`, stopping after `n` entries; returns the
/// entries seen.
pub fn index_scan(engine: &Engine, table: u32, lo: u64, n: u64, ctx: &mut MemCtx) -> u64 {
    let mut seen = 0;
    engine
        .table(table)
        .primary
        .scan(lo, u64::MAX, ctx, &mut |_, _| {
            seen += 1;
            seen < n
        })
        .expect("scan on a B-tree table");
    seen
}

/// `TupleRef::read_data` of a full row at tuple address `addr`.
pub fn tuple_read(engine: &Engine, addr: u64, buf: &mut [u8], ctx: &mut MemCtx) {
    TupleRef::new(PAddr(addr)).read_data(engine.device(), 0, buf, ctx);
}

/// `TupleRef::write_data` + `flush_data` of `data` at row offset
/// `off`.
pub fn tuple_write_flush(engine: &Engine, addr: u64, off: u64, data: &[u8], ctx: &mut MemCtx) {
    let t = TupleRef::new(PAddr(addr));
    t.write_data(engine.device(), off, data, ctx);
    t.flush_data(engine.device(), off, data.len() as u64, ctx);
}

// ----------------------------------------------------------------------
// Layer probes: falcon-core, through `Engine::begin` / `Txn`.
// ----------------------------------------------------------------------

/// `begin` + `commit` with nothing in between.
pub fn txn_empty(engine: &Engine, w: &mut Worker) {
    engine.begin(w, false).commit().expect("empty commit");
}

/// Read-only transaction reading one full row; returns its length.
pub fn txn_read1(engine: &Engine, w: &mut Worker, table: u32, key: u64) -> usize {
    let mut t = engine.begin(w, true);
    let row = t.read(table, key).expect("probe key exists");
    let bytes: &[u8] = row.as_ref();
    let len = bytes.len();
    t.commit().expect("read commit");
    len
}

/// One update transaction; `before_commit` is handed the virtual
/// clock between the update and the `commit()` call, so the caller can
/// time the commit alone.
pub fn txn_update1(
    engine: &Engine,
    w: &mut Worker,
    table: u32,
    key: u64,
    ops: &[(u32, &[u8])],
    before_commit: impl FnOnce(u64),
) {
    let mut t = engine.begin(w, false);
    t.update(table, key, ops).expect("probe key exists");
    before_commit(t.ctx().clock);
    t.commit().expect("update commit");
}

/// Insert `row` in one transaction and delete it (by `key`) in the
/// next.
pub fn txn_insert_delete(engine: &Engine, w: &mut Worker, table: u32, key: u64, row: &[u8]) {
    let mut t = engine.begin(w, false);
    t.insert(table, row).expect("probe key is absent");
    t.commit().expect("insert commit");
    let mut t = engine.begin(w, false);
    t.delete(table, key).expect("probe key was inserted");
    t.commit().expect("delete commit");
}

/// `Engine::group_fence`: one `sfence` for every commit deferred since
/// the last one; returns the batch size.
pub fn group_fence(engine: &Engine, w: &mut Worker) -> u64 {
    engine.group_fence(w)
}

// ----------------------------------------------------------------------
// falcon-server: the engine-side fixture, the wire codec, the live
// server, and the virtual-clock twin.
// ----------------------------------------------------------------------

/// Keys `served` preloads and addresses: 4 096 × 64 B rows = 256 KB,
/// the size of the server's simulated cache (`SimConfig::small()`) —
/// the fits-in-cache case.
pub const KV_KEYS: u64 = 4096;

/// The serving table id (B-tree primary index).
pub const KV_TABLE: u32 = store::TABLE;

/// Byte offset and width of the value in a serving row.
pub const KV_VALUE: (u32, usize) = (store::VALUE_OFF, proto::VALUE_BYTES);

/// The engine `falcon_server::serve` builds (group commit on, B-tree
/// table, `KV_KEYS` rows preloaded), without sockets or threads.
pub fn kv_fixture() -> Engine {
    store::create_engine(KV_KEYS).expect("kv fixture").1
}

fn wire_op(op: KvOp, id: u64) -> Op {
    match op {
        KvOp::Get { key } => Op::Get { key },
        KvOp::Put { key } => Op::Put {
            key,
            value: id.to_le_bytes().to_vec(),
        },
    }
}

/// `store::apply_op` under the server's retry policy; returns whether
/// the status was `Ok`.
pub fn apply(engine: &Engine, w: &mut Worker, op: KvOp, id: u64) -> bool {
    let r = store::apply_op(engine, w, &wire_op(op, id), &RetryPolicy::server(), id);
    r.status == Status::Ok
}

/// `proto::encode_request` for request `id`.
pub fn encode_req(op: KvOp, id: u64) -> Vec<u8> {
    proto::encode_request(&Request {
        id,
        op: wire_op(op, id),
    })
}

/// `proto::decode_request`; returns the request id.
pub fn decode_req(body: &[u8]) -> u64 {
    proto::decode_request(body).expect("well-formed request").id
}

/// `proto::encode_response` of an `Ok` reply carrying `payload`.
pub fn encode_resp(id: u64, payload: &[u8]) -> Vec<u8> {
    proto::encode_response(&Response {
        id,
        status: Status::Ok,
        payload: payload.to_vec(),
    })
}

/// A decoded reply, reduced to what the benchmark looks at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Request id echoed by the server.
    pub id: u64,
    /// Status was `Ok`.
    pub ok: bool,
    /// First 8 payload bytes (the writer's request id for a `Get`).
    pub stamp: Option<u64>,
}

/// `proto::decode_response`.
pub fn decode_resp(body: &[u8]) -> io::Result<Reply> {
    let r = proto::decode_response(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Reply {
        id: r.id,
        ok: r.status == Status::Ok,
        stamp: (r.payload.len() >= 8).then(|| le_u64(&r.payload)),
    })
}

/// Start `falcon_server::serve(ServerConfig::default())` with
/// `KV_KEYS` preloaded rows on an ephemeral loopback port.
pub fn serve() -> io::Result<ServerHandle> {
    falcon_server::serve(ServerConfig {
        preload_keys: KV_KEYS,
        ..ServerConfig::default()
    })
}

/// `ServerHandle::addr`: where the server listens.
pub fn server_addr(h: &ServerHandle) -> SocketAddr {
    h.addr()
}

/// `ServerHandle::shutdown`: begin a graceful drain without a `DRAIN`
/// request.
pub fn server_shutdown(h: &ServerHandle) {
    h.shutdown();
}

/// What the server's engine thread reported on exit.
#[derive(Debug, Clone, Copy)]
pub struct Drained {
    /// The group-commit queue was empty.
    pub group_queue_empty: bool,
    /// Write transactions committed while serving.
    pub committed: u64,
    /// Group fences issued.
    pub fences: u64,
}

/// `ServerHandle::wait`: join every server thread and return the
/// `DrainReport`.
pub fn server_wait(h: ServerHandle) -> Drained {
    let r = h.wait();
    Drained {
        group_queue_empty: r.group_queue_empty,
        committed: r.committed,
        fences: r.fences,
    }
}

/// Open the benchmark's one connection (client side sets
/// `TCP_NODELAY`, as `falcon_server::client::Client` does).
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// `proto::write_frame`.
pub fn write_frame(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    proto::write_frame(stream, body)
}

/// `proto::read_frame`; `None` on a clean close.
pub fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    proto::read_frame(stream)
}

/// The encoded `DRAIN` request.
pub fn encode_drain(id: u64) -> Vec<u8> {
    proto::encode_request(&Request { id, op: Op::Drain })
}

/// Live server counters the benchmark reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    /// Group fences that covered at least one write.
    pub batches: u64,
    /// Write transactions those fences covered.
    pub batch_txns: u64,
    /// Largest batch.
    pub batch_peak: u64,
    /// Requests shed (`Overloaded` + `ShuttingDown`).
    pub shed: u64,
    /// Transient-error retries.
    pub retries: u64,
    /// Connections reaped idle.
    pub timeouts: u64,
}

/// `ServerHandle::counters`.
pub fn server_counts(h: &ServerHandle) -> ServerCounts {
    let c = h.counters();
    ServerCounts {
        batches: c.batches,
        batch_txns: c.batch_txns,
        batch_peak: c.batch_peak,
        shed: c.shed_overloaded + c.shed_shutting_down,
        retries: c.retries,
        timeouts: c.timeouts,
    }
}

/// What the virtual-clock twin of the serving loop reported.
#[derive(Debug, Clone, Default)]
pub struct TwinOutcome {
    /// Requests offered.
    pub requests: u64,
    /// Requests not answered `Ok`/`NotFound` (shed, retry-exhausted,
    /// errors).
    pub failed: u64,
    /// Committed write transactions per virtual second.
    pub virt_txn_per_s: f64,
    /// Group fences per committed write transaction.
    pub fences_per_commit: f64,
    /// Enqueue → ack latency of every answered request, virtual ns.
    pub latency_virt_ns: Vec<u64>,
}

/// Run `falcon_server::sim::run_loop` — the serving loop under the
/// virtual clock — on a fresh serving engine: one connection offering
/// `waves` bursts of 32 pipelined requests over the `served` key
/// space, half of them writes, group batches of 16.
pub fn serving_twin(seed: u64, waves: u64) -> Result<TwinOutcome, String> {
    let defaults = ServerConfig::default();
    let spec = SimSpec {
        conns: 1,
        waves,
        burst: defaults.conn_window as usize,
        admission_cap: defaults.admission_cap,
        group_max_batch: defaults.group_max_batch,
        preload_keys: KV_KEYS,
        key_space: KV_KEYS,
        write_pct: 50,
        seed,
    };
    let (dev, engine) = store::create_engine(KV_KEYS)?;
    let run = run_loop(&engine, &dev, &spec, &RetryPolicy::server());
    let mut out = TwinOutcome {
        requests: run.records.len() as u64,
        ..TwinOutcome::default()
    };
    let mut committed = 0u64;
    for r in &run.records {
        match &r.outcome {
            ReqOutcome::Done {
                status,
                ack_ns,
                wrote,
                ..
            } => {
                if !matches!(status, Status::Ok | Status::NotFound) {
                    out.failed += 1;
                }
                committed += u64::from(*wrote);
                out.latency_virt_ns
                    .push(ack_ns.saturating_sub(r.enqueue_ns));
            }
            ReqOutcome::Shed => out.failed += 1,
        }
    }
    let s = run.stats;
    if s.elapsed_ns > 0 {
        out.virt_txn_per_s = committed as f64 * 1e9 / s.elapsed_ns as f64;
    }
    if committed > 0 {
        out.fences_per_commit = s.fences as f64 / committed as f64;
    }
    Ok(out)
}
