//! Fuzzy checkpoints under ADR are deterministic.
//!
//! A checkpoint writes back the tuple lines that hot-tuple skips left
//! dirty (`clwb` under ADR). The order of those write-backs decides
//! which lines the XPBuffer merges, and so the virtual clock. Three
//! identical runs in one process must therefore end on the same
//! virtual time: the drain order may not depend on per-instance state
//! such as a hash map's random keys.

use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{device_capacity_for, Engine, EngineConfig};
use falcon_storage::{ColType, Schema};
use pmem_sim::{MemCtx, PersistDomain, PmemDevice, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: u32 = 0;
const RECORDS: u64 = 4 << 10;
const TXNS: u64 = 3_000;
const FIELDS: u32 = 10;
const FIELD_LEN: u32 = 100;
const ROW: usize = (8 + FIELDS * FIELD_LEN) as usize;

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

fn usertable() -> TableDef {
    let names: Vec<String> = (0..FIELDS).map(|f| format!("field{f}")).collect();
    let mut cols = vec![("key", ColType::U64)];
    cols.extend(
        names
            .iter()
            .map(|n| (n.as_str(), ColType::Bytes(FIELD_LEN))),
    );
    TableDef {
        schema: Schema::new("usertable", &cols),
        index_kind: IndexKind::Hash,
        capacity_hint: RECORDS * 2,
        primary_key: key_fn,
        secondary: None,
    }
}

/// A skewed key: rank `⌊n·u³⌋` (a few hundred keys take most draws),
/// scrambled over the key space so hot rows are not neighbours.
fn skewed_key(rng: &mut StdRng) -> u64 {
    let u: f64 = rng.random();
    let rank = (RECORDS as f64 * u * u * u) as u64 % RECORDS;
    rank.wrapping_mul(2_654_435_761) % RECORDS
}

/// One single-worker YCSB-A-shaped run (50 % full-row updates, seed 7)
/// on ADR with a window small enough that every update spills and a
/// spill cap that forces a checkpoint every few transactions. Returns
/// the worker's virtual clock and its checkpoint count.
fn run_once() -> (u64, u64) {
    let mut cfg = EngineConfig::falcon()
        .with_threads(1)
        .with_ckpt(true)
        .with_spill_cap(16 << 10, 8 << 10);
    cfg.window_bytes = 1024;
    let sim = SimConfig::small()
        .with_capacity(device_capacity_for(RECORDS * ROW as u64, 1, 1))
        .with_cache(512 << 10)
        .with_domain(PersistDomain::Adr);
    let dev = PmemDevice::new(sim).unwrap();
    let e = Engine::create(dev, cfg, &[usertable()]).unwrap();
    let mut ctx = MemCtx::new(0);
    for k in 0..RECORDS {
        let mut row = vec![(k % 251) as u8; ROW];
        row[0..8].copy_from_slice(&k.to_le_bytes());
        e.load_row(TABLE, 0, &row, &mut ctx).unwrap();
    }
    let mut w = e.worker(0).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..TXNS {
        let byte: u8 = rng.random();
        let key = skewed_key(&mut rng);
        if rng.random_range(0..100) < 50 {
            let payload = vec![byte; FIELD_LEN as usize];
            let ops: Vec<(u32, &[u8])> = (0..FIELDS)
                .map(|f| (8 + f * FIELD_LEN, payload.as_slice()))
                .collect();
            let mut t = e.begin(&mut w, false);
            t.update(TABLE, key, &ops).unwrap();
            t.commit().unwrap();
        } else {
            let mut t = e.begin(&mut w, true);
            t.read(TABLE, key).unwrap();
            t.commit().unwrap();
        }
    }
    let ck = w.ckpt_stats();
    assert!(
        ck.dirty_writebacks > 0,
        "hot skips must leave lines to drain: {ck:?}"
    );
    (w.ctx.clock, ck.published)
}

#[test]
fn adr_checkpoint_writeback_is_deterministic() {
    let runs: Vec<(u64, u64)> = (0..3).map(|_| run_once()).collect();
    assert!(runs[0].1 > 50, "checkpoints must run often: {runs:?}");
    assert!(
        runs.iter().all(|r| *r == runs[0]),
        "identical ADR runs must end on the same virtual clock: {runs:?}"
    );
}
