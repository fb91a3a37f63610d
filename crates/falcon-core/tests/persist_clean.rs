//! Engine-level persistency-order checks.
//!
//! The ADR-correct engines (conventional NVM log + flush-all) must
//! produce clean traces on an ADR device; Falcon's small log window
//! deliberately relies on a persistent cache, so running it on ADR
//! must make the checker fire R1 — the checker catches a real
//! platform/engine mismatch, not just synthetic traces.
//!
//! The recorder comes with the `falcon-check` dev-dependency, which
//! builds pmem-sim with its `trace` feature.

use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{Engine, EngineConfig};
use falcon_storage::{ColType, Schema};
use pmem_sim::{PersistDomain, PmemDevice, SimConfig};

const TABLE: u32 = 0;
const VAL_OFF: u32 = 8;

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

fn kv_def() -> TableDef {
    TableDef {
        schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::Bytes(56))]),
        index_kind: IndexKind::Hash,
        capacity_hint: 10_000,
        primary_key: key_fn,
        secondary: None,
    }
}

fn row(k: u64, tag: u8) -> Vec<u8> {
    let mut r = vec![tag; 64];
    r[0..8].copy_from_slice(&k.to_le_bytes());
    r
}

fn adr_engine(cfg: EngineConfig) -> Engine {
    let dev = PmemDevice::new(
        SimConfig::small()
            .with_capacity(256 << 20)
            .with_domain(PersistDomain::Adr),
    )
    .unwrap();
    let e = Engine::create(dev, cfg, &[kv_def()]).unwrap();
    e.device().trace_start();
    e
}

fn workload(e: &Engine) {
    let mut w = e.worker(0).unwrap();
    for k in 0..40u64 {
        let mut t = e.begin(&mut w, false);
        t.insert(TABLE, &row(k, 1)).unwrap();
        t.commit().unwrap();
    }
    for k in 0..20u64 {
        let mut t = e.begin(&mut w, false);
        t.update(TABLE, k, &[(VAL_OFF, &[2u8; 8])]).unwrap();
        t.commit().unwrap();
    }
    for k in 30..35u64 {
        let mut t = e.begin(&mut w, false);
        t.delete(TABLE, k).unwrap();
        t.commit().unwrap();
    }
}

#[test]
fn inp_is_clean_under_adr() {
    // Conventional NVM log + flush-all: correct without a persistent
    // cache, so the full rule set must stay quiet.
    let e = adr_engine(EngineConfig::inp().with_threads(1));
    workload(&e);
    let report = falcon_check::check(&e.device().trace_take());
    assert!(report.txns_committed >= 65, "{report}");
    report.assert_clean();
}

#[test]
fn outp_is_clean_under_adr() {
    // Log-free out-of-place commit publishes versions, fences, then
    // bumps the flushed watermark: also ADR-correct.
    let e = adr_engine(EngineConfig::outp().with_threads(1));
    workload(&e);
    let report = falcon_check::check(&e.device().trace_take());
    assert!(report.txns_committed >= 65, "{report}");
    report.assert_clean();
}

#[test]
fn falcon_small_window_fires_r1_under_adr() {
    // Falcon never flushes its log window: sound with a persistent
    // cache (eADR), a durability hole on plain ADR. The checker must
    // see it on the real engine trace.
    let e = adr_engine(EngineConfig::falcon().with_threads(1));
    workload(&e);
    let report = falcon_check::check(&e.device().trace_take());
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.rule == falcon_check::Rule::CommitDurability),
        "only R1 (unflushed log) applies: {report}"
    );
}

#[test]
fn falcon_small_window_is_clean_under_eadr() {
    let dev = PmemDevice::new(SimConfig::small().with_capacity(256 << 20)).unwrap();
    let e = Engine::create(dev, EngineConfig::falcon().with_threads(1), &[kv_def()]).unwrap();
    e.device().trace_start();
    workload(&e);
    falcon_check::check(&e.device().trace_take()).assert_clean();
}
