//! The checkpoint epoch publish under the persistency-order analyzer
//! (requires `--features trace`).
//!
//! A boundary checkpoint publish runs as its own analyzer
//! pseudo-transaction: the bank write is its logged state, the epoch
//! swing store is its commit record, and the post-swing flush + fence
//! make it durable. Driving the *real* `checkpoint::publish` on a
//! traced ADR device proves the protocol is flush-clean (R1/R2/R3 all
//! quiet), and the two fault-injection hooks prove the analyzer is
//! actually watching: dropped record-line flushes must raise
//! FlushCoverage and CommitDurability, and a skipped pre-swing fence
//! must raise FenceOrdering.

#![cfg(feature = "trace")]

use falcon_check::{check, Report, Rule};
use falcon_core::checkpoint::{self, inject};
use pmem_sim::{MemCtx, PAddr, PersistDomain, PmemDevice, SimConfig};

/// Publish one epoch on a traced ADR device with the given faults.
fn traced_publish(skip_flush: bool, skip_fence: bool) -> Report {
    let dev = PmemDevice::new(
        SimConfig::small()
            .with_capacity(16 << 20)
            .with_domain(PersistDomain::Adr),
    )
    .unwrap();
    let mut ctx = MemCtx::new(0);
    let area = PAddr(1 << 20);
    dev.quiesce();
    dev.trace_start();
    inject::set_skip_bank_flush(skip_flush);
    inject::set_skip_pre_swing_fence(skip_fence);
    checkpoint::publish(&dev, area, 0, 1, 4096, true, &mut ctx);
    inject::set_skip_bank_flush(false);
    inject::set_skip_pre_swing_fence(false);
    check(&dev.trace_take())
}

#[test]
fn epoch_publish_is_flush_clean_under_adr() {
    let report = traced_publish(false, false);
    assert_eq!(report.txns_committed, 1, "{report}");
    report.assert_clean();
}

#[test]
fn consecutive_publishes_alternate_banks_and_stay_clean() {
    let dev = PmemDevice::new(
        SimConfig::small()
            .with_capacity(16 << 20)
            .with_domain(PersistDomain::Adr),
    )
    .unwrap();
    let mut ctx = MemCtx::new(0);
    let area = PAddr(1 << 20);
    dev.quiesce();
    dev.trace_start();
    for epoch in 1..=4u64 {
        checkpoint::publish(&dev, area, 2, epoch, epoch * 100, true, &mut ctx);
    }
    let report = check(&dev.trace_take());
    assert_eq!(report.txns_committed, 4, "{report}");
    report.assert_clean();
    // And the final record survives a power cut.
    dev.crash();
    assert_eq!(
        checkpoint::read_record(&dev, area, 2, &mut ctx),
        checkpoint::CkptRead::Valid {
            epoch: 4,
            mark: 400
        }
    );
}

#[test]
fn dropped_record_flush_fires_r1_and_r2() {
    let report = traced_publish(true, false);
    assert!(
        !report.of_rule(Rule::FlushCoverage).is_empty(),
        "R2 must flag the unflushed bank: {report}"
    );
    assert!(
        !report.of_rule(Rule::CommitDurability).is_empty(),
        "R1 must flag the non-durable publish at its commit: {report}"
    );
}

#[test]
fn skipped_pre_swing_fence_fires_r3() {
    let report = traced_publish(false, true);
    assert!(
        !report.of_rule(Rule::FenceOrdering).is_empty(),
        "R3 must flag the unfenced epoch swing: {report}"
    );
}

#[test]
fn backpressure_publish_is_silent_in_the_trace() {
    // Mid-transaction (non-boundary) publishes must not emit analyzer
    // events: a nested TxnBegin would clobber the enclosing
    // transaction's per-thread analyzer state.
    let dev = PmemDevice::new(
        SimConfig::small()
            .with_capacity(16 << 20)
            .with_domain(PersistDomain::Adr),
    )
    .unwrap();
    let mut ctx = MemCtx::new(0);
    dev.quiesce();
    dev.trace_start();
    checkpoint::publish(&dev, PAddr(1 << 20), 0, 1, 64, false, &mut ctx);
    let report = check(&dev.trace_take());
    assert_eq!(report.txns_committed, 0, "{report}");
    report.assert_clean();
}
