//! The B⁺-tree split protocol under the persistency-order analyzer
//! (requires `--features trace`).
//!
//! A split runs as its own analyzer pseudo-transaction: the raised
//! `splitting` flag plays the log header, the new nodes and the pointer
//! swing are its logged state, and the flag-clear store is the commit
//! record. Driving a *real* split on a traced ADR device proves the
//! hardened path is flush-clean (R1/R2/R3 all quiet), and the two
//! fault-injection hooks prove the analyzer is actually watching: a
//! dropped node write-back must raise FlushCoverage *and*
//! CommitDurability, and a skipped commit fence must raise
//! FenceOrdering.

#![cfg(feature = "trace")]

use falcon_check::{check, Report, Rule};
use falcon_index::{Index, NbTree};
use falcon_storage::layout::{format, index_slot};
use falcon_storage::NvmAllocator;
use pmem_sim::{MemCtx, PersistDomain, PmemDevice, SimConfig};

/// Number of sequential inserts after which a fresh tree first splits
/// (probed, not hard-coded, so the test tracks node-layout changes).
fn leaf_split_at() -> u64 {
    let (_dev, t, mut ctx) = build_tree();
    let mut n = 0u64;
    loop {
        n += 1;
        t.insert(n, n, &mut ctx).unwrap();
        if t.shape(&mut ctx).0 > 1 {
            return n;
        }
        assert!(n < 1 << 16, "tree never split");
    }
}

fn build_tree() -> (PmemDevice, NbTree, MemCtx) {
    let dev = PmemDevice::new(
        SimConfig::small()
            .with_capacity(16 << 20)
            .with_domain(PersistDomain::Adr),
    )
    .unwrap();
    format(&dev).unwrap();
    let alloc = NvmAllocator::new(dev.clone());
    let mut ctx = MemCtx::new(0);
    let t = NbTree::create(&alloc, index_slot(2), &mut ctx).unwrap();
    (dev, t, ctx)
}

/// Fill a leaf to the brink, start the trace, trigger the split with
/// the given faults injected, and run the analyzer over exactly the
/// split's events.
fn traced_split(skip_wb: Option<u64>, skip_fence: bool) -> Report {
    let split_at = leaf_split_at();
    let (dev, t, mut ctx) = build_tree();
    for k in 1..split_at {
        t.insert(k, k * 7, &mut ctx).unwrap();
    }
    dev.quiesce();
    dev.trace_start();
    if let Some(n) = skip_wb {
        t.inject_skip_writeback(n);
    }
    if skip_fence {
        t.inject_skip_split_fence();
    }
    t.insert(split_at, split_at * 7, &mut ctx).unwrap();
    check(&dev.trace_take())
}

#[test]
fn hardened_split_is_flush_clean_under_adr() {
    let report = traced_split(None, false);
    assert_eq!(report.txns_committed, 1, "{report}");
    report.assert_clean();
}

#[test]
fn dropped_node_writeback_fires_r1_and_r2() {
    // Skip #1: the first protected write-back after the flag-set (#0)
    // is the whole-node flush of the new left leaf.
    let report = traced_split(Some(1), false);
    assert!(
        !report.of_rule(Rule::FlushCoverage).is_empty(),
        "R2 must flag the unflushed node: {report}"
    );
    assert!(
        !report.of_rule(Rule::CommitDurability).is_empty(),
        "R1 must flag the non-durable split state at commit: {report}"
    );
}

#[test]
fn skipped_commit_fence_fires_r3() {
    let report = traced_split(None, true);
    assert!(
        !report.of_rule(Rule::FenceOrdering).is_empty(),
        "R3 must flag the unfenced flag-clear commit record: {report}"
    );
}
