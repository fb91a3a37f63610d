//! End-to-end persistency-order checking over the *real* device
//! recorder (requires `--features trace`).
//!
//! Each test drives a `PmemDevice` through a hand-written commit
//! protocol — correct, or with one injected fault (a skipped `clwb`, a
//! reordered fence, a dropped log-window flush) — takes the recorded
//! trace, and proves the corresponding rule fires exactly there while
//! the faultless twin stays clean. Unlike the synthetic-trace tests in
//! `falcon-check`, these go through the actual recorder: the events the
//! checker sees are whatever the device emitted.
#![cfg(feature = "trace")]

use falcon_check::{check, Event, LintKind, Report, Rule};
use pmem_sim::{MemCtx, PAddr, PersistDomain, PmemDevice, SimConfig};

fn device(domain: PersistDomain) -> PmemDevice {
    let dev = PmemDevice::new(
        SimConfig::small()
            .with_capacity(1 << 20)
            .with_domain(domain),
    )
    .unwrap();
    dev.trace_start();
    dev
}

/// A minimal logged commit against the real device. The log "window" is
/// one header line at `base` plus one record line after it; the payload
/// tuple lives at `base + 1024`.
///
/// Faults: `skip_record_flush` drops the record line's `clwb` (R1);
/// `late_fence` stores the commit mark before fencing the log (R3);
/// `skip_data_flush` announces the data flush but never issues it (R2).
fn run_commit(
    dev: &PmemDevice,
    skip_record_flush: bool,
    late_fence: bool,
    skip_data_flush: bool,
) -> Report {
    let mut ctx = MemCtx::new(0);
    let base = PAddr(4096);
    let hdr = base;
    let rec = base.add(64);
    let data = base.add(1024);

    dev.trace_emit(Event::TxnBegin { thread: 0, tid: 1 });
    // Log the intent: header (tid + UNCOMMITTED state), then the record.
    dev.trace_emit(Event::LogRange {
        thread: 0,
        addr: hdr.0,
        len: 64,
    });
    dev.store_u64(hdr.add(8), 1, &mut ctx);
    dev.store_u64(hdr, 1, &mut ctx); // state = UNCOMMITTED
    dev.clwb(hdr, &mut ctx);
    dev.trace_emit(Event::LogRange {
        thread: 0,
        addr: rec.0,
        len: 64,
    });
    dev.write(rec, &[0xAB; 48], &mut ctx);
    if !skip_record_flush {
        dev.clwb(rec, &mut ctx);
    }
    if !late_fence {
        dev.sfence(&mut ctx);
    }
    // Commit record: state = COMMITTED, flushed and fenced.
    dev.trace_emit(Event::CommitRecord {
        thread: 0,
        addr: hdr.0,
    });
    dev.store_u64(hdr, 2, &mut ctx);
    dev.clwb(hdr, &mut ctx);
    dev.sfence(&mut ctx);
    dev.trace_emit(Event::TxnCommit { thread: 0, tid: 1 });

    // Apply in place, then the hinted data flush.
    dev.write(data, &[7; 64], &mut ctx);
    dev.trace_emit(Event::DurableHint {
        thread: 0,
        addr: data.0,
        len: 64,
    });
    if !skip_data_flush {
        dev.clwb(data, &mut ctx);
        dev.sfence(&mut ctx);
    }
    check(&dev.trace_take())
}

#[test]
fn correct_protocol_is_clean_on_adr() {
    let dev = device(PersistDomain::Adr);
    let report = run_commit(&dev, false, false, false);
    assert_eq!(report.txns_committed, 1);
    report.assert_clean();
}

#[test]
fn r1_fires_for_dropped_log_flush_on_adr() {
    let dev = device(PersistDomain::Adr);
    let report = run_commit(&dev, true, false, false);
    assert_eq!(report.of_rule(Rule::CommitDurability).len(), 1, "{report}");
    assert!(report.of_rule(Rule::FenceOrdering).is_empty(), "{report}");
}

#[test]
fn r2_fires_for_skipped_data_flush_on_adr() {
    let dev = device(PersistDomain::Adr);
    let report = run_commit(&dev, false, false, true);
    assert_eq!(report.of_rule(Rule::FlushCoverage).len(), 1, "{report}");
    assert!(
        report.of_rule(Rule::CommitDurability).is_empty(),
        "{report}"
    );
}

#[test]
fn r3_fires_for_reordered_fence_on_adr() {
    let dev = device(PersistDomain::Adr);
    let report = run_commit(&dev, false, true, false);
    assert_eq!(report.of_rule(Rule::FenceOrdering).len(), 1, "{report}");
}

#[test]
fn every_fault_is_forgiven_on_eadr() {
    // The persistent cache makes all three faults harmless; the checker
    // must not cry wolf on an eADR platform.
    for (skip_rec, late, skip_data) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
    ] {
        let dev = device(PersistDomain::Eadr);
        run_commit(&dev, skip_rec, late, skip_data).assert_clean();
    }
}

#[test]
fn r4_lints_partial_block_flush_through_the_device() {
    let dev = device(PersistDomain::Adr);
    let mut ctx = MemCtx::new(0);
    let base = PAddr(8192); // 256-aligned: one media block.
    dev.write(base, &[1; 256], &mut ctx);
    dev.clwb(base, &mut ctx); // only line 0 of the block
    dev.sfence(&mut ctx);
    let report = check(&dev.trace_take());
    assert_eq!(
        report.of_lint(LintKind::PartialBlockFlush).len(),
        1,
        "{report}"
    );

    // Whole-block flush: no lint.
    let dev = device(PersistDomain::Adr);
    dev.write(base, &[1; 256], &mut ctx);
    for i in 0..4u64 {
        dev.clwb(base.add(i * 64), &mut ctx);
    }
    dev.sfence(&mut ctx);
    let report = check(&dev.trace_take());
    assert!(
        report.of_lint(LintKind::PartialBlockFlush).is_empty(),
        "{report}"
    );
}

#[test]
fn redundant_flush_lints_through_the_device() {
    let dev = device(PersistDomain::Adr);
    let mut ctx = MemCtx::new(0);
    let a = PAddr(4096);
    dev.store_u64(a, 1, &mut ctx);
    dev.clwb(a, &mut ctx);
    dev.sfence(&mut ctx);
    dev.clwb(a, &mut ctx); // nothing stored in between
    let report = check(&dev.trace_take());
    assert_eq!(
        report.of_lint(LintKind::RedundantFlush).len(),
        1,
        "{report}"
    );
    report.assert_clean();
}

#[test]
fn recorder_is_inert_until_started() {
    let dev = PmemDevice::new(
        SimConfig::small()
            .with_capacity(1 << 20)
            .with_domain(PersistDomain::Adr),
    )
    .unwrap();
    let mut ctx = MemCtx::new(0);
    dev.store_u64(PAddr(0), 1, &mut ctx);
    dev.clwb(PAddr(0), &mut ctx);
    let t = dev.trace_take();
    assert!(t.events.is_empty(), "nothing recorded before trace_start");
}
