//! Cross-layer counter invariants.
//!
//! The simulator counts cache-model accesses independently of the
//! hit/miss split, so any accounting drift between the layers shows up
//! here: after a YCSB run, every engine variant must satisfy
//! `accesses == cache_hits + cache_misses`, and the device can never
//! write back more lines on `clwb` than `clwb` was issued for.

use falcon::engine::{CcAlgo, EngineConfig};
use falcon::workloads::harness::{build_engine, run, RunConfig, Workload};
use falcon::workloads::ycsb::{Dist, Ycsb, YcsbConfig, YcsbWorkload};

#[test]
fn device_counters_add_up_for_every_engine() {
    let rc = RunConfig {
        threads: 2,
        txns_per_thread: 300,
        warmup_per_thread: 30,
        ..RunConfig::default()
    };
    for cfg in EngineConfig::overall_lineup() {
        let name = cfg.name;
        let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Zipfian).with_records(8 << 10));
        let engine = build_engine(
            cfg.with_cc(CcAlgo::Occ).with_threads(rc.threads),
            &[y.table_def()],
            64 << 20,
            None,
        );
        y.setup(&engine);
        let r = run(&engine, &y, &rc);

        // Per-thread and in aggregate: the independent access counter
        // must equal the hit/miss split exactly.
        let t = &r.stats.total;
        assert!(t.accesses > 0, "{name}: no cache-model traffic recorded");
        assert_eq!(
            t.accesses,
            t.cache_hits + t.cache_misses,
            "{name}: access counter drifted from hit+miss",
        );
        assert!(
            t.clwb_writebacks <= t.clwb_issued,
            "{name}: more clwb writebacks ({}) than clwbs issued ({})",
            t.clwb_writebacks,
            t.clwb_issued,
        );
    }
}

/// Checkpoint counters must reconcile with the device- and window-level
/// counters they piggyback on, and the cost matrix must keep accounting
/// for every device event with the Checkpoint phase in play.
#[test]
fn checkpoint_counters_reconcile_with_device_stats() {
    use falcon::obs::Phase;

    let rc = RunConfig {
        threads: 2,
        txns_per_thread: 400,
        warmup_per_thread: 40,
        ..RunConfig::default()
    };
    // A tiny window and spill cap so YCSB-A updates spill constantly
    // and both checkpoint triggers (boundary and backpressure) fire.
    let mut cfg = EngineConfig::falcon()
        .with_cc(CcAlgo::Occ)
        .with_threads(rc.threads)
        .with_spill_cap(16 << 10, 8 << 10);
    cfg.window_bytes = 1024;
    let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Zipfian).with_records(4 << 10));
    let engine = build_engine(cfg, &[y.table_def()], 64 << 20, None);
    y.setup(&engine);
    let r = run(&engine, &y, &rc);
    assert!(r.committed > 0);

    let es = &r.obs.engine;
    assert!(es.ckpt_published > 0, "spilly run must checkpoint: {es:?}");
    assert!(es.ckpt_epoch > 0);
    assert!(es.spill_truncations > 0);
    // Every backpressure stall consumed exactly one LogOverflow that
    // the window itself also counted as a full stall.
    assert!(
        es.ckpt_backpressure_stalls <= es.log_full_stalls,
        "ckpt stalls {} > window full stalls {}",
        es.ckpt_backpressure_stalls,
        es.log_full_stalls
    );
    // ...and resolved into a published drain checkpoint.
    assert!(
        es.ckpt_published >= es.ckpt_backpressure_stalls,
        "published {} < stalls {}",
        es.ckpt_published,
        es.ckpt_backpressure_stalls
    );
    // Reclamation can never exceed what was spilled, modulo the tail
    // that was already outstanding when the post-warmup counter reset
    // ran — that leftover is bounded by the spill cap itself.
    assert!(
        es.spill_bytes_truncated <= es.log_spill_bytes + (16 << 10),
        "truncated {} > spilled {} + cap",
        es.spill_bytes_truncated,
        es.log_spill_bytes
    );

    // The AttrMatrix invariant: with the Checkpoint phase attributing
    // its own spans, the matrix still accounts for *every* device event
    // — nothing lost, nothing double-charged.
    let cost = r.obs.cost.as_ref().expect("attribution ran");
    assert_eq!(
        cost.total().stats,
        r.stats.total,
        "matrix total must equal DeviceStats.total with checkpoints on"
    );
    // And the checkpoint column is populated: each published checkpoint
    // fences at least once (drain fence + fenced swing).
    let ck = cost.col_total(Phase::Checkpoint as usize);
    assert!(ck.ns > 0, "checkpoint phase attributed no time");
    assert!(
        ck.stats.sfences >= es.ckpt_published,
        "checkpoint column fences {} < published {}",
        ck.stats.sfences,
        es.ckpt_published
    );
}
