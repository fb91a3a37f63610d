//! Acceptance test for the cost-attribution plane: the
//! (txn_type × phase) matrix must account for *every* device event the
//! run's `DeviceStats` counted — nothing lost, nothing double-charged —
//! across both commit disciplines (in-place Falcon/Inp and
//! out-of-place Outp/ZenS), and the folded-stack emitter must produce
//! well-formed `frame;frame;frame value` lines.

use falcon::engine::{CcAlgo, EngineConfig};
use falcon::workloads::harness::{build_engine, run, RunConfig, RunResult, Workload};
use falcon::workloads::tpcc::{Tpcc, TpccScale};
use falcon::workloads::ycsb::{Dist, Ycsb, YcsbConfig, YcsbWorkload};

fn ycsb_run(cfg: EngineConfig, cc: CcAlgo) -> RunResult {
    let rc = RunConfig {
        threads: 2,
        txns_per_thread: 400,
        warmup_per_thread: 40,
        ..RunConfig::default()
    };
    let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Zipfian).with_records(4 << 10));
    let engine = build_engine(
        cfg.with_cc(cc).with_threads(rc.threads),
        &[y.table_def()],
        64 << 20,
        None,
    );
    y.setup(&engine);
    run(&engine, &y, &rc)
}

/// Two-worker TPC-C on Falcon: five transaction types, scans, inserts
/// and deletes, conflicts and spec rollbacks, so every row of the
/// matrix and the catch-all are in play.
fn tpcc_run() -> RunResult {
    let rc = RunConfig {
        threads: 2,
        txns_per_thread: 150,
        warmup_per_thread: 20,
        ..RunConfig::default()
    };
    let t = Tpcc::new(TpccScale::tiny());
    let engine = build_engine(
        EngineConfig::falcon()
            .with_cc(CcAlgo::Occ)
            .with_threads(rc.threads),
        &t.table_defs(),
        t.scale().approx_bytes() * 2,
        None,
    );
    t.setup(&engine);
    run(&engine, &t, &rc)
}

/// The invariant: summing the matrix over all (type, phase) cells
/// reproduces the run's aggregated `ThreadStats` field-for-field.
fn assert_accounts_for_device(r: &RunResult, label: &str) {
    let cost = r.obs.cost.as_ref().expect("attribution ran");
    let total = cost.total();
    assert_eq!(
        total.stats, r.stats.total,
        "{label}: matrix total must equal DeviceStats.total"
    );
    // Virtual time: the matrix holds the sum of per-thread clocks, the
    // run's elapsed_ns is their max.
    assert!(total.ns >= r.elapsed_ns, "{label}: ns under-attributed");
    assert!(
        total.ns <= r.elapsed_ns * r.stats.threads as u64,
        "{label}: ns over-attributed"
    );
}

#[test]
fn matrix_accounts_for_every_device_event_in_place() {
    let r = ycsb_run(EngineConfig::falcon(), CcAlgo::Occ);
    assert!(r.committed > 0);
    assert_accounts_for_device(&r, "falcon/occ");

    // An update-heavy Falcon run must show log-append and commit-fence
    // costs attributed to the update type specifically.
    let cost = r.obs.cost.as_ref().unwrap();
    let update_row = r
        .obs
        .types
        .iter()
        .position(|t| t.name == "update")
        .expect("ycsb update type");
    let row = cost.matrix().row_total(update_row);
    assert!(row.stats.sfences > 0, "update commits must fence");
    assert!(row.ns > 0);

    let r = tpcc_run();
    assert!(r.committed > 0);
    assert_accounts_for_device(&r, "falcon/occ tpcc x2");
}

#[test]
fn matrix_accounts_for_every_device_event_out_of_place() {
    let r = ycsb_run(EngineConfig::outp(), CcAlgo::Mvocc);
    assert!(r.committed > 0);
    assert_accounts_for_device(&r, "outp/mvocc");

    let r = ycsb_run(EngineConfig::zens(), CcAlgo::Mvto);
    assert!(r.committed > 0);
    assert_accounts_for_device(&r, "zens/mvto");
}

#[test]
fn folded_stacks_are_well_formed() {
    let r = ycsb_run(EngineConfig::falcon(), CcAlgo::Occ);
    let folded = r.obs.cost.as_ref().unwrap().folded("ycsb_a");
    assert!(!folded.is_empty());
    let mut total_ns = 0u64;
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("frame stack + value");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 3, "prefix;txn_type;phase: {line}");
        assert_eq!(frames[0], "ycsb_a");
        assert!(!frames[1].is_empty() && !frames[2].is_empty());
        total_ns += value.parse::<u64>().expect("integer sample value");
    }
    // The folded output carries the full attributed virtual time.
    assert_eq!(total_ns, r.obs.cost.as_ref().unwrap().total().ns);
}
