//! End-to-end acceptance test for engine observability: a YCSB-B Zipfian
//! run on the Falcon engine must produce a schema-versioned run report
//! with non-zero log-window appends, hot-LRU activity, per-phase
//! percentiles for every transaction type, and merged device stats.

use falcon::engine::{CcAlgo, EngineConfig};
use falcon::obs::report::{ReportMeta, RunReport};
use falcon::obs::Phase;
use falcon::workloads::harness::{build_engine, run, RunConfig, Workload};
use falcon::workloads::ycsb::{Dist, Ycsb, YcsbConfig, YcsbWorkload};
use serde_json::Value;

fn ycsb_b_run() -> (falcon::workloads::harness::RunResult, usize) {
    let rc = RunConfig {
        threads: 2,
        txns_per_thread: 500,
        warmup_per_thread: 50,
        ..RunConfig::default()
    };
    let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::B, Dist::Zipfian).with_records(8 << 10));
    let engine = build_engine(
        EngineConfig::falcon()
            .with_cc(CcAlgo::Occ)
            .with_threads(rc.threads),
        &[y.table_def()],
        64 << 20,
        None,
    );
    y.setup(&engine);
    let r = run(&engine, &y, &rc);
    (r, rc.threads)
}

#[test]
fn falcon_ycsb_b_report_is_complete() {
    let (r, threads) = ycsb_b_run();
    let e = &r.obs.engine;

    // Engine counters that must move on a Falcon YCSB-B run.
    assert_eq!(e.commits, r.committed, "obs commit count must match");
    assert!(e.log_appends > 0, "small-log-window appends not counted");
    assert!(e.log_append_bytes > 0);
    assert!(
        e.hot_hits > 0,
        "Zipfian updates must hit the hot-tuple LRU (hits {} misses {})",
        e.hot_hits,
        e.hot_misses,
    );
    assert!(e.flush_hinted + e.flush_skipped_hot > 0);

    // YCSB-B exercises reads and updates; both types must carry
    // latency and phase histograms (the other types legitimately stay
    // empty under this mix).
    assert_eq!(r.obs.types.len(), 5, "one slot per YCSB txn type");
    for t in r
        .obs
        .types
        .iter()
        .filter(|t| t.name == "read" || t.name == "update")
    {
        assert!(
            t.latency.count() > 0,
            "type {} committed nothing in 1000 txns",
            t.name
        );
        assert!(t.latency.percentile(50.0) <= t.latency.percentile(95.0));
        assert!(t.latency.percentile(95.0) <= t.latency.percentile(99.0));
        let lookups = &t.phases[Phase::IndexLookup as usize];
        assert!(lookups.count() > 0, "type {} traced no lookups", t.name);
    }

    // The JSON document is schema-versioned and carries the merged
    // device stats.
    let report = RunReport {
        meta: ReportMeta {
            bench: "obs_report_test".into(),
            engine: "Falcon".into(),
            cc: "OCC".into(),
            workload: "YCSB-B/zipfian".into(),
            threads,
        },
        committed: r.committed,
        aborted: r.aborted,
        dropped: r.dropped,
        elapsed_ns: r.elapsed_ns,
        run: r.obs.clone(),
        device: r.stats,
        recovery: None,
        race: None,
        server: None,
    };
    let v = report.to_json();
    assert_eq!(
        v.get("schema_version").and_then(Value::as_u64),
        Some(falcon::obs::report::SCHEMA_VERSION)
    );
    assert!(v.get("schema").is_none(), "one schema identifier only");
    let engine_log = v
        .get("engine")
        .and_then(|e| e.get("log_window"))
        .and_then(|l| l.get("appends"))
        .and_then(Value::as_u64)
        .expect("engine.log_window.appends");
    assert!(engine_log > 0);
    let dev_accesses = v
        .get("device")
        .and_then(|d| d.get("accesses"))
        .and_then(Value::as_u64)
        .expect("device.accesses");
    assert_eq!(dev_accesses, r.stats.total.accesses);
    let types = v.get("types").and_then(Value::as_array).expect("types");
    assert_eq!(types.len(), 5);
    for t in types {
        for key in ["p50", "p95", "p99"] {
            assert!(
                t.get("latency").and_then(|l| l.get(key)).is_some(),
                "missing latency.{key}"
            );
        }
        let phases = t.get("phases").expect("phases object");
        for p in Phase::ALL {
            assert!(
                phases.get(p.name()).and_then(|h| h.get("p99")).is_some(),
                "missing phase {}",
                p.name()
            );
        }
    }

    // The rendered table mentions every transaction type.
    let table = report.render_table();
    assert!(table.contains("read") && table.contains("update"));
}

#[test]
fn instrumented_run_commits_what_was_asked() {
    // Observability must observe, not perturb: an instrumented run
    // fills exactly the slots the harness was asked for.
    let (r, _) = ycsb_b_run();
    assert_eq!(r.committed + r.dropped, 2 * 500);
}
