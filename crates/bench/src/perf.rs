//! falcon-perf: the committed, regression-gated benchmark trajectory.
//!
//! [`bench_document`] runs a fixed, seed-pinned suite lineup — YCSB
//! A/B/C, a small TPC-C, and a crash-recovery leg, all on the Falcon
//! engine — and produces a schema-versioned JSON record meant to be
//! committed as `bench/BENCH_<pr>.json`, one per PR. [`compare`] diffs
//! two such records with a direction-aware relative tolerance, which is
//! what `scripts/check.sh` runs to catch performance regressions before
//! they land.
//!
//! **Why `threads: 1`:** multi-worker runs are *not* reproducible —
//! pmem-sim's set-associative cache is shared across workers and the
//! interleaving of real threads inside a pacing quantum varies run to
//! run — so only single-worker suites can honour the byte-identical
//! contract a committed baseline needs. Multi-worker numbers stay in
//! the advisory figure JSONs under `results/`.
//!
//! Every metric under a suite's `"virtual"` map is derived from the
//! simulator's virtual clock and device counters and is bit-exact
//! across reruns of the same tree. Host time is `benchmark/`'s business
//! and is not recorded here. Beside the map, each suite reports
//! `resident_bytes`: the host memory its device image held at the end
//! (the touched chunks, see `PmemDevice::resident_bytes`). It is
//! deterministic too, but informational: [`compare`] reads only the
//! `"virtual"` maps.

use std::fmt::Write as _;

use falcon_core::{recover, CcAlgo, EngineConfig};
use falcon_obs::cost::COST_COLS;
use falcon_obs::{CostMatrix, Histogram, Phase};
use falcon_server::sim::{run_sim, SimSpec};
use falcon_wl::harness::{build_engine, run, RunConfig, RunResult, Workload};
use falcon_wl::ycsb::{Dist, Ycsb, YcsbConfig, YcsbWorkload};
use serde_json::{json, Value};

use crate::{Run, Wl};

/// Schema tag carried by every benchmark record; [`compare`] refuses to
/// diff records with different tags.
pub const SCHEMA: &str = "falcon-bench/v1";

/// Default relative tolerance for the regression gate: 0, exact. Every
/// gated metric is bit-exact across reruns of one tree, so any worse
/// value is a regression; a better one passes, is listed, and is kept
/// by committing a new baseline. `--tol` loosens it for ad-hoc diffs.
pub const DEFAULT_TOL: f64 = 0.0;

/// Suite shape shared by the whole trajectory: single worker (see the
/// module docs for why), default seed, fixed sizes.
fn suite_rc(txns: u64, warmup: u64) -> RunConfig {
    RunConfig {
        threads: 1,
        txns_per_thread: txns,
        warmup_per_thread: warmup,
        ..RunConfig::default()
    }
}

/// YCSB record count for the gated suites.
const YCSB_RECORDS: u64 = 16 << 10;

/// Metrics where a *larger* value is an improvement; everything else
/// (latency, fences, media traffic, spills, recovery time) is
/// better when smaller.
fn higher_is_better(path: &str) -> bool {
    path.ends_with("txn_per_sec")
        || path.ends_with(".committed")
        || path.ends_with("committed_replayed")
        || path.ends_with(".admitted")
        || path.ends_with("mean_batch_milli")
        || path.ends_with("batch_peak")
}

/// The flat `"virtual"` metric map for one workload run.
fn run_metrics(r: &RunResult) -> Value {
    let t = &r.stats.total;
    let e = &r.obs.engine;
    let mut m: Vec<(String, Value)> = Vec::new();
    let mut put = |k: &str, v: Value| m.push((k.to_string(), v));
    put("committed", Value::from(r.committed));
    put("aborted", Value::from(r.aborted));
    put("elapsed_ns", Value::from(r.elapsed_ns));
    put("txn_per_sec", Value::from(r.txn_per_sec));
    put("write_amplification", Value::from(t.write_amplification()));
    put("clwb_issued", Value::from(t.clwb_issued));
    put("sfences", Value::from(t.sfences));
    put("sfence_wait_ns", Value::from(t.sfence_wait_ns));
    put("media_block_writes", Value::from(t.media_block_writes));
    put("media_rmw", Value::from(t.media_rmw));
    put("media_bytes_written", Value::from(t.media_bytes_written()));
    put("log_spills", Value::from(e.log_overflow_spills));
    put("log_spill_bytes", Value::from(e.log_spill_bytes));

    // End-to-end latency percentiles, merged across txn types.
    let mut lat = Histogram::new();
    for ty in &r.obs.types {
        lat.merge(&ty.latency);
    }
    for (p, name) in [(50.0, "p50"), (95.0, "p95"), (99.0, "p99")] {
        put(&format!("lat_{name}_ns"), Value::from(lat.percentile(p)));
    }

    // Per-phase span percentiles, merged across txn types. Empty
    // phases report zeros so the metric set is stable run to run.
    for (pi, phase) in Phase::ALL.iter().enumerate() {
        let mut h = Histogram::new();
        for ty in &r.obs.types {
            h.merge(&ty.phases[pi]);
        }
        for (p, name) in [(50.0, "p50"), (95.0, "p95"), (99.0, "p99")] {
            put(
                &format!("phase.{}.{name}_ns", phase.name()),
                Value::from(h.percentile(p)),
            );
        }
    }

    // Attributed device time per phase column (the cost matrix).
    if let Some(cost) = &r.obs.cost {
        for c in 0..COST_COLS {
            put(
                &format!("cost.{}.ns", CostMatrix::col_name(c)),
                Value::from(cost.col_total(c).ns),
            );
        }
    }
    Value::Object(m)
}

/// One emitted suite: its JSON block and (for workload suites) the
/// cost matrix for folded-stack output.
struct Suite {
    name: &'static str,
    block: Value,
    cost: Option<CostMatrix>,
}

/// `wl` on the Falcon engine under OCC.
fn falcon_run(wl: Wl, rc: RunConfig) -> Run {
    Run::new(EngineConfig::falcon(), CcAlgo::Occ, wl, rc)
}

/// A workload suite: `spec` loaded and run.
fn workload_suite(name: &'static str, spec: Run) -> Suite {
    let (engine, workload, _) = spec.load();
    let r = run(&engine, workload.as_ref(), &spec.rc);
    eprintln!(
        "[falcon-perf] {name:<10} {:>10.3} ktxn/s (virtual)",
        r.txn_per_sec / 1e3
    );
    Suite {
        name,
        block: json!({
            "virtual": run_metrics(&r),
            "resident_bytes": engine.device().resident_bytes(),
        }),
        cost: r.obs.cost.clone(),
    }
}

fn ycsb_suite(name: &'static str, wl: YcsbWorkload) -> Suite {
    let ycsb = YcsbConfig::new(wl, Dist::Zipfian).with_records(YCSB_RECORDS);
    workload_suite(name, falcon_run(Wl::Ycsb(ycsb), suite_rc(2_000, 200)))
}

fn tpcc_run() -> Run {
    falcon_run(Wl::tpcc(2), suite_rc(1_000, 100))
}

fn tpcc_suite() -> Suite {
    workload_suite("tpcc", tpcc_run())
}

/// Crash-recovery leg: load YCSB, run briefly, crash the device, and
/// measure the virtual recovery timeline.
fn recovery_suite() -> Suite {
    let cfg = EngineConfig::falcon().with_cc(CcAlgo::Occ).with_threads(1);
    let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Uniform).with_records(YCSB_RECORDS));
    let bytes = y.config().approx_bytes() * 2;
    let engine = build_engine(cfg.clone(), &[y.table_def()], bytes, None);
    y.setup(&engine);
    let _ = run(&engine, &y, &suite_rc(200, 0));
    let dev = engine.device().clone();
    drop(engine);
    dev.crash();
    let defs = [y.table_def()];
    let (e2, rep) = recover(dev, cfg, &defs).expect("recovery");
    eprintln!(
        "[falcon-perf] {:<10} {:>10.3} ms recovery (virtual)",
        "recovery",
        rep.total_ns as f64 / 1e6
    );
    Suite {
        name: "recovery",
        block: json!({
            "virtual": json!({
                "total_ns": Value::from(rep.total_ns),
                "catalog_ns": Value::from(rep.catalog_ns),
                "index_ns": Value::from(rep.index_ns),
                "replay_ns": Value::from(rep.replay_ns),
                "committed_replayed": Value::from(rep.committed_replayed as u64),
                "uncommitted_discarded": Value::from(rep.uncommitted_discarded as u64),
                "tuples_scanned": Value::from(rep.tuples_scanned),
            }),
            "resident_bytes": e2.device().resident_bytes(),
        }),
        cost: None,
    }
}

/// Checkpointed crash-recovery leg: a spill-heavy window (1 KiB, so
/// most transactions overflow into the spill region) with fuzzy
/// checkpoints on a 16 KiB cap, crashed mid-flight. The gated metrics
/// cover what the checkpoint protocol is for: `recovery_replay_ns` must
/// stay bounded by the cap rather than the run length, and
/// `spill_bytes_truncated` (the dead tail recovery reclaims) must not
/// creep up — either moving past tolerance means the bounded-restart
/// guarantee regressed.
fn ckpt_suite() -> Suite {
    let mut cfg = EngineConfig::falcon()
        .with_cc(CcAlgo::Occ)
        .with_threads(1)
        .with_spill_cap(16 << 10, 8 << 10);
    cfg.name = "Falcon (ckpt)";
    cfg.window_bytes = 1024;
    let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Uniform).with_records(YCSB_RECORDS));
    let bytes = y.config().approx_bytes() * 2;
    let engine = build_engine(cfg.clone(), &[y.table_def()], bytes, None);
    y.setup(&engine);
    // 397 transactions: deliberately not a multiple of the boundary-
    // checkpoint interval, so the crash lands mid-interval and the
    // bounded tail scan / truncation metrics are non-zero.
    let r = run(&engine, &y, &suite_rc(397, 0));
    let es = &r.obs.engine;
    let (published, stalls) = (es.ckpt_published, es.ckpt_backpressure_stalls);
    let dev = engine.device().clone();
    drop(engine);
    dev.crash();
    let defs = [y.table_def()];
    let (e2, rep) = recover(dev, cfg, &defs).expect("recovery");
    eprintln!(
        "[falcon-perf] {:<10} {:>10.3} ms replay, {} B spill truncated (virtual)",
        "ckpt",
        rep.replay_ns as f64 / 1e6,
        rep.spill_bytes_truncated,
    );
    Suite {
        name: "ckpt",
        block: json!({
            "virtual": json!({
                "recovery_total_ns": Value::from(rep.total_ns),
                "recovery_replay_ns": Value::from(rep.replay_ns),
                "spill_bytes_scanned": Value::from(rep.spill_bytes_scanned),
                "spill_bytes_truncated": Value::from(rep.spill_bytes_truncated),
                "ckpt_epoch": Value::from(rep.ckpt_epoch),
                "ckpt_published": Value::from(published),
                "backpressure_stalls": Value::from(stalls),
                "committed_replayed": Value::from(rep.committed_replayed as u64),
            }),
            "resident_bytes": e2.device().resident_bytes(),
        }),
        cost: None,
    }
}

/// Reduce a serving-layer simulator run to its gated metric map.
fn server_metrics(rep: &falcon_server::sim::SimReport) -> Value {
    let mut m: Vec<(String, Value)> = Vec::new();
    let mut put = |k: &str, v: Value| m.push((k.to_string(), v));
    put("requests", Value::from(rep.requests));
    put("admitted", Value::from(rep.admitted));
    put("shed", Value::from(rep.shed));
    put("committed", Value::from(rep.committed));
    put("fences", Value::from(rep.fences));
    put("batch_peak", Value::from(rep.batch_peak));
    put("mean_batch_milli", Value::from(rep.mean_batch_milli));
    put("retries", Value::from(rep.retries));
    put("retry_exhausted", Value::from(rep.retry_exhausted));
    put("elapsed_ns", Value::from(rep.elapsed_ns));
    put("lat_p99_ns", Value::from(rep.p99_latency_ns));
    put("txn_per_sec", Value::from(rep.txn_per_sec));
    Value::Object(m)
}

/// Serving-layer group-commit suite: a write-only load sized to the
/// admission cap, so every drained batch fills the group and one fence
/// covers [`SimSpec::group_max_batch`] transactions. The structural
/// gate — strictly fewer fences than committed transactions at batch
/// ≥ 8, i.e. well under one sfence per transaction — is asserted here;
/// the exact amortization ratio (`mean_batch_milli`) is then pinned by
/// the baseline comparison.
fn server_suite() -> Suite {
    let spec = SimSpec {
        conns: 8,
        waves: 32,
        burst: 2,
        admission_cap: 16,
        group_max_batch: 8,
        write_pct: 100,
        key_space: 64,
        preload_keys: 64,
        ..SimSpec::default()
    };
    let rep = run_sim(&spec).expect("server sim");
    assert!(
        rep.shed == 0,
        "server suite is sized to its admission cap; {} sheds",
        rep.shed
    );
    // A few deletes land on already-removed keys (NotFound, no commit),
    // so drained batches occasionally carry 7 writes instead of 8 —
    // require ≥4× amortization structurally (far under one sfence per
    // transaction) and pin the exact ratio via the baseline.
    assert!(
        rep.fences * 4 <= rep.committed,
        "group commit must stay well under one sfence per transaction \
         at batch 8 ({} fences for {} committed)",
        rep.fences,
        rep.committed
    );
    eprintln!(
        "[falcon-perf] {:<10} {:>10.3} ktxn/s (virtual), {:.2} txns/fence",
        "server",
        rep.txn_per_sec / 1e3,
        rep.mean_batch_milli as f64 / 1e3,
    );
    Suite {
        name: "server",
        block: json!({
            "virtual": server_metrics(&rep),
            "resident_bytes": rep.resident_bytes,
        }),
        cost: None,
    }
}

/// Serving-layer overload suite: each wave offers 4× the admission cap,
/// so the shed path runs constantly. Gates that overload stays *typed*
/// and bounded: the shed count is exact (every over-cap request answers
/// `Overloaded`, never a silent drop), and the p99 latency of the
/// requests that *were* admitted must not creep up — admission control
/// exists precisely to keep the served fraction fast.
fn server_overload_suite() -> Suite {
    let spec = SimSpec {
        conns: 8,
        waves: 16,
        burst: 4,
        admission_cap: 8,
        group_max_batch: 8,
        ..SimSpec::default()
    };
    let rep = run_sim(&spec).expect("server overload sim");
    assert!(
        rep.shed > 0 && rep.admitted + rep.shed == rep.requests,
        "overload must shed typed and answer everything \
         ({} + {} of {} requests)",
        rep.admitted,
        rep.shed,
        rep.requests
    );
    eprintln!(
        "[falcon-perf] {:<10} {:>10.3} ktxn/s (virtual), {} shed",
        "server_ov",
        rep.txn_per_sec / 1e3,
        rep.shed,
    );
    Suite {
        name: "server_overload",
        block: json!({
            "virtual": server_metrics(&rep),
            "resident_bytes": rep.resident_bytes,
        }),
        cost: None,
    }
}

/// Run the full gated lineup. Returns the committable benchmark record
/// and, when `folded` is requested, the concatenated folded stacks of
/// every workload suite (prefix = suite name), ready for
/// `flamegraph.pl` / inferno.
pub fn bench_document(label: &str, folded: bool) -> (Value, Option<String>) {
    let suites = [
        ycsb_suite("ycsb_a", YcsbWorkload::A),
        ycsb_suite("ycsb_b", YcsbWorkload::B),
        ycsb_suite("ycsb_c", YcsbWorkload::C),
        tpcc_suite(),
        recovery_suite(),
        ckpt_suite(),
        server_suite(),
        server_overload_suite(),
    ];
    let mut folded_out = folded.then(String::new);
    let mut blocks: Vec<(String, Value)> = Vec::new();
    for s in suites {
        if let (Some(out), Some(cost)) = (folded_out.as_mut(), &s.cost) {
            out.push_str(&cost.folded(s.name));
        }
        blocks.push((s.name.to_string(), s.block));
    }
    let doc = json!({
        "schema": SCHEMA,
        "label": label,
        "engine": "Falcon",
        "cc": "occ",
        "threads": 1u64,
        "seed": RunConfig::default().seed,
        "ycsb_records": YCSB_RECORDS,
        "suites": Value::Object(blocks),
    });
    (doc, folded_out)
}

/// How one metric moved between two benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within tolerance.
    Ok,
    /// Better than the baseline by more than the tolerance.
    Improved,
    /// Worse than the baseline by more than the tolerance — gate fails.
    Regressed,
    /// Present only in the new record (informational).
    Added,
    /// Present only in the baseline — gate fails (schema drift).
    Removed,
}

impl DeltaStatus {
    fn name(self) -> &'static str {
        match self {
            DeltaStatus::Ok => "ok",
            DeltaStatus::Improved => "improved",
            DeltaStatus::Regressed => "REGRESSED",
            DeltaStatus::Added => "added",
            DeltaStatus::Removed => "REMOVED",
        }
    }
}

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct Delta {
    /// `suite.metric` path.
    pub path: String,
    /// Baseline value (`None` for [`DeltaStatus::Added`]).
    pub old: Option<f64>,
    /// Fresh value (`None` for [`DeltaStatus::Removed`]).
    pub new: Option<f64>,
    /// Verdict under the comparison's tolerance.
    pub status: DeltaStatus,
}

impl Delta {
    /// Relative change in percent, when both sides exist and the
    /// baseline is non-zero.
    pub fn change_pct(&self) -> Option<f64> {
        match (self.old, self.new) {
            (Some(o), Some(n)) if o != 0.0 => Some((n - o) / o * 100.0),
            _ => None,
        }
    }
}

/// The outcome of diffing two benchmark records.
#[derive(Debug)]
pub struct Comparison {
    /// Every gated metric, in record order.
    pub deltas: Vec<Delta>,
    /// Relative tolerance the verdicts used.
    pub tol: f64,
}

impl Comparison {
    /// Gate verdict: no metric regressed or disappeared.
    pub fn pass(&self) -> bool {
        !self
            .deltas
            .iter()
            .any(|d| matches!(d.status, DeltaStatus::Regressed | DeltaStatus::Removed))
    }

    /// Per-metric delta table of everything that moved (plus a
    /// one-line summary); on failure this is the actionable output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let moved: Vec<&Delta> = self
            .deltas
            .iter()
            .filter(|d| d.status != DeltaStatus::Ok)
            .collect();
        if !moved.is_empty() {
            let _ = writeln!(
                out,
                "{:<42} {:>14} {:>14} {:>9}  status",
                "metric", "baseline", "current", "delta"
            );
            for d in moved {
                let fmt = |v: Option<f64>| match v {
                    Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{v:.0}"),
                    Some(v) => format!("{v:.3}"),
                    None => "-".to_string(),
                };
                let pct = d
                    .change_pct()
                    .map_or("-".to_string(), |p| format!("{p:+.1}%"));
                let _ = writeln!(
                    out,
                    "{:<42} {:>14} {:>14} {:>9}  {}",
                    d.path,
                    fmt(d.old),
                    fmt(d.new),
                    pct,
                    d.status.name()
                );
            }
        }
        let n = |s: DeltaStatus| self.deltas.iter().filter(|d| d.status == s).count();
        let _ = writeln!(
            out,
            "{} metrics gated at ±{:.0}%: {} ok, {} improved, {} regressed, {} added, {} removed",
            self.deltas.len(),
            self.tol * 100.0,
            n(DeltaStatus::Ok),
            n(DeltaStatus::Improved),
            n(DeltaStatus::Regressed),
            n(DeltaStatus::Added),
            n(DeltaStatus::Removed),
        );
        out
    }
}

/// Flatten a record's gated metrics (each suite's `"virtual"` map) to
/// `suite.metric` → value pairs. Other keys of a suite block, such as
/// the `"advisory"` wall-clock map of older records, are ignored.
fn flatten(doc: &Value) -> Result<Vec<(String, f64)>, String> {
    let Some(Value::Object(suites)) = doc.get("suites") else {
        return Err("record has no \"suites\" object".to_string());
    };
    let mut out = Vec::new();
    for (suite, block) in suites {
        let Some(Value::Object(metrics)) = block.get("virtual") else {
            return Err(format!("suite {suite:?} has no \"virtual\" map"));
        };
        for (metric, v) in metrics {
            let Some(x) = v.as_f64() else {
                return Err(format!("{suite}.{metric} is not a number"));
            };
            out.push((format!("{suite}.{metric}"), x));
        }
    }
    Ok(out)
}

/// Diff a fresh benchmark record against a committed baseline with the
/// given relative tolerance. Direction-aware: throughput may not drop,
/// costs may not rise, beyond `tol`. Records with different `schema`
/// tags refuse to compare.
pub fn compare(baseline: &Value, fresh: &Value, tol: f64) -> Result<Comparison, String> {
    let tag = |doc: &Value, which: &str| {
        doc.get("schema")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("{which} record has no \"schema\" tag"))
    };
    let (old_tag, new_tag) = (tag(baseline, "baseline")?, tag(fresh, "fresh")?);
    if old_tag != SCHEMA || new_tag != SCHEMA {
        return Err(format!(
            "schema mismatch: baseline {old_tag:?}, fresh {new_tag:?}, gate speaks {SCHEMA:?}"
        ));
    }
    let old = flatten(baseline)?;
    let new = flatten(fresh)?;
    let mut deltas = Vec::new();
    for (path, o) in &old {
        let status;
        let n = new.iter().find(|(p, _)| p == path).map(|&(_, v)| v);
        if let Some(n) = n {
            let worse = if higher_is_better(path) {
                n < *o
            } else {
                n > *o
            };
            let beyond = (n - o).abs() > o.abs() * tol;
            status = match (worse, beyond) {
                (true, true) => DeltaStatus::Regressed,
                (false, true) => DeltaStatus::Improved,
                _ => DeltaStatus::Ok,
            };
        } else {
            status = DeltaStatus::Removed;
        }
        deltas.push(Delta {
            path: path.clone(),
            old: Some(*o),
            new: n,
            status,
        });
    }
    for (path, n) in &new {
        if !old.iter().any(|(p, _)| p == path) {
            deltas.push(Delta {
                path: path.clone(),
                old: None,
                new: Some(*n),
                status: DeltaStatus::Added,
            });
        }
    }
    Ok(Comparison { deltas, tol })
}

/// Render `v` exactly as the emitted file stores it (used by tests to
/// pin byte-stability expectations).
pub fn render(v: &Value) -> String {
    format!("{}\n", serde_json::to_string_pretty(v).unwrap())
}

#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Number;

    fn doc(tps: f64, sfences: u64) -> Value {
        json!({
            "schema": SCHEMA,
            "suites": json!({
                "ycsb_a": json!({
                    "virtual": json!({
                        "txn_per_sec": Value::from(tps),
                        "sfences": Value::from(sfences),
                        "committed": 2000u64,
                    }),
                }),
            }),
        })
    }

    /// The `tpcc` suite's device is sized at twice the data volume plus
    /// growth slack (148 MiB), and its load writes 11.9 MiB of chunks.
    /// The bound keeps host memory following the data: an image that
    /// allocated eagerly again, or a load that wrote its slack, fails.
    #[test]
    fn tpcc_load_holds_only_the_chunks_it_writes() {
        let (engine, _, _) = tpcc_run().load();
        let dev = engine.device();
        let resident = dev.resident_bytes();
        assert!(
            resident <= 16 << 20,
            "tpcc load holds {resident} B of a {} B device",
            dev.capacity()
        );
    }

    #[test]
    fn identical_records_pass() {
        let c = compare(&doc(1e6, 100), &doc(1e6, 100), DEFAULT_TOL).unwrap();
        assert!(c.pass());
        assert!(c.deltas.iter().all(|d| d.status == DeltaStatus::Ok));
    }

    #[test]
    fn direction_aware_throughput() {
        // A 10% throughput drop regresses; a 10% gain improves.
        let c = compare(&doc(1e6, 100), &doc(0.9e6, 100), 0.05).unwrap();
        assert!(!c.pass());
        let d = c.deltas.iter().find(|d| d.path.ends_with("txn_per_sec"));
        assert_eq!(d.unwrap().status, DeltaStatus::Regressed);

        let c = compare(&doc(1e6, 100), &doc(1.1e6, 100), 0.05).unwrap();
        assert!(c.pass());
        let d = c.deltas.iter().find(|d| d.path.ends_with("txn_per_sec"));
        assert_eq!(d.unwrap().status, DeltaStatus::Improved);
    }

    #[test]
    fn direction_aware_costs() {
        // Fences are lower-better: +20% fails, -20% passes.
        assert!(!compare(&doc(1e6, 100), &doc(1e6, 120), 0.05)
            .unwrap()
            .pass());
        assert!(compare(&doc(1e6, 100), &doc(1e6, 80), 0.05).unwrap().pass());
    }

    #[test]
    fn within_tolerance_passes_both_ways() {
        assert!(compare(&doc(1e6, 100), &doc(0.97e6, 102), 0.05)
            .unwrap()
            .pass());
    }

    #[test]
    fn removed_metric_fails_added_passes() {
        let mut small = doc(1e6, 100);
        // Drop "sfences" from the fresh record: schema drift, fail.
        if let Some(Value::Object(suites)) = small.get_mut("suites") {
            if let Some(Value::Object(m)) = suites[0].1.get_mut("virtual") {
                m.retain(|(k, _)| k != "sfences");
            }
        }
        let c = compare(&doc(1e6, 100), &small, 0.05).unwrap();
        assert!(!c.pass());
        assert!(c.deltas.iter().any(|d| d.status == DeltaStatus::Removed));

        // The other way round: a new metric appears — informational.
        let c = compare(&small, &doc(1e6, 100), 0.05).unwrap();
        assert!(c.pass());
        assert!(c.deltas.iter().any(|d| d.status == DeltaStatus::Added));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let mut b = doc(1e6, 100);
        if let Value::Object(fields) = &mut b {
            fields[0].1 = Value::String("falcon-bench/v0".to_string());
        }
        assert!(compare(&b, &doc(1e6, 100), 0.05).is_err());
        assert!(compare(&doc(1e6, 100), &b, 0.05).is_err());
    }

    #[test]
    fn delta_table_names_the_regressed_metric() {
        let c = compare(&doc(1e6, 100), &doc(1e6, 200), 0.05).unwrap();
        let table = c.render_table();
        assert!(table.contains("ycsb_a.sfences"));
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("+100.0%"));
    }

    #[test]
    fn zero_baseline_regresses_on_any_cost_growth() {
        let c = compare(&doc(1e6, 0), &doc(1e6, 5), 0.05).unwrap();
        assert!(!c.pass());
        // And zero-to-zero is clean.
        assert!(compare(&doc(1e6, 0), &doc(1e6, 0), 0.05).unwrap().pass());
    }

    #[test]
    fn round_trip_through_shim_parser() {
        let d = doc(1_234_567.89, 42);
        let text = render(&d);
        let back = serde_json::from_str(&text).unwrap();
        let c = compare(&d, &back, 0.0).unwrap();
        assert!(c.pass(), "parse must preserve every gated value exactly");
        assert!(c.deltas.iter().all(|d| d.status == DeltaStatus::Ok));
    }

    #[test]
    fn number_shapes_flatten() {
        // u64, i64 and f64 all read back as gateable numbers.
        let v = Value::Object(vec![
            ("u".to_string(), Value::Number(Number::U(7))),
            ("i".to_string(), Value::Number(Number::I(-7))),
            ("f".to_string(), Value::Number(Number::F(7.5))),
        ]);
        let doc = json!({
            "schema": SCHEMA,
            "suites": json!({ "s": json!({ "virtual": v }) }),
        });
        let flat = flatten(&doc).unwrap();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[1].1, -7.0);
    }
}
