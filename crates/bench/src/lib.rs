#![warn(missing_docs)]

//! Shared plumbing for the figure-regeneration harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §5 for the index). They all print a
//! human-readable table *and* write a JSON record under `results/`, and
//! they all honour the same environment variables so a full-scale run is
//! one `FALCON_FULL=1` away:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `FALCON_THREADS` | worker threads for the overall figures | 8 |
//! | `FALCON_TXNS` | committed txns per thread | 2000 |
//! | `FALCON_WAREHOUSES` | TPC-C warehouses | 2 × threads |
//! | `FALCON_YCSB_RECORDS` | YCSB rows | 65536 |
//! | `FALCON_FULL` | use the paper-scale sweep axes | off |
//! | `FALCON_CKPT` | `0` disables fuzzy checkpointing | 1 |
//! | `FALCON_CKPT_SPILL_CAP` | spill-region backpressure cap, bytes | engine default |
//! | `FALCON_CKPT_SPILL_THRESHOLD` | boundary-checkpoint trigger, bytes | engine default |
//!
//! The `FALCON_CKPT_*` knobs apply through [`BenchEnv::apply_ckpt`] to
//! the harnesses that exercise recovery; the committed `falcon_perf`
//! trajectory ignores them (its suites are pinned by construction).

pub mod perf;

use std::io::Write as _;

use falcon_core::{CcAlgo, Engine, EngineConfig};
use falcon_obs::report::{RecoveryCounts, ReportMeta, RunReport};
use falcon_wl::harness::{build_engine, run, RunConfig, RunResult, Workload};
use falcon_wl::tpcc::{Tpcc, TpccScale};
use falcon_wl::ycsb::{Dist, Ycsb, YcsbConfig, YcsbWorkload};

/// Environment-derived options shared by all harnesses.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Worker threads.
    pub threads: usize,
    /// Committed transactions per thread.
    pub txns: u64,
    /// TPC-C warehouses.
    pub warehouses: u64,
    /// YCSB records.
    pub ycsb_records: u64,
    /// Full-scale sweep axes.
    pub full: bool,
    /// Fuzzy checkpointing enabled (`FALCON_CKPT=0` disables).
    pub ckpt: bool,
    /// Spill-region backpressure cap override, bytes.
    pub ckpt_spill_cap: Option<u64>,
    /// Boundary-checkpoint trigger threshold override, bytes.
    pub ckpt_spill_threshold: Option<u64>,
}

impl BenchEnv {
    /// Read the environment.
    pub fn load() -> BenchEnv {
        let get = |k: &str, d: u64| -> u64 {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        let opt = |k: &str| -> Option<u64> { std::env::var(k).ok().and_then(|v| v.parse().ok()) };
        let threads = get("FALCON_THREADS", 8) as usize;
        BenchEnv {
            threads,
            txns: get("FALCON_TXNS", 2_000),
            warehouses: get("FALCON_WAREHOUSES", (threads as u64) * 2),
            ycsb_records: get("FALCON_YCSB_RECORDS", 64 << 10),
            full: std::env::var("FALCON_FULL").is_ok(),
            ckpt: get("FALCON_CKPT", 1) != 0,
            ckpt_spill_cap: opt("FALCON_CKPT_SPILL_CAP"),
            ckpt_spill_threshold: opt("FALCON_CKPT_SPILL_THRESHOLD"),
        }
    }

    /// Apply the `FALCON_CKPT_*` overrides to an engine configuration.
    /// The threshold is clamped to the cap so an override can never
    /// produce a configuration `validate()` rejects.
    pub fn apply_ckpt(&self, mut cfg: EngineConfig) -> EngineConfig {
        cfg.ckpt_enabled = self.ckpt;
        if let Some(cap) = self.ckpt_spill_cap {
            cfg.ckpt_spill_cap = cap.max(4096);
            cfg.ckpt_spill_threshold = cfg.ckpt_spill_threshold.min(cfg.ckpt_spill_cap);
        }
        if let Some(th) = self.ckpt_spill_threshold {
            cfg.ckpt_spill_threshold = th.min(cfg.ckpt_spill_cap);
        }
        cfg
    }

    /// Default run configuration for this environment.
    pub fn run_config(&self, txns_per_thread: u64) -> RunConfig {
        RunConfig {
            threads: self.threads,
            txns_per_thread,
            warmup_per_thread: (txns_per_thread / 10).clamp(10, 500),
            ..RunConfig::default()
        }
    }
}

/// Build, load, and run a TPC-C engine; returns the result.
pub fn run_tpcc(cfg: EngineConfig, cc: CcAlgo, warehouses: u64, rc: &RunConfig) -> RunResult {
    let t = Tpcc::new(TpccScale::bench().with_warehouses(warehouses));
    let engine = build_tpcc_engine(&t, cfg, cc, rc.threads);
    t.setup(&engine);
    run(&engine, &t, rc)
}

/// Build (without loading) a TPC-C engine.
pub fn build_tpcc_engine(t: &Tpcc, cfg: EngineConfig, cc: CcAlgo, threads: usize) -> Engine {
    build_engine(
        cfg.with_cc(cc).with_threads(threads),
        &t.table_defs(),
        t.scale().approx_bytes() * 2,
        None,
    )
}

/// Build, load, and run a YCSB engine; returns the result.
pub fn run_ycsb(cfg: EngineConfig, cc: CcAlgo, ycfg: YcsbConfig, rc: &RunConfig) -> RunResult {
    let y = Ycsb::new(ycfg);
    let data = y.config().records * (u64::from(y.config().tuple_size()) + 64);
    let engine = build_engine(
        cfg.with_cc(cc).with_threads(rc.threads),
        &[y.table_def()],
        data * 2,
        None,
    );
    y.setup(&engine);
    run(&engine, &y, rc)
}

/// Convenience constructor mirroring the paper's YCSB setup.
pub fn ycsb_cfg(wl: YcsbWorkload, dist: Dist, records: u64) -> YcsbConfig {
    YcsbConfig::new(wl, dist).with_records(records)
}

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(
        headers
            .iter()
            .map(std::string::ToString::to_string)
            .collect(),
    );
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write a JSON result record under `results/`.
pub fn write_json(name: &str, value: serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{}", serde_json::to_string_pretty(&value).unwrap());
        println!("[wrote {}]", path.display());
    }
}

/// Per-binary collector for engine observability reports.
///
/// Each bench binary constructs one sink, calls [`ObsSink::add`] after
/// every measured run, and [`ObsSink::finish`] before exiting. Every
/// run's [`falcon_obs::report::RunReport`] table is printed and all
/// reports are written together to `results/obs_<name>.json`.
pub struct ObsSink {
    name: String,
    reports: Vec<serde_json::Value>,
}

impl ObsSink {
    /// A sink for the named bench binary (`name` keys the output file).
    pub fn new(name: &str) -> ObsSink {
        ObsSink {
            name: name.to_string(),
            reports: Vec::new(),
        }
    }

    /// Record one run: print the report table and buffer the JSON
    /// document.
    pub fn add(&mut self, engine: &str, cc: CcAlgo, workload: &str, r: &RunResult) {
        self.add_with_recovery(engine, cc, workload, r, None);
    }

    /// Like [`ObsSink::add`] but attaches the recovery replay and
    /// damage counts from a [`falcon_core::RecoveryReport`].
    pub fn add_recovery(
        &mut self,
        engine: &str,
        cc: CcAlgo,
        workload: &str,
        r: &RunResult,
        rep: &falcon_core::RecoveryReport,
    ) {
        self.add_with_recovery(engine, cc, workload, r, Some(rep));
    }

    fn add_with_recovery(
        &mut self,
        engine: &str,
        cc: CcAlgo,
        workload: &str,
        r: &RunResult,
        recovery: Option<&falcon_core::RecoveryReport>,
    ) {
        let report = RunReport {
            meta: ReportMeta {
                bench: self.name.clone(),
                engine: engine.to_string(),
                cc: cc.name().to_string(),
                workload: workload.to_string(),
                threads: r.stats.threads,
            },
            committed: r.committed,
            aborted: r.aborted,
            dropped: r.dropped,
            elapsed_ns: r.elapsed_ns,
            run: r.obs.clone(),
            device: r.stats,
            recovery: recovery.map(|rep| RecoveryCounts {
                committed_replayed: rep.committed_replayed as u64,
                uncommitted_discarded: rep.uncommitted_discarded as u64,
                tuples_scanned: rep.tuples_scanned,
                total_ns: rep.total_ns,
                torn_records: rep.torn_records,
                corrupt_records: rep.corrupt_records,
                windows_salvaged: rep.windows_salvaged,
                index_repairs: rep.index_repairs,
                spill_bytes_scanned: rep.spill_bytes_scanned,
                spill_records_scanned: rep.spill_records_scanned,
                spill_truncated_refs: rep.spill_truncated_refs,
                spill_bytes_truncated: rep.spill_bytes_truncated,
                ckpt_epoch: rep.ckpt_epoch,
                ckpt_meta_corrupt: rep.ckpt_meta_corrupt,
            }),
            race: None,
            server: None,
        };
        print!("{}", report.render_table());
        self.reports.push(report.to_json());
    }

    /// Write the buffered reports to `results/obs_<name>.json` (no-op
    /// when nothing was recorded).
    pub fn finish(self) {
        if !self.reports.is_empty() {
            let file = format!("obs_{}", self.name);
            write_json(&file, serde_json::Value::Array(self.reports));
        }
    }
}

/// One-line device-side summary (write amplification and commit-fence
/// stall time) for a run — appended to each bench binary's stderr log
/// lines so the costliest persistency numbers are always visible.
pub fn fmt_device_summary(r: &RunResult) -> String {
    let t = &r.stats.total;
    format!(
        "amp {:.2}x sfence-wait {} ns",
        t.write_amplification(),
        t.sfence_wait_ns
    )
}

/// The run summary every harness logs after each measured run:
/// throughput, abort ratio, and the device summary.
pub fn fmt_run_summary(r: &RunResult) -> String {
    format!(
        "{:.3} MTxn/s (aborts {:.1}%, {})",
        r.mtps(),
        r.abort_ratio() * 100.0,
        fmt_device_summary(r)
    )
}

/// Log one `[tag] <label> <run summary>` progress line to stderr. The
/// label carries the harness's own columns (engine, cc, thread count…)
/// pre-padded; the summary block is shared so every binary reports the
/// same numbers the same way.
pub fn log_run(tag: &str, label: &str, r: &RunResult) {
    log_line(tag, &format!("{label} {}", fmt_run_summary(r)));
}

/// Log a `[tag]`-prefixed progress line to stderr (for harnesses whose
/// headline metric is not throughput — latency and recovery legs).
pub fn log_line(tag: &str, line: &str) {
    eprintln!("[{tag}] {line}");
}

/// The long per-engine device detail line of the calibration
/// diagnostic: media traffic, amplification, and cache behaviour.
pub fn fmt_device_detail(r: &RunResult) -> String {
    let t = &r.stats.total;
    format!(
        "{:>8.3} MTps  media {:>4} MB  amp {:>5.2}  sfence_wait {:>10} ns  evict {:>8} clwb_wb {:>8} rmw {:>8} fills {:>9} xpb_hit {:>7}",
        r.mtps(),
        t.media_bytes_written() >> 20,
        t.write_amplification(),
        t.sfence_wait_ns,
        t.evictions,
        t.clwb_writebacks,
        t.media_rmw,
        t.media_fill_reads,
        t.fills_from_xpbuffer
    )
}

/// Format MTxn/s with three decimals.
pub fn fmt_mtps(v: f64) -> String {
    format!("{v:.3}")
}

/// Format virtual ns as µs with one decimal.
pub fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let e = BenchEnv::load();
        assert!(e.threads > 0);
        assert!(e.run_config(100).warmup_per_thread >= 10);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_mtps(1.23456), "1.235");
        assert_eq!(fmt_us(1500), "1.5");
    }
}
