#![warn(missing_docs)]

//! Shared plumbing for the evaluation drivers of `falcon_perf`.
//!
//! [`figure`] regenerates every table and figure of the paper's
//! evaluation (`falcon_perf figure <name> [--scale smoke|default|paper]`,
//! DESIGN.md §5 has the index); [`perf`] is the committed,
//! regression-gated trajectory (`falcon_perf emit` / `check`). Both
//! measure through `Run`: one engine experiment that builds a device
//! and engine sized for its workload, loads it, runs it, and optionally
//! cuts power and recovers.

pub mod figure;
pub mod perf;

use std::io::Write as _;
use std::path::{Path, PathBuf};

use falcon_core::{recover, CcAlgo, Engine, EngineConfig, RecoveryReport, TableDef};
use falcon_obs::report::{RecoveryCounts, ReportMeta, RunReport};
use falcon_wl::harness::{build_engine, run, RunConfig, RunResult, Workload};
use falcon_wl::tpcc::{Tpcc, TpccScale};
use falcon_wl::ycsb::{Ycsb, YcsbConfig};
use pmem_sim::SimConfig;

/// What a [`Run`] loads and drives.
#[derive(Debug, Clone)]
pub(crate) enum Wl {
    /// TPC-C at the given scale.
    Tpcc(TpccScale),
    /// One YCSB table.
    Ycsb(YcsbConfig),
}

impl Wl {
    /// TPC-C at the benchmark scale with `warehouses` warehouses.
    pub fn tpcc(warehouses: u64) -> Wl {
        Wl::Tpcc(TpccScale::bench().with_warehouses(warehouses))
    }

    /// Approximate loaded data volume, bytes.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Wl::Tpcc(s) => s.approx_bytes(),
            Wl::Ycsb(c) => c.approx_bytes(),
        }
    }

    /// Short label for logs and observability reports.
    pub fn label(&self) -> String {
        match self {
            Wl::Tpcc(s) => format!("TPC-C/{}wh", s.warehouses),
            Wl::Ycsb(c) => format!(
                "{}/{}/{}rows/{}B",
                c.workload.name(),
                c.dist.name(),
                c.records,
                c.tuple_size()
            ),
        }
    }
}

/// One engine experiment. Two `Run`s with equal `Debug` renderings are
/// the same experiment: every field that shapes the run is in it.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    /// Engine variant, with the CC algorithm and thread count applied.
    pub cfg: EngineConfig,
    /// Workload.
    pub wl: Wl,
    /// Harness configuration.
    pub rc: RunConfig,
    /// Device model (its capacity is derived from `data_bytes`).
    pub sim: SimConfig,
    /// Data volume the device is sized for (`build_engine`'s
    /// `data_bytes`): twice the workload's volume unless overridden.
    pub data_bytes: u64,
    /// Cut power after the run and recover (the §6.5 timeline).
    pub crash: bool,
}

impl Run {
    /// `cfg` under `cc` on `wl`, opened for `rc.threads` workers, on the
    /// experiment device.
    pub fn new(cfg: EngineConfig, cc: CcAlgo, wl: Wl, rc: RunConfig) -> Run {
        Run {
            cfg: cfg.with_cc(cc).with_threads(rc.threads),
            data_bytes: wl.approx_bytes() * 2,
            wl,
            rc,
            sim: SimConfig::experiment(),
            crash: false,
        }
    }

    /// Build the device and engine and load the workload; returns the
    /// loaded engine, the workload that drives it and its table
    /// definitions.
    pub fn load(&self) -> (Engine, Box<dyn Workload>, Vec<TableDef>) {
        let (workload, defs): (Box<dyn Workload>, Vec<TableDef>) = match &self.wl {
            Wl::Tpcc(s) => {
                let t = Tpcc::new(s.clone());
                let defs = t.table_defs();
                (Box::new(t), defs)
            }
            Wl::Ycsb(c) => {
                let y = Ycsb::new(c.clone());
                let defs = vec![y.table_def()];
                (Box::new(y), defs)
            }
        };
        let engine = build_engine(
            self.cfg.clone(),
            &defs,
            self.data_bytes,
            Some(self.sim.clone()),
        );
        workload.setup(&engine);
        (engine, workload, defs)
    }

    /// Build, load and run; with `crash`, also cut power and recover.
    pub fn exec(&self) -> (RunResult, Option<RecoveryReport>) {
        let (engine, workload, defs) = self.load();
        let r = run(&engine, workload.as_ref(), &self.rc);
        if !self.crash {
            return (r, None);
        }
        let dev = engine.device().clone();
        drop(engine);
        dev.crash();
        let (_engine, rep) = recover(dev, self.cfg.clone(), &defs).expect("recovery");
        (r, Some(rep))
    }
}

/// Print a fixed-width table.
pub(crate) fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Write `value` as `<dir>/<name>.json`, creating `dir`. The error
/// names the path that could not be written.
pub(crate) fn write_json(
    dir: &Path,
    name: &str,
    value: &serde_json::Value,
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("{name}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", serde_json::to_string_pretty(value).unwrap())
    };
    write().map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
}

/// The engine observability report of one run a figure reads, with
/// its recovery replay and damage counts when it crashed.
pub(crate) fn obs_report(
    bench: &str,
    spec: &Run,
    r: &RunResult,
    recovery: Option<&RecoveryReport>,
) -> RunReport {
    RunReport {
        meta: ReportMeta {
            bench: bench.to_string(),
            engine: spec.cfg.name.to_string(),
            cc: spec.cfg.cc.name().to_string(),
            // The knobs the ablations sweep, so every report's meta is
            // unique within a figure.
            workload: format!(
                "{}/xpb{}/slots{}/hot{}",
                spec.wl.label(),
                spec.sim.xpbuffer_blocks,
                spec.cfg.window_slots,
                spec.cfg.hot_capacity
            ),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_reports_an_unwritable_path() {
        let parent = std::env::temp_dir().join(format!("falcon-bench-{}", std::process::id()));
        std::fs::write(&parent, b"a regular file").unwrap();
        let dir = parent.join("results");
        let err = write_json(&dir, "fig", &serde_json::json!({})).unwrap_err();
        std::fs::remove_file(&parent).unwrap();
        assert!(
            err.to_string()
                .contains(&dir.join("fig.json").display().to_string()),
            "error must name the path: {err}"
        );
    }
}
