//! `falcon_perf figure`: regenerate the paper's evaluation (§6).
//!
//! ```text
//! falcon_perf figure <fig03|fig07|fig08|fig09|fig11|fig12|recovery|ablation|diag|all>
//!                    [--scale smoke|default|paper]
//! ```
//!
//! Each figure is a small spec: for every results file, the engine
//! `Run`s it measures (its axes), the JSON record it reads from each run
//! (its columns) and the table layout that prints those records. One
//! runner ([`run`]) executes every distinct run of a plan once, in plan
//! order, logs it, prints its engine report, prints each table and
//! writes each file, plus the figure's engine reports as
//! `obs_<figure>.json`. Runs that two outputs share run once: Figure 7's
//! OCC column is Figure 8's experiment, and the XPBuffer sweep's
//! 64-block Falcon run is the window sweep's 3-slot run. Figure 3 is a
//! device microbenchmark, not an engine run; its section measures
//! [`bandwidth`] directly. `all` is every figure except `diag` (a
//! calibration diagnostic that only prints). The paper's reference
//! numbers and what each figure reproduces are in EXPERIMENTS.md.

use std::collections::{HashMap, HashSet};
use std::iter::once;
use std::path::Path;
use std::rc::Rc;

use falcon_core::{CcAlgo, EngineConfig, RecoveryReport};
use falcon_wl::harness::{RunConfig, RunResult};
use falcon_wl::ycsb::{Dist, YcsbConfig, YcsbWorkload};
use pmem_sim::{MemCtx, PAddr, PmemDevice, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

use crate::{obs_report, print_table, write_json, Run, Wl};

/// The command line of the `figure` subcommand.
pub const USAGE: &str = "falcon_perf figure \
    <fig03|fig07|fig08|fig09|fig11|fig12|recovery|ablation|diag|all> \
    [--scale smoke|default|paper]";

/// A sizing preset (`--scale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scale {
    /// Preset name on the command line.
    name: &'static str,
    /// Worker threads of Figures 7–9, the ablations and recovery.
    threads: usize,
    /// Committed transactions per thread, before each figure's cap.
    txns: u64,
    /// TPC-C warehouses of Figures 7 and 8.
    warehouses: u64,
    /// YCSB rows (Figure 12 and the recovery sweeps scale from it).
    ycsb_records: u64,
    /// The paper's sweep axes: 8→48 threads, all six YCSB workloads,
    /// tuples up to 1 MB, three recovery sizes.
    paper_axes: bool,
}

impl Scale {
    /// Every figure end to end in a few minutes.
    const SMOKE: Scale = Scale {
        name: "smoke",
        threads: 2,
        txns: 200,
        warehouses: 4,
        ycsb_records: 4 << 10,
        paper_axes: false,
    };
    /// The sizes of the committed `results/*.json`.
    const DEFAULT: Scale = Scale {
        name: "default",
        threads: 8,
        txns: 2_000,
        warehouses: 16,
        ycsb_records: 64 << 10,
        paper_axes: false,
    };
    /// The default sizes on the paper's sweep axes (slow).
    const PAPER: Scale = Scale {
        name: "paper",
        paper_axes: true,
        ..Scale::DEFAULT
    };
    /// Every preset.
    const ALL: [Scale; 3] = [Scale::SMOKE, Scale::DEFAULT, Scale::PAPER];

    /// Harness configuration of Figures 7–9 and the ablations: at most
    /// `cap` transactions per thread, at least `paper` on the paper axes.
    fn rc(&self, cap: u64, paper: u64) -> RunConfig {
        let txns = if self.paper_axes {
            self.txns.max(paper)
        } else {
            self.txns.min(cap)
        };
        rc(self.threads, txns, (txns / 10).clamp(10, 500))
    }
}

fn rc(threads: usize, txns: u64, warmup: u64) -> RunConfig {
    RunConfig {
        threads,
        txns_per_thread: txns,
        warmup_per_thread: warmup,
        ..RunConfig::default()
    }
}

fn ycsb(wl: YcsbWorkload, dist: Dist, records: u64) -> Wl {
    Wl::Ycsb(YcsbConfig::new(wl, dist).with_records(records))
}

/// Identity of an experiment: runs with equal keys are one run.
fn key(spec: &Run) -> String {
    format!("{spec:?}")
}

/// An engine run's result, and its recovery report when it crashed.
type Ran = (RunResult, Option<RecoveryReport>);

/// Run `spec` (build, load, run, and recover when it crashes) and log it.
fn exec(fig: &str, spec: &Run) -> Ran {
    let (r, rep) = spec.exec();
    let (cfg, amp) = (&spec.cfg, r.stats.total.write_amplification());
    let mut line = format!(
        "{:<24} {:<6} {:<34} {:>2} thr  {:.3} MTxn/s (aborts {:.1}%, amp {amp:.2}x)",
        cfg.name,
        cfg.cc.name(),
        spec.wl.label(),
        spec.rc.threads,
        r.mtps(),
        r.abort_ratio() * 100.0,
    );
    if let Some(rep) = &rep {
        let (total, replay) = (rep.total_ns as f64 / 1e6, rep.replay_ns as f64 / 1e6);
        let replayed = rep.committed_replayed;
        line += &format!("  recovery {total:.3} ms (replay {replay:.3}), {replayed} replayed");
    }
    eprintln!("[{fig}] {line}");
    (r, rep)
}

/// Figure 3's device microbenchmark: bandwidth in GB/s of `iters` random
/// aligned stores of `size` bytes, each followed by `sfence` (and `clwb`
/// of every line first when `clwb`), on a fresh 1 GiB experiment device.
fn bandwidth(size: u64, clwb: bool, iters: u64) -> f64 {
    let dev = PmemDevice::new(SimConfig::experiment().with_capacity(1 << 30)).expect("device");
    let mut ctx = MemCtx::new(0);
    let mut rng = StdRng::seed_from_u64(1);
    let span = dev.capacity() / size - 1;
    let payload = vec![0xABu8; size as usize];
    for _ in 0..iters {
        let addr = PAddr(rng.random_range(0..span) * size);
        dev.write(addr, &payload, &mut ctx);
        if clwb {
            dev.flush_range(addr, size, &mut ctx);
        }
        dev.sfence(&mut ctx);
    }
    iters as f64 * size as f64 / ctx.clock as f64 // Bytes per virtual ns == GB/s.
}

/// One engine run as a record reads it.
struct Done<'a> {
    spec: &'a Run,
    r: &'a RunResult,
    /// The recovery report of a run that crashed.
    rec: Option<&'a RecoveryReport>,
}

impl<'a> Done<'a> {
    fn name(&self) -> &'static str {
        self.spec.cfg.name
    }

    fn rec(&self) -> &'a RecoveryReport {
        self.rec.expect("a crashed run")
    }

    fn ycsb(&self) -> &'a YcsbConfig {
        match &self.spec.wl {
            Wl::Ycsb(c) => c,
            Wl::Tpcc(_) => panic!("{}: a YCSB field of a TPC-C run", self.name()),
        }
    }
}

/// How a section's table reads its records.
#[derive(Clone, Copy)]
enum Layout {
    /// One row per record, one column per field.
    Rows,
    /// `Pivot(rows, cols, value)`: records in row-major order, one row
    /// per distinct label of the `rows` fields, one column per distinct
    /// label of the `cols` fields, each entry the `value` field.
    Pivot(
        &'static [&'static str],
        &'static [&'static str],
        &'static str,
    ),
}

/// Record field `key` as a table entry: floats with three decimals.
fn show(record: &Value, key: &str) -> String {
    let Some(v) = record.get(key) else {
        return String::new();
    };
    match (v.as_u64(), v.as_f64(), v.as_str()) {
        (Some(u), ..) => u.to_string(),
        (None, Some(f), _) => format!("{f:.3}"),
        (.., Some(s)) => s.to_string(),
        _ => serde_json::to_string_pretty(v).unwrap(),
    }
}

impl Layout {
    /// Headers and rows of `records`.
    fn table(self, records: &[Value]) -> (Vec<String>, Vec<Vec<String>>) {
        let label = |r: &Value, keys: &[&str]| {
            let parts: Vec<String> = keys.iter().map(|k| show(r, k)).collect();
            parts.join(" ")
        };
        match self {
            Layout::Rows => {
                let headers = match records.first() {
                    Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
                    _ => Vec::new(),
                };
                let rows = records
                    .iter()
                    .map(|r| headers.iter().map(|k| show(r, k)).collect())
                    .collect();
                (headers, rows)
            }
            Layout::Pivot(rows, cols, value) => {
                let mut headers = vec![rows.join(" ")];
                for r in records {
                    let col = label(r, cols);
                    if !headers[1..].contains(&col) {
                        headers.push(col);
                    }
                }
                let body = records
                    .chunks(headers.len() - 1)
                    .map(|row| {
                        once(label(&row[0], rows))
                            .chain(row.iter().map(|r| show(r, value)))
                            .collect()
                    })
                    .collect();
                (headers, body)
            }
        }
    }
}

/// How a section turns its runs into records.
#[derive(Clone, Copy)]
enum Record {
    /// One record per run.
    One(fn(&Done) -> Value),
    /// One record per consecutive pair of runs.
    Pair(fn(&Done, &Done) -> Value),
}

/// What a section measures.
enum Body {
    /// Engine runs, in record order, with the record they yield and the
    /// table that prints those records.
    Runs {
        cells: Vec<Run>,
        record: Record,
        layout: Layout,
    },
    /// Figure 3: at each `(size, iters)`, [`bandwidth`] without and
    /// with `clwb`, one record per point.
    Bandwidth(Vec<(u64, u64)>),
}

/// One list of records in a results file, and the table that prints it.
struct Section {
    key: &'static str,
    title: String,
    body: Body,
}

/// One results file (`None`: printed only): its top-level fields, then
/// one list per section.
pub struct Output {
    /// `<dir>/<file>.json`.
    file: Option<String>,
    head: Vec<(&'static str, Value)>,
    /// The lists, in file order.
    sections: Vec<Section>,
}

impl Output {
    /// Every engine run the output reads.
    fn cells(&self) -> impl Iterator<Item = &Run> {
        self.sections.iter().flat_map(|s| match &s.body {
            Body::Runs { cells, .. } => &cells[..],
            Body::Bandwidth(_) => &[],
        })
    }
}

fn output(
    file: impl Into<String>,
    head: Vec<(&'static str, Value)>,
    sections: Vec<Section>,
) -> Output {
    Output {
        file: Some(file.into()),
        head,
        sections,
    }
}

fn runs(
    key: &'static str,
    title: impl Into<String>,
    layout: Layout,
    cells: Vec<Run>,
    record: Record,
) -> Section {
    Section {
        key,
        title: title.into(),
        body: Body::Runs {
            cells,
            record,
            layout,
        },
    }
}

type Spec = fn(&Scale) -> Vec<Output>;

/// Every figure by command-line name, in `all` order (`diag` last, and
/// not in `all`). The name also keys `results/obs_<name>.json`.
static FIGURES: [(&str, Spec); 9] = [
    ("fig03", fig03),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig11", fig11),
    ("fig12", fig12),
    ("recovery", recovery),
    ("ablation", ablation),
    ("diag", diag),
];

/// A plan: each figure's name with the outputs it writes.
pub type Plan = Vec<(&'static str, Vec<Output>)>;

/// Parse the arguments after `figure` into a plan, running nothing;
/// `None` is a usage error.
pub fn parse(args: &[String]) -> Option<Plan> {
    let mut it = args.iter();
    let name = it.next()?;
    let figures: Vec<&(&str, Spec)> = if name == "all" {
        FIGURES.iter().filter(|(n, _)| *n != "diag").collect()
    } else {
        vec![FIGURES.iter().find(|(n, _)| n == name)?]
    };
    let mut scale = Scale::DEFAULT;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let name = it.next()?;
                scale = Scale::ALL.into_iter().find(|s| s.name == name)?;
            }
            _ => return None,
        }
    }
    Some(figures.iter().map(|(n, spec)| (*n, spec(&scale))).collect())
}

fn cells(plan: &Plan) -> impl Iterator<Item = &Run> {
    plan.iter()
        .flat_map(|(_, outs)| outs)
        .flat_map(Output::cells)
}

/// Measure Figure 3's points and return their records; the printed
/// table adds the `clwb` speedup, which the file does not store.
fn bandwidth_records(fig: &str, title: &str, points: &[(u64, u64)]) -> Vec<Value> {
    let (mut records, mut rows) = (Vec::new(), Vec::new());
    for &(size, iters) in points {
        let [store, flush] = [false, true].map(|clwb| {
            let gbps = bandwidth(size, clwb, iters);
            eprintln!("[{fig}] {size:>3} B clwb={clwb:<5} {gbps:.2} GB/s");
            gbps
        });
        let record = json!({
            "size": size,
            "iters": iters,
            "store_sfence_gbps": store,
            "store_clwb_sfence_gbps": flush,
        });
        let mut row: Vec<String> = BANDWIDTH_FIELDS.iter().map(|k| show(&record, k)).collect();
        row.push(format!("{:.2}x", flush / store));
        rows.push(row);
        records.push(record);
    }
    let headers: Vec<String> = BANDWIDTH_FIELDS
        .iter()
        .chain(&["clwb speedup"])
        .map(ToString::to_string)
        .collect();
    print_table(title, &headers, &rows);
    records
}

/// Figure 3's record fields, in table order.
const BANDWIDTH_FIELDS: [&str; 4] = [
    "size",
    "iters",
    "store_sfence_gbps",
    "store_clwb_sfence_gbps",
];

/// Run `plan`: every distinct engine run once, in plan order. Prints
/// every table and writes every file (and each figure's engine reports,
/// `obs_<figure>.json`) under `dir`; a `dir` that cannot be created or
/// a failed write is an error naming the path.
pub fn run(plan: &Plan, dir: &Path) -> std::io::Result<()> {
    // Fail before the first experiment, not after the last.
    let at = |e: std::io::Error| std::io::Error::new(e.kind(), format!("{}: {e}", dir.display()));
    std::fs::create_dir_all(dir).map_err(at)?;
    // Runs read by more than one output keep their outcome.
    let mut seen = HashSet::new();
    let shared: HashSet<String> = cells(plan)
        .map(key)
        .filter(|k| !seen.insert(k.clone()))
        .collect();
    let mut kept: HashMap<String, Rc<Ran>> = HashMap::new();
    for (fig, outputs) in plan {
        // The figure's engine reports, one per run it reads.
        let (mut reports, mut reported) = (Vec::new(), HashSet::new());
        for out in outputs {
            let mut doc: Vec<(String, Value)> = out
                .head
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect();
            for sec in &out.sections {
                let (cells, record, layout) = match &sec.body {
                    Body::Runs {
                        cells,
                        record,
                        layout,
                    } => (cells, record, layout),
                    Body::Bandwidth(points) => {
                        let records = bandwidth_records(fig, &sec.title, points);
                        doc.push((sec.key.to_string(), Value::Array(records)));
                        continue;
                    }
                };
                let mut ran = Vec::with_capacity(cells.len());
                for spec in cells {
                    let key = key(spec);
                    let outcome = match kept.get(&key) {
                        Some(o) => Rc::clone(o),
                        None => Rc::new(exec(fig, spec)),
                    };
                    if shared.contains(&key) {
                        kept.insert(key.clone(), Rc::clone(&outcome));
                    }
                    if reported.insert(key) {
                        let report = obs_report(fig, spec, &outcome.0, outcome.1.as_ref());
                        print!("{}", report.render_table());
                        reports.push(report.to_json());
                    }
                    ran.push(outcome);
                }
                let done: Vec<Done> = (cells.iter().zip(&ran))
                    .map(|(spec, o)| Done {
                        spec,
                        r: &o.0,
                        rec: o.1.as_ref(),
                    })
                    .collect();
                let records: Vec<Value> = match record {
                    Record::One(f) => done.iter().map(f).collect(),
                    Record::Pair(f) => done.chunks(2).map(|p| f(&p[0], &p[1])).collect(),
                };
                let (headers, rows) = layout.table(&records);
                print_table(&sec.title, &headers, &rows);
                doc.push((sec.key.to_string(), Value::Array(records)));
            }
            if let Some(file) = &out.file {
                let path = write_json(dir, file, &Value::Object(doc))?;
                println!("[wrote {}]", path.display());
            }
        }
        if !reports.is_empty() {
            write_json(dir, &format!("obs_{fig}"), &Value::Array(reports))?;
        }
    }
    Ok(())
}

// --- The figures ---------------------------------------------------------

/// Figure 3 (§3.3): store bandwidth with and without `clwb` at 256, 128
/// and 64 B; the XPBuffer merges proactively flushed adjacent lines.
fn fig03(s: &Scale) -> Vec<Output> {
    // Write far more than the simulated LLC per series, or the dirty
    // lines still cached at the end would flatter the store-only variant.
    let total_bytes: u64 = if s.paper_axes { 512 << 20 } else { 128 << 20 };
    let rows = Section {
        key: "rows",
        title: "Figure 3: store bandwidth w/wo clwb, simulated GB/s (clwb must win at 256 B \
                and 128 B and tie at 64 B; paper: 4.1 / 5.9, 3.2 / 4.7, 2.6 / 2.6)"
            .into(),
        body: Body::Bandwidth(
            [256, 128, 64]
                .map(|size| (size, total_bytes / size))
                .to_vec(),
        ),
    };
    vec![output(
        "fig03_bandwidth",
        vec![("total_bytes", total_bytes.into())],
        vec![rows],
    )]
}

/// The TPC-C cells of Figures 7 and 8: the overall lineup under `algos`.
fn tpcc_cells(s: &Scale, algos: &[CcAlgo]) -> Vec<Run> {
    let lineup = EngineConfig::overall_lineup();
    let runs = lineup
        .iter()
        .flat_map(|cfg| algos.iter().map(move |&cc| (cfg, cc)));
    let run = |(cfg, cc): (&EngineConfig, CcAlgo)| {
        Run::new(cfg.clone(), cc, Wl::tpcc(s.warehouses), s.rc(1_000, 4_000))
    };
    runs.map(run).collect()
}

/// Figure 7: TPC-C throughput, the eight engines × the six CC algorithms.
fn fig07(s: &Scale) -> Vec<Output> {
    let txns = s.rc(1_000, 4_000).txns_per_thread;
    let cells = runs(
        "cells",
        format!(
            "Figure 7: TPC-C throughput, MTxn/s ({} threads, {} warehouses, {txns} txns/thread)",
            s.threads, s.warehouses
        ),
        Layout::Pivot(&["engine"], &["cc"], "mtps"),
        tpcc_cells(s, &CcAlgo::all()),
        Record::One(|d| {
            let r = d.r;
            json!({
                "engine": d.name(),
                "cc": d.spec.cfg.cc.name(),
                "mtps": r.mtps(),
                "aborted": r.aborted,
                "committed": r.committed,
                "media_mb_written": r.stats.total.media_bytes_written() / (1 << 20),
            })
        }),
    );
    let head = vec![
        ("threads", s.threads.into()),
        ("warehouses", s.warehouses.into()),
        ("txns_per_thread", txns.into()),
    ];
    vec![output("fig07_tpcc_throughput", head, vec![cells])]
}

/// Figure 8: TPC-C NewOrder and Payment latency (average, p95) under
/// OCC — the runs of Figure 7's OCC column.
fn fig08(s: &Scale) -> Vec<Output> {
    let rows = runs(
        "rows",
        format!(
            "Figure 8: TPC-C latency, µs ({} threads, OCC, {} warehouses)",
            s.threads, s.warehouses
        ),
        Layout::Rows,
        tpcc_cells(s, &[CcAlgo::Occ]),
        Record::One(|d| {
            let us = |name: &str, p95: bool| {
                let lat = d.r.latency.iter().find(|l| l.name == name);
                let l = lat.cloned().unwrap_or_default();
                (if p95 { l.p95_ns } else { l.avg_ns }) as f64 / 1e3
            };
            json!({
                "engine": d.name(),
                "new_order_avg_us": us("NewOrder", false),
                "new_order_p95_us": us("NewOrder", true),
                "payment_avg_us": us("Payment", false),
                "payment_p95_us": us("Payment", true),
            })
        }),
    );
    let head = vec![
        ("threads", s.threads.into()),
        ("warehouses", s.warehouses.into()),
    ];
    vec![output("fig08_tpcc_latency", head, vec![rows])]
}

/// Figure 9: YCSB throughput of the eight engines, workloads × {Uniform,
/// Zipfian θ = 0.99}, OCC; A, B and F by default (A and F carry the
/// analysis), all six on the paper axes.
fn fig09(s: &Scale) -> Vec<Output> {
    let workloads = if s.paper_axes {
        YcsbWorkload::all().to_vec()
    } else {
        vec![YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::F]
    };
    let mut cells = Vec::new();
    for wl in workloads {
        for dist in [Dist::Uniform, Dist::Zipfian] {
            for cfg in EngineConfig::overall_lineup() {
                let w = ycsb(wl, dist, s.ycsb_records);
                cells.push(Run::new(cfg, CcAlgo::Occ, w, s.rc(1_500, 4_000)));
            }
        }
    }
    let cells = runs(
        "cells",
        format!(
            "Figure 9: YCSB throughput, MTxn/s ({} threads, {} records, OCC)",
            s.threads, s.ycsb_records
        ),
        Layout::Pivot(&["workload", "dist"], &["engine"], "mtps"),
        cells,
        Record::One(|d| {
            let (c, r) = (d.ycsb(), d.r);
            json!({
                "workload": c.workload.name(),
                "dist": c.dist.name(),
                "engine": d.name(),
                "mtps": r.mtps(),
                "abort_ratio": r.abort_ratio(),
                "media_mb_written": r.stats.total.media_bytes_written() / (1 << 20),
                "clwb": r.stats.total.clwb_issued,
            })
        }),
    );
    let head = vec![
        ("threads", s.threads.into()),
        ("records", s.ycsb_records.into()),
    ];
    vec![output("fig09_ycsb", head, vec![cells])]
}

/// Figure 11: scalability of the five ablation engines (the Figure 10
/// lattice) on TPC-C (2 warehouses per thread), YCSB-A Uniform and
/// YCSB-A Zipfian, one file per panel.
fn fig11(s: &Scale) -> Vec<Output> {
    let (threads, txns) = if s.paper_axes {
        (vec![8, 16, 24, 32, 40, 48], s.txns)
    } else {
        (vec![2, 4, 8], s.txns.min(600))
    };
    let panels = [
        ("TPC-C", None),
        ("YCSB-A Uniform", Some(Dist::Uniform)),
        ("YCSB-A Zipfian", Some(Dist::Zipfian)),
    ];
    let mut outputs = Vec::new();
    for (panel, dist) in panels {
        let mut cells = Vec::new();
        for cfg in EngineConfig::ablation_lineup() {
            for &t in &threads {
                let wl = match dist {
                    None => Wl::tpcc(t as u64 * 2),
                    Some(dist) => ycsb(YcsbWorkload::A, dist, s.ycsb_records),
                };
                let rc = rc(t, txns, (txns / 10).clamp(10, 200));
                cells.push(Run::new(cfg.clone(), CcAlgo::Occ, wl, rc));
            }
        }
        let cells = runs(
            "cells",
            format!("Figure 11 ({panel}): throughput, MTxn/s, by threads"),
            Layout::Pivot(&["engine"], &["threads"], "mtps"),
            cells,
            Record::One(|d| {
                let panel = match &d.spec.wl {
                    Wl::Tpcc(_) => "TPC-C".to_string(),
                    Wl::Ycsb(c) => format!("{} {}", c.workload.name(), c.dist.name()),
                };
                json!({
                    "panel": panel,
                    "engine": d.name(),
                    "threads": d.spec.rc.threads,
                    "mtps": d.r.mtps(),
                    "abort_ratio": d.r.abort_ratio(),
                })
            }),
        );
        let file = format!(
            "fig11_scalability_{}",
            panel.to_lowercase().replace([' ', '-'], "_")
        );
        outputs.push(output(
            file,
            vec![("threads", threads.clone().into())],
            vec![cells],
        ));
    }
    outputs
}

/// Figure 12's row count for a tuple of `tuple` bytes: the dataset
/// volume stays roughly that of `records` 1 008-byte rows, with at least
/// 1 024 rows and at most `records`.
fn fig12_records(records: u64, tuple: u64) -> u64 {
    (records * 1_008 / (tuple + 64)).max(1_024).min(records)
}

/// Figure 12: YCSB-A Uniform throughput as the tuple grows from 128 B to
/// 1 MB, for Falcon / Inp / Outp at two thread counts.
fn fig12(s: &Scale) -> Vec<Output> {
    // Tuple size = 8 + 10 × field_len.
    let (field_lens, thread_counts) = if s.paper_axes {
        (
            vec![12, 50, 200, 800, 3_200, 13_000, 52_000, 104_857],
            [16, 48],
        )
    } else {
        (vec![12, 200, 3_200, 13_000], [2, 8])
    };
    let mut cells = Vec::new();
    for fl in field_lens {
        let tuple = 8 + 10 * u64::from(fl);
        let txns = match tuple {
            t if t > 100_000 => 50,
            t if t > 10_000 => 200,
            _ => 600,
        };
        for threads in thread_counts {
            for cfg in [
                EngineConfig::falcon(),
                EngineConfig::inp(),
                EngineConfig::outp(),
            ] {
                let w = YcsbConfig::new(YcsbWorkload::A, Dist::Uniform)
                    .with_records(fig12_records(s.ycsb_records, tuple))
                    .with_field_len(fl);
                let rc = rc(threads, txns, (txns / 10).max(5));
                cells.push(Run::new(cfg, CcAlgo::Occ, Wl::Ycsb(w), rc));
            }
        }
    }
    let cells = runs(
        "cells",
        "Figure 12: YCSB-A Uniform throughput vs tuple size (KTxn/s), by engine and threads",
        Layout::Pivot(&["tuple_bytes"], &["engine", "threads"], "ktps"),
        cells,
        Record::One(|d| {
            json!({
                "tuple_bytes": d.ycsb().tuple_size(),
                "engine": d.name(),
                "threads": d.spec.rc.threads,
                "ktps": d.r.txn_per_sec / 1e3,
                "records": d.ycsb().records,
            })
        }),
    );
    vec![output("fig12_tuple_size", Vec::new(), vec![cells])]
}

/// §6.5 recovery: crash a loaded, running database and time recovery
/// for Falcon, Falcon (DRAM Index) and ZenS as the data grows. The
/// second list is the checkpoint contrast: a spill-heavy Falcon with
/// fuzzy checkpoints on versus off as the database and its spill
/// history grow 10× (single worker, so its numbers are reproducible).
fn recovery(s: &Scale) -> Vec<Output> {
    let r = s.ycsb_records;
    let sizes = if s.paper_axes {
        vec![r, r * 4, r * 16]
    } else {
        vec![r / 4, r]
    };
    let mut timeline = Vec::new();
    for records in sizes {
        for cfg in [
            EngineConfig::falcon(),
            EngineConfig::falcon_dram_index(),
            EngineConfig::zens(),
        ] {
            let w = ycsb(YcsbWorkload::A, Dist::Uniform, records);
            let mut spec = Run::new(cfg, CcAlgo::Occ, w, rc(s.threads, 200, 0));
            spec.crash = true;
            timeline.push(spec);
        }
    }
    let mut contrast = Vec::new();
    let ck_base = (r / 16).max(1 << 10);
    for records in [ck_base, ck_base * 10] {
        // 1 KiB windows: most update transactions overflow into the
        // spill region. With checkpoints a 16 KiB cap bounds the tail;
        // without, the cap is far above what the run can spill, so it
        // never stalls.
        for (name, ckpt, cap, threshold) in [
            ("Falcon (ckpt on)", true, 16 << 10, 8 << 10),
            ("Falcon (ckpt off)", false, 8 << 20, 8 << 20),
        ] {
            let mut cfg = EngineConfig::falcon().with_spill_cap(cap, threshold);
            (cfg.name, cfg.window_bytes) = (name, 1024);
            let w = ycsb(YcsbWorkload::A, Dist::Uniform, records);
            let mut spec = Run::new(cfg.with_ckpt(ckpt), CcAlgo::Occ, w, rc(1, records / 4, 0));
            (spec.data_bytes, spec.crash) = (spec.data_bytes + (32 << 20), true);
            contrast.push(spec);
        }
    }
    let timeline = runs(
        "rows",
        "§6.5 Recovery, virtual ms (paper: Falcon 3.276 ms, ZenS 9400 ms at 256 GB)",
        Layout::Rows,
        timeline,
        Record::One(|d| {
            let rep = d.rec();
            json!({
                "engine": d.name(),
                "records": d.ycsb().records,
                "total_ms": rep.total_ns as f64 / 1e6,
                "catalog_ms": rep.catalog_ns as f64 / 1e6,
                "index_ms": rep.index_ns as f64 / 1e6,
                "replay_ms": rep.replay_ns as f64 / 1e6,
                "tuples_scanned": rep.tuples_scanned,
            })
        }),
    );
    let contrast = runs(
        "ckpt_contrast",
        "§6.5b Checkpoint contrast (spill-heavy Falcon; flat with ckpt on, linear off)",
        Layout::Rows,
        contrast,
        Record::One(|d| {
            let rep = d.rec();
            json!({
                "engine": d.name(),
                "ckpt": d.spec.cfg.ckpt_enabled,
                "records": d.ycsb().records,
                "total_ms": rep.total_ns as f64 / 1e6,
                "replay_ms": rep.replay_ns as f64 / 1e6,
                "spill_bytes_scanned": rep.spill_bytes_scanned,
                "spill_bytes_truncated": rep.spill_bytes_truncated,
                "ckpt_epoch": rep.ckpt_epoch,
            })
        }),
    );
    vec![output("exp_recovery", Vec::new(), vec![timeline, contrast])]
}

/// Design ablations the paper discusses without plots, on YCSB-A:
/// XPBuffer size (§5.5), log-window slots (§4.3) and hot-tuple LRU
/// capacity under Zipfian (§4.4; 0 ≡ All Flush).
fn ablation(s: &Scale) -> Vec<Output> {
    let run = |cfg: EngineConfig, dist: Dist| {
        let w = ycsb(YcsbWorkload::A, dist, s.ycsb_records);
        Run::new(cfg, CcAlgo::Occ, w, s.rc(1_000, 4_000))
    };
    let mut xpbuffer = Vec::new();
    for xpbuffer_blocks in [8, 32, 64, 256, 1024] {
        for cfg in [EngineConfig::falcon_no_flush(), EngineConfig::falcon()] {
            let mut spec = run(cfg, Dist::Uniform);
            spec.sim.xpbuffer_blocks = xpbuffer_blocks;
            xpbuffer.push(spec);
        }
    }
    let mut window = Vec::new();
    for slots in [1, 2, 3, 4, 8] {
        let mut cfg = EngineConfig::falcon();
        (cfg.window_slots, cfg.window_bytes) = (slots, (8 << 10) * slots as u64);
        window.push(run(cfg, Dist::Uniform));
    }
    let mut hot = Vec::new();
    for capacity in [0, 16, 128, 512, 4096] {
        let mut cfg = EngineConfig::falcon();
        cfg.hot_capacity = capacity;
        hot.push(run(cfg, Dist::Zipfian));
    }
    let xpbuffer = runs(
        "rows",
        "Ablation (§5.5): XPBuffer size vs write amplification (YCSB-A Uniform)",
        Layout::Rows,
        xpbuffer,
        Record::Pair(|nf, f| {
            json!({
                "xpbuffer_blocks": nf.spec.sim.xpbuffer_blocks,
                "noflush_amp": nf.r.stats.total.write_amplification(),
                "noflush_mtps": nf.r.mtps(),
                "falcon_amp": f.r.stats.total.write_amplification(),
                "falcon_mtps": f.r.mtps(),
            })
        }),
    );
    let window = runs(
        "rows",
        "Ablation (§4.3): small-log-window slots (8 KB each, YCSB-A Uniform)",
        Layout::Rows,
        window,
        Record::One(|d| {
            json!({
                "slots": d.spec.cfg.window_slots,
                "mtps": d.r.mtps(),
                "media_kb": d.r.stats.total.media_bytes_written() >> 10,
            })
        }),
    );
    let hot = runs(
        "rows",
        "Ablation (§4.4): hot-tuple LRU capacity (0 = All Flush; YCSB-A Zipfian)",
        Layout::Rows,
        hot,
        Record::One(|d| {
            let t = &d.r.stats.total;
            json!({
                "hot_capacity": d.spec.cfg.hot_capacity,
                "mtps": d.r.mtps(),
                "clwb": t.clwb_issued,
                "media_kb": t.media_bytes_written() >> 10,
            })
        }),
    );
    vec![
        output("ablation_xpbuffer", Vec::new(), vec![xpbuffer]),
        output("ablation_window", Vec::new(), vec![window]),
        output("ablation_hot_lru", Vec::new(), vec![hot]),
    ]
}

/// Calibration diagnostic (no paper figure): where each engine's media
/// traffic comes from on YCSB-A Uniform, 4 workers. Prints only.
fn diag(_: &Scale) -> Vec<Output> {
    let cells = [
        EngineConfig::falcon(),
        EngineConfig::falcon_all_flush(),
        EngineConfig::falcon_no_flush(),
        EngineConfig::inp(),
        EngineConfig::outp(),
        EngineConfig::zens(),
    ]
    .into_iter()
    .map(|cfg| {
        let w = ycsb(YcsbWorkload::A, Dist::Uniform, 96 << 10);
        let mut spec = Run::new(cfg, CcAlgo::Occ, w, rc(4, 1_500, 150));
        spec.data_bytes = 256 << 20;
        spec
    })
    .collect();
    let stats = runs(
        "engines",
        "Device statistics per engine (YCSB-A Uniform, 4 threads, OCC)",
        Layout::Rows,
        cells,
        Record::One(|d| {
            let t = &d.r.stats.total;
            json!({
                "engine": d.name(),
                "mtps": d.r.mtps(),
                "media_mb": t.media_bytes_written() >> 20,
                "amp": t.write_amplification(),
                "sfence_wait_ns": t.sfence_wait_ns,
                "evictions": t.evictions,
                "clwb_writebacks": t.clwb_writebacks,
                "media_rmw": t.media_rmw,
                "fill_reads": t.media_fill_reads,
                "xpbuffer_fills": t.fills_from_xpbuffer,
            })
        }),
    );
    vec![Output {
        file: None,
        head: Vec::new(),
        sections: vec![stats],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn plan(a: &[&str]) -> Option<Plan> {
        let args: Vec<String> = a.iter().map(|s| (*s).to_string()).collect();
        parse(&args)
    }

    /// `all` writes exactly the tracked `results/*.json` baselines
    /// (DESIGN.md §13 "Results policy"; `obs_*.json` reports are not
    /// baselines) at every preset.
    #[test]
    fn figure_all_writes_exactly_the_tracked_results() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let tracked: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("results/")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".json") && !n.starts_with("obs_"))
            .collect();
        assert_eq!(tracked.len(), 12, "{tracked:?}");
        for s in Scale::ALL {
            let written: BTreeSet<String> = plan(&["all", "--scale", s.name])
                .unwrap()
                .iter()
                .flat_map(|(_, outs)| outs)
                .filter_map(|out| out.file.as_ref().map(|f| format!("{f}.json")))
                .collect();
            assert_eq!(written, tracked, "--scale {}", s.name);
        }
    }

    #[test]
    fn presets_satisfy_sizing_bounds() {
        for s in Scale::ALL {
            let at = s.name;
            for spec in cells(&plan(&["all", "--scale", at]).unwrap()) {
                spec.cfg.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(spec.cfg.threads, spec.rc.threads, "{at}");
                assert!(spec.rc.txns_per_thread > 0, "{at}");
                assert!(spec.data_bytes >= spec.wl.approx_bytes(), "{at}");
                match &spec.wl {
                    Wl::Tpcc(t) => assert!(t.warehouses > 0, "{at}"),
                    // Fig. 12 and the checkpoint contrast floor at 1 024.
                    Wl::Ycsb(c) => assert!(c.records >= 1 << 10, "{at}"),
                }
            }
            for spec in cells(&plan(&["fig12", "--scale", at]).unwrap()) {
                let Wl::Ycsb(c) = &spec.wl else {
                    unreachable!()
                };
                assert!(c.records <= s.ycsb_records, "{at}: fig12 rows");
            }
        }
        // Below the floor the row count is capped, not a panic.
        assert_eq!(fig12_records(512, 1_008), 512);
        assert_eq!(fig12_records(64 << 10, 130_008), 1_024);
    }

    #[test]
    fn shared_cells_run_once() {
        for s in Scale::ALL {
            let plan = plan(&["all", "--scale", s.name]).unwrap();
            let planned = cells(&plan).count();
            let distinct = cells(&plan).map(key).collect::<HashSet<_>>().len();
            // Fig. 8 is Fig. 7's OCC column (8 engines); the XPBuffer
            // sweep's 64-block Falcon run is the window sweep's 3 slots.
            if s == Scale::DEFAULT {
                assert_eq!((planned, distinct), (203, 194));
            } else {
                assert!(distinct + 9 <= planned, "{}", s.name);
            }
        }
    }

    #[test]
    fn tables_read_the_records() {
        let recs = [
            ("Falcon", 2, 1.5),
            ("Falcon", 8, 2.25),
            ("Inp", 2, 1.0),
            ("Inp", 8, 1.0),
        ]
        .map(|(e, t, m)| json!({ "engine": e, "threads": t, "mtps": m }));
        let (headers, rows) = Layout::Pivot(&["engine"], &["threads"], "mtps").table(&recs);
        assert_eq!(headers, ["engine", "2", "8"]);
        assert_eq!(
            rows,
            [["Falcon", "1.500", "2.250"], ["Inp", "1.000", "1.000"]]
        );
        let (headers, rows) = Layout::Rows.table(&recs[..1]);
        assert_eq!(headers, ["engine", "threads", "mtps"]);
        assert_eq!(rows, [["Falcon", "2", "1.500"]]);
    }
}
