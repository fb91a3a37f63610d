//! Two-clock, five-workload benchmark for the Falcon reproduction.
//!
//! ```text
//! falcon-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! falcon-benchmark --compare FILE FILE      # --selfcheck's judge
//! falcon-benchmark --spread FILE...         # run-to-run spread, one run per file
//! falcon-benchmark --spec SECONDS           # print BENCHMARK.json
//! falcon-benchmark --list                   # workload names
//! ```
//!
//! One invocation runs one workload once, in this process. It prints
//! `workload metric value unit` lines, `#` comment lines, and last a
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). The exit code is non-zero when an output check
//! failed. `run.sh` builds, loops over workloads and seeds, and wires
//! `--selfcheck`; `README.md` explains every metric.

mod embedded;
mod gen;
mod metrics;
mod openloop;
mod probes;
mod served;
mod stats;
mod surface;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Report;
use surface::{Counters, RecoveryOutcome};
use trace::Tracer;

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The traced pass runs a quarter of the untraced length.
pub const TRACED_DIVISOR: u64 = 4;

/// What one pass of one workload produced.
pub struct Outcome {
    /// Metric values.
    pub report: Report,
    /// Operations attempted (transactions, requests, output checks).
    pub attempted: u64,
    /// Of those, failed (dropped, not `Ok`, failed checks).
    pub failed: u64,
    /// One line per failed check; empty means the outputs are correct.
    pub problems: Vec<String>,
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Report the simulated-device counters of a window of `txns`
/// transactions that took `host_ns` of worker time.
pub fn put_device_counters(report: &mut Report, c: &Counters, txns: u64, host_ns: f64) {
    let n = txns.max(1) as f64;
    let media_bytes = c.media_block_writes * surface::MEDIA_BLOCK;
    report.put("media_bytes_per_txn", media_bytes as f64 / n);
    report.put("pmem-sim.accesses_per_txn", c.accesses as f64 / n);
    report.put(
        "pmem-sim.cache_miss_share",
        stats::ratio(c.cache_misses, c.accesses),
    );
    report.put(
        "pmem-sim.media_fill_reads_per_txn",
        c.media_fill_reads as f64 / n,
    );
    report.put("pmem-sim.evictions_per_txn", c.evictions as f64 / n);
    report.put("pmem-sim.clwb_per_txn", c.clwb as f64 / n);
    report.put("pmem-sim.sfence_per_txn", c.sfence as f64 / n);
    report.put(
        "pmem-sim.media_writes_per_txn",
        c.media_block_writes as f64 / n,
    );
    report.put(
        "pmem-sim.media_rmw_share",
        stats::ratio(c.media_rmw, c.media_block_writes),
    );
    // Media bytes written per cache-line byte written back.
    report.put(
        "pmem-sim.write_amp",
        stats::ratio(
            media_bytes,
            (c.evictions + c.clwb_writebacks) * surface::CACHE_LINE,
        ),
    );
    report.put(
        "pmem-sim.host_ns_per_access",
        host_ns / c.accesses.max(1) as f64,
    );
}

/// Report what recovery after the power cut did.
pub fn put_recovery(report: &mut Report, r: &RecoveryOutcome) {
    report.put("recovery_virt_us", r.total_virt_ns as f64 / 1e3);
    report.put("falcon-core.recover.host_ms", r.host_ms);
    report.put(
        "falcon-core.recover.catalog_virt_ns",
        r.catalog_virt_ns as f64,
    );
    report.put("falcon-core.recover.index_virt_ns", r.index_virt_ns as f64);
    report.put(
        "falcon-core.recover.replay_virt_ns",
        r.replay_virt_ns as f64,
    );
    report.put(
        "falcon-core.recover.committed_replayed",
        r.committed_replayed as f64,
    );
    report.put(
        "falcon-core.recover.uncommitted_discarded",
        r.uncommitted_discarded as f64,
    );
}

/// Exit code of a workload that could not run here (see `run.sh`).
const SKIPPED: u8 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: falcon-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n\
         \x20      falcon-benchmark --compare FILE FILE | --spread FILE... | --spec SECONDS | --list\n\
         workloads: {}",
        metrics::WORKLOADS.map(|(n, _)| n).join(" ")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12,
        traced: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().ok()?,
            "--seconds" => a.seconds = v.parse().ok().filter(|s| (1..=60).contains(s))?,
            "--trace" => a.traced = matches!(v.as_str(), "0" | "1").then(|| v == "1")?,
            "--out" => a.out = PathBuf::from(v),
            _ => return None,
        }
    }
    metrics::WORKLOADS
        .iter()
        .any(|(n, _)| *n == a.workload)
        .then_some(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            for (name, _) in metrics::WORKLOADS {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        }
        Some("--spec") => {
            let Some(seconds) = argv.get(1).and_then(|s| s.parse().ok()) else {
                return usage();
            };
            print!("{}", metrics::benchmark_json(seconds));
            return ExitCode::SUCCESS;
        }
        Some(mode @ ("--compare" | "--spread")) => {
            let files: Vec<String> = argv[1..]
                .iter()
                .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p}: {e}")))
                .collect();
            let (table, ok) = match (mode, files.as_slice()) {
                ("--compare", [a, b]) => metrics::compare(a, b),
                ("--spread", [_, _, ..]) => metrics::spread(&files),
                _ => return usage(),
            };
            print!("{table}");
            println!("{}: {}", &mode[2..], if ok { "PASS" } else { "FAIL" });
            return if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        _ => {}
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };

    let mut tracer = args.traced.then(Tracer::new);
    let kind = match args.workload.as_str() {
        "ycsb_c" => Some(embedded::Kind::YcsbC),
        "ycsb_a" => Some(embedded::Kind::YcsbA),
        "tpcc" => Some(embedded::Kind::Tpcc),
        "tpcc_2w" => Some(embedded::Kind::Tpcc2w),
        _ => None,
    };
    let result = match kind {
        Some(kind) => embedded::run(kind, args.seed, args.seconds, tracer.as_mut()),
        None => served::run(args.seed, args.seconds, tracer.as_mut()),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            // No result line: the run could not be made at all. A
            // skip (no loopback to bind) has its own exit code so the
            // lineup can go on.
            println!("{e}");
            return ExitCode::from(if e.starts_with("SKIP") { SKIPPED } else { 1 });
        }
    };
    if let Some(t) = &tracer {
        let path = args.out.join(format!("trace_{}.jsonl", args.workload));
        match t.write_jsonl(&path) {
            Ok(()) => println!("# {} spans, trace in {}", t.spans().len(), path.display()),
            Err(e) => println!("# trace not written to {}: {e}", path.display()),
        }
    }
    print!("{}", outcome.report.text(&args.workload));
    for p in &outcome.problems {
        println!("# CHECK FAILED {}: {p}", args.workload);
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        outcome
            .report
            .json_line(args.traced, correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
