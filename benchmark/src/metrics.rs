//! The metric catalogue: every name the benchmark prints, with its
//! unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` at the repository root repeats the `contract`
//! subset; a unit test keeps the two in step.
//!
//! Units: `us`/`ns`/`s`/`ms` are host-clock times as measured. `vns`,
//! `vus` and `1/vs` are *virtual* nanoseconds, microseconds and
//! per-virtual-second rates on pmem-sim's clock: deterministic counts
//! of modelled time, exact for a given seed, not host measurements.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The five workloads, in lineup order, each with the one-line reason
/// `BENCHMARK.json` records.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ycsb_c",
        "read-only Zipfian point reads on a table 16x the simulated cache: bypasses log, flush and fences; target for host-side copy removal",
    ),
    (
        "ycsb_a",
        "same table, 50% full-row updates: log window, commit fence, hinted flush and hot-tuple LRU beside the same reads; ends with a power cut and recovery",
    ),
    (
        "tpcc",
        "multi-row transactions, inserts/deletes (heap alloc), B-tree range scans; 91% of media block writes are read-modify-write; ends with a power cut and recovery",
    ),
    (
        "tpcc_2w",
        "the same on 2 real worker threads: the only workload with conflicts, cross-worker cache sharing and the Pacer",
    ),
    (
        "served",
        "Get/Put over loopback TCP, closed loop then fixed rates, on a fits-in-cache table: the only workload crossing the wire codec, thread hops, group commit and sockets",
    ),
];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are improvements.
    Higher,
    /// Smaller values are improvements.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen. `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Derived only from the virtual clock and device counters: must
    /// repeat bit for bit on single-worker workloads (`--selfcheck`).
    pub exact: bool,
    /// Listed in `BENCHMARK.json` and in the JSON result line. False
    /// for host-clock timings that exist on only some workloads: a
    /// timing reported as a constant 0 elsewhere would read as a fake
    /// measurement, so those are printed as text on their workloads
    /// only.
    pub contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
        contract: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        contract: true,
    }
}

const fn layer_exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, unit, better)
    }
}

const fn text_only(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        contract: false,
        ..layer(name, unit, better)
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them, with tracing off.
///
/// Bounds are at least three times the widest run-to-run spread (first
/// to third quartile ÷ median over ten seeds) seen on the 2-core box:
/// host-clock metrics swing 1–10 % there whatever the estimator, so
/// they get the contract's maximum; `virt_txn_per_s` swings 4 % on
/// `tpcc_2w` (0.1 % single-worker, where `--selfcheck` holds it to
/// bit-identity); `peak_rss_mb` 4 % on `served`. README has the table.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("host_ops_per_s", "1/s", Higher, 0.25, false),
    e2e("host_p50_us", "us", Lower, 0.25, false),
    e2e("host_p95_us", "us", Lower, 0.25, false),
    e2e("virt_txn_per_s", "1/vs", Higher, 0.15, true),
    e2e("peak_rss_mb", "MB", Lower, 0.15, false),
];

/// Per-layer metrics, reported by the traced pass (the window-derived
/// ones by the untraced pass too).
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end in nature, but the contract can only bound a metric
    // that every workload reports, that is never 0 and that one
    // relative bound fits. Percentiles of a discrete deterministic
    // clock repeat exactly or jump; the rest exist on some workloads
    // only. `--selfcheck` holds the exact ones to bit-identity.
    layer("host_p99_us", "us", Lower),
    layer_exact("virt_p50_ns", "vns", Lower),
    layer_exact("virt_p99_ns", "vns", Lower),
    layer_exact("media_bytes_per_txn", "B", Lower),
    layer_exact("recovery_virt_us", "vus", Lower),
    layer("rate_ok_max", "req/s", Higher),
    layer("failed_share", "ratio", Lower),
    // pmem-sim: device counters of the measured window.
    layer_exact("pmem-sim.accesses_per_txn", "count", Lower),
    layer_exact("pmem-sim.cache_miss_share", "ratio", Lower),
    layer_exact("pmem-sim.media_fill_reads_per_txn", "count", Lower),
    layer_exact("pmem-sim.evictions_per_txn", "count", Lower),
    layer_exact("pmem-sim.clwb_per_txn", "count", Lower),
    layer_exact("pmem-sim.sfence_per_txn", "count", Lower),
    layer_exact("pmem-sim.media_writes_per_txn", "count", Lower),
    layer_exact("pmem-sim.media_rmw_share", "ratio", Lower),
    layer_exact("pmem-sim.write_amp", "ratio", Lower),
    layer("pmem-sim.host_ns_per_access", "ns", Lower),
    // pmem-sim: device-op probes on a standalone device.
    layer("pmem-sim.read_hit.host_ns", "ns", Lower),
    layer_exact("pmem-sim.read_hit.virt_ns", "vns", Lower),
    layer("pmem-sim.read_miss.host_ns", "ns", Lower),
    layer_exact("pmem-sim.read_miss.virt_ns", "vns", Lower),
    layer("pmem-sim.write_line.host_ns", "ns", Lower),
    layer_exact("pmem-sim.write_line.virt_ns", "vns", Lower),
    layer("pmem-sim.flush256.host_ns", "ns", Lower),
    layer_exact("pmem-sim.flush256.virt_ns", "vns", Lower),
    // falcon-storage.
    layer("falcon-storage.alloc_free.host_ns", "ns", Lower),
    layer_exact("falcon-storage.alloc_free.virt_ns", "vns", Lower),
    layer("falcon-storage.tuple_read.host_ns", "ns", Lower),
    layer_exact("falcon-storage.tuple_read.virt_ns", "vns", Lower),
    layer("falcon-storage.tuple_write_flush.host_ns", "ns", Lower),
    layer_exact("falcon-storage.tuple_write_flush.virt_ns", "vns", Lower),
    // falcon-index.
    layer("falcon-index.hash_get.host_ns", "ns", Lower),
    layer_exact("falcon-index.hash_get.virt_ns", "vns", Lower),
    layer_exact("falcon-index.hash_get.accesses", "count", Lower),
    layer("falcon-index.hash_insert_remove.host_ns", "ns", Lower),
    layer_exact("falcon-index.hash_insert_remove.virt_ns", "vns", Lower),
    layer("falcon-index.btree_get.host_ns", "ns", Lower),
    layer_exact("falcon-index.btree_get.virt_ns", "vns", Lower),
    layer_exact("falcon-index.btree_get.accesses", "count", Lower),
    layer("falcon-index.btree_insert_remove.host_ns", "ns", Lower),
    layer_exact("falcon-index.btree_insert_remove.virt_ns", "vns", Lower),
    layer("falcon-index.btree_scan16.host_ns", "ns", Lower),
    layer_exact("falcon-index.btree_scan16.virt_ns", "vns", Lower),
    // falcon-core.
    layer("falcon-core.txn_empty.host_ns", "ns", Lower),
    layer_exact("falcon-core.txn_empty.virt_ns", "vns", Lower),
    layer("falcon-core.read1.host_ns", "ns", Lower),
    layer_exact("falcon-core.read1.virt_ns", "vns", Lower),
    layer("falcon-core.update1.host_ns", "ns", Lower),
    layer_exact("falcon-core.update1.virt_ns", "vns", Lower),
    layer("falcon-core.update1_commit.host_ns", "ns", Lower),
    layer_exact("falcon-core.update1_commit.virt_ns", "vns", Lower),
    layer("falcon-core.insert_delete.host_ns", "ns", Lower),
    layer_exact("falcon-core.insert_delete.virt_ns", "vns", Lower),
    layer("falcon-core.group_fence8.host_ns", "ns", Lower),
    layer_exact("falcon-core.group_fence8.virt_ns", "vns", Lower),
    layer("falcon-core.recover.host_ms", "ms", Lower),
    layer_exact("falcon-core.recover.catalog_virt_ns", "vns", Lower),
    layer_exact("falcon-core.recover.index_virt_ns", "vns", Lower),
    layer_exact("falcon-core.recover.replay_virt_ns", "vns", Lower),
    layer_exact("falcon-core.recover.committed_replayed", "count", Lower),
    layer_exact("falcon-core.recover.uncommitted_discarded", "count", Lower),
    layer_exact("falcon-core.ckpt.published", "count", Lower),
    layer_exact("falcon-core.ckpt.backpressure_stalls", "count", Lower),
    // falcon-wl.
    layer("falcon-wl.keygen.host_ns", "ns", Lower),
    layer_exact("falcon-wl.abort_ratio", "ratio", Lower),
    layer_exact("falcon-wl.dropped", "count", Lower),
    layer("falcon-wl.host_run_s", "s", Lower),
    layer("falcon-wl.unexplained_host_share", "ratio", Lower),
    layer("falcon-wl.trace_overhead_share", "ratio", Lower),
    layer_exact("falcon-wl.read.count", "count", Higher),
    text_only("falcon-wl.read.host_p50_us", "us", Lower),
    layer_exact("falcon-wl.read.virt_p50_ns", "vns", Lower),
    layer_exact("falcon-wl.update.count", "count", Higher),
    text_only("falcon-wl.update.host_p50_us", "us", Lower),
    layer_exact("falcon-wl.update.virt_p50_ns", "vns", Lower),
    layer_exact("falcon-wl.NewOrder.count", "count", Higher),
    text_only("falcon-wl.NewOrder.host_p50_us", "us", Lower),
    layer_exact("falcon-wl.NewOrder.virt_p50_ns", "vns", Lower),
    layer_exact("falcon-wl.Payment.count", "count", Higher),
    text_only("falcon-wl.Payment.host_p50_us", "us", Lower),
    layer_exact("falcon-wl.Payment.virt_p50_ns", "vns", Lower),
    layer_exact("falcon-wl.OrderStatus.count", "count", Higher),
    text_only("falcon-wl.OrderStatus.host_p50_us", "us", Lower),
    layer_exact("falcon-wl.OrderStatus.virt_p50_ns", "vns", Lower),
    layer_exact("falcon-wl.Delivery.count", "count", Higher),
    text_only("falcon-wl.Delivery.host_p50_us", "us", Lower),
    layer_exact("falcon-wl.Delivery.virt_p50_ns", "vns", Lower),
    layer_exact("falcon-wl.StockLevel.count", "count", Higher),
    text_only("falcon-wl.StockLevel.host_p50_us", "us", Lower),
    layer_exact("falcon-wl.StockLevel.virt_p50_ns", "vns", Lower),
    // falcon-server.
    layer("falcon-server.encode_req.host_ns", "ns", Lower),
    layer("falcon-server.decode_req.host_ns", "ns", Lower),
    layer("falcon-server.encode_resp.host_ns", "ns", Lower),
    layer("falcon-server.decode_resp.host_ns", "ns", Lower),
    layer("falcon-server.apply_get.host_ns", "ns", Lower),
    layer("falcon-server.apply_put.host_ns", "ns", Lower),
    text_only("falcon-server.rtt1.p50_us", "us", Lower),
    layer("falcon-server.closed32.ops_per_s", "1/s", Higher),
    text_only("falcon-server.rate250.p50_us", "us", Lower),
    text_only("falcon-server.rate250.p99_us", "us", Lower),
    layer("falcon-server.rate250.late_share", "ratio", Lower),
    text_only("falcon-server.rate1000.p50_us", "us", Lower),
    text_only("falcon-server.rate1000.p99_us", "us", Lower),
    layer("falcon-server.rate1000.late_share", "ratio", Lower),
    text_only("falcon-server.rate4000.p50_us", "us", Lower),
    text_only("falcon-server.rate4000.p99_us", "us", Lower),
    layer("falcon-server.rate4000.late_share", "ratio", Lower),
    text_only("falcon-server.rate16000.p50_us", "us", Lower),
    text_only("falcon-server.rate16000.p99_us", "us", Lower),
    layer("falcon-server.rate16000.late_share", "ratio", Lower),
    layer("falcon-server.mean_batch", "count", Higher),
    layer("falcon-server.fences_per_commit", "ratio", Lower),
    layer("falcon-server.batch_peak", "count", Higher),
    layer("falcon-server.shed", "count", Lower),
    layer("falcon-server.retries", "count", Lower),
    layer("falcon-server.timeouts", "count", Lower),
    layer_exact("falcon-server.sim.virt_txn_per_s", "1/vs", Higher),
    layer_exact("falcon-server.sim.fences_per_commit", "ratio", Lower),
];

/// Look a metric up by name in both catalogues.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The metrics one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Record `name = value`. Panics on a name the catalogue does not
    /// hold: every printed metric has a unit and a direction.
    pub fn put(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            !self.values.iter().any(|(n, _)| *n == d.name),
            "metric {name} reported twice"
        );
        self.values.push((d.name, value));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// `workload metric value unit`, one line per metric.
    pub fn text(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            let unit = def(name).expect("catalogued").unit;
            writeln!(out, "{workload} {name} {v} {unit}").expect("string write");
        }
        out
    }

    /// The contract's result line. With tracing off the metrics are the
    /// end-to-end catalogue; with tracing on, the contract subset of the
    /// per-layer catalogue, 0 where a metric does not apply to this
    /// workload. A missing end-to-end metric is a bug and panics.
    pub fn json_line(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let mut m = String::new();
        let defs = if traced { PER_LAYER } else { END_TO_END };
        for d in defs.iter().filter(|d| d.contract) {
            let v = match self.get(d.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            if !m.is_empty() {
                m.push_str(", ");
            }
            write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_num(v),
                d.unit
            )
            .expect("string write");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
        )
    }
}

/// A float as a JSON number with all its digits (JSON has no NaN or
/// infinity; the benchmark never produces them on purpose).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

/// `BENCHMARK.json`, generated from the catalogue (`--spec`).
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {run_seconds},").expect("string write");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}")
            .expect("string write");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.word(),
            d.bound.expect("end-to-end metrics are bounded")
        )
        .expect("string write");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers: Vec<&MetricDef> = PER_LAYER.iter().filter(|d| d.contract).collect();
    for (i, d) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.word()
        )
        .expect("string write");
    }
    s.push_str("  ]\n}\n");
    s
}

// ----------------------------------------------------------------------
// --selfcheck: compare two lineups of the same code on the same seed.
// ----------------------------------------------------------------------

/// Workloads whose virtual numbers need not repeat: real threads and
/// the yield-spinning Pacer make the interleaving the scheduler's.
fn nondeterministic(workload: &str) -> bool {
    workload == "tpcc_2w"
}

/// Parse `workload metric value unit` lines (anything else is
/// skipped) into `(workload, metric) → printed value`.
pub fn parse_lines(text: &str) -> BTreeMap<(String, String), String> {
    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() == 4
            && known.contains(&f[0])
            && def(f[1]).is_some()
            && f[2].parse::<f64>().is_ok()
        {
            out.insert((f[0].to_string(), f[1].to_string()), f[2].to_string());
        }
    }
    out
}

/// Compare two lineups. Returns the printed table and whether every
/// check passed: `exact` metrics identical as printed on
/// single-worker workloads, every other end-to-end metric within its
/// bound of the smaller of the two values. Per-layer spreads are
/// printed for evidence and not judged.
pub fn compare(a: &str, b: &str) -> (String, bool) {
    let (a, b) = (parse_lines(a), parse_lines(b));
    let mut out = String::new();
    let mut ok = true;
    for ((workload, metric), va) in &a {
        let d = def(metric).expect("parsed against the catalogue");
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            writeln!(out, "FAIL {workload} {metric}: missing from the second run").expect("write");
            ok = false;
            continue;
        };
        let (fa, fb): (f64, f64) = (va.parse().expect("parsed"), vb.parse().expect("parsed"));
        let base = fa.abs().min(fb.abs());
        let spread = if fa == fb {
            0.0
        } else if base == 0.0 {
            f64::INFINITY
        } else {
            (fa - fb).abs() / base
        };
        let verdict = if d.exact && !nondeterministic(workload) {
            if va == vb {
                "exact"
            } else {
                ok = false;
                "FAIL (must be bit-identical)"
            }
        } else if let Some(bound) = d.bound {
            if spread <= bound {
                "within bound"
            } else {
                ok = false;
                "FAIL (outside bound)"
            }
        } else {
            "not judged"
        };
        let bound = d.bound.map_or(String::from("-"), |x| format!("{x}"));
        writeln!(
            out,
            "{workload} {metric} {va} {vb} spread {spread:.5} bound {bound} {verdict}"
        )
        .expect("write");
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        writeln!(out, "FAIL {} {}: missing from the first run", key.0, key.1).expect("write");
        ok = false;
    }
    if a.is_empty() {
        out.push_str("FAIL: no metric lines to compare\n");
        ok = false;
    }
    (out, ok)
}

// ----------------------------------------------------------------------
// --spread: run-to-run spread over several runs (one seed each).
// ----------------------------------------------------------------------

/// For each `(workload, metric)` in `runs` (the printed output of one
/// run each): the median and the distance between the first and third
/// quartile as a share of it — the figure the contract bounds.
/// End-to-end metrics are marked `steady` below a third of their
/// bound, `WIDE` up to the bound and `OVER` beyond it. Returns the
/// table and whether nothing was over.
pub fn spread(runs: &[String]) -> (String, bool) {
    let mut series: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (key, v) in parse_lines(run) {
            series
                .entry(key)
                .or_default()
                .push(v.parse().expect("parsed"));
        }
    }
    let mut out = String::new();
    let mut ok = true;
    for ((workload, metric), values) in &series {
        let d = def(metric).expect("parsed against the catalogue");
        let share = crate::stats::iqr_share(values);
        let verdict = match d.bound {
            // setup_s is bounded on its medians only, not its spread.
            Some(_) if d.name == "setup_s" => "not judged",
            Some(b) if share > b => {
                ok = false;
                "OVER"
            }
            Some(b) if share > b / 3.0 => "WIDE",
            Some(_) => "steady",
            None => "-",
        };
        writeln!(
            out,
            "{workload} {metric} n {} median {} iqr_share {share:.5} {verdict}",
            values.len(),
            crate::stats::median(values)
        )
        .expect("write");
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_judges_end_to_end_metrics_against_their_bounds() {
        let run = |ops: f64, hit: f64| {
            format!("ycsb_c host_ops_per_s {ops} 1/s\nycsb_c pmem-sim.read_hit.host_ns {hit} ns\n")
        };
        // Ten runs `step` apart around 100: quartiles 5.5 steps apart
        // (Python's exclusive method), so the IQR share is about
        // 5.5 × step %. Pick steps for half the bound, twice the bound
        // and a tenth of it.
        let bound = def("host_ops_per_s").unwrap().bound.unwrap();
        let ten = |step: f64| -> Vec<String> {
            (0..10)
                .map(|i| run(100.0 + step * f64::from(i), 30.0))
                .collect()
        };
        let (table, ok) = spread(&ten(bound / 2.0 * 100.0 / 5.5));
        assert!(
            ok && table.contains("ycsb_c host_ops_per_s n 10 median") && table.contains("WIDE"),
            "{table}"
        );
        assert!(table.contains("pmem-sim.read_hit.host_ns n 10 median 30 iqr_share 0.00000 -"));
        let (table, ok) = spread(&ten(bound * 2.0 * 100.0 / 5.5));
        assert!(!ok && table.contains("OVER"), "{table}");
        assert!(spread(&ten(bound / 10.0 * 100.0 / 5.5))
            .0
            .contains("steady"));
        // Exact figure for a known series: 100, 101, …, 109.
        assert!(spread(&ten(1.0))
            .0
            .contains("median 104.5 iqr_share 0.05263"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.iter().filter(|d| d.contract).count() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        for (name, why) in WORKLOADS {
            assert!(
                name.len() <= 64 && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
    }

    /// The committed `BENCHMARK.json` is the catalogue, byte for byte.
    /// Skipped where the repository root is not there (the benchmark
    /// directory on its own).
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(committed) = std::fs::read_to_string(&path) else {
            eprintln!("no {} here: skipped", path.display());
            return;
        };
        let seconds = committed
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"run_seconds\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("run_seconds");
        assert_eq!(
            committed,
            benchmark_json(seconds),
            "regenerate with run.sh --spec"
        );
    }

    #[test]
    fn report_prints_units_and_json() {
        let mut r = Report::new();
        for d in END_TO_END {
            r.put(d.name, 1.5);
        }
        assert!(r.text("ycsb_c").contains("ycsb_c host_p50_us 1.5 us\n"));
        let j = r.json_line(false, true, 10, 0);
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn traced_json_holds_the_contract_subset_with_zeros_for_absent() {
        let mut r = Report::new();
        r.put("pmem-sim.read_hit.host_ns", 12.25);
        r.put("falcon-server.rtt1.p50_us", 44000.0);
        let j = r.json_line(true, true, 1, 0);
        assert!(j.contains("\"pmem-sim.read_hit.host_ns\": {\"value\": 12.25, \"unit\": \"ns\"}"));
        assert!(j.contains("\"falcon-wl.NewOrder.count\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(
            !j.contains("rtt1"),
            "text-only metrics stay out of the JSON"
        );
        assert!(!j.contains("setup_s"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_refused() {
        Report::new().put("made_up", 1.0);
    }

    #[test]
    fn compare_demands_exact_virtual_numbers_on_one_worker() {
        let a = "ycsb_c virt_txn_per_s 359000.5 1/vs\nycsb_c host_ops_per_s 500000 1/s\n";
        let same = compare(a, a);
        assert!(same.1, "{}", same.0);
        let b = "ycsb_c virt_txn_per_s 359000.6 1/vs\nycsb_c host_ops_per_s 520000 1/s\n";
        let (table, ok) = compare(a, b);
        assert!(!ok);
        assert!(table.contains("virt_txn_per_s 359000.5 359000.6"));
        assert!(table.contains("must be bit-identical"));
        assert!(
            table.contains("host_ops_per_s 500000 520000 spread 0.04000 bound 0.25 within bound")
        );
    }

    #[test]
    fn compare_bounds_host_numbers_and_spares_two_worker_virtual_ones() {
        let a = "tpcc_2w virt_txn_per_s 50000 1/vs\ntpcc host_p50_us 100 us\n";
        let b = "tpcc_2w virt_txn_per_s 51000 1/vs\ntpcc host_p50_us 130 us\n";
        let (table, ok) = compare(a, b);
        assert!(!ok);
        assert!(table
            .contains("tpcc_2w virt_txn_per_s 50000 51000 spread 0.02000 bound 0.15 within bound"));
        assert!(
            table.contains("host_p50_us 100 130 spread 0.30000 bound 0.25 FAIL (outside bound)")
        );
    }

    #[test]
    fn compare_flags_missing_lines_and_empty_input() {
        let a = "served host_p50_us 44000 us\n";
        assert!(!compare(a, "").1);
        assert!(!compare("", "").1);
        assert!(compare("noise line\nserved host_p50_us 44000 us\n", a).1);
    }
}
