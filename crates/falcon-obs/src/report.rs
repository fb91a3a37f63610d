//! The structured run reporter.
//!
//! A [`RunReport`] merges the engine-side [`crate::ObsRun`] with
//! pmem-sim's `DeviceStats` and the run's headline numbers into one
//! schema-versioned JSON document ([`RunReport::to_json`]) and a
//! human-readable table ([`RunReport::render_table`]). Bench binaries
//! collect one report per (engine, workload) cell and write them under
//! `results/`. The schema is documented field-by-field in DESIGN.md §10.

use crate::{EngineStats, ObsRun, Phase, ServerStats};
use pmem_sim::DeviceStats;
use serde_json::{json, Value};

/// The one schema identifier every report carries (`schema_version`);
/// bump on any field change. DESIGN.md §10 documents the fields.
pub const SCHEMA_VERSION: u64 = 7;

/// Identifying metadata for one run.
#[derive(Debug, Clone, Default)]
pub struct ReportMeta {
    /// Bench binary or harness name (e.g. "fig09_ycsb").
    pub bench: String,
    /// Engine variant name (e.g. "Falcon", "Inp", "ZenS").
    pub engine: String,
    /// Concurrency-control scheme name (e.g. "OCC", "MVTO").
    pub cc: String,
    /// Workload name (e.g. "YCSB-B/zipfian", "TPC-C").
    pub workload: String,
    /// Worker threads.
    pub threads: usize,
}

/// Recovery replay counts, attached when the run exercised recovery.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCounts {
    /// Committed transactions replayed from the log window.
    pub committed_replayed: u64,
    /// Uncommitted transactions discarded.
    pub uncommitted_discarded: u64,
    /// Tuples scanned while rebuilding indexes.
    pub tuples_scanned: u64,
    /// Total virtual recovery time.
    pub total_ns: u64,
    /// Redo records dropped as torn (power cut mid-append).
    pub torn_records: u64,
    /// Redo records dropped as corrupt (CRC/framing damage behind the
    /// commit point).
    pub corrupt_records: u64,
    /// Log windows recovered around damage rather than trusted whole.
    pub windows_salvaged: u64,
    /// NVM index structural repairs (e.g. mid-split B⁺-tree images
    /// rebuilt from the leaf chain while attaching).
    pub index_repairs: u64,
    /// Overflow-spill bytes scanned behind the checkpoint mark.
    pub spill_bytes_scanned: u64,
    /// Spill records walked during the bounded tail scan.
    pub spill_records_scanned: u64,
    /// Live slots whose spill extent was truncated behind a published
    /// checkpoint (counted, non-fatal — the slot replays from its
    /// in-window prefix).
    pub spill_truncated_refs: u64,
    /// Spill bytes reclaimed when recovery reset the spill tails.
    pub spill_bytes_truncated: u64,
    /// Highest checkpoint epoch recovered from the per-thread records.
    pub ckpt_epoch: u64,
    /// Checkpoint metadata records rejected (bad CRC / epoch mismatch)
    /// — recovery fell back to a full spill replay for those threads.
    pub ckpt_meta_corrupt: u64,
}

/// Happens-before analysis summary, attached when the run was recorded
/// in race mode and analyzed by falcon-race. Kept as plain counts so
/// falcon-obs stays dependency-free; the producer (falcon-race's CLI or
/// `falcon_wl::run_race_checked` callers) fills it from a `RaceReport`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaceCheckSummary {
    /// Worker threads recorded in the trace.
    pub threads: usize,
    /// Events analyzed.
    pub events: u64,
    /// Data-race findings (plain/plain or mixed-atomicity, no HB edge).
    pub data_races: u64,
    /// Cross-thread persist-order findings (rule R5: commit record
    /// published before the writer's dependent lines were durable).
    pub persist_publishes: u64,
    /// Lock-discipline findings (double-acquire, foreign release, ...).
    pub lock_discipline: u64,
}

impl RaceCheckSummary {
    /// True when the analysis produced no findings of any kind.
    pub fn is_clean(&self) -> bool {
        self.data_races == 0 && self.persist_publishes == 0 && self.lock_discipline == 0
    }
}

/// One run's complete observability record.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Who ran what.
    pub meta: ReportMeta,
    /// Transactions committed.
    pub committed: u64,
    /// Transaction attempts aborted.
    pub aborted: u64,
    /// Transactions dropped by the abort-retry cap.
    pub dropped: u64,
    /// Virtual elapsed time of the measured window.
    pub elapsed_ns: u64,
    /// Engine counters and per-type histograms.
    pub run: ObsRun,
    /// Aggregated simulator counters.
    pub device: DeviceStats,
    /// Recovery counts, if the run exercised recovery.
    pub recovery: Option<RecoveryCounts>,
    /// Race-mode analysis summary, if the run was race-checked.
    pub race: Option<RaceCheckSummary>,
    /// Serving-layer counters, if the run went through falcon-server.
    pub server: Option<ServerStats>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn hist_json(h: &crate::Histogram) -> Value {
    json!({
        "count": h.count(),
        "p50": h.percentile(50.0),
        "p95": h.percentile(95.0),
        "p99": h.percentile(99.0),
        "mean": h.mean(),
        "min": h.min(),
        "max": h.max(),
    })
}

fn engine_json(e: &EngineStats) -> Value {
    json!({
        "commits": e.commits,
        "aborts": e.aborts,
        "aborts_by_cause": json!({
            "conflict": e.aborts_conflict,
            "not_found": e.aborts_not_found,
            "duplicate": e.aborts_duplicate,
            "log_overflow": e.aborts_log_overflow,
            "other": e.aborts_other,
        }),
        "log_window": json!({
            "appends": e.log_appends,
            "append_bytes": e.log_append_bytes,
            "wraps": e.log_wraps,
            "overflow_spills": e.log_overflow_spills,
            "spill_bytes": e.log_spill_bytes,
            "full_stalls": e.log_full_stalls,
        }),
        "flush": json!({
            "hinted_issued": e.flush_hinted,
            "skipped_hot": e.flush_skipped_hot,
        }),
        "hot_lru": json!({
            "hits": e.hot_hits,
            "misses": e.hot_misses,
            "evictions": e.hot_evictions,
            "hit_rate": ratio(e.hot_hits, e.hot_hits + e.hot_misses),
        }),
        "version_heap": json!({
            "allocs": e.version_allocs,
            "frees": e.version_frees,
            "chain_walks": e.version_chain_walks,
            "chain_steps": e.version_chain_steps,
            "mean_chain_len": ratio(e.version_chain_steps, e.version_chain_walks),
        }),
        "checkpoint": json!({
            "published": e.ckpt_published,
            "epoch": e.ckpt_epoch,
            "dirty_writebacks": e.ckpt_dirty_writebacks,
            "dirty_peak": e.ckpt_dirty_peak,
            "backpressure_stalls": e.ckpt_backpressure_stalls,
            "spill_bytes_truncated": e.spill_bytes_truncated,
            "spill_truncations": e.spill_truncations,
        }),
        "group_commit": json!({
            "fences": e.group_fences,
            "txns": e.group_commit_txns,
            "batch_peak": e.group_batch_peak,
            "mean_batch": ratio(e.group_commit_txns, e.group_fences),
        }),
    })
}

fn device_json(d: &DeviceStats) -> Value {
    let t = &d.total;
    json!({
        "threads": d.threads,
        "accesses": t.accesses,
        "cache_hits": t.cache_hits,
        "cache_misses": t.cache_misses,
        "fills_from_xpbuffer": t.fills_from_xpbuffer,
        "evictions": t.evictions,
        "clwb_writebacks": t.clwb_writebacks,
        "clwb_issued": t.clwb_issued,
        "sfences": t.sfences,
        "sfence_wait_ns": t.sfence_wait_ns,
        "media_block_writes": t.media_block_writes,
        "media_rmw": t.media_rmw,
        "media_fill_reads": t.media_fill_reads,
        "media_bytes_written": t.media_bytes_written(),
        "dram_accesses": t.dram_accesses,
        "write_amplification": t.write_amplification(),
    })
}

impl RunReport {
    /// Serialize to the schema-versioned JSON document.
    pub fn to_json(&self) -> Value {
        let types: Vec<Value> = self
            .run
            .types
            .iter()
            .map(|t| {
                let phases: Vec<(String, Value)> = Phase::ALL
                    .iter()
                    .map(|p| (p.name().to_string(), hist_json(&t.phases[*p as usize])))
                    .collect();
                json!({
                    "name": t.name.as_str(),
                    "latency": hist_json(&t.latency),
                    "phases": Value::Object(phases),
                })
            })
            .collect();

        let mut obj = vec![
            ("schema_version".to_string(), Value::from(SCHEMA_VERSION)),
            (
                "meta".to_string(),
                json!({
                    "bench": self.meta.bench.as_str(),
                    "engine": self.meta.engine.as_str(),
                    "cc": self.meta.cc.as_str(),
                    "workload": self.meta.workload.as_str(),
                    "threads": self.meta.threads,
                }),
            ),
            (
                "run".to_string(),
                json!({
                    "committed": self.committed,
                    "aborted": self.aborted,
                    "dropped": self.dropped,
                    "elapsed_ns": self.elapsed_ns,
                    "mtps": ratio(self.committed * 1000, self.elapsed_ns),
                }),
            ),
            ("engine".to_string(), engine_json(&self.run.engine)),
            ("device".to_string(), device_json(&self.device)),
            ("types".to_string(), Value::Array(types)),
        ];
        if let Some(cost) = &self.run.cost {
            obj.push(("phase_cost".to_string(), cost.to_json()));
        }
        if let Some(r) = &self.recovery {
            obj.push((
                "recovery".to_string(),
                json!({
                    "committed_replayed": r.committed_replayed,
                    "uncommitted_discarded": r.uncommitted_discarded,
                    "tuples_scanned": r.tuples_scanned,
                    "total_ns": r.total_ns,
                    "torn_records": r.torn_records,
                    "corrupt_records": r.corrupt_records,
                    "windows_salvaged": r.windows_salvaged,
                    "index_repairs": r.index_repairs,
                    "spill_bytes_scanned": r.spill_bytes_scanned,
                    "spill_records_scanned": r.spill_records_scanned,
                    "spill_truncated_refs": r.spill_truncated_refs,
                    "spill_bytes_truncated": r.spill_bytes_truncated,
                    "ckpt_epoch": r.ckpt_epoch,
                    "ckpt_meta_corrupt": r.ckpt_meta_corrupt,
                }),
            ));
        }
        if let Some(r) = &self.race {
            obj.push((
                "race".to_string(),
                json!({
                    "threads": r.threads,
                    "events": r.events,
                    "data_races": r.data_races,
                    "persist_publishes": r.persist_publishes,
                    "lock_discipline": r.lock_discipline,
                    "clean": r.is_clean(),
                }),
            ));
        }
        if let Some(sv) = &self.server {
            obj.push((
                "server".to_string(),
                json!({
                    "admitted": sv.admitted,
                    "shed_overloaded": sv.shed_overloaded,
                    "shed_shutting_down": sv.shed_shutting_down,
                    "bad_requests": sv.bad_requests,
                    "timeouts": sv.timeouts,
                    "conns_opened": sv.conns_opened,
                    "conns_closed": sv.conns_closed,
                    "retries": sv.retries,
                    "retries_exhausted": sv.retries_exhausted,
                    "batches": sv.batches,
                    "batch_txns": sv.batch_txns,
                    "batch_peak": sv.batch_peak,
                    "mean_batch": ratio(sv.batch_txns, sv.batches),
                    "shed_rate": ratio(
                        sv.shed_overloaded,
                        sv.admitted + sv.shed_overloaded,
                    ),
                }),
            ));
        }
        Value::Object(obj)
    }

    /// Render a compact human-readable table (one block per report).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let e = &self.run.engine;
        let d = &self.device.total;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "── obs: {} · {} / {} · {} · {} threads ──",
            self.meta.bench, self.meta.engine, self.meta.cc, self.meta.workload, self.meta.threads
        );
        let _ = writeln!(
            s,
            "  txns      committed {:>10}  aborted {:>8}  dropped {:>6}  mtps {:.3}",
            self.committed,
            self.aborted,
            self.dropped,
            ratio(self.committed * 1000, self.elapsed_ns)
        );
        let _ = writeln!(
            s,
            "  aborts    conflict {} not_found {} duplicate {} log_overflow {} other {}",
            e.aborts_conflict,
            e.aborts_not_found,
            e.aborts_duplicate,
            e.aborts_log_overflow,
            e.aborts_other
        );
        let _ = writeln!(
            s,
            "  log       appends {} ({} B)  wraps {}  spills {} ({} B)  full-stalls {}",
            e.log_appends,
            e.log_append_bytes,
            e.log_wraps,
            e.log_overflow_spills,
            e.log_spill_bytes,
            e.log_full_stalls
        );
        let _ = writeln!(
            s,
            "  flush     hinted {}  skipped-hot {}   hot-lru hits {} misses {} evict {} ({:.1}% hit)",
            e.flush_hinted,
            e.flush_skipped_hot,
            e.hot_hits,
            e.hot_misses,
            e.hot_evictions,
            100.0 * ratio(e.hot_hits, e.hot_hits + e.hot_misses)
        );
        if e.ckpt_published + e.ckpt_backpressure_stalls + e.spill_truncations > 0 {
            let _ = writeln!(
                s,
                "  ckpt      published {} (epoch {})  dirty-wb {} (peak {})  stalls {}  truncated {} B in {}",
                e.ckpt_published,
                e.ckpt_epoch,
                e.ckpt_dirty_writebacks,
                e.ckpt_dirty_peak,
                e.ckpt_backpressure_stalls,
                e.spill_bytes_truncated,
                e.spill_truncations
            );
        }
        if e.group_fences > 0 {
            let _ = writeln!(
                s,
                "  group     fences {}  txns {}  mean-batch {:.2}  peak {}",
                e.group_fences,
                e.group_commit_txns,
                ratio(e.group_commit_txns, e.group_fences),
                e.group_batch_peak
            );
        }
        let _ = writeln!(
            s,
            "  versions  alloc {}  free {}  walks {}  mean-chain {:.2}",
            e.version_allocs,
            e.version_frees,
            e.version_chain_walks,
            ratio(e.version_chain_steps, e.version_chain_walks)
        );
        let _ = writeln!(
            s,
            "  device    amp {:.2}x  sfence-wait {} ns  media-writes {}  clwb {}/{}",
            d.write_amplification(),
            d.sfence_wait_ns,
            d.media_block_writes,
            d.clwb_writebacks,
            d.clwb_issued
        );
        if let Some(cost) = &self.run.cost {
            for c in 0..crate::cost::COST_COLS {
                let t = cost.col_total(c);
                if t.is_zero() {
                    continue;
                }
                let _ = writeln!(
                    s,
                    "  cost      {:<13} ns {:>12}  clwb {:>8}  sfence {:>6}  media-wr {:>8}",
                    crate::CostMatrix::col_name(c),
                    t.ns,
                    t.stats.clwb_issued,
                    t.stats.sfences,
                    t.stats.media_block_writes
                );
            }
        }
        let _ = writeln!(
            s,
            "  {:<14} {:>8} {:>9} {:>9} {:>9}   top phases (p50 ns)",
            "txn type", "count", "p50", "p95", "p99"
        );
        for t in &self.run.types {
            let mut tops: Vec<(&'static str, u64)> = Phase::ALL
                .iter()
                .map(|p| (p.name(), t.phases[*p as usize].percentile(50.0)))
                .collect();
            tops.sort_by_key(|t| std::cmp::Reverse(t.1));
            let tops: Vec<String> = tops
                .iter()
                .take(3)
                .filter(|(_, v)| *v > 0)
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            let _ = writeln!(
                s,
                "  {:<14} {:>8} {:>9} {:>9} {:>9}   {}",
                t.name,
                t.latency.count(),
                t.latency.percentile(50.0),
                t.latency.percentile(95.0),
                t.latency.percentile(99.0),
                tops.join(" ")
            );
        }
        if let Some(r) = &self.recovery {
            let _ = writeln!(
                s,
                "  recovery  replayed {}  discarded {}  scanned {}  total {} ns",
                r.committed_replayed, r.uncommitted_discarded, r.tuples_scanned, r.total_ns
            );
            if r.torn_records + r.corrupt_records + r.windows_salvaged + r.index_repairs > 0 {
                let _ = writeln!(
                    s,
                    "  damage    torn {}  corrupt {}  windows-salvaged {}  index-repairs {}",
                    r.torn_records, r.corrupt_records, r.windows_salvaged, r.index_repairs
                );
            }
            if r.spill_bytes_scanned + r.spill_truncated_refs + r.ckpt_meta_corrupt + r.ckpt_epoch
                > 0
            {
                let _ = writeln!(
                    s,
                    "  ckpt-rec  epoch {}  spill-scanned {} B / {} recs  truncated-refs {}  meta-corrupt {}",
                    r.ckpt_epoch,
                    r.spill_bytes_scanned,
                    r.spill_records_scanned,
                    r.spill_truncated_refs,
                    r.ckpt_meta_corrupt
                );
            }
        }
        if let Some(r) = &self.race {
            let _ = writeln!(
                s,
                "  race      {} threads  {} events  races {}  persist-publish {}  lock {}  {}",
                r.threads,
                r.events,
                r.data_races,
                r.persist_publishes,
                r.lock_discipline,
                if r.is_clean() { "clean" } else { "DIRTY" }
            );
        }
        if let Some(sv) = &self.server {
            let _ = writeln!(
                s,
                "  server    admitted {}  shed {}+{}  bad {}  timeouts {}  retries {} (exhausted {})",
                sv.admitted,
                sv.shed_overloaded,
                sv.shed_shutting_down,
                sv.bad_requests,
                sv.timeouts,
                sv.retries,
                sv.retries_exhausted
            );
            let _ = writeln!(
                s,
                "  server    conns {}/{}  batches {} covering {} txns (mean {:.2}, peak {})",
                sv.conns_opened,
                sv.conns_closed,
                sv.batches,
                sv.batch_txns,
                ratio(sv.batch_txns, sv.batches),
                sv.batch_peak
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut run = ObsRun::new(&["read", "update"]);
        run.engine.commits = 90;
        run.engine.aborts = 10;
        run.engine.aborts_conflict = 10;
        run.engine.log_appends = 45;
        run.engine.log_append_bytes = 45 * 64;
        run.engine.hot_hits = 30;
        run.engine.hot_misses = 15;
        run.engine.ckpt_published = 3;
        run.engine.ckpt_epoch = 3;
        run.engine.ckpt_dirty_writebacks = 12;
        run.engine.ckpt_dirty_peak = 6;
        run.engine.ckpt_backpressure_stalls = 1;
        run.engine.spill_bytes_truncated = 4096;
        run.engine.spill_truncations = 2;
        run.engine.group_fence_record(8);
        run.engine.group_fence_record(4);
        for v in [100u64, 200, 400, 800] {
            run.types[0].latency.record(v);
            run.types[0].phases[Phase::IndexLookup as usize].record(v / 2);
        }
        let mut m = pmem_sim::AttrMatrix::new(3, crate::cost::COST_COLS);
        m.cell_mut(0, Phase::CommitFence as usize).ns = 500;
        m.cell_mut(0, Phase::CommitFence as usize).stats.sfences = 4;
        run.cost = Some(crate::CostMatrix::from_matrix(&["read", "update"], m));
        RunReport {
            meta: ReportMeta {
                bench: "unit".into(),
                engine: "Falcon".into(),
                cc: "OCC".into(),
                workload: "YCSB-B".into(),
                threads: 2,
            },
            committed: 90,
            aborted: 10,
            dropped: 1,
            elapsed_ns: 1_000_000,
            run,
            device: DeviceStats::default(),
            recovery: Some(RecoveryCounts {
                committed_replayed: 5,
                uncommitted_discarded: 2,
                tuples_scanned: 7,
                total_ns: 1234,
                torn_records: 1,
                corrupt_records: 0,
                windows_salvaged: 1,
                index_repairs: 1,
                spill_bytes_scanned: 512,
                spill_records_scanned: 4,
                spill_truncated_refs: 1,
                spill_bytes_truncated: 2048,
                ckpt_epoch: 3,
                ckpt_meta_corrupt: 0,
            }),
            race: Some(RaceCheckSummary {
                threads: 2,
                events: 4321,
                data_races: 0,
                persist_publishes: 0,
                lock_discipline: 0,
            }),
            server: Some(ServerStats {
                admitted: 100,
                shed_overloaded: 20,
                retries: 7,
                retries_exhausted: 1,
                conns_opened: 4,
                conns_closed: 4,
                batches: 12,
                batch_txns: 96,
                batch_peak: 16,
                ..Default::default()
            }),
        }
    }

    #[test]
    fn json_has_schema_and_sections() {
        let v = sample_report().to_json();
        let s = serde_json::to_string_pretty(&v).unwrap();
        assert!(!s.contains("\"schema\""), "one identifier only:\n{s}");
        for key in [
            "group_commit",
            "server",
            "shed_overloaded",
            "retries_exhausted",
            "mean_batch",
            "shed_rate",
            "group_fence",
            "checkpoint",
            "backpressure_stalls",
            "spill_bytes_truncated",
            "spill_bytes_scanned",
            "spill_truncated_refs",
            "ckpt_epoch",
            "ckpt_meta_corrupt",
            "torn_records",
            "corrupt_records",
            "windows_salvaged",
            "index_repairs",
            "meta",
            "run",
            "engine",
            "device",
            "types",
            "recovery",
            "aborts_by_cause",
            "log_window",
            "hot_lru",
            "version_heap",
            "write_amplification",
            "sfence_wait_ns",
            "index_lookup",
            "commit_fence",
            "p99",
            "race",
            "data_races",
            "persist_publishes",
            "phase_cost",
            "phase_totals",
            "spill_bytes",
        ] {
            assert!(s.contains(&format!("\"{key}\"")), "missing {key}:\n{s}");
        }
        assert_eq!(
            v.get("schema_version").and_then(Value::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            v.get("run")
                .and_then(|r| r.get("dropped"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn table_renders_every_type_row() {
        let t = sample_report().render_table();
        assert!(t.contains("Falcon"));
        assert!(t.contains("read"));
        assert!(t.contains("update"));
        assert!(t.contains("recovery"));
        assert!(t.contains("windows-salvaged"));
        assert!(t.contains("ckpt      published 3"));
        assert!(t.contains("ckpt-rec  epoch 3"));
        assert!(t.contains("persist-publish 0"));
        assert!(t.contains("clean"));
        assert!(t.contains("group     fences 2"));
        assert!(t.contains("server    admitted 100"));
        assert!(t.contains("index_lookup="), "top phases line:\n{t}");
        assert!(t.contains("cost      commit_fence"), "cost lines:\n{t}");
    }
}
