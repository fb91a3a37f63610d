//! The (txn_type × phase) device-cost matrix.
//!
//! pmem-sim's attribution plane (`pmem_sim::attr`) charges every device
//! event to an anonymous (row, column) bucket; this module gives those
//! indices their engine-level meaning — rows are workload transaction
//! types (plus a trailing [`UNATTRIBUTED`] catch-all for aborted/dropped
//! attempts and off-transaction work like GC), columns are the six
//! [`Phase`] spans (plus a trailing [`UNPHASED`] catch-all for work
//! between spans: harness glue, version reads, tuple copies). Because
//! both catch-alls exist, the matrix total equals *exactly* what the
//! device counted — nothing is lost, only labelled.
//!
//! [`CostMatrix::folded`] renders the matrix as folded stacks
//! (`bench;txn_type;phase value` lines) consumable by stock flamegraph
//! tooling (`flamegraph.pl`, inferno, speedscope), with virtual-clock
//! nanoseconds as the sample value.

use pmem_sim::{AttrCell, AttrMatrix, ThreadStats};
use serde_json::{json, Value};

use crate::{Phase, PHASES};

/// Row name for costs not charged to any committed transaction type.
pub const UNATTRIBUTED: &str = "unattributed";
/// Column name for costs accrued outside any phase span.
pub const UNPHASED: &str = "unphased";

/// Number of matrix columns: the six phases plus [`UNPHASED`].
pub const COST_COLS: usize = PHASES + 1;

/// A labelled (txn_type × phase) matrix of device-event costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostMatrix {
    rows: Vec<String>,
    matrix: AttrMatrix,
}

impl CostMatrix {
    /// Wrap a matrix produced by `MemCtx::attr_take`. `type_names` are
    /// the workload transaction types; the matrix must have one extra
    /// row (the catch-all) and [`COST_COLS`] columns.
    pub fn from_matrix(type_names: &[&str], matrix: AttrMatrix) -> Self {
        assert_eq!(
            matrix.rows(),
            type_names.len() + 1,
            "rows = types + catch-all"
        );
        assert_eq!(matrix.cols(), COST_COLS, "cols = phases + catch-all");
        let mut rows: Vec<String> = type_names.iter().map(ToString::to_string).collect();
        rows.push(UNATTRIBUTED.to_string());
        CostMatrix { rows, matrix }
    }

    /// Row labels (transaction types, then [`UNATTRIBUTED`]).
    pub fn row_names(&self) -> &[String] {
        &self.rows
    }

    /// Column label for index `c`.
    pub fn col_name(c: usize) -> &'static str {
        if c < PHASES {
            Phase::ALL[c].name()
        } else {
            UNPHASED
        }
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &AttrMatrix {
        &self.matrix
    }

    /// Sum of every cell — the run's whole attributed cost.
    pub fn total(&self) -> AttrCell {
        self.matrix.total()
    }

    /// Per-column (phase) totals across all rows.
    pub fn col_total(&self, c: usize) -> AttrCell {
        self.matrix.col_total(c)
    }

    /// Fold another worker's matrix into this one. Row labels must
    /// match (same workload).
    pub fn merge(&mut self, other: &CostMatrix) {
        assert_eq!(self.rows, other.rows, "txn type mismatch");
        self.matrix.merge(&other.matrix);
    }

    /// Render as folded stacks: one `prefix;txn_type;phase ns` line per
    /// non-empty cell, virtual nanoseconds as the sample value. The
    /// output feeds directly into `flamegraph.pl` / inferno.
    pub fn folded(&self, prefix: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (r, name) in self.rows.iter().enumerate() {
            for c in 0..self.matrix.cols() {
                let cell = self.matrix.cell(r, c);
                if cell.ns > 0 {
                    let _ = writeln!(out, "{prefix};{name};{} {}", Self::col_name(c), cell.ns);
                }
            }
        }
        out
    }

    /// The `phase_cost` JSON section of a run report: row objects
    /// keyed by transaction type, each mapping phase names to non-empty
    /// cost cells, plus the per-phase and grand totals.
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .enumerate()
            .map(|(r, name)| {
                let cells: Vec<(String, Value)> = (0..self.matrix.cols())
                    .filter(|&c| !self.matrix.cell(r, c).is_zero())
                    .map(|c| {
                        (
                            Self::col_name(c).to_string(),
                            cell_json(self.matrix.cell(r, c)),
                        )
                    })
                    .collect();
                json!({
                    "txn_type": name.as_str(),
                    "cells": Value::Object(cells),
                })
            })
            .collect();
        let phases: Vec<(String, Value)> = (0..self.matrix.cols())
            .map(|c| {
                (
                    Self::col_name(c).to_string(),
                    cell_json(&self.matrix.col_total(c)),
                )
            })
            .collect();
        json!({
            "rows": Value::Array(rows),
            "phase_totals": Value::Object(phases),
            "total": cell_json(&self.total()),
        })
    }
}

/// The device-event fields of one cell, in report order. `cell_json`
/// omits zero-valued fields — sparse matrices dominate and the schema
/// treats absence as zero.
fn cell_fields(s: &ThreadStats) -> [(&'static str, u64); 13] {
    [
        ("accesses", s.accesses),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("fills_from_xpbuffer", s.fills_from_xpbuffer),
        ("evictions", s.evictions),
        ("clwb_writebacks", s.clwb_writebacks),
        ("clwb_issued", s.clwb_issued),
        ("sfences", s.sfences),
        ("media_block_writes", s.media_block_writes),
        ("media_rmw", s.media_rmw),
        ("media_fill_reads", s.media_fill_reads),
        ("sfence_wait_ns", s.sfence_wait_ns),
        ("dram_accesses", s.dram_accesses),
    ]
}

fn cell_json(cell: &AttrCell) -> Value {
    let mut obj: Vec<(String, Value)> = vec![("ns".to_string(), Value::from(cell.ns))];
    for (name, v) in cell_fields(&cell.stats) {
        if v != 0 {
            obj.push((name.to_string(), Value::from(v)));
        }
    }
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostMatrix {
        let mut m = AttrMatrix::new(3, COST_COLS);
        m.cell_mut(0, Phase::LogAppend as usize).ns = 100;
        m.cell_mut(0, Phase::LogAppend as usize).stats.sfences = 2;
        m.cell_mut(1, PHASES).ns = 40; // read txn, unphased work
        m.cell_mut(2, Phase::DataFlush as usize).ns = 7; // unattributed
        CostMatrix::from_matrix(&["update", "read"], m)
    }

    #[test]
    fn labels_and_totals() {
        let c = sample();
        assert_eq!(c.row_names(), &["update", "read", UNATTRIBUTED]);
        assert_eq!(CostMatrix::col_name(PHASES), UNPHASED);
        assert_eq!(c.total().ns, 147);
        assert_eq!(c.col_total(Phase::LogAppend as usize).stats.sfences, 2);
    }

    #[test]
    fn folded_lines() {
        let f = sample().folded("ycsb_a");
        let lines: Vec<&str> = f.lines().collect();
        assert_eq!(
            lines,
            vec![
                "ycsb_a;update;log_append 100",
                "ycsb_a;read;unphased 40",
                "ycsb_a;unattributed;data_flush 7",
            ]
        );
    }

    #[test]
    fn merge_requires_matching_types() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total().ns, 294);
    }

    #[test]
    fn json_omits_zero_cells() {
        let v = sample().to_json();
        let s = serde_json::to_string_pretty(&v).unwrap();
        assert!(s.contains("\"phase_totals\""));
        assert!(s.contains("\"log_append\""));
        // The update row accrued nothing in cc_validate, so its cells
        // object must not mention that phase.
        assert!(!s.contains("\"cc_validate\": {\n          \"ns\": 0"));
    }
}
