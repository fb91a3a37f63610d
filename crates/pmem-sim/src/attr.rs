//! Cost attribution: charging device events to (row, column) buckets.
//!
//! The engine above this crate wants to know not just *how many* clwbs,
//! fences and media writes a run issued, but *which transaction type and
//! which execution phase* paid for each of them. Instrumenting every
//! counter increment in the device would be invasive and slow; instead
//! the [`crate::MemCtx`] keeps a snapshot *mark* of its [`ThreadStats`]
//! and virtual clock, and at every phase boundary the delta since the
//! mark is charged to the currently selected column. Hot-path device
//! code is untouched — attribution costs a handful of u64 subtractions
//! per phase transition that saw any activity, nothing for one that saw
//! none, and a single `Option` check when disabled.
//!
//! Rows and columns are plain indices here; the caller assigns meaning
//! (rows = transaction types, columns = phases). By convention the
//! *last* row and *last* column are catch-alls ("unattributed" /
//! "unphased"): deltas accrued outside any phase land in the last
//! column, and [`crate::MemCtx::attr_take`] folds any un-folded pending
//! work into the last row, so the matrix total always equals exactly
//! what the thread's [`ThreadStats`] counted while attribution was
//! active.

use core::ops::AddAssign;

use crate::stats::ThreadStats;

/// One attribution bucket: device-event count deltas plus the virtual
/// nanoseconds spent while those events accrued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttrCell {
    /// Device-event counter deltas charged to this bucket.
    pub stats: ThreadStats,
    /// Virtual nanoseconds charged to this bucket.
    pub ns: u64,
}

impl AddAssign for AttrCell {
    fn add_assign(&mut self, o: Self) {
        self.stats += o.stats;
        self.ns += o.ns;
    }
}

impl AttrCell {
    /// True if nothing has been charged to this cell.
    pub fn is_zero(&self) -> bool {
        *self == AttrCell::default()
    }
}

/// A dense row-major matrix of [`AttrCell`]s.
///
/// Produced by [`crate::MemCtx::attr_take`]; merged across worker
/// threads by the harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttrMatrix {
    rows: usize,
    cols: usize,
    cells: Vec<AttrCell>,
}

impl AttrMatrix {
    /// A zeroed `rows` × `cols` matrix. Both dimensions must be ≥ 1
    /// (the last row/column are the catch-all buckets).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows >= 1 && cols >= 1,
            "attribution matrix needs catch-all buckets"
        );
        AttrMatrix {
            rows,
            cols,
            cells: vec![AttrCell::default(); rows * cols],
        }
    }

    /// Number of rows (transaction types + 1 catch-all, by convention).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (phases + 1 catch-all, by convention).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cell at (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> &AttrCell {
        &self.cells[row * self.cols + col]
    }

    /// Mutable cell at (`row`, `col`).
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut AttrCell {
        &mut self.cells[row * self.cols + col]
    }

    /// Sum of one row across all columns.
    pub fn row_total(&self, row: usize) -> AttrCell {
        let mut t = AttrCell::default();
        for c in 0..self.cols {
            t += *self.cell(row, c);
        }
        t
    }

    /// Sum of one column across all rows.
    pub fn col_total(&self, col: usize) -> AttrCell {
        let mut t = AttrCell::default();
        for r in 0..self.rows {
            t += *self.cell(r, col);
        }
        t
    }

    /// Sum of every cell.
    pub fn total(&self) -> AttrCell {
        let mut t = AttrCell::default();
        for cell in &self.cells {
            t += *cell;
        }
        t
    }

    /// Fold another matrix (same shape) into this one cell-wise.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn merge(&mut self, other: &AttrMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "attribution matrix shape mismatch"
        );
        for (a, b) in self.cells.iter_mut().zip(other.cells.iter()) {
            *a += *b;
        }
    }
}

/// Live attribution state carried inside a [`crate::MemCtx`].
///
/// `pending` holds one cell per column for the *current attempt*; the
/// caller folds it into a matrix row once the attempt's row (the
/// transaction type) is known. `mark_*` snapshot the thread counters at
/// the last phase boundary.
///
/// This runs on every transaction of every build, so both operations
/// do work only for what moved: `flush` returns at once when neither
/// the clock nor a counter changed since the mark, and `fold` visits
/// only the columns `flush` charged since the last fold (`touched`, one
/// bit per column) instead of comparing every pending cell with zero.
#[derive(Debug, Clone)]
pub(crate) struct AttrState {
    pub(crate) matrix: AttrMatrix,
    pending: Vec<AttrCell>,
    /// Bit `c` is set iff `pending[c]` was charged since the last fold.
    touched: u64,
    /// Currently selected column (defaults to the last, "unphased").
    pub(crate) cur: usize,
    mark_stats: ThreadStats,
    mark_clock: u64,
}

impl AttrState {
    pub(crate) fn new(rows: usize, cols: usize, stats: ThreadStats, clock: u64) -> Self {
        assert!(
            cols <= u64::BITS as usize,
            "attribution tracks touched columns in one u64"
        );
        AttrState {
            matrix: AttrMatrix::new(rows, cols),
            pending: vec![AttrCell::default(); cols],
            touched: 0,
            cur: cols - 1,
            mark_stats: stats,
            mark_clock: clock,
        }
    }

    /// Charge the delta since the last mark to the current column and
    /// advance the mark.
    pub(crate) fn flush(&mut self, stats: &ThreadStats, clock: u64) {
        if clock == self.mark_clock && *stats == self.mark_stats {
            return;
        }
        let mut delta = *stats;
        delta -= self.mark_stats;
        let cell = &mut self.pending[self.cur];
        cell.stats += delta;
        cell.ns += clock - self.mark_clock;
        self.touched |= 1 << self.cur;
        self.mark_stats = *stats;
        self.mark_clock = clock;
    }

    /// Fold the pending per-column cells into matrix row `row`.
    pub(crate) fn fold(&mut self, row: usize) {
        let mut touched = core::mem::take(&mut self.touched);
        while touched != 0 {
            let col = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            *self.matrix.cell_mut(row, col) += core::mem::take(&mut self.pending[col]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle for [`AttrState`]: charge the delta unconditionally at
    /// every flush, scan every pending column at every fold.
    struct Reference {
        matrix: AttrMatrix,
        pending: Vec<AttrCell>,
        cur: usize,
        mark_stats: ThreadStats,
        mark_clock: u64,
    }

    impl Reference {
        fn flush(&mut self, stats: &ThreadStats, clock: u64) {
            let mut delta = *stats;
            delta -= self.mark_stats;
            self.pending[self.cur] += AttrCell {
                stats: delta,
                ns: clock - self.mark_clock,
            };
            self.mark_stats = *stats;
            self.mark_clock = clock;
        }

        fn fold(&mut self, row: usize) {
            for (col, cell) in self.pending.iter_mut().enumerate() {
                if !cell.is_zero() {
                    *self.matrix.cell_mut(row, col) += *cell;
                    *cell = AttrCell::default();
                }
            }
        }
    }

    /// Random phase switches, folds and counter activity (including
    /// switches and folds with no activity between them, clock-only and
    /// counter-only steps) must leave the shipped state and the oracle
    /// with identical matrices, cell for cell, at every fold.
    #[test]
    fn flush_and_fold_match_the_reference_on_random_sequences() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.random_range(1..=4usize);
            let cols = rng.random_range(1..=9usize);
            let mut stats = ThreadStats {
                sfences: seed,
                ..Default::default()
            };
            let mut clock = 1_000 + seed;
            let mut st = AttrState::new(rows, cols, stats, clock);
            let mut oracle = Reference {
                matrix: AttrMatrix::new(rows, cols),
                pending: vec![AttrCell::default(); cols],
                cur: cols - 1,
                mark_stats: stats,
                mark_clock: clock,
            };
            for _ in 0..400 {
                match rng.random_range(0..8u32) {
                    // Device activity: some counters, usually the clock.
                    0..=2 => {
                        let fields = [
                            &mut stats.accesses,
                            &mut stats.cache_hits,
                            &mut stats.cache_misses,
                            &mut stats.fills_from_xpbuffer,
                            &mut stats.evictions,
                            &mut stats.clwb_writebacks,
                            &mut stats.clwb_issued,
                            &mut stats.sfences,
                            &mut stats.media_block_writes,
                            &mut stats.media_rmw,
                            &mut stats.media_fill_reads,
                            &mut stats.sfence_wait_ns,
                            &mut stats.dram_accesses,
                        ];
                        for f in fields {
                            if rng.random_range(0..4u32) == 0 {
                                *f += rng.random_range(1..50u64);
                            }
                        }
                        if rng.random_range(0..4u32) != 0 {
                            clock += rng.random_range(1..500u64);
                        }
                    }
                    // Clock only (backoff, CPU charge).
                    3 => clock += rng.random_range(1..500u64),
                    // Phase switch, possibly to the current column.
                    4..=6 => {
                        let col = rng.random_range(0..cols);
                        if col != st.cur {
                            st.flush(&stats, clock);
                            st.cur = col;
                        }
                        if col != oracle.cur {
                            oracle.flush(&stats, clock);
                            oracle.cur = col;
                        }
                    }
                    _ => {
                        let row = rng.random_range(0..rows);
                        st.flush(&stats, clock);
                        st.fold(row);
                        oracle.flush(&stats, clock);
                        oracle.fold(row);
                        assert_eq!(st.matrix, oracle.matrix, "seed {seed}");
                        assert!(st.pending.iter().all(AttrCell::is_zero));
                    }
                }
            }
            st.flush(&stats, clock);
            st.fold(rows - 1);
            oracle.flush(&stats, clock);
            oracle.fold(rows - 1);
            assert_eq!(st.matrix, oracle.matrix, "seed {seed}");
        }
    }

    fn cell(ns: u64, sfences: u64) -> AttrCell {
        AttrCell {
            stats: ThreadStats {
                sfences,
                ..Default::default()
            },
            ns,
        }
    }

    #[test]
    fn matrix_totals() {
        let mut m = AttrMatrix::new(2, 3);
        *m.cell_mut(0, 1) = cell(10, 1);
        *m.cell_mut(1, 2) = cell(5, 2);
        assert_eq!(m.row_total(0).ns, 10);
        assert_eq!(m.col_total(2).ns, 5);
        assert_eq!(m.total().ns, 15);
        assert_eq!(m.total().stats.sfences, 3);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = AttrMatrix::new(2, 2);
        let mut b = AttrMatrix::new(2, 2);
        *a.cell_mut(0, 0) = cell(1, 1);
        *b.cell_mut(0, 0) = cell(2, 0);
        *b.cell_mut(1, 1) = cell(4, 4);
        a.merge(&b);
        assert_eq!(a.cell(0, 0).ns, 3);
        assert_eq!(a.cell(1, 1).ns, 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = AttrMatrix::new(2, 2);
        a.merge(&AttrMatrix::new(2, 3));
    }

    #[test]
    fn flush_charges_delta_to_current_column() {
        let mut stats = ThreadStats::default();
        let mut st = AttrState::new(2, 3, stats, 100);
        stats.sfences = 4;
        st.cur = 1;
        st.flush(&stats, 250);
        assert_eq!(st.pending[1].stats.sfences, 4);
        assert_eq!(st.pending[1].ns, 150);
        // Mark advanced: a second flush with no activity charges nothing.
        st.flush(&stats, 250);
        assert_eq!(st.pending[1].stats.sfences, 4);
        st.fold(0);
        assert_eq!(st.matrix.cell(0, 1).stats.sfences, 4);
        assert!(st.pending.iter().all(AttrCell::is_zero));
    }
}
