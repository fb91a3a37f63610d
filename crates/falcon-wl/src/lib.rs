#![warn(missing_docs)]

//! Workloads and the measurement harness for the Falcon reproduction.
//!
//! * [`zipf`] — the YCSB Zipfian generator (θ = 0.99 by default).
//! * [`ycsb`] — YCSB with 1 KB ten-column tuples, workloads A–F,
//!   Uniform and Zipfian request distributions; the paper's
//!   configuration updates *all* fields of a tuple (§6.1).
//! * [`tpcc`] — TPC-C: nine tables, five transaction types with the
//!   standard 45/43/4/4/4 mix, NURand, customer-by-last-name secondary
//!   index, order/new-order/order-line range scans. Cardinalities are
//!   scaled (configurable) so the workload fits a laptop-scale simulated
//!   device; EXPERIMENTS.md records the scales used per figure.
//! * [`harness`] — runs a [`Workload`] on N logical worker threads with
//!   quantum-paced virtual clocks and reports throughput (virtual
//!   MTxn/s), per-type latency (avg + p95), abort rates, and device
//!   statistics.

pub mod harness;
pub mod tpcc;
pub mod ycsb;
pub mod zipf;

pub use harness::{run, RunConfig, RunResult, Workload};
pub use tpcc::{Tpcc, TpccScale};
pub use ycsb::{Dist, Ycsb, YcsbConfig, YcsbWorkload};
