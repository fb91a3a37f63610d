#![warn(missing_docs)]

//! # Falcon — a fast OLTP engine for persistent cache and NVM
//!
//! Reproduction of *Falcon: Fast OLTP Engine for Persistent Cache and
//! Non-Volatile Memory* (SOSP '23) on a simulated eADR/NVM substrate.
//!
//! This crate re-exports the public API of the workspace:
//!
//! * [`sim`] — the simulated NVM device with a persistent (eADR) or
//!   volatile (ADR) CPU cache, XPBuffer write-combining, virtual-time
//!   cost model, and crash injection.
//! * [`storage`] — NVM space management: pages, tuple heaps, persistent
//!   delete lists, catalog.
//! * [`index`] — Dash-style NVM hash, NBTree-style NVM B+tree, DRAM
//!   variants.
//! * [`engine`] — the Falcon engine and every baseline it is evaluated
//!   against (Inp, Outp, ZenS, and the flush/window ablations), with
//!   2PL/TO/OCC and their multi-version forms, recovery and GC.
//! * [`workloads`] — TPC-C and YCSB plus the virtual-time measurement
//!   harness.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction index.

pub use falcon_core as engine;
pub use falcon_index as index;
pub use falcon_storage as storage;
pub use falcon_wl as workloads;
pub use pmem_sim as sim;

/// Engine observability: counters, phase histograms, and the
/// structured run reporter.
pub use falcon_obs as obs;

pub use falcon_core::table::{IndexKind, TableDef};
pub use falcon_core::{
    recover, CcAlgo, Engine, EngineConfig, EngineError, RecoveryReport, TxnError, Worker,
};
pub use pmem_sim::{MemCtx, PAddr, PersistDomain, PmemDevice, SimConfig};
