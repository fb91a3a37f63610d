#![warn(missing_docs)]
// The engine holds no raw pointers: the Met-Cache hands out Arc'd
// atomic cells, everything else is safe Rust. Keep it that way.
#![forbid(unsafe_code)]

//! The Falcon OLTP engine (SOSP '23 reproduction).
//!
//! This crate implements the paper's primary contribution — the Falcon
//! engine with its **small log window** (D1) and **selective data
//! flush** (D2) designs — together with every engine it is evaluated
//! against: the pure in-place baseline (Inp) with a conventional NVM
//! log, the pure out-of-place engine (Outp), the re-implemented Zen
//! storage engine (ZenS, with DRAM index + DRAM tuple cache +
//! Met-Cache), and the flush/window/hot-tracking ablations of Figure 10.
//!
//! All engines share the same tuple-heap substrate ([`falcon_storage`])
//! and run on the simulated eADR/NVM device ([`pmem_sim`]); an engine
//! variant is a point in [`config::EngineConfig`] space.
//!
//! # Example
//!
//! ```
//! use falcon_core::{Engine, EngineConfig};
//! use falcon_core::table::{IndexKind, TableDef};
//! use falcon_storage::{ColType, Schema};
//! use pmem_sim::{PmemDevice, SimConfig};
//!
//! fn key(_schema: &Schema, row: &[u8]) -> u64 {
//!     u64::from_le_bytes(row[0..8].try_into().unwrap())
//! }
//!
//! let dev = PmemDevice::new(SimConfig::small().with_capacity(64 << 20)).unwrap();
//! let def = TableDef {
//!     schema: Schema::new("kv", &[("k", ColType::U64), ("v", ColType::U64)]),
//!     index_kind: IndexKind::Hash,
//!     capacity_hint: 1024,
//!     primary_key: key,
//!     secondary: None,
//! };
//! let engine = Engine::create(dev, EngineConfig::falcon().with_threads(1), &[def]).unwrap();
//! let mut w = engine.worker(0).unwrap();
//!
//! let mut row = [0u8; 16];
//! row[0..8].copy_from_slice(&1u64.to_le_bytes());
//! row[8..16].copy_from_slice(&10u64.to_le_bytes());
//!
//! let mut txn = engine.begin(&mut w, false);
//! txn.insert(0, &row).unwrap();
//! txn.commit().unwrap();
//!
//! let mut txn = engine.begin(&mut w, false);
//! assert_eq!(txn.read(0, 1).unwrap(), row);
//! txn.commit().unwrap();
//! ```

pub mod checkpoint;
pub mod config;
pub mod crc;
pub mod engine;
pub mod error;
pub mod hot;
pub mod logwindow;
pub mod meta;
pub mod recovery;
pub mod retry;
pub mod table;
pub mod tid;
pub mod tuplecache;
pub mod txn;
pub mod versions;

pub use config::{CcAlgo, EngineConfig, FlushPolicy, IndexLocation, LogPolicy, UpdateStrategy};
pub use engine::{device_capacity_for, Engine, Worker};
pub use error::{EngineError, TxnError};
pub use recovery::{recover, RecoveryReport};
pub use retry::RetryPolicy;
pub use table::{IndexKind, TableDef};
pub use txn::Txn;
