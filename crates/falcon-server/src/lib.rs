#![warn(missing_docs)]

//! Overload-safe serving layer for the Falcon reproduction.
//!
//! The crate wraps the single-node engine in a TCP server speaking a
//! length-prefixed pipelined wire protocol ([`proto`]), with the
//! robustness surface an OLTP front end needs:
//!
//! * **Group commit** — transactions from many connections stamp their
//!   commit records without fencing ([`EngineConfig::group_commit`]);
//!   one `sfence` per batch then covers them all, and acknowledgements
//!   are only released *after* that fence, so an acked response always
//!   implies a durable transaction.
//! * **Typed backpressure** — a hard admission cap sheds with an
//!   `Overloaded` response (never a silent drop), and a bounded
//!   per-connection in-flight window stops reading from a connection
//!   that is too far ahead, pushing back through TCP itself.
//! * **Timeout discipline** — per-connection read/write timeouts and
//!   idle reaping bound the damage any slow or vanished peer can do.
//! * **Deterministic retry** — transient engine errors retry under the
//!   shared capped jittered-backoff [`RetryPolicy`]; an exhausted
//!   budget becomes a typed `RetryExhausted` response.
//! * **Graceful drain** — on `DRAIN` the server stops accepting,
//!   flushes the group-commit queue, checkpoints, and exits cleanly.
//!
//! One sans-I/O state machine, [`commit::GroupCommitter`], executes
//! every request and decides every fence; the TCP server's engine
//! thread and the [`sim`] module's virtual-clock loop are both thin
//! drivers around it. The simulator gives bit-identical benchmark
//! numbers and is the workload of falcon-chaos's `falcon-serve` spec:
//! power cut inside the group-commit fence bracket, recover, and check
//! that every acked transaction survived and every unacked one is
//! all-or-nothing — proven for the object that serves TCP. The
//! [`netfault`] module injects seeded client-side network misbehaviour
//! (connection reset mid-request, partial write then stall, slow-loris
//! trickle, vanish mid-batch) against the live server. See DESIGN.md
//! §15.
//!
//! [`EngineConfig::group_commit`]: falcon_core::EngineConfig
//! [`RetryPolicy`]: falcon_core::RetryPolicy

pub mod client;
pub mod commit;
pub mod config;
pub mod netfault;
pub mod proto;
pub mod server;
pub mod sim;
pub mod store;

pub use commit::DrainReport;
pub use config::ServerConfig;
pub use server::{serve, ServerHandle};
