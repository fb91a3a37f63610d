#![warn(missing_docs)]

//! Simulated non-volatile memory with a persistent CPU cache.
//!
//! This crate is the hardware substrate for the Falcon reproduction. The
//! paper evaluates on Intel Optane persistent memory with the CPU cache in
//! the persistence domain (eADR). Neither is available here, so this crate
//! provides a software model of the pieces whose behaviour the paper's
//! designs exploit:
//!
//! * a byte-addressable device ([`PmemDevice`]) with one image plus a
//!   durable overlay of the lines whose crash-surviving bytes differ from
//!   it, so that a simulated crash exposes exactly the bytes that reached
//!   the persistence domain;
//! * a set-associative write-back cache model ([`cache`]) whose dirty-line
//!   evictions are the only implicit path from CPU to media;
//! * an XPBuffer-style write-combining buffer ([`xpbuffer`]) that merges
//!   cache-line writebacks into 256 B media blocks and charges a
//!   read-modify-write penalty for partial blocks — the *granularity
//!   mismatch* of §3.2 of the paper;
//! * `clwb`/`sfence` modelling with per-thread outstanding-writeback
//!   queues, so the paper's `<sfence + clwbs>` ordering is meaningful;
//! * a virtual-time cost model ([`cost`]) and per-thread clocks
//!   ([`MemCtx`]), so throughput and latency are measured in simulated
//!   nanoseconds rather than host wall time;
//! * a quantum [`Pacer`] that keeps the virtual clocks of concurrent
//!   worker threads aligned, so lock conflicts overlap realistically even
//!   on a small host;
//! * a deterministic fault-injection plane ([`fault`]) that can cut power
//!   at an arbitrary device-event index, tear the tripping write at
//!   8-byte granularity, and flip media bits — all replayable from a
//!   seed, for chaos-testing crash recovery.
//!
//! # Example
//!
//! ```
//! use pmem_sim::{PmemDevice, SimConfig, MemCtx, PAddr};
//!
//! let dev = PmemDevice::new(SimConfig::small()).unwrap();
//! let mut ctx = MemCtx::new(0);
//! dev.write(PAddr(0), b"hello", &mut ctx);
//! let mut buf = [0u8; 5];
//! dev.read(PAddr(0), &mut buf, &mut ctx);
//! assert_eq!(&buf, b"hello");
//! assert!(ctx.clock > 0, "virtual time advanced");
//! ```

pub mod attr;
pub mod backing;
pub mod cache;
pub mod config;
pub mod cost;
pub mod ctx;
pub mod device;
pub mod fault;
pub mod pacer;
pub mod stats;
pub mod trace;
pub mod xpbuffer;

pub use attr::{AttrCell, AttrMatrix};
pub use config::{PersistDomain, SimConfig};
pub use cost::CostModel;
pub use ctx::MemCtx;
pub use device::PmemDevice;
pub use fault::{BitFlip, FaultOutcome, FaultPlan};
pub use pacer::Pacer;
pub use stats::{DeviceStats, ThreadStats};

/// Size of a CPU cache line in bytes (the unit of eviction and `clwb`).
pub const CACHE_LINE: u64 = 64;

/// Size of an NVM media block in bytes (the unit of a media write; Intel
/// Optane uses 256 B internally, which is the source of the granularity
/// mismatch the paper describes in §3.2).
pub const MEDIA_BLOCK: u64 = 256;

/// A physical address inside a [`PmemDevice`] (a byte offset from the
/// start of the simulated NVM space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

impl PAddr {
    /// Address of the cache line containing this byte.
    #[inline]
    pub fn line(self) -> u64 {
        self.0 / CACHE_LINE
    }

    /// Address of the media block containing this byte.
    #[inline]
    pub fn block(self) -> u64 {
        self.0 / MEDIA_BLOCK
    }

    /// Byte offset advanced by `n`.
    #[inline]
    #[allow(clippy::should_implement_trait)] // Offset arithmetic, not `Add<PAddr>`.
    pub fn add(self, n: u64) -> PAddr {
        PAddr(self.0 + n)
    }

    /// Whether the address is aligned to `align` bytes.
    #[inline]
    pub fn is_aligned(self, align: u64) -> bool {
        self.0.is_multiple_of(align)
    }
}

impl core::fmt::Display for PAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pm:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paddr_line_and_block() {
        assert_eq!(PAddr(0).line(), 0);
        assert_eq!(PAddr(63).line(), 0);
        assert_eq!(PAddr(64).line(), 1);
        assert_eq!(PAddr(255).block(), 0);
        assert_eq!(PAddr(256).block(), 1);
    }

    #[test]
    fn paddr_alignment() {
        assert!(PAddr(512).is_aligned(256));
        assert!(!PAddr(8).is_aligned(64));
        assert_eq!(PAddr(8).add(56).0, 64);
    }

    #[test]
    fn line_block_ratio() {
        // Four cache lines per media block: the granularity mismatch.
        assert_eq!(MEDIA_BLOCK / CACHE_LINE, 4);
    }
}
