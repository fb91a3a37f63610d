//! Event tracing for persistency-order and concurrency checking.
//!
//! The device can record a globally ordered stream of memory events —
//! stores, `clwb`s, fences, evictions and crash/quiesce markers — plus
//! *engine-level hint events* that an OLTP engine emits through
//! [`PmemDevice::trace_emit`]: transaction boundaries, log-window
//! ranges, commit records and durable-intent ranges. The `falcon-check`
//! crate consumes the merged trace and checks pmemcheck-style
//! persistency-order rules over it; the `falcon-race` crate consumes the
//! same trace recorded in race mode and runs vector-clock
//! happens-before analysis over it.
//!
//! # One code path, one build choice
//!
//! The event types here ([`Event`], [`AtomicKind`], [`MemOrder`],
//! [`DRAM_SPACE`]) and the emission helpers on [`PmemDevice`]
//! (`trace_emit`, `trace_atomic`, `trace_racing`) exist in every build,
//! so every emission site in the device and the engine is written once.
//! Only the recorder is a build choice: the `trace` feature adds
//! `TraceMode`, `Stamp`, `Trace` and `PmemDevice::{trace_start,
//! trace_start_race, trace_take}`. Without it the helpers are
//! `#[inline(always)]` no-ops that run the traced operation and never
//! build an event, because compiling the recorder in costs measurable
//! host time on the hot paths (DESIGN.md §12). A test that analyses a
//! trace cannot compile without a recorder, so it can never pass on an
//! empty one.
//!
//! With the recorder compiled in, recording is inert until
//! `trace_start` (or `trace_start_race`) is called: every emission
//! site checks one relaxed atomic and returns.
//!
//! # Two recording modes
//!
//! * Persist mode is the original single-purpose stream for
//!   `falcon-check`: only persistence-relevant events (stores, flushes,
//!   fences, engine hints) are recorded, exactly as before the race
//!   plane existed. Existing R1–R4 verdicts are bit-for-bit stable.
//! * Race mode additionally records plain loads, the *kind and memory
//!   ordering* of every atomic access ([`Event::AtomicOp`]), and lock
//!   acquire/release edges — everything a happens-before analyzer
//!   needs. Atomic accesses are serialized with their emission under
//!   one mutex so the merged stream is a true linearization: the stamp
//!   order of two atomic ops equals their memory-effect order.
//!
//! # Stamps: global epoch + per-thread sequence
//!
//! Every recorded event carries a stamp: a *global epoch* (`gseq`, one
//! shared counter — the merge key) and a *per-thread sequence* (`tseq`,
//! strictly increasing along each thread's own subsequence). The
//! per-thread sequence makes program order recoverable from a merged
//! multi-threaded stream even if the global counter ever changes
//! granularity, and lets checkers assert they were handed an undamaged
//! stream (`Trace::validate_stamps`).
//!
//! [`PmemDevice`]: crate::PmemDevice
//! [`PmemDevice::trace_emit`]: crate::PmemDevice::trace_emit

#[cfg(feature = "trace")]
pub(crate) mod recorder;
#[cfg(feature = "trace")]
pub use recorder::{Stamp, Trace, TraceMode};

/// Synthetic address space for engine-resident DRAM state (Met-Cache
/// cells, counters) traced via [`Event::AtomicOp`]. DRAM addresses are
/// offset into this space so they can never collide with device (NVM)
/// byte addresses, which are bounded by the device capacity.
pub const DRAM_SPACE: u64 = 1 << 62;

/// What a traced atomic access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// Atomic read.
    Load,
    /// Atomic write.
    Store,
    /// Atomic read-modify-write (CAS, fetch-add, swap...). A failed CAS
    /// is traced as [`AtomicKind::Load`] — it has no store part.
    Rmw,
}

/// Memory ordering of a traced atomic access (mirrors
/// [`std::sync::atomic::Ordering`], minus `Consume`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrder {
    /// No synchronization edge.
    Relaxed,
    /// Acquire: joins the clock published by the release that wrote the
    /// value read.
    Acquire,
    /// Release: publishes the issuing thread's clock with the store.
    Release,
    /// Acquire + release (RMW only).
    AcqRel,
    /// Sequentially consistent (acquire + release + total order).
    SeqCst,
}

impl MemOrder {
    /// Whether this ordering has acquire semantics on a load/RMW.
    #[must_use]
    pub fn is_acquire(self) -> bool {
        matches!(
            self,
            MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }

    /// Whether this ordering has release semantics on a store/RMW.
    #[must_use]
    pub fn is_release(self) -> bool {
        matches!(
            self,
            MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }
}

/// One recorded event.
///
/// The first group is emitted by the device itself; the `TxnBegin` /
/// `TxnCommit` / `LogRange` / `CommitRecord` / `DurableHint` group is
/// emitted by the engine through [`crate::PmemDevice::trace_emit`] to
/// give the checker the semantic context the raw memory stream lacks.
/// The `Load` / `AtomicOp` / `LockAcquire` / `LockRelease` group only
/// appears in race-mode recordings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A plain (non-atomic) store of `len` bytes at byte address `addr`
    /// (`write` or `zero`; in persist mode also atomic
    /// stores/RMWs, which that mode does not distinguish).
    Store {
        /// Issuing worker thread.
        thread: usize,
        /// Byte address of the first byte stored.
        addr: u64,
        /// Number of bytes stored.
        len: u64,
    },
    /// A plain (non-atomic) load of `len` bytes at `addr`. Recorded in
    /// race mode only.
    Load {
        /// Issuing worker thread.
        thread: usize,
        /// Byte address of the first byte read.
        addr: u64,
        /// Number of bytes read.
        len: u64,
    },
    /// An atomic access (8 bytes at `addr`) with its kind and memory
    /// ordering. Recorded in race mode only; device-level
    /// atomic ops are serialized with their emission, so the merged
    /// stamp order of `AtomicOp` events at one address is exactly their
    /// memory-effect (linearization) order.
    AtomicOp {
        /// Issuing worker thread.
        thread: usize,
        /// Byte address of the 8-byte cell (device address, or a
        /// [`DRAM_SPACE`]-offset synthetic address for engine DRAM
        /// state).
        addr: u64,
        /// Load, store or read-modify-write.
        kind: AtomicKind,
        /// Memory ordering of the access.
        order: MemOrder,
    },
    /// Thread `thread` acquired lock `lock`. Recorded in
    /// race mode only.
    LockAcquire {
        /// Acquiring thread.
        thread: usize,
        /// Opaque lock identity (engine-chosen; must be stable).
        lock: u64,
        /// Exclusive (write) acquisition; `false` = shared (read).
        excl: bool,
    },
    /// Thread `thread` released lock `lock`. Recorded in
    /// race mode only.
    LockRelease {
        /// Releasing thread.
        thread: usize,
        /// Opaque lock identity.
        lock: u64,
        /// Exclusive (write) release; `false` = shared (read).
        excl: bool,
    },
    /// A `clwb` of cache line `line` (line index, i.e. `addr / 64`).
    Clwb {
        /// Issuing worker thread.
        thread: usize,
        /// Cache-line index.
        line: u64,
        /// Whether the line was dirty (the `clwb` actually wrote back).
        dirty: bool,
    },
    /// An LRU eviction wrote dirty line `line` back to the media.
    Evict {
        /// Thread whose access triggered the eviction.
        thread: usize,
        /// Cache-line index of the victim.
        line: u64,
    },
    /// An `sfence` (drains the issuing thread's outstanding `clwb`s in
    /// ADR mode).
    Sfence {
        /// Issuing worker thread.
        thread: usize,
    },
    /// The XPBuffer (and cache) were drained charge-free
    /// ([`crate::PmemDevice::quiesce`]): everything dirty reached the
    /// media.
    DrainXpb,
    /// A simulated power failure ([`crate::PmemDevice::crash`]).
    CrashMark,
    /// A transaction began on `thread` with transaction id `tid`.
    TxnBegin {
        /// Owning worker thread.
        thread: usize,
        /// Transaction id.
        tid: u64,
    },
    /// The transaction's durability point: its commit record is (claimed
    /// to be) durable from here on.
    TxnCommit {
        /// Owning worker thread.
        thread: usize,
        /// Transaction id.
        tid: u64,
    },
    /// `[addr, addr+len)` belongs to the current transaction's log
    /// window (rule R1 checks these lines are durable at commit).
    LogRange {
        /// Owning worker thread.
        thread: usize,
        /// First byte of the range.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
    /// The 8-byte commit-record store at `addr` is about to be issued
    /// (rule R3 checks it is fenced after the log-range stores; rule R5
    /// checks no other thread observes it before the log is durable).
    CommitRecord {
        /// Owning worker thread.
        thread: usize,
        /// Byte address of the commit-state word.
        addr: u64,
    },
    /// The engine intends `[addr, addr+len)` to be durable and will
    /// flush it (rule R2 checks the flush actually covers the range
    /// before the transaction commits).
    DurableHint {
        /// Owning worker thread.
        thread: usize,
        /// First byte of the range.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
}

impl Event {
    /// The worker thread an event is attributed to (0 for global
    /// markers).
    #[must_use]
    pub fn thread(&self) -> usize {
        match *self {
            Event::Store { thread, .. }
            | Event::Load { thread, .. }
            | Event::AtomicOp { thread, .. }
            | Event::LockAcquire { thread, .. }
            | Event::LockRelease { thread, .. }
            | Event::Clwb { thread, .. }
            | Event::Evict { thread, .. }
            | Event::Sfence { thread }
            | Event::TxnBegin { thread, .. }
            | Event::TxnCommit { thread, .. }
            | Event::LogRange { thread, .. }
            | Event::CommitRecord { thread, .. }
            | Event::DurableHint { thread, .. } => thread,
            Event::DrainXpb | Event::CrashMark => 0,
        }
    }

    /// Project a race-mode event to its persist-mode equivalent:
    /// `AtomicOp` stores/RMWs become the 8-byte [`Event::Store`] that
    /// persist mode would have recorded; race-only events
    /// (loads, atomic loads, lock edges) vanish. Everything else is
    /// unchanged.
    #[must_use]
    pub fn persist_equivalent(&self) -> Option<Event> {
        match *self {
            Event::AtomicOp {
                thread, addr, kind, ..
            } => match kind {
                AtomicKind::Store | AtomicKind::Rmw => Some(Event::Store {
                    thread,
                    addr,
                    len: 8,
                }),
                AtomicKind::Load => None,
            },
            Event::Load { .. } | Event::LockAcquire { .. } | Event::LockRelease { .. } => None,
            ev => Some(ev),
        }
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::recorder::TraceSink;
    use super::*;
    use crate::config::PersistDomain;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new();
        sink.emit(Event::Sfence { thread: 0 });
        assert!(sink.stop().0.is_empty());
    }

    #[test]
    fn events_merge_in_sequence_order() {
        let sink = TraceSink::new();
        sink.start(TraceMode::Persist);
        // Different threads land in different shards; the merge must
        // restore global order.
        sink.emit(Event::Sfence { thread: 0 });
        sink.emit(Event::Sfence { thread: 1 });
        sink.emit(Event::Store {
            thread: 0,
            addr: 64,
            len: 8,
        });
        let (evs, stamps) = sink.stop();
        assert_eq!(
            evs,
            vec![
                Event::Sfence { thread: 0 },
                Event::Sfence { thread: 1 },
                Event::Store {
                    thread: 0,
                    addr: 64,
                    len: 8
                },
            ]
        );
        // Global epochs 0,1,2; thread 0's subsequence is tseq 0,1 and
        // thread 1's is tseq 0.
        assert_eq!(stamps.iter().map(|s| s.gseq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(stamps.iter().map(|s| s.tseq).collect::<Vec<_>>(), [0, 0, 1]);
    }

    #[test]
    fn start_clears_previous_recording() {
        let sink = TraceSink::new();
        sink.start(TraceMode::Persist);
        sink.emit(Event::Sfence { thread: 0 });
        sink.start(TraceMode::Race);
        sink.emit(Event::CrashMark);
        assert_eq!(sink.mode(), TraceMode::Race);
        let (evs, stamps) = sink.stop();
        assert_eq!(evs, vec![Event::CrashMark]);
        assert_eq!(stamps, vec![Stamp { gseq: 0, tseq: 0 }]);
    }

    #[test]
    fn stamp_validation_catches_damage() {
        let sink = TraceSink::new();
        sink.start(TraceMode::Persist);
        sink.emit(Event::Sfence { thread: 0 });
        sink.emit(Event::Sfence { thread: 1 });
        sink.emit(Event::Sfence { thread: 0 });
        let (events, stamps) = sink.stop();
        let mut tr = Trace {
            domain: PersistDomain::Adr,
            mode: TraceMode::Persist,
            events,
            stamps,
        };
        tr.validate_stamps().expect("healthy stamps validate");
        // Swapping two events breaks the global epoch order.
        tr.events.swap(0, 2);
        tr.stamps.swap(0, 2);
        assert!(tr.validate_stamps().is_err());
    }

    #[test]
    fn persist_view_projects_race_events() {
        let race = Trace {
            domain: PersistDomain::Adr,
            mode: TraceMode::Race,
            events: vec![
                Event::AtomicOp {
                    thread: 1,
                    addr: 128,
                    kind: AtomicKind::Rmw,
                    order: MemOrder::SeqCst,
                },
                Event::Load {
                    thread: 0,
                    addr: 0,
                    len: 8,
                },
                Event::AtomicOp {
                    thread: 0,
                    addr: 8,
                    kind: AtomicKind::Load,
                    order: MemOrder::Acquire,
                },
                Event::LockAcquire {
                    thread: 0,
                    lock: 7,
                    excl: true,
                },
                Event::Store {
                    thread: 0,
                    addr: 64,
                    len: 16,
                },
                Event::LockRelease {
                    thread: 0,
                    lock: 7,
                    excl: true,
                },
            ],
            stamps: (0..6).map(|i| Stamp { gseq: i, tseq: i }).collect(),
        };
        let view = race.persist_view();
        assert_eq!(view.mode, TraceMode::Persist);
        assert_eq!(
            view.events,
            vec![
                Event::Store {
                    thread: 1,
                    addr: 128,
                    len: 8
                },
                Event::Store {
                    thread: 0,
                    addr: 64,
                    len: 16
                },
            ]
        );
        // Stamps follow the surviving events.
        assert_eq!(
            view.stamps.iter().map(|s| s.gseq).collect::<Vec<_>>(),
            [0, 4]
        );
    }
}
