//! The in-device event recorder (feature `trace`): the sink every
//! emission site writes into, and the [`Trace`] it hands back.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use super::Event;
use crate::config::PersistDomain;

/// What the recorder captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Persistence-relevant events only (the original `falcon-check`
    /// stream).
    #[default]
    Persist,
    /// Everything `Persist` records, plus plain loads, atomic access
    /// kind/ordering and lock edges, with atomic ops serialized against
    /// their emission (for `falcon-race`).
    Race,
}

/// Per-event ordering stamp: global epoch + per-thread sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Global epoch: one shared counter stamped at emission; the merge
    /// key for the global order.
    pub gseq: u64,
    /// Per-thread sequence: strictly increasing along the emitting
    /// thread's own subsequence of the stream.
    pub tseq: u64,
}

/// A recorded trace: the device's persistence domain, the recording
/// mode, and the globally ordered event stream with its stamps.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Persistence domain the device ran under (checker rules depend on
    /// it: under eADR the cache itself is durable).
    pub domain: PersistDomain,
    /// Mode the trace was recorded in.
    pub mode: TraceMode,
    /// Events in global order.
    pub events: Vec<Event>,
    /// Stamps parallel to `events` (`stamps[i]` stamps `events[i]`).
    /// Empty for synthetic traces built directly from event lists.
    pub stamps: Vec<Stamp>,
}

impl Trace {
    /// Build a synthetic trace from a bare event list (checker tests,
    /// hand-written fixtures). Synthetic traces carry no stamps.
    #[must_use]
    pub fn synthetic(domain: PersistDomain, events: Vec<Event>) -> Trace {
        Trace {
            domain,
            mode: TraceMode::Persist,
            events,
            stamps: Vec::new(),
        }
    }

    /// Project a race-mode trace to the persist-mode trace the same
    /// execution would have recorded: race-only events are dropped and
    /// `AtomicOp` writes collapse to plain 8-byte stores (see
    /// [`Event::persist_equivalent`]). `falcon-check`'s R1–R4 verdicts
    /// on the projection are identical to a native persist-mode
    /// recording of the same single-threaded execution.
    #[must_use]
    pub fn persist_view(&self) -> Trace {
        let mut events = Vec::with_capacity(self.events.len());
        let mut stamps = Vec::with_capacity(self.stamps.len());
        for (i, ev) in self.events.iter().enumerate() {
            if let Some(p) = ev.persist_equivalent() {
                events.push(p);
                if let Some(&s) = self.stamps.get(i) {
                    stamps.push(s);
                }
            }
        }
        Trace {
            domain: self.domain,
            mode: TraceMode::Persist,
            events,
            stamps,
        }
    }

    /// Check stamp integrity: `gseq` strictly increasing along the
    /// merged stream and `tseq` strictly increasing along every
    /// per-thread subsequence. Returns `Err` naming the first violation.
    /// Vacuously `Ok` for synthetic (stamp-less) traces.
    pub fn validate_stamps(&self) -> Result<(), String> {
        if self.stamps.is_empty() {
            return Ok(());
        }
        if self.stamps.len() != self.events.len() {
            return Err(format!(
                "stamp/event length mismatch: {} stamps, {} events",
                self.stamps.len(),
                self.events.len()
            ));
        }
        let mut last_gseq: Option<u64> = None;
        let mut last_tseq: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (i, (ev, st)) in self.events.iter().zip(&self.stamps).enumerate() {
            if let Some(g) = last_gseq {
                if st.gseq <= g {
                    return Err(format!(
                        "event {i}: global epoch not increasing ({} after {g})",
                        st.gseq
                    ));
                }
            }
            last_gseq = Some(st.gseq);
            let t = ev.thread();
            if let Some(&prev) = last_tseq.get(&t) {
                if st.tseq <= prev {
                    return Err(format!(
                        "event {i}: thread {t} sequence not increasing ({} after {prev})",
                        st.tseq
                    ));
                }
            }
            last_tseq.insert(t, st.tseq);
        }
        Ok(())
    }
}

/// Number of buffer shards (worker threads hash onto these; sharding
/// only reduces lock contention, correctness never depends on it).
const SHARDS: usize = 16;

/// Number of per-thread sequence counters. Threads hash onto these with
/// `thread % TSEQ_SLOTS`; a collision shares a counter between two
/// threads, which keeps each thread's own subsequence strictly
/// increasing (a shared monotonic counter is monotonic for every
/// reader) — only density, not correctness, is affected.
const TSEQ_SLOTS: usize = 64;

/// The in-device recorder.
pub(crate) struct TraceSink {
    enabled: AtomicBool,
    race: AtomicBool,
    /// Global epoch counter (`Stamp::gseq`).
    seq: AtomicU64,
    /// Per-thread sequence counters (`Stamp::tseq`), indexed by
    /// `thread % TSEQ_SLOTS`.
    tseq: [AtomicU64; TSEQ_SLOTS],
    shards: [Mutex<Vec<(Stamp, Event)>>; SHARDS],
    /// Race-mode serialization: device atomic ops take this around
    /// (memory effect + emit) so the merged stamp order of atomics is
    /// their linearization order.
    sync: Mutex<()>,
}

impl TraceSink {
    pub(crate) fn new() -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(false),
            race: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            tseq: std::array::from_fn(|_| AtomicU64::new(0)),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            sync: Mutex::new(()),
        }
    }

    /// Discard any previous recording and start a new one in `mode`.
    pub(crate) fn start(&self, mode: TraceMode) {
        for s in &self.shards {
            s.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
        self.seq.store(0, Ordering::Relaxed);
        for t in &self.tseq {
            t.store(0, Ordering::Relaxed);
        }
        self.race.store(mode == TraceMode::Race, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// The mode recording is currently in.
    pub(crate) fn mode(&self) -> TraceMode {
        if self.race.load(Ordering::Relaxed) {
            TraceMode::Race
        } else {
            TraceMode::Persist
        }
    }

    /// Whether a race-mode recording is live (the hot-path check for
    /// race-only emission sites).
    #[inline]
    pub(crate) fn racing(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) && self.race.load(Ordering::Relaxed)
    }

    /// Take the race-mode serialization lock (see [`TraceSink::sync`]).
    pub(crate) fn sync_lock(&self) -> MutexGuard<'_, ()> {
        self.sync
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Stop recording and return the merged, globally ordered stream
    /// with stamps.
    pub(crate) fn stop(&self) -> (Vec<Event>, Vec<Stamp>) {
        self.enabled.store(false, Ordering::Release);
        let mut all: Vec<(Stamp, Event)> = Vec::new();
        for s in &self.shards {
            all.append(&mut s.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        }
        all.sort_unstable_by_key(|&(st, _)| st.gseq);
        let stamps = all.iter().map(|&(st, _)| st).collect();
        let events = all.into_iter().map(|(_, ev)| ev).collect();
        (events, stamps)
    }

    /// Record one event (no-op unless recording is on).
    #[inline]
    pub(crate) fn emit(&self, ev: Event) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let gseq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tseq = self.tseq[ev.thread() % TSEQ_SLOTS].fetch_add(1, Ordering::Relaxed);
        let shard = ev.thread() % SHARDS;
        self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((Stamp { gseq, tseq }, ev));
    }
}
