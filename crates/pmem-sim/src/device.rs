//! The simulated NVM device.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::backing::Backing;
use crate::cache::{CacheSim, ClwbResult};
use crate::config::{PersistDomain, SimConfig};
use crate::ctx::MemCtx;
use crate::fault::{mix, FaultOutcome, FaultPlan};
#[cfg(feature = "trace")]
use crate::trace::{AtomicKind, Event, MemOrder, Trace, TraceMode, TraceSink};
use crate::xpbuffer::{BlockWrite, XpBuffer, LINES_PER_BLOCK};
use crate::{PAddr, CACHE_LINE};

/// Why a line is being written back (statistics only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WbReason {
    Evict,
    Clwb,
}

/// The mutating operation a fault-plan event tick describes; carries
/// enough to tear the tripping operation at 8-byte granularity.
enum FaultOp<'a> {
    /// A multi-byte store of `data` at `addr` (CPU image).
    Store { addr: u64, data: &'a [u8] },
    /// Zeroing `len` bytes at `addr`.
    Zero { addr: u64, len: u64 },
    /// A cache line (64 B at `line * CACHE_LINE`) reaching the media.
    LineWb { line: u64 },
    /// Any other mutating event (aligned 8-byte atomics, clwb, sfence):
    /// never torn, only counted.
    Other,
}

/// Mutable fault-plan state, behind the [`FaultState`] mutex.
struct FaultCell {
    plan: Option<FaultPlan>,
    /// Image captured at the cut point: what the next crash restores.
    shadow: Option<Backing>,
    /// Words of the tripping op that persisted (torn write).
    torn_words: u64,
    /// Outcome of the last consumed plan.
    outcome: Option<FaultOutcome>,
}

/// Fault-injection state. The hot path (no plan installed) costs one
/// relaxed load of `enabled` per mutating operation.
struct FaultState {
    enabled: AtomicBool,
    /// Event index to cut at; `u64::MAX` when the plan never trips.
    cut: AtomicU64,
    /// Mutating events counted since the plan was installed.
    events: AtomicU64,
    tripped: AtomicBool,
    cell: Mutex<FaultCell>,
}

impl FaultState {
    fn new() -> FaultState {
        FaultState {
            enabled: AtomicBool::new(false),
            cut: AtomicU64::new(u64::MAX),
            events: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            cell: Mutex::new(FaultCell {
                plan: None,
                shadow: None,
                torn_words: 0,
                outcome: None,
            }),
        }
    }
}

struct Inner {
    config: SimConfig,
    /// The CPU image: what loads observe.
    cpu: Backing,
    /// The media image: what survives a crash.
    media: Backing,
    cache: CacheSim,
    xpbuffer: XpBuffer,
    fault: FaultState,
    #[cfg(feature = "trace")]
    trace: TraceSink,
}

/// A simulated byte-addressable NVM device with a modelled CPU cache and
/// write-combining buffer.
///
/// Cloning is cheap (`Arc` inside); all methods take `&self` and a
/// per-thread [`MemCtx`], and are safe to call from many threads.
///
/// Addresses are byte offsets ([`PAddr`]) into a flat space of
/// `config.capacity` bytes. Atomic 64-bit operations require 8-byte
/// alignment; engines put all concurrently-mutated metadata in aligned
/// words, exactly as they would on real hardware.
#[derive(Clone)]
pub struct PmemDevice {
    inner: Arc<Inner>,
}

impl PmemDevice {
    /// Create a device from a validated configuration.
    pub fn new(config: SimConfig) -> Result<PmemDevice, String> {
        config.validate()?;
        let cache = CacheSim::new(config.cache_sets(), config.cache_ways, config.shards);
        let xpbuffer = XpBuffer::new(config.xpbuffer_blocks, config.shards);
        Ok(PmemDevice {
            inner: Arc::new(Inner {
                cpu: Backing::new(config.capacity),
                media: Backing::new(config.capacity),
                cache,
                xpbuffer,
                config,
                fault: FaultState::new(),
                #[cfg(feature = "trace")]
                trace: TraceSink::new(),
            }),
        })
    }

    /// Duplicate the device: both images are snapshotted, while the cache
    /// and XPBuffer models (and any trace or fault plan) start fresh.
    ///
    /// Intended for post-crash images (where CPU and media agree), e.g.
    /// re-running recovery from the same crash state several times. On a
    /// device with dirty cached lines the fork treats them as clean, so
    /// an ADR crash on the fork would revert them — fork quiesced or
    /// crashed devices if that matters.
    pub fn fork(&self) -> PmemDevice {
        let inner = &*self.inner;
        let config = inner.config.clone();
        let cache = CacheSim::new(config.cache_sets(), config.cache_ways, config.shards);
        let xpbuffer = XpBuffer::new(config.xpbuffer_blocks, config.shards);
        PmemDevice {
            inner: Arc::new(Inner {
                cpu: inner.cpu.duplicate(),
                media: inner.media.duplicate(),
                cache,
                xpbuffer,
                config,
                fault: FaultState::new(),
                #[cfg(feature = "trace")]
                trace: TraceSink::new(),
            }),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &SimConfig {
        &self.inner.config
    }

    // ------------------------------------------------------------------
    // Event tracing (feature `trace`).
    // ------------------------------------------------------------------

    /// Record `ev` if tracing is on (internal emission helper).
    #[cfg(feature = "trace")]
    #[inline]
    fn t_emit(&self, ev: Event) {
        self.inner.trace.emit(ev);
    }

    /// Start recording the event trace in [`TraceMode::Persist`],
    /// discarding any previous recording. See [`crate::trace`].
    #[cfg(feature = "trace")]
    pub fn trace_start(&self) {
        self.inner.trace.start(TraceMode::Persist);
    }

    /// Start recording in [`TraceMode::Race`]: plain loads, atomic
    /// access kind/ordering and lock edges are recorded in addition to
    /// the persist-mode stream, and device atomic ops are serialized
    /// with their emission so the merged stream linearizes them. See
    /// [`crate::trace`].
    #[cfg(feature = "trace")]
    pub fn trace_start_race(&self) {
        self.inner.trace.start(TraceMode::Race);
    }

    /// Whether a race-mode recording is currently live. Engine
    /// instrumentation uses this to gate race-only events (lock edges)
    /// off the persist-mode stream.
    #[cfg(feature = "trace")]
    pub fn trace_racing(&self) -> bool {
        self.inner.trace.racing()
    }

    /// Stop recording and return the globally ordered trace.
    #[cfg(feature = "trace")]
    pub fn trace_take(&self) -> Trace {
        let mode = self.inner.trace.mode();
        let (events, stamps) = self.inner.trace.stop();
        Trace {
            domain: self.inner.config.domain,
            mode,
            events,
            stamps,
        }
    }

    /// Record an engine-level event (transaction boundaries, log-range
    /// and durable-intent hints). No-op unless tracing is on.
    #[cfg(feature = "trace")]
    pub fn trace_emit(&self, ev: Event) {
        self.inner.trace.emit(ev);
    }

    /// Run an engine-level atomic operation `op` and record the event
    /// `ev(&result)` for it, serialized under the race-mode sync lock so
    /// the merged stamp order of the emission equals the memory-effect
    /// order of `op`.
    ///
    /// This is the instrumentation hook for *engine-resident* atomics
    /// (Met-Cache cells and other DRAM state that never touches the
    /// device): in race mode the effect and its [`Event::AtomicOp`] are
    /// linearized with the device's own atomic stream; outside race mode
    /// `op` runs untraced at full speed. The event is picked from the
    /// result so a failed CAS can trace as the atomic load it is.
    #[cfg(feature = "trace")]
    pub fn trace_atomic<R>(&self, op: impl FnOnce() -> R, ev: impl FnOnce(&R) -> Event) -> R {
        if self.inner.trace.racing() {
            let _g = self.inner.trace.sync_lock();
            let r = op();
            self.inner.trace.emit(ev(&r));
            r
        } else {
            op()
        }
    }

    /// Run a device-level atomic memory effect and trace it.
    ///
    /// In race mode the effect and its emission happen under the sync
    /// lock and `race_ev(&result)` picks the [`Event::AtomicOp`]
    /// recorded (a failed CAS traces as an atomic load). In persist mode
    /// `persist_ev(&result)` picks the legacy event — a plain 8-byte
    /// [`Event::Store`] for writes, nothing for loads — keeping
    /// persist-mode traces bit-identical to the pre-race schema.
    #[cfg(feature = "trace")]
    #[inline]
    fn traced_atomic<R>(
        &self,
        op: impl FnOnce() -> R,
        persist_ev: impl FnOnce(&R) -> Option<Event>,
        race_ev: impl FnOnce(&R) -> Event,
    ) -> R {
        if self.inner.trace.racing() {
            let _g = self.inner.trace.sync_lock();
            let r = op();
            self.inner.trace.emit(race_ev(&r));
            r
        } else {
            let r = op();
            if let Some(ev) = persist_ev(&r) {
                self.inner.trace.emit(ev);
            }
            r
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.config.capacity
    }

    // ------------------------------------------------------------------
    // Fault injection (see [`crate::fault`]).
    // ------------------------------------------------------------------

    /// Install a [`FaultPlan`], resetting the event counter to zero. The
    /// plan arms every mutating operation from now on and is consumed by
    /// the next [`PmemDevice::crash`]. Replaces any previous plan.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        let f = &self.inner.fault;
        f.enabled.store(false, Ordering::SeqCst);
        let mut cell = f.cell.lock().unwrap();
        f.cut
            .store(plan.cut_at_event.unwrap_or(u64::MAX), Ordering::SeqCst);
        f.events.store(0, Ordering::SeqCst);
        f.tripped.store(false, Ordering::SeqCst);
        cell.plan = Some(plan);
        cell.shadow = None;
        cell.torn_words = 0;
        cell.outcome = None;
        drop(cell);
        f.enabled.store(true, Ordering::SeqCst);
    }

    /// Remove any installed fault plan without crashing. The last
    /// consumed plan's outcome (if any) is kept readable.
    pub fn clear_fault_plan(&self) {
        let f = &self.inner.fault;
        f.enabled.store(false, Ordering::SeqCst);
        let mut cell = f.cell.lock().unwrap();
        cell.plan = None;
        cell.shadow = None;
        cell.torn_words = 0;
        f.cut.store(u64::MAX, Ordering::SeqCst);
        f.tripped.store(false, Ordering::SeqCst);
    }

    /// Whether the installed plan has reached its cut point. Everything
    /// executed after the trip is discarded by the next crash.
    pub fn fault_tripped(&self) -> bool {
        self.inner.fault.tripped.load(Ordering::Acquire)
    }

    /// Mutating events counted since the current plan was installed
    /// (calibration: run once with [`FaultPlan::calibrate`], read this,
    /// then fuzz cut indices in `0..events`).
    pub fn fault_events(&self) -> u64 {
        self.inner.fault.events.load(Ordering::SeqCst)
    }

    /// Outcome of the last plan consumed by a crash, if any.
    pub fn fault_outcome(&self) -> Option<FaultOutcome> {
        self.inner.fault.cell.lock().unwrap().outcome
    }

    /// Tick the fault event counter; captures the shadow image when the
    /// counter reaches the plan's cut point. Called at the *start* of
    /// every mutating operation, before it mutates anything, so "cut at
    /// event `i`" means events `0..i` are fully applied and event `i`
    /// is dropped (or torn, see [`FaultPlan::tear_writes`]).
    #[inline]
    fn fault_tick(&self, op: FaultOp<'_>) {
        let f = &self.inner.fault;
        if !f.enabled.load(Ordering::Relaxed) {
            return;
        }
        let n = f.events.fetch_add(1, Ordering::Relaxed);
        if n == f.cut.load(Ordering::Relaxed) {
            self.fault_trip(n, op);
        }
    }

    /// Capture the crash shadow at event `n` and apply the torn part of
    /// the tripping operation to it.
    #[cold]
    fn fault_trip(&self, n: u64, op: FaultOp<'_>) {
        let inner = &*self.inner;
        let mut cell = inner.fault.cell.lock().unwrap();
        if cell.shadow.is_some() {
            return;
        }
        let Some(plan) = cell.plan.as_ref() else {
            return;
        };
        // What would survive a clean crash right now: the CPU image under
        // eADR (the whole cache is in the persistence domain), the media
        // image under ADR (only written-back lines survive).
        let shadow = match inner.config.domain {
            PersistDomain::Eadr => inner.cpu.duplicate(),
            PersistDomain::Adr => inner.media.duplicate(),
        };
        let mut torn = 0u64;
        if plan.tear_writes {
            let r = mix(plan.seed, n);
            match (op, inner.config.domain) {
                // A multi-byte store cut mid-copy under eADR: a prefix at
                // 8-byte word granularity persisted (partial head/tail
                // words merge read-modify-write at word granularity, so
                // individual words never tear).
                (FaultOp::Store { addr, data }, PersistDomain::Eadr) => {
                    let len = data.len() as u64;
                    let words = (addr + len - 1) / 8 - addr / 8 + 1;
                    let k = r % words; // at least the last word is lost
                    let prefix = len.min(((addr / 8 + k) * 8).saturating_sub(addr));
                    if prefix > 0 {
                        shadow.write_bytes(addr, &data[..prefix as usize]);
                    }
                    torn = k;
                }
                (FaultOp::Zero { addr, len }, PersistDomain::Eadr) => {
                    let words = (addr + len - 1) / 8 - addr / 8 + 1;
                    let k = r % words;
                    let prefix = len.min(((addr / 8 + k) * 8).saturating_sub(addr));
                    if prefix > 0 {
                        shadow.zero(addr, prefix);
                    }
                    torn = k;
                }
                // A line writeback cut mid-transfer under ADR: the line
                // crosses the bus in 8-byte units in unspecified order —
                // a seeded *subset* of its 8 words reached the media.
                (FaultOp::LineWb { line }, PersistDomain::Adr) => {
                    let mask = (r & 0xff) as u8;
                    for w in 0..8u64 {
                        if mask & (1 << w) != 0 {
                            let off = line * CACHE_LINE + w * 8;
                            shadow.store_u64(off, inner.cpu.load_u64(off));
                            torn += 1;
                        }
                    }
                }
                // Aligned 8-byte atomics never tear; a store trip under
                // ADR persists nothing (the store only reached the
                // volatile cache).
                _ => {}
            }
        }
        cell.torn_words = torn;
        cell.shadow = Some(shadow);
        inner.fault.tripped.store(true, Ordering::Release);
    }

    /// Apply the faulty-crash semantics: restore the shadow (if the plan
    /// tripped), apply bit-rot, record the outcome, consume the plan.
    fn crash_with_faults(&self) {
        let inner = &*self.inner;
        inner.fault.enabled.store(false, Ordering::SeqCst);
        let events = inner.fault.events.load(Ordering::SeqCst);
        let mut cell = inner.fault.cell.lock().unwrap();
        let tripped_at = cell
            .shadow
            .is_some()
            .then(|| inner.fault.cut.load(Ordering::SeqCst));
        if let Some(shadow) = cell.shadow.take() {
            // Power was lost at the cut point: both images become the
            // shadow; cache and XPBuffer contents evaporate.
            shadow.copy_all_to(&inner.media);
            shadow.copy_all_to(&inner.cpu);
            inner.cache.drain(|_| {});
            let _ = inner.xpbuffer.drain();
        } else {
            // The workload finished before the cut: a clean crash.
            self.crash_clean();
        }
        let mut flips = 0u64;
        if let Some(plan) = cell.plan.take() {
            for f in &plan.bit_flips {
                if f.addr < inner.config.capacity {
                    inner.media.flip_bit(f.addr, f.bit);
                    inner.cpu.flip_bit(f.addr, f.bit);
                    flips += 1;
                }
            }
        }
        cell.outcome = Some(FaultOutcome {
            tripped_at,
            events,
            torn_words: cell.torn_words,
            bit_flips_applied: flips,
        });
        cell.torn_words = 0;
        inner.fault.cut.store(u64::MAX, Ordering::SeqCst);
        inner.fault.tripped.store(false, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Cache/cost modelling.
    // ------------------------------------------------------------------

    /// Run the cache model for every line in `[addr, addr+len)`.
    fn touch(&self, addr: PAddr, len: u64, write: bool, ctx: &mut MemCtx) {
        debug_assert!(len > 0);
        let inner = &*self.inner;
        let cost = &inner.config.cost;
        let first = addr.line();
        let last = PAddr(addr.0 + len - 1).line();
        // Counted independently of the hit/miss branches below so the
        // invariant `accesses == cache_hits + cache_misses` can catch
        // counter drift (see tests/stats_invariants.rs at the root).
        ctx.stats.accesses += last - first + 1;
        // Hits are the common case and their bookkeeping is the same for
        // every line: count them here and charge them once after the
        // loop. Nothing inside the loop reads the clock or the hit
        // counter, so the totals at every observable point are unchanged.
        let mut hits = 0u64;
        // The four lines of a media block ask the XPBuffer the same
        // question; the answer is kept until this call changes the
        // buffer (a victim's writeback below).
        let mut buffered: Option<(u64, bool)> = None;
        for line in first..=last {
            let r = inner.cache.access(line, write);
            if r.hit {
                hits += 1;
                continue;
            }
            ctx.stats.cache_misses += 1;
            // Fill: from the XPBuffer if the block is still buffered,
            // otherwise from the media.
            let block = line / LINES_PER_BLOCK;
            let in_xpbuffer = match buffered {
                Some((b, answer)) if b == block => answer,
                _ => {
                    let answer = inner.xpbuffer.contains_block(block);
                    buffered = Some((block, answer));
                    answer
                }
            };
            if in_xpbuffer {
                ctx.stats.fills_from_xpbuffer += 1;
                ctx.advance(cost.fill_xpbuf_hit);
            } else {
                ctx.stats.media_fill_reads += 1;
                ctx.advance(cost.fill_media_read);
            }
            if let Some(victim) = r.dirty_victim {
                self.writeback_line(victim, WbReason::Evict, ctx);
                buffered = None;
            }
        }
        ctx.stats.cache_hits += hits;
        ctx.advance(cost.cache_hit * hits);
    }

    /// A dirty line leaves the cache: copy its bytes to the media image
    /// (it has reached the persistence domain) and run the XPBuffer model.
    fn writeback_line(&self, line_addr: u64, reason: WbReason, ctx: &mut MemCtx) {
        let inner = &*self.inner;
        let cost = &inner.config.cost;
        self.fault_tick(FaultOp::LineWb { line: line_addr });
        inner.cpu.copy_line_to(&inner.media, line_addr * CACHE_LINE);
        #[cfg(feature = "trace")]
        if reason == WbReason::Evict {
            self.t_emit(Event::Evict {
                thread: ctx.thread_id,
                line: line_addr,
            });
        }
        match reason {
            WbReason::Evict => ctx.stats.evictions += 1,
            WbReason::Clwb => ctx.stats.clwb_writebacks += 1,
        }
        ctx.advance(cost.wb_insert);
        if let Some(w) = inner.xpbuffer.line_arrives(line_addr) {
            self.charge_block_write(w, ctx);
        }
    }

    fn charge_block_write(&self, w: BlockWrite, ctx: &mut MemCtx) {
        let cost = &self.inner.config.cost;
        ctx.stats.media_block_writes += 1;
        ctx.advance(cost.media_block_write);
        if w.rmw {
            ctx.stats.media_rmw += 1;
            ctx.advance(cost.media_rmw_read);
        }
    }

    // ------------------------------------------------------------------
    // Data access.
    // ------------------------------------------------------------------

    /// Read `buf.len()` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, addr: PAddr, buf: &mut [u8], ctx: &mut MemCtx) {
        if buf.is_empty() {
            return;
        }
        self.touch(addr, buf.len() as u64, false, ctx);
        self.inner.cpu.read_bytes(addr.0, buf);
        #[cfg(feature = "trace")]
        if self.inner.trace.racing() {
            self.t_emit(Event::Load {
                thread: ctx.thread_id,
                addr: addr.0,
                len: buf.len() as u64,
            });
        }
    }

    /// Write `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&self, addr: PAddr, data: &[u8], ctx: &mut MemCtx) {
        if data.is_empty() {
            return;
        }
        self.fault_tick(FaultOp::Store { addr: addr.0, data });
        self.inner.cpu.write_bytes(addr.0, data);
        #[cfg(feature = "trace")]
        self.t_emit(Event::Store {
            thread: ctx.thread_id,
            addr: addr.0,
            len: data.len() as u64,
        });
        self.touch(addr, data.len() as u64, true, ctx);
    }

    /// Zero `len` bytes at `addr`.
    pub fn zero(&self, addr: PAddr, len: u64, ctx: &mut MemCtx) {
        if len == 0 {
            return;
        }
        self.fault_tick(FaultOp::Zero { addr: addr.0, len });
        self.inner.cpu.zero(addr.0, len);
        #[cfg(feature = "trace")]
        self.t_emit(Event::Store {
            thread: ctx.thread_id,
            addr: addr.0,
            len,
        });
        self.touch(addr, len, true, ctx);
    }

    /// Atomic 64-bit load (acquire).
    pub fn load_u64(&self, addr: PAddr, ctx: &mut MemCtx) -> u64 {
        self.touch(addr, 8, false, ctx);
        #[cfg(feature = "trace")]
        return self.traced_atomic(
            || self.inner.cpu.load_u64(addr.0),
            |_| None,
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Load,
                order: MemOrder::Acquire,
            },
        );
        #[cfg(not(feature = "trace"))]
        self.inner.cpu.load_u64(addr.0)
    }

    /// Atomic 64-bit load with *relaxed* ordering: reads the same cell
    /// as [`PmemDevice::load_u64`] but provides no happens-before edge.
    /// For advisory state (statistics, hot-path hints) where a stale
    /// value is acceptable; `falcon-race` flags any payload access that
    /// relies on a relaxed load for ordering.
    pub fn load_u64_relaxed(&self, addr: PAddr, ctx: &mut MemCtx) -> u64 {
        self.touch(addr, 8, false, ctx);
        #[cfg(feature = "trace")]
        return self.traced_atomic(
            || self.inner.cpu.load_u64(addr.0),
            |_| None,
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Load,
                order: MemOrder::Relaxed,
            },
        );
        #[cfg(not(feature = "trace"))]
        self.inner.cpu.load_u64(addr.0)
    }

    /// Atomic 64-bit store (release).
    pub fn store_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) {
        self.fault_tick(FaultOp::Other);
        #[cfg(feature = "trace")]
        self.traced_atomic(
            || self.inner.cpu.store_u64(addr.0, val),
            |_| {
                Some(Event::Store {
                    thread: ctx.thread_id,
                    addr: addr.0,
                    len: 8,
                })
            },
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Store,
                order: MemOrder::Release,
            },
        );
        #[cfg(not(feature = "trace"))]
        self.inner.cpu.store_u64(addr.0, val);
        self.touch(addr, 8, true, ctx);
    }

    /// Atomic 64-bit store with *relaxed* ordering: same cell as
    /// [`PmemDevice::store_u64`] but publishes nothing — a reader that
    /// observes the value gets no happens-before edge to the stores
    /// preceding it. Using this to publish a payload is exactly the bug
    /// class `falcon-race` exists to catch (see the `relaxed_publish`
    /// fixture).
    pub fn store_u64_relaxed(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) {
        self.fault_tick(FaultOp::Other);
        #[cfg(feature = "trace")]
        self.traced_atomic(
            || self.inner.cpu.store_u64(addr.0, val),
            |_| {
                Some(Event::Store {
                    thread: ctx.thread_id,
                    addr: addr.0,
                    len: 8,
                })
            },
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Store,
                order: MemOrder::Relaxed,
            },
        );
        #[cfg(not(feature = "trace"))]
        self.inner.cpu.store_u64(addr.0, val);
        self.touch(addr, 8, true, ctx);
    }

    /// Atomic compare-exchange (SeqCst); `Ok(previous)` on success.
    pub fn cas_u64(&self, addr: PAddr, old: u64, new: u64, ctx: &mut MemCtx) -> Result<u64, u64> {
        self.fault_tick(FaultOp::Other);
        ctx.advance(self.inner.config.cost.atomic_rmw);
        #[cfg(feature = "trace")]
        let r = self.traced_atomic(
            || self.inner.cpu.cas_u64(addr.0, old, new),
            |r| {
                r.is_ok().then_some(Event::Store {
                    thread: ctx.thread_id,
                    addr: addr.0,
                    len: 8,
                })
            },
            |r| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                // A failed CAS performs no store: trace it as the atomic
                // load it is so the analyzer doesn't see a phantom write.
                kind: if r.is_ok() {
                    AtomicKind::Rmw
                } else {
                    AtomicKind::Load
                },
                order: MemOrder::SeqCst,
            },
        );
        #[cfg(not(feature = "trace"))]
        let r = self.inner.cpu.cas_u64(addr.0, old, new);
        self.touch(addr, 8, r.is_ok(), ctx);
        r
    }

    /// Atomic fetch-add (SeqCst).
    pub fn fetch_add_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) -> u64 {
        self.fault_tick(FaultOp::Other);
        ctx.advance(self.inner.config.cost.atomic_rmw);
        #[cfg(feature = "trace")]
        let r = self.traced_atomic(
            || self.inner.cpu.fetch_add_u64(addr.0, val),
            |_| {
                Some(Event::Store {
                    thread: ctx.thread_id,
                    addr: addr.0,
                    len: 8,
                })
            },
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Rmw,
                order: MemOrder::SeqCst,
            },
        );
        #[cfg(not(feature = "trace"))]
        let r = self.inner.cpu.fetch_add_u64(addr.0, val);
        self.touch(addr, 8, true, ctx);
        r
    }

    /// Atomic fetch-and (SeqCst).
    pub fn fetch_and_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) -> u64 {
        self.fault_tick(FaultOp::Other);
        ctx.advance(self.inner.config.cost.atomic_rmw);
        #[cfg(feature = "trace")]
        let r = self.traced_atomic(
            || self.inner.cpu.fetch_and_u64(addr.0, val),
            |_| {
                Some(Event::Store {
                    thread: ctx.thread_id,
                    addr: addr.0,
                    len: 8,
                })
            },
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Rmw,
                order: MemOrder::SeqCst,
            },
        );
        #[cfg(not(feature = "trace"))]
        let r = self.inner.cpu.fetch_and_u64(addr.0, val);
        self.touch(addr, 8, true, ctx);
        r
    }

    /// Atomic fetch-or (SeqCst).
    pub fn fetch_or_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) -> u64 {
        self.fault_tick(FaultOp::Other);
        ctx.advance(self.inner.config.cost.atomic_rmw);
        #[cfg(feature = "trace")]
        let r = self.traced_atomic(
            || self.inner.cpu.fetch_or_u64(addr.0, val),
            |_| {
                Some(Event::Store {
                    thread: ctx.thread_id,
                    addr: addr.0,
                    len: 8,
                })
            },
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Rmw,
                order: MemOrder::SeqCst,
            },
        );
        #[cfg(not(feature = "trace"))]
        let r = self.inner.cpu.fetch_or_u64(addr.0, val);
        self.touch(addr, 8, true, ctx);
        r
    }

    // ------------------------------------------------------------------
    // Persistence instructions.
    // ------------------------------------------------------------------

    /// `clwb` the line containing `addr`: write it back if dirty, keep it
    /// resident. The writeback completes asynchronously; an `sfence` in
    /// ADR mode waits for it.
    pub fn clwb(&self, addr: PAddr, ctx: &mut MemCtx) {
        self.fault_tick(FaultOp::Other);
        let cost = &self.inner.config.cost;
        ctx.stats.clwb_issued += 1;
        ctx.advance(cost.clwb_issue);
        let line = addr.line();
        let r = self.inner.cache.clwb(line);
        #[cfg(feature = "trace")]
        self.t_emit(Event::Clwb {
            thread: ctx.thread_id,
            line,
            dirty: r == ClwbResult::WroteBack,
        });
        match r {
            ClwbResult::WroteBack => {
                let completion = ctx.clock + cost.wb_latency;
                self.writeback_line(line, WbReason::Clwb, ctx);
                ctx.push_outstanding(completion);
            }
            ClwbResult::Clean | ClwbResult::Absent => {}
        }
    }

    /// `clwb` every line of `[addr, addr+len)`.
    pub fn flush_range(&self, addr: PAddr, len: u64, ctx: &mut MemCtx) {
        if len == 0 {
            return;
        }
        let first = addr.line();
        let last = PAddr(addr.0 + len - 1).line();
        for line in first..=last {
            self.clwb(PAddr(line * CACHE_LINE), ctx);
        }
    }

    /// `clwb` the line containing `addr` only when the persistence
    /// domain is ADR.
    ///
    /// Metadata structures that must survive a power cut — allocator
    /// cursors, index buckets, heap free lists — use this for their
    /// write-backs: under eADR the store is already inside the
    /// persistence domain, so real hardware would omit the instruction
    /// (and its cost) entirely, which is the premise the paper's eADR
    /// engines are built on.
    pub fn clwb_if_adr(&self, addr: PAddr, ctx: &mut MemCtx) {
        if self.inner.config.domain == PersistDomain::Adr {
            self.clwb(addr, ctx);
        }
    }

    /// `sfence`: orders stores. In ADR mode it additionally waits (in
    /// virtual time) for all outstanding writebacks to reach the
    /// persistence domain; in eADR the cache is already persistent, so
    /// nothing needs to drain.
    pub fn sfence(&self, ctx: &mut MemCtx) {
        self.fault_tick(FaultOp::Other);
        let cost = &self.inner.config.cost;
        ctx.stats.sfences += 1;
        ctx.advance(cost.sfence);
        #[cfg(feature = "trace")]
        self.t_emit(Event::Sfence {
            thread: ctx.thread_id,
        });
        match self.inner.config.domain {
            PersistDomain::Adr => {
                ctx.stats.sfence_wait_ns += ctx.drain_outstanding();
            }
            PersistDomain::Eadr => ctx.clear_outstanding(),
        }
    }

    // ------------------------------------------------------------------
    // Crash simulation and raw access.
    // ------------------------------------------------------------------

    /// Simulate a power failure and return control as the post-reboot
    /// device.
    ///
    /// In eADR mode every dirty cache line is flushed to the media (the
    /// persistence domain includes the cache); in ADR mode dirty lines
    /// are *lost* and the CPU image reverts to the media image. The cache
    /// and XPBuffer models are cleared either way (XPBuffer contents are
    /// already on the media: bytes are copied at writeback time).
    ///
    /// # Concurrency
    ///
    /// The caller must guarantee no other thread is accessing the device
    /// (all workers joined), as a real crash would.
    ///
    /// # Fault plans
    ///
    /// With a [`FaultPlan`] installed the crash is adversarial instead:
    /// if the plan tripped, both images are restored from the shadow
    /// captured at the cut point (plus any torn words); either way the
    /// plan's bit flips are applied and the plan is consumed — see
    /// [`PmemDevice::fault_outcome`].
    pub fn crash(&self) {
        #[cfg(feature = "trace")]
        self.t_emit(Event::CrashMark);
        if self.inner.fault.enabled.load(Ordering::SeqCst) {
            self.crash_with_faults();
        } else {
            self.crash_clean();
        }
    }

    /// The clean-crash semantics (no fault plan).
    fn crash_clean(&self) {
        let inner = &*self.inner;
        match inner.config.domain {
            PersistDomain::Eadr => {
                inner.cache.drain(|line| {
                    inner.cpu.copy_line_to(&inner.media, line * CACHE_LINE);
                });
            }
            PersistDomain::Adr => {
                inner.cache.drain(|_| {});
                // Dirty lines are lost: the CPU view reverts to the media.
                inner.media.copy_all_to(&inner.cpu);
            }
        }
        let _ = inner.xpbuffer.drain();
        if inner.config.domain == PersistDomain::Eadr {
            // After an eADR crash the CPU image and media agree for all
            // flushed lines; evicted-and-rewritten lines were already
            // copied. Make the relationship exact for recovery readers.
            inner.cpu.copy_all_to(&inner.media);
        }
    }

    /// Flush every dirty line to the media and empty the cache and
    /// XPBuffer models, charging nothing. Harnesses call this between
    /// the (unmeasured) load phase and the measured run so that
    /// loader-era dirty lines are not billed to the measurement.
    ///
    /// # Concurrency
    ///
    /// Callers must quiesce worker threads first, as with
    /// [`PmemDevice::crash`].
    pub fn quiesce(&self) {
        let inner = &*self.inner;
        #[cfg(feature = "trace")]
        self.t_emit(Event::DrainXpb);
        inner.cache.drain(|line| {
            inner.cpu.copy_line_to(&inner.media, line * CACHE_LINE);
        });
        let _ = inner.xpbuffer.drain();
    }

    /// Read bytes from the *media* image, bypassing the cache model (no
    /// cost). Intended for tests and post-crash verification.
    pub fn media_read(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.media.read_bytes(addr.0, buf);
    }

    /// Write bytes directly to the *media* image, bypassing the cache
    /// model and the CPU image. Intended for tests that corrupt durable
    /// state in place (bit-rot beyond what a [`FaultPlan`] flips).
    pub fn media_write(&self, addr: PAddr, data: &[u8]) {
        self.inner.media.write_bytes(addr.0, data);
    }

    /// Read bytes from the CPU image without running the cache model.
    /// Intended for loaders and diagnostics where cost accounting is
    /// explicitly not wanted.
    pub fn raw_read(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.cpu.read_bytes(addr.0, buf);
    }

    /// Write bytes to both images without running the cache model: bulk
    /// data loading (the paper's table-initialization phase is not part
    /// of any measurement).
    pub fn raw_write(&self, addr: PAddr, data: &[u8]) {
        self.inner.cpu.write_bytes(addr.0, data);
        self.inner.media.write_bytes(addr.0, data);
    }

    /// Number of dirty lines currently in the simulated cache
    /// (diagnostic).
    pub fn dirty_lines(&self) -> usize {
        self.inner.cache.dirty_lines()
    }

    /// Whether the line containing `addr` is resident in the simulated
    /// cache (diagnostic).
    pub fn line_cached(&self, addr: PAddr) -> bool {
        self.inner.cache.contains(addr.line())
    }
}

impl core::fmt::Debug for PmemDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PmemDevice")
            .field("capacity", &self.inner.config.capacity)
            .field("domain", &self.inner.config.domain)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    fn dev(domain: PersistDomain) -> PmemDevice {
        PmemDevice::new(SimConfig::small().with_domain(domain)).unwrap()
    }

    #[test]
    fn read_your_writes() {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(100), &[1, 2, 3, 4], &mut ctx);
        let mut buf = [0u8; 4];
        d.read(PAddr(100), &mut buf, &mut ctx);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert!(ctx.clock > 0);
        assert!(ctx.stats.cache_hits + ctx.stats.cache_misses >= 2);
    }

    #[test]
    fn eadr_crash_preserves_unflushed_writes() {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(0), b"durable", &mut ctx);
        // No clwb, no sfence: the dirty line sits in the cache.
        d.crash();
        let mut buf = [0u8; 7];
        d.media_read(PAddr(0), &mut buf);
        assert_eq!(&buf, b"durable");
        // And the post-crash CPU view agrees.
        d.raw_read(PAddr(0), &mut buf);
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn a_victim_writeback_inside_a_range_is_seen_by_the_next_fill() {
        // Two one-way sets: lines 0 and 2 share a set, lines 0..4 share
        // a media block. Filling line 0 evicts dirty line 2 into the
        // XPBuffer, so line 1 — same block, same `read` — must fill from
        // the buffer, not reuse line 0's "not buffered".
        let mut cfg = SimConfig::small().with_cache(2 * CACHE_LINE);
        cfg.cache_ways = 1;
        let d = PmemDevice::new(cfg).unwrap();
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(2 * CACHE_LINE), &[7], &mut ctx);
        let mut buf = [0u8; 2 * CACHE_LINE as usize];
        d.read(PAddr(0), &mut buf, &mut ctx);
        assert_eq!(ctx.stats.evictions, 1);
        assert_eq!(ctx.stats.media_fill_reads, 2, "line 2's and line 0's");
        assert_eq!(ctx.stats.fills_from_xpbuffer, 1, "line 1's");
    }

    #[test]
    fn adr_crash_loses_unflushed_writes() {
        let d = dev(PersistDomain::Adr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(0), b"vanish", &mut ctx);
        d.crash();
        let mut buf = [0u8; 6];
        d.media_read(PAddr(0), &mut buf);
        assert_eq!(buf, [0u8; 6], "unflushed write must be lost under ADR");
        d.raw_read(PAddr(0), &mut buf);
        assert_eq!(buf, [0u8; 6], "CPU view reverts to media after crash");
    }

    #[test]
    fn adr_crash_keeps_flushed_writes() {
        let d = dev(PersistDomain::Adr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(0), b"flushed!", &mut ctx);
        d.clwb(PAddr(0), &mut ctx);
        d.sfence(&mut ctx);
        d.crash();
        let mut buf = [0u8; 8];
        d.media_read(PAddr(0), &mut buf);
        assert_eq!(&buf, b"flushed!");
    }

    #[test]
    fn adr_sfence_waits_for_clwb() {
        let d = dev(PersistDomain::Adr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(0), &[9u8; 64], &mut ctx);
        d.clwb(PAddr(0), &mut ctx);
        let before = ctx.stats.sfence_wait_ns;
        d.sfence(&mut ctx);
        assert!(ctx.stats.sfence_wait_ns > before, "ADR sfence must drain");
    }

    #[test]
    fn eadr_sfence_does_not_wait() {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(0), &[9u8; 64], &mut ctx);
        d.clwb(PAddr(0), &mut ctx);
        d.sfence(&mut ctx);
        assert_eq!(ctx.stats.sfence_wait_ns, 0);
    }

    #[test]
    fn clwb_writes_back_and_keeps_line() {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(128), &[5u8; 64], &mut ctx);
        assert!(d.line_cached(PAddr(128)));
        d.clwb(PAddr(128), &mut ctx);
        assert_eq!(ctx.stats.clwb_writebacks, 1);
        assert!(d.line_cached(PAddr(128)), "clwb keeps the line resident");
        // Media already has the bytes even before any crash.
        let mut buf = [0u8; 64];
        d.media_read(PAddr(128), &mut buf);
        assert_eq!(buf, [5u8; 64]);
        // Second clwb of a clean line does nothing.
        d.clwb(PAddr(128), &mut ctx);
        assert_eq!(ctx.stats.clwb_writebacks, 1);
        assert_eq!(ctx.stats.clwb_issued, 2);
    }

    #[test]
    fn contiguous_flush_merges_into_full_block() {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        // Dirty one full 256 B block (4 lines), then flush all 4 lines:
        // the XPBuffer must see them together. Writing more blocks evicts
        // the first as a FULL block (no RMW).
        for blk in 0..100u64 {
            let base = PAddr(blk * 256);
            d.write(base, &[7u8; 256], &mut ctx);
            d.sfence(&mut ctx);
            d.flush_range(base, 256, &mut ctx);
        }
        assert!(ctx.stats.media_block_writes > 0);
        assert_eq!(
            ctx.stats.media_rmw, 0,
            "contiguous flushed blocks must never read-modify-write"
        );
    }

    #[test]
    fn atomics_are_visible_and_charged() {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        d.store_u64(PAddr(64), 7, &mut ctx);
        assert_eq!(d.load_u64(PAddr(64), &mut ctx), 7);
        assert_eq!(d.cas_u64(PAddr(64), 7, 9, &mut ctx), Ok(7));
        assert_eq!(d.cas_u64(PAddr(64), 7, 11, &mut ctx), Err(9));
        assert_eq!(d.fetch_add_u64(PAddr(64), 1, &mut ctx), 9);
        assert_eq!(d.load_u64(PAddr(64), &mut ctx), 10);
        assert!(ctx.clock > 0);
    }

    #[test]
    fn raw_write_bypasses_cost() {
        let d = dev(PersistDomain::Eadr);
        d.raw_write(PAddr(0), b"loader");
        let mut buf = [0u8; 6];
        d.media_read(PAddr(0), &mut buf);
        assert_eq!(&buf, b"loader");
        let mut ctx = MemCtx::new(0);
        d.read(PAddr(0), &mut buf, &mut ctx);
        assert_eq!(&buf, b"loader");
    }

    #[test]
    fn zero_cost_model_still_functional() {
        let mut cfg = SimConfig::small();
        cfg.cost = CostModel::free();
        let d = PmemDevice::new(cfg).unwrap();
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(0), &[1u8; 100], &mut ctx);
        assert_eq!(ctx.clock, 0);
    }
}
