//! The simulated NVM device.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backing::Backing;
use crate::cache::{CacheSim, ClwbResult};
use crate::config::{PersistDomain, SimConfig};
use crate::ctx::MemCtx;
use crate::fault::{mix, FaultOutcome, FaultPlan};
#[cfg(feature = "trace")]
use crate::trace::{recorder::TraceSink, Trace, TraceMode};
use crate::trace::{AtomicKind, Event, MemOrder};
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
    /// A store of `len` bytes at `addr`: of `data`, or of zeros when
    /// `data` is `None`.
    Store {
        addr: u64,
        len: u64,
        data: Option<&'a [u8]>,
    },
    /// A cache line (64 B at `line * CACHE_LINE`) reaching the media.
    LineWb { line: u64 },
    /// Any other mutating event (aligned 8-byte atomics, clwb, sfence):
    /// never torn, only counted.
    Other,
}

/// Mutable fault-plan state, behind the [`FaultState`] mutex.
#[derive(Default)]
struct FaultCell {
    plan: Option<FaultPlan>,
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
    /// Set at the cut: the durable overlay is frozen from then on.
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
            cell: Mutex::default(),
        }
    }
}

/// The bytes of one cache line.
type Line = [u8; CACHE_LINE as usize];

struct Inner {
    config: SimConfig,
    /// The device image: what loads observe.
    image: Backing,
    /// The durable overlay: for each line whose crash-surviving bytes
    /// differ from the image, the bytes that would survive.
    ///
    /// Under eADR it is empty (the cache is in the persistence domain,
    /// so the image *is* the durable state). Under ADR its keys are the
    /// dirty lines, each holding its bytes as of its last writeback. A
    /// fault plan that trips freezes it: writebacks stop removing lines,
    /// and each line first changed after the cut adds its bytes at the
    /// cut, so a crash restores exactly the durable state of the cut.
    durable: Mutex<HashMap<u64, Line>>,
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
        let image = Backing::new(config.capacity);
        Ok(PmemDevice::with_image(image, config))
    }

    /// A device over the given image, with an empty overlay and a fresh
    /// cache, XPBuffer, fault plane and recorder.
    fn with_image(image: Backing, config: SimConfig) -> PmemDevice {
        PmemDevice {
            inner: Arc::new(Inner {
                image,
                durable: Mutex::new(HashMap::new()),
                cache: CacheSim::new(config.cache_sets(), config.cache_ways, config.shards),
                xpbuffer: XpBuffer::new(config.xpbuffer_blocks, config.shards),
                config,
                fault: FaultState::new(),
                #[cfg(feature = "trace")]
                trace: TraceSink::new(),
            }),
        }
    }

    /// Duplicate a quiesced or crashed device: the image's touched chunks
    /// are copied (the rest stay unallocated in both), while the cache
    /// and XPBuffer models (and any trace or fault plan) start fresh —
    /// e.g. to re-run recovery from one crash state several times. The
    /// cost follows the bytes ever written, not the capacity.
    ///
    /// # Panics
    ///
    /// Panics if the device has a dirty cached line or a non-empty
    /// durable overlay: the fork would take those lines as durable.
    pub fn fork(&self) -> PmemDevice {
        let inner = &*self.inner;
        assert!(
            inner.cache.dirty_lines() == 0 && inner.durable.lock().is_empty(),
            "fork of a device with dirty lines: quiesce or crash it first"
        );
        PmemDevice::with_image(inner.image.duplicate(), inner.config.clone())
    }

    /// The device configuration.
    pub fn config(&self) -> &SimConfig {
        &self.inner.config
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.config.capacity
    }

    /// Host bytes the device image holds: the chunks ever written, times
    /// the chunk size. Reads, loads and zeroing of never-written space
    /// allocate nothing, so this follows the data, not the capacity.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.image.resident_bytes()
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
        self.thaw();
        let mut cell = f.cell.lock();
        f.cut
            .store(plan.cut_at_event.unwrap_or(u64::MAX), Ordering::SeqCst);
        f.events.store(0, Ordering::SeqCst);
        cell.plan = Some(plan);
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
        self.thaw();
        f.cell.lock().plan = None;
        f.cut.store(u64::MAX, Ordering::SeqCst);
    }

    /// Unfreeze the overlay of a plan that tripped without a crash: the
    /// current state is the durable one again. An ADR line keeps its
    /// entry while it is dirty; if it was written back after the cut
    /// and dirtied again, that entry still holds its bytes at the cut,
    /// not those of the later writeback (which the overlay never saw).
    fn thaw(&self) {
        let inner = &*self.inner;
        if inner.fault.tripped.swap(false, Ordering::SeqCst) {
            let adr = inner.config.domain == PersistDomain::Adr;
            inner
                .durable
                .lock()
                .retain(|&line, _| adr && inner.cache.is_dirty(line));
        }
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
        self.inner.fault.cell.lock().outcome
    }

    /// Tick the fault event counter; freezes the durable overlay when
    /// the counter reaches the plan's cut point. Called at the *start*
    /// of every mutating operation, before it mutates anything, so "cut
    /// at event `i`" means events `0..i` are fully applied and event `i`
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

    /// Freeze the durable overlay at event `n` and apply the torn part of
    /// the tripping operation to it.
    #[cold]
    fn fault_trip(&self, n: u64, op: FaultOp<'_>) {
        let inner = &*self.inner;
        let mut cell = inner.fault.cell.lock();
        if inner.fault.tripped.load(Ordering::Acquire) {
            return;
        }
        let Some(plan) = cell.plan.as_ref() else {
            return;
        };
        let mut torn = 0u64;
        if plan.tear_writes {
            let r = mix(plan.seed, n);
            match (op, inner.config.domain) {
                // A multi-byte store cut mid-copy under eADR: a prefix at
                // 8-byte word granularity persisted (partial head/tail
                // words merge read-modify-write at word granularity, so
                // individual words never tear).
                (FaultOp::Store { addr, len, data }, PersistDomain::Eadr) => {
                    let words = (addr + len - 1) / 8 - addr / 8 + 1;
                    let k = r % words; // at least the last word is lost
                    let prefix = len.min(((addr / 8 + k) * 8).saturating_sub(addr));
                    self.capture_into(&mut inner.durable.lock(), addr, prefix);
                    self.each_entry(addr, prefix, |bytes, from| match data {
                        Some(data) => bytes.copy_from_slice(&data[from]),
                        None => bytes.fill(0),
                    });
                    torn = k;
                }
                // A line writeback cut mid-transfer under ADR: the line
                // crosses the bus in 8-byte units in unspecified order —
                // a seeded *subset* of its 8 words reached the media.
                (FaultOp::LineWb { line }, PersistDomain::Adr) => {
                    let mut now = [0u8; CACHE_LINE as usize];
                    inner.image.read_bytes(line * CACHE_LINE, &mut now);
                    let mut lines = inner.durable.lock();
                    let bytes = lines.entry(line).or_insert(now);
                    for w in (0..8).filter(|w| r & (1 << w) != 0) {
                        bytes[w * 8..w * 8 + 8].copy_from_slice(&now[w * 8..w * 8 + 8]);
                        torn += 1;
                    }
                }
                // Aligned 8-byte atomics never tear; a store trip under
                // ADR persists nothing (the store only reached the
                // volatile cache).
                _ => {}
            }
        }
        cell.torn_words = torn;
        inner.fault.tripped.store(true, Ordering::Release);
    }

    /// Whether mutating operations capture the lines they change: the
    /// domain is ADR, or a cut froze the durable state. (Under eADR the
    /// image is the durable state until a cut.)
    #[inline]
    fn capturing(&self) -> bool {
        let inner = &*self.inner;
        (inner.config.domain == PersistDomain::Adr) | inner.fault.tripped.load(Ordering::Relaxed)
    }

    /// Before a mutating operation changes `[addr, addr + len)`: if
    /// [`Self::capturing`], capture its lines (see [`Self::capture_into`]).
    #[inline]
    fn capture(&self, addr: u64, len: u64) {
        if self.capturing() {
            self.capture_into(&mut self.inner.durable.lock(), addr, len);
        }
    }

    /// Put each line of `[addr, addr + len)` not yet in the overlay
    /// `lines` there with its current image bytes. Returns whether a
    /// line was added.
    fn capture_into(&self, lines: &mut HashMap<u64, Line>, addr: u64, len: u64) -> bool {
        let before = lines.len();
        for line in addr / CACHE_LINE..(addr + len).div_ceil(CACHE_LINE) {
            lines.entry(line).or_insert_with(|| {
                let mut bytes = [0u8; CACHE_LINE as usize];
                self.inner.image.read_bytes(line * CACHE_LINE, &mut bytes);
                bytes
            });
        }
        lines.len() > before
    }

    /// Run `f` on the part of each overlay line inside `[addr, addr +
    /// len)`, with the matching range of the span.
    fn each_entry(&self, addr: u64, len: u64, mut f: impl FnMut(&mut [u8], Range<usize>)) {
        let mut lines = self.inner.durable.lock();
        let end = addr + len;
        for line in addr / CACHE_LINE..end.div_ceil(CACHE_LINE) {
            if let Some(bytes) = lines.get_mut(&line) {
                let base = line * CACHE_LINE;
                let (lo, hi) = (base.max(addr), (base + CACHE_LINE).min(end));
                let at = (lo - base) as usize..(hi - base) as usize;
                f(&mut bytes[at], (lo - addr) as usize..(hi - addr) as usize);
            }
        }
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

    /// A dirty line leaves the cache: it has reached the persistence
    /// domain, so its image bytes are durable now (unless a cut froze the
    /// durable state); run the XPBuffer model.
    fn writeback_line(&self, line_addr: u64, reason: WbReason, ctx: &mut MemCtx) {
        let inner = &*self.inner;
        let cost = &inner.config.cost;
        self.fault_tick(FaultOp::LineWb { line: line_addr });
        if inner.config.domain == PersistDomain::Adr && !self.fault_tripped() {
            inner.durable.lock().remove(&line_addr);
        }
        match reason {
            WbReason::Evict => {
                let thread = ctx.thread_id;
                self.t_emit(Event::Evict {
                    thread,
                    line: line_addr,
                });
                ctx.stats.evictions += 1;
            }
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
        self.inner.image.read_bytes(addr.0, buf);
        if self.trace_racing() {
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
        self.store_bytes(addr.0, data.len() as u64, Some(data), ctx);
    }

    /// Zero `len` bytes at `addr`.
    pub fn zero(&self, addr: PAddr, len: u64, ctx: &mut MemCtx) {
        self.store_bytes(addr.0, len, None, ctx);
    }

    /// The one body of [`Self::write`] and [`Self::zero`]: store `len`
    /// bytes of `data` (zeros if `None`) at `addr`.
    #[inline]
    fn store_bytes(&self, addr: u64, len: u64, data: Option<&[u8]>, ctx: &mut MemCtx) {
        if len == 0 {
            return;
        }
        self.fault_tick(FaultOp::Store { addr, len, data });
        self.capture(addr, len);
        match data {
            Some(data) => self.inner.image.write_bytes(addr, data),
            None => self.inner.image.zero(addr, len),
        }
        let thread = ctx.thread_id;
        self.t_emit(Event::Store { thread, addr, len });
        self.touch(PAddr(addr), len, true, ctx);
    }

    /// Atomic 64-bit load (acquire).
    pub fn load_u64(&self, addr: PAddr, ctx: &mut MemCtx) -> u64 {
        self.load_word(addr, MemOrder::Acquire, ctx)
    }

    /// Atomic 64-bit load with *relaxed* ordering: reads the same cell
    /// as [`PmemDevice::load_u64`] but provides no happens-before edge.
    /// For advisory state (statistics, hot-path hints) where a stale
    /// value is acceptable; `falcon-race` flags any payload access that
    /// relies on a relaxed load for ordering.
    pub fn load_u64_relaxed(&self, addr: PAddr, ctx: &mut MemCtx) -> u64 {
        self.load_word(addr, MemOrder::Relaxed, ctx)
    }

    /// Atomic 64-bit store (release).
    pub fn store_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) {
        self.store_word(addr, val, MemOrder::Release, ctx);
    }

    /// Atomic 64-bit store with *relaxed* ordering: same cell as
    /// [`PmemDevice::store_u64`] but publishes nothing — a reader that
    /// observes the value gets no happens-before edge to the stores
    /// preceding it. Using this to publish a payload is exactly the bug
    /// class `falcon-race` exists to catch (see the `relaxed_publish`
    /// fixture).
    pub fn store_u64_relaxed(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) {
        self.store_word(addr, val, MemOrder::Relaxed, ctx);
    }

    /// Atomic compare-exchange (SeqCst); `Ok(previous)` on success.
    pub fn cas_u64(&self, addr: PAddr, old: u64, new: u64, ctx: &mut MemCtx) -> Result<u64, u64> {
        self.fault_tick(FaultOp::Other);
        // While capturing, the overlay stays locked across the CAS, so a
        // failed one drops its own capture and never a concurrent store's.
        let mut lines = self.capturing().then(|| self.inner.durable.lock());
        let captured = lines
            .as_mut()
            .is_some_and(|l| self.capture_into(l, addr.0, 8));
        ctx.advance(self.inner.config.cost.atomic_rmw);
        let thread = ctx.thread_id;
        let r = self.traced_atomic(
            || self.inner.image.cas_u64(addr.0, old, new),
            |r| r.is_ok().then_some(word_store(thread, addr)),
            // A failed CAS performs no store: trace it as the atomic load
            // it is so the analyzer doesn't see a phantom write.
            |r| {
                let kind = if r.is_ok() {
                    AtomicKind::Rmw
                } else {
                    AtomicKind::Load
                };
                word_atomic(thread, addr, kind)
            },
        );
        if let Some(mut lines) = lines.filter(|_| captured && r.is_err()) {
            // A failed CAS stores nothing: its line stays clean.
            lines.remove(&addr.line());
        }
        self.touch(addr, 8, r.is_ok(), ctx);
        r
    }

    /// Atomic fetch-add (SeqCst).
    pub fn fetch_add_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) -> u64 {
        self.fetch_word(addr, ctx, || self.inner.image.fetch_add_u64(addr.0, val))
    }

    /// Atomic fetch-and (SeqCst).
    pub fn fetch_and_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) -> u64 {
        self.fetch_word(addr, ctx, || self.inner.image.fetch_and_u64(addr.0, val))
    }

    /// Atomic fetch-or (SeqCst).
    pub fn fetch_or_u64(&self, addr: PAddr, val: u64, ctx: &mut MemCtx) -> u64 {
        self.fetch_word(addr, ctx, || self.inner.image.fetch_or_u64(addr.0, val))
    }

    /// The one body of both atomic loads: traced only in race mode.
    #[inline]
    fn load_word(&self, addr: PAddr, order: MemOrder, ctx: &mut MemCtx) -> u64 {
        self.touch(addr, 8, false, ctx);
        self.traced_atomic(
            || self.inner.image.load_u64(addr.0),
            |_| None,
            |_| Event::AtomicOp {
                thread: ctx.thread_id,
                addr: addr.0,
                kind: AtomicKind::Load,
                order,
            },
        )
    }

    /// The one body of both atomic stores.
    #[inline]
    fn store_word(&self, addr: PAddr, val: u64, order: MemOrder, ctx: &mut MemCtx) {
        self.fault_tick(FaultOp::Other);
        self.capture(addr.0, 8);
        let thread = ctx.thread_id;
        self.traced_atomic(
            || self.inner.image.store_u64(addr.0, val),
            |()| Some(word_store(thread, addr)),
            |()| Event::AtomicOp {
                thread,
                addr: addr.0,
                kind: AtomicKind::Store,
                order,
            },
        );
        self.touch(addr, 8, true, ctx);
    }

    /// The one body of the SeqCst fetch-and-modify atomics; `op` is the
    /// memory effect on the image.
    #[inline]
    fn fetch_word(&self, addr: PAddr, ctx: &mut MemCtx, op: impl FnOnce() -> u64) -> u64 {
        self.fault_tick(FaultOp::Other);
        self.capture(addr.0, 8);
        ctx.advance(self.inner.config.cost.atomic_rmw);
        let thread = ctx.thread_id;
        let r = self.traced_atomic(
            op,
            |_| Some(word_store(thread, addr)),
            |_| word_atomic(thread, addr, AtomicKind::Rmw),
        );
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
    /// The cache and XPBuffer contents evaporate, and every line whose
    /// durable bytes differ from the image reverts to them: under eADR
    /// (the cache is in the persistence domain) the image is already the
    /// durable state, so nothing moves; under ADR dirty lines are *lost*
    /// and revert to their bytes as of their last writeback.
    ///
    /// # Concurrency
    ///
    /// The caller must guarantee no other thread is accessing the device
    /// (all workers joined), as a real crash would.
    ///
    /// # Fault plans
    ///
    /// With a [`FaultPlan`] installed the crash is adversarial instead:
    /// if the plan tripped, the device reverts to the durable state
    /// frozen at the cut point (plus any torn words); either way the
    /// plan's bit flips are applied and the plan is consumed — see
    /// [`PmemDevice::fault_outcome`].
    pub fn crash(&self) {
        self.t_emit(Event::CrashMark);
        let inner = &*self.inner;
        let f = &inner.fault;
        let armed = f.enabled.swap(false, Ordering::SeqCst);
        inner.cache.drain(|_| {});
        let _ = inner.xpbuffer.drain();
        for (line, bytes) in inner.durable.lock().drain() {
            inner.image.write_bytes(line * CACHE_LINE, &bytes);
        }
        if !armed {
            return;
        }
        let mut cell = f.cell.lock();
        let cut = f.cut.swap(u64::MAX, Ordering::SeqCst);
        let tripped_at = f.tripped.swap(false, Ordering::SeqCst).then_some(cut);
        let mut flips = 0u64;
        let plan = cell.plan.take();
        for flip in plan.iter().flat_map(|p| &p.bit_flips) {
            if flip.addr < inner.config.capacity {
                inner.image.flip_bit(flip.addr, flip.bit);
                flips += 1;
            }
        }
        cell.outcome = Some(FaultOutcome {
            tripped_at,
            events: f.events.load(Ordering::SeqCst),
            torn_words: cell.torn_words,
            bit_flips_applied: flips,
        });
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
        self.t_emit(Event::DrainXpb);
        inner.cache.drain(|_| {});
        let _ = inner.xpbuffer.drain();
        if !self.fault_tripped() {
            inner.durable.lock().clear();
        }
    }

    /// Read the bytes a crash would keep — the image under the durable
    /// overlay — bypassing the cache model (no cost). Intended for tests
    /// and post-crash verification.
    pub fn media_read(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.image.read_bytes(addr.0, buf);
        self.each_entry(addr.0, buf.len() as u64, |bytes, to| {
            buf[to].copy_from_slice(bytes);
        });
    }

    /// Read bytes from the image without running the cache model.
    /// Intended for loaders and diagnostics where cost accounting is
    /// explicitly not wanted.
    pub fn raw_read(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.image.read_bytes(addr.0, buf);
    }

    /// Write bytes without running the cache model, durable at once
    /// unless a fault plan has tripped (then the crash discards them like
    /// every write after the cut): bulk data loading (the paper's
    /// table-initialization phase is not part of any measurement).
    pub fn raw_write(&self, addr: PAddr, data: &[u8]) {
        let len = data.len() as u64;
        if self.fault_tripped() {
            self.capture_into(&mut self.inner.durable.lock(), addr.0, len);
        } else if self.capturing() {
            self.each_entry(addr.0, len, |bytes, from| {
                bytes.copy_from_slice(&data[from]);
            });
        }
        self.inner.image.write_bytes(addr.0, data);
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

/// The persist-mode event of an atomic word write: a plain 8-byte store.
#[inline]
fn word_store(thread: usize, addr: PAddr) -> Event {
    Event::Store {
        thread,
        addr: addr.0,
        len: 8,
    }
}

/// The race-mode event of a SeqCst device atomic of `kind`.
#[inline]
fn word_atomic(thread: usize, addr: PAddr, kind: AtomicKind) -> Event {
    Event::AtomicOp {
        thread,
        addr: addr.0,
        kind,
        order: MemOrder::SeqCst,
    }
}

/// Event tracing with the recorder compiled in (feature `trace`). See
/// [`crate::trace`].
#[cfg(feature = "trace")]
impl PmemDevice {
    /// Record `ev` if tracing is on (internal emission helper).
    #[inline]
    fn t_emit(&self, ev: Event) {
        self.inner.trace.emit(ev);
    }

    /// Start recording the event trace in [`TraceMode::Persist`],
    /// discarding any previous recording. See [`crate::trace`].
    pub fn trace_start(&self) {
        self.inner.trace.start(TraceMode::Persist);
    }

    /// Start recording in [`TraceMode::Race`]: plain loads, atomic
    /// access kind/ordering and lock edges are recorded in addition to
    /// the persist-mode stream, and device atomic ops are serialized
    /// with their emission so the merged stream linearizes them. See
    /// [`crate::trace`].
    pub fn trace_start_race(&self) {
        self.inner.trace.start(TraceMode::Race);
    }

    /// Whether a race-mode recording is currently live. Engine
    /// instrumentation uses this to gate race-only events (lock edges)
    /// off the persist-mode stream.
    #[inline]
    pub fn trace_racing(&self) -> bool {
        self.inner.trace.racing()
    }

    /// Stop recording and return the globally ordered trace.
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
    #[inline]
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
}

/// Event tracing without a recorder: the same helpers as above, each an
/// `#[inline(always)]` no-op that runs the traced operation and never
/// builds its event, so every emission site folds away.
#[cfg(not(feature = "trace"))]
impl PmemDevice {
    #[inline(always)]
    fn t_emit(&self, _ev: Event) {}

    /// Whether a race-mode recording is live: never, without a recorder.
    #[inline(always)]
    pub fn trace_racing(&self) -> bool {
        false
    }

    /// Record an engine-level event: nothing to record into.
    #[inline(always)]
    pub fn trace_emit(&self, _ev: Event) {}

    /// Run the engine-level atomic operation `op`; `ev` is never called.
    #[inline(always)]
    pub fn trace_atomic<R>(&self, op: impl FnOnce() -> R, _ev: impl FnOnce(&R) -> Event) -> R {
        op()
    }

    #[inline(always)]
    fn traced_atomic<R>(
        &self,
        op: impl FnOnce() -> R,
        _persist_ev: impl FnOnce(&R) -> Option<Event>,
        _race_ev: impl FnOnce(&R) -> Event,
    ) -> R {
        op()
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
    fn adr_overlay_holds_exactly_the_dirty_lines() {
        // Two one-way sets: stores evict each other's lines, clwbs clean
        // them, and a failed CAS stores nothing.
        let mut cfg = SimConfig::small()
            .with_cache(2 * CACHE_LINE)
            .with_domain(PersistDomain::Adr);
        cfg.cache_ways = 1;
        let d = PmemDevice::new(cfg).unwrap();
        let mut ctx = MemCtx::new(0);
        for i in 0..40u64 {
            let a = PAddr(i * 7 % 5 * CACHE_LINE);
            match i % 5 {
                0 => d.write(a, &[i as u8; 100], &mut ctx),
                1 => d.store_u64(a, i, &mut ctx),
                2 => assert!(d.cas_u64(a, u64::MAX, i, &mut ctx).is_err()),
                3 => d.clwb(a, &mut ctx),
                _ => d.zero(a, 8, &mut ctx),
            }
            let lines = d.inner.durable.lock();
            assert_eq!(lines.len(), d.dirty_lines(), "op {i}");
            assert!(lines.keys().all(|&l| d.inner.cache.is_dirty(l)), "op {i}");
        }
    }

    #[test]
    #[should_panic(expected = "fork of a device with dirty lines")]
    fn fork_of_a_dirty_device_panics() {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        d.write(PAddr(0), &[1u8; 8], &mut ctx);
        let _ = d.fork();
    }

    #[test]
    fn untouched_space_holds_no_host_memory() {
        let mut cfg = SimConfig::small();
        cfg.capacity = 1 << 30;
        let d = PmemDevice::new(cfg).unwrap();
        assert_eq!(d.resident_bytes(), 0);
        let mut ctx = MemCtx::new(0);
        let mut buf = vec![0xA5u8; 4096];
        d.read(PAddr(512 << 20), &mut buf, &mut ctx);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(d.load_u64(PAddr((1 << 30) - 8), &mut ctx), 0);
        d.zero(PAddr(3), 1 << 20, &mut ctx);
        d.quiesce();
        assert_eq!(d.resident_bytes(), 0, "reads and zeroes of unwritten space");
        d.store_u64(PAddr(1 << 29), 7, &mut ctx);
        d.write(PAddr(4), &[1u8; 8], &mut ctx);
        d.quiesce();
        let touched = d.resident_bytes();
        assert!(
            touched > 0 && touched <= 1 << 20,
            "{touched} B for two writes"
        );
        let f = d.fork();
        assert_eq!(
            f.resident_bytes(),
            touched,
            "a fork holds what its parent holds"
        );
        assert_eq!(f.load_u64(PAddr(1 << 29), &mut ctx), 7);
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
