//! FastTrack-style vector-clock happens-before analysis over a
//! race-mode device trace, plus the cross-thread persist-order rule R5
//! and lock-discipline checks.
//!
//! # Model
//!
//! The input is a [`Trace`] recorded in [`TraceMode::Race`]: a single
//! globally ordered stream in which device-level *atomic* operations
//! (and engine-level ones instrumented through
//! `PmemDevice::trace_atomic`) are serialized with their emission, so
//! the stamp order of two atomic events at one address equals their
//! memory-effect order — the stream is a linearization. That property
//! is what lets a *dynamic* analyzer resolve reads-from without
//! recording values: an acquire load reads the value of the latest
//! release write at that address in stream order.
//!
//! Each thread carries a [`VClock`]. Synchronization edges:
//!
//! * release store / RMW at address `a` publishes the writer's clock
//!   into `a`'s sync clock (a plain `Relaxed` store *clears* it — a
//!   relaxed publish gives readers nothing, which is exactly how a
//!   deliberately weakened ordering gets flagged);
//! * acquire load / RMW at `a` joins `a`'s sync clock;
//! * lock release publishes into the lock's clock, lock acquire joins
//!   it (shared/read releases publish only to later *exclusive*
//!   acquires — readers do not synchronize with each other).
//!
//! A data race is two accesses to the same 8-byte word, at least one a
//! write, at least one *plain* (non-atomic), on different threads, with
//! no happens-before edge between them. Atomic-atomic pairs never race;
//! plain-atomic pairs do (mixed-atomicity access is a race in the C++
//! model and a real bug on weak hardware).
//!
//! # Rule R5 — cross-thread persist order (ADR only)
//!
//! R1 already checks that a *committing thread's* log is durable at its
//! commit point. R5 is the concurrent version of the same contract: no
//! other thread may *observe* a commit record while the log lines it
//! covers are still undurable on the writing thread. The hazard is a
//! dependent transaction building on a commit that a crash would
//! un-happen ("Durable Queues"' durable-linearizability violation).
//! Concretely: when a `CommitRecord` hint is followed by the writer's
//! store to the commit word, the analyzer snapshots which of the
//! transaction's log lines (from `LogRange`) are not yet persisted. Any
//! read of the commit word by another thread while that set is
//! non-empty is a violation. Under eADR every store is in the
//! persistence domain and R5 is vacuous.

use std::collections::{HashMap, HashSet};
use std::fmt;

use pmem_sim::trace::{AtomicKind, Event, MemOrder, Trace, TraceMode};
use pmem_sim::{PersistDomain, CACHE_LINE};

use crate::vc::VClock;

/// Cap on recorded findings; beyond it only the counter grows (one bad
/// schedule can otherwise flood the report with copies of one race).
const MAX_FINDINGS: usize = 64;

/// What kind of concurrency violation a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Two unordered accesses, at least one write, at least one plain.
    DataRace,
    /// Rule R5: commit record observed by another thread before the
    /// writer's log lines were durable.
    PersistPublish,
    /// Lock protocol violation: released while not held (wrong thread
    /// or wrong mode), or acquired while exclusively held.
    LockDiscipline,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingKind::DataRace => write!(f, "data-race"),
            FindingKind::PersistPublish => write!(f, "persist-publish(R5)"),
            FindingKind::LockDiscipline => write!(f, "lock-discipline"),
        }
    }
}

/// One of the two sides of a finding: an event index in the trace plus
/// its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Thread that performed the access.
    pub thread: usize,
    /// Index into `Trace::events`.
    pub seq: usize,
}

/// A confirmed concurrency violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Violation class.
    pub kind: FindingKind,
    /// The 8-byte word (or lock id) involved.
    pub addr: u64,
    /// The earlier conflicting access, when there is one.
    pub prior: Option<Access>,
    /// The access that completed the violation.
    pub access: Access,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// The result of analyzing one trace.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Distinct findings (deduplicated per word/thread-pair/kind,
    /// capped at an internal limit).
    pub findings: Vec<Finding>,
    /// Total violations seen including duplicates of recorded findings.
    pub total: u64,
    /// Events analyzed.
    pub events: usize,
    /// Distinct threads observed in the trace.
    pub threads: usize,
}

impl RaceReport {
    /// Whether the trace is free of races, R5 violations and lock
    /// discipline errors.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.total == 0
    }

    /// Number of findings of `kind`.
    #[must_use]
    pub fn count_of(&self, kind: FindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }

    /// Panic with the full findings list unless clean (test helper).
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "{self}");
    }

    /// Condense into the falcon-obs run-report summary (the optional
    /// `race` section of the JSON document).
    #[must_use]
    pub fn summary(&self) -> falcon_obs::report::RaceCheckSummary {
        falcon_obs::report::RaceCheckSummary {
            threads: self.threads,
            events: self.events as u64,
            data_races: self.count_of(FindingKind::DataRace) as u64,
            persist_publishes: self.count_of(FindingKind::PersistPublish) as u64,
            lock_discipline: self.count_of(FindingKind::LockDiscipline) as u64,
        }
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "race report: {} finding(s) ({} total) over {} events, {} threads",
            self.findings.len(),
            self.total,
            self.events,
            self.threads
        )?;
        for v in &self.findings {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Per-word access history (word = aligned 8 bytes).
#[derive(Default)]
struct WordState {
    /// thread → (clock component at access, event index) for the last
    /// access of each class.
    plain_writes: HashMap<usize, (u64, usize)>,
    plain_reads: HashMap<usize, (u64, usize)>,
    atomic_writes: HashMap<usize, (u64, usize)>,
    atomic_reads: HashMap<usize, (u64, usize)>,
    /// Clock published by the latest release write (stream order);
    /// cleared by a relaxed store.
    sync: VClock,
}

/// Per-lock state.
#[derive(Default)]
struct LockState {
    /// Published to every subsequent acquire (writer releases, plus
    /// reader releases once a writer has synchronized with them).
    vc: VClock,
    /// Published by read releases; joined (and folded into `vc`) by the
    /// next exclusive acquire — readers do not synchronize with each
    /// other.
    readers_vc: VClock,
    /// Current holders (thread, exclusive).
    holders: Vec<(usize, bool)>,
}

/// Cache-line durability (mirror of falcon-check's per-line machine).
#[derive(Clone, Copy, PartialEq, Eq)]
enum LineState {
    Dirty,
    Flushing(usize),
    Persisted,
}

/// An armed commit publication: the commit word is visible with these
/// log lines still undurable.
struct Publish {
    writer: usize,
    commit_seq: usize,
    lines: HashSet<u64>,
}

struct Analyzer<'t> {
    trace: &'t Trace,
    adr: bool,
    clocks: HashMap<usize, VClock>,
    words: HashMap<u64, WordState>,
    locks: HashMap<u64, LockState>,
    // R5 machinery.
    line_state: HashMap<u64, LineState>,
    flushing: HashMap<usize, HashSet<u64>>,
    txn_lines: HashMap<usize, HashSet<u64>>,
    /// CommitRecord hint seen; armed until the writer stores the word.
    pending_commit: HashMap<usize, (u64, usize)>,
    publishes: HashMap<u64, Publish>,
    report: RaceReport,
    dedup: HashSet<(FindingKind, u64, usize, usize)>,
}

/// Analyze a race-mode trace. Persist-mode traces (which carry no
/// loads, atomic kinds or lock events) vacuously produce an empty
/// report — callers should record with `trace_start_race`.
#[must_use]
pub fn analyze(trace: &Trace) -> RaceReport {
    debug_assert_eq!(
        trace.mode,
        TraceMode::Race,
        "analyze() expects a race-mode trace"
    );
    let mut a = Analyzer {
        trace,
        adr: trace.domain == PersistDomain::Adr,
        clocks: HashMap::new(),
        words: HashMap::new(),
        locks: HashMap::new(),
        line_state: HashMap::new(),
        flushing: HashMap::new(),
        txn_lines: HashMap::new(),
        pending_commit: HashMap::new(),
        publishes: HashMap::new(),
        report: RaceReport::default(),
        dedup: HashSet::new(),
    };
    a.run();
    a.report
}

/// Aligned 8-byte words covered by `[addr, addr+len)`.
fn words(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = addr / 8;
    let last = (addr + len.max(1) - 1) / 8;
    (first..=last).map(|w| w * 8)
}

/// Cache lines covered by `[addr, addr+len)`.
fn lines(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = addr / CACHE_LINE;
    let last = (addr + len.max(1) - 1) / CACHE_LINE;
    first..=last
}

impl Analyzer<'_> {
    fn run(&mut self) {
        self.report.events = self.trace.events.len();
        for seq in 0..self.trace.events.len() {
            let ev = self.trace.events[seq];
            self.clocks.entry(ev.thread()).or_insert_with(|| {
                let mut vc = VClock::new();
                vc.tick(ev.thread());
                vc
            });
            match ev {
                Event::Store { thread, addr, len } => {
                    self.plain_access(seq, thread, addr, len, true);
                    if self.adr {
                        self.on_persist_store(thread, addr, len, seq);
                    }
                }
                Event::Load { thread, addr, len } => {
                    self.plain_access(seq, thread, addr, len, false);
                    if self.adr {
                        self.on_persist_read(thread, addr, len, seq);
                    }
                }
                Event::AtomicOp {
                    thread,
                    addr,
                    kind,
                    order,
                } => {
                    self.atomic_access(seq, thread, addr, kind, order);
                    if self.adr {
                        if kind == AtomicKind::Load {
                            self.on_persist_read(thread, addr, 8, seq);
                        } else {
                            self.on_persist_store(thread, addr, 8, seq);
                        }
                    }
                }
                Event::LockAcquire { thread, lock, excl } => {
                    self.lock_acquire(seq, thread, lock, excl);
                }
                Event::LockRelease { thread, lock, excl } => {
                    self.lock_release(seq, thread, lock, excl);
                }
                Event::Clwb {
                    thread,
                    line,
                    dirty: true,
                } if self.adr => {
                    self.line_state.insert(line, LineState::Flushing(thread));
                    self.flushing.entry(thread).or_default().insert(line);
                }
                Event::Sfence { thread } if self.adr => {
                    let flushed: Vec<u64> =
                        self.flushing.entry(thread).or_default().drain().collect();
                    for line in flushed {
                        if self.line_state.get(&line) == Some(&LineState::Flushing(thread)) {
                            self.persist_line(line);
                        }
                    }
                }
                Event::Evict { line, .. } if self.adr => self.persist_line(line),
                Event::DrainXpb => {
                    let all: Vec<u64> = self.line_state.keys().copied().collect();
                    for line in all {
                        self.persist_line(line);
                    }
                }
                Event::CrashMark => self.on_crash(),
                Event::TxnBegin { thread, .. } => {
                    self.txn_lines.insert(thread, HashSet::new());
                }
                Event::LogRange { thread, addr, len } => {
                    self.txn_lines
                        .entry(thread)
                        .or_default()
                        .extend(lines(addr, len));
                }
                Event::CommitRecord { thread, addr } => {
                    // Armed: the *store* of the commit word (the very
                    // next write there by this thread) makes it visible
                    // and snapshots the undurable log lines.
                    self.pending_commit.insert(thread, (addr / 8 * 8, seq));
                }
                _ => {}
            }
            // Each event advances its thread's clock component.
            if let Some(vc) = self.clocks.get_mut(&ev.thread()) {
                vc.tick(ev.thread());
            }
        }
        self.report.threads = self.clocks.len();
    }

    fn finding(
        &mut self,
        kind: FindingKind,
        addr: u64,
        prior: Option<Access>,
        access: Access,
        detail: String,
    ) {
        self.report.total += 1;
        let a = prior.map_or(access.thread, |p| p.thread);
        let (lo, hi) = if a <= access.thread {
            (a, access.thread)
        } else {
            (access.thread, a)
        };
        if !self.dedup.insert((kind, addr, lo, hi)) || self.report.findings.len() >= MAX_FINDINGS {
            return;
        }
        self.report.findings.push(Finding {
            kind,
            addr,
            prior,
            access,
            detail,
        });
    }

    /// The issuing thread's current clock component (its own entry).
    fn own_clock(&self, t: usize) -> u64 {
        self.clocks.get(&t).map_or(0, |vc| vc.get(t))
    }

    fn plain_access(&mut self, seq: usize, t: usize, addr: u64, len: u64, is_write: bool) {
        let c = self.own_clock(t);
        for w in words(addr, len) {
            let mut hits: Vec<(FindingKind, Access, String)> = Vec::new();
            {
                let vc = self.clocks.get(&t).expect("clock exists");
                let ws = self.words.entry(w).or_default();
                let mut check = |map: &HashMap<usize, (u64, usize)>, what: &str| {
                    for (&u, &(cu, su)) in map {
                        if u != t && !vc.covers(u, cu) {
                            hits.push((
                                FindingKind::DataRace,
                                Access { thread: u, seq: su },
                                format!(
                                    "{} word {w:#x}: thread {t} (event {seq}) unordered with \
                                     {what} by thread {u} (event {su})",
                                    if is_write { "write of" } else { "read of" },
                                ),
                            ));
                        }
                    }
                };
                // Plain writes conflict with everything; plain reads
                // conflict with any write. Atomic-atomic pairs are
                // handled in atomic_access (they never race).
                check(&ws.plain_writes, "plain write");
                if is_write {
                    check(&ws.plain_reads, "plain read");
                    check(&ws.atomic_writes, "atomic write");
                    check(&ws.atomic_reads, "atomic read");
                } else {
                    check(&ws.atomic_writes, "atomic write");
                }
                if is_write {
                    ws.plain_writes.insert(t, (c, seq));
                } else {
                    ws.plain_reads.insert(t, (c, seq));
                }
            }
            for (kind, prior, detail) in hits {
                self.finding(kind, w, Some(prior), Access { thread: t, seq }, detail);
            }
        }
    }

    fn atomic_access(
        &mut self,
        seq: usize,
        t: usize,
        addr: u64,
        kind: AtomicKind,
        order: MemOrder,
    ) {
        let w = addr / 8 * 8;
        let c = self.own_clock(t);
        let is_write = kind != AtomicKind::Load;
        let is_read = kind != AtomicKind::Store;
        let mut hits: Vec<(Access, String)> = Vec::new();
        {
            let vc = self.clocks.get_mut(&t).expect("clock exists");
            let ws = self.words.entry(w).or_default();
            {
                let mut check = |map: &HashMap<usize, (u64, usize)>, what: &str| {
                    for (&u, &(cu, su)) in map {
                        if u != t && !vc.covers(u, cu) {
                            hits.push((
                                Access { thread: u, seq: su },
                                format!(
                                    "atomic {kind:?} of word {w:#x}: thread {t} (event {seq}) \
                                     unordered with {what} by thread {u} (event {su}) — \
                                     mixed atomic/non-atomic access",
                                ),
                            ));
                        }
                    }
                };
                // Mixed-atomicity conflicts: any atomic access vs a
                // plain write; an atomic write additionally vs plain
                // reads.
                check(&ws.plain_writes, "plain write");
                if is_write {
                    check(&ws.plain_reads, "plain read");
                }
            }
            // Synchronization edges. Reads-from is resolved by stream
            // order (atomics are linearized): an acquire joins whatever
            // the latest release write published here.
            if is_read && order.is_acquire() {
                vc.join(&ws.sync);
            }
            if is_write {
                if order.is_release() {
                    if kind == AtomicKind::Store {
                        // A release store starts a fresh release
                        // sequence: readers of *this* value synchronize
                        // with this writer (and, transitively, whatever
                        // its clock already covered).
                        ws.sync = vc.clone();
                    } else {
                        // A release RMW continues the chain and adds its
                        // own clock.
                        ws.sync.join(vc);
                    }
                } else if kind == AtomicKind::Store {
                    // A relaxed store publishes nothing: readers of this
                    // value get no edge. (A relaxed RMW leaves the chain
                    // intact per the release-sequence rules.)
                    ws.sync.clear();
                }
            }
            if is_write {
                ws.atomic_writes.insert(t, (c, seq));
            }
            if is_read {
                ws.atomic_reads.insert(t, (c, seq));
            }
        }
        for (prior, detail) in hits {
            self.finding(
                FindingKind::DataRace,
                w,
                Some(prior),
                Access { thread: t, seq },
                detail,
            );
        }
    }

    fn lock_acquire(&mut self, seq: usize, t: usize, lock: u64, excl: bool) {
        let mut discipline: Option<String> = None;
        {
            let vc = self.clocks.get_mut(&t).expect("clock exists");
            let ls = self.locks.entry(lock).or_default();
            if excl {
                if let Some(&(holder, h_excl)) = ls.holders.first() {
                    discipline = Some(format!(
                        "thread {t} acquired lock {lock:#x} exclusively while thread {holder} \
                         holds it ({}) — instrumentation or lock protocol bug",
                        if h_excl { "exclusive" } else { "shared" }
                    ));
                }
                vc.join(&ls.vc);
                vc.join(&ls.readers_vc);
                // The writer has now synchronized with all prior
                // readers; later acquires inherit that through vc.
                let readers = std::mem::take(&mut ls.readers_vc);
                ls.vc.join(&readers);
            } else {
                if let Some(&(holder, _)) = ls.holders.iter().find(|&&(_, e)| e) {
                    discipline = Some(format!(
                        "thread {t} acquired lock {lock:#x} shared while thread {holder} holds \
                         it exclusively"
                    ));
                }
                vc.join(&ls.vc);
            }
            ls.holders.push((t, excl));
        }
        if let Some(detail) = discipline {
            self.finding(
                FindingKind::LockDiscipline,
                lock,
                None,
                Access { thread: t, seq },
                detail,
            );
        }
    }

    fn lock_release(&mut self, seq: usize, t: usize, lock: u64, excl: bool) {
        let mut discipline: Option<String> = None;
        {
            let vc = self.clocks.get(&t).expect("clock exists");
            let ls = self.locks.entry(lock).or_default();
            match ls.holders.iter().position(|&(h, e)| h == t && e == excl) {
                Some(i) => {
                    ls.holders.swap_remove(i);
                    if excl {
                        ls.vc.join(vc);
                    } else {
                        ls.readers_vc.join(vc);
                    }
                }
                None => {
                    discipline = Some(format!(
                        "thread {t} released lock {lock:#x} ({}) which it does not hold — \
                         released on the wrong thread or in the wrong mode",
                        if excl { "exclusive" } else { "shared" }
                    ));
                }
            }
        }
        if let Some(detail) = discipline {
            self.finding(
                FindingKind::LockDiscipline,
                lock,
                None,
                Access { thread: t, seq },
                detail,
            );
        }
    }

    // ---------------- R5: cross-thread persist order ----------------

    fn persist_line(&mut self, line: u64) {
        self.line_state.insert(line, LineState::Persisted);
        for p in self.publishes.values_mut() {
            p.lines.remove(&line);
        }
        self.publishes.retain(|_, p| !p.lines.is_empty());
    }

    fn on_persist_store(&mut self, t: usize, addr: u64, len: u64, seq: usize) {
        for line in lines(addr, len) {
            self.line_state.insert(line, LineState::Dirty);
        }
        for w in words(addr, len) {
            if let Some(&(cw, _marker_seq)) =
                self.pending_commit.get(&t).filter(|&&(cw, _)| cw == w)
            {
                // The commit word is now visible: snapshot the
                // transaction's undurable log lines.
                self.pending_commit.remove(&t);
                let undurable: HashSet<u64> = self
                    .txn_lines
                    .get(&t)
                    .map(|ls| {
                        ls.iter()
                            .filter(|l| self.line_state.get(l) != Some(&LineState::Persisted))
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default();
                if undurable.is_empty() {
                    self.publishes.remove(&cw);
                } else {
                    self.publishes.insert(
                        cw,
                        Publish {
                            writer: t,
                            commit_seq: seq,
                            lines: undurable,
                        },
                    );
                }
            } else if self.publishes.contains_key(&w) {
                // Overwritten: the commit value is no longer what a
                // reader would see.
                self.publishes.remove(&w);
            }
        }
    }

    fn on_persist_read(&mut self, t: usize, addr: u64, len: u64, seq: usize) {
        let mut hits: Vec<(u64, Access, String)> = Vec::new();
        for w in words(addr, len) {
            if let Some(p) = self.publishes.get(&w) {
                if p.writer != t && !p.lines.is_empty() {
                    hits.push((
                        w,
                        Access {
                            thread: p.writer,
                            seq: p.commit_seq,
                        },
                        format!(
                            "R5: thread {t} (event {seq}) observed the commit record at \
                             {w:#x} published by thread {} (event {}) while {} of its log \
                             line(s) are not yet flushed+fenced — a crash now would \
                             un-commit a transaction another thread already acted on",
                            p.writer,
                            p.commit_seq,
                            p.lines.len()
                        ),
                    ));
                }
            }
        }
        for (w, prior, detail) in hits {
            self.finding(
                FindingKind::PersistPublish,
                w,
                Some(prior),
                Access { thread: t, seq },
                detail,
            );
        }
    }

    fn on_crash(&mut self) {
        // A crash ends the concurrent world: recovery runs
        // single-threaded against a fresh image, so cross-thread access
        // history and in-flight publications are moot.
        self.words.clear();
        self.locks.clear();
        self.line_state.clear();
        self.flushing.clear();
        self.txn_lines.clear();
        self.pending_commit.clear();
        self.publishes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn race_trace(domain: PersistDomain, events: Vec<Event>) -> Trace {
        let mut t = Trace::synthetic(domain, events);
        t.mode = TraceMode::Race;
        t
    }

    fn store(thread: usize, addr: u64) -> Event {
        Event::Store {
            thread,
            addr,
            len: 8,
        }
    }

    fn load(thread: usize, addr: u64) -> Event {
        Event::Load {
            thread,
            addr,
            len: 8,
        }
    }

    fn atomic(thread: usize, addr: u64, kind: AtomicKind, order: MemOrder) -> Event {
        Event::AtomicOp {
            thread,
            addr,
            kind,
            order,
        }
    }

    #[test]
    fn unsynchronized_writes_race() {
        let t = race_trace(PersistDomain::Eadr, vec![store(0, 64), store(1, 64)]);
        let r = analyze(&t);
        assert_eq!(r.count_of(FindingKind::DataRace), 1, "{r}");
    }

    #[test]
    fn release_acquire_orders_payload() {
        // Thread 0 writes payload then release-publishes; thread 1
        // acquire-loads then reads payload. No race.
        let t = race_trace(
            PersistDomain::Eadr,
            vec![
                store(0, 64),
                atomic(0, 128, AtomicKind::Store, MemOrder::Release),
                atomic(1, 128, AtomicKind::Load, MemOrder::Acquire),
                load(1, 64),
            ],
        );
        analyze(&t).assert_clean();
    }

    #[test]
    fn relaxed_publish_is_flagged() {
        // Same shape but the publish is relaxed: the payload read races.
        let t = race_trace(
            PersistDomain::Eadr,
            vec![
                store(0, 64),
                atomic(0, 128, AtomicKind::Store, MemOrder::Relaxed),
                atomic(1, 128, AtomicKind::Load, MemOrder::Acquire),
                load(1, 64),
            ],
        );
        let r = analyze(&t);
        assert_eq!(r.count_of(FindingKind::DataRace), 1, "{r}");
    }

    #[test]
    fn rmw_chain_carries_release_sequence() {
        // Release store, then a SeqCst RMW by a third party, then an
        // acquire load: the acquire still synchronizes with the
        // original release (release sequence through the RMW).
        let t = race_trace(
            PersistDomain::Eadr,
            vec![
                store(0, 64),
                atomic(0, 128, AtomicKind::Store, MemOrder::Release),
                atomic(2, 128, AtomicKind::Rmw, MemOrder::SeqCst),
                atomic(1, 128, AtomicKind::Load, MemOrder::Acquire),
                load(1, 64),
            ],
        );
        analyze(&t).assert_clean();
    }

    #[test]
    fn lock_protects_plain_accesses() {
        let t = race_trace(
            PersistDomain::Eadr,
            vec![
                Event::LockAcquire {
                    thread: 0,
                    lock: 1,
                    excl: true,
                },
                store(0, 64),
                Event::LockRelease {
                    thread: 0,
                    lock: 1,
                    excl: true,
                },
                Event::LockAcquire {
                    thread: 1,
                    lock: 1,
                    excl: true,
                },
                store(1, 64),
                Event::LockRelease {
                    thread: 1,
                    lock: 1,
                    excl: true,
                },
            ],
        );
        analyze(&t).assert_clean();
    }

    #[test]
    fn readers_do_not_synchronize_each_other() {
        // Two read-critical-sections around conflicting plain writes:
        // the shared lock provides no edge between them.
        let t = race_trace(
            PersistDomain::Eadr,
            vec![
                Event::LockAcquire {
                    thread: 0,
                    lock: 1,
                    excl: false,
                },
                store(0, 64),
                Event::LockRelease {
                    thread: 0,
                    lock: 1,
                    excl: false,
                },
                Event::LockAcquire {
                    thread: 1,
                    lock: 1,
                    excl: false,
                },
                store(1, 64),
                Event::LockRelease {
                    thread: 1,
                    lock: 1,
                    excl: false,
                },
            ],
        );
        let r = analyze(&t);
        assert_eq!(r.count_of(FindingKind::DataRace), 1, "{r}");
    }

    #[test]
    fn wrong_thread_release_is_flagged() {
        let t = race_trace(
            PersistDomain::Eadr,
            vec![
                Event::LockAcquire {
                    thread: 0,
                    lock: 9,
                    excl: true,
                },
                Event::LockRelease {
                    thread: 1,
                    lock: 9,
                    excl: true,
                },
            ],
        );
        let r = analyze(&t);
        assert_eq!(r.count_of(FindingKind::LockDiscipline), 1, "{r}");
    }

    #[test]
    fn r5_publish_before_flush_fires_under_adr() {
        // Writer: log store (never flushed), commit record, commit-word
        // store; reader: loads the commit word. ADR → R5.
        let t = race_trace(
            PersistDomain::Adr,
            vec![
                Event::TxnBegin { thread: 0, tid: 7 },
                Event::LogRange {
                    thread: 0,
                    addr: 4096,
                    len: 64,
                },
                store(0, 4096),
                Event::CommitRecord {
                    thread: 0,
                    addr: 8192,
                },
                atomic(0, 8192, AtomicKind::Store, MemOrder::Release),
                atomic(1, 8192, AtomicKind::Load, MemOrder::Acquire),
            ],
        );
        let r = analyze(&t);
        assert_eq!(r.count_of(FindingKind::PersistPublish), 1, "{r}");
    }

    #[test]
    fn r5_quiet_when_log_flushed_first() {
        let t = race_trace(
            PersistDomain::Adr,
            vec![
                Event::TxnBegin { thread: 0, tid: 7 },
                Event::LogRange {
                    thread: 0,
                    addr: 4096,
                    len: 64,
                },
                store(0, 4096),
                Event::Clwb {
                    thread: 0,
                    line: 64,
                    dirty: true,
                },
                Event::Sfence { thread: 0 },
                Event::CommitRecord {
                    thread: 0,
                    addr: 8192,
                },
                atomic(0, 8192, AtomicKind::Store, MemOrder::Release),
                atomic(1, 8192, AtomicKind::Load, MemOrder::Acquire),
            ],
        );
        analyze(&t).assert_clean();
    }

    #[test]
    fn r5_vacuous_under_eadr() {
        let t = race_trace(
            PersistDomain::Eadr,
            vec![
                Event::TxnBegin { thread: 0, tid: 7 },
                Event::LogRange {
                    thread: 0,
                    addr: 4096,
                    len: 64,
                },
                store(0, 4096),
                Event::CommitRecord {
                    thread: 0,
                    addr: 8192,
                },
                atomic(0, 8192, AtomicKind::Store, MemOrder::Release),
                atomic(1, 8192, AtomicKind::Load, MemOrder::Acquire),
            ],
        );
        analyze(&t).assert_clean();
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let t = race_trace(
            PersistDomain::Eadr,
            vec![store(0, 64), load(0, 64), store(0, 64)],
        );
        analyze(&t).assert_clean();
    }
}
