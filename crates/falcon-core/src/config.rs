//! Engine configuration: the axes of Table 1 and the ablation lattice of
//! Figure 10.
//!
//! Every engine the paper evaluates is a point in a small configuration
//! space; this module defines the axes and the eight named presets
//! (plus the ablation intermediates).

/// How committed changes reach the tuple heap (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateStrategy {
    /// Log first, then modify the tuple in place (Falcon, Inp).
    InPlace,
    /// Write a new version and repoint the index (Zen, Outp); log-free.
    OutOfPlace,
}

/// What gets explicitly flushed with `clwb` (§4.4, §6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushPolicy {
    /// No `clwb` at all ("No Flush" variants).
    None,
    /// Flush every touched tuple ("All Flush", Inp, Outp, ZenS).
    All,
    /// Hinted flush + hot-tuple tracking (Falcon's selective data flush).
    Selective,
}

/// Where redo logs live (in-place engines only; out-of-place is
/// log-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogPolicy {
    /// The small log window: a per-thread cache-resident ring reused
    /// across transactions, never explicitly flushed (D1).
    SmallWindow,
    /// A conventional large per-thread NVM log region, flushed on every
    /// commit (the classic in-place design, Inp).
    NvmLog,
}

/// Where indexes live (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexLocation {
    /// Persistent NVM indexes (Dash / NBTree): instant recovery.
    Nvm,
    /// DRAM indexes: faster probes, rebuilt by a heap scan on recovery.
    Dram,
}

/// Concurrency-control algorithm (§5.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgo {
    /// Two-phase locking, no-wait deadlock avoidance.
    TwoPl,
    /// Timestamp ordering.
    To,
    /// Optimistic concurrency control (3-phase).
    Occ,
    /// Multi-version 2PL: read-only transactions read snapshots.
    Mv2pl,
    /// Multi-version TO.
    Mvto,
    /// Multi-version OCC.
    Mvocc,
}

impl CcAlgo {
    /// Whether this algorithm keeps old versions for snapshot reads.
    pub fn multi_version(self) -> bool {
        matches!(self, CcAlgo::Mv2pl | CcAlgo::Mvto | CcAlgo::Mvocc)
    }

    /// The single-version algorithm this is based on.
    pub fn base(self) -> CcAlgo {
        match self {
            CcAlgo::Mv2pl => CcAlgo::TwoPl,
            CcAlgo::Mvto => CcAlgo::To,
            CcAlgo::Mvocc => CcAlgo::Occ,
            other => other,
        }
    }

    /// All six algorithms, in the paper's Figure 7 order.
    pub fn all() -> [CcAlgo; 6] {
        [
            CcAlgo::TwoPl,
            CcAlgo::To,
            CcAlgo::Occ,
            CcAlgo::Mv2pl,
            CcAlgo::Mvto,
            CcAlgo::Mvocc,
        ]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgo::TwoPl => "2PL",
            CcAlgo::To => "TO",
            CcAlgo::Occ => "OCC",
            CcAlgo::Mv2pl => "MV2PL",
            CcAlgo::Mvto => "MVTO",
            CcAlgo::Mvocc => "MVOCC",
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Display name of the engine variant.
    pub name: &'static str,
    /// Update strategy.
    pub update: UpdateStrategy,
    /// Flush policy.
    pub flush: FlushPolicy,
    /// Log policy (ignored for out-of-place engines).
    pub log: LogPolicy,
    /// Index location.
    pub index: IndexLocation,
    /// Whether a DRAM tuple cache absorbs hot reads (ZenS).
    pub tuple_cache: bool,
    /// Concurrency-control algorithm.
    pub cc: CcAlgo,
    /// Number of worker threads the engine is opened for.
    pub threads: usize,
    /// Capacity of the per-thread hot-tuple LRU (selective flush).
    pub hot_capacity: usize,
    /// Redo-log slots per small log window (the paper's 2–3
    /// transactions).
    pub window_slots: usize,
    /// Ring capacity of the small log window, bytes per thread.
    pub window_bytes: u64,
    /// Version-queue length that triggers GC (§5.4).
    pub version_gc_threshold: usize,
    /// Whether fuzzy checkpoints run at all (in-place engines only;
    /// out-of-place engines are log-free and never spill).
    pub ckpt_enabled: bool,
    /// Hard capacity of the per-thread overflow-spill region, bytes.
    /// Appends past this stall behind an inline drain checkpoint
    /// (bounded backpressure) instead of growing without bound.
    pub ckpt_spill_cap: u64,
    /// Spill-tail length that triggers a boundary checkpoint after the
    /// next commit. Must be ≤ `ckpt_spill_cap`.
    pub ckpt_spill_threshold: u64,
    /// Group commit: defer the commit fence out of the per-transaction
    /// path so a batch of transactions shares one `sfence` (issued by
    /// [`Engine::group_fence`](crate::Engine::group_fence)). Only legal
    /// for the in-place small-log-window engines under eADR, where the
    /// COMMITTED stamp is persistent at store time and the fence buys
    /// ordering/visibility, not durability; the NVM-log engines flush
    /// per commit and cannot defer.
    pub group_commit: bool,
}

impl EngineConfig {
    fn base(name: &'static str) -> EngineConfig {
        EngineConfig {
            name,
            update: UpdateStrategy::InPlace,
            flush: FlushPolicy::Selective,
            log: LogPolicy::SmallWindow,
            index: IndexLocation::Nvm,
            tuple_cache: false,
            cc: CcAlgo::Occ,
            threads: 4,
            hot_capacity: 512,
            window_slots: 3,
            window_bytes: 24 << 10,
            version_gc_threshold: 256,
            ckpt_enabled: true,
            ckpt_spill_cap: 16 << 20,
            ckpt_spill_threshold: 8 << 20,
            group_commit: false,
        }
    }

    /// **Falcon** — in-place, small log window, selective data flush,
    /// NVM index.
    pub fn falcon() -> EngineConfig {
        Self::base("Falcon")
    }

    /// **Falcon (No Flush)** — Falcon with all `clwb` removed.
    pub fn falcon_no_flush() -> EngineConfig {
        EngineConfig {
            flush: FlushPolicy::None,
            ..Self::base("Falcon (No Flush)")
        }
    }

    /// **Falcon (All Flush)** — Falcon without hot-tuple tracking
    /// (equivalently: Inp + small log window; the paper uses both
    /// descriptions).
    pub fn falcon_all_flush() -> EngineConfig {
        EngineConfig {
            flush: FlushPolicy::All,
            ..Self::base("Falcon (All Flush)")
        }
    }

    /// **Falcon (DRAM Index)** — Falcon with indexes in DRAM.
    pub fn falcon_dram_index() -> EngineConfig {
        EngineConfig {
            index: IndexLocation::Dram,
            ..Self::base("Falcon (DRAM Index)")
        }
    }

    /// **Inp** — pure in-place engine: NVM redo log, flush-all.
    pub fn inp() -> EngineConfig {
        EngineConfig {
            log: LogPolicy::NvmLog,
            flush: FlushPolicy::All,
            ..Self::base("Inp")
        }
    }

    /// **Inp (No Flush)** — Inp with all `clwb` removed (the Figure 10
    /// baseline).
    pub fn inp_no_flush() -> EngineConfig {
        EngineConfig {
            log: LogPolicy::NvmLog,
            flush: FlushPolicy::None,
            ..Self::base("Inp (No Flush)")
        }
    }

    /// **Inp (Small Log Window)** — Inp plus D1 (same engine point as
    /// Falcon (All Flush), kept as a distinct name for Figure 11).
    pub fn inp_small_log_window() -> EngineConfig {
        EngineConfig {
            flush: FlushPolicy::All,
            ..Self::base("Inp (Small Log Window)")
        }
    }

    /// **Inp (Hot Tuple Tracking)** — Inp plus D2's hot-tuple LRU.
    pub fn inp_hot_tuple_tracking() -> EngineConfig {
        EngineConfig {
            log: LogPolicy::NvmLog,
            flush: FlushPolicy::Selective,
            ..Self::base("Inp (Hot Tuple Tracking)")
        }
    }

    /// **Outp** — pure out-of-place engine: log-free, NVM index,
    /// flush-all.
    pub fn outp() -> EngineConfig {
        EngineConfig {
            update: UpdateStrategy::OutOfPlace,
            flush: FlushPolicy::All,
            ..Self::base("Outp")
        }
    }

    /// **ZenS** — the re-implemented Zen storage engine: out-of-place,
    /// DRAM index, DRAM tuple cache, flush-all.
    pub fn zens() -> EngineConfig {
        EngineConfig {
            update: UpdateStrategy::OutOfPlace,
            flush: FlushPolicy::All,
            index: IndexLocation::Dram,
            tuple_cache: true,
            ..Self::base("ZenS")
        }
    }

    /// **ZenS (No Flush)** — ZenS with all `clwb` removed.
    pub fn zens_no_flush() -> EngineConfig {
        EngineConfig {
            update: UpdateStrategy::OutOfPlace,
            flush: FlushPolicy::None,
            index: IndexLocation::Dram,
            tuple_cache: true,
            ..Self::base("ZenS (No Flush)")
        }
    }

    /// The eight engines of the overall-performance figures (7–9), in
    /// the paper's legend order.
    pub fn overall_lineup() -> Vec<EngineConfig> {
        vec![
            Self::falcon_dram_index(),
            Self::falcon(),
            Self::falcon_all_flush(),
            Self::falcon_no_flush(),
            Self::inp(),
            Self::outp(),
            Self::zens_no_flush(),
            Self::zens(),
        ]
    }

    /// The five engines of the ablation/scalability figure (11).
    pub fn ablation_lineup() -> Vec<EngineConfig> {
        vec![
            Self::inp(),
            Self::inp_small_log_window(),
            Self::inp_no_flush(),
            Self::inp_hot_tuple_tracking(),
            Self::falcon(),
        ]
    }

    /// Builder-style: set the CC algorithm.
    pub fn with_cc(mut self, cc: CcAlgo) -> Self {
        self.cc = cc;
        self
    }

    /// Builder-style: set the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style: enable or disable fuzzy checkpointing.
    pub fn with_ckpt(mut self, enabled: bool) -> Self {
        self.ckpt_enabled = enabled;
        self
    }

    /// Builder-style: set the spill-region cap and trigger threshold.
    pub fn with_spill_cap(mut self, cap: u64, threshold: u64) -> Self {
        self.ckpt_spill_cap = cap;
        self.ckpt_spill_threshold = threshold;
        self
    }

    /// Builder-style: enable or disable group commit (deferred
    /// commit fence, batched by the caller via `Engine::group_fence`).
    pub fn with_group_commit(mut self, enabled: bool) -> Self {
        self.group_commit = enabled;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 || self.threads > falcon_storage::MAX_THREADS {
            return Err(format!(
                "threads must be in 1..={}",
                falcon_storage::MAX_THREADS
            ));
        }
        if self.window_slots == 0 {
            return Err("window_slots must be non-zero".into());
        }
        if self.window_bytes < 1024 {
            return Err("window_bytes too small".into());
        }
        if self.ckpt_spill_cap < 4096 {
            return Err("ckpt_spill_cap must be at least 4096 bytes".into());
        }
        if self.ckpt_spill_threshold > self.ckpt_spill_cap {
            return Err("ckpt_spill_threshold must not exceed ckpt_spill_cap".into());
        }
        if self.update == UpdateStrategy::OutOfPlace && self.log == LogPolicy::NvmLog {
            // Out-of-place is log-free; the log policy is ignored but we
            // keep the default to make configs comparable.
        }
        if self.group_commit
            && (self.update != UpdateStrategy::InPlace || self.log != LogPolicy::SmallWindow)
        {
            return Err(
                "group_commit requires the in-place small-log-window engine \
                 (NVM-log and out-of-place engines cannot defer their commit fence)"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_feature_matrix() {
        // The exact feature combinations of Table 1.
        let z = EngineConfig::zens();
        assert_eq!(z.update, UpdateStrategy::OutOfPlace);
        assert_eq!(z.index, IndexLocation::Dram);
        assert!(z.tuple_cache);
        assert_eq!(z.flush, FlushPolicy::All);

        let znf = EngineConfig::zens_no_flush();
        assert_eq!(znf.flush, FlushPolicy::None);
        assert!(znf.tuple_cache);

        let o = EngineConfig::outp();
        assert_eq!(o.update, UpdateStrategy::OutOfPlace);
        assert_eq!(o.index, IndexLocation::Nvm);
        assert!(!o.tuple_cache);

        let i = EngineConfig::inp();
        assert_eq!(i.update, UpdateStrategy::InPlace);
        assert_eq!(i.log, LogPolicy::NvmLog);
        assert_eq!(i.flush, FlushPolicy::All);

        let f = EngineConfig::falcon();
        assert_eq!(f.update, UpdateStrategy::InPlace);
        assert_eq!(f.log, LogPolicy::SmallWindow);
        assert_eq!(f.flush, FlushPolicy::Selective);
        assert_eq!(f.index, IndexLocation::Nvm);

        let fd = EngineConfig::falcon_dram_index();
        assert_eq!(fd.index, IndexLocation::Dram);
        assert_eq!(fd.flush, FlushPolicy::Selective);
    }

    #[test]
    fn figure10_ablation_lattice() {
        // Inp (No Flush) --+clwb--> Inp --+SLW--> Inp (SLW)
        //                        \--+HTT--> Inp (HTT);  all --> Falcon.
        let base = EngineConfig::inp_no_flush();
        let inp = EngineConfig::inp();
        assert_eq!(base.log, inp.log);
        assert_eq!(base.flush, FlushPolicy::None);
        assert_eq!(inp.flush, FlushPolicy::All);

        let slw = EngineConfig::inp_small_log_window();
        assert_eq!(slw.log, LogPolicy::SmallWindow);
        assert_eq!(slw.flush, inp.flush);

        let htt = EngineConfig::inp_hot_tuple_tracking();
        assert_eq!(htt.log, inp.log);
        assert_eq!(htt.flush, FlushPolicy::Selective);

        let falcon = EngineConfig::falcon();
        assert_eq!(falcon.log, slw.log);
        assert_eq!(falcon.flush, htt.flush);

        // Falcon (All Flush) is the same engine point as Inp (SLW).
        let faf = EngineConfig::falcon_all_flush();
        assert_eq!(
            (faf.update, faf.log, faf.flush),
            (slw.update, slw.log, slw.flush)
        );
    }

    #[test]
    fn lineups_have_expected_sizes() {
        assert_eq!(EngineConfig::overall_lineup().len(), 8);
        assert_eq!(EngineConfig::ablation_lineup().len(), 5);
        for c in EngineConfig::overall_lineup() {
            c.validate().unwrap();
        }
    }

    #[test]
    fn cc_helpers() {
        assert!(CcAlgo::Mvto.multi_version());
        assert!(!CcAlgo::To.multi_version());
        assert_eq!(CcAlgo::Mvocc.base(), CcAlgo::Occ);
        assert_eq!(CcAlgo::all().len(), 6);
        assert_eq!(CcAlgo::Mv2pl.name(), "MV2PL");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(EngineConfig::falcon().with_threads(0).validate().is_err());
        assert!(EngineConfig::falcon().with_threads(65).validate().is_err());
        let mut c = EngineConfig::falcon();
        c.window_bytes = 100;
        assert!(c.validate().is_err());
        let mut c = EngineConfig::falcon();
        c.ckpt_spill_cap = 100;
        assert!(c.validate().is_err());
        let c = EngineConfig::falcon().with_spill_cap(8192, 16384);
        assert!(c.validate().is_err());
        let c = EngineConfig::falcon()
            .with_spill_cap(16384, 8192)
            .with_ckpt(false);
        assert!(c.validate().is_ok());
        assert!(!c.ckpt_enabled);
    }

    #[test]
    fn group_commit_only_for_small_window_in_place() {
        assert!(EngineConfig::falcon()
            .with_group_commit(true)
            .validate()
            .is_ok());
        assert!(EngineConfig::falcon_all_flush()
            .with_group_commit(true)
            .validate()
            .is_ok());
        // NVM-log commits flush per transaction; deferring is unsound.
        assert!(EngineConfig::inp()
            .with_group_commit(true)
            .validate()
            .is_err());
        // Out-of-place engines have no log-window commit to defer.
        assert!(EngineConfig::outp()
            .with_group_commit(true)
            .validate()
            .is_err());
        assert!(EngineConfig::zens()
            .with_group_commit(true)
            .validate()
            .is_err());
        // Default stays off everywhere.
        for c in EngineConfig::overall_lineup() {
            assert!(!c.group_commit);
        }
    }
}
