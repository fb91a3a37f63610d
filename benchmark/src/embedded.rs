//! The four embedded workloads: `ycsb_c`, `ycsb_a`, `tpcc`, `tpcc_2w`.
//!
//! All four run through `falcon_wl::harness::run` (the repository's
//! own loop: real threads, Pacer, retry policy, GC calls) with the
//! workload wrapped in [`Timed`], which reads the host clock and the
//! worker's virtual clock around every `Workload::txn` call. Op counts
//! are fixed by `--seconds`, so the virtual-clock numbers of the
//! single-worker workloads are exact for a seed. After the measured
//! window power is cut at a seeded device event, the engine is
//! recovered and its contents checked.

use std::sync::Mutex;
use std::time::Instant;

use crate::gen::subseed;
use crate::metrics::Report;
use crate::probes;
use crate::stats::{
    better_quartile, median, p50_p99, percentile, ratio, segment_rates, P95_MIN_SAMPLES,
};
use crate::surface::{
    self, Engine, Loaded, RecoveryOutcome, RunOutcome, StdRng, TxnError, Worker, Workload,
};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::{peak_rss_mb, put_device_counters, put_recovery, Outcome, SETUPS, TRACED_DIVISOR};

/// Equal-op-count segments the measured transactions are split into
/// (over all windows). Host-clock end-to-end metrics are the better
/// quartile over them.
pub const SEGMENTS: u64 = 20;

/// Which embedded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// YCSB-C: read only.
    YcsbC,
    /// YCSB-A: 50 % update.
    YcsbA,
    /// TPC-C, one worker.
    Tpcc,
    /// TPC-C, two workers.
    Tpcc2w,
}

/// Op counts per worker. `per_second` is how many transactions one
/// worker commits per host second on the 2-core box the benchmark was
/// sized on (≈1.9, 7.2 and 180 µs per transaction; 2 500/s per worker
/// under the 2-worker Pacer), so a window of `--seconds × per_second`
/// lasts about `--seconds` there. The counts, not the clock, end the
/// window: that is what makes the virtual numbers repeat.
struct Sizes {
    threads: usize,
    /// Separate `harness::run` calls the measured transactions are
    /// split over, each with its own warm-up and fresh worker threads.
    /// On the 2-core box a 2-worker run settles, when its threads
    /// start, into one of two speeds 20 % apart and keeps it; four
    /// starts make it unlikely that every segment is a slow one. One
    /// window for single-worker workloads, whose virtual numbers must
    /// not depend on such a split.
    windows: u64,
    warm: u64,
    per_second: u64,
    /// Transactions per worker in each half of the power-cut tail.
    cut_tail: u64,
}

impl Kind {
    fn sizes(self) -> Sizes {
        match self {
            Kind::YcsbC => Sizes {
                threads: 1,
                windows: 1,
                warm: 300_000,
                per_second: 500_000,
                cut_tail: 2_000,
            },
            Kind::YcsbA => Sizes {
                threads: 1,
                windows: 1,
                warm: 100_000,
                per_second: 140_000,
                cut_tail: 2_000,
            },
            Kind::Tpcc => Sizes {
                threads: 1,
                windows: 1,
                warm: 5_000,
                per_second: 5_500,
                cut_tail: 500,
            },
            Kind::Tpcc2w => Sizes {
                threads: 2,
                windows: 4,
                // The first `warm` measured transactions of each worker
                // run unpaced (the other worker is held back until the
                // clocks, reset after warm-up, meet again): keep that
                // well inside one segment.
                warm: 500,
                per_second: 2_500,
                cut_tail: 250,
            },
        }
    }
}

/// The workload driver of either family.
enum Family {
    Ycsb(surface::Ycsb),
    Tpcc(surface::Tpcc),
}

/// A loaded database: the workload driver and the engine holding its
/// tables.
pub struct Db {
    family: Family,
    engine: Engine,
}

impl Db {
    fn load(kind: Kind, txns_total: u64) -> Db {
        let ycsb = |l: Loaded<surface::Ycsb>| Db {
            family: Family::Ycsb(l.workload),
            engine: l.engine,
        };
        let tpcc = |l: Loaded<surface::Tpcc>| Db {
            family: Family::Tpcc(l.workload),
            engine: l.engine,
        };
        match kind {
            Kind::YcsbC => ycsb(surface::load_ycsb(true)),
            Kind::YcsbA => ycsb(surface::load_ycsb(false)),
            Kind::Tpcc => tpcc(surface::load_tpcc(1, txns_total)),
            Kind::Tpcc2w => tpcc(surface::load_tpcc(2, txns_total)),
        }
    }

    /// The engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn workload(&self) -> &dyn Workload {
        match &self.family {
            Family::Ycsb(w) => w,
            Family::Tpcc(w) => w,
        }
    }

    /// Crash the device (applying the armed power cut) and carry on
    /// with the engine recovered from what survived.
    fn crash_and_recover(self) -> Result<(Db, RecoveryOutcome), String> {
        let (engine, rec) = surface::crash_and_recover(self.engine)?;
        Ok((
            Db {
                family: self.family,
                engine,
            },
            rec,
        ))
    }

    /// Check the database contents; returns `(checks made, failures)`.
    fn check(&self) -> (u64, Vec<String>) {
        let r = match &self.family {
            Family::Ycsb(_) => surface::check_ycsb(&self.engine),
            Family::Tpcc(t) => surface::check_tpcc(&self.engine, t),
        };
        match r {
            Ok(n) => (n, Vec::new()),
            Err(e) => (1, vec![e]),
        }
    }
}

// ----------------------------------------------------------------------
// The timing wrapper.
// ----------------------------------------------------------------------

/// What one worker thread recorded during the measured window.
#[derive(Debug, Default)]
struct ThreadRec {
    /// `Ok` results so far, warm-up included.
    oks: u64,
    /// Host time at each segment boundary (first entry: window start),
    /// and how many calls had been made by then.
    marks_ns: Vec<u64>,
    marks_calls: Vec<usize>,
    /// Host ns of every call of the window, in order.
    host: Vec<u32>,
    /// Virtual clock when the current transaction slot began (its
    /// first attempt), so retries and backoff are included.
    slot_start: Option<u64>,
    /// Committed calls only: host ns, virtual ns (slot), type index.
    c_host: Vec<u32>,
    c_virt: Vec<u32>,
    c_ty: Vec<u8>,
    /// Traced segments only: `(start, end)` of each call, ns since the
    /// tracer's origin.
    spans: Vec<(u64, u64)>,
    /// Checkpoint counters at window start and at the last call.
    ckpt0: (u64, u64),
    ckpt: (u64, u64),
}

/// `Workload` adapter that times every `txn` call of the measured
/// window. The harness counts warm-up by `Ok` results per thread, and
/// so does this.
struct Timed<'a> {
    inner: &'a dyn Workload,
    warm: u64,
    per_segment: u64,
    /// Record spans in even segments (the traced pass); odd segments
    /// stay untraced so the two can be compared within one run.
    traced: bool,
    origin: Instant,
    threads: Vec<Mutex<ThreadRec>>,
}

fn clamp_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl Workload for Timed<'_> {
    fn setup(&self, _engine: &Engine) {
        unreachable!("the database is loaded before it is wrapped");
    }

    fn txn(&self, engine: &Engine, w: &mut Worker, rng: &mut StdRng) -> Result<usize, TxnError> {
        let mut rec = self.threads[surface::worker_thread(w)]
            .lock()
            .expect("a worker thread panicked while recording");
        if rec.oks < self.warm {
            let r = surface::workload_txn(self.inner, engine, w, rng);
            rec.oks += u64::from(r.is_ok());
            return r;
        }
        let now = || self.origin.elapsed().as_nanos() as u64;
        if rec.marks_ns.is_empty() {
            rec.ckpt0 = surface::worker_ckpt(w);
            rec.marks_ns.push(now());
            rec.marks_calls.push(0);
        }
        let segment = (rec.oks - self.warm) / self.per_segment;
        let slot_start = *rec.slot_start.get_or_insert(surface::worker_clock(w));
        let t0 = now();
        let r = surface::workload_txn(self.inner, engine, w, rng);
        let t1 = now();
        let host = clamp_u32(t1 - t0);
        if self.traced && segment.is_multiple_of(2) {
            rec.spans.push((t0, t1));
        }
        rec.host.push(host);
        if let Ok(ty) = r {
            rec.c_host.push(host);
            rec.c_virt
                .push(clamp_u32(surface::worker_clock(w) - slot_start));
            rec.c_ty.push(ty as u8);
            rec.slot_start = None;
            rec.oks += 1;
            if (rec.oks - self.warm).is_multiple_of(self.per_segment) {
                rec.marks_ns.push(t1);
                let calls = rec.host.len();
                rec.marks_calls.push(calls);
            }
        }
        rec.ckpt = surface::worker_ckpt(w);
        r
    }

    fn txn_types(&self) -> &'static [&'static str] {
        surface::workload_types(self.inner)
    }
}

/// Everything measured in one window: one `harness::run` call.
struct Window {
    run: RunOutcome,
    recs: Vec<ThreadRec>,
    per_segment: u64,
    segments: usize,
}

fn run_window(
    db: &Db,
    sizes: &Sizes,
    per_worker: u64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Window {
    let segments = SEGMENTS / sizes.windows;
    let timed = Timed {
        inner: db.workload(),
        warm: sizes.warm,
        per_segment: per_worker / segments,
        traced: tracer.is_some(),
        origin: tracer.map_or_else(Instant::now, Tracer::origin),
        threads: (0..sizes.threads).map(|_| Mutex::default()).collect(),
    };
    let run = surface::run_harness(db.engine(), &timed, per_worker, sizes.warm, seed);
    Window {
        run,
        per_segment: timed.per_segment,
        segments: segments as usize,
        recs: timed
            .threads
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("a worker thread panicked while recording")
            })
            .collect(),
    }
}

/// Host-clock figures of one segment, over all workers.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Committed transactions per second, summed over workers.
    rate: f64,
    /// Host time of a `Workload::txn` call, failed attempts included.
    p50: u32,
    p95: u32,
    samples: usize,
}

impl Window {
    fn segments(&self) -> Vec<Segment> {
        let mut rates = vec![0.0; self.segments];
        for r in &self.recs {
            for (sum, rate) in rates
                .iter_mut()
                .zip(segment_rates(&r.marks_ns, self.per_segment))
            {
                *sum += rate;
            }
        }
        (0..self.segments)
            .map(|k| {
                let mut calls: Vec<u32> = self
                    .recs
                    .iter()
                    .flat_map(|r| &r.host[r.marks_calls[k]..r.marks_calls[k + 1]])
                    .copied()
                    .collect();
                calls.sort_unstable();
                Segment {
                    rate: rates[k],
                    p50: percentile(&calls, 50.0),
                    p95: percentile(&calls, 95.0),
                    samples: calls.len(),
                }
            })
            .collect()
    }

    /// Longest worker window, seconds.
    fn host_run_s(&self) -> f64 {
        self.recs
            .iter()
            .map(|r| (r.marks_ns[self.segments] - r.marks_ns[0]) as f64 / 1e9)
            .fold(0.0, f64::max)
    }

    /// Sum of worker windows, ns (host time spent, not elapsed).
    fn host_busy_ns(&self) -> f64 {
        self.recs
            .iter()
            .map(|r| (r.marks_ns[self.segments] - r.marks_ns[0]) as f64)
            .sum()
    }
}

// ----------------------------------------------------------------------
// The run.
// ----------------------------------------------------------------------

/// Run one embedded workload, untraced (`tracer == None`: end-to-end
/// metrics) or traced (quarter length, spans, layer probes).
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let sizes = kind.sizes();
    let traced = tracer.is_some();
    let divisor = if traced { TRACED_DIVISOR } else { 1 };
    // Per worker and window: a multiple of the segments in a window,
    // so segments hold equal op counts.
    let segments = SEGMENTS / sizes.windows;
    let per_window = (sizes.per_second * seconds / divisor / SEGMENTS).max(1) * segments;
    let txns_total = sizes.threads as u64
        * (sizes.windows * (sizes.warm + per_window) + 2 * sizes.cut_tail)
        + probes::TXN_BUDGET;
    let mut report = Report::new();
    let mut problems: Vec<String> = Vec::new();

    // Set-up: engine create + load. Timed several times when it is a
    // reported metric; the last database is the one measured.
    let mut setup_s = Vec::new();
    let mut db = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(db.take());
        let t0 = Instant::now();
        db = Some(Db::load(kind, txns_total));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let db = db.expect("at least one set-up");

    // The measured windows.
    let root: SpanId = match tracer.as_deref_mut() {
        Some(t) => t.open("run", NO_PARENT, 0),
        None => NO_PARENT,
    };
    // (The harness seeds worker `t` with `seed + t`: mix, so windows
    // do not share streams.)
    let window_seed = subseed(seed, "window");
    let mut wins: Vec<Window> = (0..sizes.windows)
        .map(|i| {
            run_window(
                &db,
                &sizes,
                per_window,
                crate::gen::mix(window_seed, i),
                tracer.as_deref(),
            )
        })
        .collect();
    if let Some(t) = tracer.as_deref_mut() {
        t.close(root);
        let mut op = 0;
        for rec in wins.iter_mut().flat_map(|w| &mut w.recs) {
            for (start, end) in rec.spans.drain(..) {
                t.add("wl.txn", root, op, start, end);
                op += 1;
            }
        }
    }
    // Totals over the windows (one window on single-worker workloads).
    let mut run = RunOutcome::default();
    for w in &wins {
        run.requested += w.run.requested;
        run.committed += w.run.committed;
        run.aborted += w.run.aborted;
        run.dropped += w.run.dropped;
        run.virt_elapsed_ns += w.run.virt_elapsed_ns;
        run.counters = run.counters.plus(&w.run.counters);
    }
    if run.committed + run.dropped != run.requested {
        problems.push(format!(
            "committed {} + dropped {} != requested {}",
            run.committed, run.dropped, run.requested
        ));
    }
    if run.dropped > 0 {
        problems.push(format!(
            "{} transactions dropped after the retry budget",
            run.dropped
        ));
    }
    let recs = || wins.iter().flat_map(|w| &w.recs);
    let host_run_s: f64 = wins.iter().map(Window::host_run_s).sum();
    let host_busy_ns: f64 = wins.iter().map(Window::host_busy_ns).sum();

    // End-to-end metrics. The host-clock ones — rate, p50, p95 — are
    // each the better quartile over all segments of all windows (see
    // `stats::better_quartile` for why). The price: a stall that hits
    // fewer than three quarters of the segments can hide from
    // `host_p95_us`; the whole-run figures are printed beside it.
    let segs: Vec<Segment> = wins.iter().flat_map(Window::segments).collect();
    let rates: Vec<f64> = segs.iter().map(|s| s.rate).collect();
    if !traced {
        let fewest = segs.iter().map(|s| s.samples).min().unwrap_or(0);
        if fewest < P95_MIN_SAMPLES {
            problems.push(format!(
                "a segment has {fewest} latency samples, too few for p95"
            ));
        }
        let p50s: Vec<u32> = segs.iter().map(|s| s.p50).collect();
        let p95s: Vec<u32> = segs.iter().map(|s| s.p95).collect();
        report.put("setup_s", median(&setup_s));
        report.put("host_ops_per_s", better_quartile(&rates, true));
        report.put(
            "host_p50_us",
            f64::from(better_quartile(&p50s, false)) / 1e3,
        );
        report.put(
            "host_p95_us",
            f64::from(better_quartile(&p95s, false)) / 1e3,
        );
        // As `harness::run` computes it, over all windows.
        report.put(
            "virt_txn_per_s",
            run.committed as f64 * 1e9 / run.virt_elapsed_ns as f64,
        );
        println!(
            "# {} segments of >= {fewest} samples; whole run: {:.0} ops/s",
            segs.len(),
            run.committed as f64 / host_run_s,
        );
        println!("# segment rates {rates:.0?}");
    }

    // Window-derived metrics (both passes). p99 of the whole run, not
    // a bounded end-to-end metric: on `ycsb_c` it sits on the knee
    // between the cold-key tail (3 µs) and interrupts (20 µs) and swung
    // 25 % between runs of the same code.
    let mut all: Vec<u32> = recs().flat_map(|r| r.host.iter().copied()).collect();
    report.put("host_p99_us", f64::from(p50_p99(&mut all).1) / 1e3);
    drop(all);
    let mut virt: Vec<u32> = recs().flat_map(|r| r.c_virt.iter().copied()).collect();
    let (virt_p50, virt_p99, _) = p50_p99(&mut virt);
    report.put("virt_p50_ns", f64::from(virt_p50));
    report.put("virt_p99_ns", f64::from(virt_p99));
    let committed = run.committed.max(1) as f64;
    let c = run.counters;
    put_device_counters(&mut report, &c, run.committed, host_busy_ns);
    report.put(
        "falcon-wl.abort_ratio",
        ratio(run.aborted, run.committed + run.aborted),
    );
    report.put("falcon-wl.dropped", run.dropped as f64);
    report.put("falcon-wl.host_run_s", host_run_s);
    let ckpt = recs().fold((0, 0), |acc, r| {
        (acc.0 + r.ckpt.0 - r.ckpt0.0, acc.1 + r.ckpt.1 - r.ckpt0.1)
    });
    report.put("falcon-core.ckpt.published", ckpt.0 as f64);
    report.put("falcon-core.ckpt.backpressure_stalls", ckpt.1 as f64);
    for (ty, name) in surface::workload_types(db.workload()).iter().enumerate() {
        let mut h: Vec<u32> = Vec::new();
        let mut v: Vec<u32> = Vec::new();
        for r in recs() {
            for i in (0..r.c_ty.len()).filter(|&i| usize::from(r.c_ty[i]) == ty) {
                h.push(r.c_host[i]);
                v.push(r.c_virt[i]);
            }
        }
        if h.is_empty() {
            continue; // YCSB's insert/scan/rmw types do not occur in A or C.
        }
        h.sort_unstable();
        v.sort_unstable();
        report.put(&format!("falcon-wl.{name}.count"), h.len() as f64);
        report.put(
            &format!("falcon-wl.{name}.host_p50_us"),
            f64::from(percentile(&h, 50.0)) / 1e3,
        );
        report.put(
            &format!("falcon-wl.{name}.virt_p50_ns"),
            f64::from(percentile(&v, 50.0)),
        );
    }

    // Traced pass: tracing overhead from the interleaved segments,
    // then the layer probes against the live engine.
    if let Some(t) = tracer {
        // Each traced (even) segment of a window against the untraced
        // (odd) ones beside it, so drift cancels.
        let beside: Vec<f64> = rates
            .chunks(segments as usize)
            .flat_map(|window| {
                window.windows(2).enumerate().map(|(k, pair)| {
                    if k.is_multiple_of(2) {
                        pair[0] / pair[1]
                    } else {
                        pair[1] / pair[0]
                    }
                })
            })
            .collect();
        report.put("falcon-wl.trace_overhead_share", 1.0 - median(&beside));
        let mix = probes::TxnMix {
            host_ns_per_txn: host_busy_ns / committed,
            accesses_per_txn: c.accesses as f64 / committed,
            miss_share: ratio(c.cache_misses, c.accesses),
        };
        probes::run_embedded(kind, &db, seed, &mix, t, &mut report);
    }
    drop(wins);

    // Power cut at a seeded mutating device event, recovery, checks.
    // The first half of the tail counts events; the second is cut at
    // a seeded index below half that count, so the cut is reached even
    // if the second half makes somewhat fewer.
    let cut_seed = subseed(seed, "cut");
    surface::arm_calibration(db.engine());
    let tail1 = surface::run_harness(db.engine(), db.workload(), sizes.cut_tail, 0, cut_seed);
    let events = surface::fault_events(db.engine());
    surface::arm_cut(
        db.engine(),
        cut_seed,
        crate::gen::mix(cut_seed, 1) % (events / 2).max(1),
    );
    let tail2 = surface::run_harness(db.engine(), db.workload(), sizes.cut_tail, 0, cut_seed ^ 1);
    let (db, rec) = db.crash_and_recover()?;
    if events > 0 && !rec.tripped {
        problems.push(format!(
            "power cut at an event below {events} never tripped"
        ));
    }
    let (checks, mut failures) = db.check();
    problems.append(&mut failures);
    put_recovery(&mut report, &rec);

    let attempted = run.requested + tail1.requested + tail2.requested + checks;
    let failed = run.dropped + tail1.dropped + tail2.dropped + problems.len() as u64;
    report.put("failed_share", failed as f64 / attempted as f64);
    if !traced {
        report.put("peak_rss_mb", peak_rss_mb());
    }
    Ok(Outcome {
        report,
        attempted,
        failed,
        problems,
    })
}
