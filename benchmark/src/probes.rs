//! Outside-in layer probes: median host and virtual ns per call of
//! each layer's public functions, timed from the benchmark's side of
//! the boundary (in-program tracing is a later change).
//!
//! Probes run in the traced pass, after the measured window, against
//! the *live* engine wherever the workload has a table of the right
//! kind, drawing keys from the workload's own distribution, with a
//! private `MemCtx`. Where the workload has no such table the probe
//! runs against a standard fixture instead (README lists which), so
//! every probe reports a real measurement on every workload.
//!
//! Calls are timed in batches — one span and one clock read per batch,
//! reported per call — because a device read takes about as long as
//! reading the host clock. Each probe's first batch is a warm-up and is
//! not recorded. Probes write only where no correctness check reads
//! (value fields, padding) and remove every key they insert.

use std::hint::black_box;

use crate::embedded::{Db, Kind};
use crate::gen::{kv_op, subseed, KvOp};
use crate::metrics::Report;
use crate::stats::median;
use crate::surface::{self, Engine, KeyStream, MemCtx, Worker};
use crate::trace::{SpanId, Tracer, NO_PARENT};

/// Transactions the probes add to a live engine at most (device
/// sizing): `insert_delete` commits 2 × 64 × 8.
pub const TXN_BUDGET: u64 = 2_048;

/// Recorded batches per probe.
const BATCHES: usize = 64;

/// Keys outside every workload's key space, for insert-and-remove
/// probes.
const ABSENT_KEYS: u64 = 1 << 60;

/// Bytes probes write. They land in YCSB value fields, TPC-C stock
/// padding or serving-fixture values: nothing a correctness check
/// reads.
const PAYLOAD: [u8; 100] = [0x5A; 100];

/// What the measured window says a transaction costs, for
/// `unexplained_host_share`.
pub struct TxnMix {
    /// Host ns per committed transaction.
    pub host_ns_per_txn: f64,
    /// Device accesses per committed transaction.
    pub accesses_per_txn: f64,
    /// Share of those that missed the simulated cache.
    pub miss_share: f64,
}

/// Median per-call cost of one probe.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    host_ns: f64,
    virt_ns: f64,
    accesses: f64,
}

/// Virtual clock and access count after a call, as the probe closure
/// reports them (zeros where the layer has no virtual clock).
type After = (u64, u64);

fn after(ctx: &MemCtx) -> After {
    (surface::ctx_clock(ctx), surface::ctx_accesses(ctx))
}

struct Prober<'a> {
    tracer: &'a mut Tracer,
    report: &'a mut Report,
    layer: SpanId,
}

impl Prober<'_> {
    fn layer(&mut self, name: &'static str) {
        if self.layer != NO_PARENT {
            self.tracer.close(self.layer);
        }
        self.layer = self.tracer.open(name, NO_PARENT, 0);
    }

    fn finish(self) {
        if self.layer != NO_PARENT {
            self.tracer.close(self.layer);
        }
    }

    /// Time `BATCHES` batches of `per_batch` calls (after one
    /// unrecorded warm-up batch). `call(i)` makes call `i` and returns
    /// the virtual clock and access count after it.
    fn measure(
        &mut self,
        name: &'static str,
        per_batch: usize,
        start: After,
        mut call: impl FnMut(u64) -> After,
    ) -> Sample {
        let mut i = 0u64;
        let mut prev = start;
        let (mut host, mut virt, mut acc) = (Vec::new(), Vec::new(), Vec::new());
        for batch in 0..=BATCHES {
            let t0 = self.tracer.now_ns();
            let mut now = prev;
            for _ in 0..per_batch {
                now = call(i);
                i += 1;
            }
            let t1 = self.tracer.now_ns();
            if batch > 0 {
                let n = per_batch as f64;
                host.push((t1 - t0) as f64 / n);
                virt.push((now.0 - prev.0) as f64 / n);
                acc.push((now.1 - prev.1) as f64 / n);
                self.tracer.add(name, self.layer, batch as u64, t0, t1);
            }
            prev = now;
        }
        Sample {
            host_ns: median(&host),
            virt_ns: median(&virt),
            accesses: median(&acc),
        }
    }

    /// Measure and report `<name>.host_ns` and `<name>.virt_ns`.
    fn both(
        &mut self,
        name: &'static str,
        per_batch: usize,
        start: After,
        call: impl FnMut(u64) -> After,
    ) -> Sample {
        let s = self.measure(name, per_batch, start, call);
        self.put_both(name, &s);
        s
    }

    fn put_both(&mut self, name: &str, s: &Sample) {
        self.report.put(&format!("{name}.host_ns"), s.host_ns);
        self.report.put(&format!("{name}.virt_ns"), s.virt_ns);
    }

    /// Measure and report `<name>.host_ns` only (no virtual clock at
    /// this boundary).
    fn host_only(
        &mut self,
        name: &'static str,
        per_batch: usize,
        mut call: impl FnMut(u64),
    ) -> f64 {
        let s = self.measure(name, per_batch, (0, 0), |i| {
            call(i);
            (0, 0)
        });
        self.report.put(&format!("{name}.host_ns"), s.host_ns);
        s.host_ns
    }
}

/// A table to probe, the engine it lives in and the keys to use.
struct Target<'a> {
    engine: &'a Engine,
    table: u32,
    keys: KeyStream,
}

/// Where each engine-level probe runs for one workload.
struct Targets<'a> {
    /// Dash hash table.
    hash: Target<'a>,
    /// NBTree table.
    btree: Target<'a>,
    /// Heap, tuple and transaction probes.
    row: Target<'a>,
    /// `(offset, length)` pairs `update1` writes: the workload's own
    /// update footprint.
    update: Vec<(u32, usize)>,
    /// Table `insert_delete` uses.
    insert_table: u32,
    /// The serving fixture: `group_fence8`, `apply_*`.
    kv: &'a Engine,
}

/// Cost per call of the probes `unexplained_host_share` builds on.
pub struct Costs {
    keygen: f64,
    read1: f64,
    update1: f64,
    read_hit: f64,
    read_miss: f64,
    /// `encode_req + decode_req + encode_resp + decode_resp`.
    pub codec: f64,
    /// Mean of `apply_get` and `apply_put`.
    pub apply: f64,
}

/// Probes for an embedded workload, against its live engine.
pub fn run_embedded(
    kind: Kind,
    db: &Db,
    seed: u64,
    mix: &TxnMix,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let live = db.engine();
    let kv = surface::kv_fixture();
    let s = |purpose: &str| subseed(seed, purpose);
    let (targets, keygen) = match kind {
        Kind::YcsbC | Kind::YcsbA => (
            Targets {
                hash: Target {
                    engine: live,
                    table: surface::YCSB_TABLE,
                    keys: KeyStream::ycsb(s("hash")),
                },
                btree: Target {
                    engine: &kv,
                    table: surface::KV_TABLE,
                    keys: KeyStream::uniform(surface::KV_KEYS, s("btree")),
                },
                row: Target {
                    engine: live,
                    table: surface::YCSB_TABLE,
                    keys: KeyStream::ycsb(s("row")),
                },
                // YCSB as the paper configures it rewrites all ten
                // 100 B fields.
                update: (0..10).map(|f| (8 + f * 100, 100)).collect(),
                insert_table: surface::YCSB_TABLE,
                kv: &kv,
            },
            KeyStream::ycsb(s("keygen")),
        ),
        Kind::Tpcc | Kind::Tpcc2w => (
            Targets {
                hash: Target {
                    engine: live,
                    table: surface::tpcc_tables::STOCK,
                    keys: KeyStream::tpcc_stock(s("hash")),
                },
                btree: Target {
                    engine: live,
                    table: surface::tpcc_tables::ORDER_LINE,
                    keys: KeyStream::tpcc_order_line(s("btree")),
                },
                row: Target {
                    engine: live,
                    table: surface::tpcc_tables::STOCK,
                    keys: KeyStream::tpcc_stock(s("row")),
                },
                // One 8 B field, as TPC-C updates do; the stock row's
                // padding, so no invariant moves.
                update: vec![(40, 8)],
                insert_table: surface::tpcc_tables::HISTORY,
                kv: &kv,
            },
            KeyStream::tpcc_stock(s("keygen")),
        ),
    };
    let costs = run_all(targets, keygen, seed, tracer, report);
    let explained = match kind {
        Kind::YcsbC => costs.keygen + costs.read1,
        Kind::YcsbA => costs.keygen + 0.5 * costs.read1 + 0.5 * costs.update1,
        // TPC-C's call mix is not visible from outside; what is, is
        // how many device accesses a transaction makes.
        Kind::Tpcc | Kind::Tpcc2w => {
            mix.accesses_per_txn
                * ((1.0 - mix.miss_share) * costs.read_hit + mix.miss_share * costs.read_miss)
        }
    };
    report.put(
        "falcon-wl.unexplained_host_share",
        1.0 - explained / mix.host_ns_per_txn,
    );
}

/// Probes for `served`: the live engine is inside the server's
/// threads, so everything runs on fixtures — the serving engine
/// without sockets, and a loaded YCSB table for the hash index.
/// Returns the probe costs and the serving fixture, which the caller
/// goes on to use.
pub fn run_served(seed: u64, tracer: &mut Tracer, report: &mut Report) -> (Costs, Engine) {
    let kv = surface::kv_fixture();
    let hash = surface::load_ycsb(true).engine;
    let s = |purpose: &str| subseed(seed, purpose);
    let uniform = |purpose: &str| KeyStream::uniform(surface::KV_KEYS, s(purpose));
    let targets = Targets {
        hash: Target {
            engine: &hash,
            table: surface::YCSB_TABLE,
            keys: KeyStream::ycsb(s("hash")),
        },
        btree: Target {
            engine: &kv,
            table: surface::KV_TABLE,
            keys: uniform("btree"),
        },
        row: Target {
            engine: &kv,
            table: surface::KV_TABLE,
            keys: uniform("row"),
        },
        update: vec![(surface::KV_VALUE.0, surface::KV_VALUE.1)],
        insert_table: surface::KV_TABLE,
        kv: &kv,
    };
    let costs = run_all(targets, uniform("keygen"), seed, tracer, report);
    (costs, kv)
}

fn run_all(
    mut t: Targets<'_>,
    mut keygen: KeyStream,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Costs {
    let mut p = Prober {
        tracer,
        report,
        layer: NO_PARENT,
    };
    let mut ctx = surface::mem_ctx();

    // --- pmem-sim: a standalone device with the experiment cache. ----
    p.layer("probe.pmem-sim");
    const REGION: u64 = 1 << 20; // cache-resident (the cache is 4 MB)
    const MISS_BASE: u64 = 8 << 20;
    let dev = surface::probe_device(64 << 20);
    let mut line = [0u8; 64];
    for a in (0..REGION).step_by(64) {
        surface::dev_read(&dev, a, &mut line, &mut ctx);
    }
    let read_hit = p.both("pmem-sim.read_hit", 256, after(&ctx), |i| {
        surface::dev_read(&dev, i * 64 % REGION, &mut line, &mut ctx);
        after(&ctx)
    });
    // A block never touched before: a miss filled from the media.
    let read_miss = p.both("pmem-sim.read_miss", 64, after(&ctx), |i| {
        surface::dev_read(
            &dev,
            MISS_BASE + i * surface::MEDIA_BLOCK,
            &mut line,
            &mut ctx,
        );
        after(&ctx)
    });
    p.both("pmem-sim.write_line", 256, after(&ctx), |i| {
        surface::dev_write(&dev, i * 64 % REGION, &line, &mut ctx);
        after(&ctx)
    });
    let block = [0xA5u8; 256];
    p.both("pmem-sim.flush256", 64, after(&ctx), |i| {
        surface::dev_flush256(&dev, i * 256 % REGION, &block, &mut ctx);
        after(&ctx)
    });
    black_box(line);
    drop(dev);

    // --- falcon-storage: the row table's heap and tuples. ------------
    p.layer("probe.falcon-storage");
    let row = &mut t.row;
    p.both("falcon-storage.alloc_free", 16, after(&ctx), |_| {
        surface::heap_alloc_free(row.engine, row.table, &mut ctx);
        after(&ctx)
    });
    // Resolve tuple addresses outside the timed region.
    let addrs: Vec<u64> = (0..(BATCHES + 1) * 64)
        .map(|_| {
            let key = row.keys.next_key();
            surface::index_get(row.engine, row.table, key, &mut ctx).expect("probe key exists")
        })
        .collect();
    let mut buf = vec![0u8; surface::tuple_size(row.engine, row.table)];
    p.both("falcon-storage.tuple_read", 64, after(&ctx), |i| {
        surface::tuple_read(row.engine, addrs[i as usize], &mut buf, &mut ctx);
        after(&ctx)
    });
    // The first field the workload's updates write (100 B for YCSB).
    let (off, len) = t.update[0];
    p.both("falcon-storage.tuple_write_flush", 64, after(&ctx), |i| {
        surface::tuple_write_flush(
            row.engine,
            addrs[i as usize],
            u64::from(off),
            &PAYLOAD[..len],
            &mut ctx,
        );
        after(&ctx)
    });

    // --- falcon-index. ------------------------------------------------
    p.layer("probe.falcon-index");
    let h = &mut t.hash;
    let s = p.both("falcon-index.hash_get", 64, after(&ctx), |_| {
        let key = h.keys.next_key();
        black_box(surface::index_get(h.engine, h.table, key, &mut ctx));
        after(&ctx)
    });
    p.report.put("falcon-index.hash_get.accesses", s.accesses);
    p.both("falcon-index.hash_insert_remove", 16, after(&ctx), |i| {
        surface::index_insert_remove(h.engine, h.table, ABSENT_KEYS + i, &mut ctx);
        after(&ctx)
    });
    let b = &mut t.btree;
    let s = p.both("falcon-index.btree_get", 64, after(&ctx), |_| {
        let key = b.keys.next_key();
        black_box(surface::index_get(b.engine, b.table, key, &mut ctx));
        after(&ctx)
    });
    p.report.put("falcon-index.btree_get.accesses", s.accesses);
    p.both("falcon-index.btree_insert_remove", 16, after(&ctx), |i| {
        surface::index_insert_remove(b.engine, b.table, ABSENT_KEYS + i, &mut ctx);
        after(&ctx)
    });
    p.both("falcon-index.btree_scan16", 16, after(&ctx), |_| {
        let lo = b.keys.next_key();
        black_box(surface::index_scan(b.engine, b.table, lo, 16, &mut ctx));
        after(&ctx)
    });

    // --- falcon-core: Engine::begin / Txn on the row table. ----------
    p.layer("probe.falcon-core");
    let row = &mut t.row;
    let mut w = surface::worker(row.engine, 0);
    let wafter = |w: &Worker| (surface::worker_clock(w), 0);
    p.both("falcon-core.txn_empty", 64, wafter(&w), |_| {
        surface::txn_empty(row.engine, &mut w);
        wafter(&w)
    });
    let read1 = p.both("falcon-core.read1", 32, wafter(&w), |_| {
        let key = row.keys.next_key();
        black_box(surface::txn_read1(row.engine, &mut w, row.table, key));
        wafter(&w)
    });
    let (update1, update1_commit) = update1(&mut p, row, &t.update, &mut w);
    p.put_both("falcon-core.update1", &update1);
    p.put_both("falcon-core.update1_commit", &update1_commit);
    let insert_width = surface::tuple_size(row.engine, t.insert_table);
    let mut new_row = vec![0u8; insert_width];
    p.both("falcon-core.insert_delete", 8, wafter(&w), |i| {
        let key = ABSENT_KEYS + i;
        new_row[..8].copy_from_slice(&key.to_le_bytes());
        surface::txn_insert_delete(row.engine, &mut w, t.insert_table, key, &new_row);
        wafter(&w)
    });
    drop(w);

    // --- The serving fixture: group commit and request execution. ----
    let mut kw = surface::worker(t.kv, 0);
    let value = &PAYLOAD[..surface::KV_VALUE.1];
    let put_ops = [(surface::KV_VALUE.0, value)];
    let mut kv_keys = KeyStream::uniform(surface::KV_KEYS, subseed(seed, "kv"));
    p.both("falcon-core.group_fence8", 4, wafter(&kw), |_| {
        for _ in 0..8 {
            let key = kv_keys.next_key();
            surface::txn_update1(t.kv, &mut kw, surface::KV_TABLE, key, &put_ops, |_| {});
        }
        assert_eq!(
            surface::group_fence(t.kv, &mut kw),
            8,
            "eight deferred commits"
        );
        wafter(&kw)
    });

    p.layer("probe.falcon-wl");
    let keygen_ns = p.host_only("falcon-wl.keygen", 256, |_| {
        black_box(keygen.next_key());
    });

    p.layer("probe.falcon-server");
    let op_seed = subseed(seed, "codec");
    let put = |i: u64| KvOp::Put {
        key: kv_op(op_seed, i, surface::KV_KEYS).key(),
    };
    let get = |i: u64| KvOp::Get {
        key: kv_op(op_seed, i, surface::KV_KEYS).key(),
    };
    let mut codec = p.host_only("falcon-server.encode_req", 256, |i| {
        black_box(surface::encode_req(put(i), i));
    });
    let req = surface::encode_req(put(7), 7);
    codec += p.host_only("falcon-server.decode_req", 256, |_| {
        black_box(surface::decode_req(black_box(&req)));
    });
    codec += p.host_only("falcon-server.encode_resp", 256, |i| {
        black_box(surface::encode_resp(i, value));
    });
    let resp = surface::encode_resp(7, value);
    codec += p.host_only("falcon-server.decode_resp", 256, |_| {
        black_box(surface::decode_resp(black_box(&resp)).expect("well-formed reply"));
    });
    let apply_get = p.host_only("falcon-server.apply_get", 16, |i| {
        assert!(
            surface::apply(t.kv, &mut kw, get(i), i),
            "Get of a preloaded key"
        );
    });
    let apply_put = p.host_only("falcon-server.apply_put", 16, |i| {
        assert!(surface::apply(t.kv, &mut kw, put(i), i), "Put");
        if i % 16 == 15 {
            // The server fences a batch of 16; keep the deferred
            // commits bounded the same way.
            surface::group_fence(t.kv, &mut kw);
        }
    });
    p.finish();

    Costs {
        keygen: keygen_ns,
        read1: read1.host_ns,
        update1: update1.host_ns,
        read_hit: read_hit.host_ns,
        read_miss: read_miss.host_ns,
        codec,
        apply: (apply_get + apply_put) / 2.0,
    }
}

/// `update1` times the whole transaction and, inside it, the
/// `commit()` call alone, so it reads the clocks per call instead of
/// per batch (sixteen unrecorded calls first).
fn update1(
    p: &mut Prober<'_>,
    row: &mut Target<'_>,
    footprint: &[(u32, usize)],
    w: &mut Worker,
) -> (Sample, Sample) {
    const WARM: usize = 16;
    let ops: Vec<(u32, &[u8])> = footprint
        .iter()
        .map(|&(off, len)| (off, &PAYLOAD[..len]))
        .collect();
    let (mut host, mut virt, mut chost, mut cvirt) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..WARM + BATCHES * 16 {
        let key = row.keys.next_key();
        let v0 = surface::worker_clock(w);
        let t0 = p.tracer.now_ns();
        let mut at_commit = (0, 0);
        let tracer = &*p.tracer;
        surface::txn_update1(row.engine, w, row.table, key, &ops, |v| {
            at_commit = (tracer.now_ns(), v);
        });
        let t1 = p.tracer.now_ns();
        let v1 = surface::worker_clock(w);
        if i >= WARM {
            host.push((t1 - t0) as f64);
            virt.push((v1 - v0) as f64);
            chost.push((t1 - at_commit.0) as f64);
            cvirt.push((v1 - at_commit.1) as f64);
            p.tracer
                .add("falcon-core.update1", p.layer, i as u64, t0, t1);
            p.tracer.add(
                "falcon-core.update1_commit",
                p.layer,
                i as u64,
                at_commit.0,
                t1,
            );
        }
    }
    let sample = |host: &[f64], virt: &[f64]| Sample {
        host_ns: median(host),
        virt_ns: median(virt),
        accesses: 0.0,
    };
    (sample(&host, &virt), sample(&chost, &cvirt))
}
