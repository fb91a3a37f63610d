//! `falcon_net_chaos` — the serving-layer robustness driver.
//!
//! Legs (all run by default; select one with a flag):
//!
//! * `--smoke` — loopback smoke: pipelined mixed batch over TCP,
//!   every response checked, the counters read over the wire (`STATS`)
//!   checked against the drain report, graceful drain.
//! * `--sync` — one synchronous caller alternating `Get` and `Put`:
//!   every write fenced by itself, and both medians far below the
//!   44 ms a Nagle / delayed-ACK stall on the reply path would cost.
//! * `--overload` — 2× the admission cap: typed `Overloaded` sheds,
//!   every request answered, zero panics.
//! * `--netfaults` — seeded sweep of misbehaving clients (reset
//!   mid-request, partial-write stall, slow-loris, vanish mid-batch)
//!   with a health probe after each.
//!
//! `--rounds N` sizes the net-fault sweep, `--seed HEX` seeds every
//! leg. Any violation prints its reproduction coordinates and exits 1.
//! If loopback TCP is unavailable in the sandbox the legs SKIP visibly.
//! The power-cut oracle for the serving loop is the `falcon-serve` spec
//! of `falcon-chaos`.

use falcon_server::netfault;
use falcon_server::proto::{Op, Status, WriteOp};
use falcon_server::{client::Client, serve, ServerConfig};
use std::io;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    smoke: bool,
    sync: bool,
    overload: bool,
    netfaults: bool,
    rounds: u64,
    seed: u64,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        smoke: false,
        sync: false,
        overload: false,
        netfaults: false,
        rounds: 12,
        seed: 0x4E7C_4A05,
    };
    let mut args = std::env::args().skip(1);
    while let Some(f) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match f.as_str() {
            "--smoke" => a.smoke = true,
            "--sync" => a.sync = true,
            "--overload" => a.overload = true,
            "--netfaults" => a.netfaults = true,
            "--rounds" => a.rounds = num(&val("--rounds")?)?,
            "--seed" => a.seed = num(&val("--seed")?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(a.smoke || a.sync || a.overload || a.netfaults) {
        a.smoke = true;
        a.sync = true;
        a.overload = true;
        a.netfaults = true;
    }
    Ok(a)
}

fn num(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
    .map_err(|_| format!("bad number: {s}"))
}

/// Start a server, or explain why the TCP legs cannot run here.
fn start(cfg: ServerConfig) -> Result<Option<falcon_server::ServerHandle>, String> {
    match serve(cfg) {
        Ok(h) => Ok(Some(h)),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::PermissionDenied | io::ErrorKind::AddrNotAvailable
            ) =>
        {
            println!("SKIP: loopback TCP unavailable in this sandbox ({e})");
            Ok(None)
        }
        Err(e) => Err(format!("serve: {e}")),
    }
}

fn smoke_leg(seed: u64) -> Result<(), String> {
    let Some(h) = start(ServerConfig {
        preload_keys: 8,
        ..ServerConfig::default()
    })?
    else {
        return Ok(());
    };
    let mut c = Client::connect(h.addr(), 5_000).map_err(|e| format!("connect: {e}"))?;
    // A pipelined mixed batch: writes, reads, a txn-batch, a scan, a
    // miss, and a malformed probe via the typed-status path.
    let ids = [
        c.send(Op::Put {
            key: 100,
            value: seed.to_le_bytes().to_vec(),
        }),
        c.send(Op::Get { key: 100 }),
        c.send(Op::Batch(vec![
            WriteOp::Put {
                key: 101,
                value: vec![1; 8],
            },
            WriteOp::Put {
                key: 102,
                value: vec![2; 8],
            },
            WriteOp::Delete { key: 0 },
        ])),
        c.send(Op::Scan {
            lo: 100,
            hi: 110,
            max: 16,
        }),
        c.send(Op::Get { key: 0 }),
        c.send(Op::Delete { key: 12345 }),
    ]
    .map(|r| r.map_err(|e| format!("send: {e}")));
    // Write acks wait on the group fence while reads answer
    // immediately, so pipelined responses complete out of order —
    // match them by request id.
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..ids.len() {
        let r = c.recv().map_err(|e| format!("recv: {e}"))?;
        by_id.insert(r.id, r);
    }
    let expect = [
        Status::Ok,       // put
        Status::Ok,       // get sees the pipelined put
        Status::Ok,       // batch commits atomically
        Status::Ok,       // scan
        Status::NotFound, // deleted by the batch
        Status::NotFound, // never existed
    ];
    for (i, want) in expect.iter().enumerate() {
        let id = ids[i].clone()?;
        let resp = by_id
            .get(&id)
            .ok_or_else(|| format!("smoke: no response for request {i} (id {id})"))?;
        if resp.status != *want {
            return Err(format!(
                "smoke: response {i} (id {id}): got {:?}, want {want:?}",
                resp.status
            ));
        }
    }
    // Requests execute in admission order, so the scan sees the
    // batch's two rows plus key 100.
    let scan = &by_id[&ids[3].clone()?];
    let n = u32::from_le_bytes(scan.payload[0..4].try_into().unwrap());
    if n != 3 {
        return Err(format!("smoke: scan saw {n} rows, want 3"));
    }
    // Every write above is acknowledged, hence fenced: the counters
    // the server reports about itself are final.
    let stats = c.stats().map_err(|e| format!("stats: {e}"))?;
    // Graceful drain over the wire; exit must leave an empty queue.
    let r = c.call(Op::Drain).map_err(|e| format!("drain: {e}"))?;
    if r.status != Status::Ok {
        return Err(format!("drain response: {:?}", r.status));
    }
    let report = h.wait();
    if !report.group_queue_empty {
        return Err("drain left a non-empty group-commit queue".into());
    }
    let over_the_wire = (stats.admitted, stats.batches, stats.batch_txns);
    let in_process = (ids.len() as u64, report.fences, report.committed);
    if over_the_wire != in_process {
        return Err(format!(
            "smoke: STATS (admitted, batches, batch_txns) {over_the_wire:?} \
             != requests sent and drain report {in_process:?}"
        ));
    }
    println!(
        "smoke: OK ({} committed, {} fences, queue empty, STATS agrees)",
        report.committed, report.fences
    );
    Ok(())
}

/// Most a median round trip may take: a hundredth of it is healthy, and
/// the kernel-timer stall this leg exists to catch is nine times it.
const SYNC_LIMIT: Duration = Duration::from_millis(5);

fn sync_leg(seed: u64) -> Result<(), String> {
    let Some(h) = start(ServerConfig {
        preload_keys: 8,
        seed,
        ..ServerConfig::default()
    })?
    else {
        return Ok(());
    };
    let mut c = Client::connect(h.addr(), 5_000).map_err(|e| format!("connect: {e}"))?;
    let (mut gets, mut puts) = (Vec::new(), Vec::new());
    for i in 0..200u64 {
        let key = i % 8;
        let (op, rtts) = if i % 2 == 0 {
            (Op::Get { key }, &mut gets)
        } else {
            let value = (seed ^ i).to_le_bytes().to_vec();
            (Op::Put { key, value }, &mut puts)
        };
        let t = Instant::now();
        let r = c.call(op).map_err(|e| format!("call {i}: {e}"))?;
        rtts.push(t.elapsed());
        if r.status != Status::Ok {
            return Err(format!("sync: call {i}: {:?}", r.status));
        }
    }
    h.shutdown();
    let report = h.wait();
    let median = |rtts: &mut Vec<Duration>| {
        rtts.sort();
        rtts[rtts.len() / 2]
    };
    let (get, put) = (median(&mut gets), median(&mut puts));
    if get > SYNC_LIMIT || put > SYNC_LIMIT {
        return Err(format!(
            "sync: median round trip Get {get:?} Put {put:?} exceeds {SYNC_LIMIT:?}: \
             something on the reply path waits on a timer"
        ));
    }
    // A lone caller's write has no batch to wait for.
    if report.fences != report.committed || report.committed != 100 {
        return Err(format!(
            "sync: {} fences for {} committed writes (want 100 and 100)",
            report.fences, report.committed
        ));
    }
    println!("sync: OK (median round trip Get {get:?}, Put {put:?}; one fence per write)");
    Ok(())
}

fn overload_leg(seed: u64) -> Result<(), String> {
    let cap = 8usize;
    let Some(h) = start(ServerConfig {
        admission_cap: cap,
        conn_window: 64,
        engine_slowdown_us: 2_000,
        preload_keys: 8,
        seed,
        ..ServerConfig::default()
    })?
    else {
        return Ok(());
    };
    let mut c = Client::connect(h.addr(), 10_000).map_err(|e| format!("connect: {e}"))?;
    // 2× the admission cap, pipelined at once.
    let total = cap * 2;
    for i in 0..total {
        c.send(Op::Put {
            key: 500 + i as u64,
            value: (i as u64).to_le_bytes().to_vec(),
        })
        .map_err(|e| format!("send {i}: {e}"))?;
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for i in 0..total {
        let r = c.recv().map_err(|e| format!("recv {i}: {e}"))?;
        match r.status {
            Status::Ok => ok += 1,
            Status::Overloaded => shed += 1,
            other => return Err(format!("overload: unexpected status {other:?}")),
        }
    }
    if shed == 0 {
        return Err(format!(
            "overload: 2x cap produced no Overloaded sheds (ok={ok})"
        ));
    }
    // Every request answered — no silent drops — and the server still
    // serves.
    if ok + shed != total as u64 {
        return Err(format!(
            "overload: {} answers for {total} requests",
            ok + shed
        ));
    }
    c.probe(999_999)
        .map_err(|e| format!("post-overload probe: {e}"))?;
    let counters = h.counters();
    h.shutdown();
    let report = h.wait();
    if !report.group_queue_empty {
        return Err("overload: drain left a non-empty queue".into());
    }
    println!(
        "overload: OK ({ok} admitted, {shed} typed sheds, counter {} , queue empty)",
        counters.shed_overloaded
    );
    Ok(())
}

fn netfault_leg(seed: u64, rounds: u64) -> Result<(), String> {
    let Some(h) = start(ServerConfig {
        // A short idle timeout keeps the stall faults quick to reap.
        read_timeout_ms: 20,
        idle_timeout_ms: 120,
        preload_keys: 8,
        seed,
        ..ServerConfig::default()
    })?
    else {
        return Ok(());
    };
    let rep = netfault::sweep(h.addr(), seed, rounds, 200)?;
    let counters = h.counters();
    h.shutdown();
    let report = h.wait();
    if !report.group_queue_empty {
        return Err("netfaults: drain left a non-empty queue".into());
    }
    println!(
        "netfaults: OK ({} faults injected, {} probes, {} bad frames, {} reaps)",
        rep.injected, rep.probes_ok, counters.bad_requests, counters.timeouts
    );
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("falcon_net_chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    let legs = [
        ("smoke", a.smoke),
        ("sync", a.sync),
        ("overload", a.overload),
        ("netfaults", a.netfaults),
    ];
    for (name, enabled) in legs {
        if !enabled {
            continue;
        }
        let result = match name {
            "smoke" => smoke_leg(a.seed),
            "sync" => sync_leg(a.seed),
            "overload" => overload_leg(a.seed),
            _ => netfault_leg(a.seed, a.rounds),
        };
        if let Err(e) = result {
            eprintln!("falcon_net_chaos: {name}: {e}");
            eprintln!("reproduce: falcon_net_chaos --{name} --seed 0x{:X}", a.seed);
            return ExitCode::FAILURE;
        }
    }
    println!("falcon_net_chaos: all legs clean");
    ExitCode::SUCCESS
}
