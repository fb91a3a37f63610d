//! Tier-1 loopback tests of the live server: `serve()` → one
//! connection → `DRAIN`. These are the only `cargo test`s that cross
//! the sockets, the admission queue and the engine thread's driver of
//! the `GroupCommitter`; `falcon_net_chaos` (scripts/check.sh) is the
//! deeper sweep. Each prints a visible SKIP where loopback TCP is
//! unavailable, by the same rule as `falcon_net_chaos`.

use falcon_server::client::Client;
use falcon_server::proto::{Op, Response, Status, WriteOp, MAX_SCAN_ROWS};
use falcon_server::{serve, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Start a server, or say why this sandbox cannot.
fn start(cfg: ServerConfig) -> Option<ServerHandle> {
    match serve(cfg) {
        Ok(h) => Some(h),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::PermissionDenied | io::ErrorKind::AddrNotAvailable
            ) =>
        {
            println!("SKIP: loopback TCP unavailable in this sandbox ({e})");
            None
        }
        Err(e) => panic!("serve: {e}"),
    }
}

/// Receive until every id in `ids` is answered (responses complete out
/// of order: reads at once, writes after their group fence).
fn collect(c: &mut Client, ids: &[u64]) -> HashMap<u64, Response> {
    let mut by_id = HashMap::new();
    while by_id.len() < ids.len() {
        let r = c.recv().expect("recv");
        assert!(ids.contains(&r.id), "unsolicited response id {}", r.id);
        assert!(by_id.insert(r.id, r).is_none(), "id answered twice");
    }
    by_id
}

#[test]
fn pipelined_connection_is_answered_batched_and_drained() {
    let Some(h) = start(ServerConfig {
        preload_keys: 8,
        // The engine sleeps before each request, so the frames
        // pipelined below queue up behind it: whenever it looks, the
        // queue is non-empty, and batches end on the size trigger or a
        // genuinely drained queue — no timer involved.
        engine_slowdown_us: 2_000,
        ..ServerConfig::default()
    }) else {
        return;
    };
    let mut c = Client::connect(h.addr(), 10_000).expect("connect");

    // Ten rounds of Put, Get of the same key, and a two-put Batch, all
    // pipelined before the first response is read.
    let value = |k: u64| (k * 3 + 1).to_le_bytes().to_vec();
    let mut ids = Vec::new();
    let mut put_keys = Vec::new();
    let mut gets = Vec::new();
    for i in 0..10u64 {
        let (k, b1, b2) = (100 + i, 200 + 2 * i, 201 + 2 * i);
        ids.push(
            c.send(Op::Put {
                key: k,
                value: value(k),
            })
            .expect("send put"),
        );
        let get = c.send(Op::Get { key: k }).expect("send get");
        gets.push((get, k));
        ids.push(get);
        ids.push(
            c.send(Op::Batch(vec![
                WriteOp::Put {
                    key: b1,
                    value: value(b1),
                },
                WriteOp::Put {
                    key: b2,
                    value: value(b2),
                },
            ]))
            .expect("send batch"),
        );
        put_keys.extend([k, b1, b2]);
    }
    let by_id = collect(&mut c, &ids);
    for id in &ids {
        assert_eq!(by_id[id].status, Status::Ok, "request {id}");
    }
    // Requests execute in admission order, so each Get saw the Put
    // pipelined just ahead of it even while that Put's ack was held.
    for (id, k) in gets {
        assert_eq!(by_id[&id].payload[..8], value(k)[..], "get of key {k}");
    }

    // Every acknowledged write reads back.
    let reads: Vec<u64> = put_keys
        .iter()
        .map(|&k| c.send(Op::Get { key: k }).expect("send read-back"))
        .collect();
    let by_id = collect(&mut c, &reads);
    for (id, k) in reads.iter().zip(&put_keys) {
        let r = &by_id[id];
        assert_eq!(r.status, Status::Ok, "read-back of key {k}");
        assert_eq!(r.payload[..8], value(*k)[..], "read-back of key {k}");
    }

    let r = c.call(Op::Drain).expect("drain");
    assert_eq!(r.status, Status::Ok);
    let counters = h.counters();
    let report = h.wait();
    assert!(report.group_queue_empty, "drain left writes unfenced");
    assert!(report.checkpointed);
    assert_eq!(report.committed, 20, "10 puts + 10 batches");
    assert!(
        report.fences < report.committed,
        "group commit must cover more than one write per fence \
         ({} fences, {} committed)",
        report.fences,
        report.committed
    );
    assert_eq!(counters.admitted, 60);
    assert_eq!(counters.shed_overloaded, 0);
}

#[test]
fn lone_synchronous_writer_is_fenced_per_write() {
    let Some(h) = start(ServerConfig {
        preload_keys: 8,
        ..ServerConfig::default()
    }) else {
        return;
    };
    let mut c = Client::connect(h.addr(), 10_000).expect("connect");
    // One caller, one write outstanding: nobody else will ever join
    // its batch, so each write must be fenced and acknowledged at once
    // — not after a hold time, and not after the kernel's delayed ACK.
    let mut rtts: Vec<Duration> = (0..64u64)
        .map(|k| {
            let t = Instant::now();
            let r = c
                .call(Op::Put {
                    key: k % 8,
                    value: k.to_le_bytes().to_vec(),
                })
                .expect("put");
            assert_eq!(r.status, Status::Ok, "put {k}");
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    println!("lone writer: median Put round trip {median:?}");
    // Nagle + delayed ACK paced this at 44 ms; healthy is tens of µs.
    assert!(median < Duration::from_millis(5), "median {median:?}");

    h.shutdown();
    let report = h.wait();
    assert!(report.group_queue_empty);
    assert_eq!((report.committed, report.fences), (64, 64));
}

#[test]
fn scan_past_the_frame_cap_is_clamped_and_the_connection_survives() {
    let Some(h) = start(ServerConfig {
        preload_keys: MAX_SCAN_ROWS as u64 + 105,
        ..ServerConfig::default()
    }) else {
        return;
    };
    let mut c = Client::connect(h.addr(), 10_000).expect("connect");
    // Unclamped this reply is a 67 KB frame the client's own
    // `read_frame` rejects, and every later reply is mis-framed.
    let r = c
        .call(Op::Scan {
            lo: 0,
            hi: u64::MAX,
            max: 5_000,
        })
        .expect("scan reply is a readable frame");
    assert_eq!(r.status, Status::Ok);
    let rows = u32::from_le_bytes(r.payload[0..4].try_into().unwrap()) as usize;
    assert_eq!(rows, MAX_SCAN_ROWS);
    assert_eq!(r.payload.len(), 4 + rows * 16);
    let last = u64::from_le_bytes(r.payload[r.payload.len() - 16..][..8].try_into().unwrap());
    assert_eq!(last, MAX_SCAN_ROWS as u64 - 1, "keys 0.. in order");
    // The connection is still framed: resume the scan where it stopped.
    let r = c
        .call(Op::Scan {
            lo: last + 1,
            hi: u64::MAX,
            max: 5_000,
        })
        .expect("next request still answered");
    assert_eq!(r.status, Status::Ok);
    assert_eq!(r.payload[0..4], 105u32.to_le_bytes());

    h.shutdown();
    assert!(h.wait().group_queue_empty);
}
