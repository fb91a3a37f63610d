//! Tier-1 loopback test of the live server: `serve()` → one pipelined
//! connection → `DRAIN`. This is the only `cargo test` that crosses the
//! sockets, the admission queue and the engine thread's driver of the
//! `GroupCommitter`; `falcon_net_chaos` (scripts/check.sh) is the
//! deeper sweep. Prints a visible SKIP where loopback TCP is
//! unavailable, by the same rule as `falcon_net_chaos`.

use falcon_server::client::Client;
use falcon_server::proto::{Op, Response, Status, WriteOp};
use falcon_server::{serve, ServerConfig};
use std::collections::HashMap;
use std::io;

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
    let h = match serve(ServerConfig {
        preload_keys: 8,
        // A long hold, so batches end on the size trigger or on a
        // genuinely empty queue, not on scheduler jitter between two
        // pipelined frames.
        group_hold_us: 50_000,
        ..ServerConfig::default()
    }) {
        Ok(h) => h,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::PermissionDenied | io::ErrorKind::AddrNotAvailable
            ) =>
        {
            println!("SKIP: loopback TCP unavailable in this sandbox ({e})");
            return;
        }
        Err(e) => panic!("serve: {e}"),
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
