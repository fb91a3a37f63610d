//! Property test: the checker's brute-force replay and the simulator
//! agree on what durability *means*.
//!
//! Random store/write/flush/fence/drain interleavings run against a real
//! `PmemDevice` (ADR and eADR) with unique, monotonically increasing
//! store values. After a simulated power failure, a cache line's latest
//! value is on the media **iff** [`image_durable_lines`] predicts it
//! from the recorded trace alone — for every line, in both domains, on
//! the small test cache (which never evicts these lines) and on a
//! two-line direct-mapped cache (which evicts on almost every miss).

use std::collections::HashMap;

use falcon_check::replay::image_durable_lines;
use pmem_sim::{MemCtx, PAddr, PersistDomain, PmemDevice, SimConfig};
use proptest::prelude::*;

/// Number of distinct cache lines the workload touches.
const LINES: u64 = 8;
/// Where the touched region starts (line-aligned, away from offset 0).
const BASE: u64 = 4096;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Store a fresh unique value to line `n`.
    Store(u64),
    /// One write spanning lines `n` and `n + 1`, with a fresh unique
    /// value at the start of each.
    Write(u64),
    /// Write line `n` back.
    Clwb(u64),
    /// Drain this thread's outstanding writebacks.
    Sfence,
    /// Full quiesce (drains the XPBuffer too).
    Quiesce,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..LINES).prop_map(Op::Store),
        (0..LINES).prop_map(Op::Store),
        (0..LINES - 1).prop_map(Op::Write),
        (0..LINES).prop_map(Op::Clwb),
        Just(Op::Sfence),
        Just(Op::Quiesce),
    ]
}

fn addr_of(line: u64) -> PAddr {
    PAddr(BASE + line * pmem_sim::CACHE_LINE)
}

/// Run `ops` on a fresh device of `domain` (with a two-line,
/// direct-mapped cache if `tiny`), crash, and cross-validate the replay
/// prediction against the media image line by line.
fn run(domain: PersistDomain, tiny: bool, ops: &[Op]) {
    let mut cfg = SimConfig::small()
        .with_capacity(1 << 20)
        .with_domain(domain);
    if tiny {
        cfg = cfg.with_cache(2 * pmem_sim::CACHE_LINE);
        cfg.cache_ways = 1;
    }
    let dev = PmemDevice::new(cfg).unwrap();
    dev.trace_start();
    let mut ctx = MemCtx::new(0);
    // line -> the latest value stored there (values are globally unique,
    // so media bytes identify exactly which store the media holds).
    let mut latest: HashMap<u64, u64> = HashMap::new();
    let mut next_val = 1u64;
    for op in ops {
        match *op {
            Op::Store(line) => {
                dev.store_u64(addr_of(line), next_val, &mut ctx);
                latest.insert(line, next_val);
                next_val += 1;
            }
            Op::Write(line) => {
                let mut buf = [0xa5u8; pmem_sim::CACHE_LINE as usize + 8];
                for (at, l) in [(0, line), (pmem_sim::CACHE_LINE as usize, line + 1)] {
                    buf[at..at + 8].copy_from_slice(&next_val.to_le_bytes());
                    latest.insert(l, next_val);
                    next_val += 1;
                }
                dev.write(addr_of(line), &buf, &mut ctx);
            }
            Op::Clwb(line) => dev.clwb(addr_of(line), &mut ctx),
            Op::Sfence => dev.sfence(&mut ctx),
            Op::Quiesce => dev.quiesce(),
        }
    }
    dev.crash();
    let trace = dev.trace_take();
    let predicted = image_durable_lines(&trace);
    for (&line, &val) in &latest {
        let mut buf = [0u8; 8];
        dev.media_read(addr_of(line), &mut buf);
        let on_media = u64::from_le_bytes(buf) == val;
        let line_idx = addr_of(line).0 / pmem_sim::CACHE_LINE;
        assert_eq!(
            on_media,
            predicted.contains(&line_idx),
            "line {line} (latest value {val}): media={on_media}, \
             replay={}, domain {domain:?}, ops {ops:?}",
            predicted.contains(&line_idx),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replay_matches_simulator_adr(
        tiny in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        run(PersistDomain::Adr, tiny, &ops);
    }

    #[test]
    fn replay_matches_simulator_eadr(
        tiny in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        run(PersistDomain::Eadr, tiny, &ops);
    }
}
