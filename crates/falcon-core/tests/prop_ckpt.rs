//! Property tests for spill backpressure: burst commit storms against a
//! tiny spill cap must commit everything — the cap stalls appends behind
//! an inline drain checkpoint (a typed, counted event), it never drops a
//! record, aborts a within-cap transaction, or panics.

use proptest::prelude::*;

use falcon_core::recovery::recover;
use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{Engine, EngineConfig};
use falcon_storage::{ColType, Schema};
use pmem_sim::{PmemDevice, SimConfig};

const TABLE: u32 = 0;
// 512-byte rows against a ~341-byte log slot: every insert spills.
const ROW: usize = 512;
// Tiny spill region: a handful of spilled inserts fills it.
const CAP: u64 = 8 << 10;

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

fn big_def() -> TableDef {
    TableDef {
        schema: Schema::new(
            "big",
            &[("k", ColType::U64), ("v", ColType::Bytes((ROW - 8) as u32))],
        ),
        index_kind: IndexKind::Hash,
        capacity_hint: 4_096,
        primary_key: key_fn,
        secondary: None,
    }
}

fn row(k: u64, tag: u8) -> Vec<u8> {
    let mut r = vec![tag; ROW];
    r[0..8].copy_from_slice(&k.to_le_bytes());
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bursts of 1–4 spilling inserts per transaction, far more total
    /// bytes than the cap: everything commits, the stall counter is the
    /// only externally visible effect, and a crash at the end loses
    /// nothing that committed.
    #[test]
    fn burst_storm_under_tiny_cap_commits_everything(
        bursts in proptest::collection::vec(1..=4usize, 4..24),
    ) {
        let mut cfg = EngineConfig::falcon()
            .with_threads(1)
            // Threshold == cap: boundary checkpoints almost never fire,
            // so reclamation happens under backpressure — the path
            // under test.
            .with_spill_cap(CAP, CAP);
        cfg.window_bytes = 1024;
        let dev = PmemDevice::new(SimConfig::small().with_capacity(256 << 20)).unwrap();
        let e = Engine::create(dev.clone(), cfg.clone(), &[big_def()]).unwrap();
        let mut w = e.worker(0).unwrap();
        let mut k = 0u64;
        let mut committed = Vec::new();
        for &burst in &bursts {
            let mut t = e.begin(&mut w, false);
            let mut keys = Vec::new();
            for _ in 0..burst {
                t.insert(TABLE, &row(k, (k % 250) as u8 + 1))
                    .expect("within-cap insert never fails");
                keys.push(k);
                k += 1;
            }
            t.commit().expect("burst commit never fails");
            committed.extend(keys);
        }
        let s = w.ckpt_stats();
        // Total spilled bytes dwarf the cap, so backpressure must have
        // engaged, and every stall resolved into a published drain
        // checkpoint (stall => run => publish).
        let spilled: u64 = committed.len() as u64 * 568 + bursts.len() as u64 * 56;
        if spilled > CAP {
            prop_assert!(s.backpressure_stalls > 0, "cap engaged: {s:?}");
        }
        prop_assert!(s.published >= s.backpressure_stalls, "{s:?}");

        // The stall counters reconcile with the window's own
        // full-stall count: every backpressure stall consumed exactly
        // one LogOverflow that the window also counted.
        let es = e.collect_obs(&w);
        prop_assert!(
            es.ckpt_backpressure_stalls <= es.log_full_stalls,
            "stalls {} > window full stalls {}",
            es.ckpt_backpressure_stalls,
            es.log_full_stalls
        );
        prop_assert_eq!(es.ckpt_published, s.published);
        prop_assert_eq!(es.spill_bytes_truncated, s.spill_bytes_truncated);
        prop_assert_eq!(es.commits, bursts.len() as u64);
        prop_assert_eq!(es.aborts, 0, "no burst may abort");

        // Nothing was dropped: every committed row reads back, live...
        for &key in &committed {
            let mut t = e.begin(&mut w, true);
            prop_assert_eq!(t.read(TABLE, key).unwrap()[8], (key % 250) as u8 + 1);
            t.commit().unwrap();
        }
        drop(w);
        drop(e);
        // ...and across a crash.
        dev.crash();
        let (e2, _rep) = recover(dev, cfg, &[big_def()]).unwrap();
        let mut w = e2.worker(0).unwrap();
        for &key in &committed {
            let mut t = e2.begin(&mut w, true);
            prop_assert_eq!(t.read(TABLE, key).unwrap()[8], (key % 250) as u8 + 1);
            t.commit().unwrap();
        }
    }
}
