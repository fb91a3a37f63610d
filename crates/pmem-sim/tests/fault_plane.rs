//! Integration tests for the seeded fault-injection plane: cut-anywhere
//! power failures, torn writes, bit-rot, and device forking.

use pmem_sim::{BitFlip, FaultPlan, MemCtx, PAddr, PersistDomain, PmemDevice, SimConfig};

fn dev(domain: PersistDomain) -> PmemDevice {
    PmemDevice::new(SimConfig::small().with_domain(domain)).unwrap()
}

/// The canonical workload used by several tests: three 64-byte writes,
/// each flushed and fenced.
fn run_workload(d: &PmemDevice, ctx: &mut MemCtx) {
    for i in 0u64..3 {
        d.write(PAddr(i * 64), &[i as u8 + 1; 64], ctx);
        d.clwb(PAddr(i * 64), ctx);
        d.sfence(ctx);
    }
}

#[test]
fn calibration_counts_events_without_tripping() {
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan::calibrate());
    run_workload(&d, &mut ctx);
    let events = d.fault_events();
    // 3 × (write + clwb + writeback + sfence) = 12 events.
    assert_eq!(events, 12);
    assert!(!d.fault_tripped());

    // Re-running the same workload after re-install counts the same.
    d.install_fault_plan(FaultPlan::calibrate());
    let mut ctx2 = MemCtx::new(0);
    run_workload(&d, &mut ctx2);
    assert_eq!(d.fault_events(), events, "event counting is deterministic");
    d.clear_fault_plan();
}

#[test]
fn cut_before_first_event_loses_everything_eadr() {
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan {
        seed: 1,
        cut_at_event: Some(0),
        tear_writes: false,
        bit_flips: vec![],
    });
    run_workload(&d, &mut ctx);
    assert!(d.fault_tripped());
    d.crash();
    let out = d.fault_outcome().expect("plan consumed");
    assert_eq!(out.tripped_at, Some(0));
    assert_eq!(out.events, 12);
    let mut buf = [0u8; 64];
    d.media_read(PAddr(0), &mut buf);
    assert_eq!(buf, [0u8; 64], "nothing before event 0 was durable");
    d.raw_read(PAddr(0), &mut buf);
    assert_eq!(buf, [0u8; 64], "the rebooted image agrees");
}

#[test]
fn cut_after_last_event_behaves_like_clean_crash() {
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan::cut(1, 1_000_000));
    run_workload(&d, &mut ctx);
    assert!(!d.fault_tripped());
    d.crash();
    let out = d.fault_outcome().unwrap();
    assert_eq!(out.tripped_at, None);
    // eADR clean crash keeps everything.
    let mut buf = [0u8; 64];
    for i in 0u64..3 {
        d.media_read(PAddr(i * 64), &mut buf);
        assert_eq!(buf, [i as u8 + 1; 64]);
    }
}

#[test]
fn eadr_cut_between_writes_keeps_prefix_of_history() {
    // Cut at event 4 = start of the second write: first write (events
    // 0-3, incl. its clwb/writeback/sfence) durable, rest lost.
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan {
        seed: 9,
        cut_at_event: Some(4),
        tear_writes: false,
        bit_flips: vec![],
    });
    run_workload(&d, &mut ctx);
    d.crash();
    let mut buf = [0u8; 64];
    d.media_read(PAddr(0), &mut buf);
    assert_eq!(buf, [1u8; 64], "write before the cut survives");
    d.media_read(PAddr(64), &mut buf);
    assert_eq!(buf, [0u8; 64], "write at the cut is dropped");
    d.media_read(PAddr(128), &mut buf);
    assert_eq!(buf, [0u8; 64], "write after the cut is dropped");
}

#[test]
fn eadr_torn_store_is_word_prefix() {
    // A 64-byte write torn by the cut: some word-aligned prefix persists.
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan::cut(0xfeed, 0));
    d.write(PAddr(0), &[0xabu8; 64], &mut ctx);
    d.crash();
    let out = d.fault_outcome().unwrap();
    assert!(out.torn_words < 8, "at least the last word must be lost");
    let mut buf = [0u8; 64];
    d.media_read(PAddr(0), &mut buf);
    let persisted = buf.iter().take_while(|&&b| b == 0xab).count();
    assert_eq!(persisted as u64, out.torn_words * 8);
    assert!(
        buf[persisted..].iter().all(|&b| b == 0),
        "strict word prefix"
    );
}

#[test]
fn torn_pattern_is_replayable_from_seed() {
    let image = |seed: u64| {
        let d = dev(PersistDomain::Eadr);
        let mut ctx = MemCtx::new(0);
        d.install_fault_plan(FaultPlan::cut(seed, 0));
        d.write(PAddr(0), &[0xcdu8; 48], &mut ctx);
        d.crash();
        let mut buf = [0u8; 48];
        d.media_read(PAddr(0), &mut buf);
        buf
    };
    assert_eq!(image(42), image(42), "same seed, same tear");
    // Different seeds eventually differ (torn prefix length varies).
    assert!((0..16).any(|s| image(s) != image(42)));
}

#[test]
fn adr_torn_line_writeback_is_word_subset() {
    // Under ADR only the writeback moves bytes to media; tear it.
    let d = dev(PersistDomain::Adr);
    let mut ctx = MemCtx::new(0);
    // Event 0 = write (volatile), event 1 = clwb, event 2 = the
    // writeback the clwb triggers.
    d.install_fault_plan(FaultPlan::cut(0x0ddba11, 2));
    d.write(PAddr(0), &[0x77u8; 64], &mut ctx);
    d.clwb(PAddr(0), &mut ctx);
    d.sfence(&mut ctx);
    assert!(d.fault_tripped());
    d.crash();
    let out = d.fault_outcome().unwrap();
    assert_eq!(out.tripped_at, Some(2));
    let mut buf = [0u8; 64];
    d.media_read(PAddr(0), &mut buf);
    for w in 0..8usize {
        let word = &buf[w * 8..w * 8 + 8];
        let full = word.iter().all(|&b| b == 0x77);
        let empty = word.iter().all(|&b| b == 0);
        assert!(full || empty, "8-byte atomicity: word {w} must not tear");
    }
    let persisted = (0..8)
        .filter(|&w| buf[w * 8..w * 8 + 8].iter().all(|&b| b == 0x77))
        .count() as u64;
    assert_eq!(persisted, out.torn_words);
}

#[test]
fn bit_flips_corrupt_media_at_crash() {
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.write(PAddr(0), &[0u8; 8], &mut ctx);
    d.install_fault_plan(FaultPlan {
        seed: 0,
        cut_at_event: None,
        tear_writes: false,
        bit_flips: vec![
            BitFlip { addr: 3, bit: 0 },
            BitFlip {
                addr: u64::MAX,
                bit: 1,
            }, // out of range: skipped
        ],
    });
    d.crash();
    let out = d.fault_outcome().unwrap();
    assert_eq!(out.bit_flips_applied, 1);
    let mut buf = [0u8; 8];
    d.media_read(PAddr(0), &mut buf);
    assert_eq!(buf[3], 1, "bit 0 of byte 3 flipped");
    d.raw_read(PAddr(0), &mut buf);
    assert_eq!(buf[3], 1, "CPU image sees the rot after reboot");
}

#[test]
fn tripped_flag_freezes_durable_state_not_execution() {
    // After the trip the workload keeps running (and reads its own
    // writes), but none of it survives the crash.
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan {
        seed: 3,
        cut_at_event: Some(1),
        tear_writes: false,
        bit_flips: vec![],
    });
    d.write(PAddr(0), &[1u8; 8], &mut ctx); // event 0: durable
    d.write(PAddr(8), &[2u8; 8], &mut ctx); // event 1: cut here
    assert!(d.fault_tripped());
    d.write(PAddr(16), &[3u8; 8], &mut ctx); // post-trip
    let mut buf = [0u8; 8];
    d.read(PAddr(16), &mut buf, &mut ctx);
    assert_eq!(buf, [3u8; 8], "execution continues past the trip");
    d.crash();
    d.media_read(PAddr(0), &mut buf);
    assert_eq!(buf, [1u8; 8]);
    d.media_read(PAddr(8), &mut buf);
    assert_eq!(buf, [0u8; 8]);
    d.media_read(PAddr(16), &mut buf);
    assert_eq!(buf, [0u8; 8], "post-trip write vanishes at crash");
}

#[test]
fn adr_cut_preserves_only_writebacks_before_cut() {
    let d = dev(PersistDomain::Adr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan {
        seed: 5,
        cut_at_event: Some(3),
        tear_writes: false,
        bit_flips: vec![],
    });
    // Events: 0 write A, 1 clwb A, 2 writeback A, 3 sfence (cut) ...
    d.write(PAddr(0), &[0x11u8; 64], &mut ctx);
    d.clwb(PAddr(0), &mut ctx);
    d.sfence(&mut ctx);
    d.write(PAddr(64), &[0x22u8; 64], &mut ctx);
    d.clwb(PAddr(64), &mut ctx);
    d.sfence(&mut ctx);
    d.crash();
    let mut buf = [0u8; 64];
    d.media_read(PAddr(0), &mut buf);
    assert_eq!(buf, [0x11u8; 64], "written back before the cut");
    d.media_read(PAddr(64), &mut buf);
    assert_eq!(buf, [0u8; 64], "written back after the cut: lost");
}

#[test]
fn fork_snapshots_images_independently() {
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.write(PAddr(0), &[9u8; 16], &mut ctx);
    d.quiesce();
    let f = d.fork();
    // Diverge the original; the fork must not see it.
    d.write(PAddr(0), &[1u8; 16], &mut ctx);
    let mut buf = [0u8; 16];
    f.raw_read(PAddr(0), &mut buf);
    assert_eq!(buf, [9u8; 16]);
    f.media_read(PAddr(0), &mut buf);
    assert_eq!(buf, [9u8; 16]);
    // And the fork can take its own fault plan + crash without
    // affecting the original.
    f.install_fault_plan(FaultPlan::cut(7, 0));
    let mut fctx = MemCtx::new(0);
    f.write(PAddr(32), &[5u8; 8], &mut fctx);
    f.crash();
    d.raw_read(PAddr(0), &mut buf);
    assert_eq!(buf, [1u8; 16], "original unaffected by fork's crash");
}

#[test]
fn clear_fault_plan_restores_clean_crash() {
    let d = dev(PersistDomain::Eadr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan::cut(1, 0));
    d.write(PAddr(0), &[4u8; 8], &mut ctx);
    assert!(d.fault_tripped());
    d.clear_fault_plan();
    assert!(!d.fault_tripped());
    d.crash();
    assert!(
        d.fault_outcome().is_none(),
        "cleared plan leaves no outcome"
    );
    let mut buf = [0u8; 8];
    d.media_read(PAddr(0), &mut buf);
    assert_eq!(buf, [4u8; 8], "clean eADR crash keeps the write");
}

#[test]
fn adr_line_dirty_at_the_cut_is_lost_despite_a_later_flush() {
    let d = dev(PersistDomain::Adr);
    let mut ctx = MemCtx::new(0);
    d.install_fault_plan(FaultPlan {
        seed: 2,
        cut_at_event: Some(1),
        tear_writes: false,
        bit_flips: vec![],
    });
    d.write(PAddr(0), &[0x33u8; 64], &mut ctx); // event 0: dirty, volatile
    d.sfence(&mut ctx); // event 1: the cut
    assert!(d.fault_tripped());
    d.clwb(PAddr(0), &mut ctx);
    d.sfence(&mut ctx);
    d.crash();
    let mut buf = [0u8; 64];
    d.media_read(PAddr(0), &mut buf);
    assert_eq!(buf, [0u8; 64], "written back only after the cut: lost");
    d.raw_read(PAddr(0), &mut buf);
    assert_eq!(buf, [0u8; 64]);
}

#[test]
fn line_written_back_before_the_cut_keeps_its_pre_cut_bytes() {
    for domain in [PersistDomain::Adr, PersistDomain::Eadr] {
        let d = dev(domain);
        let mut ctx = MemCtx::new(0);
        // Events: 0 write, 1 clwb, 2 writeback, 3 sfence, 4 rewrite (cut).
        d.install_fault_plan(FaultPlan {
            seed: 4,
            cut_at_event: Some(4),
            tear_writes: false,
            bit_flips: vec![],
        });
        d.write(PAddr(64), &[0x44u8; 64], &mut ctx);
        d.clwb(PAddr(64), &mut ctx);
        d.sfence(&mut ctx);
        d.write(PAddr(64), &[0x55u8; 64], &mut ctx);
        assert!(d.fault_tripped());
        d.clwb(PAddr(64), &mut ctx);
        d.sfence(&mut ctx);
        d.crash();
        let mut buf = [0u8; 64];
        d.media_read(PAddr(64), &mut buf);
        assert_eq!(
            buf, [0x44u8; 64],
            "{domain:?}: the bytes durable at the cut"
        );
        d.raw_read(PAddr(64), &mut buf);
        assert_eq!(buf, [0x44u8; 64], "{domain:?}: the image after reboot");
    }
}

#[test]
fn raw_write_after_the_cut_is_lost_and_before_it_survives() {
    for domain in [PersistDomain::Adr, PersistDomain::Eadr] {
        let d = dev(domain);
        let mut ctx = MemCtx::new(0);
        d.install_fault_plan(FaultPlan {
            seed: 5,
            cut_at_event: Some(1),
            tear_writes: false,
            bit_flips: vec![],
        });
        d.raw_write(PAddr(0), &[0x66u8; 8]); // not an event: durable at once
        d.write(PAddr(128), &[0x77u8; 8], &mut ctx); // event 0
        d.sfence(&mut ctx); // event 1: the cut
        assert!(d.fault_tripped());
        d.raw_write(PAddr(8), &[0x88u8; 8]); // after the cut
        d.crash();
        let mut buf = [0u8; 16];
        d.media_read(PAddr(0), &mut buf);
        assert_eq!(
            buf[..8],
            [0x66u8; 8],
            "{domain:?}: raw write before the cut"
        );
        assert_eq!(buf[8..], [0u8; 8], "{domain:?}: raw write after the cut");
    }
}
