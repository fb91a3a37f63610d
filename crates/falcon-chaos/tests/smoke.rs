//! Small fixed-seed chaos runs; the full-depth sweep lives in
//! `scripts/check.sh` (release build, 2 000 iterations per spec).

use falcon_chaos::{lineup, replay, run_spec, ChaosConfig};

#[test]
fn short_lineup_sweep_is_violation_free() {
    let cfg = ChaosConfig {
        iterations: 6,
        seed: 0x5EED,
        legs_every: 3,
        ..ChaosConfig::default()
    };
    for sp in lineup() {
        let out = run_spec(&sp, &cfg);
        assert!(
            out.violations.is_empty(),
            "{}: {:#?}",
            sp.label,
            out.violations
        );
        assert_eq!(out.iterations, 6);
        assert!(out.recrash_checks >= 1, "{}: legs ran", sp.label);
        assert!(out.bitrot_checks >= 1);
    }
}

#[test]
fn cuts_actually_trip_mid_workload() {
    let cfg = ChaosConfig {
        iterations: 8,
        seed: 0xA11CE,
        legs_every: 0,
        ..ChaosConfig::default()
    };
    let sp = &lineup()[0];
    let out = run_spec(sp, &cfg);
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    // Iteration 0 calibrates (never trips); later cuts land inside the
    // workload's event span, so most of them must trip.
    assert!(out.tripped >= 4, "only {} of 8 cuts tripped", out.tripped);
}

/// The serving spec: the falcon-server serving loop (the
/// `GroupCommitter` that also serves TCP) under the same kernel. Beyond
/// a clean verdict, the sweep must actually exercise what the spec
/// exists for: cuts mid-serving, cuts inside a group-fence bracket,
/// released write acks, and admission sheds.
#[test]
fn serving_spec_is_clean_and_covers_fences_acks_and_sheds() {
    let sp = lineup()
        .into_iter()
        .find(|s| s.serving.is_some())
        .expect("lineup has the falcon-serve spec");
    assert!(sp.label.starts_with("falcon-serve/"));
    let cfg = ChaosConfig {
        iterations: 12,
        seed: 0x5E4F_C4A5,
        legs_every: 4,
        ..ChaosConfig::default()
    };
    let out = run_spec(&sp, &cfg);
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    assert_eq!(out.iterations, 12);
    assert!(out.tripped > 0, "some cuts must land mid-serving");
    assert!(
        out.fence_bracket_cuts > 0,
        "some cuts must land inside a group-fence bracket"
    );
    assert!(out.acked_writes > 0, "acks must be exercised");
    assert!(out.sheds > 0, "sheds must be exercised");
    assert!(out.recrash_checks >= 1 && out.scan_checks == 12);
}

/// Crash points the lineup once failed under ADR, each a `(spec, seed,
/// cut)` replay. A change that adds or removes device events moves
/// every later cut index, so each seed is replayed at every cut within
/// 64 events of the original one, which keeps the crash point it found
/// inside the swept range.
///
/// - `Inp/OCC/adr/hash`: a slot's reuse stamped `UNCOMMITTED` into a
///   header whose durable length and TID were its previous, committed
///   occupant's. The torn write-back persisted only the state word, and
///   recovery undid the old occupant's insert: a loaded row was lost.
/// - `Outp/OCC/adr/*`: an insert's row reached the media while its
///   slot's flags word was still durably zero, which the recovery scan
///   reads as a bulk-loaded, committed version: the boundary
///   transaction surfaced half applied.
#[test]
fn adr_torn_writeback_regressions_stay_fixed() {
    const CASES: [(&str, u64, u64); 5] = [
        ("Inp/OCC/adr/hash", 0x470c_5de9_8b81_be11, 125),
        ("Outp/OCC/adr/hash", 0xa017_3478_44d0_6dc3, 127),
        ("Outp/OCC/adr/hash", 0xd52b_d081_d32c_2ab3, 277),
        ("Outp/OCC/adr/btree", 0xc320_a749_752a_5447, 339),
        ("Outp/OCC/adr/btree", 0x5c4d_474c_65e1_907b, 321),
    ];
    let cfg = ChaosConfig::default();
    for (label, seed, cut) in CASES {
        let sp = lineup()
            .into_iter()
            .find(|s| s.label == label)
            .expect("spec in the lineup");
        for c in cut.saturating_sub(64)..cut + 64 {
            let v = replay(&sp, &cfg, seed, Some(c));
            assert!(v.is_empty(), "{label} {seed:#x}:{c}: {v:#?}");
        }
    }
}
