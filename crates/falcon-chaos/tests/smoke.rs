//! Small fixed-seed chaos runs; the full-depth sweep lives in
//! `scripts/check.sh` (release build, ≥200 iterations per engine).

use falcon_chaos::{lineup, run_spec, ChaosConfig};

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
