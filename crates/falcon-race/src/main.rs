//! Command-line race/persist-order sweep driver.
//!
//! ```text
//! falcon-race [--kernel SUBSTR] [--preemptions N] [--smoke-only]
//!             [--kernels-only] [--repro NAME:SCHEDULE] [--list] [--json]
//! ```
//!
//! The default run sweeps every kernel's bounded interleaving space and
//! then the real-thread smoke workloads. It exits 0 when every correct
//! kernel and smoke run is clean **and** every fixture is detected;
//! anything else prints a ready-to-paste `--repro NAME:SCHEDULE` line
//! and exits 1 (mirroring the falcon-chaos UX).

use falcon_race::kernels::{find, lineup, KernelSpec};
use falcon_race::sched::explore;
use falcon_race::{run_schedule, smoke};

use falcon_core::EngineConfig;
use pmem_sim::PersistDomain;

fn usage() -> ! {
    eprintln!(
        "usage: falcon-race [--kernel SUBSTR] [--preemptions N] [--smoke-only] \
         [--kernels-only] [--repro NAME:SCHEDULE] [--list] [--json]"
    );
    std::process::exit(2)
}

/// Sweep one kernel; returns `true` if its expectation held.
fn sweep(k: &KernelSpec, preemptions: Option<usize>) -> bool {
    let bound = preemptions.unwrap_or(k.preemptions);
    let r = explore(&k.build, bound);
    let status = match (k.expect_clean, r.is_clean()) {
        (true, true) => "clean",
        (false, false) => "detected",
        (true, false) => "VIOLATION",
        (false, true) => "MISSED",
    };
    println!(
        "{:<24} {:>6} schedules  (≤{} preemptions)  {}",
        k.name, r.schedules, bound, status
    );
    if k.expect_clean {
        for f in &r.failures {
            eprintln!(
                "VIOLATION {}: schedule {}\n{}{}  replay: falcon-race --repro {}:{}",
                k.name,
                f.schedule,
                f.report,
                f.outcome
                    .as_ref()
                    .err()
                    .map(|e| format!("  outcome: {e}\n"))
                    .unwrap_or_default(),
                k.name,
                f.schedule
            );
        }
        r.is_clean()
    } else {
        if r.is_clean() {
            eprintln!(
                "MISSED {}: fixture produced no finding over {} schedules — \
                 the detector has lost this bug class",
                k.name, r.schedules
            );
        } else if let Some(f) = r.failures.first() {
            println!(
                "  first failing schedule: {}  (replay: falcon-race --repro {}:{})",
                f.schedule, k.name, f.schedule
            );
        }
        !r.is_clean()
    }
}

fn run_smokes(summaries: &mut Vec<serde_json::Value>) -> bool {
    let mut ok = true;
    let runs = [
        ("falcon/eadr", EngineConfig::falcon(), PersistDomain::Eadr),
        ("inp/adr", EngineConfig::inp(), PersistDomain::Adr),
        ("zens/eadr", EngineConfig::zens(), PersistDomain::Eadr),
    ];
    for (label, engine_cfg, domain) in runs {
        let cfg = smoke::SmokeConfig {
            domain,
            ..smoke::SmokeConfig::default()
        };
        let r = smoke::run(&engine_cfg, &cfg);
        let clean = r.report.is_clean();
        println!(
            "smoke {:<18} {} threads  {} committed  {} retries  {}",
            label,
            cfg.threads,
            r.committed,
            r.retries,
            if clean { "clean" } else { "VIOLATION" }
        );
        // Same shape as the `race` section of the falcon-obs run
        // report, keyed by smoke label.
        let s = r.report.summary();
        summaries.push(serde_json::json!({
            "label": label,
            "threads": s.threads,
            "events": s.events,
            "data_races": s.data_races,
            "persist_publishes": s.persist_publishes,
            "lock_discipline": s.lock_discipline,
            "clean": s.is_clean(),
        }));
        if !clean {
            eprintln!("VIOLATION smoke {label}:\n{}", r.report);
            ok = false;
        }
    }
    ok
}

fn main() {
    let mut filter = String::new();
    let mut preemptions: Option<usize> = None;
    let mut smoke_only = false;
    let mut kernels_only = false;
    let mut repro: Option<(String, String)> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--kernel" => filter = args.next().unwrap_or_else(|| usage()),
            "--preemptions" => {
                preemptions = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--smoke-only" => smoke_only = true,
            "--kernels-only" => kernels_only = true,
            "--json" => json = true,
            "--repro" => {
                let v = args.next().unwrap_or_else(|| usage());
                let (name, sched) = v.split_once(':').unwrap_or_else(|| usage());
                repro = Some((name.to_string(), sched.to_string()));
            }
            "--list" => {
                for k in lineup() {
                    println!(
                        "{:<24} [{}] {}",
                        k.name,
                        if k.expect_clean { "kernel" } else { "fixture" },
                        k.about
                    );
                }
                return;
            }
            _ => usage(),
        }
    }

    if let Some((name, sched)) = repro {
        let Some(k) = find(&name) else {
            eprintln!("unknown kernel {name:?} (see --list)");
            std::process::exit(2);
        };
        match run_schedule(&k.build, &sched) {
            Ok((report, outcome)) => {
                let bad = !report.is_clean() || outcome.is_err();
                print!("{report}");
                if let Err(e) = &outcome {
                    println!("outcome: {e}");
                }
                if bad {
                    println!("replay: falcon-race --repro {name}:{sched}");
                } else {
                    println!("{name}: clean on schedule {sched}");
                }
                std::process::exit(i32::from(bad));
            }
            Err(e) => {
                eprintln!("bad schedule: {e}");
                std::process::exit(2);
            }
        }
    }

    let specs: Vec<KernelSpec> = lineup()
        .into_iter()
        .filter(|k| k.name.contains(&filter))
        .collect();
    if specs.is_empty() && !smoke_only {
        eprintln!("no kernel matches {filter:?}");
        std::process::exit(2);
    }

    let mut ok = true;
    let mut kernels = 0usize;
    let mut fixtures = 0usize;
    if !smoke_only {
        for k in &specs {
            if k.expect_clean {
                kernels += 1;
            } else {
                fixtures += 1;
            }
            ok &= sweep(k, preemptions);
        }
    }
    let mut smokes = Vec::new();
    if !kernels_only && filter.is_empty() {
        ok &= run_smokes(&mut smokes);
    }

    if json {
        // Machine-readable summary for harness consumption.
        let v = serde_json::json!({
            "kernels": kernels,
            "fixtures": fixtures,
            "smokes": smokes,
            "ok": ok,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&v).expect("serialize summary")
        );
    }
    if !ok {
        std::process::exit(1);
    }
    println!("race: {kernels} kernel(s) clean, {fixtures} fixture(s) detected, smoke clean");
}
