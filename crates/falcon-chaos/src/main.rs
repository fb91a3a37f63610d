//! Command-line chaos driver.
//!
//! ```text
//! falcon-chaos [--iterations N] [--seed S] [--spec SUBSTR]
//!              [--index hash|btree] [--keys K] [--txns T]
//!              [--legs-every M] [--repro SEED:CUT] [--list]
//! ```
//!
//! Fuzzes every lineup spec (or those whose label contains `SUBSTR`,
//! further narrowed to one index structure by `--index`) for `N` seeded
//! crash-recover-verify iterations each. `--keys`/`--txns` size the
//! random-transaction workload of the engine specs; the `falcon-serve`
//! spec's workload is the falcon-server serving loop and ignores them.
//! On any oracle violation the exact `(spec, seed, cut)` tuple is
//! printed together with a ready-to-paste `--repro` invocation, and the
//! process exits 1.

use falcon_chaos::{lineup, replay, run_spec, ChaosConfig, IndexKind, SpecOutcome};

fn usage() -> ! {
    eprintln!(
        "usage: falcon-chaos [--iterations N] [--seed S] [--spec SUBSTR] \
         [--index hash|btree] [--keys K] [--txns T] [--legs-every M] \
         [--repro SEED:CUT] [--list]"
    );
    std::process::exit(2)
}

fn parse_u64(v: Option<String>) -> u64 {
    let Some(v) = v else { usage() };
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.unwrap_or_else(|_| usage())
}

fn main() {
    let mut cfg = ChaosConfig::default();
    let mut filter = String::new();
    let mut index: Option<IndexKind> = None;
    let mut repro: Option<(u64, Option<u64>)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iterations" => cfg.iterations = parse_u64(args.next()),
            "--seed" => cfg.seed = parse_u64(args.next()),
            "--keys" => cfg.keys = parse_u64(args.next()),
            "--txns" => cfg.txns = parse_u64(args.next()),
            "--legs-every" => cfg.legs_every = parse_u64(args.next()),
            "--spec" => filter = args.next().unwrap_or_else(|| usage()),
            "--index" => {
                index = Some(match args.next().as_deref() {
                    Some("hash") => IndexKind::Hash,
                    Some("btree") => IndexKind::BTree,
                    _ => usage(),
                });
            }
            "--repro" => {
                let v = args.next().unwrap_or_else(|| usage());
                let (s, c) = v.split_once(':').unwrap_or_else(|| usage());
                let cut = match c {
                    "none" => None,
                    c => Some(parse_u64(Some(c.to_string()))),
                };
                repro = Some((parse_u64(Some(s.to_string())), cut));
            }
            "--list" => {
                for sp in lineup() {
                    println!("{}", sp.label);
                }
                return;
            }
            _ => usage(),
        }
    }

    let specs: Vec<_> = lineup()
        .into_iter()
        .filter(|sp| sp.label.contains(&filter) && index.is_none_or(|ix| sp.index == ix))
        .collect();
    if specs.is_empty() {
        eprintln!("no lineup spec matches {filter:?}");
        std::process::exit(2);
    }

    if let Some((seed, cut)) = repro {
        let mut bad = 0usize;
        for sp in &specs {
            let violations = replay(sp, &cfg, seed, cut);
            for v in &violations {
                println!("VIOLATION {}: {}", v.spec, v.detail);
            }
            if violations.is_empty() {
                println!("{}: clean (seed={seed:#x} cut={cut:?})", sp.label);
            }
            bad += violations.len();
        }
        std::process::exit(i32::from(bad > 0));
    }

    let mut outcomes: Vec<SpecOutcome> = Vec::new();
    for sp in &specs {
        let out = run_spec(sp, &cfg);
        let ckpt_legs = out.ckpt_crash_checks
            + out.ckpt_trunc_checks
            + out.ckpt_recrash_checks
            + out.ckpt_bitrot_checks;
        let extra = if ckpt_legs > 0 {
            format!(
                "  ckpt(publish/trunc/recrash/rot) {}/{}/{}/{} ({} meta-corrupt)",
                out.ckpt_crash_checks,
                out.ckpt_trunc_checks,
                out.ckpt_recrash_checks,
                out.ckpt_bitrot_checks,
                out.ckpt_meta_corrupt,
            )
        } else if out.acked_writes + out.sheds > 0 {
            format!(
                "  serve(fence-cuts/acked/sheds) {}/{}/{}",
                out.fence_bracket_cuts, out.acked_writes, out.sheds,
            )
        } else {
            String::new()
        };
        println!(
            "{:<26} {:>4} iters  {:>4} tripped  torn {:>3}  corrupt {:>3}  \
             salvaged {:>3}  repairs {:>3}  recrash {:>2}  scans {:>3}  \
             split-recrash {:>2}  bitrot {:>2}{extra}  violations {}",
            out.label,
            out.iterations,
            out.tripped,
            out.torn_records,
            out.corrupt_records,
            out.windows_salvaged,
            out.index_repairs,
            out.recrash_checks,
            out.scan_checks,
            out.split_recrash_checks,
            out.bitrot_checks,
            out.violations.len(),
        );
        outcomes.push(out);
    }

    let mut failed = false;
    for out in &outcomes {
        for v in &out.violations {
            failed = true;
            let cut = v.cut.map_or("none".to_string(), |c| c.to_string());
            eprintln!(
                "VIOLATION {}: {}\n  replay: falcon-chaos --spec '{}' --seed {:#x} \
                 --keys {} --txns {} --repro {:#x}:{}",
                v.spec, v.detail, v.spec, cfg.seed, cfg.keys, cfg.txns, v.seed, cut
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
    let total: u64 = outcomes.iter().map(|o| o.iterations).sum();
    let tripped: u64 = outcomes.iter().map(|o| o.tripped).sum();
    println!("chaos: {total} iterations ({tripped} tripped), zero oracle violations");
}
