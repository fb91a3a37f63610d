//! falcon-perf: emit or gate the committed benchmark trajectory.
//!
//! ```text
//! falcon_perf emit [--label STR] [--out PATH] [--profile folded]
//! falcon_perf check --against PATH [--tol F]
//! ```
//!
//! `emit` runs the fixed suite lineup (see `falcon_bench::perf`) and
//! writes the schema-versioned record to `--out` (stdout by default).
//! With `--profile folded`, stdout instead carries the per-suite folded
//! stacks — pipe straight into `flamegraph.pl` or `inferno-flamegraph`
//! — and the record is only written if `--out` names a file.
//!
//! `check` reruns the lineup and diffs it against a committed
//! `bench/BENCH_*.json` with a direction-aware relative tolerance
//! (`--tol`, else `FALCON_PERF_TOL`, else 0: exact). Exit status 1 plus a
//! per-metric delta table when any metric regressed.

use std::process::ExitCode;

use falcon_bench::perf;

fn usage() -> ExitCode {
    eprintln!(
        "usage: falcon_perf emit [--label STR] [--out PATH] [--profile folded]\n       \
         falcon_perf check --against PATH [--tol F]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("emit") => {
            let mut label = "dev".to_string();
            let mut out: Option<String> = None;
            let mut folded = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--label" => match it.next() {
                        Some(v) => label = v.clone(),
                        None => return usage(),
                    },
                    "--out" => match it.next() {
                        Some(v) => out = Some(v.clone()),
                        None => return usage(),
                    },
                    "--profile" => match it.next().map(String::as_str) {
                        Some("folded") => folded = true,
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let (doc, stacks) = perf::bench_document(&label, folded);
            let text = perf::render(&doc);
            match &out {
                Some(path) => {
                    if let Some(dir) = std::path::Path::new(path).parent() {
                        let _ = std::fs::create_dir_all(dir);
                    }
                    if let Err(e) = std::fs::write(path, &text) {
                        eprintln!("falcon_perf: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("[falcon-perf] wrote {path}");
                }
                None if !folded => print!("{text}"),
                None => {}
            }
            if let Some(stacks) = stacks {
                print!("{stacks}");
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut against: Option<String> = None;
            let mut tol: Option<f64> = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--against" => match it.next() {
                        Some(v) => against = Some(v.clone()),
                        None => return usage(),
                    },
                    "--tol" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(v) => tol = Some(v),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let Some(path) = against else { return usage() };
            let tol = tol
                .or_else(|| {
                    std::env::var("FALCON_PERF_TOL")
                        .ok()
                        .and_then(|v| v.parse().ok())
                })
                .unwrap_or(perf::DEFAULT_TOL);
            let baseline = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("falcon_perf: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let baseline = match serde_json::from_str(&baseline) {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("falcon_perf: {path} is not valid JSON");
                    return ExitCode::FAILURE;
                }
            };
            let (fresh, _) = perf::bench_document("check", false);
            match perf::compare(&baseline, &fresh, tol) {
                Ok(c) => {
                    print!("{}", c.render_table());
                    if c.pass() {
                        println!("falcon-perf gate: PASS (baseline {path})");
                        ExitCode::SUCCESS
                    } else {
                        println!("falcon-perf gate: FAIL (baseline {path})");
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("falcon_perf: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
