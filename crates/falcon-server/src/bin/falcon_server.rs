//! `falcon_server` — run the serving layer until a `DRAIN` request
//! arrives, then exit 0 with the drain report.
//!
//! ```text
//! falcon_server [--addr HOST:PORT] [--cap N] [--window N]
//!               [--batch N] [--keys N] [--seed HEX]
//! ```

use falcon_server::{serve, ServerConfig};
use std::process::ExitCode;

fn parse_args(cfg: &mut ServerConfig) -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--addr" => cfg.addr = val("--addr")?,
            "--cap" => cfg.admission_cap = num(&val("--cap")?)? as usize,
            "--window" => cfg.conn_window = num(&val("--window")?)?,
            "--batch" => cfg.group_max_batch = num(&val("--batch")?)? as usize,
            "--keys" => cfg.preload_keys = num(&val("--keys")?)?,
            "--seed" => cfg.seed = num(&val("--seed")?)?,
            "--slowdown-us" => cfg.engine_slowdown_us = num(&val("--slowdown-us")?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(())
}

fn num(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
    .map_err(|_| format!("bad number: {s}"))
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    if let Err(e) = parse_args(&mut cfg) {
        eprintln!("falcon_server: {e}");
        return ExitCode::FAILURE;
    }
    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("falcon_server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("falcon_server listening on {}", handle.addr());
    let counters = handle.counters_arc();
    let report = handle.wait();
    let c = counters.snapshot();
    // Drain contract: the group-commit queue must be empty at exit.
    if !report.group_queue_empty {
        eprintln!("falcon_server: drained with a non-empty group-commit queue");
        return ExitCode::FAILURE;
    }
    println!(
        "drained: committed {} fences {} (queue empty, checkpointed)",
        report.committed, report.fences
    );
    // The same snapshot a `STATS` request returns.
    println!("counters: {c:?}");
    ExitCode::SUCCESS
}
