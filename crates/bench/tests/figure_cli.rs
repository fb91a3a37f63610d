//! `falcon_perf figure` on the command line: a bad figure or preset
//! name is a usage error, and an unwritable `results/` fails the
//! command. Neither runs an experiment.

use std::process::{Command, Output};

fn falcon_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_falcon_perf"))
        .args(args)
        .output()
        .expect("run falcon_perf")
}

#[test]
fn bad_figure_or_scale_is_a_usage_error() {
    for args in [
        &["figure"][..],
        &["figure", "fig10"],
        &["figure", "fig03", "--scale", "huge"],
        &["figure", "fig03", "--scale"],
        &["figure", "all", "--threads", "2"],
    ] {
        let out = falcon_perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("falcon_perf figure"),
            "{args:?}: usage names the subcommand"
        );
    }
}

#[test]
fn unwritable_results_fail_before_running() {
    let cwd = std::env::temp_dir().join(format!("falcon-figure-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    std::fs::write(cwd.join("results"), b"a regular file").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_falcon_perf"))
        .args(["figure", "fig03"])
        .current_dir(&cwd)
        .output()
        .expect("run falcon_perf");
    std::fs::remove_dir_all(&cwd).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("results"), "names the path: {stderr}");
    assert!(!stderr.contains("GB/s"), "ran an experiment: {stderr}");
}
