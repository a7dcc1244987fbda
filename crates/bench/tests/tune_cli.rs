//! The `tune` binary on bad input: every malformed or out-of-range flag
//! ends in the usage text (or, for a problem with no feasible launch
//! configuration, a one-line message) and exit code 2 — never a panic.
//! `--method` accepts every method, by full or bare variant label.

use std::process::{Command, Output};

fn run_tune(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tune"))
        .args(args)
        // A store named in the environment must not leak into the runs.
        .env_remove("INPLANE_TUNE_STORE")
        .output()
        .expect("tune binary runs")
}

#[test]
fn bad_flags_exit_2_without_a_panic() {
    for args in [
        &["--order", "3"][..],
        &["--order", "0"],
        &["--order", "x"],
        &["--order", "131072"],
        &["--lx", "0"],
        &["--lz", "0"],
        &["--ly", "18446744073709551615"],
        &["--beta", "0"],
        &["--beta", "-5"],
        &["--beta", "NaN"],
        &["--beta", "inf"],
        &["--method", "warp-drive"],
        &["--device", "gtx9000"],
        &["--seed"],
        &["--no-such-flag"],
        // Parses, but no launch configuration fits radius 500.
        &["--order", "1000"],
    ] {
        let out = run_tune(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    }
}

#[test]
fn empty_space_is_reported_not_tuned() {
    let out = run_tune(&["--order", "1000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no feasible configuration"), "{stderr}");
}

#[test]
fn every_method_label_is_selectable() {
    for (arg, label) in [
        ("nvstencil", "nvstencil"),
        ("full-slice", "in-plane/full-slice"),
        ("double-buffered", "in-plane/double-buffered"),
        ("in-plane/vertical", "in-plane/vertical"),
    ] {
        let out = run_tune(&["--method", arg, "--lx", "64", "--ly", "64", "--lz", "32"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{arg}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(label), "{arg}: {stdout}");
        assert!(stdout.contains("optimal:"), "{arg}: {stdout}");
    }
}
