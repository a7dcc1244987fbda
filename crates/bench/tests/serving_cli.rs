//! The `serving` binary on bad input: a zero shard or worker count, a
//! Zipf exponent that is not a finite non-negative number, a repeat
//! probability outside [0, 1], or a malformed flag ends in the usage
//! text and exit code 2 — never a panic. Zero pool permits and a
//! zero-capacity LRU stay accepted: they are the documented cache-only
//! and cache-off modes. Every run is a small smoke replay on one worker.

use std::process::{Command, Output};

fn run_serving(args: &[&str]) -> Output {
    let out = format!("{}/BENCH_serving.json", env!("CARGO_TARGET_TMPDIR"));
    Command::new(env!("CARGO_BIN_EXE_serving"))
        .args(["--smoke", "--requests", "40", "--out", &out])
        .args(args)
        .output()
        .expect("serving binary runs")
}

#[test]
fn bad_flags_exit_2_without_a_panic() {
    for args in [
        &["--shards", "0"][..],
        &["--workers", "0"],
        &["--zipf", "NaN"],
        &["--zipf", "inf"],
        &["--zipf", "-1"],
        &["--burst", "-0.1"],
        &["--burst", "1.5"],
        &["--burst", "NaN"],
        &["--shards", "x"],
        &["--lru"],
        &["--no-such-flag"],
    ] {
        let out = run_serving(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: serving"), "{args:?}: {stderr}");
    }
}

#[test]
fn boundary_values_and_cache_modes_run() {
    for args in [
        &["--shards", "1"][..],
        &["--zipf", "0"],
        &["--burst", "0"],
        &["--burst", "1"],
        &["--pool", "0"],
        &["--lru", "0"],
    ] {
        let out = run_serving(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
