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

/// The number after `"key": ` at the first occurrence following
/// `section` in a `BENCH_serving.json` document.
fn count_after(json: &str, section: &str, key: &str) -> u64 {
    let rest = &json[json.find(section).unwrap_or_else(|| panic!("no {section}"))..];
    let rest = &rest[rest.find(key).unwrap_or_else(|| panic!("no {key}")) + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{section} {key}: {rest:.40}"))
}

#[test]
fn smoke_with_a_two_entry_lru_reaches_the_store_tier() {
    // The CI configuration `--smoke --lru 2`: an LRU smaller than the
    // 4-key universe, so warm requests also come from the store tier
    // through the key index, and the LRU evicts.
    let out = format!("{}/BENCH_serving_lru2.json", env!("CARGO_TARGET_TMPDIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_serving"))
        .args(["--smoke", "--lru", "2", "--out", &out])
        .output()
        .expect("serving binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("determinism: cold replay re-run matches exactly"),
        "{stdout}"
    );
    let json = std::fs::read_to_string(&out).expect("report written");
    assert!(
        count_after(&json, "\"warm\": {", "\"store\": ") > 0,
        "{json}"
    );
    assert!(
        count_after(&json, "\"key_index\": {", "\"hits\": ") > 0,
        "{json}"
    );
    assert!(
        count_after(&json, "\"lru\": { \"hits\"", "\"evictions\": ") > 0,
        "{json}"
    );
}
