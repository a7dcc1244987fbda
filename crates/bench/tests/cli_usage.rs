//! Every binary shares one argv parser and one usage path: a bad
//! command line ends in the binary's usage text on stderr and exit
//! code 2, never a panic, and an unknown flag is refused rather than
//! ignored. `--store` on an experiment binary persists its tuning
//! results (with no `INPLANE_TUNE_STORE` in the environment).

use std::path::Path;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .env_remove("INPLANE_TUNE_STORE")
        .output()
        .expect("binary runs")
}

#[test]
fn bad_argv_prints_usage_and_exits_2() {
    let cases: [(&str, &str, &[&[&str]]); 4] = [
        (
            env!("CARGO_BIN_EXE_conc"),
            "usage: conc",
            &[
                &["--budget"],
                &["--budget", "x"],
                &["--budget", "-1"],
                &["--bugdet", "8"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_devices"),
            "usage: devices",
            &[&["--out"], &["--quick"], &["--full", "x"]],
        ),
        (
            env!("CARGO_BIN_EXE_lint"),
            "usage: lint",
            &[
                &["--kernel", "laplace"],
                &["--kernel"],
                &["--device", "gtx9000"],
                &["--precision", "hp"],
                &["--jsn"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_fig7"),
            "usage: <experiment> [--quick]",
            &[
                &["--seed"],
                &["--seed", "x"],
                &["--quik"],
                &["--quick", "--csv"],
                &["--help"],
            ],
        ),
    ];
    for (exe, usage, bad) in cases {
        for args in bad {
            let out = run(exe, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
            assert!(stderr.contains(usage), "{exe} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{exe} {args:?} did work");
        }
    }
}

#[test]
fn store_flag_persists_an_experiments_tuning() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_usage_store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("store.jsonl");
    let store_arg = store.to_str().expect("utf-8 path");
    let exe = env!("CARGO_BIN_EXE_litcompare");

    let cold = run(exe, &["--quick", "--store", store_arg]);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let records = std::fs::read_to_string(&store).expect("the store was written");
    let n = records.lines().filter(|l| !l.trim().is_empty()).count();
    assert!(n > 0, "no records in {}", store.display());

    // A warm re-run is served from the store: same output, no new record.
    let warm = run(exe, &["--quick", "--store", store_arg]);
    assert!(warm.status.success());
    assert_eq!(cold.stdout, warm.stdout);
    let again = std::fs::read_to_string(&store).expect("store");
    assert_eq!(again.lines().filter(|l| !l.trim().is_empty()).count(), n);
}
