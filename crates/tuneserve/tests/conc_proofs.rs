//! Tier-1 concurrency proofs: the serving cores explored under the
//! `conc-check` model with a budget small enough for every test run.
//! The `conc` bench binary repeats these with a much larger budget
//! and records the schedule counts in `BENCH_conc.json`.

use conc_check::{code_info, Checker, REGISTRY};
use stencil_tuneserve::conc;

const TIER1_BUDGET: u64 = 512;

#[test]
fn all_serving_proofs_are_clean_at_tier1_budget() {
    let outcomes = conc::run_all(TIER1_BUDGET);
    assert_eq!(outcomes.len(), 6, "a proof was added or dropped silently");
    for o in &outcomes {
        assert!(
            o.report.ok(),
            "proof `{}` ({}) found:\n{:#?}",
            o.name,
            o.claim,
            o.report.findings
        );
        assert!(
            o.report.schedules > 0,
            "proof `{}` explored nothing",
            o.name
        );
    }
}

#[test]
fn permits_return_under_real_threads_and_panics() {
    // The production-path twin of `prove_permit_unwind`: real OS
    // threads on real std::sync, arbitrary OS interleavings, half the
    // holders panicking mid-hold. The RAII Permit must return every
    // slot regardless.
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use stencil_tuneserve::ComputePool;

    let pool = Arc::new(ComputePool::new(3));
    for round in 0..50 {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        if let Ok(_permit) = pool.try_acquire() {
                            std::thread::yield_now();
                            if (round + i) % 2 == 0 {
                                panic!("injected: holder dies with its permit");
                            }
                        }
                    }));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.in_use(), 0, "permit leaked in round {round}");
    }
}

#[test]
fn proofs_replay_deterministically() {
    // Same seed, same budget → bit-identical exploration: the same
    // number of schedules, prunes and depth, and the same findings
    // (none). This is the property that makes a shipped
    // counterexample trace trustworthy.
    let first = conc::prove_singleflight_burst(128);
    let second = conc::prove_singleflight_burst(128);
    assert_eq!(first.schedules, second.schedules);
    assert_eq!(first.pruned, second.pruned);
    assert_eq!(first.max_depth, second.max_depth);
    assert_eq!(first.findings.len(), second.findings.len());
}

#[test]
fn every_emitted_code_is_registered() {
    // Run a checker designed to produce a finding and confirm the
    // code resolves in the registry — i.e. the serving proofs can
    // never emit a code the docs don't define.
    let report = Checker::with_budget(64).check(|| {
        conc_check::violation("CCK-004", "registry probe");
    });
    assert!(!report.ok());
    for f in &report.findings {
        let info = code_info(&f.code).expect("emitted code must be registered");
        assert!(!info.summary.is_empty());
    }
    // And the registry itself is well-formed: unique codes, banded
    // severities.
    for info in REGISTRY {
        assert!(info.code.starts_with("CCK-"));
    }
}
