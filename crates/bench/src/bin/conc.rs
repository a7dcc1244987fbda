//! Concurrency-proof bench: run the serving layer's `conc-check`
//! proofs at a large schedule budget and persist the exploration
//! counts as `BENCH_conc.json`.
//!
//! Each proof drives a shipped serving core (compute pool, single
//! flight, hot-key LRU, sharded store, key index) under the
//! deterministic model checker, exploring bounded-exhaustive
//! interleavings plus injected leader panics and spurious condvar
//! wakeups. The process exits non-zero when any proof reports a
//! finding or when the combined exploration falls short of
//! `--min-schedules` — so CI fails loudly on both a concurrency bug
//! and a silently shrunken search.
//!
//! ```sh
//! cargo run --release -p stencil-bench --bin conc -- --budget 16384 --out BENCH_conc.json
//! ```

use conc_check::CheckReport;
use stencil_tuneserve::conc::{self, ProofOutcome};
use stencil_tunestore::atomic_write;

/// Version of the JSON document layout; the golden-schema test in
/// `crates/tuneserve/tests/conc_proofs.rs` exercises the same proofs.
const SCHEMA_VERSION: u64 = 1;

struct Args {
    budget: u64,
    min_schedules: u64,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: conc [--budget N] [--min-schedules N] [--out BENCH_conc.json]\n\
         Runs the serving layer's conc-check proofs (pool admission, permit\n\
         unwind, single-flight burst, LRU adversarial, shard isolation, key\n\
         index) with a per-proof schedule budget and writes the exploration\n\
         report. Exits non-zero on any CCK-* finding or an under-explored run."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        budget: 16_384,
        min_schedules: 10_000,
        out: "BENCH_conc.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--budget" => args.budget = val().parse().unwrap_or_else(|_| usage()),
            "--min-schedules" => args.min_schedules = val().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = val(),
            _ => usage(),
        }
    }
    args
}

fn report_json(out: &mut String, r: &CheckReport) {
    out.push_str(&format!(
        concat!(
            "\"schedules\": {schedules}, \"pruned\": {pruned}, ",
            "\"exhausted\": {exhausted}, \"max_depth\": {depth}, \"seed\": {seed}, ",
            "\"findings\": ["
        ),
        schedules = r.schedules,
        pruned = r.pruned,
        exhausted = r.exhausted,
        depth = r.max_depth,
        seed = r.seed,
    ));
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{ \"code\": \"{}\", \"trace\": \"{}\" }}",
            f.code, f.trace
        ));
    }
    out.push(']');
}

fn to_json(budget: u64, outcomes: &[ProofOutcome]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"budget_per_proof\": {budget},\n"));
    out.push_str(&format!(
        "  \"total_schedules\": {},\n",
        conc::total_schedules(outcomes)
    ));
    out.push_str(&format!("  \"clean\": {},\n", conc::all_ok(outcomes)));
    out.push_str("  \"proofs\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"claim\": \"{}\", ",
            o.name, o.claim
        ));
        report_json(&mut out, &o.report);
        out.push_str(" }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args = parse_args();
    let outcomes = conc::run_all(args.budget);

    let mut failed = false;
    for o in &outcomes {
        let r = &o.report;
        let status = if r.ok() {
            if r.exhausted {
                "proved (exhaustive)"
            } else {
                "clean (budget-bounded)"
            }
        } else {
            failed = true;
            "FAILED"
        };
        println!(
            "{:<20} {:>7} schedules  {:>6} pruned  depth {:>3}  {}",
            o.name, r.schedules, r.pruned, r.max_depth, status
        );
        for f in r.errors() {
            eprintln!("  {f}");
        }
        for f in r.warnings() {
            eprintln!("  warning: {f}");
        }
    }

    let total = conc::total_schedules(&outcomes);
    println!("total: {total} schedules across {} proofs", outcomes.len());
    if total < args.min_schedules {
        eprintln!(
            "under-explored: {total} schedules < required {}",
            args.min_schedules
        );
        failed = true;
    }

    let doc = to_json(args.budget, &outcomes);
    if let Err(e) = atomic_write(std::path::Path::new(&args.out), doc) {
        eprintln!("cannot write {}: {e}", args.out);
        failed = true;
    } else {
        println!("wrote {}", args.out);
    }
    std::process::exit(if failed { 1 } else { 0 });
}
