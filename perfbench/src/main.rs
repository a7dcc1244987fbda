//! Fixed-work benchmark of the in-plane reproduction; see `README.md`.
//!
//! `perfbench --workload <lint-verify|serve-zipf> --seed <n>
//! --seconds <n> --trace <0|1>` runs one workload and prints, last, one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics of
//! the layers the workload calls traced (`--trace 1`; `run.py` adds
//! the others as 0). The line before it carries the run's host
//! facts and deterministic work counters. `perfbench --pin` prints the
//! digests `pins.txt` holds.

mod lint;
mod serve;
mod stats;

use stats::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--pin") {
        return Ok(None);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 50,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

/// Parallel-map workers of each workload.
fn workers(workload: &str) -> Option<usize> {
    match workload {
        "serve-zipf" => Some(1),
        "lint-verify" => Some(lint::WORKERS),
        _ => None,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            std::env::set_var("RAYON_NUM_THREADS", lint::WORKERS.to_string());
            lint::pin();
            return;
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(2);
        }
    };
    let Some(workers) = workers(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    // Read by the parallel map on every call; set before any thread.
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());

    // Work scales with --seconds, calibrated on a 2-core box; the
    // floors keep ≥ 10 samples beyond the p90.
    let s = args.seconds as usize;
    let mut report = Report::default();
    match (args.workload.as_str(), args.trace) {
        ("lint-verify", false) => lint::run(args.seed, (s / 7).max(3), &mut report),
        ("lint-verify", true) => lint::trace(args.seed, &mut report),
        ("serve-zipf", false) => serve::run(args.seed, (s * 5_000).max(100_000), &mut report),
        ("serve-zipf", true) => serve::trace(args.seed, (s * 5_000).max(100_000), &mut report),
        _ => unreachable!("workers() accepted the workload"),
    }
    for why in &report.failures {
        eprintln!("perfbench: FAILED {why}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.fact("workload", format!("\"{}\"", args.workload));
    report.fact("seed", args.seed);
    report.fact("seconds", args.seconds);
    report.fact("trace", args.trace);
    report.fact("nproc", nproc);
    report.fact(
        "profile",
        if cfg!(debug_assertions) {
            "\"debug\""
        } else {
            "\"release\""
        },
    );
    report.fact("ops", report.attempted);
    let facts: Vec<String> = report
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"facts\":{{{}}},\"counters\":{{{}}}}}",
        facts.join(","),
        counters.join(",")
    );

    let correct = report.failed == 0 && report.attempted > 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
