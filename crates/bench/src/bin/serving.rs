//! Traffic-replay serving bench: drive a [`TuneServer`] with a Zipfian
//! key mix and persist the serving trajectory as `BENCH_serving.json`.
//!
//! ```sh
//! cargo run --release -p stencil-bench --bin serving -- \
//!     --requests 2000 --workers 4 --zipf 1.1 --burst 0.2 --out BENCH_serving.json
//! ```
//!
//! The bench replays one trace twice: **cold** against an empty store
//! (every distinct key pays its search once) and **warm** against the
//! fully-populated server (everything must come back from the LRU or
//! the store with *zero* re-searches — the bench exits non-zero if it
//! does not). `--smoke` shrinks the universe to the CI mix, forces one
//! closed-loop worker, and additionally replays the cold trace on a
//! second fresh server to assert the tier/shed counts are
//! bit-deterministic.

use std::process::ExitCode;
use std::sync::Arc;

use stencil_bench::opts::{parse_argv, CliError, Flags};
use stencil_tuneserve::{
    replay, zipf_trace, ReplayConfig, ReplayOutcome, ServerConfig, ServingReport, ShardedStore,
    TrafficMix, TuneServer,
};

struct Args {
    smoke: bool,
    replay: ReplayConfig,
    shards: usize,
    server: ServerConfig,
    store_dir: Option<String>,
    out: String,
}

const USAGE: &str = "\
usage: serving [--smoke] [--requests N] [--workers N] [--zipf S] [--burst P]
               [--shards N] [--pool N] [--lru N] [--seed N] [--budget-us N]
               [--store-dir DIR] [--out PATH]
--smoke     small fixed-seed universe, one closed-loop worker, plus a
            determinism re-run of the cold replay (the CI configuration)
--zipf      Zipf exponent of the key popularity (default 1.1)
--burst     probability a request repeats the previous key (default 0.2)
--shards    store shards, at least 1 (default 8)
--workers   concurrent replay clients, at least 1
--pool      compute-pool permit bound (0 = shed every fresh search)
--lru       hot-key LRU capacity (0 disables the cache)
--budget-us per-request deadline budget in microseconds
--store-dir back the shards with JSONL files under DIR instead of memory";

fn parse_args(argv: Vec<String>) -> Result<Args, CliError> {
    let mut a = Args {
        smoke: false,
        replay: ReplayConfig::default(),
        shards: 8,
        server: ServerConfig::default(),
        store_dir: None,
        out: "BENCH_serving.json".to_string(),
    };
    // Zero shards or workers, and a popularity exponent or repeat
    // probability outside its range, mean nothing; zero pool permits
    // and a zero-capacity LRU are the documented cache-only and
    // cache-off modes.
    Flags::default()
        .switch("--smoke", || a.smoke = true)
        .value("--requests", |v| a.replay.requests = v)
        .range("--workers", 1.., |v| a.replay.workers = v)
        .range("--zipf", 0.0..=f64::MAX, |v| a.replay.zipf_exponent = v)
        .range("--burst", 0.0..=1.0, |v| a.replay.burstiness = v)
        .range("--shards", 1.., |v| a.shards = v)
        .value("--pool", |v| a.server.pool_limit = v)
        .value("--lru", |v| a.server.lru_capacity = v)
        .value("--seed", |v| a.replay.seed = v)
        .value("--budget-us", |v| a.replay.budget_micros = Some(v))
        .value("--store-dir", |v| a.store_dir = Some(v))
        .value("--out", |v| a.out = v)
        .parse(argv)?;
    if a.smoke {
        // The CI configuration: small universe, fixed seed, one
        // closed-loop worker so the provenance mix is deterministic.
        a.replay.requests = a.replay.requests.min(400);
        a.replay.workers = 1;
    }
    Ok(a)
}

fn fresh_server(args: &Args) -> TuneServer {
    let store = match &args.store_dir {
        Some(dir) => Arc::new(
            ShardedStore::open_dir(dir, args.shards).expect("cannot open sharded store dir"),
        ),
        None => Arc::new(ShardedStore::mem(args.shards)),
    };
    TuneServer::with_global_ctx(store, args.server)
}

fn print_outcome(label: &str, r: &ReplayOutcome) {
    println!(
        "{label}: {} offered | {:.0} req/s | p50 {}us p99 {}us p999 {}us | shed {:.2}%",
        r.offered,
        r.throughput_rps,
        r.latency.p50_micros,
        r.latency.p99_micros,
        r.latency.p999_micros,
        100.0 * r.shed_rate(),
    );
    let t = &r.tiers;
    println!(
        "  tiers: lru {} / store {} / shared {} / warm {} / computed {}  (cache-served {:.1}%)",
        t.lru,
        t.store,
        t.shared,
        t.warm_started,
        t.computed,
        100.0 * r.cache_served_ratio(),
    );
    let s = &r.sheds;
    if s.total() > 0 {
        println!(
            "  sheds: SRV-001 {} / SRV-002 {} / SRV-003 {} / SRV-004 {}",
            s.saturated, s.over_budget, s.deadline, s.invalid
        );
    }
}

fn main() -> ExitCode {
    let args = parse_argv(USAGE, parse_args);
    let r = &args.replay;
    let mix = if args.smoke {
        TrafficMix::smoke()
    } else {
        TrafficMix::standard()
    };
    let universe = mix.universe();
    assert!(!universe.is_empty(), "traffic universe is empty");
    let trace = zipf_trace(
        universe.len(),
        r.requests,
        r.zipf_exponent,
        r.burstiness,
        r.seed,
    );
    println!(
        "serving bench: {} keys, {} requests, {} worker(s), zipf {}, burst {}, pool {}, lru {}",
        universe.len(),
        trace.len(),
        r.workers,
        r.zipf_exponent,
        r.burstiness,
        args.server.pool_limit,
        args.server.lru_capacity,
    );

    let server = fresh_server(&args);
    let cold = replay(&server, &universe, &trace, r.workers, r.budget_micros);
    print_outcome("cold", &cold);

    let mut failures = Vec::new();
    if cold.tiers.total() + cold.sheds.total() != cold.offered {
        failures.push("cold replay lost requests (served + shed != offered)".to_string());
    }

    if args.smoke && args.store_dir.is_none() {
        // Determinism: the same trace against a second fresh server
        // must serve the exact same tier/shed mix.
        let rerun = replay(
            &fresh_server(&args),
            &universe,
            &trace,
            r.workers,
            r.budget_micros,
        );
        if rerun.deterministic_shape() == cold.deterministic_shape() {
            println!("determinism: cold replay re-run matches exactly");
        } else {
            failures.push(format!(
                "cold replay is not deterministic: {:?} vs {:?}",
                cold.deterministic_shape(),
                rerun.deterministic_shape()
            ));
        }
    }

    let warm = replay(&server, &universe, &trace, r.workers, r.budget_micros);
    print_outcome("warm", &warm);
    // The zero-re-search contract holds when the cold pass persisted
    // every key it met — i.e. shed nothing. A cold pass that shed
    // (offered load beyond the pool bound) leaves those keys unsearched
    // on purpose, so the warm pass is entitled to compute them.
    if cold.sheds.total() == 0 {
        let re_searches = warm.tiers.computed + warm.tiers.warm_started;
        if re_searches != 0 {
            failures.push(format!(
                "warm replay ran {re_searches} searches (expected 0)"
            ));
        }
        if warm.cache_served_ratio() < 0.9 {
            failures.push(format!(
                "warm replay cache-served ratio {:.3} below the 0.9 floor",
                warm.cache_served_ratio()
            ));
        }
    } else {
        println!(
            "note: cold replay shed {} requests — warm zero-re-search check not applicable",
            cold.sheds.total()
        );
    }

    let report = ServingReport {
        config: args.replay,
        shards: args.shards,
        pool_limit: args.server.pool_limit,
        lru_capacity: args.server.lru_capacity,
        universe_keys: universe.len(),
        cold,
        warm,
        stats: server.stats(),
    };
    if let Err(e) = report.write(&args.out) {
        failures.push(format!("cannot write {}: {e}", args.out));
    } else {
        println!("wrote {}", args.out);
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
#[path = "../../tests/common/argv.rs"]
mod argv_property;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_panics_on_generated_argv() {
        let (ok, refused) = argv_property::run(
            0x5e7e,
            &[
                "--smoke",
                "--requests",
                "--workers",
                "--zipf",
                "--burst",
                "--shards",
                "--pool",
                "--lru",
                "--seed",
                "--budget-us",
                "--store-dir",
                "--out",
                "--worker",
                "-h",
            ],
            &[
                "0",
                "1",
                "1.0000001",
                "-0.1",
                "1.7976931348623157e308",
                "1e309",
                "NaN",
                "-1",
                "18446744073709551615",
                "18446744073709551616",
                "x",
            ],
            parse_args,
        );
        assert!(ok > 0 && refused > 0, "{ok} accepted, {refused} refused");
    }
}
