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

use stencil_tuneserve::{
    replay, zipf_trace, ReplayConfig, ReplayOutcome, ServerConfig, ServingReport, ShardedStore,
    TrafficMix, TuneServer,
};

struct Args {
    smoke: bool,
    requests: usize,
    workers: usize,
    zipf: f64,
    burst: f64,
    shards: usize,
    pool: usize,
    lru: usize,
    seed: u64,
    budget_us: Option<u64>,
    store_dir: Option<String>,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: serving [--smoke] [--requests N] [--workers N] [--zipf S] [--burst P]\n\
         \x20              [--shards N] [--pool N] [--lru N] [--seed N] [--budget-us N]\n\
         \x20              [--store-dir DIR] [--out PATH]\n\
         --smoke     small fixed-seed universe, one closed-loop worker, plus a\n\
         \x20           determinism re-run of the cold replay (the CI configuration)\n\
         --zipf      Zipf exponent of the key popularity (default 1.1)\n\
         --burst     probability a request repeats the previous key (default 0.2)\n\
         --shards    store shards, at least 1 (default 8)\n\
         --workers   concurrent replay clients, at least 1\n\
         --pool      compute-pool permit bound (0 = shed every fresh search)\n\
         --lru       hot-key LRU capacity (0 disables the cache)\n\
         --budget-us per-request deadline budget in microseconds\n\
         --store-dir back the shards with JSONL files under DIR instead of memory"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let defaults = ReplayConfig::default();
    let mut args = Args {
        smoke: false,
        requests: defaults.requests,
        workers: defaults.workers,
        zipf: defaults.zipf_exponent,
        burst: defaults.burstiness,
        shards: 8,
        pool: ServerConfig::default().pool_limit,
        lru: ServerConfig::default().lru_capacity,
        seed: defaults.seed,
        budget_us: None,
        store_dir: None,
        out: "BENCH_serving.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--requests" => args.requests = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = val().parse().unwrap_or_else(|_| usage()),
            "--zipf" => args.zipf = val().parse().unwrap_or_else(|_| usage()),
            "--burst" => args.burst = val().parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = val().parse().unwrap_or_else(|_| usage()),
            "--pool" => args.pool = val().parse().unwrap_or_else(|_| usage()),
            "--lru" => args.lru = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--budget-us" => args.budget_us = Some(val().parse().unwrap_or_else(|_| usage())),
            "--store-dir" => args.store_dir = Some(val()),
            "--out" => args.out = val(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // Zero shards or workers, and a popularity exponent or repeat
    // probability outside its range, mean nothing; zero pool permits
    // and a zero-capacity LRU are the documented cache-only and
    // cache-off modes.
    let valid = args.shards >= 1
        && args.workers >= 1
        && args.zipf.is_finite()
        && args.zipf >= 0.0
        && (0.0..=1.0).contains(&args.burst);
    if !valid {
        usage();
    }
    if args.smoke {
        // The CI configuration: small universe, fixed seed, one
        // closed-loop worker so the provenance mix is deterministic.
        args.requests = args.requests.min(400);
        args.workers = 1;
    }
    args
}

fn fresh_server(args: &Args) -> TuneServer {
    let store = match &args.store_dir {
        Some(dir) => Arc::new(
            ShardedStore::open_dir(dir, args.shards).expect("cannot open sharded store dir"),
        ),
        None => Arc::new(ShardedStore::mem(args.shards)),
    };
    TuneServer::with_global_ctx(
        store,
        ServerConfig {
            pool_limit: args.pool,
            lru_capacity: args.lru,
        },
    )
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
    let args = parse_args();
    let mix = if args.smoke {
        TrafficMix::smoke()
    } else {
        TrafficMix::standard()
    };
    let universe = mix.universe();
    assert!(!universe.is_empty(), "traffic universe is empty");
    let trace = zipf_trace(
        universe.len(),
        args.requests,
        args.zipf,
        args.burst,
        args.seed,
    );
    println!(
        "serving bench: {} keys, {} requests, {} worker(s), zipf {}, burst {}, pool {}, lru {}",
        universe.len(),
        trace.len(),
        args.workers,
        args.zipf,
        args.burst,
        args.pool,
        args.lru,
    );

    let server = fresh_server(&args);
    let cold = replay(&server, &universe, &trace, args.workers, args.budget_us);
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
            args.workers,
            args.budget_us,
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

    let warm = replay(&server, &universe, &trace, args.workers, args.budget_us);
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
        config: ReplayConfig {
            requests: args.requests,
            workers: args.workers,
            zipf_exponent: args.zipf,
            burstiness: args.burst,
            budget_micros: args.budget_us,
            seed: args.seed,
        },
        shards: args.shards,
        pool_limit: args.pool,
        lru_capacity: args.lru,
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
