//! The CI contract of the traffic replay: closed-loop replays of one
//! trace are bit-deterministic in their tier/shed shape, warm replays
//! re-search nothing, and the persisted report carries every field the
//! serving dashboard diffs.

use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_tuneserve::{
    replay, zipf_trace, ReplayConfig, ServerConfig, ServingReport, ShardedStore, TrafficMix,
    TuneServer,
};

fn smoke_server() -> TuneServer {
    TuneServer::new(
        Arc::new(ShardedStore::mem(4)),
        Arc::new(EvalContext::new()),
        ServerConfig {
            pool_limit: 2,
            lru_capacity: 32,
        },
    )
}

/// Two fresh servers replaying one trace closed-loop agree exactly on
/// offered/tier/shed counts — the provenance mix is a pure function of
/// trace + server state, which is what the CI smoke job pins.
#[test]
fn closed_loop_replay_is_deterministic() {
    let universe = TrafficMix::smoke().universe();
    let trace = zipf_trace(universe.len(), 300, 1.1, 0.2, 42);

    let a = replay(&smoke_server(), &universe, &trace, 1, None);
    let b = replay(&smoke_server(), &universe, &trace, 1, None);
    assert_eq!(a.deterministic_shape(), b.deterministic_shape());

    // Closed-loop accounting: everything offered was served (no
    // budgets, pool never saturates with one worker), the first
    // occurrence of each touched key computed, every repeat was cached.
    assert_eq!(a.offered, 300);
    assert_eq!(a.sheds.total(), 0);
    assert_eq!(a.tiers.total(), 300);
    let touched: std::collections::HashSet<usize> = trace.iter().copied().collect();
    assert_eq!(
        a.tiers.computed + a.tiers.warm_started,
        touched.len() as u64
    );
    assert_eq!(a.tiers.lru + a.tiers.store, 300 - touched.len() as u64);
}

/// A warm replay of the same trace over the already-populated server is
/// served entirely from cache: zero new searches, ≥ 90 % (here 100 %)
/// store/LRU/share provenance — the acceptance criterion.
#[test]
fn warm_replay_reuses_everything() {
    let universe = TrafficMix::smoke().universe();
    let trace = zipf_trace(universe.len(), 300, 1.1, 0.2, 42);
    let server = smoke_server();

    let cold = replay(&server, &universe, &trace, 1, None);
    let computed_after_cold = server.stats().service.computed;
    assert!(computed_after_cold > 0);

    let warm = replay(&server, &universe, &trace, 1, None);
    assert_eq!(warm.tiers.computed, 0, "warm replay re-searches nothing");
    assert_eq!(warm.tiers.warm_started, 0);
    assert_eq!(warm.sheds.total(), 0);
    assert_eq!(warm.tiers.cache_served(), warm.offered);
    assert!(warm.cache_served_ratio() >= 0.9);
    assert_eq!(
        server.stats().service.computed,
        computed_after_cold,
        "no search ran after the store went warm"
    );
    assert!(cold.tiers.total() + cold.sheds.total() == cold.offered);
}

/// Multi-worker replay keeps the hard invariants even when racing:
/// served + shed == offered, and no request ever blocks or panics.
#[test]
fn racing_replay_conserves_offered_load() {
    let universe = TrafficMix::smoke().universe();
    let trace = zipf_trace(universe.len(), 400, 1.1, 0.4, 7);
    let server = smoke_server();

    let out = replay(&server, &universe, &trace, 4, None);
    assert_eq!(out.offered, 400);
    assert_eq!(out.tiers.total() + out.sheds.total(), 400);
    // Single-flight: at most one search per distinct key, ever.
    let touched: std::collections::HashSet<usize> = trace.iter().copied().collect();
    let stats = server.stats();
    assert!(stats.service.computed + stats.service.warm_started <= touched.len() as u64);
}

/// The persisted report carries the full serving surface: latency
/// quantiles, shed codes, tier mix, per-shard counters, schema version.
#[test]
fn serving_report_carries_the_dashboard_fields() {
    let universe = TrafficMix::smoke().universe();
    let trace = zipf_trace(universe.len(), 120, 1.1, 0.2, 42);
    let server = smoke_server();
    let cold = replay(&server, &universe, &trace, 1, None);
    let warm = replay(&server, &universe, &trace, 1, None);

    let report = ServingReport {
        config: ReplayConfig {
            requests: 120,
            workers: 1,
            ..ReplayConfig::default()
        },
        shards: server.store().shard_count(),
        pool_limit: 2,
        lru_capacity: 32,
        universe_keys: universe.len(),
        cold,
        warm,
        stats: server.stats(),
    };
    let json = report.to_json();
    for field in [
        "\"schema_version\"",
        "\"cold\"",
        "\"warm\"",
        "\"p50\"",
        "\"p99\"",
        "\"p999\"",
        "\"shed_rate\"",
        "\"throughput_rps\"",
        "\"tiers\"",
        "\"SRV-001\"",
        "\"SRV-002\"",
        "\"SRV-003\"",
        "\"cache_served_ratio\"",
        "\"per_shard\"",
        "\"batch_deduped\"",
        "\"key_index\"",
    ] {
        assert!(json.contains(field), "report JSON missing {field}: {json}");
    }
    // The warm section reports a fully cache-served replay.
    assert!(json.contains("\"computed\": 0"));

    // And it round-trips to disk atomically.
    let path =
        std::env::temp_dir().join(format!("tuneserve-report-test-{}.json", std::process::id()));
    report.write(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, json);
    std::fs::remove_file(&path).ok();
}
