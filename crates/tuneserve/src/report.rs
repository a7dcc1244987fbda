//! `BENCH_serving.json`: the persisted serving-bench trajectory.
//!
//! One JSON document per bench run, cold replay and warm replay side
//! by side, with throughput, latency quantiles, shed rate, provenance
//! ratios and the full per-layer (and per-shard) counter state —
//! enough to diff serving behaviour across PRs. Written atomically via
//! the store's tmp+rename writer.

use std::path::Path;

use stencil_tunestore::atomic_write;

use crate::replay::{ReplayConfig, ReplayOutcome};
use crate::server::ServerStats;

/// Schema version of the report document. Version 2 added the
/// `SRV-004` invalid-request counts, version 3 the key-index counters.
pub const SERVING_SCHEMA_VERSION: u64 = 3;

/// The serving bench's persisted result.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingReport {
    /// Replay knobs the run used.
    pub config: ReplayConfig,
    /// Shards in the store.
    pub shards: usize,
    /// Compute-pool permit bound.
    pub pool_limit: usize,
    /// Hot-key LRU capacity.
    pub lru_capacity: usize,
    /// Distinct keys in the traffic universe.
    pub universe_keys: usize,
    /// The cold replay (empty store).
    pub cold: ReplayOutcome,
    /// The warm replay (same trace, fully persisted store).
    pub warm: ReplayOutcome,
    /// Final counter state across every layer.
    pub stats: ServerStats,
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

fn replay_json(out: &mut String, label: &str, r: &ReplayOutcome) {
    out.push_str(&format!(
        concat!(
            "  \"{label}\": {{\n",
            "    \"offered\": {offered},\n",
            "    \"served\": {served},\n",
            "    \"shed\": {shed},\n",
            "    \"shed_rate\": {shed_rate},\n",
            "    \"throughput_rps\": {rps},\n",
            "    \"wall_secs\": {wall},\n",
            "    \"latency_micros\": {{ \"p50\": {p50}, \"p99\": {p99}, ",
            "\"p999\": {p999}, \"max\": {max}, \"mean\": {mean} }},\n",
            "    \"tiers\": {{ \"lru\": {lru}, \"store\": {store}, \"shared\": {shared}, ",
            "\"warm\": {warm}, \"computed\": {computed} }},\n",
            "    \"sheds\": {{ \"SRV-001\": {sat}, \"SRV-002\": {over}, \"SRV-003\": {dead}, ",
            "\"SRV-004\": {invalid} }},\n",
            "    \"cache_served_ratio\": {cache_ratio}\n",
            "  }}"
        ),
        label = label,
        offered = r.offered,
        served = r.tiers.total(),
        shed = r.sheds.total(),
        shed_rate = fmt_f64(r.shed_rate()),
        rps = fmt_f64(r.throughput_rps),
        wall = fmt_f64(r.wall_secs),
        p50 = r.latency.p50_micros,
        p99 = r.latency.p99_micros,
        p999 = r.latency.p999_micros,
        max = r.latency.max_micros,
        mean = r.latency.mean_micros,
        lru = r.tiers.lru,
        store = r.tiers.store,
        shared = r.tiers.shared,
        warm = r.tiers.warm_started,
        computed = r.tiers.computed,
        sat = r.sheds.saturated,
        over = r.sheds.over_budget,
        dead = r.sheds.deadline,
        invalid = r.sheds.invalid,
        cache_ratio = fmt_f64(r.cache_served_ratio()),
    ));
}

impl ServingReport {
    /// Render the full document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {SERVING_SCHEMA_VERSION},\n"
        ));
        out.push_str(&format!(
            concat!(
                "  \"config\": {{ \"requests\": {req}, \"workers\": {workers}, ",
                "\"zipf_exponent\": {zipf}, \"burstiness\": {burst}, \"seed\": {seed}, ",
                "\"budget_micros\": {budget}, \"shards\": {shards}, \"pool_limit\": {pool}, ",
                "\"lru_capacity\": {lru}, \"universe_keys\": {keys} }},\n"
            ),
            req = self.config.requests,
            workers = self.config.workers,
            zipf = fmt_f64(self.config.zipf_exponent),
            burst = fmt_f64(self.config.burstiness),
            seed = self.config.seed,
            budget = match self.config.budget_micros {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            shards = self.shards,
            pool = self.pool_limit,
            lru = self.lru_capacity,
            keys = self.universe_keys,
        ));
        replay_json(&mut out, "cold", &self.cold);
        out.push_str(",\n");
        replay_json(&mut out, "warm", &self.warm);
        out.push_str(",\n");
        let s = &self.stats;
        out.push_str(&format!(
            concat!(
                "  \"service\": {{ \"served_from_store\": {sfs}, \"computed\": {comp}, ",
                "\"warm_started\": {ws}, \"shared\": {sh}, \"batch_deduped\": {bd} }},\n",
                "  \"lru\": {{ \"hits\": {lh}, \"misses\": {lm}, \"inserts\": {li}, ",
                "\"evictions\": {le}, \"len\": {ll} }},\n",
                "  \"key_index\": {{ \"hits\": {kh}, \"misses\": {km} }},\n",
                "  \"admission\": {{ \"admitted\": {aa}, \"shed_saturated\": {as_}, ",
                "\"shed_over_budget\": {ao}, \"shed_deadline\": {ad}, \"shed_invalid\": {ai} }},\n"
            ),
            sfs = s.service.served_from_store,
            comp = s.service.computed,
            ws = s.service.warm_started,
            sh = s.service.shared,
            bd = s.batch_deduped,
            lh = s.lru.hits,
            lm = s.lru.misses,
            li = s.lru.inserts,
            le = s.lru.evictions,
            ll = s.lru.len,
            kh = s.index.hits,
            km = s.index.misses,
            aa = s.admission.admitted,
            as_ = s.admission.shed_saturated,
            ao = s.admission.shed_over_budget,
            ad = s.admission.shed_deadline,
            ai = s.admission.shed_invalid,
        ));
        out.push_str("  \"per_shard\": [");
        for (i, shard) in s.per_shard.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                concat!(
                    "{{ \"hits\": {h}, \"misses\": {m}, \"inserts\": {i}, ",
                    "\"corrupt\": {c}, \"stale\": {st}, \"io_errors\": {io} }}"
                ),
                h = shard.hits,
                m = shard.misses,
                i = shard.inserts,
                c = shard.corrupt,
                st = shard.stale,
                io = shard.io_errors,
            ));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Write the document atomically to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_write(path.as_ref(), self.to_json())
    }
}
