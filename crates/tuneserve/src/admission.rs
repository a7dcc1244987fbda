//! Admission control: decide — *before* committing compute — whether a
//! request that missed every cache may run a search.
//!
//! Three gates, in order:
//!
//! 1. **wall-clock deadline** — a request that has already outlived
//!    its budget (e.g. queueing inside a large batch) is shed
//!    immediately ([`ShedReason::DeadlineExpired`]);
//! 2. **oracle triage** — the static traffic oracle
//!    ([`stencil_lint::predict_traffic_on`]) prices the search from the
//!    op stream alone: predicted bytes per configuration × space size
//!    ÷ achieved device bandwidth. A search predicted to blow the
//!    budget is shed *without consuming a pool permit*
//!    ([`ShedReason::OverBudget`]) — following Ernst et al.
//!    (PAPERS.md), the analytic model is the zero-cost tier that
//!    prices work before any of it runs;
//! 3. **compute pool** — a bounded semaphore over concurrent searches.
//!    When every permit is taken the request is shed with
//!    [`ShedReason::PoolSaturated`] instead of queueing: the service
//!    *never blocks* a caller on pool capacity.
//!
//! Cheap admissions (store, LRU, sharing an in-flight leader) bypass
//! all three gates — shedding only ever refuses *new* search work.

use std::sync::atomic::Ordering;

use conc_check::sync::{AtomicU64, AtomicUsize};

use inplane_core::{lower_blueprint, ProblemSpec};
use stencil_lint::predict_traffic_on;
use stencil_tunestore::TuneRequest;

/// Why a request was refused instead of served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Every compute-pool permit is taken.
    PoolSaturated {
        /// The pool's permit bound.
        limit: usize,
    },
    /// The oracle-predicted search cost exceeds the request's budget.
    OverBudget {
        /// Predicted search cost, microseconds.
        predicted_micros: u64,
        /// The request's budget, microseconds.
        budget_micros: u64,
    },
    /// The request's budget was already spent before admission (e.g.
    /// waiting behind a large batch).
    DeadlineExpired {
        /// Time spent before admission, microseconds.
        elapsed_micros: u64,
        /// The request's budget, microseconds.
        budget_micros: u64,
    },
}

impl ShedReason {
    /// Stable machine-readable code (`SRV-*`, one per variant).
    pub fn code(&self) -> &'static str {
        match self {
            ShedReason::PoolSaturated { .. } => "SRV-001",
            ShedReason::OverBudget { .. } => "SRV-002",
            ShedReason::DeadlineExpired { .. } => "SRV-003",
        }
    }

    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::PoolSaturated { .. } => "pool-saturated",
            ShedReason::OverBudget { .. } => "over-budget",
            ShedReason::DeadlineExpired { .. } => "deadline-expired",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::PoolSaturated { limit } => {
                write!(f, "{}: all {limit} compute permits taken", self.code())
            }
            ShedReason::OverBudget {
                predicted_micros,
                budget_micros,
            } => write!(
                f,
                "{}: predicted search cost {predicted_micros}us exceeds budget {budget_micros}us",
                self.code()
            ),
            ShedReason::DeadlineExpired {
                elapsed_micros,
                budget_micros,
            } => write!(
                f,
                "{}: {elapsed_micros}us already spent of a {budget_micros}us budget",
                self.code()
            ),
        }
    }
}

/// Counter snapshot of the admission layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests that acquired a compute permit.
    pub admitted: u64,
    /// Requests shed because the pool was saturated.
    pub shed_saturated: u64,
    /// Requests shed by oracle triage.
    pub shed_over_budget: u64,
    /// Requests shed with an already-spent budget.
    pub shed_deadline: u64,
}

impl AdmissionStats {
    /// Total shed requests.
    pub fn shed(&self) -> u64 {
        self.shed_saturated + self.shed_over_budget + self.shed_deadline
    }
}

/// A bounded semaphore over concurrent searches. Acquisition never
/// blocks: a saturated pool refuses the permit and the caller sheds.
pub struct ComputePool {
    limit: usize,
    in_use: AtomicUsize,
    admitted: AtomicU64,
    shed_saturated: AtomicU64,
    shed_over_budget: AtomicU64,
    shed_deadline: AtomicU64,
}

/// An RAII compute permit; dropping it frees the pool slot.
pub struct Permit<'a> {
    pool: &'a ComputePool,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.pool.in_use.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ComputePool {
    /// A pool of `limit` concurrent search permits. Zero is legal and
    /// means "serve caches only": every fresh search sheds.
    pub fn new(limit: usize) -> Self {
        ComputePool {
            limit,
            in_use: AtomicUsize::new_named(0, "pool.in_use"),
            admitted: AtomicU64::new_named(0, "pool.admitted"),
            shed_saturated: AtomicU64::new_named(0, "pool.shed_saturated"),
            shed_over_budget: AtomicU64::new_named(0, "pool.shed_over_budget"),
            shed_deadline: AtomicU64::new_named(0, "pool.shed_deadline"),
        }
    }

    /// The permit bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Permits currently held.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Acquire)
    }

    /// Try to take a permit; `Err` is the coded shed response (counted).
    pub fn try_acquire(&self) -> Result<Permit<'_>, ShedReason> {
        let mut cur = self.in_use.load(Ordering::Acquire);
        loop {
            if cur >= self.limit {
                self.shed_saturated.fetch_add(1, Ordering::Relaxed);
                return Err(ShedReason::PoolSaturated { limit: self.limit });
            }
            match self.in_use.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(Permit { pool: self });
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record an oracle-triage shed (the pool never saw the request).
    pub fn record_over_budget(&self) {
        self.shed_over_budget.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a spent-deadline shed.
    pub fn record_deadline(&self) {
        self.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_saturated: self.shed_saturated.load(Ordering::Relaxed),
            shed_over_budget: self.shed_over_budget.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
        }
    }
}

/// Planes the pricing proxy keeps beyond the `2r` halo shell.
pub const PROXY_INTERIOR_PLANES: usize = 3;

/// Oracle-predicted cost of running `req`'s full search, microseconds.
///
/// A pure function of the request (no clocks, no execution): the probe
/// configuration's blueprint is lowered over a *proxy grid* — the full
/// `(lx, ly)` plane but only [`PROXY_INTERIOR_PLANES`] interior planes
/// — priced by [`predict_traffic_on`], scaled back to the real plane
/// count and multiplied by the space size, then divided by the
/// device's achieved bandwidth. Deterministic, so shed decisions that
/// depend only on budgets replay bit-identically.
///
/// A probe the routine rejects falls back to a streaming lower bound
/// (read + write every cell once per configuration).
pub fn predicted_search_micros(req: &TuneRequest) -> u64 {
    let (lx, ly, lz) = (req.dims.lx, req.dims.ly, req.dims.lz);
    let r = req.kernel.radius;
    let probe = req.space.configs()[0];
    let proxy_lz = lz.min(2 * r + PROXY_INTERIOR_PLANES);
    let problem = ProblemSpec {
        radius: r,
        elem_bytes: req.kernel.elem_bytes,
        config: probe,
        dims: (lx, ly, proxy_lz),
        smem_limit: Some(req.device.smem_per_sm),
    };
    let per_config_bytes = match req.kernel.method.supports(&problem) {
        Ok(()) => {
            let bp = req.kernel.method.blueprint(&probe, r, (lx, ly, proxy_lz));
            let plan = lower_blueprint(&bp);
            let t = predict_traffic_on(&plan, req.kernel.precision(), &req.device);
            let proxy_bytes =
                t.global_load_cells * t.word_bytes + t.store_bytes + t.halo_bytes + t.gather_bytes;
            // Scale the proxy's interior-plane traffic up to the real
            // grid depth (both grids share the same halo shell).
            let proxy_interior = proxy_lz.saturating_sub(2 * r).max(1) as f64;
            let real_interior = lz.saturating_sub(2 * r).max(1) as f64;
            proxy_bytes as f64 * (real_interior / proxy_interior)
        }
        // The probe cannot lower — price a streaming lower bound.
        Err(_) => (2 * lx * ly * lz * req.kernel.elem_bytes) as f64,
    };
    let achieved = req.device.peak_bandwidth * req.device.achieved_bw_fraction;
    let secs = per_config_bytes * req.space.len() as f64 / achieved;
    (secs * 1e6).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_refuses_past_its_limit_and_releases_on_drop() {
        let pool = ComputePool::new(2);
        let a = pool.try_acquire().unwrap();
        let _b = pool.try_acquire().unwrap();
        let refused = pool.try_acquire().err().unwrap();
        assert_eq!(refused.code(), "SRV-001");
        assert_eq!(pool.in_use(), 2);
        drop(a);
        assert_eq!(pool.in_use(), 1);
        assert!(pool.try_acquire().is_ok());
        let s = pool.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.shed_saturated, 1);
    }

    #[test]
    fn zero_permit_pool_always_sheds() {
        let pool = ComputePool::new(0);
        assert!(matches!(
            pool.try_acquire(),
            Err(ShedReason::PoolSaturated { limit: 0 })
        ));
    }

    #[test]
    fn shed_codes_are_stable_and_displayed() {
        let reasons = [
            ShedReason::PoolSaturated { limit: 4 },
            ShedReason::OverBudget {
                predicted_micros: 10,
                budget_micros: 5,
            },
            ShedReason::DeadlineExpired {
                elapsed_micros: 9,
                budget_micros: 5,
            },
        ];
        let codes: Vec<_> = reasons.iter().map(|r| r.code()).collect();
        assert_eq!(codes, ["SRV-001", "SRV-002", "SRV-003"]);
        for r in reasons {
            assert!(r.to_string().contains(r.code()));
        }
    }
}
