#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gpu-sim
//!
//! A deterministic GPU execution/timing simulator standing in for the
//! paper's three test cards (GeForce GTX580, GeForce GTX680, Tesla
//! C2070). The paper's effects are architectural — memory-transaction
//! coalescing of halo loads, occupancy limits from register/shared-memory
//! budgets, latency hiding as a function of resident warps, and the SP/DP
//! compute-throughput gap — and this crate models exactly those
//! mechanisms:
//!
//! * **Address-accurate coalescing** ([`mem`]): kernel variants generate
//!   per-warp address lists; the memory model groups them into aligned
//!   segments exactly as the hardware's load/store units do, which is
//!   where the in-plane method's benefit comes from. Lowering counts each
//!   instruction once, so plans carry transaction counts, not addresses.
//! * **Occupancy** ([`occupancy`]): active blocks per SM from register,
//!   shared-memory, warp-slot and block-slot limits with hardware
//!   allocation granularities (Eqn (7) of the paper, with granularity).
//! * **Timing** ([`timing`]): a stage-based engine (Eqns (6)–(9)
//!   structure) where each z-plane costs the max of memory, compute and
//!   issue cycles plus exposed latency scaled by a latency-hiding factor
//!   (the paper's `f(·)`), plus effects the paper's analytic model
//!   *deliberately ignores* — shared-memory bank conflicts, barrier
//!   overhead, and measurement noise — so that the Section VI model
//!   approximates but does not equal the "measured" numbers (the gap
//!   Fig 12 quantifies).
//!
//! Everything is a pure function of its inputs; a fixed seed makes whole
//! experiment suites bit-reproducible.

pub mod counters;
pub mod device;
pub mod fnv;
pub mod mem;
pub mod microbench;
pub mod microsim;
pub mod noise;
pub mod occupancy;
pub mod plan;
pub mod roofline;
pub mod smem;
pub mod timing;

pub use counters::{LimitingFactor, SimReport};
pub use device::{Architecture, DeviceSpec, LEGACY_COALESCE_SEGMENT_BYTES, LEGACY_SMEM_BANK_BYTES};
pub use fnv::{fnv1a, fnv1a_bytes, fnv1a_word, FnvWriter, KeyWriter, FNV_OFFSET_BASIS};
pub use mem::{
    coalesce_transactions, MemCounters, SegmentCounts, TrafficCounter, WarpLoad, WarpTraffic,
};
pub use microbench::measure_achieved_bandwidth;
pub use microsim::{simulate_block_plane, MicrosimResult};
pub use noise::{measurement_noise, measurement_noise_keyed, NoiseKey};
pub use occupancy::{active_blocks, Occupancy};
pub use plan::{BlockPlan, GridDims, LaunchGeometry, PlanePlan};
pub use roofline::{
    attainable_gflops, intensity, mpoints_ceiling, regime, ridge_point, RooflineRegime,
};
pub use smem::stencil_phase_factor;
pub use timing::{apply_noise, simulate, simulate_clean, SimOptions};
