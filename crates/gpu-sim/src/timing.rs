//! The timing engine: pricing one kernel launch on one device.
//!
//! Structure follows the paper's Eqns (6)–(9) — blocks per plane, active
//! blocks per SM, stages, remainder stage — but each per-plane cost is
//! computed from the address-accurate workload instead of the coarse
//! closed forms of Eqns (10)–(13):
//!
//! ```text
//! plane_cycles(A) = max( mem_cycles(A), lsu_cycles(A), compute_cycles(A) )
//!                 + exposed_latency(A) + barrier_overhead
//! ```
//!
//! * `mem_cycles`  — transferred bytes of `A` resident blocks against the
//!   SM's share of *achieved* DRAM bandwidth,
//! * `lsu_cycles`  — every warp memory instruction (global and shared,
//!   bank-conflict-scaled) through the load/store units,
//! * `compute_cycles` — flops against the SM's SP/DP rate,
//! * `exposed_latency` — `dependent_rounds × Lat × (1 − hide)` where
//!   `hide` is the paper's linear latency-hiding function `f(·)` evaluated
//!   on resident warps scaled by per-thread ILP,
//! * `barrier_overhead` — a fixed cost per `__syncthreads()`.
//!
//! The paper's own analytic model (Eqns (10)–(14), implemented in
//! `stencil-autotune`) ignores bank conflicts, scheduling overhead and
//! cache effects; this engine includes the first two and a launch
//! overhead, which is precisely why the two disagree by a few percent —
//! the gap Fig 12 studies.

use crate::counters::{LimitingFactor, SimReport};
use crate::device::DeviceSpec;
use crate::mem::MemCounters;
use crate::noise::{measurement_noise, measurement_noise_keyed, NoiseKey};
use crate::occupancy::{active_blocks, Occupancy};
use crate::plan::{BlockPlan, GridDims};

/// How latency hiding scales with resident parallelism (the shape of
/// the paper's `f(·)`). The paper specifies linear; the saturating
/// variant exists for the ablation study in `stencil-bench`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HidingModel {
    /// Linear interpolation between one warp (nothing hidden) and a
    /// full SM (everything hidden) — the paper's choice.
    #[default]
    Linear,
    /// Exponential saturation: a third of the warp slots already hides
    /// most latency, as heavily memory-parallel kernels behave.
    Saturating,
}

/// Tunable simulation options.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOptions {
    /// Fixed kernel launch overhead, seconds (driver + scheduling).
    pub launch_overhead_s: f64,
    /// Cycles per `__syncthreads()` barrier.
    pub barrier_cycles: f64,
    /// Multiplicative measurement noise amplitude (0 disables).
    pub noise_amplitude: f64,
    /// Seed for the deterministic noise hash.
    pub noise_seed: u64,
    /// Extra identifying string mixed into the noise (set this to the
    /// kernel/config label so distinct configurations de-correlate).
    pub noise_key: String,
    /// Latency-hiding shape.
    pub hiding: HidingModel,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            launch_overhead_s: 5e-6,
            barrier_cycles: 32.0,
            noise_amplitude: 0.0,
            noise_seed: 0,
            noise_key: String::new(),
            hiding: HidingModel::Linear,
        }
    }
}

impl SimOptions {
    /// Options with measurement noise enabled at `amplitude`, keyed by
    /// `key` (typically the config label) and `seed`.
    pub fn with_noise(key: impl Into<String>, seed: u64, amplitude: f64) -> Self {
        SimOptions {
            noise_amplitude: amplitude,
            noise_seed: seed,
            noise_key: key.into(),
            ..SimOptions::default()
        }
    }

    /// Fingerprint of the fields that affect the *clean* (pre-noise)
    /// simulated time. Two option sets with equal fingerprints produce
    /// bit-identical [`simulate_clean`] results, so the fingerprint is
    /// the cache discriminant for memoized pricing; the noise fields are
    /// deliberately excluded because noise is applied after pricing.
    pub fn pricing_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        fold(self.launch_overhead_s.to_bits());
        fold(self.barrier_cycles.to_bits());
        fold(match self.hiding {
            HidingModel::Linear => 0,
            HidingModel::Saturating => 1,
        });
        h
    }
}

/// The paper's latency-hiding function `f(·)`: linear between fully
/// serialised execution (one warp resident) and perfect hiding (the SM's
/// warp slots full). `parallelism` is resident warps × per-thread ILP.
pub fn latency_hiding_fraction(device: &DeviceSpec, parallelism: f64) -> f64 {
    let full = device.max_warps_per_sm as f64;
    ((parallelism - 1.0) / (full - 1.0)).clamp(0.0, 1.0)
}

/// Saturating alternative for the ablation: hiding approaches 1
/// exponentially with scale one third of the SM's warp slots.
pub fn latency_hiding_fraction_saturating(device: &DeviceSpec, parallelism: f64) -> f64 {
    let scale = device.max_warps_per_sm as f64 / 3.0;
    (1.0 - (-(parallelism - 1.0).max(0.0) / scale).exp()).clamp(0.0, 1.0)
}

/// One block-plane's traffic, read once from the plan's counts.
struct PlaneTraffic {
    /// Profiler counters over the loads and stores.
    counters: MemCounters,
    /// DRAM bytes: loads after the L1 duplicate charge, stores per
    /// transaction.
    dram_bytes: f64,
}

impl PlaneTraffic {
    /// Loads get cache credit for duplicate segment references (Fermi
    /// L1); stores write through and pay per transaction.
    fn of(device: &DeviceSpec, plan: &BlockPlan) -> Self {
        let plane = &plan.plane;
        plane.assert_counted_for(device);
        let seg = device.segment_bytes;
        let stores = MemCounters::of(&plane.stores, seg);
        let mut counters = MemCounters::of(&plane.loads, seg);
        counters.merge(&stores);
        let dram_bytes = plane
            .load_segments
            .effective_bytes(seg, device.l1_dup_charge)
            + stores.transferred_bytes as f64;
        PlaneTraffic {
            counters,
            dram_bytes,
        }
    }
}

/// Per-plane cycle cost for `resident` blocks of this plan on one SM,
/// with the default (linear) hiding model.
/// Returns `(cycles, limiting_factor)`.
///
/// # Panics
/// If the plan's traffic was counted at a segment size other than
/// `device.segment_bytes`.
pub fn plane_cycles(
    device: &DeviceSpec,
    plan: &BlockPlan,
    resident: usize,
) -> (f64, LimitingFactor) {
    plane_cycles_with(device, plan, resident, HidingModel::Linear)
}

/// Per-plane cycle cost under an explicit hiding model.
///
/// # Panics
/// As [`plane_cycles`].
pub fn plane_cycles_with(
    device: &DeviceSpec,
    plan: &BlockPlan,
    resident: usize,
    hiding: HidingModel,
) -> (f64, LimitingFactor) {
    plane_cycles_of(
        device,
        plan,
        &PlaneTraffic::of(device, plan),
        resident,
        hiding,
    )
}

/// [`plane_cycles_with`] over traffic already read from the plan.
fn plane_cycles_of(
    device: &DeviceSpec,
    plan: &BlockPlan,
    traffic: &PlaneTraffic,
    resident: usize,
    hiding: HidingModel,
) -> (f64, LimitingFactor) {
    let a = resident as f64;
    let plane = &plan.plane;

    let mem_cycles = traffic.dram_bytes * a / device.bytes_per_cycle_per_sm();

    let global_instrs = traffic.counters.instructions as f64;
    let smem_instrs = plane.smem_warp_instrs as f64 * plane.bank_conflict_factor;
    let lsu_cycles = (global_instrs + smem_instrs) * a * device.lsu_cycles_per_warp_instr();

    let compute_cycles = plane.flops as f64 * a / device.flops_per_cycle_per_sm(plan.elem_bytes);

    let warps = plan.resources.threads.div_ceil(device.warp_size) as f64;
    let parallelism = a * warps * plane.ilp.max(1.0);
    let hide = match hiding {
        HidingModel::Linear => latency_hiding_fraction(device, parallelism),
        HidingModel::Saturating => latency_hiding_fraction_saturating(device, parallelism),
    };
    let exposed = plane.dependent_rounds * device.mem_latency_cycles * (1.0 - hide);

    // Exposed latency partially overlaps with the streaming work of the
    // other resident warps: the larger of the two sets the floor, and
    // half of the smaller leaks through (dependent address chains and
    // region boundaries stall the LSU front-end even while other warps
    // stream). Full addition would double-charge kernels with deep
    // chains at high occupancy; a pure max would make chain depth free
    // whenever any traffic exists.
    let busy = mem_cycles.max(lsu_cycles).max(compute_cycles);

    let limiting = if exposed > busy {
        LimitingFactor::Latency
    } else if busy == mem_cycles {
        LimitingFactor::MemoryBandwidth
    } else if busy == lsu_cycles {
        LimitingFactor::IssueLsu
    } else {
        LimitingFactor::Compute
    };
    (busy.max(exposed) + 0.5 * busy.min(exposed), limiting)
}

/// Simulate one full grid sweep of `plan` on `device`, then apply the
/// string-keyed measurement noise configured in `opts` (if any).
///
/// This is the historical all-in-one entry point. New code should price
/// with [`simulate_clean`] and perturb with [`apply_noise`] so the pure
/// part can be memoized; this wrapper keeps the two-step split invisible
/// to callers that still pass a `noise_key` string.
pub fn simulate(
    device: &DeviceSpec,
    plan: &BlockPlan,
    dims: &GridDims,
    opts: &SimOptions,
) -> SimReport {
    let mut report = simulate_clean(device, plan, dims, opts);
    if opts.noise_amplitude > 0.0 && report.feasible() {
        report.time_s *= measurement_noise(
            &format!(
                "{}|{}|{}",
                device.name, opts.noise_key, plan.geometry.blocks
            ),
            opts.noise_seed,
            opts.noise_amplitude,
        );
    }
    report
}

/// Multiply a priced report's time by the deterministic measurement
/// noise for `(key, seed)`. The pure counterpart of the noise step that
/// [`simulate`] performs inline; separated so clean [`SimReport`]s can
/// be cached once and re-noised per seed. Infeasible reports pass
/// through untouched.
pub fn apply_noise(report: &mut SimReport, key: NoiseKey, seed: u64, amplitude: f64) {
    if amplitude > 0.0 && report.feasible() {
        report.time_s *= measurement_noise_keyed(key, seed, amplitude);
    }
}

/// Price one full grid sweep of `plan` on `device` — the pure pricing
/// layer. Deterministic in its arguments; the noise fields of `opts`
/// are ignored (only the fields covered by
/// [`SimOptions::pricing_fingerprint`] matter), which is what makes the
/// result safely memoizable.
///
/// # Panics
/// If the plan's traffic was counted at a segment size other than
/// `device.segment_bytes`.
pub fn simulate_clean(
    device: &DeviceSpec,
    plan: &BlockPlan,
    dims: &GridDims,
    opts: &SimOptions,
) -> SimReport {
    let traffic = PlaneTraffic::of(device, plan);
    let occ: Occupancy = active_blocks(device, &plan.resources);
    if occ.active_blocks == 0 {
        return SimReport::infeasible(dims.points(), occ);
    }

    let blocks = plan.geometry.blocks;
    let planes = plan.geometry.planes as u64;

    // Eqns (8)–(9): stages of fully-resident SMs plus a remainder stage.
    let per_round = device.sm_count * occ.active_blocks;
    let stages = blocks.div_ceil(per_round);
    let rem_blocks_total = blocks - (stages - 1) * per_round;
    let rem_per_sm = rem_blocks_total.div_ceil(device.sm_count);

    let (full_cycles, limiting_full) =
        plane_cycles_of(device, plan, &traffic, occ.active_blocks, opts.hiding);
    let (rem_cycles, limiting_rem) =
        plane_cycles_of(device, plan, &traffic, rem_per_sm.max(1), opts.hiding);
    let barrier = plan.plane.syncthreads as f64 * opts.barrier_cycles;

    let total_cycles =
        planes as f64 * ((stages as f64 - 1.0) * (full_cycles + barrier) + (rem_cycles + barrier));
    let time_s = total_cycles / device.clock_hz() + opts.launch_overhead_s;

    // Whole-sweep traffic: every block runs every plane.
    let mem = traffic.counters.scaled(blocks as u64 * planes);

    let flops = plan.plane.flops * blocks as u64 * planes;

    let limiting = if stages > 1 {
        limiting_full
    } else {
        limiting_rem
    };

    SimReport {
        time_s,
        points: dims.points(),
        mem,
        occupancy: occ,
        limiting,
        stages,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::WarpLoad;
    use crate::occupancy::BlockResources;
    use crate::plan::{LaunchGeometry, PlanePlan};

    /// A simple streaming plan: `n_loads` coalesced SP warp loads and one
    /// coalesced store per plane, per block of 256 threads.
    fn stream_plan(n_loads: usize, flops: u64) -> BlockPlan {
        let loads: Vec<WarpLoad> = (0..n_loads)
            .map(|i| WarpLoad::contiguous(i as u64 * 128, 32, 4))
            .collect();
        plan_of(&loads, flops)
    }

    /// A 256-thread block issuing `loads` and one coalesced store per
    /// plane, counted at the GTX580's 128-byte segments.
    fn plan_of(loads: &[WarpLoad], flops: u64) -> BlockPlan {
        BlockPlan {
            plane: PlanePlan {
                flops,
                syncthreads: 1,
                ..PlanePlan::from_warp_loads(loads, &[WarpLoad::contiguous(1 << 20, 32, 4)], 128)
            },
            resources: BlockResources {
                threads: 256,
                regs_per_thread: 20,
                smem_bytes: 4096,
            },
            geometry: LaunchGeometry {
                blocks: 1024,
                threads_per_block: 256,
                planes: 64,
            },
            elem_bytes: 4,
        }
    }

    #[test]
    fn infeasible_plan_reports_infinity() {
        let mut plan = stream_plan(8, 100);
        plan.resources.smem_bytes = 1 << 20;
        let rep = simulate(
            &DeviceSpec::gtx580(),
            &plan,
            &GridDims::paper(),
            &SimOptions::default(),
        );
        assert!(!rep.feasible());
    }

    #[test]
    fn memory_bound_plan_approaches_achieved_bandwidth() {
        // Lots of perfectly coalesced traffic, negligible flops: the
        // simulated sweep must run at ~the device's achieved bandwidth.
        let plan = stream_plan(32, 1);
        let dev = DeviceSpec::gtx580();
        let rep = simulate(&dev, &plan, &GridDims::paper(), &SimOptions::default());
        assert!(rep.feasible());
        let bw = rep.achieved_bandwidth_gbs();
        let target = dev.achieved_bandwidth() / 1e9;
        assert!(
            (bw - target).abs() / target < 0.05,
            "streaming bandwidth {bw} GB/s should be near {target} GB/s"
        );
        assert_eq!(rep.limiting, LimitingFactor::MemoryBandwidth);
    }

    #[test]
    fn compute_bound_plan_approaches_peak_flops() {
        // Tiny traffic, enormous flops: should land near peak SP.
        let mut plan = stream_plan(1, 0);
        plan.plane.flops = 50_000_000;
        let dev = DeviceSpec::gtx580();
        let rep = simulate(&dev, &plan, &GridDims::paper(), &SimOptions::default());
        let gf = rep.gflops();
        let peak = dev.peak_sp_flops() / 1e9;
        assert!(
            (gf - peak).abs() / peak < 0.05,
            "compute-bound rate {gf} GFlop/s should be near peak {peak}"
        );
        assert_eq!(rep.limiting, LimitingFactor::Compute);
    }

    #[test]
    fn dp_compute_is_dp_ratio_slower() {
        let mut sp = stream_plan(1, 0);
        sp.plane.flops = 50_000_000;
        let mut dp = sp.clone();
        dp.elem_bytes = 8;
        let dev = DeviceSpec::gtx580();
        let o = SimOptions {
            launch_overhead_s: 0.0,
            ..SimOptions::default()
        };
        let t_sp = simulate(&dev, &sp, &GridDims::paper(), &o).time_s;
        let t_dp = simulate(&dev, &dp, &GridDims::paper(), &o).time_s;
        assert!(
            (t_dp / t_sp - 8.0).abs() < 0.5,
            "GTX580 DP should be ~8x slower when compute-bound, got {}",
            t_dp / t_sp
        );
    }

    #[test]
    fn poor_coalescing_is_slower_than_good() {
        let good = stream_plan(8, 100);
        // Same requested bytes, but strided: one transaction per lane.
        let strided: Vec<WarpLoad> = (0..8)
            .map(|i| WarpLoad {
                lane_addresses: (0..32u64).map(|l| (i * 32 + l) * 2048).collect(),
                bytes_per_lane: 4,
            })
            .collect();
        let bad = plan_of(&strided, 100);
        let dev = DeviceSpec::gtx580();
        let o = SimOptions::default();
        let t_good = simulate(&dev, &good, &GridDims::paper(), &o).time_s;
        let t_bad = simulate(&dev, &bad, &GridDims::paper(), &o).time_s;
        assert!(t_bad > 2.0 * t_good, "strided loads must be much slower");
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        let mut plan = stream_plan(2, 100);
        // Huge smem: one resident block of 8 warps → poor hiding.
        plan.resources.smem_bytes = 40 * 1024;
        plan.plane.dependent_rounds = 4.0;
        let dev = DeviceSpec::gtx580();
        let o = SimOptions::default();
        let low = simulate(&dev, &plan, &GridDims::paper(), &o);
        let mut plan_hi = plan.clone();
        plan_hi.resources.smem_bytes = 4096;
        let hi = simulate(&dev, &plan_hi, &GridDims::paper(), &o);
        assert!(
            low.time_s > hi.time_s,
            "lower occupancy must not be faster here"
        );
    }

    #[test]
    fn ilp_improves_latency_hiding() {
        let mut plan = stream_plan(2, 100);
        plan.resources.smem_bytes = 40 * 1024; // low occupancy
        plan.plane.dependent_rounds = 4.0;
        let dev = DeviceSpec::gtx580();
        let o = SimOptions::default();
        let base = simulate(&dev, &plan, &GridDims::paper(), &o).time_s;
        plan.plane.ilp = 8.0;
        let ilp = simulate(&dev, &plan, &GridDims::paper(), &o).time_s;
        assert!(ilp < base, "ILP must shorten latency-exposed plans");
    }

    #[test]
    fn latency_hiding_fraction_endpoints() {
        let dev = DeviceSpec::gtx580();
        assert_eq!(latency_hiding_fraction(&dev, 1.0), 0.0);
        assert_eq!(latency_hiding_fraction(&dev, 48.0), 1.0);
        assert_eq!(latency_hiding_fraction(&dev, 500.0), 1.0);
        let mid = latency_hiding_fraction(&dev, 24.5);
        assert!((mid - 0.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_hiding_dominates_linear_at_mid_occupancy() {
        // The ablation's alternative: faster early rise, same endpoints.
        let dev = DeviceSpec::gtx580();
        assert_eq!(latency_hiding_fraction_saturating(&dev, 1.0), 0.0);
        assert!(latency_hiding_fraction_saturating(&dev, 1000.0) > 0.999);
        for p in [4.0, 12.0, 24.0, 40.0] {
            let sat = latency_hiding_fraction_saturating(&dev, p);
            let lin = latency_hiding_fraction(&dev, p);
            assert!(
                sat > lin,
                "parallelism {p}: saturating {sat:.3} vs linear {lin:.3}"
            );
        }
    }

    #[test]
    fn saturating_model_helps_low_occupancy_plans() {
        // At low occupancy the saturating curve hides more latency than
        // the paper's linear f(·); only at exactly-full occupancy does
        // linear's hard 1.0 beat the asymptote.
        let mut plan = stream_plan(2, 100);
        plan.resources.smem_bytes = 40 * 1024; // one resident block
        plan.plane.dependent_rounds = 5.0;
        let dev = DeviceSpec::gtx580();
        let lin = SimOptions::default();
        let sat = SimOptions {
            hiding: HidingModel::Saturating,
            ..SimOptions::default()
        };
        let t_lin = simulate(&dev, &plan, &GridDims::paper(), &lin).time_s;
        let t_sat = simulate(&dev, &plan, &GridDims::paper(), &sat).time_s;
        assert!(
            t_sat < t_lin,
            "saturating {t_sat} should beat linear {t_lin} here"
        );
    }

    #[test]
    fn stages_match_eqn8() {
        let plan = stream_plan(4, 100);
        let dev = DeviceSpec::gtx580();
        let rep = simulate(&dev, &plan, &GridDims::paper(), &SimOptions::default());
        // occupancy: smem 4096 → 8 blocks (block-slot limited; 8 warps each
        // → warp limit 48/8 = 6). regs 20*32=640→granule 640*8 warps...
        // just check Eqn (8) arithmetic against the reported occupancy.
        let per_round = dev.sm_count * rep.occupancy.active_blocks;
        assert_eq!(rep.stages, 1024_usize.div_ceil(per_round));
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let plan = stream_plan(4, 100);
        let dev = DeviceSpec::gtx580();
        let clean = simulate(&dev, &plan, &GridDims::paper(), &SimOptions::default()).time_s;
        let o = SimOptions::with_noise("cfg", 7, 0.02);
        let a = simulate(&dev, &plan, &GridDims::paper(), &o).time_s;
        let b = simulate(&dev, &plan, &GridDims::paper(), &o).time_s;
        assert_eq!(a, b);
        assert!((a / clean - 1.0).abs() <= 0.021);
    }

    #[test]
    fn more_planes_cost_proportionally_more() {
        let plan = stream_plan(8, 100);
        let dev = DeviceSpec::gtx580();
        let o = SimOptions {
            launch_overhead_s: 0.0,
            ..SimOptions::default()
        };
        let d1 = GridDims::new(512, 512, 64);
        let d2 = GridDims::new(512, 512, 128);
        let mut p1 = plan.clone();
        p1.geometry.planes = 64;
        let mut p2 = plan;
        p2.geometry.planes = 128;
        let t1 = simulate(&dev, &p1, &d1, &o).time_s;
        let t2 = simulate(&dev, &p2, &d2, &o).time_s;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simulate_is_clean_plus_string_noise() {
        let plan = stream_plan(4, 100);
        let dev = DeviceSpec::gtx580();
        let o = SimOptions::default();
        let clean = simulate_clean(&dev, &plan, &GridDims::paper(), &o);
        let composed = simulate(&dev, &plan, &GridDims::paper(), &o);
        assert_eq!(clean.time_s, composed.time_s);
        let noisy_opts = SimOptions::with_noise("k", 3, 0.02);
        // Clean pricing ignores the noise fields entirely.
        assert_eq!(
            simulate_clean(&dev, &plan, &GridDims::paper(), &noisy_opts).time_s,
            clean.time_s
        );
    }

    #[test]
    fn apply_noise_is_deterministic_and_bounded() {
        let plan = stream_plan(4, 100);
        let dev = DeviceSpec::gtx580();
        let clean = simulate_clean(&dev, &plan, &GridDims::paper(), &SimOptions::default());
        let key = NoiseKey::from_words(&[1, 2, 3]);
        let mut a = clean.clone();
        apply_noise(&mut a, key, 7, 0.02);
        let mut b = clean.clone();
        apply_noise(&mut b, key, 7, 0.02);
        assert_eq!(a.time_s, b.time_s);
        assert!((a.time_s / clean.time_s - 1.0).abs() <= 0.02);
        let mut c = clean.clone();
        apply_noise(&mut c, key, 8, 0.02);
        assert_ne!(
            a.time_s, c.time_s,
            "different seeds must perturb differently"
        );
        let mut z = clean.clone();
        apply_noise(&mut z, key, 7, 0.0);
        assert_eq!(z.time_s, clean.time_s, "zero amplitude is identity");
    }

    #[test]
    fn apply_noise_leaves_infeasible_untouched() {
        let mut plan = stream_plan(8, 100);
        plan.resources.smem_bytes = 1 << 20;
        let dev = DeviceSpec::gtx580();
        let mut rep = simulate_clean(&dev, &plan, &GridDims::paper(), &SimOptions::default());
        let before = rep.time_s;
        apply_noise(&mut rep, NoiseKey::from_words(&[9]), 1, 0.02);
        assert_eq!(rep.time_s.to_bits(), before.to_bits());
    }

    #[test]
    fn pricing_fingerprint_tracks_only_pricing_fields() {
        let base = SimOptions::default();
        let noisy = SimOptions::with_noise("anything", 99, 0.05);
        assert_eq!(base.pricing_fingerprint(), noisy.pricing_fingerprint());
        let slower = SimOptions {
            barrier_cycles: 64.0,
            ..SimOptions::default()
        };
        assert_ne!(base.pricing_fingerprint(), slower.pricing_fingerprint());
        let sat = SimOptions {
            hiding: HidingModel::Saturating,
            ..SimOptions::default()
        };
        assert_ne!(base.pricing_fingerprint(), sat.pricing_fingerprint());
        let overhead = SimOptions {
            launch_overhead_s: 0.0,
            ..SimOptions::default()
        };
        assert_ne!(base.pricing_fingerprint(), overhead.pricing_fingerprint());
    }

    #[test]
    #[should_panic(expected = "counted at 128 B segments")]
    fn pricing_on_another_segment_size_panics() {
        let plan = stream_plan(2, 10);
        simulate_clean(
            &DeviceSpec::gtx680(),
            &plan,
            &GridDims::paper(),
            &SimOptions::default(),
        );
    }

    #[test]
    fn report_counts_all_traffic() {
        let plan = stream_plan(2, 10);
        let dev = DeviceSpec::gtx580();
        let rep = simulate(&dev, &plan, &GridDims::paper(), &SimOptions::default());
        // 2 loads + 1 store per plane per block, 128 B each, 1024 blocks, 64 planes.
        assert_eq!(rep.mem.transferred_bytes, 3 * 128 * 1024 * 64);
        assert_eq!(rep.flops, 10 * 1024 * 64);
    }
}
