//! Performance plan for the 3.5-D GPU kernel.
//!
//! Per z-plane, the temporal kernel loads one plane of the halo-expanded
//! tile (`(W + 2rT)` wide per axis), advances the temporal pipeline —
//! intermediate time steps live in shared memory, the z-pipelines of the
//! current step in registers — and stores one fully-advanced plane. One
//! sweep of the grid therefore performs `T` Jacobi steps: the effective
//! throughput is `T ×` the sweep rate, which is how temporal blocking
//! beats the DRAM roofline that caps every single-step method.

use gpu_sim::occupancy::BlockResources;
use gpu_sim::plan::{BlockPlan, GridDims, LaunchGeometry, PlanePlan};
use gpu_sim::{apply_noise, DeviceSpec, SimOptions, SimReport, TrafficCounter};
use inplane_core::layout::TileGeometry;
use inplane_core::regions::{Assignment, Region};
use inplane_core::resources::BASE_REGS;
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, PlanKey};

/// A temporally blocked launch: spatial blocking plus temporal depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalConfig {
    /// Spatial blocking factors.
    pub launch: LaunchConfig,
    /// Time steps advanced per sweep (`T`; 1 = plain 2.5-D blocking).
    pub t_steps: usize,
}

impl TemporalConfig {
    /// Construct; `t_steps` must be at least 1.
    pub fn new(launch: LaunchConfig, t_steps: usize) -> Self {
        assert!(t_steps >= 1, "temporal depth must be at least 1");
        TemporalConfig { launch, t_steps }
    }

    /// Halo width of the expanded tile: `r · T`.
    pub fn halo(&self, radius: usize) -> usize {
        radius * self.t_steps
    }
}

/// Build the per-plane block plan for the 3.5-D kernel.
pub fn temporal_plan(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &TemporalConfig,
    dims: GridDims,
) -> BlockPlan {
    let r = kernel.radius;
    let halo = config.halo(r);
    let (wx, wy) = (config.launch.tile_x(), config.launch.tile_y());
    let vw = kernel.precision().max_vector_width();

    // Geometry with the temporally expanded halo standing in for `r`.
    let geom = TileGeometry::interior(
        &config.launch,
        halo,
        kernel.elem_bytes as u64,
        dims.lx,
        device.segment_bytes,
    );

    // Loads: one packed vectorised sweep over the expanded slab.
    let (sx_s, sx_e) = geom.slab_x();
    let (sy_s, sy_e) = geom.slab_y();
    let slab = Region {
        x: (sx_s, sx_e),
        y: (sy_s, sy_e),
        vector_width: vw,
        assignment: Assignment::Packed,
    };
    let mut loads = TrafficCounter::new(device.segment_bytes);
    slab.count(&geom, device.warp_size, &mut loads);

    // Stores: the tile, coalesced rows.
    let store = Region {
        x: geom.interior_x(),
        y: geom.interior_y(),
        vector_width: 1,
        assignment: Assignment::PerRow,
    };
    let mut stores = TrafficCounter::new(device.segment_bytes);
    store.count(&geom, device.warp_size, &mut stores);
    let counted = PlanePlan::counted(loads, stores);

    // Compute: T steps over shrinking shells.
    let flops: u64 = (1..=config.t_steps)
        .map(|s| {
            let shrink = 2 * r * (config.t_steps - s);
            ((wx + shrink) * (wy + shrink)) as u64 * kernel.flops_per_point as u64
        })
        .sum();

    // Shared memory: one staged plane per in-flight time step plus the
    // incoming plane, all at the expanded width.
    let slab_elems = (wx + 2 * halo) * (wy + 2 * halo);
    let smem_bytes = (config.t_steps + 1) * slab_elems * kernel.elem_bytes;

    // Registers: the current step's z-pipeline per point plus fixed
    // overhead (intermediate steps live in shared memory).
    let regs = BASE_REGS
        + (2 * r + 1) * config.launch.points_per_thread() * (kernel.elem_bytes / 4)
        + 2 * (kernel.elem_bytes / 4);

    let warps = config.launch.threads().div_ceil(device.warp_size) as u64;
    let smem_reads = warps
        * config.launch.points_per_thread() as u64
        * (4 * r as u64 + 1)
        * config.t_steps as u64;

    BlockPlan {
        plane: PlanePlan {
            smem_warp_instrs: counted.loads.len() as u64 + smem_reads,
            flops,
            dependent_rounds: config.t_steps as f64, // step-to-step dependency chain
            ilp: config.launch.points_per_thread() as f64,
            syncthreads: 2 * config.t_steps as u64, // two barriers per time step
            ..counted
        },
        resources: BlockResources {
            threads: config.launch.threads(),
            regs_per_thread: regs,
            smem_bytes,
        },
        geometry: LaunchGeometry {
            blocks: config.launch.blocks_per_plane(dims.lx, dims.ly),
            threads_per_block: config.launch.threads(),
            planes: dims.lz,
        },
        elem_bytes: kernel.elem_bytes,
    }
}

/// Simulate one sweep and return `(report, effective_mpoints)`: a sweep
/// advances the whole grid by `T` steps, so the effective rate is `T ×`
/// points over the sweep time.
///
/// Routes through the global [`EvalContext`]: the temporal plan and its
/// clean price are memoized under a key salted with `T` (so a `T`-deep
/// plan never aliases the plain spatial lowering of the same launch);
/// noise, if enabled in `opts`, is applied after the cache.
pub fn simulate_temporal(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &TemporalConfig,
    dims: GridDims,
    opts: &SimOptions,
) -> (SimReport, f64) {
    let key = PlanKey::with_salt(device, kernel, &config.launch, dims, config.t_steps as u64);
    let mut report = EvalContext::global().price_with(device, &key, dims, opts, || {
        temporal_plan(device, kernel, config, dims)
    });
    apply_noise(
        &mut report,
        key.noise_key(),
        opts.noise_seed,
        opts.noise_amplitude,
    );
    let effective = report.mpoints_per_s() * config.t_steps as f64;
    (report, effective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn kernel() -> KernelSpec {
        KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single)
    }

    #[test]
    fn t1_behaves_like_a_spatial_kernel() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let cfg = TemporalConfig::new(LaunchConfig::new(64, 8, 1, 1), 1);
        let (rep, eff) = simulate_temporal(&dev, &kernel(), &cfg, dims, &SimOptions::default());
        assert!(rep.feasible());
        assert!((eff - rep.mpoints_per_s()).abs() < 1e-9);
    }

    #[test]
    fn moderate_depth_amortises_traffic() {
        // Effective bytes per point per step must drop with T.
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let per_step_bytes = |t: usize| {
            let cfg = TemporalConfig::new(LaunchConfig::new(64, 8, 1, 1), t);
            let (rep, _) = simulate_temporal(&dev, &kernel(), &cfg, dims, &SimOptions::default());
            rep.mem.transferred_bytes as f64 / (rep.points as f64 * t as f64)
        };
        assert!(per_step_bytes(2) < per_step_bytes(1));
        assert!(per_step_bytes(4) < per_step_bytes(2));
    }

    #[test]
    fn excessive_depth_runs_out_of_shared_memory() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let cfg = TemporalConfig::new(LaunchConfig::new(64, 8, 1, 1), 16);
        let (rep, _) = simulate_temporal(&dev, &kernel(), &cfg, dims, &SimOptions::default());
        assert!(
            !rep.feasible(),
            "T = 16 slabs cannot fit 48 KB of shared memory"
        );
    }

    #[test]
    fn there_is_a_sweet_spot_in_t() {
        // Effective throughput should rise from T = 1 and eventually
        // fall (or die) as redundancy and resources bite.
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let eff = |t: usize| {
            let cfg = TemporalConfig::new(LaunchConfig::new(64, 8, 1, 1), t);
            simulate_temporal(&dev, &kernel(), &cfg, dims, &SimOptions::default()).1
        };
        let e1 = eff(1);
        let best = (2..=8).map(eff).fold(0.0f64, f64::max);
        assert!(
            best > e1,
            "some T > 1 must beat T = 1 for a bandwidth-bound kernel"
        );
        let deep = eff(8);
        let mid = eff(2).max(eff(3)).max(eff(4));
        assert!(deep < mid || deep == 0.0, "very deep T should fall off");
    }

    #[test]
    #[should_panic(expected = "temporal depth")]
    fn zero_depth_rejected() {
        TemporalConfig::new(LaunchConfig::new(32, 4, 1, 1), 0);
    }
}
