//! Differential suite: plans count their global traffic once, at
//! lowering, and hold no lane addresses. This checks the counted plans
//! against the per-lane path they replaced — every region lowered to
//! `WarpLoad`s, counted with `MemCounters::record_all` and
//! `effective_load_bytes` — and `simulate_clean` against a pricing
//! written over those lane addresses, bit for bit.
//!
//! Sweep: every device preset × SP/DP × orders 2–12 × every method × a
//! strided subset of the paper's audited search space on the paper grid.

use gpu_sim::occupancy::BlockResources;
use gpu_sim::timing::{
    latency_hiding_fraction, latency_hiding_fraction_saturating, plane_cycles, HidingModel,
};
use gpu_sim::{
    active_blocks, coalesce_transactions, mem::effective_load_bytes, BlockPlan, DeviceSpec,
    GridDims, LimitingFactor, MemCounters, SimOptions, SimReport, WarpLoad, WarpTraffic,
};
use inplane_core::layout::TileGeometry;
use inplane_core::loadplan::{coeff_region, load_regions, plan_for_device_on, store_region};
use inplane_core::resources::vector_width;
use inplane_core::{build_block_plan, KernelSpec, LaunchConfig, Method};
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;

/// Configurations taken from each space.
const PER_SPACE: usize = 3;

/// The per-lane lowering of `(kernel, config)`: the load and store
/// instructions with their lane addresses, in the plan's order.
fn lanes(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &LaunchConfig,
    lx: usize,
) -> (Vec<WarpLoad>, Vec<WarpLoad>) {
    let (_, _, geom) = plan_for_device_on(kernel, config, lx, device);
    let ws = device.warp_size;
    let mut loads = Vec::new();
    let regions = load_regions(kernel.method, &geom, vector_width(kernel));
    for _ in 0..kernel.streamed_inputs {
        for region in &regions {
            loads.extend(region.lower(&geom, ws));
        }
    }
    let aligned = TileGeometry { x_shift: 0, ..geom };
    let coeff = coeff_region(&aligned, kernel.precision().max_vector_width());
    for _ in 0..kernel.coeff_inputs {
        loads.extend(coeff.lower(&aligned, ws));
    }
    let mut stores = Vec::new();
    for _ in 0..kernel.outputs {
        stores.extend(store_region(&geom).lower(&geom, ws));
    }
    (loads, stores)
}

/// Per-plane cycles priced from lane addresses.
fn reference_plane_cycles(
    device: &DeviceSpec,
    plan: &BlockPlan,
    loads: &[WarpLoad],
    stores: &[WarpLoad],
    resident: usize,
    hiding: HidingModel,
) -> (f64, LimitingFactor) {
    let a = resident as f64;
    let plane = &plan.plane;
    let mut per_block = MemCounters::default();
    per_block.record_all(loads, device.segment_bytes);
    per_block.record_all(stores, device.segment_bytes);
    let mut store_ctr = MemCounters::default();
    store_ctr.record_all(stores, device.segment_bytes);
    let dram_bytes = effective_load_bytes(loads, device.segment_bytes, device.l1_dup_charge)
        + store_ctr.transferred_bytes as f64;
    let mem_cycles = dram_bytes * a / device.bytes_per_cycle_per_sm();
    let global_instrs = per_block.instructions as f64;
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

/// `simulate_clean` priced from lane addresses.
fn reference_clean(
    device: &DeviceSpec,
    plan: &BlockPlan,
    loads: &[WarpLoad],
    stores: &[WarpLoad],
    dims: &GridDims,
    opts: &SimOptions,
) -> SimReport {
    let occ = active_blocks(device, &plan.resources);
    if occ.active_blocks == 0 {
        return SimReport::infeasible(dims.points(), occ);
    }
    let blocks = plan.geometry.blocks;
    let planes = plan.geometry.planes as u64;
    let per_round = device.sm_count * occ.active_blocks;
    let stages = blocks.div_ceil(per_round);
    let rem_per_sm = (blocks - (stages - 1) * per_round).div_ceil(device.sm_count);
    let cycles =
        |resident| reference_plane_cycles(device, plan, loads, stores, resident, opts.hiding);
    let (full_cycles, limiting_full) = cycles(occ.active_blocks);
    let (rem_cycles, limiting_rem) = cycles(rem_per_sm.max(1));
    let barrier = plan.plane.syncthreads as f64 * opts.barrier_cycles;
    let total_cycles =
        planes as f64 * ((stages as f64 - 1.0) * (full_cycles + barrier) + (rem_cycles + barrier));
    let mut per_block = MemCounters::default();
    per_block.record_all(loads, device.segment_bytes);
    per_block.record_all(stores, device.segment_bytes);
    SimReport {
        time_s: total_cycles / device.clock_hz() + opts.launch_overhead_s,
        points: dims.points(),
        mem: per_block.scaled(blocks as u64 * planes),
        occupancy: occ,
        limiting: if stages > 1 {
            limiting_full
        } else {
            limiting_rem
        },
        stages,
        flops: plan.plane.flops * blocks as u64 * planes,
    }
}

fn check(device: &DeviceSpec, kernel: &KernelSpec, config: &LaunchConfig, dims: GridDims) {
    let what = format!(
        "{} {} {} on {}",
        kernel.method, kernel.name, config, device.name
    );
    let plan = build_block_plan(device, kernel, config, dims);
    let (loads, stores) = lanes(device, kernel, config, dims.lx);
    let seg = device.segment_bytes;

    // The counted plan equals the per-lane counts, instruction by
    // instruction.
    let per_instr = |instrs: &[WarpLoad]| -> Vec<WarpTraffic> {
        instrs
            .iter()
            .map(|l| WarpTraffic {
                transactions: coalesce_transactions(l, seg) as u64,
                requested_bytes: l.requested_bytes(),
            })
            .collect()
    };
    assert_eq!(plan.plane.segment_bytes, seg, "{what}");
    assert_eq!(plan.plane.loads, per_instr(&loads), "{what}");
    assert_eq!(plan.plane.stores, per_instr(&stores), "{what}");
    let mut reference = MemCounters::default();
    reference.record_all(&loads, seg);
    assert_eq!(MemCounters::of(&plan.plane.loads, seg), reference, "{what}");
    // Charging repeats at 0 and at 1 pins the distinct and the total
    // segment references.
    for dup in [0.0, 1.0, device.l1_dup_charge] {
        assert_eq!(
            plan.plane.load_segments.effective_bytes(seg, dup).to_bits(),
            effective_load_bytes(&loads, seg, dup).to_bits(),
            "{what}, duplicate charge {dup}"
        );
    }

    // Pricing reads the counts exactly as it read the lanes.
    for hiding in [HidingModel::Linear, HidingModel::Saturating] {
        let opts = SimOptions {
            hiding,
            ..SimOptions::default()
        };
        let got = gpu_sim::simulate_clean(device, &plan, &dims, &opts);
        let want = reference_clean(device, &plan, &loads, &stores, &dims, &opts);
        assert_eq!(got.time_s.to_bits(), want.time_s.to_bits(), "{what}");
        assert_eq!(got, want, "{what}");
    }
    for resident in [1, 3] {
        let (cycles, limiting) = plane_cycles(device, &plan, resident);
        let (want, want_limiting) = reference_plane_cycles(
            device,
            &plan,
            &loads,
            &stores,
            resident,
            HidingModel::Linear,
        );
        assert_eq!(cycles.to_bits(), want.to_bits(), "{what}");
        assert_eq!(limiting, want_limiting, "{what}");
    }
}

#[test]
fn counted_plans_price_like_their_lane_addresses() {
    let dims = GridDims::paper();
    let mut checked = 0;
    for device in DeviceSpec::all_devices() {
        for precision in [Precision::Single, Precision::Double] {
            for order in (2..=12).step_by(2) {
                // One space per (device, precision, order); every method
                // is lowered at its configurations.
                let probe = KernelSpec::star_order(Method::ALL[0], order, precision);
                let (space, _) = ParameterSpace::paper_space_audited(&device, &probe, &dims);
                let configs = space.configs();
                let stride = (configs.len() / PER_SPACE).max(1);
                for method in Method::ALL {
                    let kernel = KernelSpec::star_order(method, order, precision);
                    for config in configs.iter().step_by(stride) {
                        check(&device, &kernel, config, dims);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked >= 1000, "{checked} plans checked");
}

#[test]
fn multi_grid_kernels_count_every_grid() {
    // Application kernels stream several grids and read coefficient
    // grids: repeated regions are counted once per grid, and their
    // segments count as repeats for the L1 charge.
    let dims = GridDims::paper();
    let device = DeviceSpec::gtx580();
    for method in Method::ALL {
        let mut kernel = KernelSpec::star_order(method, 4, Precision::Single);
        kernel.streamed_inputs = 3;
        kernel.coeff_inputs = 2;
        kernel.outputs = 2;
        for config in [
            LaunchConfig::new(32, 8, 1, 1),
            LaunchConfig::new(64, 4, 2, 2),
        ] {
            check(&device, &kernel, &config, dims);
        }
    }
}

#[test]
fn hand_built_plans_count_their_warp_loads() {
    let loads = [
        WarpLoad::contiguous(0, 32, 4),
        WarpLoad::contiguous(64, 32, 4),
    ];
    let plane = gpu_sim::PlanePlan::from_warp_loads(&loads, &loads[..1], 128);
    let plan = BlockPlan {
        plane,
        resources: BlockResources {
            threads: 256,
            regs_per_thread: 16,
            smem_bytes: 0,
        },
        geometry: gpu_sim::LaunchGeometry {
            blocks: 64,
            threads_per_block: 256,
            planes: 8,
        },
        elem_bytes: 4,
    };
    let device = DeviceSpec::gtx580();
    let dims = GridDims::new(128, 128, 8);
    let opts = SimOptions::default();
    let got = gpu_sim::simulate_clean(&device, &plan, &dims, &opts);
    let want = reference_clean(&device, &plan, &loads, &loads[..1], &dims, &opts);
    assert_eq!(got.time_s.to_bits(), want.time_s.to_bits());
    assert_eq!(got, want);
}
