//! Bandwidth micro-benchmark.
//!
//! §IV-A of the paper: *"We also measured the throughput achievable on
//! each GPU and obtained 161 GB/s on GTX580, 150 GB/s on GTX680 and
//! 117.5 GB/s on Tesla C2070."* This module runs the simulator's
//! equivalent measurement — a perfectly coalesced copy kernel — through
//! the full timing engine, closing the loop between the device's
//! calibrated `achieved_bw_fraction` and what an actual simulated kernel
//! observes. Table III's "measured" column is regenerated from here.

use crate::device::DeviceSpec;
use crate::mem::WarpLoad;
use crate::occupancy::BlockResources;
use crate::plan::{BlockPlan, GridDims, LaunchGeometry, PlanePlan};
use crate::timing::{simulate, SimOptions};

/// Build a copy-kernel plan: each 256-thread block streams four
/// `elem_bytes` words per thread in and out per plane with perfect
/// coalescing, counted at `device`'s segment size.
fn copy_plan(device: &DeviceSpec, elem_bytes: usize) -> (BlockPlan, GridDims) {
    let dims = GridDims::new(1024, 1024, 64);
    let threads = 256usize;
    let blocks = dims.lx * dims.ly / (threads * 4); // 4 elements per thread
    let warps = threads / 32;
    let loads: Vec<WarpLoad> = (0..warps * 4)
        .map(|w| WarpLoad::contiguous(w as u64 * 32 * elem_bytes as u64, 32, elem_bytes as u64))
        .collect();
    let stores: Vec<WarpLoad> = loads
        .iter()
        .map(|l| WarpLoad {
            lane_addresses: l.lane_addresses.iter().map(|a| a + (1 << 26)).collect(),
            bytes_per_lane: elem_bytes as u64,
        })
        .collect();
    let plan = BlockPlan {
        plane: PlanePlan {
            ilp: 4.0,
            ..PlanePlan::from_warp_loads(&loads, &stores, device.segment_bytes)
        },
        resources: BlockResources {
            threads,
            regs_per_thread: 16,
            smem_bytes: 0,
        },
        geometry: LaunchGeometry {
            blocks,
            threads_per_block: threads,
            planes: dims.lz,
        },
        elem_bytes,
    };
    (plan, dims)
}

/// "Measure" the streaming bandwidth of `device` in GB/s, as the paper
/// did for Table III's achieved-throughput numbers.
pub fn measure_achieved_bandwidth(device: &DeviceSpec) -> f64 {
    let (plan, dims) = copy_plan(device, 4);
    let rep = simulate(
        device,
        &plan,
        &dims,
        &SimOptions {
            launch_overhead_s: 0.0,
            ..SimOptions::default()
        },
    );
    rep.achieved_bandwidth_gbs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_bandwidths_match_paper() {
        // §IV-A: 161 / 150 / 117.5 GB/s, within a few percent.
        let cases = [
            (DeviceSpec::gtx580(), 161.0),
            (DeviceSpec::gtx680(), 150.0),
            (DeviceSpec::c2070(), 117.5),
        ];
        for (dev, expect) in cases {
            let got = measure_achieved_bandwidth(&dev);
            assert!(
                (got - expect).abs() / expect < 0.03,
                "{}: measured {got:.1} GB/s, paper says {expect}",
                dev.name
            );
        }
    }

    #[test]
    fn copy_kernel_is_memory_bound() {
        let dev = DeviceSpec::gtx580();
        let (plan, dims) = copy_plan(&dev, 4);
        let rep = simulate(
            &dev,
            &plan,
            &dims,
            &SimOptions {
                launch_overhead_s: 0.0,
                ..SimOptions::default()
            },
        );
        assert_eq!(
            rep.limiting,
            crate::counters::LimitingFactor::MemoryBandwidth
        );
        assert!((rep.load_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dp_copy_also_saturates() {
        let dev = DeviceSpec::c2070();
        let (plan, dims) = copy_plan(&dev, 8);
        let rep = simulate(
            &dev,
            &plan,
            &dims,
            &SimOptions {
                launch_overhead_s: 0.0,
                ..SimOptions::default()
            },
        );
        let got = rep.achieved_bandwidth_gbs();
        let expect = dev.achieved_bandwidth() / 1e9;
        assert!((got - expect).abs() / expect < 0.03);
    }
}
