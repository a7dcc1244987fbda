//! The contract between kernel implementations and the timing engine.
//!
//! A stencil kernel sweeping a `LX × LY × LZ` grid is, per the 2.5-D
//! decomposition, a 2-D launch of thread blocks over the xy-plane, each
//! block marching along z. Because every interior block does exactly the
//! same work on every plane, one [`PlanePlan`] (the per-plane warp-level
//! workload of one block) plus a [`LaunchGeometry`] fully describes the
//! kernel to the simulator. Kernel variants in `inplane-core` construct
//! these; [`crate::timing::simulate`] prices them.

use crate::device::DeviceSpec;
use crate::mem::{SegmentCounts, TrafficCounter, WarpLoad, WarpTraffic};
use crate::occupancy::BlockResources;

/// Problem-grid dimensions (`LX × LY × LZ` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// X extent (unit stride).
    pub lx: usize,
    /// Y extent.
    pub ly: usize,
    /// Z extent (the streaming direction).
    pub lz: usize,
}

impl GridDims {
    /// Construct; all dimensions must be non-zero.
    pub fn new(lx: usize, ly: usize, lz: usize) -> Self {
        assert!(lx > 0 && ly > 0 && lz > 0, "grid dims must be non-zero");
        GridDims { lx, ly, lz }
    }

    /// The paper's evaluation grid, `512 × 512 × 256`.
    pub fn paper() -> Self {
        GridDims {
            lx: 512,
            ly: 512,
            lz: 256,
        }
    }

    /// Total grid points (the paper's MPoint/s denominator).
    pub fn points(&self) -> u64 {
        self.lx as u64 * self.ly as u64 * self.lz as u64
    }
}

/// How the launch covers the grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaunchGeometry {
    /// Thread blocks covering one xy-plane (`Blks` of Eqn (6)).
    pub blocks: usize,
    /// Threads per block (`TX × TY`).
    pub threads_per_block: usize,
    /// z-planes each block traverses (`LZ`).
    pub planes: usize,
}

/// Warp-level workload of one thread block on one z-plane.
///
/// Global-memory traffic is counted once, at lowering, against
/// [`segment_bytes`](PlanePlan::segment_bytes): the plan holds counts per
/// instruction and no lane addresses.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanePlan {
    /// Global-memory load instructions in program order, counted
    /// (address-accurate, per warp instruction).
    pub loads: Vec<WarpTraffic>,
    /// Global-memory store instructions, counted.
    pub stores: Vec<WarpTraffic>,
    /// Segment references of all the loads, for the L1 duplicate charge.
    pub load_segments: SegmentCounts,
    /// Segment size, in bytes, the traffic was counted at.
    pub segment_bytes: u64,
    /// Shared-memory access warp instructions (stores into the staging
    /// buffer plus neighbour reads during compute).
    pub smem_warp_instrs: u64,
    /// Mean shared-memory serialisation factor from bank conflicts
    /// (1.0 = conflict-free).
    pub bank_conflict_factor: f64,
    /// Floating-point operations the block performs on this plane.
    pub flops: u64,
    /// Dependency depth of the load phase: how many *dependent* global
    /// memory rounds a thread must wait through before compute can start.
    /// Contiguous sweeps with independent loads have depth 1; looped
    /// column halo loads have depth growing with the stencil radius.
    pub dependent_rounds: f64,
    /// Independent in-flight operations per thread (instruction-level
    /// parallelism from register tiling); scales latency hiding.
    pub ilp: f64,
    /// `__syncthreads()` barriers per plane.
    pub syncthreads: u64,
}

impl PlanePlan {
    /// The counted traffic of `loads` and `stores` (which must count at
    /// the same segment size), with no shared-memory work, no flops, one
    /// dependent round, ILP 1 and no barriers. Lowering fills in the
    /// remaining fields with struct-update syntax.
    pub fn counted(loads: TrafficCounter, stores: TrafficCounter) -> PlanePlan {
        let segment_bytes = loads.segment_bytes();
        assert_eq!(
            stores.segment_bytes(),
            segment_bytes,
            "loads and stores must be counted at one segment size"
        );
        let (loads, load_segments) = loads.finish();
        let (stores, _) = stores.finish();
        PlanePlan {
            loads,
            stores,
            load_segments,
            segment_bytes,
            smem_warp_instrs: 0,
            bank_conflict_factor: 1.0,
            flops: 0,
            dependent_rounds: 1.0,
            ilp: 1.0,
            syncthreads: 0,
        }
    }

    /// [`PlanePlan::counted`] from hand-built lane addresses.
    pub fn from_warp_loads(
        loads: &[WarpLoad],
        stores: &[WarpLoad],
        segment_bytes: u64,
    ) -> PlanePlan {
        let count = |instrs: &[WarpLoad]| {
            let mut counter = TrafficCounter::new(segment_bytes);
            for l in instrs {
                counter.record_load(l);
            }
            counter
        };
        PlanePlan::counted(count(loads), count(stores))
    }

    /// Total warp-level memory instructions (loads + stores).
    pub fn mem_instructions(&self) -> u64 {
        (self.loads.len() + self.stores.len()) as u64
    }

    /// Panic unless the traffic was counted at `device`'s segment size:
    /// transaction counts do not convert between segment sizes.
    pub(crate) fn assert_counted_for(&self, device: &DeviceSpec) {
        assert_eq!(
            self.segment_bytes, device.segment_bytes,
            "plan traffic was counted at {} B segments; {} uses {} B",
            self.segment_bytes, device.name, device.segment_bytes
        );
    }
}

/// Everything the simulator needs about one kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockPlan {
    /// Per-plane workload of one interior block.
    pub plane: PlanePlan,
    /// Resource usage for occupancy (Eqn (7) inputs).
    pub resources: BlockResources,
    /// Launch shape (Eqn (6) inputs).
    pub geometry: LaunchGeometry,
    /// Element width in bytes (4 = SP, 8 = DP), for compute throughput.
    pub elem_bytes: usize,
}

impl BlockPlan {
    /// Grid points computed per block per plane (tile area).
    pub fn points_per_block_plane(&self, dims: &GridDims) -> f64 {
        dims.lx as f64 * dims.ly as f64 / self.geometry.blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_dims() {
        let g = GridDims::paper();
        assert_eq!((g.lx, g.ly, g.lz), (512, 512, 256));
        assert_eq!(g.points(), 512 * 512 * 256);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        GridDims::new(0, 4, 4);
    }

    #[test]
    fn mem_instruction_count() {
        let plan = PlanePlan::from_warp_loads(
            &vec![WarpLoad::contiguous(0, 32, 4); 3],
            &vec![WarpLoad::contiguous(0, 32, 4); 2],
            128,
        );
        assert_eq!(plan.mem_instructions(), 5);
        // Three references to one segment.
        assert_eq!(
            plan.load_segments,
            SegmentCounts {
                total: 3,
                unique: 1
            }
        );
    }

    #[test]
    fn points_per_block_plane() {
        let plan = BlockPlan {
            plane: PlanePlan::from_warp_loads(&[], &[], 128),
            resources: BlockResources {
                threads: 256,
                regs_per_thread: 16,
                smem_bytes: 0,
            },
            geometry: LaunchGeometry {
                blocks: 256,
                threads_per_block: 256,
                planes: 256,
            },
            elem_bytes: 4,
        };
        let dims = GridDims::paper();
        assert!((plan.points_per_block_plane(&dims) - 1024.0).abs() < 1e-9);
    }
}
