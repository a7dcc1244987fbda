//! Event-driven block-plane microsimulator.
//!
//! The production timing engine ([`crate::timing`]) prices a plane with
//! closed-form max/overlap arithmetic. This module executes the same
//! [`BlockPlan`] on a small discrete-event model of one SM — warps issue
//! their instruction streams in order through shared LSU/ALU ports, a
//! bandwidth-limited memory pipe with fixed latency, per-round load
//! dependencies, and `__syncthreads()` barriers — and reports the cycle
//! count. It exists to *cross-validate* the analytic engine: tests
//! assert the two agree on bandwidth-bound plans and never diverge
//! beyond a small factor on the evaluation workloads. It is too slow to
//! drive auto-tuning sweeps, which is exactly why the analytic engine
//! exists.

use crate::device::DeviceSpec;
use crate::plan::BlockPlan;

/// One warp-level instruction in the microsim's stream.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Instr {
    /// Global load: `bytes` transferred, issued in dependency round `round`.
    Load { bytes: f64, round: usize },
    /// Global store: `bytes` transferred (fire and forget).
    Store { bytes: f64 },
    /// Shared-memory access: occupies the LSU for `passes` slots.
    Smem { passes: f64 },
    /// Arithmetic: `n` back-to-back FMA warp instructions.
    Alu { n: f64 },
    /// Block-wide barrier.
    Barrier,
}

/// Result of a microsimulated block-plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicrosimResult {
    /// Cycles until every resident block finished the plane.
    pub cycles: f64,
    /// Bytes moved through the memory pipe.
    pub mem_bytes: f64,
}

/// Build one warp's instruction stream from the plan.
fn warp_stream(device: &DeviceSpec, plan: &BlockPlan, warp: usize, warps: usize) -> Vec<Instr> {
    let plane = &plan.plane;
    let seg = device.segment_bytes as f64;
    let rounds = plane.dependent_rounds.max(1.0) as usize;

    // Round-robin the plan's load instructions over warps; each warp's
    // own loads are partitioned into `rounds` dependent groups (round
    // g+1 cannot issue before round g's data arrived — the address
    // dependency of multi-phase loading).
    let my_loads: Vec<u64> = plane
        .loads
        .iter()
        .skip(warp)
        .step_by(warps)
        .map(|l| l.transactions)
        .collect();
    let per_warp = my_loads.len();
    let mut stream = Vec::new();
    for (j, transactions) in my_loads.into_iter().enumerate() {
        let round = (j * rounds)
            .checked_div(per_warp)
            .unwrap_or(0)
            .min(rounds - 1);
        stream.push(Instr::Load {
            bytes: transactions as f64 * seg,
            round,
        });
    }
    // Stage into shared memory, barrier.
    let smem_per_warp = plane.smem_warp_instrs as f64 / warps as f64;
    stream.push(Instr::Smem {
        passes: smem_per_warp * plane.bank_conflict_factor * 0.5,
    });
    stream.push(Instr::Barrier);
    // Compute phase: shared-memory reads interleaved with arithmetic.
    stream.push(Instr::Smem {
        passes: smem_per_warp * plane.bank_conflict_factor * 0.5,
    });
    let flops_per_warp = plane.flops as f64 / warps as f64;
    let fma_instrs = flops_per_warp / (device.warp_size as f64 * 2.0);
    stream.push(Instr::Alu { n: fma_instrs });
    // Stores, then the end-of-plane barrier.
    for s in plane.stores.iter().skip(warp).step_by(warps) {
        stream.push(Instr::Store {
            bytes: s.transactions as f64 * seg,
        });
    }
    stream.push(Instr::Barrier);
    stream
}

/// Execute `resident` copies of the plan's block for one plane on one SM.
///
/// # Panics
/// If `resident` is zero, or the plan's traffic was counted at a segment
/// size other than `device.segment_bytes`.
pub fn simulate_block_plane(
    device: &DeviceSpec,
    plan: &BlockPlan,
    resident: usize,
) -> MicrosimResult {
    assert!(resident >= 1, "need at least one resident block");
    plan.plane.assert_counted_for(device);
    let warps_per_block = plan.resources.threads.div_ceil(device.warp_size);
    let lsu_cost = device.lsu_cycles_per_warp_instr();
    let bytes_per_cycle = device.bytes_per_cycle_per_sm();
    let alu_cost = |n: f64| {
        // n FMA warp instructions against the SM's per-cycle rate.
        n * device.warp_size as f64 * 2.0 / device.flops_per_cycle_per_sm(plan.elem_bytes)
    };

    // Per-warp program counters and ready times.
    struct WarpState {
        stream: Vec<Instr>,
        pc: usize,
        ready: f64,
        /// Completion time of the last load in each dependency round.
        round_done: Vec<f64>,
    }
    let rounds = plan.plane.dependent_rounds.max(1.0) as usize;
    let mut warps: Vec<WarpState> = (0..resident * warps_per_block)
        .map(|i| WarpState {
            stream: warp_stream(device, plan, i % warps_per_block, warps_per_block),
            pc: 0,
            ready: 0.0,
            round_done: vec![0.0; rounds + 1],
        })
        .collect();

    // Shared resources: next-free cycle of the LSU and the memory pipe.
    let mut lsu_free = 0.0f64;
    let mut mem_free = 0.0f64;
    let mut mem_bytes = 0.0f64;
    // Barrier bookkeeping per block: count of warps arrived, release time.
    let mut barrier_arrivals = vec![0usize; resident];
    let mut barrier_release = vec![0.0f64; resident];

    let total_instrs: usize = warps.iter().map(|w| w.stream.len()).sum();
    let mut retired = 0usize;
    let mut guard = 0usize;

    while retired < total_instrs {
        guard += 1;
        assert!(guard < 10_000_000, "microsim failed to converge");
        // Pick the ready warp with the smallest ready time that still
        // has work (round-robin among ties via index order).
        let Some(wi) = warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.pc < w.stream.len())
            .min_by(|a, b| a.1.ready.total_cmp(&b.1.ready))
            .map(|(i, _)| i)
        else {
            break;
        };
        let block = wi / warps_per_block;
        let instr = warps[wi].stream[warps[wi].pc];
        let now = warps[wi].ready;
        match instr {
            Instr::Load { bytes, round } => {
                // Wait for every earlier round's loads (address dependency;
                // sparse round indices still chain through the last
                // completed group).
                let dep = warps[wi].round_done[..round]
                    .iter()
                    .cloned()
                    .fold(0.0f64, f64::max);
                let issue = now.max(dep).max(lsu_free);
                lsu_free = issue + lsu_cost;
                // The memory pipe serialises bandwidth; data arrives a
                // latency after it is fully transferred.
                let xfer_start = issue.max(mem_free);
                mem_free = xfer_start + bytes / bytes_per_cycle;
                mem_bytes += bytes;
                let complete = mem_free + device.mem_latency_cycles;
                let rd = &mut warps[wi].round_done[round];
                *rd = rd.max(complete);
                // The warp itself continues after issue (loads are
                // non-blocking until their value is consumed at the next
                // barrier / dependent round).
                warps[wi].ready = issue + lsu_cost;
            }
            Instr::Store { bytes } => {
                let issue = now.max(lsu_free);
                lsu_free = issue + lsu_cost;
                let xfer_start = issue.max(mem_free);
                mem_free = xfer_start + bytes / bytes_per_cycle;
                mem_bytes += bytes;
                warps[wi].ready = issue + lsu_cost;
            }
            Instr::Smem { passes } => {
                let issue = now.max(lsu_free);
                lsu_free = issue + passes * lsu_cost;
                warps[wi].ready = lsu_free;
            }
            Instr::Alu { n } => {
                warps[wi].ready = now + alu_cost(n);
            }
            Instr::Barrier => {
                // A warp's outstanding loads must land before the barrier
                // lets its data be consumed.
                let my_loads_done = warps[wi].round_done.iter().cloned().fold(0.0f64, f64::max);
                let arrive = now.max(my_loads_done);
                barrier_arrivals[block] += 1;
                barrier_release[block] = barrier_release[block].max(arrive);
                if barrier_arrivals[block] == warps_per_block {
                    // Release every warp of the block.
                    let release = barrier_release[block];
                    for (j, w) in warps.iter_mut().enumerate() {
                        if j / warps_per_block == block {
                            w.ready = w.ready.max(release);
                        }
                    }
                    barrier_arrivals[block] = 0;
                    barrier_release[block] = 0.0;
                } else {
                    warps[wi].ready = arrive;
                }
            }
        }
        warps[wi].pc += 1;
        retired += 1;
    }

    let cycles = warps
        .iter()
        .map(|w| {
            w.ready
                .max(w.round_done.iter().cloned().fold(0.0, f64::max))
        })
        .fold(0.0f64, f64::max)
        .max(mem_free);
    MicrosimResult { cycles, mem_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::WarpLoad;
    use crate::occupancy::BlockResources;
    use crate::plan::{GridDims, LaunchGeometry, PlanePlan};
    use crate::timing::plane_cycles;

    fn streaming_plan(n_loads: usize) -> BlockPlan {
        BlockPlan {
            plane: PlanePlan {
                smem_warp_instrs: 8,
                flops: 10_000,
                syncthreads: 2,
                ..PlanePlan::from_warp_loads(
                    &(0..n_loads)
                        .map(|i| WarpLoad::contiguous(i as u64 * 128, 32, 4))
                        .collect::<Vec<_>>(),
                    &vec![WarpLoad::contiguous(1 << 22, 32, 4); 4],
                    128,
                )
            },
            resources: BlockResources {
                threads: 256,
                regs_per_thread: 20,
                smem_bytes: 4096,
            },
            geometry: LaunchGeometry {
                blocks: 64,
                threads_per_block: 256,
                planes: 32,
            },
            elem_bytes: 4,
        }
    }

    #[test]
    fn bandwidth_bound_plans_agree_with_the_analytic_engine() {
        // A big streaming plan: both models must converge on the
        // bandwidth service time.
        let dev = DeviceSpec::gtx580();
        let plan = streaming_plan(128);
        let micro = simulate_block_plane(&dev, &plan, 4);
        let (analytic, _) = plane_cycles(&dev, &plan, 4);
        let ratio = micro.cycles / analytic;
        assert!(
            (0.8..1.6).contains(&ratio),
            "microsim {:.0} vs analytic {analytic:.0} (ratio {ratio:.2})",
            micro.cycles
        );
    }

    #[test]
    fn microsim_counts_all_bytes() {
        let dev = DeviceSpec::gtx580();
        let plan = streaming_plan(16);
        let micro = simulate_block_plane(&dev, &plan, 2);
        // 16 loads + 4 stores, 128 B each, 2 blocks.
        assert!((micro.mem_bytes - 2.0 * 20.0 * 128.0).abs() < 1e-6);
    }

    #[test]
    fn latency_dominates_tiny_plans() {
        // One load, one block: the plane cannot finish before the memory
        // latency has elapsed.
        let dev = DeviceSpec::gtx580();
        let mut plan = streaming_plan(1);
        plan.plane.stores.clear();
        plan.plane.flops = 0;
        let micro = simulate_block_plane(&dev, &plan, 1);
        assert!(micro.cycles >= dev.mem_latency_cycles);
    }

    #[test]
    fn more_resident_blocks_scale_sublinearly() {
        // Four resident blocks share the memory pipe: time grows, but by
        // less than 4x thanks to latency overlap.
        let dev = DeviceSpec::gtx580();
        let plan = streaming_plan(32);
        let one = simulate_block_plane(&dev, &plan, 1).cycles;
        let four = simulate_block_plane(&dev, &plan, 4).cycles;
        assert!(four > one);
        assert!(
            four < 4.0 * one,
            "latency must overlap: {one:.0} -> {four:.0}"
        );
    }

    #[test]
    fn dependency_rounds_serialise_loads() {
        let dev = DeviceSpec::gtx580();
        // 64 loads over 8 warps = 8 loads per warp: an 8-round plan makes
        // every warp's loads a full dependency chain.
        let mut chained = streaming_plan(64);
        chained.plane.dependent_rounds = 8.0;
        let flat = streaming_plan(64);
        let t_chained = simulate_block_plane(&dev, &chained, 1).cycles;
        let t_flat = simulate_block_plane(&dev, &flat, 1).cycles;
        assert!(
            t_chained > t_flat + 3.0 * dev.mem_latency_cycles,
            "8 rounds must expose serial latency: {t_flat:.0} -> {t_chained:.0}"
        );
    }

    #[test]
    fn cross_validates_real_kernel_plans() {
        // The evaluation's actual plans: microsim and analytic engine
        // agree within a factor of two across methods and orders.
        use crate::timing::plane_cycles;
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let _ = dims;
        for plan in [streaming_plan(8), streaming_plan(64), streaming_plan(200)] {
            for resident in [1usize, 2, 6] {
                let micro = simulate_block_plane(&dev, &plan, resident);
                let (analytic, _) = plane_cycles(&dev, &plan, resident);
                let ratio = micro.cycles / analytic;
                assert!(
                    (0.5..2.5).contains(&ratio),
                    "resident {resident}: ratio {ratio:.2}"
                );
            }
        }
    }
}
