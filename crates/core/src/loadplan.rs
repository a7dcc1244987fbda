//! Lowering a kernel + launch configuration to the per-plane workload of
//! one interior thread block.
//!
//! This is where the methods of §III become concrete memory behaviour:
//!
//! * **nvstencil / classical** (Figs 4, 5a, 6a): five scalar regions —
//!   interior, top, bottom, left, right — loaded per-row with
//!   thread-index addressing. The side halos are one mostly-idle warp
//!   instruction per row; five sequential regions mean five dependent
//!   address-setup rounds.
//! * **vertical** (Fig 6b): a vectorised slab (interior + top/bottom
//!   halos merged) plus two column-major side-halo regions — the columns
//!   are what collapse at high order.
//! * **horizontal** (Fig 6c): vectorised full-width rows (interior +
//!   side halos merged) plus two vectorised top/bottom halo regions.
//! * **full-slice** (Fig 6d): one uniform warp-packed vectorised region
//!   covering the whole halo-framed slab, corners (`4r²`) included.
//!
//! Stores follow §III-C3: each thread writes its `RX × RY` points strided
//! by the thread-block extent, so the store pattern is full coalesced
//! rows regardless of register blocking.

use crate::config::LaunchConfig;
use crate::kernel::KernelSpec;
use crate::layout::TileGeometry;
use crate::method::Method;
use crate::regions::{Assignment, Region};
use crate::resources::{block_resources, vector_width};
use crate::routine::LoadPattern;
use gpu_sim::plan::PlanePlan;
use gpu_sim::WarpLoad;

/// The load regions (in program order) for ONE streamed input grid,
/// dispatched on the routine's [`LoadPattern`].
pub fn load_regions(method: Method, geom: &TileGeometry, vec_width: usize) -> Vec<Region> {
    let (ix_s, ix_e) = geom.interior_x();
    let (iy_s, iy_e) = geom.interior_y();
    let (sx_s, sx_e) = geom.slab_x();
    let (sy_s, sy_e) = geom.slab_y();
    match method.load_pattern() {
        LoadPattern::ScalarRegions => vec![
            // Interior first, then the four halos (Fig 4) — all scalar.
            Region {
                x: (ix_s, ix_e),
                y: (iy_s, iy_e),
                vector_width: 1,
                assignment: Assignment::PerRow,
            },
            Region {
                x: (ix_s, ix_e),
                y: (sy_s, iy_s),
                vector_width: 1,
                assignment: Assignment::PerRow,
            },
            Region {
                x: (ix_s, ix_e),
                y: (iy_e, sy_e),
                vector_width: 1,
                assignment: Assignment::PerRow,
            },
            Region {
                x: (sx_s, ix_s),
                y: (iy_s, iy_e),
                vector_width: 1,
                assignment: Assignment::PerRow,
            },
            Region {
                x: (ix_e, sx_e),
                y: (iy_s, iy_e),
                vector_width: 1,
                assignment: Assignment::PerRow,
            },
        ],
        LoadPattern::VerticalSlab => {
            // Merged slab: interior plus top/bottom halos, vectorised
            // (only the centre needs alignment, §III-C2).
            let mut regions = vec![Region {
                x: (ix_s, ix_e),
                y: (sy_s, sy_e),
                vector_width: vec_width,
                assignment: Assignment::Packed,
            }];
            // Side halos: each thread loops over the r halo columns, one
            // scalar column-walk per iteration — a dependent chain of
            // 2r single-column loads whose lanes land in different rows.
            // This is the pattern that collapses at high order (Fig 7).
            for dx in 0..(ix_s - sx_s) {
                regions.push(Region {
                    x: (sx_s + dx, sx_s + dx + 1),
                    y: (iy_s, iy_e),
                    vector_width: 1,
                    assignment: Assignment::ColumnMajor,
                });
                regions.push(Region {
                    x: (ix_e + dx, ix_e + dx + 1),
                    y: (iy_s, iy_e),
                    vector_width: 1,
                    assignment: Assignment::ColumnMajor,
                });
            }
            regions
        }
        LoadPattern::HorizontalRows => vec![
            // Full-width rows: interior plus side halos, vectorised.
            Region {
                x: (sx_s, sx_e),
                y: (iy_s, iy_e),
                vector_width: vec_width,
                assignment: Assignment::Packed,
            },
            // Top/bottom halo rows (no corners), vectorised.
            Region {
                x: (ix_s, ix_e),
                y: (sy_s, iy_s),
                vector_width: vec_width,
                assignment: Assignment::Packed,
            },
            Region {
                x: (ix_s, ix_e),
                y: (iy_e, sy_e),
                vector_width: vec_width,
                assignment: Assignment::Packed,
            },
        ],
        LoadPattern::FullSliceSweep => vec![
            // One uniform region: the whole halo-framed slab, corners and
            // all, warp-packed vector loads.
            Region {
                x: (sx_s, sx_e),
                y: (sy_s, sy_e),
                vector_width: vec_width,
                assignment: Assignment::Packed,
            },
        ],
    }
}

/// The store region: the tile's interior rows, scalar coalesced.
pub fn store_region(geom: &TileGeometry) -> Region {
    Region {
        x: geom.interior_x(),
        y: geom.interior_y(),
        vector_width: 1,
        assignment: Assignment::PerRow,
    }
}

/// The coefficient-grid load region: interior tile only, vectorised and
/// warp-packed (coefficient grids need no halo).
pub fn coeff_region(geom: &TileGeometry, vec_width: usize) -> Region {
    Region {
        x: geom.interior_x(),
        y: geom.interior_y(),
        vector_width: vec_width,
        assignment: Assignment::Packed,
    }
}

/// Build the full per-plane workload of one interior block with
/// `device`'s execution width and LDS bank geometry.
pub fn build_plane_plan_on(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    geom: &TileGeometry,
    device: &gpu_sim::DeviceSpec,
) -> PlanePlan {
    let (warp_size, smem_banks, smem_bank_bytes) =
        (device.warp_size, device.smem_banks, device.smem_bank_bytes);
    let v = vector_width(kernel);
    let regions = load_regions(kernel.method, geom, v);

    let mut loads: Vec<WarpLoad> = Vec::new();
    for _ in 0..kernel.streamed_inputs {
        for region in &regions {
            loads.extend(region.lower(geom, warp_size));
        }
    }
    // Coefficient grids are independent allocations both implementations
    // stream identically (plain coalesced interior loads); the baseline's
    // unpadded-layout handicap applies only to the swept field grids, so
    // coefficients are lowered against an aligned geometry. They are also
    // vectorisable by either method (independent of the halo pattern).
    let aligned_geom = TileGeometry {
        x_shift: 0,
        ..*geom
    };
    let coeff = coeff_region(&aligned_geom, kernel.precision().max_vector_width());
    for _ in 0..kernel.coeff_inputs {
        loads.extend(coeff.lower(&aligned_geom, warp_size));
    }

    let mut stores: Vec<WarpLoad> = Vec::new();
    let store = store_region(geom);
    for _ in 0..kernel.outputs {
        stores.extend(store.lower(geom, warp_size));
    }

    let points = (geom.wx * geom.wy) as u64;
    let flops = points * kernel.flops_per_point as u64;

    // Shared-memory traffic: stage every streamed load once, then read
    // the 4r xy-neighbours plus the centre per computed point.
    let r = kernel.radius as u64;
    let warps = config.threads().div_ceil(warp_size) as u64;
    let smem_stores = loads.len() as u64;
    let smem_reads = warps * config.points_per_thread() as u64 * (4 * r + 1);
    // Dependency depth of the load phase: one address-setup round per
    // program-order region (per streamed grid) — the §III-C1 argument for
    // merging regions.
    let rounds = (regions.len() * kernel.streamed_inputs.max(1) + kernel.coeff_inputs) as f64;

    // Bank conflicts during the compute phase, computed from the actual
    // warp/tile geometry: warps of narrow blocks (TX below the warp
    // width) span several tile rows, which collide when the tile pitch
    // lands on a bank multiple. The staged tile's pitch includes the
    // halo frame and is measured in bank-width words.
    let pitch_words = (geom.wx + 2 * geom.r) * kernel.elem_bytes / smem_bank_bytes;
    let bank_conflict_factor = gpu_sim::stencil_phase_factor(
        config.tx,
        config.threads(),
        pitch_words,
        kernel.radius,
        warp_size,
        smem_banks,
    );

    PlanePlan {
        loads,
        stores,
        smem_warp_instrs: smem_stores + smem_reads,
        bank_conflict_factor,
        flops,
        dependent_rounds: rounds,
        ilp: config.points_per_thread() as f64,
        // Barriers per plane from the routine's schedule skeleton (2
        // stage + reuse; 1 for double-buffered staging) — the same
        // count the lowered execution plan emits and LNT-S003 proves.
        syncthreads: kernel.method.skeleton(kernel.radius).barriers_per_plane as u64,
    }
}

/// Convenience: plan plus resources for one interior block, driven
/// entirely by a [`gpu_sim::DeviceSpec`]: segment size, warp/wavefront
/// width and LDS bank geometry all come from the spec, so wave64 parts
/// plan with 64-wide execution and their own bank shape.
pub fn plan_for_device_on(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    lx: usize,
    device: &gpu_sim::DeviceSpec,
) -> (PlanePlan, gpu_sim::occupancy::BlockResources, TileGeometry) {
    let mut geom = TileGeometry::interior(
        config,
        kernel.radius,
        kernel.elem_bytes as u64,
        lx,
        device.segment_bytes,
    );
    // The stock SDK baseline works on the raw (unpadded) allocation, so
    // its tiles sit misaligned by the boundary-ring width; the in-plane
    // implementation pads the grid for alignment (§III-C2).
    if kernel.method.unaligned_layout() {
        geom = geom.unaligned_baseline();
    }
    let plan = build_plane_plan_on(kernel, config, &geom, device);
    let res = block_resources(kernel, config);
    (plan, res, geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Variant;
    use gpu_sim::MemCounters;
    use stencil_grid::Precision;

    fn geom(config: &LaunchConfig, r: usize) -> TileGeometry {
        TileGeometry::interior(config, r, 4, 512, 128)
    }

    fn spec(method: Method, order: usize) -> KernelSpec {
        KernelSpec::star_order(method, order, Precision::Single)
    }

    /// The paper's Fermi card: warp 32, 128-byte segments, 32 × 4-byte
    /// banks.
    fn gtx580() -> gpu_sim::DeviceSpec {
        gpu_sim::DeviceSpec::gtx580()
    }

    fn counters(loads: &[WarpLoad]) -> MemCounters {
        let mut c = MemCounters::default();
        c.record_all(loads, 128);
        c
    }

    #[test]
    fn region_counts_per_method() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        assert_eq!(load_regions(Method::ForwardPlane, &g, 1).len(), 5);
        // Vertical: slab + one column region per halo column per side.
        assert_eq!(
            load_regions(Method::InPlane(Variant::Vertical), &g, 4).len(),
            1 + 2 * 2
        );
        assert_eq!(
            load_regions(Method::InPlane(Variant::Horizontal), &g, 4).len(),
            3
        );
        assert_eq!(
            load_regions(Method::InPlane(Variant::FullSlice), &g, 4).len(),
            1
        );
    }

    #[test]
    fn every_method_covers_the_stencil_footprint() {
        // Whatever the loading pattern, the union of loaded addresses
        // must include interior + the four in-plane halo arms.
        let c = LaunchConfig::new(32, 4, 1, 2);
        let r = 2usize;
        let g = geom(&c, r);
        let needed: Vec<u64> = {
            let mut v = Vec::new();
            let (ixs, ixe) = g.interior_x();
            let (iys, iye) = g.interior_y();
            for y in iys..iye {
                for x in (ixs - r as isize)..(ixe + r as isize) {
                    v.push(g.addr(x, y));
                }
            }
            for y in (iys - r as isize)..iys {
                for x in ixs..ixe {
                    v.push(g.addr(x, y));
                }
            }
            for y in iye..(iye + r as isize) {
                for x in ixs..ixe {
                    v.push(g.addr(x, y));
                }
            }
            v.sort_unstable();
            v.dedup();
            v
        };
        for method in [
            Method::ForwardPlane,
            Method::InPlane(Variant::Vertical),
            Method::InPlane(Variant::Horizontal),
            Method::InPlane(Variant::FullSlice),
        ] {
            let k = spec(method, 2 * r);
            let plan = build_plane_plan_on(&k, &c, &g, &gtx580());
            let mut covered: Vec<u64> = plan
                .loads
                .iter()
                .flat_map(|l| {
                    l.lane_addresses
                        .iter()
                        .flat_map(move |&a| (0..l.bytes_per_lane / 4).map(move |i| a + i * 4))
                })
                .collect();
            covered.sort_unstable();
            covered.dedup();
            for addr in &needed {
                assert!(
                    covered.binary_search(addr).is_ok(),
                    "{method:?} misses address {addr}"
                );
            }
        }
    }

    #[test]
    fn full_slice_loads_exactly_slab_plus_alignment() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        let k = spec(Method::InPlane(Variant::FullSlice), 4);
        let plan = build_plane_plan_on(&k, &c, &g, &gtx580());
        let requested: u64 = plan.loads.iter().map(|l| l.requested_bytes()).sum();
        // Slab is 36 × 12; rows extend [30,66) → [28,68) = 40 wide.
        assert_eq!(requested, 40 * 12 * 4);
    }

    #[test]
    fn store_is_fully_coalesced() {
        let c = LaunchConfig::new(32, 8, 1, 2);
        let g = geom(&c, 2);
        let k = spec(Method::InPlane(Variant::FullSlice), 4);
        let plan = build_plane_plan_on(&k, &c, &g, &gtx580());
        let ctr = counters(&plan.stores);
        assert!(
            (ctr.efficiency() - 1.0).abs() < 1e-12,
            "stores must be coalesced"
        );
        // One write per tile point.
        assert_eq!(ctr.requested_bytes, (g.wx * g.wy) as u64 * 4);
    }

    #[test]
    fn nvstencil_has_worse_load_efficiency_than_full_slice() {
        // The Fig 9 effect, at plan level: the padded/aligned in-plane
        // layout coalesces better than the baseline's unpadded layout.
        for order in [2usize, 4, 8, 12] {
            let c = LaunchConfig::new(32, 8, 1, 1);
            let (nv, _, _) =
                plan_for_device_on(&spec(Method::ForwardPlane, order), &c, 512, &gtx580());
            let (fs, _, _) = plan_for_device_on(
                &spec(Method::InPlane(Variant::FullSlice), order),
                &c,
                512,
                &gtx580(),
            );
            let e_nv = counters(&nv.loads).efficiency();
            let e_fs = counters(&fs.loads).efficiency();
            assert!(
                e_fs > e_nv,
                "order {order}: full-slice eff {e_fs:.3} must beat nvstencil {e_nv:.3}"
            );
        }
    }

    #[test]
    fn full_slice_moves_fewer_bytes_than_nvstencil() {
        // Despite the 4r² redundant corners, the aligned coalesced slab
        // moves fewer bus bytes than nvstencil's misaligned multi-region
        // loading at low orders (at high orders the corner overhead eats
        // the margin — §IV-C's explanation for the decreasing speedup).
        for order in [2usize, 4] {
            let c = LaunchConfig::new(32, 8, 1, 1);
            let (nv, _, _) =
                plan_for_device_on(&spec(Method::ForwardPlane, order), &c, 512, &gtx580());
            let (fs, _, _) = plan_for_device_on(
                &spec(Method::InPlane(Variant::FullSlice), order),
                &c,
                512,
                &gtx580(),
            );
            let t_nv = counters(&nv.loads).transferred_bytes;
            let t_fs = counters(&fs.loads).transferred_bytes;
            assert!(
                t_fs < t_nv,
                "order {order}: full-slice {t_fs} B must be below nvstencil {t_nv} B"
            );
        }
    }

    #[test]
    fn baseline_layout_is_misaligned_by_radius() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let (_, _, g_nv) = plan_for_device_on(&spec(Method::ForwardPlane, 8), &c, 512, &gtx580());
        let (_, _, g_fs) = plan_for_device_on(
            &spec(Method::InPlane(Variant::FullSlice), 8),
            &c,
            512,
            &gtx580(),
        );
        assert_eq!(g_nv.x_shift, 4);
        assert_eq!(g_fs.x_shift, 0);
        // The shift moves every address by r elements.
        assert_eq!(g_nv.addr(0, 0), g_fs.addr(4, 0));
    }

    #[test]
    fn vertical_collapses_at_high_order() {
        // Fig 7: vertical ≈ nvstencil at order 2, clearly worse at 12.
        let c = LaunchConfig::new(32, 8, 1, 1);
        let ratio = |order: usize| {
            let g = geom(&c, order / 2);
            let nv = build_plane_plan_on(&spec(Method::ForwardPlane, order), &c, &g, &gtx580());
            let vt = build_plane_plan_on(
                &spec(Method::InPlane(Variant::Vertical), order),
                &c,
                &g,
                &gtx580(),
            );
            counters(&vt.loads).transferred_bytes as f64
                / counters(&nv.loads).transferred_bytes as f64
        };
        assert!(ratio(2) < 1.1, "vertical should be competitive at order 2");
        assert!(
            ratio(12) > 1.25,
            "vertical must collapse at order 12, got {}",
            ratio(12)
        );
    }

    #[test]
    fn horizontal_close_to_full_slice() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        let hz = build_plane_plan_on(
            &spec(Method::InPlane(Variant::Horizontal), 4),
            &c,
            &g,
            &gtx580(),
        );
        let fs = build_plane_plan_on(
            &spec(Method::InPlane(Variant::FullSlice), 4),
            &c,
            &g,
            &gtx580(),
        );
        let t_hz = counters(&hz.loads).transferred_bytes as f64;
        let t_fs = counters(&fs.loads).transferred_bytes as f64;
        assert!((t_hz / t_fs - 1.0).abs() < 0.25);
        // But full-slice needs fewer regions (dependency rounds).
        assert!(fs.dependent_rounds < hz.dependent_rounds);
    }

    #[test]
    fn vector_loads_cut_instruction_count() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 1);
        let fs = build_plane_plan_on(
            &spec(Method::InPlane(Variant::FullSlice), 2),
            &c,
            &g,
            &gtx580(),
        );
        let nv = build_plane_plan_on(&spec(Method::ForwardPlane, 2), &c, &g, &gtx580());
        assert!(
            (fs.loads.len() as f64) < nv.loads.len() as f64 / 2.0,
            "full-slice {} instrs vs nvstencil {}",
            fs.loads.len(),
            nv.loads.len()
        );
    }

    #[test]
    fn multigrid_scales_loads_and_stores() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 1);
        let mut k = spec(Method::InPlane(Variant::FullSlice), 2);
        let base = build_plane_plan_on(&k, &c, &g, &gtx580());
        k.streamed_inputs = 3;
        k.coeff_inputs = 2;
        k.outputs = 2;
        let multi = build_plane_plan_on(&k, &c, &g, &gtx580());
        assert_eq!(multi.stores.len(), 2 * base.stores.len());
        assert!(multi.loads.len() > 3 * base.loads.len());
        let c_multi = counters(&multi.loads);
        let c_base = counters(&base.loads);
        // Coefficient grids add interior-only traffic.
        assert!(c_multi.requested_bytes > 3 * c_base.requested_bytes);
    }

    #[test]
    fn flops_match_spec() {
        let c = LaunchConfig::new(32, 8, 2, 2);
        let g = geom(&c, 1);
        let k = spec(Method::InPlane(Variant::FullSlice), 2);
        let plan = build_plane_plan_on(&k, &c, &g, &gtx580());
        // Tile is (32·2) × (8·2) = 64 × 16 points at 9 flops each.
        assert_eq!(plan.flops, (64 * 16) as u64 * 9);
        assert_eq!(plan.ilp, 4.0);
    }

    #[test]
    fn plan_for_device_bundles_consistently() {
        let c = LaunchConfig::new(64, 4, 1, 2);
        let k = spec(Method::InPlane(Variant::FullSlice), 4);
        let (plan, res, g) = plan_for_device_on(&k, &c, 512, &gtx580());
        assert_eq!(res.threads, 256);
        assert_eq!(g.wx, 64);
        assert!(plan.flops > 0);
    }
}
