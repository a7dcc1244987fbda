//! Property-based tests for the kernel implementations: for arbitrary
//! launch configurations, grid sizes and stencil radii, every method's
//! emulated execution matches its CPU reference, and every method's load
//! plan covers exactly the stencil footprint.

use inplane_core::layout::TileGeometry;
use inplane_core::loadplan::build_plane_plan_on;
use inplane_core::{execute_step, KernelSpec, LaunchConfig, Method, Variant};
use proptest::prelude::*;
use stencil_grid::{
    apply_reference, apply_reference_inplane_order, max_abs_diff, Boundary, FillPattern, Grid3,
    Precision, StarStencil,
};

fn arb_method() -> impl Strategy<Value = Method> {
    // Every method, the double-buffered one included.
    prop::sample::select(Method::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Functional equivalence: any method, any (small) config, any grid
    /// size and radius agrees with the matching CPU reference
    /// bit-for-bit in f64 within rounding.
    #[test]
    fn emulated_kernels_match_reference(
        method in arb_method(),
        radius in 1usize..3,
        tx in 1usize..9,
        ty in 1usize..9,
        rx in 1usize..3,
        ry in 1usize..3,
        extra in 0usize..5,
        seed in 0u64..500,
    ) {
        let stencil: StarStencil<f64> = StarStencil::diffusion(radius);
        let n = 2 * radius + 2 + extra;
        let input: Grid3<f64> = FillPattern::Random { lo: -1.0, hi: 1.0, seed }.build(n, n, n);
        let config = LaunchConfig::new(tx, ty, rx, ry);
        let mut got = Grid3::new(n, n, n);
        execute_step(method, &stencil, &config, &input, &mut got, Boundary::CopyInput);
        let mut golden = Grid3::new(n, n, n);
        if method.is_inplane() {
            apply_reference_inplane_order(&stencil, &input, &mut golden, Boundary::CopyInput)
        } else {
            apply_reference(&stencil, &input, &mut golden, Boundary::CopyInput)
        }
        prop_assert!(max_abs_diff(&got, &golden) < 1e-13, "{method} diverged");
    }

    /// Load-plan coverage: for any config the union of loaded addresses
    /// contains the full stencil footprint (interior + 4 halo arms), and
    /// stores cover exactly the tile.
    #[test]
    fn load_plans_cover_footprint(
        method in arb_method(),
        radius in 1usize..7,
        tx_halfwarps in 1usize..9,
        ty in 1usize..9,
        rx in prop::sample::select(vec![1usize, 2, 4]),
        ry in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let config = LaunchConfig::new(tx_halfwarps * 16, ty, rx, ry);
        let spec = KernelSpec::star_order(method, 2 * radius, Precision::Single);
        let geom = TileGeometry::interior(&config, radius, 4, 2048, 128);
        let plan = build_plane_plan_on(&spec, &config, &geom, &gpu_sim::DeviceSpec::gtx580());

        let mut covered: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for l in &plan.loads {
            for &a in &l.lane_addresses {
                for w in 0..(l.bytes_per_lane / 4) {
                    covered.insert(a + w * 4);
                }
            }
        }
        let (ixs, ixe) = geom.interior_x();
        let (iys, iye) = geom.interior_y();
        let r = radius as isize;
        for y in iys..iye {
            for x in (ixs - r)..(ixe + r) {
                prop_assert!(covered.contains(&geom.addr(x, y)), "row footprint miss at ({x},{y})");
            }
        }
        for x in ixs..ixe {
            for y in (iys - r)..iys {
                prop_assert!(covered.contains(&geom.addr(x, y)), "top halo miss at ({x},{y})");
            }
            for y in iye..(iye + r) {
                prop_assert!(covered.contains(&geom.addr(x, y)), "bottom halo miss at ({x},{y})");
            }
        }
        // Stores: exactly the tile, each point once.
        let stored: Vec<u64> =
            plan.stores.iter().flat_map(|s| s.lane_addresses.iter().copied()).collect();
        prop_assert_eq!(stored.len(), geom.wx * geom.wy);
        let unique: std::collections::HashSet<u64> = stored.into_iter().collect();
        prop_assert_eq!(unique.len(), geom.wx * geom.wy);
    }

    /// Register estimates grow monotonically with register blocking and
    /// radius; shared memory grows with the tile and radius.
    #[test]
    fn resource_estimates_are_monotone(
        order in prop::sample::select(vec![2usize, 4, 6, 8, 10, 12]),
        tx in prop::sample::select(vec![16usize, 32, 64]),
        ty in 1usize..9,
    ) {
        use inplane_core::resources::{regs_per_thread, smem_bytes};
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), order, Precision::Single);
        let base = LaunchConfig::new(tx, ty, 1, 1);
        let blocked = LaunchConfig::new(tx, ty, 2, 2);
        prop_assert!(regs_per_thread(&k, &blocked) > regs_per_thread(&k, &base));
        prop_assert!(smem_bytes(&k, &blocked) > smem_bytes(&k, &base));
        if order < 12 {
            let k_next = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), order + 2, Precision::Single);
            prop_assert!(regs_per_thread(&k_next, &base) > regs_per_thread(&k, &base));
            prop_assert!(smem_bytes(&k_next, &base) > smem_bytes(&k, &base));
        }
    }
}
