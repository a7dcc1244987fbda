//! The `(TX, TY, RX, RY)` parameter space and the paper's feasibility
//! constraints (§IV-C):
//!
//! 1. `TX` is a multiple of a half-warp (memory coalescing);
//!    `TY` has no such constraint;
//! 2. `TX × TY` is within the device's thread-per-block limit;
//! 3. the shared-memory staging buffer fits the device's per-SM limit;
//! 4. `TY × RY` divides the vertical grid size.
//!
//! Two practical constraints close the space: the register estimate must
//! fit the per-thread hardware cap (otherwise the "kernel" would not
//! compile at that unrolling), and a block's tile cannot exceed the grid
//! extent.
//!
//! The checks themselves live in `stencil-lint`'s explained feasibility
//! analyzer ([`stencil_lint::explain_feasibility`]): every rejection
//! carries a coded reason (`LNT-R…`) and a by-how-much context.
//! [`ParameterSpace::feasible`] is a boolean shim over that analyzer,
//! and [`ParameterSpace::paper_space_audited`] keeps the per-code
//! rejection histogram that tuning reports surface.

use gpu_sim::{fnv1a_word, DeviceSpec, GridDims, FNV_OFFSET_BASIS};
use inplane_core::{KernelSpec, LaunchConfig};
use stencil_lint::sweep::enumerate_configs;
use stencil_lint::{explain_feasibility, Severity};

/// An enumerated, constraint-filtered set of launch configurations.
///
/// The configurations are fixed at construction, so the space hashes
/// them once there: [`Self::fingerprint`] is a field read, which is
/// what lets the serving layer key a request without re-hashing its
/// whole search space.
#[derive(Clone, Debug, PartialEq)]
pub struct ParameterSpace {
    configs: Vec<LaunchConfig>,
    fingerprint: u64,
}

/// What the enumeration rejected and why: a per-code histogram from the
/// explained feasibility analyzer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpaceAudit {
    /// Grid points examined (before any filtering).
    pub examined: usize,
    /// Configurations accepted into the space.
    pub accepted: usize,
    /// Rejection histogram: `(diagnostic code, count)`, sorted by code.
    /// Error codes are hard constraint violations; `LNT-R101` counts the
    /// sub-warp blocks the enumeration excludes by convention.
    pub rejections: Vec<(String, u64)>,
}

impl ParameterSpace {
    /// The one constructor: every public one funnels through here, so
    /// the fingerprint always covers exactly `configs`.
    fn new(configs: Vec<LaunchConfig>) -> Self {
        let mut h = FNV_OFFSET_BASIS;
        fnv1a_word(&mut h, configs.len() as u64);
        for c in &configs {
            for w in [c.tx as u64, c.ty as u64, c.rx as u64, c.ry as u64] {
                fnv1a_word(&mut h, w);
            }
        }
        ParameterSpace {
            configs,
            fingerprint: h,
        }
    }

    /// The paper's search space for `kernel` on `device` over `dims`:
    /// `TX ∈ {16, 32, 48, ..., 512}`, `TY ∈ {1..=32}`,
    /// `RX, RY ∈ {1, 2, 4, 8}`, filtered by the constraints above.
    pub fn paper_space(device: &DeviceSpec, kernel: &KernelSpec, dims: &GridDims) -> Self {
        Self::paper_space_audited(device, kernel, dims).0
    }

    /// [`Self::paper_space`], also returning the audit of what the
    /// constraints rejected (per diagnostic code).
    pub fn paper_space_audited(
        device: &DeviceSpec,
        kernel: &KernelSpec,
        dims: &GridDims,
    ) -> (Self, SpaceAudit) {
        let mut configs = Vec::new();
        let mut audit = SpaceAudit::default();
        let mut histogram: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for c in enumerate_configs(device) {
            audit.examined += 1;
            let diags = explain_feasibility(device, kernel, dims, &c);
            // The enumeration excludes both hard constraint violations
            // (errors) and sub-warp blocks (LNT-R101, convention).
            let mut rejected = false;
            for d in &diags {
                if d.severity == Severity::Error || d.code == "LNT-R101" {
                    rejected = true;
                    *histogram.entry(d.code).or_insert(0) += 1;
                }
            }
            if !rejected {
                configs.push(c);
            }
        }
        audit.accepted = configs.len();
        audit.rejections = histogram
            .into_iter()
            .map(|(code, n)| (code.to_string(), n))
            .collect();
        (Self::new(configs), audit)
    }

    /// Check the constraints for one configuration.
    ///
    /// Boolean shim over [`stencil_lint::explain_feasibility`]: feasible
    /// iff the analyzer emits no error-severity diagnostic. (The sub-warp
    /// `LNT-R101` warning does *not* make a configuration infeasible — it
    /// is an enumeration convention, handled in
    /// [`Self::paper_space_audited`].)
    pub fn feasible(
        device: &DeviceSpec,
        kernel: &KernelSpec,
        dims: &GridDims,
        c: &LaunchConfig,
    ) -> bool {
        stencil_lint::is_feasible(device, kernel, dims, c)
    }

    /// Wrap an explicit list (used by tests and reduced sweeps).
    pub fn from_configs(configs: Vec<LaunchConfig>) -> Self {
        Self::new(configs)
    }

    /// A reduced space for quick runs: powers-of-two TX/TY only.
    pub fn quick_space(device: &DeviceSpec, kernel: &KernelSpec, dims: &GridDims) -> Self {
        let full = Self::paper_space(device, kernel, dims);
        let configs = full
            .configs
            .into_iter()
            .filter(|c| c.tx.is_power_of_two() && c.ty.is_power_of_two())
            .collect();
        Self::new(configs)
    }

    /// The configurations, in enumeration order.
    pub fn configs(&self) -> &[LaunchConfig] {
        &self.configs
    }

    /// Order-sensitive FNV-1a fingerprint of the configurations: the
    /// count, then each `(TX, TY, RX, RY)` as four little-endian words.
    /// Computed once at construction; `TuneKey`s embed it, so the fold
    /// must never change.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of configurations (`M` in §VI).
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when no configuration survives the constraints.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn kernel(order: usize) -> KernelSpec {
        KernelSpec::star_order(
            Method::InPlane(Variant::FullSlice),
            order,
            Precision::Single,
        )
    }

    #[test]
    fn space_is_nonempty_and_all_feasible() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = kernel(4);
        let space = ParameterSpace::paper_space(&dev, &k, &dims);
        assert!(space.len() > 100, "space has {} configs", space.len());
        for c in space.configs() {
            assert!(
                ParameterSpace::feasible(&dev, &k, &dims, c),
                "{c} infeasible"
            );
        }
    }

    #[test]
    fn constraint_tx_half_warp() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = kernel(2);
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(24, 4, 1, 1)
        ));
        assert!(ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(48, 4, 1, 1)
        ));
    }

    #[test]
    fn constraint_thread_limit() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = kernel(2);
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(512, 4, 1, 1)
        ));
    }

    #[test]
    fn constraint_smem() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        // A 512×8-tile order-12 slab exceeds 48 KB of shared memory.
        let k = kernel(12);
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(512, 1, 1, 8)
        ));
    }

    #[test]
    fn constraint_ty_ry_divides_ly() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(2);
        let dims = GridDims::new(512, 96, 64);
        // 96 = 2^5·3: TY·RY = 5 never divides it; 3 does... TY in 1..32.
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(32, 5, 1, 1)
        ));
        assert!(ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(32, 3, 1, 1)
        ));
        // TY·RY = 10 does not divide 96; TY·RY = 32 does.
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(32, 5, 1, 2)
        ));
        assert!(ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(32, 4, 1, 8)
        ));
    }

    #[test]
    fn constraint_register_cap_prunes_big_dp_tiles() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 12, Precision::Double);
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(16, 8, 2, 2)
        ));
        assert!(ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(16, 8, 1, 1)
        ));
    }

    #[test]
    fn tile_must_fit_grid() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(2);
        let dims = GridDims::new(64, 64, 64);
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(128, 1, 1, 1)
        ));
        assert!(!ParameterSpace::feasible(
            &dev,
            &k,
            &dims,
            &LaunchConfig::new(32, 1, 4, 1)
        ));
    }

    #[test]
    fn audited_space_counts_every_grid_point() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = kernel(4);
        let (space, audit) = ParameterSpace::paper_space_audited(&dev, &k, &dims);
        // 32 TX steps x 32 TY values x 4 RX x 4 RY.
        assert_eq!(audit.examined, 32 * 32 * 16);
        assert_eq!(audit.accepted, space.len());
        assert!(audit.accepted < audit.examined);
        // Every rejected grid point is accounted for by at least one
        // coded reason (a point can carry several, so the histogram sum
        // is >= the rejected count).
        let coded: u64 = audit.rejections.iter().map(|(_, n)| n).sum();
        assert!(coded >= (audit.examined - audit.accepted) as u64);
        // The paper grid always contains thread-limit violations and
        // sub-warp exclusions.
        assert!(audit.rejections.iter().any(|(c, _)| c == "LNT-R002"));
        assert!(audit.rejections.iter().any(|(c, _)| c == "LNT-R101"));
    }

    #[test]
    fn quick_space_is_subset() {
        let dev = DeviceSpec::gtx680();
        let dims = GridDims::paper();
        let k = kernel(4);
        let full = ParameterSpace::paper_space(&dev, &k, &dims);
        let quick = ParameterSpace::quick_space(&dev, &k, &dims);
        assert!(quick.len() < full.len());
        for c in quick.configs() {
            assert!(full.configs().contains(c));
        }
    }

    #[test]
    fn paper_optimal_configs_are_in_the_space() {
        // Every optimal configuration reported in Table IV must be
        // enumerable by our space (for its device and precision).
        let dims = GridDims::paper();
        type Case = (DeviceSpec, usize, Precision, (usize, usize, usize, usize));
        let cases: [Case; 6] = [
            (DeviceSpec::gtx580(), 2, Precision::Single, (256, 1, 1, 8)),
            (DeviceSpec::gtx680(), 2, Precision::Single, (256, 4, 1, 4)),
            (DeviceSpec::c2070(), 4, Precision::Single, (32, 2, 2, 4)),
            (DeviceSpec::gtx580(), 10, Precision::Single, (32, 8, 1, 2)),
            (DeviceSpec::gtx580(), 2, Precision::Double, (128, 1, 1, 4)),
            (DeviceSpec::c2070(), 12, Precision::Double, (16, 16, 1, 1)),
        ];
        for (dev, order, prec, (tx, ty, rx, ry)) in cases {
            let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), order, prec);
            let space = ParameterSpace::paper_space(&dev, &k, &dims);
            let c = LaunchConfig::new(tx, ty, rx, ry);
            assert!(
                space.configs().contains(&c),
                "{} order {order} {}: {c} missing from space",
                dev.name,
                prec.label()
            );
        }
    }
}
