//! Explained resource feasibility: the §IV-C constraints as coded
//! diagnostics.
//!
//! This module is the analyzer behind `ParameterSpace::feasible` in
//! `stencil-autotune`: the boolean verdict there is now a shim over
//! [`explain_feasibility`], so every rejection carries *which* constraint
//! failed and by how much. The checks (and their order) mirror the
//! historical boolean exactly:
//!
//! 1. `TX` is a multiple of a half-warp (`LNT-R001`);
//! 2. `TX × TY` within the threads-per-block limit (`LNT-R002`);
//! 3. the shared staging slab fits the per-SM capacity (`LNT-R003`);
//! 4. `TY·RY` divides `LY` (`LNT-R004`);
//! 5. the tile fits the plane (`LNT-R005`);
//! 6. the register estimate fits the per-thread cap (`LNT-R006`);
//! 7. the method's own [`inplane_core::Method::supports`] verdict —
//!    grid large enough for the sweep (`LNT-R007`), and for the
//!    double-buffered routine a staging *pair* that fits the per-SM
//!    capacity (`LNT-R008`). The core-side `RoutineDiag` is converted
//!    into a first-class catalog diagnostic here.
//!
//! One warning rides along: blocks smaller than a warp (`LNT-R101`) are
//! legal but excluded from the paper's enumeration — a warning, not an
//! error, so the boolean shim stays bit-identical to the old predicate.

use crate::diag::{has_errors, Diagnostic};
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::resources::{regs_per_thread, smem_bytes};
use inplane_core::{KernelSpec, LaunchConfig, ProblemSpec};

/// Run every feasibility check and return all findings (empty = clean).
pub fn explain_feasibility(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    c: &LaunchConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let half_warp = device.half_wavefront();

    // (i) TX multiple of a half-warp.
    if !c.tx.is_multiple_of(half_warp) {
        diags.push(
            Diagnostic::error(
                "LNT-R001",
                format!(
                    "TX = {} is not a multiple of the half-warp {half_warp}",
                    c.tx
                ),
            )
            .with("tx", c.tx)
            .with("half_warp", half_warp),
        );
    }

    // (ii) thread limit.
    let threads = c.threads();
    if threads > device.max_threads_per_block {
        diags.push(
            Diagnostic::error(
                "LNT-R002",
                format!(
                    "block of {threads} threads exceeds the limit by {}",
                    threads - device.max_threads_per_block
                ),
            )
            .with("threads", threads)
            .with("limit", device.max_threads_per_block)
            .with("excess", threads - device.max_threads_per_block),
        );
    }

    // (iii) shared-memory limit.
    let smem = smem_bytes(kernel, c);
    if smem > device.smem_per_sm {
        diags.push(
            Diagnostic::error(
                "LNT-R003",
                format!(
                    "staging slab of {smem} B exceeds the per-SM capacity by {} B",
                    smem - device.smem_per_sm
                ),
            )
            .with("smem_bytes", smem)
            .with("limit", device.smem_per_sm)
            .with("excess", smem - device.smem_per_sm),
        );
    }

    // (iv) TY·RY divides LY.
    if !dims.ly.is_multiple_of(c.tile_y()) {
        diags.push(
            Diagnostic::error(
                "LNT-R004",
                format!(
                    "TY*RY = {} does not divide LY = {} (remainder {})",
                    c.tile_y(),
                    dims.ly,
                    dims.ly % c.tile_y()
                ),
            )
            .with("tile_y", c.tile_y())
            .with("ly", dims.ly)
            .with("remainder", dims.ly % c.tile_y()),
        );
    }

    // Tile must fit the plane.
    if c.tile_x() > dims.lx || c.tile_y() > dims.ly {
        diags.push(
            Diagnostic::error(
                "LNT-R005",
                format!(
                    "tile {}x{} exceeds the {}x{} plane",
                    c.tile_x(),
                    c.tile_y(),
                    dims.lx,
                    dims.ly
                ),
            )
            .with("tile_x", c.tile_x())
            .with("tile_y", c.tile_y())
            .with("lx", dims.lx)
            .with("ly", dims.ly),
        );
    }

    // Register estimate must compile.
    let regs = regs_per_thread(kernel, c);
    if regs > device.max_regs_per_thread {
        diags.push(
            Diagnostic::error(
                "LNT-R006",
                format!(
                    "register estimate {regs} exceeds the per-thread cap by {}",
                    regs - device.max_regs_per_thread
                ),
            )
            .with("regs_per_thread", regs)
            .with("limit", device.max_regs_per_thread)
            .with("excess", regs - device.max_regs_per_thread),
        );
    }

    // The routine's own legality verdict: core-side `RoutineDiag`s
    // (LNT-R007 grid-too-small, LNT-R008 staging-pair capacity) become
    // catalog diagnostics.
    let problem = ProblemSpec {
        radius: kernel.radius,
        elem_bytes: kernel.elem_bytes,
        config: *c,
        dims: (dims.lx, dims.ly, dims.lz),
        smem_limit: Some(device.smem_per_sm),
    };
    if let Err(rd) = kernel.method.supports(&problem) {
        diags.push(Diagnostic::error(rd.code, rd.message));
    }

    // Enumeration convention (not a constraint): sub-warp blocks waste
    // issue slots and are skipped by the paper's search.
    if threads < device.warp_size {
        diags.push(
            Diagnostic::warning(
                "LNT-R101",
                format!(
                    "block of {threads} threads is smaller than one {}-lane warp",
                    device.warp_size
                ),
            )
            .with("threads", threads)
            .with("warp_size", device.warp_size),
        );
    }

    diags
}

/// Boolean shim: feasible iff the analyzer emits no error-severity
/// diagnostic. This is what `ParameterSpace::feasible` delegates to.
pub fn is_feasible(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    c: &LaunchConfig,
) -> bool {
    !has_errors(&explain_feasibility(device, kernel, dims, c))
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

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_config_has_no_diagnostics() {
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(4),
            &GridDims::paper(),
            &LaunchConfig::new(64, 4, 1, 2),
        );
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn half_warp_violation_is_r001() {
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(2),
            &GridDims::paper(),
            &LaunchConfig::new(24, 4, 1, 1),
        );
        assert_eq!(codes(&d), vec!["LNT-R001"]);
        assert!(d[0]
            .context
            .iter()
            .any(|(k, v)| *k == "half_warp" && v == "16"));
    }

    #[test]
    fn thread_limit_violation_is_r002_with_excess() {
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(2),
            &GridDims::paper(),
            &LaunchConfig::new(512, 4, 1, 1),
        );
        assert!(codes(&d).contains(&"LNT-R002"));
        let r002 = d.iter().find(|x| x.code == "LNT-R002").unwrap();
        assert!(r002
            .context
            .iter()
            .any(|(k, v)| *k == "excess" && v == "1024"));
    }

    #[test]
    fn smem_violation_is_r003() {
        // A 512×16-tile order-12 slab is 524x28x4 B = 58688 B > 48 KB.
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(12),
            &GridDims::paper(),
            &LaunchConfig::new(512, 2, 1, 8),
        );
        assert!(codes(&d).contains(&"LNT-R003"));
    }

    #[test]
    fn ty_ry_division_is_r004() {
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(2),
            &GridDims::new(512, 96, 64),
            &LaunchConfig::new(32, 5, 1, 1),
        );
        assert_eq!(codes(&d), vec!["LNT-R004"]);
    }

    #[test]
    fn oversized_tile_is_r005() {
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(2),
            &GridDims::new(64, 64, 64),
            &LaunchConfig::new(128, 1, 1, 1),
        );
        assert!(codes(&d).contains(&"LNT-R005"));
    }

    #[test]
    fn register_cap_is_r006() {
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 12, Precision::Double);
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &k,
            &GridDims::paper(),
            &LaunchConfig::new(16, 8, 2, 2),
        );
        assert!(codes(&d).contains(&"LNT-R006"));
    }

    #[test]
    fn subwarp_block_is_warning_only() {
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(2),
            &GridDims::paper(),
            &LaunchConfig::new(16, 1, 1, 1),
        );
        assert_eq!(codes(&d), vec!["LNT-R101"]);
        assert!(!has_errors(&d), "R101 must not reject the config");
        assert!(is_feasible(
            &DeviceSpec::gtx580(),
            &kernel(2),
            &GridDims::paper(),
            &LaunchConfig::new(16, 1, 1, 1)
        ));
    }

    #[test]
    fn undersized_grid_is_r007_for_every_routine() {
        for method in Method::ALL {
            let k = KernelSpec::star_order(method, 4, Precision::Single);
            let d = explain_feasibility(
                &DeviceSpec::gtx580(),
                &k,
                &GridDims::new(64, 64, 3), // nz = 3 <= 2r = 4
                &LaunchConfig::new(32, 4, 1, 1),
            );
            assert!(codes(&d).contains(&"LNT-R007"), "{method:?}: {d:?}");
        }
    }

    #[test]
    fn double_buffered_pair_over_capacity_is_r008() {
        let k = KernelSpec::star_order(
            Method::InPlane(Variant::DoubleBuffered),
            12,
            Precision::Single,
        );
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &k,
            &GridDims::paper(),
            &LaunchConfig::new(512, 2, 1, 8),
        );
        let c = codes(&d);
        assert!(c.contains(&"LNT-R008"), "{d:?}");
        // The generic slab check fires too: the resource model already
        // prices the doubled footprint.
        assert!(c.contains(&"LNT-R003"), "{d:?}");
        // The single-buffer full-slice twin at the same config draws
        // R003 only — R008 is the pair-specific verdict.
        let fs = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 12, Precision::Single);
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &fs,
            &GridDims::paper(),
            &LaunchConfig::new(512, 2, 1, 8),
        );
        assert!(!codes(&d).contains(&"LNT-R008"), "{d:?}");
    }

    #[test]
    fn multiple_failures_all_reported() {
        // TX = 24 breaks half-warp; 24×48 = 1152 breaks the thread limit.
        let d = explain_feasibility(
            &DeviceSpec::gtx580(),
            &kernel(2),
            &GridDims::paper(),
            &LaunchConfig::new(24, 48, 1, 1),
        );
        let c = codes(&d);
        assert!(c.contains(&"LNT-R001"));
        assert!(c.contains(&"LNT-R002"));
    }
}
