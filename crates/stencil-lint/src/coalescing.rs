//! Coalescing and bank-conflict lint over the lowered warp instructions.
//!
//! For every load region the variant issues, the region's warp
//! instructions are counted ([`inplane_core::regions::Region::count`])
//! and the *measured* transaction count
//! (address-accurate coalescing against the device's segment size) is
//! compared with the *ideal* count (every requested byte moved in fully
//! packed segments). The measured-vs-ideal ratio is the profiler's
//! load-efficiency metric inverted, reported per region:
//!
//! * `LNT-M102` — a column-major side-halo region whose loads collapse
//!   into per-row transactions (the vertical variant's Fig 7 pathology);
//! * `LNT-M101` — any other region whose ratio exceeds the threshold
//!   (misaligned or strided loading);
//! * `LNT-M103` — shared-memory bank conflicts in the compute phase
//!   (narrow `TX` with a bank-multiple tile pitch).
//!
//! All three are warnings: the configuration is *legal*, the paper's
//! point is precisely that some legal layouts are slow. The autotuner's
//! ranking, not the lint, decides the winner; the lint explains why.

use crate::diag::Diagnostic;
use gpu_sim::{stencil_phase_factor, DeviceSpec, TrafficCounter};
use inplane_core::layout::TileGeometry;
use inplane_core::loadplan::load_regions;
use inplane_core::regions::Assignment;
use inplane_core::resources::vector_width;
use inplane_core::{KernelSpec, LaunchConfig};

/// Ratio above which a column-major region is flagged (`LNT-M102`).
pub const COLUMN_MAJOR_RATIO: f64 = 1.5;
/// Ratio above which any other region is flagged (`LNT-M101`).
pub const GENERAL_RATIO: f64 = 2.0;
/// Bank-conflict serialisation factor above which `LNT-M103` fires.
pub const CONFLICT_FACTOR: f64 = 1.05;

/// Lint the memory behaviour of `(kernel, config)` on `device`:
/// transactions-per-warp-instruction per region, plus compute-phase
/// bank conflicts.
pub fn check_coalescing(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    geom: &TileGeometry,
    device: &DeviceSpec,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let seg = device.segment_bytes;

    for (i, region) in load_regions(kernel.method, geom, vector_width(kernel))
        .iter()
        .enumerate()
    {
        let mut counter = TrafficCounter::new(seg);
        region.count(geom, device.warp_size, &mut counter);
        let (instrs, _) = counter.finish();
        if instrs.is_empty() {
            continue;
        }
        let measured: u64 = instrs.iter().map(|t| t.transactions).sum();
        let ideal: u64 = instrs
            .iter()
            .map(|t| t.requested_bytes.div_ceil(seg).max(1))
            .sum();
        let ratio = measured as f64 / ideal as f64;

        match region.assignment {
            Assignment::ColumnMajor if ratio > COLUMN_MAJOR_RATIO => {
                diags.push(
                    Diagnostic::warning(
                        "LNT-M102",
                        format!(
                            "column-major region {i} needs {measured} transactions where {ideal} would suffice ({ratio:.1}x)"
                        ),
                    )
                    .with("region", i)
                    .with("measured", measured)
                    .with("ideal", ideal)
                    .with("ratio", format!("{ratio:.2}")),
                );
            }
            Assignment::ColumnMajor => {}
            _ if ratio > GENERAL_RATIO => {
                diags.push(
                    Diagnostic::warning(
                        "LNT-M101",
                        format!(
                            "region {i} needs {measured} transactions where {ideal} would suffice ({ratio:.1}x)"
                        ),
                    )
                    .with("region", i)
                    .with("measured", measured)
                    .with("ideal", ideal)
                    .with("ratio", format!("{ratio:.2}")),
                );
            }
            _ => {}
        }
    }

    // Compute-phase bank conflicts on the staged tile, in units of the
    // device's LDS bank width.
    let pitch_words = (geom.wx + 2 * geom.r) * kernel.elem_bytes / device.smem_bank_bytes;
    let factor = stencil_phase_factor(
        config.tx,
        config.threads(),
        pitch_words,
        kernel.radius,
        device.warp_size,
        device.smem_banks,
    );
    if factor > CONFLICT_FACTOR {
        diags.push(
            Diagnostic::warning(
                "LNT-M103",
                format!(
                    "compute phase serialises {factor:.2}x on shared-memory banks (pitch {pitch_words} words, TX = {})",
                    config.tx
                ),
            )
            .with("factor", format!("{factor:.2}"))
            .with("pitch_words", pitch_words)
            .with("tx", config.tx),
        );
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn geom(c: &LaunchConfig, r: usize) -> TileGeometry {
        TileGeometry::interior(c, r, 4, 512, 128)
    }

    fn spec(method: Method, order: usize) -> KernelSpec {
        KernelSpec::star_order(method, order, Precision::Single)
    }

    #[test]
    fn coalescing_lint_never_errors() {
        let dev = DeviceSpec::gtx580();
        for method in [
            Method::ForwardPlane,
            Method::InPlane(Variant::Vertical),
            Method::InPlane(Variant::FullSlice),
        ] {
            let c = LaunchConfig::new(32, 8, 1, 1);
            let g = geom(&c, 2);
            let d = check_coalescing(&spec(method, 4), &c, &g, &dev);
            assert!(!has_errors(&d), "{method:?}: {d:?}");
        }
    }

    #[test]
    fn vertical_side_columns_flagged_m102() {
        let dev = DeviceSpec::gtx580();
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 4);
        let d = check_coalescing(&spec(Method::InPlane(Variant::Vertical), 8), &c, &g, &dev);
        let m102: Vec<_> = d.iter().filter(|x| x.code == "LNT-M102").collect();
        // 2r = 8 side columns, every one collapses.
        assert_eq!(m102.len(), 8, "{d:?}");
        // The ratio context documents measured vs ideal.
        assert!(m102[0].context.iter().any(|(k, _)| *k == "ratio"));
    }

    #[test]
    fn full_slice_is_clean_of_region_warnings() {
        let dev = DeviceSpec::gtx580();
        // A realistic wide tile: the 128 B-segment fringe amortises and
        // the packed slab loads stay near the coalesced ideal. (On tiny
        // tiles the fringe legitimately dominates and M101 fires — that
        // is the lint working, not a false positive.)
        let c = LaunchConfig::new(128, 2, 1, 4);
        let g = geom(&c, 2);
        let d = check_coalescing(&spec(Method::InPlane(Variant::FullSlice), 4), &c, &g, &dev);
        assert!(
            !d.iter()
                .any(|x| x.code == "LNT-M101" || x.code == "LNT-M102"),
            "{d:?}"
        );
    }

    #[test]
    fn narrow_tx_with_bank_multiple_pitch_is_m103() {
        let dev = DeviceSpec::gtx580();
        // TX = 16, tile 16 wide + 2r = 32-word pitch: warp lanes 0 and 16
        // land in different rows 32 words apart -> same bank.
        let c = LaunchConfig::new(16, 8, 1, 1);
        let r = 8;
        let g = geom(&c, r);
        let d = check_coalescing(
            &spec(Method::InPlane(Variant::FullSlice), 2 * r),
            &c,
            &g,
            &dev,
        );
        assert!(d.iter().any(|x| x.code == "LNT-M103"), "{d:?}");
    }

    #[test]
    fn full_width_warps_have_no_conflicts() {
        let dev = DeviceSpec::gtx580();
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 1);
        let d = check_coalescing(&spec(Method::InPlane(Variant::FullSlice), 2), &c, &g, &dev);
        assert!(!d.iter().any(|x| x.code == "LNT-M103"), "{d:?}");
    }
}
