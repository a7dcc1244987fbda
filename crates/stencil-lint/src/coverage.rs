//! Region-coverage proof: each variant's load regions exactly tile the
//! halo-framed slab under that variant's documented corner policy.
//!
//! The proof runs on the *logical* region spans (`Region::x`/`Region::y`)
//! — the vector-alignment extension of `Region::extended_x` is
//! deliberately excluded, because alignment slack re-requests elements by
//! design (the §III-C2 fringe, priced by the coalescing model) and must
//! not count as an overlap.
//!
//! Corner policy per variant (Fig 6):
//!
//! * classical / forward-plane: interior + four arms — corners never
//!   staged;
//! * vertical: interior columns span the full slab height, side columns
//!   cover interior rows only — corners never staged;
//! * horizontal: full-width interior rows, top/bottom rows over interior
//!   columns — corners never staged;
//! * full-slice: the whole slab, corners *included* (`4r²` redundant
//!   cells, reported as informational `LNT-C901`).
//!
//! Emitted codes: `LNT-C001` (gap), `LNT-C002` (overlap), `LNT-C003`
//! (corner-free variant staging corners), `LNT-C004` (region outside the
//! slab), `LNT-C901` (info: full-slice corner count).

use crate::diag::Diagnostic;
use crate::rect::{subtract_all, total_area, Rect};
use inplane_core::layout::TileGeometry;
use inplane_core::loadplan::load_regions;
use inplane_core::resources::vector_width;
use inplane_core::{KernelSpec, Method};

/// The four `r × r` corner rectangles of the halo frame.
fn corner_rects(geom: &TileGeometry) -> [Rect; 4] {
    let (sx_s, sx_e) = geom.slab_x();
    let (sy_s, sy_e) = geom.slab_y();
    let (ix_s, ix_e) = geom.interior_x();
    let (iy_s, iy_e) = geom.interior_y();
    [
        Rect {
            x0: sx_s,
            x1: ix_s,
            y0: sy_s,
            y1: iy_s,
        }, // top-left
        Rect {
            x0: ix_e,
            x1: sx_e,
            y0: sy_s,
            y1: iy_s,
        }, // top-right
        Rect {
            x0: sx_s,
            x1: ix_s,
            y0: iy_e,
            y1: sy_e,
        }, // bottom-left
        Rect {
            x0: ix_e,
            x1: sx_e,
            y0: iy_e,
            y1: sy_e,
        }, // bottom-right
    ]
}

/// True when the method's routine stages the slab corners (the
/// full-slice sweep routines).
fn stages_corners(method: Method) -> bool {
    // The skeleton's corner policy is radius-independent; probe at r=1.
    method.skeleton(1).stages_corners
}

/// Prove the load regions of `kernel` tile the halo-framed slab of
/// `geom` exactly: no gap, no overlap, no reach outside the slab, and
/// the variant's corner policy respected.
pub fn check_coverage(kernel: &KernelSpec, geom: &TileGeometry) -> Vec<Diagnostic> {
    let regions = load_regions(kernel.method, geom, vector_width(kernel));
    let rects: Vec<Rect> = regions
        .iter()
        .map(|reg| Rect::from_spans(reg.x, reg.y))
        .collect();
    check_region_rects(kernel.method, &rects, geom)
}

/// Rect-level core of [`check_coverage`]: prove `rects` tile the
/// halo-framed slab of `geom` under `method`'s corner policy. Exposed so
/// tests (and future planners) can check candidate region sets that did
/// not come from [`load_regions`].
pub fn check_region_rects(method: Method, rects: &[Rect], geom: &TileGeometry) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let slab = Rect::from_spans(geom.slab_x(), geom.slab_y());
    let corners = corner_rects(geom);

    // C004: every region stays inside the slab.
    for (i, r) in rects.iter().enumerate() {
        if !slab.contains(r) {
            diags.push(
                Diagnostic::error(
                    "LNT-C004",
                    format!(
                        "region {i} [{}, {})x[{}, {}) reaches outside the slab",
                        r.x0, r.x1, r.y0, r.y1
                    ),
                )
                .with("region", i)
                .with("variant", method.label()),
            );
        }
    }

    // C002: regions are pairwise disjoint.
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            if let Some(o) = rects[i].intersect(&rects[j]) {
                diags.push(
                    Diagnostic::error(
                        "LNT-C002",
                        format!(
                            "regions {i} and {j} overlap on [{}, {})x[{}, {}) ({} cells)",
                            o.x0,
                            o.x1,
                            o.y0,
                            o.y1,
                            o.area()
                        ),
                    )
                    .with("region_a", i)
                    .with("region_b", j)
                    .with("cells", o.area()),
                );
            }
        }
    }

    // Corner policy.
    if stages_corners(method) {
        diags.push(
            Diagnostic::info(
                "LNT-C901",
                format!(
                    "full-slice stages {} redundant corner cells (4r^2, r = {})",
                    geom.corner_elems(),
                    geom.r
                ),
            )
            .with("corner_cells", geom.corner_elems())
            .with("radius", geom.r),
        );
    } else {
        for (i, r) in rects.iter().enumerate() {
            for (ci, corner) in corners.iter().enumerate() {
                if let Some(o) = r.intersect(corner) {
                    diags.push(
                        Diagnostic::error(
                            "LNT-C003",
                            format!(
                                "corner-free variant {} stages {} corner cells (region {i}, corner {ci})",
                                method.label(),
                                o.area()
                            ),
                        )
                        .with("region", i)
                        .with("corner", ci)
                        .with("cells", o.area()),
                    );
                }
            }
        }
    }

    // C001: the regions cover the variant's whole domain — the slab,
    // minus the corners for corner-free variants.
    let domain = if stages_corners(method) {
        vec![slab]
    } else {
        subtract_all(vec![slab], &corners)
    };
    let gaps = subtract_all(domain, rects);
    if !gaps.is_empty() {
        let g = gaps[0];
        diags.push(
            Diagnostic::error(
                "LNT-C001",
                format!(
                    "load regions leave {} uncovered cells in {} gap rectangles (first: [{}, {})x[{}, {}))",
                    total_area(&gaps),
                    gaps.len(),
                    g.x0,
                    g.x1,
                    g.y0,
                    g.y1
                ),
            )
            .with("cells", total_area(&gaps))
            .with("gap_rects", gaps.len())
            .with("variant", method.label()),
        );
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use inplane_core::LaunchConfig;
    use inplane_core::Variant;
    use stencil_grid::Precision;

    fn geom(c: &LaunchConfig, r: usize) -> TileGeometry {
        TileGeometry::interior(c, r, 4, 512, 128)
    }

    fn spec(method: Method, order: usize) -> KernelSpec {
        KernelSpec::star_order(method, order, Precision::Single)
    }

    #[test]
    fn all_methods_tile_exactly() {
        for method in Method::ALL {
            for order in [2usize, 4, 8, 12] {
                for c in [
                    LaunchConfig::new(32, 8, 1, 1),
                    LaunchConfig::new(64, 2, 2, 4),
                ] {
                    let g = geom(&c, order / 2);
                    let d = check_coverage(&spec(method, order), &g);
                    assert!(
                        !has_errors(&d),
                        "{method:?} order {order} {c}: {:?}",
                        d.iter().map(|x| x.render()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn full_slice_reports_corner_info() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        let d = check_coverage(&spec(Method::InPlane(Variant::FullSlice), 4), &g);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "LNT-C901");
        assert!(d[0].message.contains("16"), "4r^2 = 16 for r = 2");
    }

    #[test]
    fn corner_free_variants_emit_no_info() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        for method in [
            Method::ForwardPlane,
            Method::InPlane(Variant::Vertical),
            Method::InPlane(Variant::Horizontal),
        ] {
            let d = check_coverage(&spec(method, 4), &g);
            assert!(d.is_empty(), "{method:?}: {d:?}");
        }
    }

    #[test]
    fn dropped_region_is_c001() {
        // A planner that forgets a region leaves a gap: drop the last
        // region the horizontal variant plans (the bottom halo rows).
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        let method = Method::InPlane(Variant::Horizontal);
        let mut rects: Vec<Rect> = load_regions(method, &g, 4)
            .iter()
            .map(|r| Rect::from_spans(r.x, r.y))
            .collect();
        let dropped = rects.pop().expect("horizontal plans several regions");
        let d = check_region_rects(method, &rects, &g);
        let c001 = d
            .iter()
            .find(|x| x.code == "LNT-C001")
            .expect("gap flagged");
        assert!(
            c001.context
                .iter()
                .any(|(k, v)| *k == "cells" && *v == dropped.area().to_string()),
            "{d:?}"
        );
    }

    #[test]
    fn duplicated_region_is_c002() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        let method = Method::InPlane(Variant::FullSlice);
        let mut rects: Vec<Rect> = load_regions(method, &g, 4)
            .iter()
            .map(|r| Rect::from_spans(r.x, r.y))
            .collect();
        rects.push(rects[0]);
        let d = check_region_rects(method, &rects, &g);
        assert!(d.iter().any(|x| x.code == "LNT-C002"), "{d:?}");
    }

    #[test]
    fn corner_staging_by_corner_free_variant_is_c003() {
        // Hand the classical variant the full-slice rect set: it covers
        // the corners it must never stage.
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        let rects: Vec<Rect> = load_regions(Method::InPlane(Variant::FullSlice), &g, 4)
            .iter()
            .map(|r| Rect::from_spans(r.x, r.y))
            .collect();
        let d = check_region_rects(Method::InPlane(Variant::Classical), &rects, &g);
        assert!(d.iter().any(|x| x.code == "LNT-C003"), "{d:?}");
    }

    #[test]
    fn out_of_slab_region_is_c004() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 2);
        let method = Method::InPlane(Variant::FullSlice);
        let mut rects: Vec<Rect> = load_regions(method, &g, 4)
            .iter()
            .map(|r| Rect::from_spans(r.x, r.y))
            .collect();
        rects[0].x1 += 1; // one column past the slab edge
        let d = check_region_rects(method, &rects, &g);
        assert!(d.iter().any(|x| x.code == "LNT-C004"), "{d:?}");
    }

    #[test]
    fn corner_rects_have_r_squared_cells_each() {
        let c = LaunchConfig::new(32, 4, 1, 2);
        let g = geom(&c, 3);
        let corners = corner_rects(&g);
        for r in &corners {
            assert_eq!(r.area(), 9);
        }
        // Pairwise disjoint.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(corners[i].intersect(&corners[j]).is_none());
            }
        }
    }
}
