//! The stencil computation methods the paper compares, and the routine
//! table: every per-method fact (stable id, kernel names, schedule
//! skeleton, loading pattern, legality) is one `match` here. This is
//! the only file allowed to match on [`Method`]; every other layer reads
//! these methods or the [`Blueprint`] they resolve.

use std::fmt;

use crate::config::LaunchConfig;
use crate::plan::StageSource;
use crate::routine::{
    Blueprint, ComputeShape, LoadPattern, ProblemSpec, RoutineDiag, ScheduleSkeleton, ZFeed,
};

/// Memory-loading variants of the in-plane method (Fig 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Fig 6(a): interior loaded first, then each halo separately with
    /// thread-index addressing — the same inefficient pattern as
    /// *nvstencil* (Fig 4). Representable but excluded from the paper's
    /// evaluation ("we leave this variant out").
    Classical,
    /// Fig 6(b): top and bottom halos merged with the interior (one
    /// vectorised slab of full rows); left and right halos loaded
    /// separately as columns.
    Vertical,
    /// Fig 6(c): left and right halos merged into the interior rows
    /// (rows of `TX·RX + 2r`); top and bottom halos loaded as separate
    /// full-width rows. No corners loaded.
    Horizontal,
    /// Fig 6(d): the whole `(TX·RX + 2r) × (TY·RY + 2r)` slice loaded as
    /// one uniform region — corners included (`4r²` redundant elements,
    /// independent of block size) — with warp-aligned vector loads.
    FullSlice,
    /// Full-slice loading into *two* rotated shared-memory staging
    /// buffers (the `sync_buffer_cyclic` shape): the next plane stages
    /// while the current plane computes, dropping the per-plane reuse
    /// barrier at the cost of doubling the staging footprint. Not in
    /// the paper.
    DoubleBuffered,
}

impl Variant {
    /// The variants the paper evaluates in Fig 7 (classical excluded).
    pub fn evaluated() -> [Variant; 3] {
        [Variant::Vertical, Variant::Horizontal, Variant::FullSlice]
    }

    /// All five variants (the paper's four plus the double-buffered
    /// extension), in stable id order.
    pub fn all() -> [Variant; 5] {
        [
            Variant::Classical,
            Variant::Vertical,
            Variant::Horizontal,
            Variant::FullSlice,
            Variant::DoubleBuffered,
        ]
    }

    /// Label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Classical => "classical",
            Variant::Vertical => "vertical",
            Variant::Horizontal => "horizontal",
            Variant::FullSlice => "full-slice",
            Variant::DoubleBuffered => "double-buffered",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A stencil computation method: what plane is loaded relative to the
/// plane being written, and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// The conventional 2.5-D forward-plane method of the Nvidia SDK
    /// sample (*nvstencil*, Fig 5a): the loaded plane leads the output
    /// plane by `r`; every output is computed in full from registers
    /// (z-terms) and shared memory (xy-terms). Scalar classical loading.
    ForwardPlane,
    /// The proposed in-plane method (Fig 5b): the loaded plane coincides
    /// with the halo/output plane; outputs are accumulated incrementally
    /// through a depth-`r` register pipeline (Eqns (3)–(5)).
    InPlane(Variant),
}

/// The shared in-plane schedule skeleton (Eqns (3)–(5), §III-C).
fn inplane_skeleton(r: usize, barriers_per_plane: usize, stages_corners: bool) -> ScheduleSkeleton {
    ScheduleSkeleton {
        z_depth: r,
        out_depth: r + 1,
        sweep_tail: 0,
        barriers_per_plane,
        compute: ComputeShape::Pipelined,
        z_feed: ZFeed::StagedCentre,
        q_rotations: 1,
        interior_source: StageSource::Global,
        stages_corners,
    }
}

impl Method {
    /// Every method, in stable [`Method::id`] order.
    pub const ALL: [Method; 6] = [
        Method::ForwardPlane,
        Method::InPlane(Variant::Classical),
        Method::InPlane(Variant::Vertical),
        Method::InPlane(Variant::Horizontal),
        Method::InPlane(Variant::FullSlice),
        Method::InPlane(Variant::DoubleBuffered),
    ];

    /// Stable id: 0 forward-plane, `1 + variant` in-plane. The id is
    /// the method word of every `PlanKey` and `TuneKey` hash, so the
    /// values are frozen; a new method appends.
    pub fn id(&self) -> u64 {
        match self {
            Method::ForwardPlane => 0,
            Method::InPlane(v) => 1 + *v as u64,
        }
    }

    /// Short label for tables ("nvstencil", "in-plane/full-slice", ...).
    pub fn label(&self) -> String {
        match self {
            Method::ForwardPlane => "nvstencil".to_string(),
            Method::InPlane(v) => format!("in-plane/{}", v.label()),
        }
    }

    /// Parse a method back from its [`Method::label`] rendering.
    pub fn from_label(label: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.label() == label)
    }

    /// Identity. It remains only because the `perfbench/` harness still
    /// calls `method.routine()`; new code calls the method directly.
    pub fn routine(self) -> Method {
        self
    }

    /// The generated CUDA kernel's function name.
    pub fn kernel_fn_name(&self) -> &'static str {
        match self {
            Method::ForwardPlane => "stencil_forward_plane",
            Method::InPlane(Variant::Classical) => "stencil_inplane_classical",
            Method::InPlane(Variant::Vertical) => "stencil_inplane_vertical",
            Method::InPlane(Variant::Horizontal) => "stencil_inplane_horizontal",
            Method::InPlane(Variant::FullSlice) => "stencil_inplane_fullslice",
            Method::InPlane(Variant::DoubleBuffered) => "stencil_inplane_dblbuf",
        }
    }

    /// The generated OpenCL kernel's function name, for the methods the
    /// OpenCL backend emits (forward-plane and full-slice).
    pub fn opencl_kernel_name(&self) -> Option<&'static str> {
        match self {
            Method::ForwardPlane => Some("stencil_forward_plane"),
            Method::InPlane(Variant::FullSlice) => Some("stencil_inplane_fullslice"),
            Method::InPlane(_) => None,
        }
    }

    /// Whether the OpenCL backend can emit this method.
    pub fn opencl_supported(&self) -> bool {
        self.opencl_kernel_name().is_some()
    }

    /// The per-plane schedule skeleton at radius `r`.
    pub fn skeleton(&self, r: usize) -> ScheduleSkeleton {
        match self {
            Method::ForwardPlane => ScheduleSkeleton {
                z_depth: 2 * r + 1,
                out_depth: 1,
                sweep_tail: r,
                barriers_per_plane: 2,
                compute: ComputeShape::Direct,
                z_feed: ZFeed::PrefetchLead { lead: r + 1 },
                q_rotations: 0,
                interior_source: StageSource::PipelineCentre,
                stages_corners: false,
            },
            Method::InPlane(Variant::DoubleBuffered) => inplane_skeleton(r, 1, true),
            Method::InPlane(v) => inplane_skeleton(r, 2, *v == Variant::FullSlice),
        }
    }

    /// Extra flops per point relative to the forward-plane count
    /// (Table II: the in-plane pipeline pays `r` extra adds).
    pub fn flops_overhead(&self, r: usize) -> usize {
        match self {
            Method::ForwardPlane => 0,
            Method::InPlane(_) => r,
        }
    }

    /// Flops per grid point for a radius-`r` star stencil under this
    /// method: `7r + 1` plus the method's overhead — `7r + 1` forward,
    /// `8r + 1` in-plane (Table II).
    pub fn star_flops_per_point(&self, radius: usize) -> usize {
        7 * radius + 1 + self.flops_overhead(radius)
    }

    /// True for any in-plane variant — and so whether the CPU golden
    /// model is the in-plane summation order.
    pub fn is_inplane(&self) -> bool {
        matches!(self, Method::InPlane(_))
    }

    /// The method's specified register-pipeline depth in words per
    /// point: `2r + 1` z-values forward-plane; `r` queued partials plus
    /// `r` trailing z-values in-plane (the `+1` queue slot being staged
    /// is the accumulator, not pipeline state). The lowered
    /// [`crate::plan::StagePlan`] declares exactly these depths and the
    /// static analyzer's `LNT-S004` proof asserts against them.
    pub fn pipeline_words(&self, radius: usize) -> usize {
        match self {
            Method::ForwardPlane => 2 * radius + 1,
            Method::InPlane(_) => 2 * radius,
        }
    }

    /// Shared-memory staging buffers allocated per streamed input (1
    /// single-buffered, 2 double-buffered).
    pub fn staging_buffers(&self) -> usize {
        match self {
            Method::InPlane(Variant::DoubleBuffered) => 2,
            _ => 1,
        }
    }

    /// Whether the method issues vector loads (`float4`/`double2`).
    pub fn vectorised(&self) -> bool {
        !matches!(
            self,
            Method::ForwardPlane | Method::InPlane(Variant::Classical)
        )
    }

    /// Whether the method runs on the raw unpadded allocation (the
    /// stock SDK baseline's misaligned layout, §III-C2).
    pub fn unaligned_layout(&self) -> bool {
        matches!(self, Method::ForwardPlane)
    }

    /// The global→shared loading pattern.
    pub fn load_pattern(&self) -> LoadPattern {
        match self {
            Method::ForwardPlane | Method::InPlane(Variant::Classical) => {
                LoadPattern::ScalarRegions
            }
            Method::InPlane(Variant::Vertical) => LoadPattern::VerticalSlab,
            Method::InPlane(Variant::Horizontal) => LoadPattern::HorizontalRows,
            Method::InPlane(Variant::FullSlice | Variant::DoubleBuffered) => {
                LoadPattern::FullSliceSweep
            }
        }
    }

    /// Judge whether the method can legally run `problem`: the grid must
    /// strictly contain the radius-`r` halo shell in every axis
    /// (`LNT-R007`), and a double-buffered staging pair must fit the
    /// device's shared memory when it is known (`LNT-R008`).
    pub fn supports(&self, problem: &ProblemSpec) -> Result<(), RoutineDiag> {
        let (nx, ny, nz) = problem.dims;
        let r = problem.radius;
        if nx <= 2 * r || ny <= 2 * r || nz <= 2 * r {
            return Err(RoutineDiag {
                code: "LNT-R007",
                message: format!(
                    "{}: grid {nx}x{ny}x{nz} too small for radius {r} \
                     (every axis must exceed 2r)",
                    self.label()
                ),
            });
        }
        // The staging *pair* must fit the device's shared memory.
        if self.staging_buffers() == 2 {
            if let Some(limit) = problem.smem_limit {
                let slab = (problem.config.tile_x() + 2 * r) * (problem.config.tile_y() + 2 * r);
                let pair = slab * problem.elem_bytes * self.staging_buffers();
                if pair > limit {
                    return Err(RoutineDiag {
                        code: "LNT-R008",
                        message: format!(
                            "{}: double-buffered staging pair needs {pair} B \
                             shared memory, device provides {limit} B",
                            self.label()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Resolve the method's typed shape for one problem.
    pub fn blueprint(
        &self,
        config: &LaunchConfig,
        r: usize,
        dims: (usize, usize, usize),
    ) -> Blueprint {
        let skeleton = self.skeleton(r);
        Blueprint {
            method: *self,
            radius: r,
            config: *config,
            dims,
            tile: (config.tile_x(), config.tile_y()),
            pipeline_words: skeleton.pipeline_words(),
            skeleton,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluated_excludes_classical() {
        assert!(!Variant::evaluated().contains(&Variant::Classical));
        assert_eq!(Variant::evaluated().len(), 3);
        assert_eq!(Variant::all().len(), 5);
    }

    #[test]
    fn labels() {
        assert_eq!(Method::ForwardPlane.label(), "nvstencil");
        assert_eq!(
            Method::InPlane(Variant::FullSlice).label(),
            "in-plane/full-slice"
        );
        assert_eq!(format!("{}", Variant::Vertical), "vertical");
    }

    #[test]
    fn table2_flop_counts() {
        for r in 1..=6 {
            assert_eq!(Method::ForwardPlane.star_flops_per_point(r), 7 * r + 1);
            assert_eq!(
                Method::InPlane(Variant::FullSlice).star_flops_per_point(r),
                8 * r + 1
            );
        }
    }

    #[test]
    fn is_inplane() {
        assert!(Method::InPlane(Variant::Vertical).is_inplane());
        assert!(!Method::ForwardPlane.is_inplane());
    }

    #[test]
    fn all_is_in_id_order_and_labels_round_trip() {
        assert_eq!(Method::ALL.len(), 1 + Variant::all().len());
        for (i, m) in Method::ALL.into_iter().enumerate() {
            assert_eq!(m.id(), i as u64, "{m}");
            assert_eq!(Method::from_label(&m.label()), Some(m));
        }
        assert_eq!(Method::from_label("no-such-routine"), None);
        assert_eq!(Method::from_label("full-slice"), None);
    }

    #[test]
    fn legacy_ids_match_the_method_codes() {
        // Ids 0–4 are pinned to the original method_code values —
        // this is what keeps stored TuneKey hashes valid.
        assert_eq!(Method::ForwardPlane.id(), 0);
        assert_eq!(Method::InPlane(Variant::Classical).id(), 1);
        assert_eq!(Method::InPlane(Variant::Vertical).id(), 2);
        assert_eq!(Method::InPlane(Variant::Horizontal).id(), 3);
        assert_eq!(Method::InPlane(Variant::FullSlice).id(), 4);
        assert_eq!(Method::InPlane(Variant::DoubleBuffered).id(), 5);
    }

    #[test]
    fn double_buffered_drops_the_reuse_barrier_and_doubles_staging() {
        let db = Method::InPlane(Variant::DoubleBuffered);
        let fs = Method::InPlane(Variant::FullSlice);
        let (a, b) = (db.skeleton(2), fs.skeleton(2));
        assert_eq!(a.barriers_per_plane, 1);
        assert_eq!(b.barriers_per_plane, 2);
        assert_eq!(db.staging_buffers(), 2);
        assert_eq!(fs.staging_buffers(), 1);
        // Everything else agrees: the op stream differs only in the
        // reuse barrier.
        assert_eq!(a.z_depth, b.z_depth);
        assert_eq!(a.out_depth, b.out_depth);
        assert_eq!(a.sweep_tail, b.sweep_tail);
        assert_eq!(a.compute, b.compute);
        assert_eq!(a.z_feed, b.z_feed);
        assert_eq!(a.stages_corners, b.stages_corners);
    }

    /// GTX 580 shared memory per SM, bytes.
    const SMEM_48K: usize = 48 * 1024;

    #[test]
    fn supports_rejects_undersized_grids_with_r007_for_every_method_and_precision() {
        for elem_bytes in [4, 8] {
            for (radius, dims, smem_limit) in [
                (3, (6, 20, 20), None),
                // r = 2, so a 3-plane grid is too shallow for any sweep.
                (2, (64, 64, 3), Some(SMEM_48K)),
            ] {
                let p = ProblemSpec {
                    radius,
                    elem_bytes,
                    config: LaunchConfig::new(32, 4, 1, 1),
                    dims,
                    smem_limit,
                };
                for m in Method::ALL {
                    let err = m.supports(&p).unwrap_err();
                    assert_eq!(err.code, "LNT-R007", "{m} {elem_bytes} B");
                    assert!(err.message.starts_with(&m.label()), "{}", err.message);
                }
            }
        }
    }

    #[test]
    fn double_buffered_rejects_oversized_staging_pairs_with_r008_both_precisions() {
        let db = Method::InPlane(Variant::DoubleBuffered);
        for elem_bytes in [4, 8] {
            // r = 6 over a 512×16 tile: the pair overflows 48 KiB.
            let p = ProblemSpec {
                radius: 6,
                elem_bytes,
                config: LaunchConfig::new(512, 2, 1, 8),
                dims: (512, 512, 64),
                smem_limit: Some(SMEM_48K),
            };
            assert_eq!(db.supports(&p).unwrap_err().code, "LNT-R008");
            // Without a known device there is nothing to overflow.
            let unknown = ProblemSpec {
                smem_limit: None,
                ..p
            };
            assert!(db.supports(&unknown).is_ok());
            // R008 is the staging pair's check alone.
            for m in Method::ALL.into_iter().filter(|m| m.staging_buffers() == 1) {
                assert!(m.supports(&p).is_ok(), "{m} {elem_bytes} B");
            }
        }
        let p = ProblemSpec {
            radius: 2,
            elem_bytes: 8,
            config: LaunchConfig::new(64, 8, 1, 4),
            dims: (96, 96, 32),
            smem_limit: Some(32 * 1024),
        };
        // Single-buffered full-slice fits: (64+4)·(32+4)·8 = 19584 B
        // (the lint resource checks handle its capacity separately)...
        assert!(Method::InPlane(Variant::FullSlice).supports(&p).is_ok());
        // ...but the double-buffered pair (39168 B) does not.
        let err = db.supports(&p).unwrap_err();
        assert_eq!(err.code, "LNT-R008");
        assert!(err.message.contains("39168"), "{}", err.message);
    }

    #[test]
    fn blueprints_resolve_tile_and_words() {
        let cfg = LaunchConfig::new(16, 4, 2, 2);
        for m in Method::ALL {
            let bp = m.blueprint(&cfg, 3, (40, 40, 20));
            assert_eq!(bp.method, m);
            assert_eq!(bp.tile, (32, 8));
            assert_eq!(bp.pipeline_words, m.pipeline_words(3));
            assert_eq!(bp.skeleton, m.skeleton(3));
            // A comfortable problem is legal for every method.
            let p = ProblemSpec {
                radius: 3,
                elem_bytes: 4,
                config: cfg,
                dims: (40, 40, 20),
                smem_limit: Some(SMEM_48K),
            };
            assert!(m.supports(&p).is_ok(), "{m}");
        }
    }

    #[test]
    fn opencl_names_exist_exactly_where_supported() {
        for m in Method::ALL {
            assert_eq!(m.opencl_supported(), m.opencl_kernel_name().is_some());
        }
        assert_eq!(
            Method::InPlane(Variant::FullSlice).opencl_kernel_name(),
            Some(Method::InPlane(Variant::FullSlice).kernel_fn_name())
        );
        assert_eq!(
            Method::ForwardPlane.opencl_kernel_name(),
            Some("stencil_forward_plane")
        );
    }
}
