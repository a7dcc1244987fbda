//! The typed shape every method lowers through.
//!
//! A [`Method`] owns three things, each one `match` in
//! [`crate::method`]:
//!
//! * **legality** — [`Method::supports`] judges a [`ProblemSpec`] and
//!   returns a coded [`RoutineDiag`] (surfaced by `stencil-lint` as an
//!   `LNT-R*` diagnostic) instead of panicking;
//! * **shape** — [`Method::blueprint`] resolves a typed [`Blueprint`]
//!   carrying the tile extent, the pipeline word count and the
//!   per-plane [`ScheduleSkeleton`] that every downstream layer
//!   (lowering, dataflow proof, schedule proof, codegen, resource model)
//!   reads;
//! * **identity** — [`Method::id`], a stable `u64` code that feeds
//!   `PlanKey` and `TuneKey` hashing (ids 0–4 are the original method
//!   codes, so stored tunes still warm-start).
//!
//! Lowering is [`lower_blueprint`], entirely skeleton-driven: a method
//! that can describe itself as a skeleton gets lowering, the
//! differential suite, the dataflow proof, the traffic oracle and the
//! tamper property *for free*.
//!
//! Six methods exist: the five paper methods plus
//! [`Variant::DoubleBuffered`] — two shared-memory staging buffers
//! rotated per plane (the `sync_buffer_cyclic` shape) so the next
//! plane's stage overlaps the current plane's compute, which drops the
//! per-plane reuse barrier.

use crate::config::LaunchConfig;
use crate::method::Method;
#[cfg(doc)]
use crate::method::Variant;
use crate::plan::{
    halo_arms, ComputeKind, PipelineFeed, PipelineKind, PlanOp, PlanRect, StagePlan, StageSource,
    Zone, INPUT_BUF, OUTPUT_BUF,
};

/// How a routine produces output values each staged plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputeShape {
    /// One full stencil evaluation and an immediate write-back (the
    /// forward-plane §III-B shape).
    Direct,
    /// The in-plane pipeline: an Eqn-(3) partial, Eqn-(5) folds into
    /// the queued planes in range, and a write-back of the plane that
    /// just completed (§III-C).
    Pipelined,
}

/// What advances the z-value pipeline after each plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZFeed {
    /// Prefetch plane `k + lead` from global memory while plane `k` is
    /// being computed (forward-plane; `lead = r + 1`).
    PrefetchLead {
        /// Planes ahead of the compute plane the prefetch runs.
        lead: usize,
    },
    /// Take the staged centre value of the current plane (the in-plane
    /// z-history advance — no extra global traffic).
    StagedCentre,
}

/// The global→shared loading pattern of a routine, at the granularity
/// the codegen and the per-plane workload model care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadPattern {
    /// Five scalar regions, interior then each halo arm (Figs 4, 6a).
    ScalarRegions,
    /// A vectorised slab merging top/bottom halos, plus per-column side
    /// walks (Fig 6b).
    VerticalSlab,
    /// Vectorised full-width rows plus top/bottom halo rows (Fig 6c).
    HorizontalRows,
    /// One uniform warp-packed sweep over the whole halo-framed slab,
    /// corners included (Fig 6d; also the double-buffered stage).
    FullSliceSweep,
}

/// The per-plane schedule skeleton of a routine at radius `r`: the
/// complete structural contract the generic lowering emits and the
/// static analyzers verify. Two routines with equal skeletons lower to
/// op-for-op identical plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleSkeleton {
    /// z-value pipeline depth in slots.
    pub z_depth: usize,
    /// Output-queue depth in slots.
    pub out_depth: usize,
    /// Planes at the top of the sweep that are *not* staged: the sweep
    /// runs `k = r .. nz − sweep_tail` (forward stops `r` short; the
    /// in-plane drain runs to the last plane).
    pub sweep_tail: usize,
    /// Barriers per staged plane: 2 for stage + reuse, 1 when a second
    /// staging buffer makes the reuse barrier unnecessary.
    pub barriers_per_plane: usize,
    /// Output production shape.
    pub compute: ComputeShape,
    /// z-pipeline advance policy.
    pub z_feed: ZFeed,
    /// Out-queue rotations per plane (0 direct, 1 pipelined).
    pub q_rotations: usize,
    /// Where the staged interior comes from: a global load, or the
    /// pipeline-centre publish.
    pub interior_source: StageSource,
    /// Whether the `4r²` corner cells are staged too.
    pub stages_corners: bool,
}

impl ScheduleSkeleton {
    /// Pipeline *state* words per point: `z_depth + out_depth − 1` (the
    /// slot being staged is the accumulator, not pipeline state).
    pub fn pipeline_words(&self) -> usize {
        self.z_depth + self.out_depth - 1
    }
}

/// Everything [`Method::supports`] judges: the problem a caller wants
/// the routine to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemSpec {
    /// Stencil radius `r`.
    pub radius: usize,
    /// Element width in bytes (4 = SP, 8 = DP).
    pub elem_bytes: usize,
    /// The launch configuration `(TX, TY, RX, RY)`.
    pub config: LaunchConfig,
    /// Problem-grid dimensions.
    pub dims: (usize, usize, usize),
    /// Shared memory available per SM, when the target device is known
    /// (`None` skips capacity checks — pure-lowering callers).
    pub smem_limit: Option<usize>,
}

/// A coded rejection from [`Method::supports`]. The code matches an
/// `LNT-R*` entry in `stencil-lint`'s catalog so the sweep surfaces it
/// as a first-class diagnostic; keeping the type here (not in the lint
/// crate) lets `core` stay dependency-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineDiag {
    /// Stable diagnostic code (`LNT-R007`, `LNT-R008`, ...).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A method's typed execution shape for one problem: everything the
/// lowering, the analyzers and the codegen need, resolved once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blueprint {
    /// The method this shape belongs to (carried into the lowered plan).
    pub method: Method,
    /// Stencil radius `r`.
    pub radius: usize,
    /// The launch configuration.
    pub config: LaunchConfig,
    /// Problem-grid dimensions.
    pub dims: (usize, usize, usize),
    /// Tile extent `(TX·RX, TY·RY)`.
    pub tile: (usize, usize),
    /// Pipeline state words per point.
    pub pipeline_words: usize,
    /// The per-plane schedule skeleton.
    pub skeleton: ScheduleSkeleton,
}

/// The generic skeleton-driven lowering: one interior Jacobi step over
/// `INPUT_BUF` → `OUTPUT_BUF`, reproducing the per-plane schedule the
/// CUDA kernels of §III execute. Pure function of the blueprint.
pub fn lower_blueprint(bp: &Blueprint) -> StagePlan {
    let (nx, ny, nz) = bp.dims;
    let r = bp.radius;
    let sk = &bp.skeleton;
    let mut ops = Vec::new();
    for (x0, y0, w, h) in crate::exec::tiles(nx, ny, r, &bp.config) {
        ops.push(PlanOp::BeginBlock {
            device: 0,
            input: INPUT_BUF,
            output: OUTPUT_BUF,
            x0,
            y0,
            w,
            h,
            z_depth: sk.z_depth,
            out_depth: sk.out_depth,
        });
        let (ix0, ix1) = (x0 as isize, (x0 + w) as isize);
        let (iy0, iy1) = (y0 as isize, (y0 + h) as isize);
        let ri = r as isize;
        for k in r..nz - sk.sweep_tail {
            // Stage plane k: interior per the skeleton's source, the
            // four halo arms from global, plus the corners when the
            // loading pattern sweeps them.
            ops.push(PlanOp::StageRegion {
                zone: Zone::Interior,
                rect: PlanRect::new(ix0, ix1, iy0, iy1),
                plane: k,
                source: sk.interior_source,
            });
            for (zone, rect) in halo_arms(ix0, ix1, iy0, iy1, ri) {
                ops.push(PlanOp::StageRegion {
                    zone,
                    rect,
                    plane: k,
                    source: StageSource::Global,
                });
            }
            if sk.stages_corners {
                for rect in [
                    PlanRect::new(ix0 - ri, ix0, iy0 - ri, iy0),
                    PlanRect::new(ix1, ix1 + ri, iy0 - ri, iy0),
                    PlanRect::new(ix0 - ri, ix0, iy1, iy1 + ri),
                    PlanRect::new(ix1, ix1 + ri, iy1, iy1 + ri),
                ] {
                    ops.push(PlanOp::StageRegion {
                        zone: Zone::Corner,
                        rect,
                        plane: k,
                        source: StageSource::Global,
                    });
                }
            }
            ops.push(PlanOp::Barrier);
            match sk.compute {
                ComputeShape::Direct => {
                    ops.push(PlanOp::ComputePoint {
                        plane: k,
                        slot: 0,
                        kind: ComputeKind::ForwardFull,
                    });
                    ops.push(PlanOp::WriteBack { plane: k, slot: 0 });
                }
                ComputeShape::Pipelined => {
                    // Eqn-(3) partial if k is an output plane.
                    if k < nz - r {
                        ops.push(PlanOp::ComputePoint {
                            plane: k,
                            slot: 0,
                            kind: ComputeKind::InplanePartial,
                        });
                    }
                    // Eqn-(5) folds into the queued planes in range.
                    for d in 1..=r {
                        let in_range =
                            matches!(k.checked_sub(d), Some(kd) if kd >= r && kd < nz - r);
                        if in_range {
                            ops.push(PlanOp::ComputePoint {
                                plane: k,
                                slot: d,
                                kind: ComputeKind::FoldCentre { depth: d },
                            });
                        }
                    }
                    // Plane k − r is complete.
                    if let Some(done_k) = k.checked_sub(r) {
                        if done_k >= r && done_k < nz - r {
                            ops.push(PlanOp::WriteBack {
                                plane: done_k,
                                slot: r,
                            });
                        }
                    }
                }
            }
            // The reuse barrier: only single-buffered schedules need it
            // (a second staging buffer lets the next stage overlap).
            if sk.barriers_per_plane == 2 {
                ops.push(PlanOp::Barrier);
            }
            for _ in 0..sk.q_rotations {
                ops.push(PlanOp::RotatePipeline {
                    pipeline: PipelineKind::OutQueue,
                    feed: PipelineFeed::None,
                });
            }
            match sk.z_feed {
                ZFeed::PrefetchLead { lead } => {
                    if k + 1 < nz - sk.sweep_tail {
                        ops.push(PlanOp::RotatePipeline {
                            pipeline: PipelineKind::ZValues,
                            feed: PipelineFeed::GlobalPlane(k + lead),
                        });
                    }
                }
                ZFeed::StagedCentre => {
                    ops.push(PlanOp::RotatePipeline {
                        pipeline: PipelineKind::ZValues,
                        feed: PipelineFeed::StagedCentre,
                    });
                }
            }
        }
    }
    StagePlan {
        method: bp.method,
        radius: r,
        dims: bp.dims,
        ops,
    }
}
