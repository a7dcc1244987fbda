//! The typed execution-plan IR every functional path lowers onto.
//!
//! A [`StagePlan`] is a flat program of [`PlanOp`]s describing the
//! stage/barrier/compute/write schedule of a kernel run — the same
//! schedule the CUDA kernels of §III execute, made explicit. The pure
//! lowering function [`lower_step`] produces one from
//! `Method × LaunchConfig × dims`; the instrumented interpreter in
//! [`crate::exec`] runs it (bit-exact against the CPU golden models);
//! the plan *transforms* in `stencil-temporal` and `stencil-multigpu`
//! compose base plans into time-skewed and sharded programs; and
//! `stencil-lint`'s schedule proof consumes the same lowered ops — so
//! the static analysis and the runtime can never drift.
//!
//! The op vocabulary has two levels:
//!
//! * **block-level** ops (between [`PlanOp::BeginBlock`]s) mirror one
//!   thread block's per-plane schedule: [`PlanOp::StageRegion`],
//!   [`PlanOp::Barrier`], [`PlanOp::ComputePoint`],
//!   [`PlanOp::RotatePipeline`], [`PlanOp::WriteBack`];
//! * **grid-level** ops move whole boxes between buffers:
//!   [`PlanOp::Alloc`], [`PlanOp::CopyBox`], [`PlanOp::HaloExchange`],
//!   [`PlanOp::ApplyBoundary`], [`PlanOp::SwapBufs`] — the vocabulary
//!   temporal blocking and multi-GPU sharding are expressed in.

use crate::config::LaunchConfig;
use crate::method::Method;
use crate::routine::lower_blueprint;
use stencil_grid::Boundary;

/// Identifier of a grid buffer in the interpreter's buffer table.
pub type BufId = usize;

/// The caller-provided input grid.
pub const INPUT_BUF: BufId = 0;
/// The caller-provided output grid.
pub const OUTPUT_BUF: BufId = 1;

/// Staging zones of the halo-framed shared tile. The labels match the
/// zone names carried by [`crate::exec::StageError`], so a static
/// finding about a zone and a runtime staging failure name the same
/// thing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Zone {
    /// The tile interior (the points the block computes).
    Interior,
    /// Halo rows above the tile.
    Top,
    /// Halo rows below the tile.
    Bottom,
    /// Halo columns left of the tile.
    Left,
    /// Halo columns right of the tile.
    Right,
    /// The four `r × r` corner regions (only full-slice stages them).
    Corner,
}

impl Zone {
    /// All zones, in [`Zone::index`] order.
    pub const ALL: [Zone; 6] = [
        Zone::Interior,
        Zone::Top,
        Zone::Bottom,
        Zone::Left,
        Zone::Right,
        Zone::Corner,
    ];

    /// Stable index for per-zone counters.
    pub fn index(self) -> usize {
        match self {
            Zone::Interior => 0,
            Zone::Top => 1,
            Zone::Bottom => 2,
            Zone::Left => 3,
            Zone::Right => 4,
            Zone::Corner => 5,
        }
    }

    /// The zone name as [`crate::exec::StageError`] spells it.
    pub fn label(self) -> &'static str {
        match self {
            Zone::Interior => "interior",
            Zone::Top => "top halo",
            Zone::Bottom => "bottom halo",
            Zone::Left => "left halo",
            Zone::Right => "right halo",
            Zone::Corner => "corner halo",
        }
    }
}

/// A half-open rectangle `[x0, x1) × [y0, y1)` in grid coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanRect {
    /// Left edge (inclusive).
    pub x0: isize,
    /// Right edge (exclusive).
    pub x1: isize,
    /// Top edge (inclusive).
    pub y0: isize,
    /// Bottom edge (exclusive).
    pub y1: isize,
}

impl PlanRect {
    /// Construct from half-open spans.
    pub fn new(x0: isize, x1: isize, y0: isize, y1: isize) -> Self {
        PlanRect { x0, x1, y0, y1 }
    }

    /// Cell count (zero if degenerate).
    pub fn area(&self) -> u64 {
        let w = (self.x1 - self.x0).max(0) as u64;
        let h = (self.y1 - self.y0).max(0) as u64;
        w * h
    }

    /// The rectangle shifted by `(dx, dy)`.
    pub fn translated(&self, dx: isize, dy: isize) -> Self {
        PlanRect {
            x0: self.x0 + dx,
            x1: self.x1 + dx,
            y0: self.y0 + dy,
            y1: self.y1 + dy,
        }
    }

    /// The rectangle clipped to an `nx × ny` grid plane (possibly
    /// degenerate). This is exactly the interpreter's per-cell skip for
    /// regions that poke outside the allocation (full-slice corners on
    /// edge tiles), expressed as rectangle arithmetic.
    pub fn clipped(&self, nx: usize, ny: usize) -> Self {
        PlanRect {
            x0: self.x0.max(0),
            x1: self.x1.min(nx as isize),
            y0: self.y0.max(0),
            y1: self.y1.min(ny as isize),
        }
    }

    /// Cell count after clipping to an `nx × ny` grid plane — the cells
    /// the interpreter actually stages for this rectangle, so static
    /// traffic accounting can match [`crate::ExecStats`] exactly.
    pub fn clipped_area(&self, nx: usize, ny: usize) -> u64 {
        self.clipped(nx, ny).area()
    }
}

/// Where a staged region's values come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageSource {
    /// Loaded from the block's input buffer (a global-memory read).
    Global,
    /// Published from the centre slot of the z-pipeline (the
    /// forward-plane interior publish — no global traffic).
    PipelineCentre,
}

/// Which of the block's two register pipelines an op addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineKind {
    /// The z-value pipeline: `2r + 1` planes forward, `r` trailing
    /// planes in-plane.
    ZValues,
    /// The in-plane output queue of `r + 1` pending partials.
    OutQueue,
}

/// What refills the slot a pipeline rotation frees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineFeed {
    /// Nothing: the freed slot keeps its wrapped value (the out-queue
    /// rotation; slot 0 is overwritten by the next plane's compute).
    None,
    /// Fetch plane `k` of the block's input buffer per point (the
    /// forward-plane prefetch of plane `k + r + 1`).
    GlobalPlane(usize),
    /// Read the staged centre value of the current plane per point (the
    /// in-plane z-history advance).
    StagedCentre,
}

/// What a [`PlanOp::ComputePoint`] evaluates per tile point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputeKind {
    /// The full forward-plane stencil: centre + per-`m` xy-arms from the
    /// shared tile, z-terms from the pipeline (§III-B summation order).
    ForwardFull,
    /// The Eqn-(3) in-plane partial: centre + per-`m` xy-arms + the
    /// backward z-term from the z-history.
    InplanePartial,
    /// The Eqn-(5) fold: add `c(depth) · centre` into queue slot
    /// `depth`.
    FoldCentre {
        /// Pipeline depth `d` (1 ≤ d ≤ r): the queued plane `k − d`.
        depth: usize,
    },
}

/// One operation of a lowered execution plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOp {
    /// Allocate a zeroed working buffer.
    Alloc {
        /// Buffer to create (must be ≥ 2; 0/1 are the caller's grids).
        buf: BufId,
        /// Buffer dimensions.
        dims: (usize, usize, usize),
    },
    /// Copy a box of cells between buffers (scatter/gather traffic).
    CopyBox {
        /// Source buffer.
        src: BufId,
        /// Destination buffer.
        dst: BufId,
        /// Box origin in the source.
        src_org: (usize, usize, usize),
        /// Box origin in the destination.
        dst_org: (usize, usize, usize),
        /// Box extent.
        extent: (usize, usize, usize),
    },
    /// Start a thread block: allocates the shared tile and both register
    /// pipelines, and pre-loads the z-pipeline from the input buffer's
    /// planes `0 .. z_depth`.
    BeginBlock {
        /// Owning device (0 unless the plan was sharded).
        device: usize,
        /// Buffer the block reads.
        input: BufId,
        /// Buffer the block writes.
        output: BufId,
        /// Tile origin x.
        x0: usize,
        /// Tile origin y.
        y0: usize,
        /// Tile width.
        w: usize,
        /// Tile height.
        h: usize,
        /// z-pipeline depth in slots.
        z_depth: usize,
        /// Output-queue depth in slots.
        out_depth: usize,
    },
    /// Stage a rectangle of plane `plane` into the shared tile. Cells
    /// outside the grid are skipped (full-slice corners on edge tiles).
    StageRegion {
        /// Staging zone of the halo-framed tile the rectangle covers.
        zone: Zone,
        /// The staged rectangle, in grid coordinates.
        rect: PlanRect,
        /// The z-plane being staged.
        plane: usize,
        /// Register publish or global load.
        source: StageSource,
    },
    /// `__syncthreads()`: staged data becomes visible to all threads.
    Barrier,
    /// Evaluate `kind` at every tile point into out-queue slot `slot`.
    ComputePoint {
        /// The z-plane the computation reads.
        plane: usize,
        /// Destination out-queue slot.
        slot: usize,
        /// What to evaluate.
        kind: ComputeKind,
    },
    /// Rotate a register pipeline one step, refilling per `feed`.
    RotatePipeline {
        /// Which pipeline rotates.
        pipeline: PipelineKind,
        /// What refills the freed slot.
        feed: PipelineFeed,
    },
    /// Write out-queue slot `slot` to plane `plane` of the block's
    /// output buffer.
    WriteBack {
        /// Destination z-plane.
        plane: usize,
        /// Source out-queue slot.
        slot: usize,
    },
    /// Apply a boundary policy: copy the width-`r` ring from `input`
    /// into `output` (per [`Boundary`]).
    ApplyBoundary {
        /// Ring source.
        input: BufId,
        /// Ring destination.
        output: BufId,
        /// The policy.
        boundary: Boundary,
    },
    /// Swap two owned working buffers (the Jacobi pointer swap).
    SwapBufs {
        /// First buffer.
        a: BufId,
        /// Second buffer.
        b: BufId,
    },
    /// Move one xy-plane between device-local buffers over the
    /// interconnect (counted as halo traffic).
    HaloExchange {
        /// Receiving device.
        device: usize,
        /// Owning neighbour's buffer.
        src: BufId,
        /// Receiver's buffer.
        dst: BufId,
        /// Plane index in the source buffer.
        src_plane: usize,
        /// Plane index in the destination buffer.
        dst_plane: usize,
    },
}

/// Structural summary of a plan (op census), used by tests and the
/// static analyzer's cross-checks. Areas are pre-clip: cells a region
/// *asks* to stage, before edge clipping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// `BeginBlock` ops.
    pub blocks: u64,
    /// `StageRegion` ops.
    pub stage_regions: u64,
    /// Requested staged cells per zone ([`Zone::index`] order).
    pub staged_area_by_zone: [u64; 6],
    /// `Barrier` ops.
    pub barriers: u64,
    /// `ComputePoint` ops.
    pub computes: u64,
    /// `RotatePipeline` ops.
    pub rotations: u64,
    /// `WriteBack` ops.
    pub writebacks: u64,
    /// `HaloExchange` ops.
    pub halo_exchanges: u64,
}

/// A lowered execution plan: a typed program the single interpreter in
/// [`crate::exec`] runs. See the module docs for the op vocabulary.
#[derive(Clone, Debug, PartialEq)]
pub struct StagePlan {
    /// The method the plan was lowered from.
    pub method: Method,
    /// Stencil radius the schedule is built for.
    pub radius: usize,
    /// Dimensions of the grids the plan's `INPUT_BUF`/`OUTPUT_BUF`
    /// refer to.
    pub dims: (usize, usize, usize),
    /// The program.
    pub ops: Vec<PlanOp>,
}

impl StagePlan {
    /// Barriers every lowered plane schedule issues: the stage barrier
    /// and the reuse barrier. The pricing model's
    /// `PlanePlan::syncthreads` and the `LNT-S003` proof both assert
    /// this count.
    pub const BARRIERS_PER_PLANE: usize = 2;

    /// Rewrite every buffer reference through `map` (plan transforms
    /// use this to retarget a base plan at device-local buffers).
    pub fn retarget_buffers(&mut self, map: impl Fn(BufId) -> BufId) {
        for op in &mut self.ops {
            match op {
                PlanOp::Alloc { buf, .. } => *buf = map(*buf),
                PlanOp::CopyBox { src, dst, .. } => {
                    *src = map(*src);
                    *dst = map(*dst);
                }
                PlanOp::BeginBlock { input, output, .. } => {
                    *input = map(*input);
                    *output = map(*output);
                }
                PlanOp::ApplyBoundary { input, output, .. } => {
                    *input = map(*input);
                    *output = map(*output);
                }
                PlanOp::SwapBufs { a, b } => {
                    *a = map(*a);
                    *b = map(*b);
                }
                PlanOp::HaloExchange { src, dst, .. } => {
                    *src = map(*src);
                    *dst = map(*dst);
                }
                PlanOp::StageRegion { .. }
                | PlanOp::Barrier
                | PlanOp::ComputePoint { .. }
                | PlanOp::RotatePipeline { .. }
                | PlanOp::WriteBack { .. } => {}
            }
        }
    }

    /// Tag every block-level op with `device` (shard transforms use
    /// this so stats can attribute work).
    pub fn tag_device(&mut self, device: usize) {
        for op in &mut self.ops {
            if let PlanOp::BeginBlock { device: d, .. } = op {
                *d = device;
            }
        }
    }

    /// The dimensions of every buffer the plan's op stream allocates,
    /// indexed by [`BufId`]: slots 0/1 are the caller's grids at
    /// [`StagePlan::dims`], and each [`PlanOp::Alloc`] appends its own
    /// extent in order. Static analyses seed their buffer state from
    /// this table and replay [`PlanOp::SwapBufs`] on their own copy, so
    /// clipping matches the interpreter cell for cell.
    pub fn buffer_dims(&self) -> Vec<(usize, usize, usize)> {
        let mut dims = vec![self.dims, self.dims];
        for op in &self.ops {
            if let PlanOp::Alloc { dims: d, .. } = op {
                dims.push(*d);
            }
        }
        dims
    }

    /// Count the plan's ops.
    pub fn census(&self) -> OpCensus {
        let mut c = OpCensus::default();
        for op in &self.ops {
            match op {
                PlanOp::BeginBlock { .. } => c.blocks += 1,
                PlanOp::StageRegion { zone, rect, .. } => {
                    c.stage_regions += 1;
                    c.staged_area_by_zone[zone.index()] += rect.area();
                }
                PlanOp::Barrier => c.barriers += 1,
                PlanOp::ComputePoint { .. } => c.computes += 1,
                PlanOp::RotatePipeline { .. } => c.rotations += 1,
                PlanOp::WriteBack { .. } => c.writebacks += 1,
                PlanOp::HaloExchange { .. } => c.halo_exchanges += 1,
                _ => {}
            }
        }
        c
    }
}

/// z-pipeline and out-queue depths for `method` at radius `r`: the
/// forward-plane keeps `2r + 1` z-values and a single output slot; the
/// in-plane keeps `r` trailing z-values and `r + 1` queued partials.
/// The pipeline *state* words (`z_depth + out_depth − 1`, the staged
/// slot being the accumulator) equal [`Method::pipeline_words`].
/// Read off the method's schedule skeleton.
pub fn pipeline_depths(method: Method, r: usize) -> (usize, usize) {
    let sk = method.skeleton(r);
    (sk.z_depth, sk.out_depth)
}

/// Lower one Jacobi step of `method` — the dispatcher every execution
/// path (single-step, temporal, multi-GPU) builds on: the method's
/// blueprint through the skeleton-driven [`lower_blueprint`].
pub fn lower_step(
    method: Method,
    config: &LaunchConfig,
    r: usize,
    dims: (usize, usize, usize),
) -> StagePlan {
    let (nx, ny, nz) = dims;
    assert!(
        nx > 2 * r && ny > 2 * r && nz > 2 * r,
        "grid {nx}x{ny}x{nz} too small for radius {r}"
    );
    lower_blueprint(&method.blueprint(config, r, dims))
}

/// The four corner-free halo arms of a tile `[ix0, ix1) × [iy0, iy1)`
/// with radius `ri`, zone-labelled.
pub(crate) fn halo_arms(
    ix0: isize,
    ix1: isize,
    iy0: isize,
    iy1: isize,
    ri: isize,
) -> [(Zone, PlanRect); 4] {
    [
        (Zone::Top, PlanRect::new(ix0, ix1, iy0 - ri, iy0)),
        (Zone::Bottom, PlanRect::new(ix0, ix1, iy1, iy1 + ri)),
        (Zone::Left, PlanRect::new(ix0 - ri, ix0, iy0, iy1)),
        (Zone::Right, PlanRect::new(ix1, ix1 + ri, iy0, iy1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Variant;

    #[test]
    fn forward_plan_census_counts_match_geometry() {
        // 10³ grid, r = 2 → 6×6 interior, 4×4 tiles (clipped) → 4
        // blocks, 6 output planes each.
        let plan = lower_step(
            Method::ForwardPlane,
            &LaunchConfig::new(4, 4, 1, 1),
            2,
            (10, 10, 10),
        );
        let c = plan.census();
        assert_eq!(c.blocks, 4);
        assert_eq!(c.barriers, 4 * 6 * StagePlan::BARRIERS_PER_PLANE as u64);
        assert_eq!(c.writebacks, 4 * 6);
        assert_eq!(c.computes, 4 * 6);
        // 5 regions per plane (interior + 4 arms), no corners.
        assert_eq!(c.stage_regions, 4 * 6 * 5);
        assert_eq!(c.staged_area_by_zone[Zone::Corner.index()], 0);
        // Tile interiors tile the 6×6 grid interior exactly once.
        assert_eq!(c.staged_area_by_zone[Zone::Interior.index()], 6 * 36);
        // One rotation per plane except the last.
        assert_eq!(c.rotations, 4 * 5);
        assert_eq!(c.halo_exchanges, 0);
    }

    #[test]
    fn fullslice_stages_corners_the_other_variants_skip() {
        let dims = (12, 12, 8);
        let cfg = LaunchConfig::new(4, 4, 1, 1);
        let fs = lower_step(Method::InPlane(Variant::FullSlice), &cfg, 2, dims).census();
        let hz = lower_step(Method::InPlane(Variant::Horizontal), &cfg, 2, dims).census();
        assert!(fs.staged_area_by_zone[Zone::Corner.index()] > 0);
        assert_eq!(hz.staged_area_by_zone[Zone::Corner.index()], 0);
        // Identical everywhere else.
        for z in [
            Zone::Interior,
            Zone::Top,
            Zone::Bottom,
            Zone::Left,
            Zone::Right,
        ] {
            assert_eq!(
                fs.staged_area_by_zone[z.index()],
                hz.staged_area_by_zone[z.index()],
                "{z:?}"
            );
        }
    }

    #[test]
    fn inplane_schedule_has_two_barriers_per_staged_plane() {
        let plan = lower_step(
            Method::InPlane(Variant::Vertical),
            &LaunchConfig::new(8, 8, 1, 1),
            1,
            (10, 10, 9),
        );
        let c = plan.census();
        // One block; planes k = 1..9 staged (8 planes).
        assert_eq!(c.blocks, 1);
        assert_eq!(c.barriers, 8 * StagePlan::BARRIERS_PER_PLANE as u64);
        // Queue + z-history rotate every plane.
        assert_eq!(c.rotations, 2 * 8);
    }

    #[test]
    fn pipeline_depths_sum_to_method_words() {
        for r in 1..=5 {
            for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
                let (z, q) = pipeline_depths(method, r);
                assert_eq!(z + q - 1, method.pipeline_words(r), "{method} r={r}");
            }
        }
    }

    #[test]
    fn clipped_area_matches_per_cell_counting() {
        let r = PlanRect::new(-2, 5, 3, 9);
        let (nx, ny) = (4usize, 7usize);
        let mut cells = 0u64;
        for y in r.y0..r.y1 {
            for x in r.x0..r.x1 {
                if x >= 0 && (x as usize) < nx && y >= 0 && (y as usize) < ny {
                    cells += 1;
                }
            }
        }
        assert_eq!(r.clipped_area(nx, ny), cells);
        // An in-bounds rectangle is unchanged by clipping.
        let inb = PlanRect::new(1, 5, 2, 6);
        assert_eq!(inb.clipped_area(8, 8), inb.area());
        // Fully outside: degenerate, zero cells.
        assert_eq!(PlanRect::new(-4, -1, 0, 3).clipped_area(8, 8), 0);
    }

    #[test]
    fn buffer_dims_lists_caller_grids_then_allocs() {
        let mut plan = lower_step(
            Method::ForwardPlane,
            &LaunchConfig::new(4, 4, 1, 1),
            1,
            (6, 6, 6),
        );
        assert_eq!(plan.buffer_dims(), vec![(6, 6, 6), (6, 6, 6)]);
        plan.ops.insert(
            0,
            PlanOp::Alloc {
                buf: 2,
                dims: (3, 4, 5),
            },
        );
        assert_eq!(plan.buffer_dims()[2], (3, 4, 5));
        assert_eq!(plan.buffer_dims().len(), 3);
    }

    #[test]
    fn retarget_rewrites_every_buffer_reference() {
        let mut plan = lower_step(
            Method::ForwardPlane,
            &LaunchConfig::new(4, 4, 1, 1),
            1,
            (6, 6, 6),
        );
        plan.retarget_buffers(|b| b + 10);
        for op in &plan.ops {
            if let PlanOp::BeginBlock { input, output, .. } = op {
                assert_eq!((*input, *output), (10, 11));
            }
        }
    }
}
