//! The static traffic oracle: interpreter counters predicted from the
//! plan alone.
//!
//! [`predict_stats`] walks a lowered [`StagePlan`]'s op stream with no
//! grid data at all — just the buffer-dims table and the block tile
//! geometry — and reproduces every [`ExecStats`] counter the
//! instrumented interpreter would report, cell for cell: staging is
//! clipped with [`inplane_core::plan::PlanRect::clipped_area`] exactly where the
//! interpreter skips out-of-grid cells, `planes_staged` follows the
//! same per-block restage trigger, halo volumes use the source
//! buffer's *current* dims (swaps replayed). The
//! `static_dynamic_traffic` differential suite asserts exact equality
//! over the full method × precision × config matrix, which turns the
//! IR into a verified performance-model artifact: the paper's traffic
//! terms (Eqns 6–14) can be evaluated on the plan without running it.
//!
//! [`predict_traffic_on`] adds the byte- and transaction-level figures
//! a word width implies: global-load cells split from register-publish
//! staging, per-row coalesced transaction counts, and byte volumes for
//! stores, halo moves and gathers. It and [`predict_kernel_traffic_on`]
//! take the segment size from a [`gpu_sim::DeviceSpec`]'s
//! `coalesce_segment_bytes`, so wave64/GCN parts with 64-byte segments
//! get exact per-architecture transaction figures; the counters and
//! byte volumes are segment-independent by construction.

use inplane_core::plan::{PipelineFeed, PipelineKind, PlanOp, StagePlan, StageSource, OUTPUT_BUF};
use inplane_core::resources::vector_width;
use inplane_core::routine::LoadPattern;
use inplane_core::{ExecStats, KernelSpec};
use std::collections::BTreeMap;
use stencil_grid::Precision;

/// Byte/transaction figures derived from the predicted counters for
/// one word width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficOracle {
    /// The predicted interpreter counters (see [`predict_stats`]).
    pub stats: ExecStats,
    /// Word width the byte figures use.
    pub word_bytes: u64,
    /// Memory-segment size the transaction figures were counted
    /// against (the device's `coalesce_segment_bytes`).
    pub segment_bytes: u64,
    /// Cells loaded from global memory by blocks: `Global`-source
    /// staging plus pipeline preloads and `GlobalPlane` rotation feeds
    /// (register publishes excluded — they cost no global traffic).
    pub global_load_cells: u64,
    /// Coalesced transactions those loads take, row by row, against
    /// [`Self::segment_bytes`] segments of the row-major layout.
    pub load_transactions: u64,
    /// All staged cells (both sources) in bytes.
    pub staged_bytes: u64,
    /// Write-back traffic in bytes.
    pub store_bytes: u64,
    /// Interconnect halo traffic in bytes.
    pub halo_bytes: u64,
    /// Gather (copy-out) traffic in bytes.
    pub gather_bytes: u64,
}

impl TrafficOracle {
    /// Redundant-work factor implied by the predicted counters
    /// (identical to [`ExecStats::redundancy`] on the dynamic side).
    pub fn redundancy(&self) -> f64 {
        self.stats.redundancy()
    }

    /// JSON object rendering (hand-rolled; the workspace is std-only).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let zones: Vec<String> = s
            .staged_cells_by_zone
            .iter()
            .map(|n| n.to_string())
            .collect();
        format!(
            "{{\"word_bytes\":{},\"segment_bytes\":{},\"blocks\":{},\"planes_staged\":{},\
             \"cells_staged\":{},\
             \"staged_cells_by_zone\":[{}],\"global_writes\":{},\"barriers\":{},\
             \"pipeline_rotations\":{},\"points_computed\":{},\"halo_planes_exchanged\":{},\
             \"halo_cells_exchanged\":{},\"cells_copied_out\":{},\"global_load_cells\":{},\
             \"load_transactions\":{},\"staged_bytes\":{},\"store_bytes\":{},\
             \"halo_bytes\":{},\"gather_bytes\":{},\"redundancy\":{}}}",
            self.word_bytes,
            self.segment_bytes,
            s.blocks,
            s.planes_staged,
            s.cells_staged,
            zones.join(","),
            s.global_writes,
            s.barriers,
            s.pipeline_rotations,
            s.points_computed,
            s.halo_planes_exchanged,
            s.halo_cells_exchanged,
            s.cells_copied_out,
            self.global_load_cells,
            self.load_transactions,
            self.staged_bytes,
            self.store_bytes,
            self.halo_bytes,
            self.gather_bytes,
            self.redundancy(),
        )
    }
}

/// Per-block geometry the walk needs.
struct BlockGeom {
    input: usize,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    cur_plane: Option<usize>,
}

/// Transactions one row of `len` cells takes, starting at linear cell
/// index `base` of a row-major buffer, with `b`-byte words against
/// `seg`-byte memory segments.
pub(crate) fn row_transactions(base: u64, len: u64, b: u64, seg: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let lo = base * b;
    let hi = (base + len - 1) * b + (b - 1);
    hi / seg - lo / seg + 1
}

/// One pass over the op stream computing both the counter mirror and
/// the byte/transaction extras, against `seg`-byte memory segments.
fn simulate(plan: &StagePlan, word_bytes: u64, seg: u64) -> TrafficOracle {
    let mut dims: Vec<(usize, usize, usize)> = vec![plan.dims, plan.dims];
    let mut stats = ExecStats::default();
    let mut block: Option<BlockGeom> = None;
    let mut global_load_cells = 0u64;
    let mut load_transactions = 0u64;

    // A rectangular load of `rect` rows on `plane` of buffer `buf`.
    let load_rect = |dims: &[(usize, usize, usize)],
                     buf: usize,
                     plane: usize,
                     x0: u64,
                     x1: u64,
                     y0: u64,
                     y1: u64,
                     cells: &mut u64,
                     txns: &mut u64| {
        let (nx, ny, _) = dims[buf];
        for y in y0..y1 {
            let base = (plane as u64 * ny as u64 + y) * nx as u64 + x0;
            let len = x1 - x0;
            *cells += len;
            *txns += row_transactions(base, len, word_bytes, seg);
        }
    };

    for op in &plan.ops {
        match *op {
            PlanOp::Alloc { dims: d, .. } => dims.push(d),
            PlanOp::CopyBox { dst, extent, .. } => {
                if dst == OUTPUT_BUF {
                    stats.cells_copied_out += (extent.0 * extent.1 * extent.2) as u64;
                }
            }
            PlanOp::BeginBlock {
                input,
                x0,
                y0,
                w,
                h,
                z_depth,
                ..
            } => {
                stats.blocks += 1;
                for p in 0..z_depth {
                    load_rect(
                        &dims,
                        input,
                        p,
                        x0 as u64,
                        (x0 + w) as u64,
                        y0 as u64,
                        (y0 + h) as u64,
                        &mut global_load_cells,
                        &mut load_transactions,
                    );
                }
                block = Some(BlockGeom {
                    input,
                    x0,
                    y0,
                    w,
                    h,
                    cur_plane: None,
                });
            }
            PlanOp::StageRegion {
                zone,
                rect,
                plane,
                source,
            } => {
                let blk = block.as_mut().expect("StageRegion outside a block");
                if blk.cur_plane != Some(plane) {
                    blk.cur_plane = Some(plane);
                    stats.planes_staged += 1;
                }
                let (nx, ny, _) = dims[blk.input];
                let cells = rect.clipped_area(nx, ny);
                stats.cells_staged += cells;
                stats.staged_cells_by_zone[zone.index()] += cells;
                if source == StageSource::Global {
                    let c = rect.clipped(nx, ny);
                    if c.area() > 0 {
                        load_rect(
                            &dims,
                            blk.input,
                            plane,
                            c.x0 as u64,
                            c.x1 as u64,
                            c.y0 as u64,
                            c.y1 as u64,
                            &mut global_load_cells,
                            &mut load_transactions,
                        );
                    }
                }
            }
            PlanOp::Barrier => stats.barriers += 1,
            PlanOp::ComputePoint { kind, .. } => {
                let blk = block.as_ref().expect("ComputePoint outside a block");
                if !matches!(kind, inplane_core::plan::ComputeKind::FoldCentre { .. }) {
                    stats.points_computed += (blk.w * blk.h) as u64;
                }
            }
            PlanOp::RotatePipeline { pipeline, feed } => {
                stats.pipeline_rotations += 1;
                if let (PipelineKind::ZValues, PipelineFeed::GlobalPlane(kp)) = (pipeline, feed) {
                    let blk = block.as_ref().expect("RotatePipeline outside a block");
                    load_rect(
                        &dims,
                        blk.input,
                        kp,
                        blk.x0 as u64,
                        (blk.x0 + blk.w) as u64,
                        blk.y0 as u64,
                        (blk.y0 + blk.h) as u64,
                        &mut global_load_cells,
                        &mut load_transactions,
                    );
                }
            }
            PlanOp::WriteBack { .. } => {
                let blk = block.as_ref().expect("WriteBack outside a block");
                stats.global_writes += (blk.w * blk.h) as u64;
            }
            PlanOp::ApplyBoundary { .. } => {}
            PlanOp::SwapBufs { a, b } => dims.swap(a, b),
            PlanOp::HaloExchange { src, .. } => {
                let (nx, ny, _) = dims[src];
                stats.halo_planes_exchanged += 1;
                stats.halo_cells_exchanged += (nx * ny) as u64;
            }
        }
    }

    TrafficOracle {
        word_bytes,
        segment_bytes: seg,
        global_load_cells,
        load_transactions,
        staged_bytes: stats.cells_staged * word_bytes,
        store_bytes: stats.global_writes * word_bytes,
        halo_bytes: stats.halo_cells_exchanged * word_bytes,
        gather_bytes: stats.cells_copied_out * word_bytes,
        stats,
    }
}

/// Predict the instrumented interpreter's [`ExecStats`] for `plan`
/// without running it. The `static_dynamic_traffic` suite asserts
/// exact equality (zero tolerance) against [`inplane_core`]'s
/// interpreter across every method, precision and configuration.
pub fn predict_stats(plan: &StagePlan) -> ExecStats {
    // The counters read neither the word width nor the segment size;
    // one-byte words in one-byte segments keep the figures beside them
    // trivial.
    simulate(plan, 1, 1).stats
}

/// Predict the full traffic picture — counters plus bytes and
/// coalesced transactions — for `plan` at `precision` against
/// `device`'s memory-segment geometry: transactions are counted over
/// `device.coalesce_segment_bytes` segments (64 bytes on GCN-class
/// wave64 parts). Counters and byte volumes are the same on every
/// device.
pub fn predict_traffic_on(
    plan: &StagePlan,
    precision: Precision,
    device: &gpu_sim::DeviceSpec,
) -> TrafficOracle {
    simulate(
        plan,
        precision.bytes() as u64,
        device.coalesce_segment_bytes,
    )
}

/// Per-plane global-load figures of one emitted kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneTraffic {
    /// Cells loaded from global memory while this plane is current.
    pub cells: u64,
    /// Coalesced transactions those loads take against the *padded*
    /// host layout, over the device's `coalesce_segment_bytes`.
    pub transactions: u64,
}

/// The kernel-side traffic oracle: per-plane global loads and
/// write-backs exactly as the *emitted* kernel issues them.
///
/// This differs from [`TrafficOracle`] in two deliberate ways: rows
/// use the generated host allocator's segment-padded stride (the plan
/// oracle uses the logical `nx`), and staging extents follow the
/// emitter — vector-extended slabs when `r % VW != 0`, `VW`-rounded
/// sweep spans. The kernel verifier (`LNT-K005`) re-derives the same
/// map from the kernel AST's load events and asserts exact equality,
/// proving oracle, plan and emitted text agree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelTraffic {
    /// Word width in bytes.
    pub word_bytes: u64,
    /// Per-global-plane load figures.
    pub loads: BTreeMap<u64, PlaneTraffic>,
    /// Per-global-plane write-back cell counts.
    pub stores: BTreeMap<u64, u64>,
}

impl KernelTraffic {
    /// Total cells loaded across all planes.
    pub fn total_load_cells(&self) -> u64 {
        self.loads.values().map(|p| p.cells).sum()
    }

    /// Total coalesced load transactions across all planes.
    pub fn total_load_transactions(&self) -> u64 {
        self.loads.values().map(|p| p.transactions).sum()
    }

    /// Total cells written back across all planes.
    pub fn total_store_cells(&self) -> u64 {
        self.stores.values().sum()
    }
}

/// The segment-aligned row stride (in elements) the generated host
/// code allocates on `device`: `ceil(nx·b / seg) · (seg / b)` over its
/// `coalesce_segment_bytes` — the `STRIDE` `#define` of
/// `generate_host_harness_on`.
pub(crate) fn padded_stride_on(nx: usize, elem_bytes: usize, device: &gpu_sim::DeviceSpec) -> u64 {
    let (b, seg) = (elem_bytes as u64, device.coalesce_segment_bytes);
    (nx as u64 * b).div_ceil(seg) * (seg / b)
}

/// State threaded through the kernel-oracle plan walk.
struct KernelWalk {
    out: KernelTraffic,
    stride: u64,
    pstride: u64,
    word_bytes: u64,
    segment_bytes: u64,
}

impl KernelWalk {
    /// Count the loads of a `w × h` row-aligned region at `(x_lo, y_lo)`
    /// of global plane `plane`.
    fn region(&mut self, plane: usize, x_lo: i64, w: i64, y_lo: i64, h: i64) {
        if w <= 0 || h <= 0 {
            return;
        }
        let entry = self.out.loads.entry(plane as u64).or_default();
        for y in y_lo..y_lo + h {
            let base = plane as u64 * self.pstride + y as u64 * self.stride + x_lo as u64;
            entry.cells += w as u64;
            entry.transactions +=
                row_transactions(base, w as u64, self.word_bytes, self.segment_bytes);
        }
    }
}

/// Re-derive the per-plane traffic the generated kernel issues for
/// `plan` (a single-step lowering of `spec.method`), against the
/// padded host layout `device`'s `coalesce_segment_bytes` implies:
/// both the stride and the transaction counts follow the device's
/// segment size, exactly as the generated host harness allocates.
///
/// The walk mirrors the emitters region for region: pipeline preloads
/// and `GlobalPlane` rotation feeds load the interior tile; each
/// staged plane loads the routine's pattern — scalar interior + four
/// halo arms, vertical slab + side columns, horizontal full-width rows,
/// or the corner-including full-slice sweep. Extents reproduce the
/// emitted arithmetic exactly, including the `VW`-aligned slab
/// extension when `r % VW != 0` and the `VW`-rounded sweep span.
pub fn predict_kernel_traffic_on(
    plan: &StagePlan,
    spec: &KernelSpec,
    device: &gpu_sim::DeviceSpec,
) -> KernelTraffic {
    let r = plan.radius as i64;
    let vw = vector_width(spec).max(1) as i64;
    let routine = plan.method.routine();
    let pattern = routine.load_pattern();
    let interior_global = routine.skeleton(plan.radius).interior_source == StageSource::Global;
    let (nx, ny, _) = plan.dims;
    let stride = padded_stride_on(nx, spec.elem_bytes, device);
    let mut walk = KernelWalk {
        out: KernelTraffic {
            word_bytes: spec.elem_bytes as u64,
            ..KernelTraffic::default()
        },
        stride,
        pstride: stride * ny as u64,
        word_bytes: spec.elem_bytes as u64,
        segment_bytes: device.coalesce_segment_bytes,
    };

    struct Blk {
        x0: i64,
        y0: i64,
        w: i64,
        h: i64,
        cur_plane: Option<usize>,
    }
    let mut blk: Option<Blk> = None;

    for op in &plan.ops {
        match *op {
            PlanOp::BeginBlock {
                x0,
                y0,
                w,
                h,
                z_depth,
                ..
            } => {
                // Pipeline preload: the interior tile on the first
                // `z_depth` planes.
                for p in 0..z_depth {
                    walk.region(p, x0 as i64, w as i64, y0 as i64, h as i64);
                }
                blk = Some(Blk {
                    x0: x0 as i64,
                    y0: y0 as i64,
                    w: w as i64,
                    h: h as i64,
                    cur_plane: None,
                });
            }
            PlanOp::StageRegion { plane, .. } => {
                let bb = blk.as_mut().expect("StageRegion outside a block");
                if bb.cur_plane == Some(plane) {
                    continue;
                }
                bb.cur_plane = Some(plane);
                let (x0, y0, w, h) = (bb.x0, bb.y0, bb.w, bb.h);
                let xs = x0 - r;
                // Exact extents when the halo is vector-aligned; the
                // emitters fall back to VW-extended slabs otherwise.
                let (ext_lo, ext_w) = if r % vw == 0 {
                    (x0, w)
                } else {
                    ((x0 / vw) * vw, (w / vw + 1) * vw)
                };
                let span = (w + 2 * r + vw - 1) / vw * vw;
                match pattern {
                    LoadPattern::ScalarRegions => {
                        if interior_global {
                            walk.region(plane, x0, w, y0, h);
                        }
                        walk.region(plane, x0, w, y0 - r, r);
                        walk.region(plane, x0, w, y0 + h, r);
                        walk.region(plane, x0 - r, r, y0, h);
                        walk.region(plane, x0 + w, r, y0, h);
                    }
                    LoadPattern::VerticalSlab => {
                        walk.region(plane, ext_lo, ext_w, y0 - r, h + 2 * r);
                        walk.region(plane, x0 - r, r, y0, h);
                        walk.region(plane, x0 + w, r, y0, h);
                    }
                    LoadPattern::HorizontalRows => {
                        walk.region(plane, xs, span, y0, h);
                        walk.region(plane, ext_lo, ext_w, y0 - r, r);
                        walk.region(plane, ext_lo, ext_w, y0 + h, r);
                    }
                    LoadPattern::FullSliceSweep => {
                        walk.region(plane, xs, span, y0 - r, h + 2 * r);
                    }
                }
            }
            PlanOp::RotatePipeline { pipeline, feed } => {
                if let (PipelineKind::ZValues, PipelineFeed::GlobalPlane(kp)) = (pipeline, feed) {
                    let bb = blk.as_ref().expect("RotatePipeline outside a block");
                    walk.region(kp, bb.x0, bb.w, bb.y0, bb.h);
                }
            }
            PlanOp::WriteBack { plane, .. } => {
                let bb = blk.as_ref().expect("WriteBack outside a block");
                *walk.out.stores.entry(plane as u64).or_insert(0) += (bb.w * bb.h) as u64;
            }
            _ => {}
        }
    }

    walk.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use inplane_core::plan::lower_step;
    use inplane_core::{interpret_plan, LaunchConfig, Method, Variant};
    use stencil_grid::{FillPattern, Grid3, StarStencil};

    #[test]
    fn row_transactions_count_touched_segments() {
        // 32 f32 words aligned on a 128-byte segment: one transaction.
        assert_eq!(row_transactions(0, 32, 4, 128), 1);
        // Misaligned by one word: spills into a second segment.
        assert_eq!(row_transactions(1, 32, 4, 128), 2);
        // f64 halves the words per segment.
        assert_eq!(row_transactions(0, 32, 8, 128), 2);
        assert_eq!(row_transactions(0, 0, 4, 128), 0);
        // Single cell: always one transaction.
        assert_eq!(row_transactions(1023, 1, 8, 128), 1);
        // 64-byte segments double the aligned figure and can never
        // need fewer transactions than 128-byte ones.
        assert_eq!(row_transactions(0, 32, 4, 64), 2);
        assert_eq!(row_transactions(1, 32, 4, 64), 3);
        assert_eq!(row_transactions(0, 16, 4, 64), 1);
    }

    #[test]
    fn oracle_matches_the_interpreter_on_a_single_step() {
        for method in [
            Method::ForwardPlane,
            Method::InPlane(Variant::FullSlice),
            Method::InPlane(Variant::Horizontal),
        ] {
            let plan = lower_step(method, &LaunchConfig::new(4, 4, 1, 1), 2, (12, 12, 10));
            let s: StarStencil<f32> = StarStencil::from_order(4);
            let input: Grid3<f32> = FillPattern::HashNoise.build(12, 12, 10);
            let mut out = Grid3::new(12, 12, 10);
            let dynamic = interpret_plan(&plan, &s, &input, &mut out);
            assert_eq!(predict_stats(&plan), dynamic, "{method}");
        }
    }

    #[test]
    fn byte_figures_scale_with_precision() {
        let plan = lower_step(
            Method::InPlane(Variant::Vertical),
            &LaunchConfig::new(4, 4, 1, 1),
            1,
            (10, 10, 8),
        );
        let gtx580 = DeviceSpec::gtx580();
        let sp = predict_traffic_on(&plan, Precision::Single, &gtx580);
        let dp = predict_traffic_on(&plan, Precision::Double, &gtx580);
        assert_eq!(sp.stats, dp.stats, "counters are word-width independent");
        assert_eq!(dp.staged_bytes, 2 * sp.staged_bytes);
        assert_eq!(dp.store_bytes, 2 * sp.store_bytes);
        assert!(dp.load_transactions >= sp.load_transactions);
        assert!(sp.global_load_cells > 0);
        assert!(sp.load_transactions > 0);
        let j = dp.to_json();
        assert!(j.contains("\"word_bytes\":8"));
        assert!(j.contains("\"load_transactions\":"));
    }

    #[test]
    fn padded_stride_rounds_rows_to_whole_segments() {
        let (gtx580, hd7970) = (DeviceSpec::gtx580(), DeviceSpec::hd7970());
        // 12 f32 words = 48 bytes -> one 128-byte segment = 32 words.
        assert_eq!(padded_stride_on(12, 4, &gtx580), 32);
        // 33 f32 words = 132 bytes -> two segments = 64 words.
        assert_eq!(padded_stride_on(33, 4, &gtx580), 64);
        // 16 f64 words fill a segment exactly.
        assert_eq!(padded_stride_on(16, 8, &gtx580), 16);
        // 64-byte granules pad half as far: 12 f32 words -> 16.
        assert_eq!(padded_stride_on(12, 4, &hd7970), 16);
        assert_eq!(padded_stride_on(33, 4, &hd7970), 48);
        assert_eq!(padded_stride_on(16, 8, &hd7970), 16);
    }

    #[test]
    fn device_segment_geometry_changes_transactions_only() {
        let plan = lower_step(
            Method::InPlane(Variant::FullSlice),
            &LaunchConfig::new(8, 4, 1, 1),
            2,
            (20, 12, 9),
        );
        let fermi = predict_traffic_on(&plan, Precision::Single, &DeviceSpec::gtx580());
        let wave64 = predict_traffic_on(&plan, Precision::Single, &DeviceSpec::hd7970());
        let ampere = predict_traffic_on(&plan, Precision::Single, &DeviceSpec::rtx3090());
        // Counters and byte volumes are segment-independent.
        assert_eq!(fermi.stats, wave64.stats);
        assert_eq!(fermi.global_load_cells, wave64.global_load_cells);
        assert_eq!(fermi.staged_bytes, wave64.staged_bytes);
        assert_eq!(fermi.store_bytes, wave64.store_bytes);
        // A 64-byte segment can only split, never merge, transactions.
        assert!(wave64.load_transactions >= fermi.load_transactions);
        assert_eq!(wave64.segment_bytes, 64);
        // Ampere keeps the legacy 128-byte padding granule.
        assert_eq!(ampere, fermi);
        assert!(wave64.to_json().contains("\"segment_bytes\":64"));
    }

    #[test]
    fn kernel_oracle_matches_plan_cells_on_aligned_configs() {
        use inplane_core::Method;
        // When the staging extents are exact (r % VW == 0), the
        // kernel-side oracle must agree with the plan oracle on total
        // load cells and stores — only the transaction figures differ
        // (padded vs logical stride).
        for (method, order, config, dims) in [
            (
                Method::ForwardPlane,
                4,
                LaunchConfig::new(4, 4, 1, 1),
                (12, 12, 9),
            ),
            (
                Method::InPlane(Variant::Vertical),
                8,
                LaunchConfig::new(8, 2, 1, 2),
                (16, 12, 10),
            ),
            (
                Method::InPlane(Variant::Horizontal),
                8,
                LaunchConfig::new(8, 2, 1, 2),
                (16, 12, 10),
            ),
            (
                Method::InPlane(Variant::FullSlice),
                8,
                LaunchConfig::new(8, 2, 1, 2),
                (16, 12, 10),
            ),
        ] {
            let spec = KernelSpec::star_order(method, order, Precision::Single);
            let plan = lower_step(method, &config, spec.radius, dims);
            let gtx580 = DeviceSpec::gtx580();
            let kt = predict_kernel_traffic_on(&plan, &spec, &gtx580);
            let po = predict_traffic_on(&plan, Precision::Single, &gtx580);
            assert_eq!(kt.total_load_cells(), po.global_load_cells, "{method}");
            assert_eq!(kt.total_store_cells(), po.stats.global_writes, "{method}");
            assert!(kt.total_load_transactions() > 0, "{method}");
            assert!(kt.loads.len() >= dims.2 - 2 * spec.radius, "{method}");
        }
    }
}
