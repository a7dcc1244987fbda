//! Region builders: lowering rectangular load regions to warp
//! instructions.
//!
//! A load *region* is a rectangle of the current plane (rows × column
//! span) plus a policy for how threads are assigned to its elements:
//!
//! * [`Assignment::PerRow`] — each row is loaded by threads indexed along
//!   x, as the SDK's classical pattern does: one warp instruction per
//!   `warp_size·v` span per row; short rows leave lanes idle.
//! * [`Assignment::Packed`] — the paper's warp-based assignment
//!   (§III-C2): the region is linearised row-major and consecutive lanes
//!   take consecutive (vector) elements, continuing across row
//!   boundaries, so every instruction (except the last) has full lanes.
//! * [`Assignment::ColumnMajor`] — the region is linearised
//!   column-by-column (x fastest within the halo width, then y). This is
//!   how the *vertical* variant's left/right halo columns are serviced;
//!   consecutive lanes land in different rows, which is what makes that
//!   pattern collapse for high-order stencils (Fig 7).
//!
//! Vectorised regions honour the §III-C2 alignment rule by *extending*
//! the span to vector boundaries — redundant elements at the fringe are
//! genuinely requested, exactly like the full-slice corners.

use crate::layout::TileGeometry;
use gpu_sim::{TrafficCounter, WarpLoad};

/// Thread-to-element assignment policy for a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// Row-at-a-time, threads along x (classical).
    PerRow,
    /// Warp-based row-major packing across the whole region.
    Packed,
    /// Column-major packing (vertical variant's side halos).
    ColumnMajor,
}

/// A rectangular load region on the current plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Column span `[x_start, x_end)` in absolute grid coordinates.
    pub x: (isize, isize),
    /// Row span `[y_start, y_end)`.
    pub y: (isize, isize),
    /// Elements loaded per lane per instruction (1 = scalar; 2/4 =
    /// `double2`/`float4` vector loads).
    pub vector_width: usize,
    /// Assignment policy.
    pub assignment: Assignment,
}

impl Region {
    /// Width in elements after vector-alignment extension.
    pub fn extended_x(&self) -> (isize, isize) {
        let v = self.vector_width as isize;
        let (xs, xe) = self.x;
        (
            xs.div_euclid(v) * v,
            xe.div_euclid(v) * v + if xe.rem_euclid(v) != 0 { v } else { 0 },
        )
    }

    /// Number of elements the region requests (after extension).
    pub fn elems(&self) -> usize {
        let (xs, xe) = self.extended_x();
        let (ys, ye) = self.y;
        ((xe - xs).max(0) as usize) * ((ye - ys).max(0) as usize)
    }

    /// Lower this region to warp instructions against `geom`, lane
    /// addresses and all — the per-lane reference the tests check
    /// [`Region::count`] and the counted plans against.
    pub fn lower(&self, geom: &TileGeometry, warp_size: usize) -> Vec<WarpLoad> {
        let mut out = Vec::new();
        self.for_each_instruction(geom, warp_size, |lanes, bytes_per_lane| {
            out.push(WarpLoad {
                lane_addresses: lanes.to_vec(),
                bytes_per_lane,
            })
        });
        out
    }

    /// Count this region's warp instructions into `counter` — the same
    /// instructions as [`Region::lower`], with no lane address kept.
    pub fn count(&self, geom: &TileGeometry, warp_size: usize, counter: &mut TrafficCounter) {
        self.for_each_instruction(geom, warp_size, |lanes, bytes_per_lane| {
            counter.record(lanes, bytes_per_lane)
        });
    }

    /// The one address generator: call `emit(lane_addresses,
    /// bytes_per_lane)` for each warp instruction in issue order, with
    /// the lanes in one reused buffer.
    fn for_each_instruction(
        &self,
        geom: &TileGeometry,
        warp_size: usize,
        mut emit: impl FnMut(&[u64], u64),
    ) {
        let v = self.vector_width;
        let bytes_per_lane = geom.elem_bytes * v as u64;
        let (xs, xe) = self.extended_x();
        let (ys, ye) = self.y;
        if xs >= xe || ys >= ye {
            return;
        }
        let width = (xe - xs) as usize;
        debug_assert_eq!(width % v, 0, "extended span must be a vector multiple");
        let vecs_per_row = width / v;
        let rows = (ye - ys) as usize;
        // Element address of vector granule `col` in region row `row`.
        let addr = |col: usize, row: usize| geom.addr(xs + (col * v) as isize, ys + row as isize);
        let mut lanes: Vec<u64> = Vec::with_capacity(warp_size);

        match self.assignment {
            Assignment::PerRow => {
                // One warp instruction per warp-sized group of vector
                // elements within each row.
                for row in 0..rows {
                    let mut lane0 = 0usize;
                    while lane0 < vecs_per_row {
                        let n = (vecs_per_row - lane0).min(warp_size);
                        lanes.clear();
                        lanes.extend((lane0..lane0 + n).map(|col| addr(col, row)));
                        emit(&lanes, bytes_per_lane);
                        lane0 += n;
                    }
                }
            }
            Assignment::Packed | Assignment::ColumnMajor => {
                // Packed linearises row-major (vector granules) and fills
                // warps across row boundaries. ColumnMajor linearises
                // y-fastest (walk down each halo column, then move to the
                // next): adjacent lanes land in different rows, so every
                // instruction touches as many segments as it has distinct
                // rows — the vertical variant's pathology. Scalar in
                // practice (v = 1).
                let total = vecs_per_row * rows;
                let mut idx = 0usize;
                while idx < total {
                    let n = (total - idx).min(warp_size);
                    lanes.clear();
                    lanes.extend((idx..idx + n).map(|g| match self.assignment {
                        Assignment::ColumnMajor => addr(g / rows, g % rows),
                        _ => addr(g % vecs_per_row, g / vecs_per_row),
                    }));
                    emit(&lanes, bytes_per_lane);
                    idx += n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LaunchConfig;
    use gpu_sim::coalesce_transactions;

    fn geom() -> TileGeometry {
        TileGeometry::interior(&LaunchConfig::new(32, 8, 1, 1), 2, 4, 512, 128)
    }

    #[test]
    fn per_row_aligned_row_is_one_instruction_one_transaction() {
        let g = geom();
        let region = Region {
            x: (32, 64),
            y: (8, 9),
            vector_width: 1,
            assignment: Assignment::PerRow,
        };
        let loads = region.lower(&g, 32);
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].active_lanes(), 32);
        assert_eq!(coalesce_transactions(&loads[0], 128), 1);
    }

    #[test]
    fn per_row_splits_wide_rows() {
        let g = geom();
        let region = Region {
            x: (0, 80),
            y: (8, 10),
            vector_width: 1,
            assignment: Assignment::PerRow,
        };
        let loads = region.lower(&g, 32);
        // 80 elems per row → 3 instrs per row (32+32+16), 2 rows.
        assert_eq!(loads.len(), 6);
        assert_eq!(loads[4].active_lanes(), 32);
        assert_eq!(loads[5].active_lanes(), 16);
    }

    #[test]
    fn packed_fills_lanes_across_rows() {
        let g = geom();
        // 40 × 2 slab, scalar: 80 elements = 2 full + 1 half warp instr.
        let region = Region {
            x: (30, 70),
            y: (8, 10),
            vector_width: 1,
            assignment: Assignment::Packed,
        };
        let loads = region.lower(&g, 32);
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[0].active_lanes(), 32);
        assert_eq!(loads[2].active_lanes(), 16);
    }

    #[test]
    fn vector_extension_aligns_span() {
        let region = Region {
            x: (30, 66),
            y: (0, 1),
            vector_width: 4,
            assignment: Assignment::Packed,
        };
        // [30, 66) extends to [28, 68): 40 elements, 10 float4 granules.
        assert_eq!(region.extended_x(), (28, 68));
        assert_eq!(region.elems(), 40);
    }

    #[test]
    fn vector_extension_handles_negative_start() {
        let region = Region {
            x: (-2, 7),
            y: (0, 1),
            vector_width: 4,
            assignment: Assignment::Packed,
        };
        assert_eq!(region.extended_x(), (-4, 8));
    }

    #[test]
    fn scalar_region_is_never_extended() {
        let region = Region {
            x: (30, 66),
            y: (0, 1),
            vector_width: 1,
            assignment: Assignment::PerRow,
        };
        assert_eq!(region.extended_x(), (30, 66));
    }

    #[test]
    fn vector_loads_reduce_instruction_count_4x() {
        let g = geom();
        let scalar = Region {
            x: (32, 160),
            y: (8, 12),
            vector_width: 1,
            assignment: Assignment::Packed,
        };
        let vec4 = Region {
            x: (32, 160),
            y: (8, 12),
            vector_width: 4,
            assignment: Assignment::Packed,
        };
        let n_scalar = scalar.lower(&g, 32).len();
        let n_vec = vec4.lower(&g, 32).len();
        assert_eq!(n_scalar, 16); // 512 elements / 32
        assert_eq!(n_vec, 4); // 128 granules / 32
    }

    #[test]
    fn vector_loads_request_same_bytes() {
        let g = geom();
        let scalar = Region {
            x: (32, 160),
            y: (8, 12),
            vector_width: 1,
            assignment: Assignment::Packed,
        };
        let vec4 = Region {
            x: (32, 160),
            y: (8, 12),
            vector_width: 4,
            assignment: Assignment::Packed,
        };
        let bytes = |loads: Vec<WarpLoad>| loads.iter().map(|l| l.requested_bytes()).sum::<u64>();
        assert_eq!(bytes(scalar.lower(&g, 32)), bytes(vec4.lower(&g, 32)));
    }

    #[test]
    fn column_major_narrow_span_touches_many_segments() {
        let g = geom();
        // A 1-wide column of 16 rows: one instruction, 16 lanes, each in
        // its own row → 16 transactions. This is the vertical variant's
        // pathology.
        let region = Region {
            x: (31, 32),
            y: (8, 24),
            vector_width: 1,
            assignment: Assignment::ColumnMajor,
        };
        let loads = region.lower(&g, 32);
        assert_eq!(loads.len(), 1);
        assert_eq!(coalesce_transactions(&loads[0], 128), 16);
    }

    #[test]
    fn column_major_revisits_segments_across_instructions() {
        // A 6-wide, 8-row side halo (order-12 stencil): column-major
        // packing walks down the 8 rows in every instruction, so the same
        // row segments are paid for once per instruction — twice the
        // transactions of the per-row pattern.
        let g = geom();
        let cm = Region {
            x: (26, 32),
            y: (8, 16),
            vector_width: 1,
            assignment: Assignment::ColumnMajor,
        };
        let pr = Region {
            x: (26, 32),
            y: (8, 16),
            vector_width: 1,
            assignment: Assignment::PerRow,
        };
        let total_tx = |r: Region| {
            r.lower(&g, 32)
                .iter()
                .map(|l| coalesce_transactions(l, 128))
                .sum::<usize>()
        };
        assert_eq!(total_tx(pr), 8);
        assert_eq!(total_tx(cm), 16);
    }

    #[test]
    fn counting_equals_lowering_then_counting() {
        let g = geom();
        for assignment in [
            Assignment::PerRow,
            Assignment::Packed,
            Assignment::ColumnMajor,
        ] {
            for (x, v) in [((26, 70), 1), ((30, 66), 4), ((-3, 5), 2)] {
                let region = Region {
                    x,
                    y: (6, 15),
                    vector_width: v,
                    assignment,
                };
                let mut counted = TrafficCounter::new(128);
                region.count(&g, 32, &mut counted);
                let mut lowered = TrafficCounter::new(128);
                for l in region.lower(&g, 32) {
                    lowered.record_load(&l);
                }
                assert_eq!(counted.finish(), lowered.finish(), "{region:?}");
            }
        }
    }

    #[test]
    fn empty_region_lowers_to_nothing() {
        let g = geom();
        let region = Region {
            x: (10, 10),
            y: (0, 5),
            vector_width: 1,
            assignment: Assignment::PerRow,
        };
        assert!(region.lower(&g, 32).is_empty());
        let region2 = Region {
            x: (0, 5),
            y: (3, 3),
            vector_width: 1,
            assignment: Assignment::Packed,
        };
        assert!(region2.lower(&g, 32).is_empty());
    }

    #[test]
    fn all_assignments_cover_the_same_addresses() {
        let g = geom();
        let mk = |assignment| Region {
            x: (30, 50),
            y: (8, 12),
            vector_width: 1,
            assignment,
        };
        let addr_set = |r: Region| {
            let mut v: Vec<u64> = r
                .lower(&g, 32)
                .into_iter()
                .flat_map(|l| l.lane_addresses)
                .collect();
            v.sort_unstable();
            v
        };
        let a = addr_set(mk(Assignment::PerRow));
        let b = addr_set(mk(Assignment::Packed));
        let c = addr_set(mk(Assignment::ColumnMajor));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.len(), 80);
    }
}
