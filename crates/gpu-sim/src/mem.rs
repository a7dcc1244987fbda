//! Address-accurate global-memory coalescing.
//!
//! The load/store units service one warp-wide memory instruction at a
//! time; the addresses its active lanes touch are grouped into aligned
//! segments (128-byte cache lines on Fermi, 32-byte L2 sectors on
//! Kepler), and one transaction is issued per distinct segment. This is
//! the mechanism the whole paper turns on: *nvstencil*'s strided halo
//! column loads touch one segment per element, while the in-plane
//! full-slice pattern touches contiguous rows.
//!
//! Lowering feeds each warp instruction's lane byte addresses to a
//! [`TrafficCounter`], which counts them once into [`WarpTraffic`]
//! (transactions and requested bytes) and [`SegmentCounts`] (for the L1
//! duplicate charge) and keeps no lane addresses; plans carry only those
//! counts. [`WarpLoad`] — one instruction's lane addresses — is the
//! per-lane form hand-built plans, the coalescing lint and the tests use.
//! Both go through the same segment loop, the single place that decides
//! what an access costs.

/// One warp-wide global-memory instruction: the byte address and width of
/// every *active* lane's access. Inactive (predicated-off) lanes are
/// simply absent; an all-inactive instruction still costs an issue slot
/// if the kernel emits it, so variants should not emit empty loads.
#[derive(Clone, Debug, PartialEq)]
pub struct WarpLoad {
    /// Byte address each active lane reads/writes.
    pub lane_addresses: Vec<u64>,
    /// Bytes accessed per lane (element width × vector width): 4..16.
    pub bytes_per_lane: u64,
}

impl WarpLoad {
    /// A load where lane `l` accesses `base + l * bytes_per_lane`
    /// (a perfectly contiguous warp access).
    pub fn contiguous(base: u64, lanes: usize, bytes_per_lane: u64) -> Self {
        WarpLoad {
            lane_addresses: (0..lanes as u64)
                .map(|l| base + l * bytes_per_lane)
                .collect(),
            bytes_per_lane,
        }
    }

    /// Bytes this instruction requests (useful bytes, the numerator of
    /// the profiler's load-efficiency metric).
    pub fn requested_bytes(&self) -> u64 {
        self.lane_addresses.len() as u64 * self.bytes_per_lane
    }

    /// Number of active lanes.
    pub fn active_lanes(&self) -> usize {
        self.lane_addresses.len()
    }
}

/// Replace `out` with the distinct aligned segments a warp instruction's
/// lanes touch, ascending — the one per-lane segment loop. A lane whose
/// access straddles a segment boundary contributes every segment it
/// touches, exactly how the hardware splits misaligned vector accesses.
fn lane_segments(
    lane_addresses: &[u64],
    bytes_per_lane: u64,
    segment_bytes: u64,
    out: &mut Vec<u64>,
) {
    assert!(
        segment_bytes.is_power_of_two(),
        "segment size must be a power of two"
    );
    out.clear();
    for &addr in lane_addresses {
        let first = addr / segment_bytes;
        let last = (addr + bytes_per_lane - 1) / segment_bytes;
        out.extend(first..=last);
    }
    out.sort_unstable();
    out.dedup();
}

/// Count the transactions (distinct aligned segments) a warp instruction
/// generates for the given segment size.
///
/// ```
/// use gpu_sim::{coalesce_transactions, WarpLoad};
///
/// // A perfectly coalesced SP warp: one 128-byte transaction on Fermi.
/// let row = WarpLoad::contiguous(0, 32, 4);
/// assert_eq!(coalesce_transactions(&row, 128), 1);
///
/// // The same bytes strided across rows: one transaction per lane —
/// // the nvstencil side-halo pathology the in-plane method removes.
/// let column = WarpLoad { lane_addresses: (0..32).map(|l| l * 2048).collect(), bytes_per_lane: 4 };
/// assert_eq!(coalesce_transactions(&column, 128), 32);
/// ```
pub fn coalesce_transactions(load: &WarpLoad, segment_bytes: u64) -> usize {
    let mut segments = Vec::with_capacity(load.lane_addresses.len());
    lane_segments(
        &load.lane_addresses,
        load.bytes_per_lane,
        segment_bytes,
        &mut segments,
    );
    segments.len()
}

/// DRAM bytes a set of load instructions costs within one block-plane,
/// accounting for cache re-references: a segment fetched by more than one
/// instruction is charged once in full plus `dup_charge` per repeat.
///
/// This models Fermi's L1 (which catches the SDK baseline's overlap
/// between its misaligned interior loads and its separately-issued halo
/// loads) versus Kepler, where global loads bypass L1 entirely
/// (`dup_charge = 1.0` re-fetches every time). The profiler-level
/// [`MemCounters`] stay pre-cache, as `nvprof`'s load-efficiency metric
/// does. Plans carry the same quantity pre-counted
/// ([`SegmentCounts::effective_bytes`]); this form takes lane addresses.
pub fn effective_load_bytes(loads: &[WarpLoad], segment_bytes: u64, dup_charge: f64) -> f64 {
    let mut counter = TrafficCounter::new(segment_bytes);
    for l in loads {
        counter.record_load(l);
    }
    counter
        .finish()
        .1
        .effective_bytes(segment_bytes, dup_charge)
}

/// One warp memory instruction's traffic, counted once from its lane
/// addresses: all the pricing layer reads of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarpTraffic {
    /// Transactions: distinct aligned segments the lanes touch.
    pub transactions: u64,
    /// Bytes the lanes request.
    pub requested_bytes: u64,
}

impl WarpTraffic {
    /// Count `load` at `segment_bytes`.
    pub fn of(load: &WarpLoad, segment_bytes: u64) -> Self {
        WarpTraffic {
            transactions: coalesce_transactions(load, segment_bytes) as u64,
            requested_bytes: load.requested_bytes(),
        }
    }
}

/// Segment references of a set of load instructions, for the L1
/// duplicate charge of [`effective_load_bytes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentCounts {
    /// Sum over the instructions of the distinct segments each touches.
    pub total: u64,
    /// Distinct segments over all the instructions.
    pub unique: u64,
}

impl SegmentCounts {
    /// DRAM bytes: every distinct segment in full plus `dup_charge` per
    /// repeated reference.
    pub fn effective_bytes(&self, segment_bytes: u64, dup_charge: f64) -> f64 {
        let (total, unique) = (self.total as f64, self.unique as f64);
        (unique + (total - unique) * dup_charge) * segment_bytes as f64
    }
}

/// Counts warp memory instructions as they are generated: per-instruction
/// [`WarpTraffic`] plus the [`SegmentCounts`] over all of them. No lane
/// address outlives the [`record`](TrafficCounter::record) call that
/// counts it.
#[derive(Clone, Debug)]
pub struct TrafficCounter {
    segment_bytes: u64,
    instrs: Vec<WarpTraffic>,
    /// Each instruction's distinct segments, concatenated.
    segments: Vec<u64>,
    /// The current instruction's segments.
    scratch: Vec<u64>,
}

impl TrafficCounter {
    /// An empty counter at `segment_bytes` (a power of two).
    pub fn new(segment_bytes: u64) -> Self {
        TrafficCounter {
            segment_bytes,
            instrs: Vec::new(),
            segments: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The segment size this counter counts at.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Count one warp instruction whose active lanes access
    /// `bytes_per_lane` bytes at `lane_addresses`.
    pub fn record(&mut self, lane_addresses: &[u64], bytes_per_lane: u64) {
        lane_segments(
            lane_addresses,
            bytes_per_lane,
            self.segment_bytes,
            &mut self.scratch,
        );
        self.segments.extend_from_slice(&self.scratch);
        self.instrs.push(WarpTraffic {
            transactions: self.scratch.len() as u64,
            requested_bytes: lane_addresses.len() as u64 * bytes_per_lane,
        });
    }

    /// Count one [`WarpLoad`].
    pub fn record_load(&mut self, load: &WarpLoad) {
        self.record(&load.lane_addresses, load.bytes_per_lane);
    }

    /// The per-instruction traffic, in recording order, and the segment
    /// references over all of it.
    pub fn finish(mut self) -> (Vec<WarpTraffic>, SegmentCounts) {
        let total = self.segments.len() as u64;
        self.segments.sort_unstable();
        self.segments.dedup();
        let counts = SegmentCounts {
            total,
            unique: self.segments.len() as u64,
        };
        (self.instrs, counts)
    }
}

/// Aggregated traffic counters for a set of memory instructions — the
/// simulator's equivalent of the CUDA profiler's global load/store
/// metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemCounters {
    /// Warp memory instructions issued.
    pub instructions: u64,
    /// Transactions (segments) moved.
    pub transactions: u64,
    /// Bytes the kernel asked for.
    pub requested_bytes: u64,
    /// Bytes the bus actually moved (`transactions * segment`).
    pub transferred_bytes: u64,
}

impl MemCounters {
    /// Account one counted warp instruction (counted at `segment_bytes`).
    pub fn add(&mut self, traffic: &WarpTraffic, segment_bytes: u64) {
        self.instructions += 1;
        self.transactions += traffic.transactions;
        self.requested_bytes += traffic.requested_bytes;
        self.transferred_bytes += traffic.transactions * segment_bytes;
    }

    /// Counters over counted warp instructions.
    pub fn of(traffic: &[WarpTraffic], segment_bytes: u64) -> Self {
        let mut c = MemCounters::default();
        for t in traffic {
            c.add(t, segment_bytes);
        }
        c
    }

    /// Account one warp instruction.
    pub fn record(&mut self, load: &WarpLoad, segment_bytes: u64) {
        self.add(&WarpTraffic::of(load, segment_bytes), segment_bytes);
    }

    /// Account a whole slice of warp instructions.
    pub fn record_all(&mut self, loads: &[WarpLoad], segment_bytes: u64) {
        for l in loads {
            self.record(l, segment_bytes);
        }
    }

    /// The profiler's *global memory load efficiency*: requested bytes as
    /// a fraction of transferred bytes (§IV-C, Fig 9). 1.0 when nothing
    /// was moved.
    pub fn efficiency(&self) -> f64 {
        if self.transferred_bytes == 0 {
            1.0
        } else {
            self.requested_bytes as f64 / self.transferred_bytes as f64
        }
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &MemCounters) {
        self.instructions += other.instructions;
        self.transactions += other.transactions;
        self.requested_bytes += other.requested_bytes;
        self.transferred_bytes += other.transferred_bytes;
    }

    /// Counter set scaled by `n` repetitions (e.g. one plane's counters
    /// replicated over all planes and blocks).
    pub fn scaled(&self, n: u64) -> MemCounters {
        MemCounters {
            instructions: self.instructions * n,
            transactions: self.transactions * n,
            requested_bytes: self.requested_bytes * n,
            transferred_bytes: self.transferred_bytes * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_coalesced_sp_warp_is_one_fermi_transaction() {
        // 32 lanes × 4 B = 128 B, aligned: exactly one 128-B transaction.
        let load = WarpLoad::contiguous(0, 32, 4);
        assert_eq!(coalesce_transactions(&load, 128), 1);
        // The same access on Kepler's 32-B sectors: four transactions,
        // same bytes moved.
        assert_eq!(coalesce_transactions(&load, 32), 4);
    }

    #[test]
    fn misaligned_warp_spills_into_second_segment() {
        let load = WarpLoad::contiguous(4, 32, 4);
        assert_eq!(coalesce_transactions(&load, 128), 2);
    }

    #[test]
    fn strided_column_access_is_one_transaction_per_lane() {
        // The nvstencil left-halo pattern: each lane in a different row
        // (row stride 2048 B ≫ segment).
        let load = WarpLoad {
            lane_addresses: (0..16).map(|l| l * 2048).collect(),
            bytes_per_lane: 4,
        };
        assert_eq!(coalesce_transactions(&load, 128), 16);
    }

    #[test]
    fn vector_load_same_bytes_fewer_instructions() {
        // 8 lanes × float4 = same 128 B as 32 lanes × float.
        let vec4 = WarpLoad::contiguous(0, 8, 16);
        assert_eq!(coalesce_transactions(&vec4, 128), 1);
        assert_eq!(vec4.requested_bytes(), 128);
    }

    #[test]
    fn straddling_vector_lane_touches_two_segments() {
        // One float4 starting 8 bytes before a segment boundary.
        let load = WarpLoad {
            lane_addresses: vec![120],
            bytes_per_lane: 16,
        };
        assert_eq!(coalesce_transactions(&load, 128), 2);
    }

    #[test]
    fn duplicate_addresses_coalesce() {
        // All lanes reading the same element: one transaction (broadcast).
        let load = WarpLoad {
            lane_addresses: vec![256; 32],
            bytes_per_lane: 4,
        };
        assert_eq!(coalesce_transactions(&load, 128), 1);
    }

    #[test]
    fn dp_warp_is_two_fermi_transactions() {
        // 32 lanes × 8 B = 256 B aligned: two 128-B transactions.
        let load = WarpLoad::contiguous(0, 32, 8);
        assert_eq!(coalesce_transactions(&load, 128), 2);
    }

    #[test]
    fn counters_accumulate_and_compute_efficiency() {
        let mut c = MemCounters::default();
        // Coalesced: 128 requested / 128 transferred.
        c.record(&WarpLoad::contiguous(0, 32, 4), 128);
        assert_eq!(c.efficiency(), 1.0);
        // One 4-byte lane alone in a 128-B segment.
        c.record(
            &WarpLoad {
                lane_addresses: vec![4096],
                bytes_per_lane: 4,
            },
            128,
        );
        assert_eq!(c.instructions, 2);
        assert_eq!(c.transactions, 2);
        assert_eq!(c.requested_bytes, 132);
        assert_eq!(c.transferred_bytes, 256);
        assert!((c.efficiency() - 132.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_have_unit_efficiency() {
        assert_eq!(MemCounters::default().efficiency(), 1.0);
    }

    #[test]
    fn scaled_multiplies_every_field() {
        let mut c = MemCounters::default();
        c.record(&WarpLoad::contiguous(0, 32, 4), 128);
        let s = c.scaled(10);
        assert_eq!(s.instructions, 10);
        assert_eq!(s.transferred_bytes, 1280);
        assert_eq!(s.efficiency(), c.efficiency());
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = MemCounters::default();
        a.record(&WarpLoad::contiguous(0, 32, 4), 128);
        let mut b = MemCounters::default();
        b.record(&WarpLoad::contiguous(128, 32, 4), 128);
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.transactions, 2);
    }

    #[test]
    fn record_all_matches_individual_records() {
        let loads = vec![
            WarpLoad::contiguous(0, 32, 4),
            WarpLoad::contiguous(130, 16, 4),
        ];
        let mut a = MemCounters::default();
        a.record_all(&loads, 128);
        let mut b = MemCounters::default();
        for l in &loads {
            b.record(l, 128);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn counter_matches_per_load_counting() {
        let loads = vec![
            WarpLoad::contiguous(0, 32, 4),
            WarpLoad::contiguous(64, 32, 4),
            WarpLoad {
                lane_addresses: (0..8).map(|l| l * 2048 + 120).collect(),
                bytes_per_lane: 16,
            },
        ];
        let mut counter = TrafficCounter::new(128);
        for l in &loads {
            counter.record_load(l);
        }
        let (traffic, segments) = counter.finish();
        let per_load: Vec<WarpTraffic> = loads.iter().map(|l| WarpTraffic::of(l, 128)).collect();
        assert_eq!(traffic, per_load);
        let mut reference = MemCounters::default();
        reference.record_all(&loads, 128);
        assert_eq!(MemCounters::of(&traffic, 128), reference);
        // Segment 0 is read by all three loads, segment 1 by the last
        // two; each strided lane straddles two segments.
        assert_eq!(
            segments,
            SegmentCounts {
                total: 1 + 2 + 16,
                unique: 2 + 14
            }
        );
        assert_eq!(
            segments.effective_bytes(128, 0.25),
            effective_load_bytes(&loads, 128, 0.25)
        );
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_segment_rejected() {
        coalesce_transactions(&WarpLoad::contiguous(0, 1, 4), 100);
    }
}
