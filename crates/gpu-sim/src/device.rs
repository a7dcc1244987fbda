//! Device specifications for the simulated GPUs.
//!
//! The first three presets are the cards of the paper's Table III.
//! Published micro-architecture limits (CUDA compute capability 2.0 for
//! Fermi, 3.0 for Kepler) supply the occupancy bounds; the
//! achieved-bandwidth fractions are calibrated to the paper's own
//! measurements (§IV-A: 161, 150 and 117.5 GB/s — "typically around 75%
//! to 85% of the pin bandwidths").
//!
//! Two cross-vendor presets extend the registry past the paper's cards:
//! a GCN-class wavefront-64 part ([`DeviceSpec::hd7970`]) and a modern
//! NVIDIA part ([`DeviceSpec::rtx3090`]). Every execution-width and
//! memory-geometry assumption the analysis stack makes — SIMT width,
//! coalescing segment, LDS bank shape, allocation granularities — is a
//! field here, never a literal in a consumer crate.

use crate::fnv::{FnvWriter, KeyWriter};

/// Coalescing/padding segment of the paper's original NVIDIA targets,
/// bytes. The pre-parameterization stack hard-coded this value; devices
/// whose [`DeviceSpec::coalesce_segment_bytes`] equals it are elided
/// from [`DeviceSpec::fingerprint`] so legacy fingerprints (and every
/// tune-store key derived from them) survive the field addition.
pub const LEGACY_COALESCE_SEGMENT_BYTES: u64 = 128;

/// Shared-memory bank width of every NVIDIA generation the paper
/// targets, bytes. Elided from [`DeviceSpec::fingerprint`] like
/// [`LEGACY_COALESCE_SEGMENT_BYTES`].
pub const LEGACY_SMEM_BANK_BYTES: usize = 4;

/// Shared-memory bank count the pre-parameterization plane-plan
/// builder hard-coded (all presets currently agree, so this is a
/// default for device-less entry points, not a fingerprint concern).
pub const LEGACY_SMEM_BANKS: usize = 32;

/// GPU micro-architecture family.
///
/// The enum is SIMT-width-agnostic: execution width, segment sizes and
/// bank shapes live in [`DeviceSpec`] fields, so adding a family never
/// smuggles a width assumption into consumer crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// CC 2.0: GTX580, Tesla C2070. 128-byte cached global transactions,
    /// 16 LSUs and 2 warp schedulers per SM, 32 K registers.
    Fermi,
    /// CC 3.0: GTX680. 32-byte L2 sectors, 32 LSUs and 4 dual-issue warp
    /// schedulers per SMX, 64 K registers.
    Kepler,
    /// AMD Graphics Core Next: wavefront-64 compute units with four
    /// 16-lane SIMDs, a 64 KB LDS and 64-byte cache lines.
    Gcn,
    /// CC 8.6: modern NVIDIA (GA102-class). 32-byte L2 sectors, unified
    /// 128 KB L1/shared, 64 K registers per SM.
    Ampere,
}

impl Architecture {
    /// Stable code folded into [`DeviceSpec::fingerprint`]. Codes are
    /// append-only: Fermi and Kepler keep their pre-parameterization
    /// values so legacy fingerprints survive.
    pub fn fingerprint_code(self) -> u64 {
        match self {
            Architecture::Fermi => 0,
            Architecture::Kepler => 1,
            Architecture::Gcn => 2,
            Architecture::Ampere => 3,
        }
    }

    /// Vendor label for reports and per-vendor figure artifacts.
    pub fn vendor(self) -> &'static str {
        match self {
            Architecture::Fermi | Architecture::Kepler | Architecture::Ampere => "nvidia",
            Architecture::Gcn => "amd",
        }
    }
}

/// Full specification of a simulated device.
///
/// All rates are per-SM unless stated otherwise; clocks are in MHz,
/// memory sizes in bytes, bandwidths in bytes/second.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name as used in the paper's tables.
    pub name: &'static str,
    /// Micro-architecture family.
    pub arch: Architecture,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// CUDA cores (SP lanes) per SM.
    pub cores_per_sm: usize,
    /// Shader (core) clock in MHz — the clock compute and issue run at.
    pub clock_mhz: f64,
    /// 32-bit registers per SM.
    pub regs_per_sm: usize,
    /// Register allocation granularity per warp (registers are handed out
    /// in units of this many per warp).
    pub reg_alloc_per_warp: usize,
    /// Maximum registers addressable by one thread.
    pub max_regs_per_thread: usize,
    /// Shared memory per SM, bytes.
    pub smem_per_sm: usize,
    /// Shared-memory allocation granularity, bytes.
    pub smem_alloc_granularity: usize,
    /// Hardware limit on threads per block.
    pub max_threads_per_block: usize,
    /// Hardware limit on resident warps per SM (`Warp_SM` in the paper).
    pub max_warps_per_sm: usize,
    /// Hardware limit on resident blocks per SM (`Blk_SM` in the paper).
    pub max_blocks_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Pin (theoretical peak) memory bandwidth, bytes/s.
    pub peak_bandwidth: f64,
    /// Fraction of pin bandwidth a tuned streaming kernel achieves
    /// (calibrated to the paper's measured 161/150/117.5 GB/s).
    pub achieved_bw_fraction: f64,
    /// Global-memory transaction (segment) size in bytes: 128 for Fermi's
    /// cached loads, 32 for Kepler's and Ampere's L2 sectors, 64 for
    /// GCN's cache lines.
    pub segment_bytes: u64,
    /// Coalescing/padding segment in bytes: the granularity the traffic
    /// oracle counts row transactions against and the host allocator
    /// pads row strides to. 128 on every NVIDIA part (cache-line
    /// padding), 64 on GCN-class parts.
    pub coalesce_segment_bytes: u64,
    /// Global memory latency, cycles (`Lat` in the paper's model).
    pub mem_latency_cycles: f64,
    /// Load/store units per SM (warp load issue cost = warp_size / lsu).
    pub lsu_per_sm: usize,
    /// Warp instructions the schedulers can issue per cycle per SM.
    pub issue_per_cycle: f64,
    /// DP throughput as a fraction of SP throughput (1/8 GTX580, 1/24
    /// GTX680, 1/2 C2070).
    pub dp_ratio: f64,
    /// Shared-memory (LDS) banks.
    pub smem_banks: usize,
    /// Width of one shared-memory (LDS) bank, bytes. 4 on every NVIDIA
    /// generation here and on GCN.
    pub smem_bank_bytes: usize,
    /// Fraction of *duplicate* segment fetches (the same segment touched
    /// by more than one load instruction within one block-plane) that
    /// still reach DRAM. Fermi caches global loads in L1, so roughly half
    /// of such re-references hit cache (0.5, limited by the 16 KB L1
    /// versus the resident working set); Kepler GK104 does not cache
    /// global loads in L1 at all (1.0).
    pub l1_dup_charge: f64,
}

/// A device preset: its command-line key and its constructor.
type Preset = (&'static str, fn() -> DeviceSpec);

/// The registered presets, in table order: the one list
/// [`DeviceSpec::all_devices`] and [`DeviceSpec::by_key`] read.
const PRESETS: [Preset; 5] = [
    ("gtx580", DeviceSpec::gtx580),
    ("gtx680", DeviceSpec::gtx680),
    ("c2070", DeviceSpec::c2070),
    ("hd7970", DeviceSpec::hd7970),
    ("rtx3090", DeviceSpec::rtx3090),
];

impl DeviceSpec {
    /// GeForce GTX580 (Fermi GF110): 16 SM × 32 cores, 1544 MHz shader
    /// clock, 192.4 GB/s pin bandwidth, measured 161 GB/s.
    pub fn gtx580() -> Self {
        DeviceSpec {
            name: "GeForce GTX580",
            arch: Architecture::Fermi,
            sm_count: 16,
            cores_per_sm: 32,
            clock_mhz: 1544.0,
            regs_per_sm: 32 * 1024,
            reg_alloc_per_warp: 64,
            max_regs_per_thread: 63,
            smem_per_sm: 48 * 1024,
            smem_alloc_granularity: 128,
            max_threads_per_block: 1024,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            warp_size: 32,
            peak_bandwidth: 192.4e9,
            achieved_bw_fraction: 161.0 / 192.4,
            segment_bytes: 128,
            coalesce_segment_bytes: LEGACY_COALESCE_SEGMENT_BYTES,
            mem_latency_cycles: 560.0,
            lsu_per_sm: 16,
            issue_per_cycle: 2.0,
            dp_ratio: 1.0 / 8.0,
            smem_banks: 32,
            smem_bank_bytes: LEGACY_SMEM_BANK_BYTES,
            l1_dup_charge: 0.5,
        }
    }

    /// GeForce GTX680 (Kepler GK104): 8 SMX × 192 cores, 1006 MHz,
    /// 192.3 GB/s pin bandwidth, measured 150 GB/s.
    pub fn gtx680() -> Self {
        DeviceSpec {
            name: "GeForce GTX680",
            arch: Architecture::Kepler,
            sm_count: 8,
            cores_per_sm: 192,
            clock_mhz: 1006.0,
            regs_per_sm: 64 * 1024,
            reg_alloc_per_warp: 256,
            max_regs_per_thread: 63,
            smem_per_sm: 48 * 1024,
            smem_alloc_granularity: 256,
            max_threads_per_block: 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            warp_size: 32,
            peak_bandwidth: 192.3e9,
            achieved_bw_fraction: 150.0 / 192.3,
            segment_bytes: 32,
            coalesce_segment_bytes: LEGACY_COALESCE_SEGMENT_BYTES,
            mem_latency_cycles: 440.0,
            lsu_per_sm: 32,
            issue_per_cycle: 7.0,
            dp_ratio: 1.0 / 24.0,
            smem_banks: 32,
            smem_bank_bytes: LEGACY_SMEM_BANK_BYTES,
            l1_dup_charge: 1.0,
        }
    }

    /// Tesla C2070 (Fermi GF100): 14 SM × 32 cores, 1150 MHz, 144 GB/s
    /// pin bandwidth, measured 117.5 GB/s; full-rate DP (1/2 of SP).
    pub fn c2070() -> Self {
        DeviceSpec {
            name: "Tesla C2070",
            arch: Architecture::Fermi,
            sm_count: 14,
            cores_per_sm: 32,
            clock_mhz: 1150.0,
            regs_per_sm: 32 * 1024,
            reg_alloc_per_warp: 64,
            max_regs_per_thread: 63,
            smem_per_sm: 48 * 1024,
            smem_alloc_granularity: 128,
            max_threads_per_block: 1024,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            warp_size: 32,
            peak_bandwidth: 144.0e9,
            achieved_bw_fraction: 117.5 / 144.0,
            segment_bytes: 128,
            coalesce_segment_bytes: LEGACY_COALESCE_SEGMENT_BYTES,
            mem_latency_cycles: 600.0,
            lsu_per_sm: 16,
            issue_per_cycle: 2.0,
            dp_ratio: 1.0 / 2.0,
            smem_banks: 32,
            smem_bank_bytes: LEGACY_SMEM_BANK_BYTES,
            l1_dup_charge: 0.5,
        }
    }

    /// Radeon HD 7970 (GCN "Tahiti"): 32 CUs × 64 lanes, 925 MHz,
    /// 264 GB/s pin bandwidth, calibrated 209 GB/s achieved. Wavefront
    /// width 64, 64-byte cache lines (both the transaction segment and
    /// the coalescing/padding granularity), 64 KB LDS per CU in 32
    /// 4-byte banks, quarter-rate DP.
    pub fn hd7970() -> Self {
        DeviceSpec {
            name: "Radeon HD 7970",
            arch: Architecture::Gcn,
            sm_count: 32,
            cores_per_sm: 64,
            clock_mhz: 925.0,
            regs_per_sm: 64 * 1024,
            reg_alloc_per_warp: 256,
            max_regs_per_thread: 255,
            smem_per_sm: 64 * 1024,
            smem_alloc_granularity: 512,
            max_threads_per_block: 1024,
            max_warps_per_sm: 40,
            max_blocks_per_sm: 16,
            warp_size: 64,
            peak_bandwidth: 264.0e9,
            achieved_bw_fraction: 209.0 / 264.0,
            segment_bytes: 64,
            coalesce_segment_bytes: 64,
            mem_latency_cycles: 600.0,
            lsu_per_sm: 16,
            issue_per_cycle: 4.0,
            dp_ratio: 1.0 / 4.0,
            smem_banks: 32,
            smem_bank_bytes: 4,
            l1_dup_charge: 0.5,
        }
    }

    /// GeForce RTX 3090 (Ampere GA102): 82 SMs × 128 cores, 1695 MHz,
    /// 936 GB/s pin bandwidth, calibrated ~768 GB/s achieved. 32-byte
    /// L2 sectors but 128-byte cache-line padding, 1/64-rate DP.
    pub fn rtx3090() -> Self {
        DeviceSpec {
            name: "GeForce RTX 3090",
            arch: Architecture::Ampere,
            sm_count: 82,
            cores_per_sm: 128,
            clock_mhz: 1695.0,
            regs_per_sm: 64 * 1024,
            reg_alloc_per_warp: 256,
            max_regs_per_thread: 255,
            smem_per_sm: 100 * 1024,
            smem_alloc_granularity: 128,
            max_threads_per_block: 1024,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 16,
            warp_size: 32,
            peak_bandwidth: 936.2e9,
            achieved_bw_fraction: 0.82,
            segment_bytes: 32,
            coalesce_segment_bytes: LEGACY_COALESCE_SEGMENT_BYTES,
            mem_latency_cycles: 400.0,
            lsu_per_sm: 16,
            issue_per_cycle: 4.0,
            dp_ratio: 1.0 / 64.0,
            smem_banks: 32,
            smem_bank_bytes: LEGACY_SMEM_BANK_BYTES,
            l1_dup_charge: 0.25,
        }
    }

    /// The paper's three evaluation devices, in table order.
    pub fn paper_devices() -> Vec<DeviceSpec> {
        vec![Self::gtx580(), Self::gtx680(), Self::c2070()]
    }

    /// Every registered device: the paper's three NVIDIA cards plus the
    /// cross-vendor presets (wave64 GCN, modern NVIDIA). Sweep suites
    /// and the per-vendor figure binary iterate this list.
    pub fn all_devices() -> Vec<DeviceSpec> {
        PRESETS.iter().map(|(_, preset)| preset()).collect()
    }

    /// The command-line keys of [`Self::all_devices`], in the same order
    /// (`gtx580`, `gtx680`, `c2070`, `hd7970`, `rtx3090`).
    pub fn preset_keys() -> impl Iterator<Item = &'static str> {
        PRESETS.iter().map(|(key, _)| *key)
    }

    /// The registered device whose command-line key is `key`.
    pub fn by_key(key: &str) -> Option<DeviceSpec> {
        PRESETS
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, preset)| preset())
    }

    /// Half the SIMT execution width — the §IV-C `TX` enumeration step
    /// (a half-warp on NVIDIA, a half-wavefront on GCN).
    #[inline]
    pub fn half_wavefront(&self) -> usize {
        self.warp_size / 2
    }

    /// Vendor label ("nvidia" / "amd") for per-vendor reports.
    #[inline]
    pub fn vendor(&self) -> &'static str {
        self.arch.vendor()
    }

    /// Shader clock in Hz.
    #[inline]
    pub fn clock_hz(&self) -> f64 {
        self.clock_mhz * 1e6
    }

    /// Peak single-precision throughput, flop/s (2 flops per core-cycle —
    /// FMA counts as two). Matches Table III: 1581 / 3090 / 1030 GFlop/s.
    pub fn peak_sp_flops(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * 2.0 * self.clock_hz()
    }

    /// Peak double-precision throughput, flop/s. Matches Table III:
    /// 198 / 129 / 515 GFlop/s.
    pub fn peak_dp_flops(&self) -> f64 {
        self.peak_sp_flops() * self.dp_ratio
    }

    /// Bandwidth a tuned streaming kernel can sustain, bytes/s.
    #[inline]
    pub fn achieved_bandwidth(&self) -> f64 {
        self.peak_bandwidth * self.achieved_bw_fraction
    }

    /// Achieved bandwidth per SM (`BW_SM` in the paper's model), bytes/s.
    #[inline]
    pub fn bandwidth_per_sm(&self) -> f64 {
        self.achieved_bandwidth() / self.sm_count as f64
    }

    /// Achieved bytes per shader-clock cycle per SM.
    #[inline]
    pub fn bytes_per_cycle_per_sm(&self) -> f64 {
        self.bandwidth_per_sm() / self.clock_hz()
    }

    /// Peak flops per cycle per SM at the given element width (4 = SP,
    /// 8 = DP).
    pub fn flops_per_cycle_per_sm(&self, elem_bytes: usize) -> f64 {
        let base = self.cores_per_sm as f64 * 2.0;
        match elem_bytes {
            4 => base,
            8 => base * self.dp_ratio,
            other => panic!("unsupported element width: {other} bytes"),
        }
    }

    /// Cycles for one warp-wide load/store instruction to clear the LSUs.
    #[inline]
    pub fn lsu_cycles_per_warp_instr(&self) -> f64 {
        self.warp_size as f64 / self.lsu_per_sm as f64
    }

    /// Stable 64-bit identity covering every field that influences
    /// simulated timing. Two specs with equal fingerprints price
    /// identically, so this is the device component of memoization keys
    /// (hashing float fields by bit pattern sidesteps `f64: Hash`).
    ///
    /// Fields added by the architecture parameterization
    /// (`coalesce_segment_bytes`, `smem_bank_bytes`) fold in **only when
    /// they deviate from the legacy NVIDIA defaults**: the paper's three
    /// cards keep their pre-parameterization fingerprints byte for byte,
    /// so every persisted tune-store optimum stays warm. The
    /// `legacy_device_fingerprints_are_pinned` test holds this line.
    pub fn fingerprint(&self) -> u64 {
        let mut w = FnvWriter::new();
        self.write_key_inputs(&mut w);
        w.finish()
    }

    /// Write the fingerprint's inputs to `w`: the name, every field as
    /// a word (floats by bit pattern), and the geometry fields the
    /// legacy fingerprints elide as [`KeyWriter::elidable_word`]s,
    /// tagged so distinct deviating fields can never alias each other.
    pub fn write_key_inputs<W: KeyWriter>(&self, w: &mut W) {
        w.bytes(self.name.as_bytes());
        w.words(&[
            self.arch.fingerprint_code(),
            self.sm_count as u64,
            self.cores_per_sm as u64,
            self.clock_mhz.to_bits(),
            self.regs_per_sm as u64,
            self.reg_alloc_per_warp as u64,
            self.max_regs_per_thread as u64,
            self.smem_per_sm as u64,
            self.smem_alloc_granularity as u64,
            self.max_threads_per_block as u64,
            self.max_warps_per_sm as u64,
            self.max_blocks_per_sm as u64,
            self.warp_size as u64,
            self.peak_bandwidth.to_bits(),
            self.achieved_bw_fraction.to_bits(),
            self.segment_bytes,
            self.mem_latency_cycles.to_bits(),
            self.lsu_per_sm as u64,
            self.issue_per_cycle.to_bits(),
            self.dp_ratio.to_bits(),
            self.smem_banks as u64,
            self.l1_dup_charge.to_bits(),
        ]);
        w.elidable_word(
            1,
            self.coalesce_segment_bytes,
            LEGACY_COALESCE_SEGMENT_BYTES,
        );
        w.elidable_word(
            2,
            self.smem_bank_bytes as u64,
            LEGACY_SMEM_BANK_BYTES as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_peak_sp_flops() {
        // Paper Table III: 1581, 3090, 1030 GFlop/s.
        assert!((DeviceSpec::gtx580().peak_sp_flops() / 1e9 - 1581.0).abs() < 1.0);
        assert!((DeviceSpec::gtx680().peak_sp_flops() / 1e9 - 3090.0).abs() < 1.0);
        assert!((DeviceSpec::c2070().peak_sp_flops() / 1e9 - 1030.0).abs() < 1.0);
    }

    #[test]
    fn table3_peak_dp_flops() {
        // Paper Table III: 198, 129, 515 GFlop/s.
        assert!((DeviceSpec::gtx580().peak_dp_flops() / 1e9 - 197.6).abs() < 1.0);
        assert!((DeviceSpec::gtx680().peak_dp_flops() / 1e9 - 128.8).abs() < 1.0);
        assert!((DeviceSpec::c2070().peak_dp_flops() / 1e9 - 515.2).abs() < 1.0);
    }

    #[test]
    fn achieved_bandwidth_matches_measurements() {
        // Paper §IV-A: 161, 150, 117.5 GB/s.
        assert!((DeviceSpec::gtx580().achieved_bandwidth() / 1e9 - 161.0).abs() < 0.1);
        assert!((DeviceSpec::gtx680().achieved_bandwidth() / 1e9 - 150.0).abs() < 0.1);
        assert!((DeviceSpec::c2070().achieved_bandwidth() / 1e9 - 117.5).abs() < 0.1);
    }

    #[test]
    fn achieved_fraction_is_75_to_85_percent() {
        for d in DeviceSpec::paper_devices() {
            assert!(
                (0.75..=0.85).contains(&d.achieved_bw_fraction),
                "{}: fraction {}",
                d.name,
                d.achieved_bw_fraction
            );
        }
    }

    #[test]
    fn core_counts_match_paper() {
        assert_eq!(
            DeviceSpec::gtx580().sm_count * DeviceSpec::gtx580().cores_per_sm,
            512
        );
        assert_eq!(
            DeviceSpec::gtx680().sm_count * DeviceSpec::gtx680().cores_per_sm,
            1536
        );
        assert_eq!(
            DeviceSpec::c2070().sm_count * DeviceSpec::c2070().cores_per_sm,
            448
        );
    }

    #[test]
    fn register_files_match_paper() {
        // §IV-A: 32K registers on Fermi SMs, 65536 on Kepler SMX.
        assert_eq!(DeviceSpec::gtx580().regs_per_sm, 32768);
        assert_eq!(DeviceSpec::gtx680().regs_per_sm, 65536);
        assert_eq!(DeviceSpec::gtx580().smem_per_sm, 48 * 1024);
    }

    #[test]
    fn dp_flops_per_cycle_uses_ratio() {
        let d = DeviceSpec::gtx580();
        assert!((d.flops_per_cycle_per_sm(8) - d.flops_per_cycle_per_sm(4) / 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn bad_element_width_panics() {
        DeviceSpec::gtx580().flops_per_cycle_per_sm(16);
    }

    #[test]
    fn lsu_cycles() {
        assert_eq!(DeviceSpec::gtx580().lsu_cycles_per_warp_instr(), 2.0);
        assert_eq!(DeviceSpec::gtx680().lsu_cycles_per_warp_instr(), 1.0);
    }

    #[test]
    fn fingerprints_distinguish_devices_and_track_fields() {
        let devs = DeviceSpec::all_devices();
        for a in &devs {
            for b in &devs {
                if a.name == b.name {
                    assert_eq!(a.fingerprint(), b.fingerprint());
                } else {
                    assert_ne!(a.fingerprint(), b.fingerprint());
                }
            }
        }
        let mut tweaked = DeviceSpec::gtx580();
        tweaked.mem_latency_cycles += 1.0;
        assert_ne!(tweaked.fingerprint(), DeviceSpec::gtx580().fingerprint());
    }

    #[test]
    fn legacy_device_fingerprints_are_pinned() {
        // Captured before `coalesce_segment_bytes` / `smem_bank_bytes`
        // were added to the spec: the legacy-default elision must keep
        // them byte-identical so persisted tune-store optima stay warm.
        assert_eq!(DeviceSpec::gtx580().fingerprint(), 0xb918_beb1_e8a8_43bc);
        assert_eq!(DeviceSpec::gtx680().fingerprint(), 0xb20e_b1aa_2c5a_778e);
        assert_eq!(DeviceSpec::c2070().fingerprint(), 0x1972_ea53_7613_347e);
    }

    #[test]
    fn non_default_geometry_fields_do_change_the_fingerprint() {
        let base = DeviceSpec::gtx580();
        let mut seg = base.clone();
        seg.coalesce_segment_bytes = 64;
        assert_ne!(seg.fingerprint(), base.fingerprint());
        let mut bank = base.clone();
        bank.smem_bank_bytes = 8;
        assert_ne!(bank.fingerprint(), base.fingerprint());
        // The two deviations are tagged: deviating in different fields
        // with the same raw value cannot alias.
        let mut a = base.clone();
        a.coalesce_segment_bytes = 8;
        let mut b = base.clone();
        b.smem_bank_bytes = 8;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn wave64_preset_is_wave64_end_to_end() {
        let d = DeviceSpec::hd7970();
        assert_eq!(d.arch, Architecture::Gcn);
        assert_eq!(d.warp_size, 64);
        assert_eq!(d.half_wavefront(), 32);
        assert_eq!(d.coalesce_segment_bytes, 64);
        assert_eq!(d.segment_bytes, 64);
        assert_eq!(d.vendor(), "amd");
        // Tahiti peak SP: 32 CU x 64 lanes x 2 x 925 MHz = 3789 GFlop/s.
        assert!((d.peak_sp_flops() / 1e9 - 3789.0).abs() < 1.0);
        assert!((d.peak_dp_flops() / 1e9 - 947.2).abs() < 1.0);
        assert!((0.75..=0.85).contains(&d.achieved_bw_fraction));
    }

    #[test]
    fn ampere_preset_keeps_legacy_padding_geometry() {
        let d = DeviceSpec::rtx3090();
        assert_eq!(d.arch, Architecture::Ampere);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.coalesce_segment_bytes, LEGACY_COALESCE_SEGMENT_BYTES);
        assert_eq!(d.segment_bytes, 32);
        assert_eq!(d.vendor(), "nvidia");
        // GA102 peak SP: 82 SM x 128 lanes x 2 x 1695 MHz = 35581 GFlop/s.
        assert!((d.peak_sp_flops() / 1e9 - 35581.4).abs() < 2.0);
    }

    #[test]
    fn every_key_names_its_preset() {
        let keys: Vec<&str> = DeviceSpec::preset_keys().collect();
        assert_eq!(keys, ["gtx580", "gtx680", "c2070", "hd7970", "rtx3090"]);
        for (key, device) in keys.iter().zip(DeviceSpec::all_devices()) {
            assert_eq!(DeviceSpec::by_key(key), Some(device));
        }
        assert_eq!(DeviceSpec::by_key("gtx9000"), None);
    }

    #[test]
    fn all_devices_extends_paper_devices() {
        let all = DeviceSpec::all_devices();
        let paper = DeviceSpec::paper_devices();
        assert_eq!(all.len(), 5);
        for (a, p) in all.iter().zip(&paper) {
            assert_eq!(a.name, p.name);
        }
        assert!(all.iter().any(|d| d.warp_size == 64));
    }

    #[test]
    fn bandwidth_per_sm_partitions_total() {
        let d = DeviceSpec::c2070();
        assert!((d.bandwidth_per_sm() * d.sm_count as f64 - d.achieved_bandwidth()).abs() < 1.0);
    }
}
