//! Shared-memory bank-conflict modelling.
//!
//! Shared memory is divided into `banks` (32 on Fermi and Kepler)
//! word-interleaved banks; a warp instruction that makes its lanes hit
//! the same bank at *different* addresses serialises into as many
//! passes as the worst bank's multiplicity (identical addresses
//! broadcast for free). The classic stencil hazard: a 2-D thread block
//! with `TX < 32` spans several tile rows per warp, and when the tile's
//! row pitch is a multiple of the bank count those rows collide — the
//! reason real kernels pad shared tiles to odd pitches.

/// Most lanes one warp instruction has (a wave64 GCN wavefront).
pub const MAX_LANES: usize = 64;

/// Number of serialisation passes one warp instruction needs: the
/// maximum, over banks, of the number of *distinct* word addresses the
/// instruction's lanes direct at that bank. 1 = conflict-free; identical
/// addresses broadcast.
///
/// # Panics
/// If `banks` is zero or the instruction has more than [`MAX_LANES`]
/// lanes.
pub fn instruction_passes(lane_word_addrs: &[u32], banks: usize) -> usize {
    assert!(
        lane_word_addrs.len() <= MAX_LANES,
        "a warp instruction has at most {MAX_LANES} lanes"
    );
    let mut buf = [0u32; MAX_LANES];
    let lanes = &mut buf[..lane_word_addrs.len()];
    lanes.copy_from_slice(lane_word_addrs);
    passes_in_place(lanes, banks)
}

/// [`instruction_passes`] without allocating: sorts the lane addresses,
/// keeps the distinct ones as bank numbers at the front of the slice,
/// sorts those and returns the longest run — the worst bank's
/// multiplicity. Clobbers `lanes`.
fn passes_in_place(lanes: &mut [u32], banks: usize) -> usize {
    assert!(banks > 0, "need at least one bank");
    lanes.sort_unstable();
    let mut distinct = 0;
    let mut prev = None;
    for i in 0..lanes.len() {
        let a = lanes[i];
        if prev != Some(a) {
            prev = Some(a);
            lanes[distinct] = (a as usize % banks) as u32;
            distinct += 1;
        }
    }
    let hit = &mut lanes[..distinct];
    hit.sort_unstable();
    let (mut worst, mut run) = (1, 0);
    for i in 0..hit.len() {
        run = if i > 0 && hit[i] == hit[i - 1] {
            run + 1
        } else {
            1
        };
        worst = worst.max(run);
    }
    worst
}

/// Fill `out` (one slot per lane) with the word addresses a warp reads
/// at offset `(dx, dy)` when its first lane sits at column `phase` of
/// block row `y0`: lane `l` is at column `(phase + l) mod TX`, row
/// `y0 + (phase + l) / TX`. Rows and columns clamp at 0.
fn fill_read_addrs(
    out: &mut [u32],
    tx: usize,
    pitch_words: usize,
    (phase, y0): (usize, usize),
    dx: isize,
    dy: isize,
) {
    for (l, addr) in out.iter_mut().enumerate() {
        let t = phase + l;
        let (x, y) = (t % tx, y0 + t / tx);
        let row = (y as isize + dy).max(0) as usize;
        let col = (x as isize + dx).max(0) as usize;
        *addr = (row * pitch_words + col) as u32;
    }
}

/// The word addresses one warp generates reading a shared tile of row
/// pitch `pitch_words` at row offset `dy` / column offset `dx` from each
/// lane's home point, for a `TX × TY` thread block (lane `l` of warp
/// `warp_idx` is thread `warp_idx·warp_size + l`).
pub fn stencil_read_addrs(
    tx: usize,
    pitch_words: usize,
    warp_idx: usize,
    warp_size: usize,
    dx: isize,
    dy: isize,
) -> Vec<u32> {
    let first = warp_idx * warp_size;
    let mut out = vec![0; warp_size];
    fill_read_addrs(&mut out, tx, pitch_words, (first % tx, first / tx), dx, dy);
    out
}

/// Mean conflict factor for a stencil compute phase: every warp of the
/// block reading its centre, `±x` and `±y` neighbours (radius `r`) from
/// a tile of the given pitch — total passes over all `warps · (4r+1)`
/// read instructions, divided by their number (1.0 for an empty block).
///
/// A warp is fixed by its x-phase `p = w·warp_size mod TX` and its first
/// row `y0 = w·warp_size / TX`, and a uniform shift of every address
/// only renames banks, so most reads cost what a warp of the same phase
/// pays elsewhere. Measured from the phase-`p` warp at row 0: the centre,
/// `+x`, `+y`, and the `−y` reads with `m ≤ y0` are shifts of its centre
/// read; the `−x` reads are shifts of its `−x` reads (only the column
/// clamp matters); a `−y` read with `m > y0` is its read at
/// `−(m − y0)`, where the row clamp bites. So each phase is evaluated
/// once, with `2r + 1` reads, and every warp's passes are summed from
/// those integers. Word addresses are 32-bit, so this holds for tiles
/// below 2³² words.
///
/// # Panics
/// If `warp_size` exceeds [`MAX_LANES`] or `banks` is zero.
pub fn stencil_phase_factor(
    tx: usize,
    threads: usize,
    pitch_words: usize,
    r: usize,
    warp_size: usize,
    banks: usize,
) -> f64 {
    assert!(
        warp_size <= MAX_LANES,
        "a warp has at most {MAX_LANES} lanes"
    );
    let warps = threads.div_ceil(warp_size);
    if warps == 0 {
        return 1.0;
    }
    let mut buf = [0u32; MAX_LANES];
    let lanes = &mut buf[..warp_size];
    // Per phase seen: (phase, centre passes, passes of the reads no row
    // clamp reaches); `up[i·r + d − 1]` is phase i's read at −d rows.
    let mut phases: Vec<(usize, u64, u64)> = Vec::new();
    let mut up: Vec<u64> = Vec::new();
    let mut total = 0u64;
    for w in 0..warps {
        let first = w * warp_size;
        let (phase, y0) = (first % tx, first / tx);
        let i = match phases.iter().position(|&(p, ..)| p == phase) {
            Some(i) => i,
            None => {
                let mut read = |dx: isize, dy: isize| {
                    fill_read_addrs(lanes, tx, pitch_words, (phase, 0), dx, dy);
                    passes_in_place(lanes, banks) as u64
                };
                let centre = read(0, 0);
                let mut unclamped = centre * (2 * r as u64 + 1);
                for m in 1..=r as isize {
                    unclamped += read(-m, 0);
                    up.push(read(0, -m));
                }
                phases.push((phase, centre, unclamped));
                phases.len() - 1
            }
        };
        let (_, centre, unclamped) = phases[i];
        total += unclamped;
        for m in 1..=r {
            total += if m <= y0 {
                centre
            } else {
                up[i * r + m - y0 - 1]
            };
        }
    }
    total as f64 / (warps * (4 * r + 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_lanes_are_conflict_free() {
        let addrs: Vec<u32> = (0..32).collect();
        assert_eq!(instruction_passes(&addrs, 32), 1);
    }

    #[test]
    fn same_address_broadcasts() {
        let addrs = vec![7u32; 32];
        assert_eq!(instruction_passes(&addrs, 32), 1);
    }

    #[test]
    fn stride_32_is_a_full_conflict() {
        let addrs: Vec<u32> = (0..32).map(|l| l * 32).collect();
        assert_eq!(instruction_passes(&addrs, 32), 32);
    }

    #[test]
    fn stride_2_is_two_way() {
        let addrs: Vec<u32> = (0..32).map(|l| l * 2).collect();
        assert_eq!(instruction_passes(&addrs, 32), 2);
    }

    #[test]
    fn full_width_warps_never_conflict_on_row_reads() {
        // TX = 32: a warp is one row, unit stride for every offset.
        for pitch in [33usize, 40, 64, 96] {
            let f = stencil_phase_factor(32, 256, pitch, 4, 32, 32);
            assert_eq!(f, 1.0, "pitch {pitch}");
        }
    }

    #[test]
    fn bank_multiple_pitch_conflicts_for_narrow_tx() {
        // TX = 16 and pitch 64: lanes 0 and 16 of a warp sit in different
        // rows, 64 words apart -> same bank, 2-way conflict.
        let f_bad = stencil_phase_factor(16, 128, 64, 1, 32, 32);
        assert!(f_bad > 1.5, "expected ~2-way conflicts, got {f_bad}");
        // A pitch ≡ 16 (mod 32) staggers the two rows into the two bank
        // halves and removes the conflicts.
        let f_good = stencil_phase_factor(16, 128, 48, 1, 32, 32);
        assert!(
            f_good < 1.1,
            "pitch 48 should be conflict-free, got {f_good}"
        );
    }

    #[test]
    fn conflict_factor_averages() {
        // TX = 48, pitch 64, centre reads only: warp 0 is one row (1
        // pass), warp 1 spans columns 32..48 of row 0 and 0..16 of row 1
        // — 64 words apart, same banks (2 passes) — and warp 2 is
        // columns 16..48 of row 1 (1 pass).
        let f = stencil_phase_factor(48, 96, 64, 0, 32, 32);
        assert_eq!(f, 4.0 / 3.0);
        assert_eq!(stencil_phase_factor(48, 0, 64, 2, 32, 32), 1.0);
    }

    /// The per-bank multiplicity the model defines, written out with a
    /// list per bank.
    fn reference_passes(lane_word_addrs: &[u32], banks: usize) -> usize {
        let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks];
        for &a in lane_word_addrs {
            let b = (a as usize) % banks;
            if !per_bank[b].contains(&a) {
                per_bank[b].push(a);
            }
        }
        per_bank.iter().map(Vec::len).max().unwrap_or(0).max(1)
    }

    /// [`stencil_phase_factor`] evaluated warp by warp, every read
    /// instruction on its own.
    fn per_warp_phase_factor(
        tx: usize,
        threads: usize,
        pitch_words: usize,
        r: usize,
        warp_size: usize,
        banks: usize,
    ) -> f64 {
        let mut offsets = vec![(0isize, 0isize)];
        for m in 1..=r as isize {
            offsets.extend([(-m, 0), (m, 0), (0, -m), (0, m)]);
        }
        let (mut passes, mut instrs) = (0usize, 0usize);
        for w in 0..threads.div_ceil(warp_size) {
            for &(dx, dy) in &offsets {
                let addrs = stencil_read_addrs(tx, pitch_words, w, warp_size, dx, dy);
                passes += reference_passes(&addrs, banks);
                instrs += 1;
            }
        }
        if instrs == 0 {
            1.0
        } else {
            passes as f64 / instrs as f64
        }
    }

    #[test]
    fn instruction_passes_match_the_per_bank_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..2000 {
            let lanes = (next() % 65) as usize;
            let span = [8u64, 64, 1 << 10, 1 << 20][case % 4];
            let addrs: Vec<u32> = (0..lanes).map(|_| (next() % span) as u32).collect();
            for banks in [1usize, 7, 16, 32, 64] {
                assert_eq!(
                    instruction_passes(&addrs, banks),
                    reference_passes(&addrs, banks),
                    "{addrs:?} on {banks} banks"
                );
            }
        }
    }

    #[test]
    fn warp_classes_match_the_per_warp_reference_bit_for_bit() {
        // TX values that do not divide the warp (3, 5, 48, 96) give
        // warps of several x-phases; small TX and large r give warps
        // whose first row is above the radius (the row clamp).
        const TX: [usize; 15] = [1, 2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256];
        const PITCHES: [usize; 10] = [1, 7, 16, 31, 32, 33, 48, 64, 97, 130];
        let mut cases = 0;
        for warp_size in [32usize, 64] {
            for banks in [16usize, 32, 64] {
                for tx in TX {
                    for ty in [1usize, 2, 3, 5, 12] {
                        if tx * ty > 1024 {
                            continue;
                        }
                        for r in [0usize, 1, 3, 8] {
                            for pitch in PITCHES {
                                let threads = tx * ty;
                                let got =
                                    stencil_phase_factor(tx, threads, pitch, r, warp_size, banks);
                                let want =
                                    per_warp_phase_factor(tx, threads, pitch, r, warp_size, banks);
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "tx {tx} ty {ty} r {r} pitch {pitch} warp {warp_size} banks {banks}"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 17_040);
    }

    #[test]
    fn empty_instruction_counts_one_pass() {
        assert_eq!(instruction_passes(&[], 32), 1);
    }
}
