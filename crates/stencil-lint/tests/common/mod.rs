//! Helpers shared by the kernel-verifier integration suites: the
//! mutation-site universe of emitted kernel sources and the one-edit
//! mutations over it, and the random byte edits of the robustness and
//! digest corpora.
//!
//! A site is a standalone numeral on a `#define` line, a numeral inside
//! the subscript chain of a memory base the verifier reasons about
//! (`in`, `out`, `tile`, `tile_pair`, `dst`), or one barrier statement
//! to drop or duplicate. Comment text is never a site.

#![allow(dead_code)]

use inplane_core::{Method, Variant};

/// Every routine of the registry, in `Method::ALL` order.
pub const METHODS: [Method; 6] = [
    Method::ForwardPlane,
    Method::InPlane(Variant::Classical),
    Method::InPlane(Variant::Vertical),
    Method::InPlane(Variant::Horizontal),
    Method::InPlane(Variant::FullSlice),
    Method::InPlane(Variant::DoubleBuffered),
];

/// The CUDA barrier statement as the emitter writes it.
pub const CUDA_BARRIER_STMT: &str = "__syncthreads();";
/// The OpenCL barrier statement as the emitter writes it.
pub const OPENCL_BARRIER_STMT: &str = "barrier(CLK_LOCAL_MEM_FENCE);";

/// One candidate mutation.
#[derive(Clone, Copy, Debug)]
pub enum Site {
    /// Bump the decimal numeral in `source[start..end]` by one.
    Digit { start: usize, end: usize },
    /// Delete the `idx`-th barrier statement.
    BarrierDrop { idx: usize },
    /// Duplicate the `idx`-th barrier statement.
    BarrierDup { idx: usize },
}

/// Byte mask of positions inside `//` or `/* */` comments.
fn comment_mask(src: &str) -> Vec<bool> {
    let b = src.as_bytes();
    let mut mask = vec![false; b.len()];
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                mask[i] = true;
                i += 1;
            }
        } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            mask[i] = true;
            mask[i + 1] = true;
            i += 2;
            while i < b.len() && !(b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/') {
                mask[i] = true;
                i += 1;
            }
            if i + 1 < b.len() {
                mask[i] = true;
                mask[i + 1] = true;
                i += 2;
            }
        } else {
            i += 1;
        }
    }
    mask
}

fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Standalone decimal runs in `src[span]` (not part of an identifier or
/// float literal, not commented), pushed as absolute byte ranges.
fn digit_runs(src: &str, span: std::ops::Range<usize>, mask: &[bool], out: &mut Vec<Site>) {
    let b = src.as_bytes();
    let mut i = span.start;
    while i < span.end {
        if b[i].is_ascii_digit() && !mask[i] {
            let start = i;
            while i < span.end && b[i].is_ascii_digit() {
                i += 1;
            }
            let before_ok = start == 0 || (!is_word(b[start - 1]) && b[start - 1] != b'.');
            let after_ok = i >= b.len() || (!is_word(b[i]) && b[i] != b'.');
            if before_ok && after_ok {
                out.push(Site::Digit { start, end: i });
            }
        } else {
            i += 1;
        }
    }
}

/// Every mutation site in one kernel source.
pub fn collect_sites(src: &str, barrier_stmt: &str) -> Vec<Site> {
    let mask = comment_mask(src);
    let b = src.as_bytes();
    let mut sites = Vec::new();

    // `#define` lines: any standalone numeral.
    let mut line_start = 0;
    for (i, ch) in src.bytes().enumerate().chain([(src.len(), b'\n')]) {
        if ch == b'\n' {
            let line = &src[line_start..i];
            if line.trim_start().starts_with("#define") && !mask[line_start] {
                digit_runs(src, line_start..i, &mask, &mut sites);
            }
            line_start = i + 1;
        }
    }

    // Numerals inside subscript chains of the memory bases the verifier
    // reasons about.
    for base in ["in", "out", "tile", "tile_pair", "dst"] {
        for (at, _) in src.match_indices(base) {
            if mask[at]
                || (at > 0 && is_word(b[at - 1]))
                || at + base.len() >= b.len()
                || is_word(b[at + base.len()])
            {
                continue;
            }
            // Walk the whole [..][..]… chain that follows.
            let mut i = at + base.len();
            loop {
                while i < b.len() && (b[i] == b' ' || b[i] == b'\t') {
                    i += 1;
                }
                if i >= b.len() || b[i] != b'[' {
                    break;
                }
                let open = i;
                let mut depth = 0usize;
                while i < b.len() {
                    match b[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                digit_runs(src, open..i, &mask, &mut sites);
                i += 1;
            }
        }
    }

    // Barriers: each occurrence can be dropped or duplicated.
    let barriers = src.match_indices(barrier_stmt).count();
    for idx in 0..barriers {
        sites.push(Site::BarrierDrop { idx });
        sites.push(Site::BarrierDup { idx });
    }
    sites
}

/// Apply one mutation; `None` if it would leave the source unchanged.
pub fn apply(src: &str, site: Site, barrier_stmt: &str) -> Option<String> {
    match site {
        Site::Digit { start, end } => {
            let n: u64 = src[start..end].parse().ok()?;
            let mutated = format!("{}{}{}", &src[..start], n + 1, &src[end..]);
            (mutated != src).then_some(mutated)
        }
        Site::BarrierDrop { idx } | Site::BarrierDup { idx } => {
            let at = src.match_indices(barrier_stmt).nth(idx)?.0;
            let replacement = if matches!(site, Site::BarrierDrop { .. }) {
                String::new()
            } else {
                format!("{barrier_stmt} {barrier_stmt}")
            };
            Some(format!(
                "{}{}{}",
                &src[..at],
                replacement,
                &src[at + barrier_stmt.len()..]
            ))
        }
    }
}

/// Bytes a random edit writes: the digits and punctuation that change a
/// C kernel's structure, and a few letters to break identifiers.
pub const C_BYTES: &[u8] = b"0123456789[](){};,+-*/%&<>=!._ \n#xyzR";

/// One random byte edit `(at, byte, op)`: `at` picks the position
/// (modulo the length plus one), `byte` the written byte (modulo
/// [`C_BYTES`]), and `op` the edit.
pub type Edit = (u64, u8, u8);

/// Apply `edits` in order to `source`. Ops 0, 1 and 2 overwrite,
/// insert or delete one byte; op 3 changes the next digit at or after
/// the position, the edit most likely to parse and reach the
/// interpreter. Other ops, and overwrites or deletes past the end, do
/// nothing.
pub fn apply_edits(source: &str, edits: &[Edit]) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for &(at, b, op) in edits {
        let b = C_BYTES[b as usize % C_BYTES.len()];
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        match op {
            0 if at < bytes.len() => bytes[at] = b,
            1 => bytes.insert(at, b),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                if let Some(d) = bytes[at..].iter().position(u8::is_ascii_digit) {
                    let d = at + d;
                    bytes[d] = b'0' + (bytes[d] - b'0' + 1 + b % 9) % 10;
                }
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
