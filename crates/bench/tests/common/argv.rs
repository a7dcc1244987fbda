//! Seeded never-panic property for a binary's argv parser. Each binary
//! includes this file in its own test module and runs it in-process
//! against its parse function, with no process per case:
//!
//! ```ignore
//! #[cfg(test)]
//! #[path = "../../tests/common/argv.rs"]
//! mod argv_property;
//! ```

/// Cases each property run draws.
pub const CASES: usize = 2048;

/// Draw [`CASES`] argument vectors from `seed` and feed each to `parse`.
/// A case is up to six of `flags` in random order (unknown names and
/// `--help` may be among them), each usually followed by one of
/// `values` (range edges, one past them, garbage), so a value flag can
/// also come last with none. `parse` must return, accepting or
/// refusing; a panic fails the calling test. Returns how many cases it
/// accepted and refused.
pub fn run<T, E>(
    seed: u64,
    flags: &[&str],
    values: &[&str],
    parse: impl Fn(Vec<String>) -> Result<T, E>,
) -> (usize, usize) {
    let mut state = seed;
    // splitmix64: a seeded stream with no dependency.
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..CASES {
        let mut argv = Vec::new();
        for _ in 0..below(7) {
            argv.push(flags[below(flags.len())].to_string());
            if below(8) != 0 {
                argv.push(values[below(values.len())].to_string());
            }
        }
        match parse(argv) {
            Ok(_) => accepted += 1,
            Err(_) => refused += 1,
        }
    }
    (accepted, refused)
}
