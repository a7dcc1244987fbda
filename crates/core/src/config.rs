//! Launch configurations: the four blocking parameters the auto-tuner
//! searches over.

use std::fmt;

/// A blocking configuration `(TX, TY, RX, RY)`:
///
/// * `TX × TY` — the thread block (outer, thread-level parallelism),
/// * `RX × RY` — the register block (inner, instruction-level
///   parallelism): each thread computes `RX × RY` grid points, strided by
///   the thread-block extent so stores stay coalesced (§III-C3).
///
/// The block's tile of the xy-plane is `(TX·RX) × (TY·RY)` points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Threads in x.
    pub tx: usize,
    /// Threads in y.
    pub ty: usize,
    /// Register-block factor in x.
    pub rx: usize,
    /// Register-block factor in y.
    pub ry: usize,
}

impl LaunchConfig {
    /// Construct; every factor must be ≥ 1.
    pub fn new(tx: usize, ty: usize, rx: usize, ry: usize) -> Self {
        assert!(
            tx >= 1 && ty >= 1 && rx >= 1 && ry >= 1,
            "blocking factors must be >= 1"
        );
        LaunchConfig { tx, ty, rx, ry }
    }

    /// Threads per block (`TX × TY`).
    pub fn threads(&self) -> usize {
        self.tx * self.ty
    }

    /// Tile width in x covered by one block (`TX·RX`).
    pub fn tile_x(&self) -> usize {
        self.tx * self.rx
    }

    /// Tile height in y covered by one block (`TY·RY`).
    pub fn tile_y(&self) -> usize {
        self.ty * self.ry
    }

    /// Grid points computed per thread (`RX × RY`).
    pub fn points_per_thread(&self) -> usize {
        self.rx * self.ry
    }

    /// Thread blocks needed to cover an `lx × ly` plane (Eqn (6), with
    /// ceiling division for non-dividing tiles).
    pub fn blocks_per_plane(&self, lx: usize, ly: usize) -> usize {
        lx.div_ceil(self.tile_x()) * ly.div_ceil(self.tile_y())
    }

    /// True when the configuration blocks registers at all.
    pub fn has_register_blocking(&self) -> bool {
        self.rx > 1 || self.ry > 1
    }
}

impl fmt::Display for LaunchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.tx, self.ty, self.rx, self.ry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let c = LaunchConfig::new(32, 4, 1, 4);
        assert_eq!(c.threads(), 128);
        assert_eq!(c.tile_x(), 32);
        assert_eq!(c.tile_y(), 16);
        assert_eq!(c.points_per_thread(), 4);
        assert!(c.has_register_blocking());
    }

    #[test]
    fn blocks_per_plane_divides_exactly() {
        let c = LaunchConfig::new(32, 4, 1, 4);
        assert_eq!(c.blocks_per_plane(512, 512), 16 * 32);
    }

    #[test]
    fn blocks_per_plane_rounds_up() {
        let c = LaunchConfig::new(32, 4, 1, 4);
        assert_eq!(c.blocks_per_plane(33, 17), 2 * 2);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            format!("{}", LaunchConfig::new(256, 1, 1, 8)),
            "(256, 1, 1, 8)"
        );
    }

    #[test]
    fn no_register_blocking() {
        assert!(!LaunchConfig::new(64, 8, 1, 1).has_register_blocking());
    }

    #[test]
    #[should_panic]
    fn zero_factor_rejected() {
        LaunchConfig::new(32, 0, 1, 1);
    }
}
