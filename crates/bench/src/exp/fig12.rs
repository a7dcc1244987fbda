//! Fig 12: model-based auto-tuning (β = 5%) versus exhaustive search,
//! for all stencil orders on all three GPUs. The paper reports a typical
//! gap of ~2% and a worst case of ~6% (on the GTX680).

use crate::exp::{space_for, tune, ORDERS};
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::{KernelSpec, Method, Variant};
use stencil_grid::Precision;
use stencil_tunestore::TunerSpec;

/// One (device, order) comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Device name.
    pub device: String,
    /// Stencil order.
    pub order: usize,
    /// Exhaustive-search best, MPoint/s.
    pub exhaustive_mpoints: f64,
    /// Model-based (β%) best, MPoint/s.
    pub model_based_mpoints: f64,
    /// Configurations in the space (`M`).
    pub space_size: usize,
    /// Configurations the model-based tuner executed (`N`).
    pub executed: usize,
}

impl Cell {
    /// Fraction of the exhaustive optimum the model-based tuner reached.
    pub fn ratio(&self) -> f64 {
        self.model_based_mpoints / self.exhaustive_mpoints
    }
}

/// Run the comparison with the given β (the paper uses 5%).
pub fn compute(opts: &RunOpts, beta_percent: f64) -> Vec<Cell> {
    let dims = opts.dims();
    let mut out = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        for order in ORDERS {
            let k = KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            );
            let space = space_for(&dev, &k, &dims, true, opts.quick);
            let (ex, _) = tune(&dev, &k, dims, &space, TunerSpec::Exhaustive, opts.seed);
            let mb_tuner = TunerSpec::ModelBased { beta_percent };
            let (mb, executed) = tune(&dev, &k, dims, &space, mb_tuner, opts.seed);
            out.push(Cell {
                device: dev.name.to_string(),
                order,
                exhaustive_mpoints: ex.best.mpoints,
                model_based_mpoints: mb.best.mpoints,
                space_size: space.len(),
                executed,
            });
        }
    }
    out
}

/// Mean and worst gap over a set of cells.
pub fn gap_stats(cells: &[Cell]) -> (f64, f64) {
    let gaps: Vec<f64> = cells.iter().map(|c| 1.0 - c.ratio()).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let worst = gaps.iter().cloned().fold(0.0f64, f64::max);
    (mean, worst)
}

/// Render the comparison.
pub fn render(cells: &[Cell]) -> Table {
    let mut t = Table::new(&[
        "Device",
        "Order",
        "Exhaustive MP/s",
        "Model-based MP/s",
        "Ratio",
        "Executed/Space",
    ]);
    for c in cells {
        t.row(vec![
            c.device.clone(),
            c.order.to_string(),
            f(c.exhaustive_mpoints, 0),
            f(c.model_based_mpoints, 0),
            f(c.ratio(), 3),
            format!("{}/{}", c.executed, c.space_size),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_based_stays_close_to_exhaustive() {
        // Paper: typically ~2% gap, worst ~6%. Allow some slack on the
        // reduced quick space (β of a smaller M executes fewer configs).
        let cells = compute(
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
            5.0,
        );
        assert_eq!(cells.len(), 18);
        let (mean, worst) = gap_stats(&cells);
        assert!(mean < 0.06, "mean gap {mean:.3}");
        assert!(worst < 0.15, "worst gap {worst:.3}");
        for c in &cells {
            assert!(
                c.ratio() <= 1.0 + 1e-9,
                "model-based cannot beat exhaustive"
            );
            assert!(
                c.executed * 15 <= c.space_size,
                "executed too many: {}/{}",
                c.executed,
                c.space_size
            );
        }
    }

    #[test]
    fn larger_beta_never_hurts() {
        let opts = RunOpts {
            quick: true,
            seed: 1,
            csv_dir: None,
            tune_store: None,
        };
        let c5 = compute(&opts, 5.0);
        let c20 = compute(&opts, 20.0);
        for (a, b) in c5.iter().zip(c20.iter()) {
            assert!(b.model_based_mpoints >= a.model_based_mpoints - 1e-9);
        }
    }
}
