//! The high-level one-stop API: configure a stencil run, get both faces
//! (functional result + simulated GPU performance) from one call.
//!
//! ```
//! use inplane_core::{StencilRun, Variant};
//! use stencil_grid::{FillPattern, StarStencil};
//! use gpu_sim::DeviceSpec;
//!
//! let outcome = StencilRun::new(StarStencil::<f32>::from_order(4))
//!     .method(inplane_core::Method::InPlane(Variant::FullSlice))
//!     .device(DeviceSpec::gtx580())
//!     .grid(48, 48, 24)
//!     .fill(FillPattern::GaussianPulse { amplitude: 1.0, sigma: 0.1 })
//!     .steps(3)
//!     .run();
//! assert!(outcome.verification.passed());
//! assert!(outcome.projected.mpoints_per_s() > 0.0);
//! ```

use crate::config::LaunchConfig;
use crate::exec::execute_step;
use crate::kernel::KernelSpec;
use crate::method::{Method, Variant};
use crate::simulate::simulate_kernel;
use gpu_sim::plan::GridDims;
use gpu_sim::{DeviceSpec, SimOptions, SimReport};
use stencil_grid::{
    apply_reference, apply_reference_inplane_order, default_tolerance, iterate_stencil_loop,
    verify_close, Boundary, FillPattern, Grid3, Real, StarStencil, VerifyReport,
};

/// Builder for a complete stencil run.
#[derive(Clone, Debug)]
pub struct StencilRun<T: Real> {
    stencil: StarStencil<T>,
    method: Method,
    device: DeviceSpec,
    config: Option<LaunchConfig>,
    dims: (usize, usize, usize),
    fill: FillPattern,
    steps: usize,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunOutcome<T: Real> {
    /// The final grid after `steps` emulated Jacobi iterations.
    pub result: Grid3<T>,
    /// Verification of the emulated result against the CPU reference.
    pub verification: VerifyReport,
    /// Simulated GPU performance of one sweep at the chosen (or default)
    /// launch configuration on the chosen device.
    pub projected: SimReport,
    /// The launch configuration that was used.
    pub config: LaunchConfig,
}

impl<T: Real> StencilRun<T> {
    /// Start a run description for `stencil` with sensible defaults:
    /// in-plane full-slice on the GTX580, a 32³ grid of hash noise,
    /// one step, launch config `(32, 4, 1, 2)`.
    pub fn new(stencil: StarStencil<T>) -> Self {
        StencilRun {
            stencil,
            method: Method::InPlane(Variant::FullSlice),
            device: DeviceSpec::gtx580(),
            config: None,
            dims: (32, 32, 32),
            fill: FillPattern::HashNoise,
            steps: 1,
        }
    }

    /// Choose the computation method.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Choose the simulated device.
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Pin the launch configuration (otherwise a default is used).
    pub fn config(mut self, config: LaunchConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Set the grid dimensions.
    pub fn grid(mut self, nx: usize, ny: usize, nz: usize) -> Self {
        self.dims = (nx, ny, nz);
        self
    }

    /// Set the initial-condition fill pattern.
    pub fn fill(mut self, fill: FillPattern) -> Self {
        self.fill = fill;
        self
    }

    /// Number of Jacobi steps to run.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps.max(1);
        self
    }

    /// Execute: emulate the kernel for `steps` iterations, verify against
    /// the matching CPU reference, and price one sweep on the device.
    pub fn run(self) -> RunOutcome<T> {
        let (nx, ny, nz) = self.dims;
        let config = self
            .config
            .unwrap_or_else(|| LaunchConfig::new(32, 4, 1, 2));
        let initial: Grid3<T> = {
            let mut g = Grid3::new(nx, ny, nz);
            self.fill.fill(&mut g);
            g
        };
        let r = self.stencil.radius();

        let (result, _) = iterate_stencil_loop(initial.clone(), r, self.steps, |inp, out| {
            execute_step(
                self.method,
                &self.stencil,
                &config,
                inp,
                out,
                Boundary::CopyInput,
            );
        });

        let inplane_order = self.method.is_inplane();
        let (golden, _) = iterate_stencil_loop(initial, r, self.steps, |inp, out| {
            if inplane_order {
                apply_reference_inplane_order(&self.stencil, inp, out, Boundary::CopyInput)
            } else {
                apply_reference(&self.stencil, inp, out, Boundary::CopyInput)
            }
        });
        let verification = verify_close(
            &result,
            &golden,
            default_tolerance(T::PRECISION, self.steps),
        );

        let spec = KernelSpec::star(self.method, &self.stencil);
        let projected = simulate_kernel(
            &self.device,
            &spec,
            &config,
            GridDims::new(nx, ny, nz),
            &SimOptions::default(),
        );

        RunOutcome {
            result,
            verification,
            projected,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_run_and_verify() {
        let out = StencilRun::new(StarStencil::<f64>::from_order(2)).run();
        assert!(out.verification.passed());
        assert!(out.projected.feasible());
        assert_eq!(out.config, LaunchConfig::new(32, 4, 1, 2));
    }

    #[test]
    fn builder_options_are_honoured() {
        let out = StencilRun::new(StarStencil::<f32>::from_order(4))
            .method(Method::ForwardPlane)
            .device(DeviceSpec::gtx680())
            .config(LaunchConfig::new(16, 8, 1, 1))
            .grid(24, 24, 20)
            .fill(FillPattern::Constant(2.0))
            .steps(3)
            .run();
        assert!(out.verification.passed());
        assert_eq!(out.result.dims(), (24, 24, 20));
        // A constant field is a fixed point of the diffusion stencil.
        assert!((out.result.get(10, 10, 10) - 2.0).abs() < 1e-6);
        assert_eq!(out.config, LaunchConfig::new(16, 8, 1, 1));
    }

    #[test]
    fn zero_steps_clamps_to_one() {
        let out = StencilRun::new(StarStencil::<f32>::from_order(2))
            .steps(0)
            .run();
        assert!(out.verification.passed());
    }

    #[test]
    fn infeasible_config_is_reported_not_hidden() {
        // Way over the register budget on the device: the functional run
        // still verifies, the projection reports infeasibility.
        let out = StencilRun::new(StarStencil::<f64>::from_order(12))
            .config(LaunchConfig::new(32, 32, 4, 8))
            .grid(30, 30, 30)
            .run();
        assert!(out.verification.passed());
        assert!(!out.projected.feasible());
    }
}
