#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # inplane-core
//!
//! The paper's primary contribution: the **in-plane method** for GPU
//! stencil kernels, its memory-loading variants, register tiling and
//! vector-load planning — plus the conventional **forward-plane**
//! (*nvstencil*) method it is benchmarked against.
//!
//! Two faces of every kernel:
//!
//! * **Performance face** ([`loadplan`], [`resources`], [`simulate`]):
//!   each (method, launch config, stencil, precision) is lowered to an
//!   address-accurate per-plane workload ([`gpu_sim::PlanePlan`]) and
//!   priced by the `gpu-sim` timing engine. This is what the auto-tuner
//!   "measures".
//! * **Functional face** ([`exec`]): block-level emulation of the actual
//!   algorithms — shared-memory staging buffer, per-thread register
//!   pipelines, the 6-step in-plane procedure of §III-C — verified
//!   against the CPU golden model exactly as the paper verifies its CUDA
//!   kernels.
//!
//! The methods (§III):
//!
//! * [`Method::ForwardPlane`] — the 2.5-D forward-plane loading of the
//!   Nvidia SDK sample: classical interior-then-halo loads (Fig 4), scalar.
//! * [`Method::InPlane`] with [`Variant::Vertical`] /
//!   [`Variant::Horizontal`] / [`Variant::FullSlice`] — the proposed
//!   in-plane loading patterns of Fig 6 (the *classical* in-plane variant
//!   is representable but excluded from evaluation, as in the paper).

pub mod config;
pub mod eval;
pub mod exec;
pub mod kernel;
pub mod layout;
pub mod loadplan;
pub mod method;
pub mod plan;
pub mod regions;
pub mod resources;
pub mod routine;
pub mod run;
pub mod simulate;

pub use config::LaunchConfig;
pub use eval::{CacheStats, EvalContext, PlanKey, MEASUREMENT_NOISE_AMPLITUDE};
pub use exec::{
    execute_step, interpret_plan, interpret_plan_checked, ExecStats, SharedBuffer, StageError,
};
pub use kernel::KernelSpec;
pub use method::{Method, Variant};
pub use plan::{lower_step, PlanOp, StagePlan};
pub use routine::{
    lower_blueprint, registry, routine_by_id, routine_by_label, Blueprint, ComputeShape,
    LoadPattern, ProblemSpec, Routine, RoutineDiag, ScheduleSkeleton, ZFeed,
};
pub use run::{RunOutcome, StencilRun};
pub use simulate::{build_block_plan, measure_kernel, simulate_kernel, simulate_star_kernel};
