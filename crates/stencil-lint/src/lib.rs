#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # stencil-lint
//!
//! A static plan/codegen analyzer for the in-plane stencil method,
//! emitting machine-readable coded diagnostics instead of booleans and
//! runtime panics. Four analyses cover the paper's correctness and
//! tuning stories:
//!
//! * [`feasibility`] — the §IV-C resource constraints, *explained*:
//!   which constraint failed and by how much (`LNT-R…`);
//! * [`schedule`] — a barrier/happens-before proof over the abstract
//!   per-plane schedule: every shared-memory read is dominated by its
//!   staging store plus a barrier, the barrier count is exactly two and
//!   the register-pipeline depth matches the method (`LNT-S…`);
//! * [`coverage`] — the load regions of every variant exactly tile the
//!   halo-framed slab under that variant's documented corner policy —
//!   no gap, no overlap (`LNT-C…`);
//! * [`coalescing`] — a transactions-per-warp-instruction lint over the
//!   lowered [`gpu_sim::WarpLoad`]s, flagging the vertical variant's
//!   column-major side-halo collapse with the measured-vs-ideal ratio
//!   (`LNT-M…`).
//!
//! Two whole-plan passes go beyond the single abstract schedule:
//!
//! * [`dataflow`] — abstract-interprets an entire lowered
//!   [`inplane_core::plan::StagePlan`] with a per-`(buffer, plane)`
//!   region lattice: buffer-lifetime proofs, cross-device
//!   happens-before consistency and schedule-shape checks (`LNT-D…`);
//! * [`traffic`] — a static traffic oracle predicting the instrumented
//!   interpreter's `ExecStats` exactly from the op stream, plus byte
//!   and coalesced-transaction figures per word width.
//!
//! On top of the plan-level passes, [`codegen_text`] lints generated
//! CUDA/OpenCL source (barrier count, `#define` consistency, halo index
//! bounds, declared shared-memory bytes — `LNT-T…`), and [`sweep`] runs
//! everything over a device's full parameter space in parallel.
//!
//! Finally, [`verify`] closes the loop on the emitted text itself: the
//! CUDA/OpenCL source is parsed by [`kernelir`] into a typed AST and
//! abstractly interpreted, every thread of a block in lockstep, proving
//! shared/global bounds,
//! barrier uniformity, race freedom and that the per-plane traffic the
//! kernel issues equals the static oracle exactly (`LNT-K…`).
//!
//! Every finding is a [`Diagnostic`] with a stable code from
//! [`diag::CATALOG`], rendered either human-readable or as JSON.

pub mod coalescing;
pub mod codegen_text;
pub mod coverage;
pub mod dataflow;
pub mod diag;
pub mod feasibility;
pub mod kernelir;
pub mod rect;
pub mod schedule;
pub mod sweep;
pub mod traffic;
pub mod verify;

pub use coalescing::check_coalescing;
pub use codegen_text::{lint_cuda, lint_cuda_source, lint_opencl_source};
pub use coverage::check_coverage;
pub use dataflow::{analyze_plan, DataflowReport};
pub use diag::{
    catalog_severity, describe, has_errors, json_string, Diagnostic, Severity, CATALOG,
};
pub use feasibility::{explain_feasibility, is_feasible};
pub use rect::Rect;
pub use schedule::check_schedule;
pub use sweep::{
    enumerate_configs, lint_config, lint_config_opts, lint_space, lint_space_opts, ConfigLint,
    LintOptions, SweepReport,
};
pub use traffic::{
    predict_kernel_traffic_on, predict_stats, predict_traffic_on, KernelTraffic, PlaneTraffic,
    TrafficOracle,
};
pub use verify::{verify_cuda_kernel_on, verify_kernel_source_on, verify_opencl_kernel_on};
