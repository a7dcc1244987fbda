#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # stencil-codegen
//!
//! CUDA C source generation for the stencil methods of the paper — the
//! bridge from this reproduction back to real hardware. The paper's
//! artifact is a set of hand-written CUDA kernels plus an auto-tuner;
//! Patus-style systems \[17\] showed the same methods as generated code.
//! This crate emits compilable CUDA C for:
//!
//! * the **forward-plane** (*nvstencil*-style) kernel,
//! * the **in-plane** kernels in all four loading variants,
//!
//! each specialised to a `(TX, TY, RX, RY)` launch configuration,
//! stencil radius and precision — the same parameters the auto-tuner
//! selects — plus a host-side harness (padded allocation, constant
//! coefficient upload, double-buffered Jacobi loop, timing).
//!
//! The generated source follows the exact structure of the emulated
//! kernels in `inplane-core::exec`, so the structural invariants the
//! emulator enforces (staging before reading, pipeline depths `2r+1`
//! forward / `2r` in-plane, two barriers per plane) hold in the emitted
//! code by construction; tests assert them on the output text.

pub mod cwriter;
pub mod host;
pub mod kernel;
pub mod opencl;

pub use cwriter::{CWriter, SourceAnchor};
pub use host::generate_host_harness_on;
pub use kernel::{generate_kernel, GeneratedKernel};
pub use opencl::{generate_opencl_kernel, generate_opencl_kernel_full, OpenClKernel};
