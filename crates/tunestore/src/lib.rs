#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # stencil-tunestore
//!
//! Persistent autotune results and a single-flight tuning service —
//! the durability layer above `inplane-core`'s in-process
//! [`EvalContext`](inplane_core::EvalContext) cache.
//!
//! The paper's point is that tuning is expensive: exhaustive search
//! over `(TX, TY, RX, RY)` is exactly what §VI's β-cutoff exists to
//! avoid. This crate makes tuning work *durable* and *deduplicated*:
//!
//! * [`key`] — [`TuneKey`], a stable, versioned content-hash over
//!   everything that determines a tuning result (device fingerprint,
//!   kernel spec, grid, tuner kind + parameters, noise seed, search
//!   space), and [`RequestIdentity`], its exact in-process twin over the
//!   same inputs (what a hot-key cache is keyed by);
//! * [`record`] — [`TuneRecord`], the persisted result with a
//!   per-record checksum and schema-version gate;
//! * [`store`] — the [`TuneStore`] trait with [`MemStore`] and the
//!   append-only [`JsonlDiskStore`] (torn-line/corruption-tolerant,
//!   atomically compacted);
//! * [`service`] — [`TuneService`], the batch front end: store check →
//!   single-flight dedup → warm-started or full search over a shared
//!   evaluation context;
//! * [`singleflight`] — the generic [`SingleFlight`] collapse the
//!   service is built on, written against `conc-check`'s modeled
//!   primitives and proven deadlock- and stranding-free under its
//!   schedule exploration (leaders that panic fail their flight and
//!   wake every waiter);
//! * [`util`] — [`atomic_write`], the tmp+rename writer the disk store
//!   and the experiment output writers share.
//!
//! Everything is std-only; the JSONL codec is hand-rolled in [`json`].
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use gpu_sim::{DeviceSpec, GridDims};
//! use inplane_core::{EvalContext, KernelSpec, Method, Variant};
//! use stencil_autotune::{ParameterSpace, Provenance};
//! use stencil_grid::Precision;
//! use stencil_tunestore::{MemStore, TuneRequest, TuneService, TunerSpec};
//!
//! let device = DeviceSpec::gtx580();
//! let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
//! let dims = GridDims::new(256, 256, 32);
//! let space = ParameterSpace::quick_space(&device, &kernel, &dims);
//! let svc = TuneService::new(Arc::new(MemStore::new()), Arc::new(EvalContext::new()));
//! let req = TuneRequest { device, kernel, dims, space, tuner: TunerSpec::Exhaustive, seed: 1 };
//!
//! let cold = svc.resolve(&req);
//! assert_eq!(cold.provenance, Provenance::Computed);
//! let warm = svc.resolve(&req);
//! assert_eq!(warm.provenance, Provenance::Store);
//! assert_eq!(cold.best.mpoints.to_bits(), warm.best.mpoints.to_bits());
//! ```

pub mod json;
pub mod key;
pub mod record;
pub mod service;
pub mod singleflight;
pub mod store;
pub mod util;

pub use key::{
    first_occurrences, scatter_occurrences, BestConfig, RequestIdentity, TuneKey, TunerKind,
    SCHEMA_VERSION,
};
pub use record::{RecordError, TuneRecord};
pub use service::{
    RequestError, ResolveTrace, ServiceStats, TuneRequest, TuneResponse, TuneService, TunerSpec,
};
pub use singleflight::{Joined, LeaderGuard, SingleFlight};
pub use store::{JsonlDiskStore, MemStore, StoreStats, TuneStore};
pub use util::atomic_write;
