#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # stencil-autotune
//!
//! Auto-tuning for the in-plane stencil method, reproducing §IV-C and
//! §VI of the paper:
//!
//! * [`space`] — the 4-dimensional `(TX, TY, RX, RY)` parameter space
//!   with the paper's four feasibility constraints;
//! * [`exhaustive`] — the exhaustive tuner: measure every configuration,
//!   return the best (what Table IV reports);
//! * [`model`] — the paper's analytic performance model, Eqns (6)–(14);
//! * [`model_based`] — model-based tuning: rank all configurations by
//!   the model, measure only the top β% (β = 5% in the paper), return
//!   the best measured (what Fig 12 evaluates);
//! * [`surface`] — performance surfaces over `(RX, RY)` (Fig 8).

pub mod exhaustive;
pub mod model;
pub mod model_based;
pub mod report;
pub mod selector;
pub mod space;
pub mod stochastic;
pub mod surface;

pub use exhaustive::{exhaustive_tune, exhaustive_tune_with, Provenance, TuneOutcome, TuneSample};
pub use model::predict_mpoints;
pub use model_based::{
    model_based_tune, model_based_tune_seeded_with, model_based_tune_with, ModelBasedOutcome,
};
pub use report::{summarize, summarize_with, StoreCounters, TuneReport};
pub use selector::{select_routine, RoutineChoice, RoutineRank};
pub use space::{ParameterSpace, SpaceAudit};
pub use stochastic::{stochastic_tune, stochastic_tune_with, AnnealOptions, StochasticOutcome};
pub use surface::{performance_surface, performance_surface_with, SurfacePoint};
