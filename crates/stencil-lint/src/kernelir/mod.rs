//! A typed IR for the *emitted* CUDA/OpenCL kernels and the machinery
//! to prove them correct.
//!
//! The plan-level passes (`LNT-S…`, `LNT-C…`, `LNT-D…`) prove the
//! abstract schedule; this module closes the loop on the text the
//! paper actually runs. It is organised as a classic three-stage
//! front-end plus an evaluator:
//!
//! * [`lexer`] — a comment- and string-literal-aware tokenizer with
//!   line/column positions. It is also the shared counting primitive:
//!   [`lexer::count_token_occurrences`] never counts a barrier hidden
//!   in a `//` comment (the `codegen_text` bug this module fixed).
//! * [`ast`] — the typed kernel AST: declarations, affine index
//!   expressions over `threadIdx`/`get_local_id`, the plane loop and
//!   vector lanes. Identifiers are interned to keep evaluation cheap.
//! * [`parser`] — a recursive-descent parser over the macro-expanded
//!   token stream. `#define`s are collected by the lexer and expanded
//!   *at token level* before parsing, so derived macros (`WX`,
//!   `SMEM_W`) resolve exactly as a C preprocessor would. A final pass
//!   binds every name to its storage, so the evaluator never looks a
//!   name up.
//! * [`interp`] — a concrete lockstep evaluator parameterized by
//!   `(TX, TY, RX, RY, radius, VW, grid dims)`: each statement runs
//!   once per block over every thread that reaches it. Index values
//!   are concrete integers; data values are provenance hashes (a global
//!   load's address, a structural op), which is what lets the verifier
//!   tell a benign re-stage of the same cell from a genuine race.
//!
//! The proofs themselves — K001 bounds, K002 global bounds, K003
//! barrier uniformity, K004 race freedom, K005 traffic re-derivation —
//! live in [`crate::verify`].

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;

pub use interp::{run_block, BlockEvents, LaunchEnv, Violation, ViolationKind};
pub use lexer::count_token_occurrences;
pub use parser::parse_kernel;
