//! Experiment harness regenerating every table and figure of the
//! BranchNet paper (see DESIGN.md's experiment index).
//!
//! Each `fig*`/`table*` module exposes a `run(&Scale) -> ...Result`
//! function returning structured rows plus a paper-style text
//! rendering; the `src/bin/` binaries are thin wrappers. The
//! [`Scale`](harness::Scale) knob switches between a `quick` profile
//! (minutes, default) and a `full` profile (closer to paper scale) via
//! the `BRANCHNET_SCALE` environment variable.

pub mod cache;
pub mod experiments;
pub mod gate;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod report;

pub use harness::Scale;
