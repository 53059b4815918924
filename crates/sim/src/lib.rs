//! Trace-driven, cycle-approximate pipeline timing model.
//!
//! The paper evaluates IPC with Scarab, an execution-driven x86
//! simulator with a two-tier branch predictor frontend (Section VI-A):
//! a single-cycle 4 KB gshare gives an early prediction, and the
//! 4-cycle late predictor (TAGE-SC-L or TAGE-SC-L + BranchNet)
//! re-steers the frontend when it disagrees. This crate models the
//! same mechanics at trace granularity:
//!
//! * steady-state fetch/issue throughput bounds,
//! * an **early/late disagreement bubble** (the frontend refetches
//!   from the late prediction, costing the late predictor's latency),
//! * a **full flush** on a final misprediction, costing the frontend
//!   depth plus a branch-resolution delay.
//!
//! Absolute IPC is not the point (the paper's testbed is a detailed
//! microarchitecture); the *relative* IPC effect of MPKI changes is,
//! and that is governed by exactly these penalty terms.

pub mod config;
pub mod pipeline;

pub use config::CpuConfig;
pub use pipeline::{simulate, simulate_many, simulate_with_oracle, Oracle, SimResult};

/// The [`Lane`](branchnet_trace::Lane) trait under its former name,
/// kept for perfbench.
pub use branchnet_trace::Lane as DirectionSource;
