//! Branch-trace infrastructure for the BranchNet reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`record`] — the [`BranchRecord`](record::BranchRecord) unit of a
//!   trace and the [`BranchKind`](record::BranchKind) taxonomy,
//! * [`trace`] — in-memory [`Trace`](trace::Trace) containers and the
//!   train/validation/test [`TraceSet`](trace::TraceSet) partitioning used
//!   by the offline-training methodology (Table III of the paper),
//! * [`history`] — global direction history, path history, the
//!   cyclic-shift-register *folded* histories TAGE uses for indexing, and
//!   the `p`-bit-PC ⊕ direction encoding BranchNet consumes,
//! * [`stats`] — per-branch accuracy accounting, MPKI computation, and
//!   hard-to-predict branch ranking,
//! * [`predict`] — the object-safe [`Predictor`](predict::Predictor)
//!   contract every direction-prediction stack (TAGE baselines, CNN
//!   hybrids) implements,
//! * [`target`] — the sibling
//!   [`TargetPredictor`](target::TargetPredictor) contract for
//!   indirect-branch *target* prediction (ITTAGE and the BTB /
//!   last-target strawmen),
//! * [`lane`] — the [`Lane`](lane::Lane) trait every trace replay
//!   drives: each direction predictor is a lane through a blanket
//!   impl, each target predictor through the
//!   [`Targets`](lane::Targets) adapter, and scoring lives in one
//!   provided method,
//! * [`io`] — the on-disk trace format: columnar v2 (side-table +
//!   blocked dynamic stream); any other version byte is refused,
//! * [`stream`] — the [`TraceReader`](stream::TraceReader) streaming
//!   block decoder, so traces larger than RAM replay with one block of
//!   decode memory,
//! * [`gauntlet`] — the [`Gauntlet`](gauntlet::Gauntlet), which drives
//!   N lanes block-at-a-time over a trace in a single decode pass,
//! * [`conformance`] — the universal lane-conformance laws
//!   (gauntlet==solo, flush==fresh, determinism, storage and family
//!   honesty) and the [`predictor_conformance!`] macro that
//!   instantiates them as a test suite for any lane of either family,
//! * [`fault`] — deterministic fault injection
//!   ([`FaultPlan`](fault::FaultPlan), corrupting `Read`/`Write`
//!   wrappers) for chaos-testing every consumer of untrusted bytes.
//!
//! # Example
//!
//! ```
//! use branchnet_trace::record::BranchRecord;
//! use branchnet_trace::trace::Trace;
//!
//! let mut trace = Trace::new();
//! trace.push(BranchRecord::conditional(0x400_100, true));
//! trace.push(BranchRecord::conditional(0x400_200, false));
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.get(0).unwrap().pc, 0x400_100);
//! assert_eq!(trace.side_table().len(), 2);
//! ```

pub mod conformance;
pub mod fault;
pub mod gauntlet;
pub mod history;
pub mod io;
pub mod lane;
pub mod predict;
pub mod record;
pub mod stats;
pub mod stream;
pub mod target;
pub mod trace;

pub use fault::{CorruptingReader, CorruptingWriter, Fault, FaultPlan};
pub use gauntlet::{run_one, run_one_per_branch, run_one_target, Gauntlet, LaneResult};
pub use history::{FoldedHistory, GlobalHistory, HistoryRegister, PathHistory};
pub use io::{
    atomic_write, encoding_stats, load_trace, read_trace, save_trace, v2_layout, write_trace,
    write_trace_with_stats, ReadTraceError, TraceEncodingStats, V2Layout,
};
pub use lane::{Family, Lane, Prediction, Targets};
pub use predict::{AlwaysTaken, Predictor, StaticBias};
pub use record::{BranchKind, BranchRecord, BranchSite};
pub use stats::{BranchStats, MispredictionRanking, PredictionStats};
pub use stream::TraceReader;
pub use target::{fallthrough_target, LastTarget, TargetBtb, TargetPredictor};
pub use trace::{Trace, TraceSet, BLOCK_RECORDS};
