//! BranchNet: offline-trained convolutional neural networks for
//! hard-to-predict branches (Zangeneh et al., MICRO 2020).
//!
//! This crate is the paper's primary contribution, built on the
//! workspace substrates:
//!
//! * [`config`] — the Table I architecture knobs and presets
//!   (Big-BranchNet, four Mini-BranchNet sizes, Tarsa baselines).
//! * [`model`] / [`trainer`] / [`dataset`] — the trainable CNN, its
//!   per-branch datasets, and minibatch training.
//! * [`quantize`] — lowering trained Mini models to binarized
//!   convolutions, fixed-point FC thresholds, and the final LUT
//!   (Table IV's quantization ladder).
//! * [`engine`] — the streaming on-chip inference engine with
//!   convolutional histories, precise & sliding sum-pooling, and
//!   flush recovery (Fig. 6/7, Table II via [`storage`]).
//! * [`selection`] — the offline pipeline: rank hard branches on
//!   validation traces, train per-branch models, keep the improved
//!   ones, and solve the storage-budget assignment (Section V-E).
//! * [`hybrid`] — TAGE-SC-L plus attached per-PC models, the predictor
//!   the paper actually evaluates.
//! * [`degradation`] — the process-global count of trainings retried
//!   after divergence; see DESIGN.md §9 for the failure model it
//!   observes.
//! * [`parallel`] — the ordered, `BRANCHNET_THREADS`-bounded worker
//!   pool that candidate training and the experiment harness share.
//!
//! # Example: train and attach a model for one hard branch
//!
//! ```no_run
//! use branchnet_core::config::BranchNetConfig;
//! use branchnet_core::dataset::extract;
//! use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
//! use branchnet_core::trainer::{train_model, TrainOptions};
//! use branchnet_tage::TageSclConfig;
//! use branchnet_trace::Trace;
//!
//! # fn get_traces() -> (Vec<Trace>, Trace) { unimplemented!() }
//! let (train_traces, test_trace) = get_traces();
//! let cfg = BranchNetConfig::mini_1kb();
//! let hard_pc = 0x90;
//! let ds = extract(&train_traces, hard_pc, cfg.window_len(), cfg.pc_bits);
//! let (model, _report) = train_model(&cfg, &ds, &TrainOptions::default());
//! let mut hybrid = HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb());
//! hybrid.attach(hard_pc, AttachedModel::Float(model)).expect("float models always attach");
//! ```

pub mod config;
pub mod dataset;
pub mod degradation;
pub mod engine;
pub mod hashing;
pub mod hybrid;
pub mod model;
pub mod parallel;
pub mod quantize;
pub mod selection;
pub mod storage;
pub mod trainer;

pub use config::{BranchNetConfig, SliceConfig};
pub use dataset::{extract, BranchDataset, Example};
pub use degradation::DegradationSnapshot;
pub use engine::{EngineCheckpoint, InferenceEngine, NonHashedConfig};
pub use hybrid::{AttachedModel, HybridPredictor, HybridStats};
pub use model::BranchNetModel;
pub use quantize::{QuantMode, QuantizedMini};
pub use selection::{
    assign_budget, offline_train, rank_hard_branches, train_candidates, BudgetItem,
    CandidateResult, PipelineOptions,
};
pub use storage::{storage_breakdown, StorageBreakdown};
pub use trainer::{
    evaluate_accuracy, train_model, train_model_resilient, TrainOptions, TrainReport,
};
