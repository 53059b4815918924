//! Runtime (online-trained) branch predictors.
//!
//! This crate reimplements, from scratch, the conventional predictors
//! the BranchNet paper evaluates against:
//!
//! * [`TageScL`] — TAGE + loop predictor + statistical corrector, the
//!   CBP2016 winner used as the paper's practical baseline, with 64 KB
//!   and 56 KB budget presets plus an MTAGE-SC-style "unlimited"
//!   preset ([`TageSclConfig::mtage_sc_unlimited`]) for headroom
//!   studies (Fig. 9), and ablation toggles (no SC / no local / no
//!   loop) used in the paper's Fig. 9 decomposition.
//! * [`Tage`] — the parametric tagged-geometric-history core.
//! * Simpler classics used as light-weight predictors or comparison
//!   points: [`Bimodal`], [`Gshare`], [`TwoLevel`], [`Perceptron`],
//!   [`HashedPerceptron`], [`LocalPerceptron`] (Jiménez & Lin's
//!   per-branch-history original), [`LoopOnly`] (the loop component
//!   standing alone), and [`OGehl`] (Seznec's geometric-history
//!   adder-tree design).
//!
//! * [`Ittage`] — Seznec's ITTAGE indirect-*target* predictor:
//!   tagged geometric-history tables whose entries store full targets,
//!   implementing the [`branchnet_trace::TargetPredictor`] contract.
//!
//! Direction predictors implement the shared
//! [`branchnet_trace::Predictor`] trait, target predictors
//! [`branchnet_trace::TargetPredictor`]; either way the built predictor
//! is a [`branchnet_trace::Lane`] (target predictors through
//! [`branchnet_trace::Targets`]) and is evaluated with the
//! [`branchnet_trace::Gauntlet`] (single- or multi-lane, one trace
//! pass either way). The canonical experiment ladders over all of
//! these are [`baseline_lineup`] (directions) and [`target_lineup`]
//! (last-target, BTB, ITTAGE), two lists of one [`LineupEntry`] type.
//!
//! # Example
//!
//! ```
//! use branchnet_tage::{Gshare, Predictor, TageScL, TageSclConfig};
//! use branchnet_trace::{BranchRecord, Gauntlet, Trace};
//!
//! // A loop branch: taken 9 times, then not taken, repeatedly.
//! let trace: Trace =
//!     (0..2000).map(|i| BranchRecord::conditional(0x40, i % 10 != 9)).collect();
//! // Both predictors share one pass over the trace.
//! let mut gauntlet = Gauntlet::new();
//! let tage = gauntlet.add(TageScL::new(&TageSclConfig::tage_sc_l_64kb()));
//! let gshare = gauntlet.add(Gshare::new(12, 12));
//! gauntlet.run(&trace);
//! assert!(gauntlet.stats(tage).accuracy() > 0.95);
//! assert!(gauntlet.stats(gshare).accuracy() > 0.9);
//! ```

pub mod bimodal;
pub mod counters;
pub mod gshare;
pub mod ittage;
pub mod lineup;
pub mod local_perceptron;
pub mod loop_only;
pub mod loop_pred;
pub mod ogehl;
pub mod perceptron;
pub mod predictor;
pub mod sc;
pub mod tage;
pub mod tagescl;
pub mod twolevel;

pub use bimodal::Bimodal;
pub use counters::{SaturatingCounter, UnsignedCounter};
pub use gshare::Gshare;
pub use ittage::{Ittage, IttageConfig};
pub use lineup::{baseline_lineup, lineup_entry, target_lineup, HistoryKind, LineupEntry};
pub use local_perceptron::LocalPerceptron;
pub use loop_only::LoopOnly;
pub use loop_pred::LoopPredictor;
pub use ogehl::OGehl;
pub use perceptron::{HashedPerceptron, Perceptron};
pub use predictor::{AlwaysTaken, Predictor, StaticBias};
pub use sc::{ScConfig, StatisticalCorrector};
pub use tage::{Tage, TageConfig};
pub use tagescl::{TageScL, TageSclConfig};
pub use twolevel::TwoLevel;
