//! The canonical baseline lineup: every runtime predictor the
//! experiments compare against, with its nominal storage budget and
//! the kind of history it consumes.
//!
//! This registry is the single source of truth shared by the Table 4
//! ladder, the fig13 budget sweep, and the predictor-conformance
//! suite — a baseline that exists but is not listed here is invisible
//! to all three, which is exactly the failure mode the conformance CI
//! step is designed to catch.

use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::ittage::{Ittage, IttageConfig};
use crate::local_perceptron::LocalPerceptron;
use crate::loop_only::LoopOnly;
use crate::ogehl::OGehl;
use crate::perceptron::{HashedPerceptron, Perceptron};
use crate::predictor::Predictor;
use crate::tagescl::{TageScL, TageSclConfig};
use crate::twolevel::TwoLevel;
use branchnet_trace::{LastTarget, TargetBtb, TargetPredictor};

/// What a predictor correlates against — useful when reading the
/// ladder: global-history predictors fail together on local patterns
/// and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryKind {
    /// Per-PC state only (no history register).
    None,
    /// A single global outcome register.
    Global,
    /// Per-branch outcome registers.
    Local,
    /// Global history consumed at several geometric lengths.
    Geometric,
    /// Global + local + loop state (the TAGE-SC-L family).
    Hybrid,
}

impl HistoryKind {
    /// Stable lowercase label used in docs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Global => "global",
            Self::Local => "local",
            Self::Geometric => "geometric",
            Self::Hybrid => "hybrid",
        }
    }
}

/// One registered baseline: a stable name, its history class, the
/// storage budget its configuration targets, and a factory.
#[derive(Clone, Copy)]
pub struct LineupEntry {
    /// Stable identifier; matches [`Predictor::name`] of the built
    /// instance.
    pub name: &'static str,
    /// History class (see [`HistoryKind`]).
    pub history: HistoryKind,
    /// Nominal budget ceiling in bits; `storage_bits()` of the built
    /// instance must not exceed this.
    pub nominal_budget_bits: u64,
    /// Builds a fresh instance at the lineup configuration.
    pub build: fn() -> Box<dyn Predictor>,
}

impl std::fmt::Debug for LineupEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineupEntry")
            .field("name", &self.name)
            .field("history", &self.history)
            .field("nominal_budget_bits", &self.nominal_budget_bits)
            .finish_non_exhaustive()
    }
}

/// The full baseline ladder, simplest first. Order is stable: report
/// rows and conformance output follow it.
#[must_use]
pub fn baseline_lineup() -> Vec<LineupEntry> {
    vec![
        LineupEntry {
            name: "bimodal",
            history: HistoryKind::None,
            nominal_budget_bits: 64 * 1024 * 8,
            build: || Box::new(Bimodal::new(15, 2)),
        },
        LineupEntry {
            name: "gshare",
            history: HistoryKind::Global,
            nominal_budget_bits: 64 * 1024 * 8,
            build: || Box::new(Gshare::new(14, 12)),
        },
        LineupEntry {
            name: "two-level",
            history: HistoryKind::Global,
            nominal_budget_bits: 144 * 1024 * 8,
            build: || Box::new(TwoLevel::new(16, true)),
        },
        LineupEntry {
            name: "loop-only",
            history: HistoryKind::None,
            nominal_budget_bits: 4 * 1024 * 8,
            build: || Box::new(LoopOnly::default_config()),
        },
        LineupEntry {
            name: "perceptron",
            history: HistoryKind::Global,
            nominal_budget_bits: 34 * 1024 * 8,
            build: || Box::new(Perceptron::new(10, 32)),
        },
        LineupEntry {
            name: "local-perceptron",
            history: HistoryKind::Local,
            nominal_budget_bits: 20 * 1024 * 8,
            build: || Box::new(LocalPerceptron::new(10, 16)),
        },
        LineupEntry {
            name: "hashed-perceptron",
            history: HistoryKind::Geometric,
            nominal_budget_bits: 33 * 1024 * 8,
            build: || Box::new(HashedPerceptron::default_config()),
        },
        LineupEntry {
            name: "o-gehl",
            history: HistoryKind::Geometric,
            nominal_budget_bits: 16 * 1024 * 8,
            build: || Box::new(OGehl::default_config()),
        },
        LineupEntry {
            name: "tage-sc-l-64kb",
            history: HistoryKind::Hybrid,
            nominal_budget_bits: 64 * 1024 * 8,
            build: || Box::new(TageScL::new(&TageSclConfig::tage_sc_l_64kb())),
        },
    ]
}

/// Looks up one lineup entry by its stable name.
#[must_use]
pub fn lineup_entry(name: &str) -> Option<LineupEntry> {
    baseline_lineup().into_iter().find(|e| e.name == name)
}

/// One registered target-prediction baseline — the
/// [`TargetPredictor`] mirror of [`LineupEntry`], shared by the
/// target-MPKI experiment and the target-conformance suite.
#[derive(Clone, Copy)]
pub struct TargetLineupEntry {
    /// Stable identifier; matches [`TargetPredictor::name`] of the
    /// built instance.
    pub name: &'static str,
    /// History class (see [`HistoryKind`]).
    pub history: HistoryKind,
    /// Nominal budget ceiling in bits; `storage_bits()` of the built
    /// instance must not exceed this (0 = idealized/unbounded).
    pub nominal_budget_bits: u64,
    /// Builds a fresh instance at the lineup configuration.
    pub build: fn() -> Box<dyn TargetPredictor>,
}

impl std::fmt::Debug for TargetLineupEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetLineupEntry")
            .field("name", &self.name)
            .field("history", &self.history)
            .field("nominal_budget_bits", &self.nominal_budget_bits)
            .finish_non_exhaustive()
    }
}

/// The target-prediction ladder, simplest first: idealized
/// last-target, the finite BTB, then ITTAGE. Order is stable; report
/// rows and conformance output follow it.
#[must_use]
pub fn target_lineup() -> Vec<TargetLineupEntry> {
    vec![
        TargetLineupEntry {
            name: "last-target",
            history: HistoryKind::None,
            nominal_budget_bits: 0,
            build: || Box::new(LastTarget::new()),
        },
        TargetLineupEntry {
            name: "btb",
            history: HistoryKind::None,
            nominal_budget_bits: 40 * 1024 * 8,
            build: || Box::new(TargetBtb::default_geometry()),
        },
        TargetLineupEntry {
            name: "ittage-64kb",
            history: HistoryKind::Geometric,
            nominal_budget_bits: 64 * 1024 * 8,
            build: || Box::new(Ittage::new(&IttageConfig::budget_64kb())),
        },
    ]
}

/// Looks up one target-lineup entry by its stable name.
#[must_use]
pub fn target_lineup_entry(name: &str) -> Option<TargetLineupEntry> {
    target_lineup().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_names_match_registry_names() {
        for entry in baseline_lineup() {
            let built = (entry.build)();
            assert_eq!(built.name(), entry.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let lineup = baseline_lineup();
        let mut names: Vec<_> = lineup.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), lineup.len());
    }

    #[test]
    fn storage_fits_the_nominal_budget() {
        for entry in baseline_lineup() {
            let built = (entry.build)();
            assert!(
                built.storage_bits() <= entry.nominal_budget_bits,
                "{}: {} bits exceeds budget {}",
                entry.name,
                built.storage_bits(),
                entry.nominal_budget_bits
            );
        }
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for entry in baseline_lineup() {
            assert_eq!(lineup_entry(entry.name).map(|e| e.name), Some(entry.name));
        }
        assert!(lineup_entry("no-such-predictor").is_none());
    }

    #[test]
    fn target_built_names_match_registry_names() {
        for entry in target_lineup() {
            let built = (entry.build)();
            assert_eq!(built.name(), entry.name);
        }
    }

    #[test]
    fn target_names_are_unique_and_disjoint_from_direction_names() {
        let targets = target_lineup();
        let mut names: Vec<_> = targets.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), targets.len());
        for entry in &targets {
            assert!(
                lineup_entry(entry.name).is_none(),
                "{} appears in both lineups — name-based resolution would be ambiguous",
                entry.name
            );
        }
    }

    #[test]
    fn target_storage_fits_the_nominal_budget() {
        for entry in target_lineup() {
            let built = (entry.build)();
            assert!(
                built.storage_bits() <= entry.nominal_budget_bits,
                "{}: {} bits exceeds budget {}",
                entry.name,
                built.storage_bits(),
                entry.nominal_budget_bits
            );
        }
    }

    #[test]
    fn target_lookup_by_name_round_trips() {
        for entry in target_lineup() {
            assert_eq!(target_lineup_entry(entry.name).map(|e| e.name), Some(entry.name));
        }
        assert!(target_lineup_entry("no-such-target-predictor").is_none());
    }
}
