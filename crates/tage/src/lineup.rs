//! The canonical baseline lineups: every runtime predictor the
//! experiments compare against, with its nominal storage budget and
//! the kind of history it consumes. The direction ladder is
//! [`baseline_lineup`], the target ladder [`target_lineup`]; both list
//! one [`LineupEntry`] type whose factory builds a [`Lane`].
//!
//! This registry is the single source of truth shared by the Table 4
//! ladder, the fig13 budget sweep, the target-MPKI experiment and the
//! conformance suite — a baseline that exists but is not listed here
//! is invisible to all of them, which is exactly the failure mode the
//! conformance CI step is designed to catch.

use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::ittage::{Ittage, IttageConfig};
use crate::local_perceptron::LocalPerceptron;
use crate::loop_only::LoopOnly;
use crate::ogehl::OGehl;
use crate::perceptron::{HashedPerceptron, Perceptron};
use crate::tagescl::{TageScL, TageSclConfig};
use crate::twolevel::TwoLevel;
use branchnet_trace::{Lane, LastTarget, TargetBtb, Targets};

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

/// One registered baseline of either family: a stable name, its
/// history class, the storage budget its configuration targets, and a
/// factory. The list an entry sits in says which outcome it predicts.
#[derive(Clone, Copy)]
pub struct LineupEntry {
    /// Stable identifier; matches [`Lane::name`] of the built
    /// instance.
    pub name: &'static str,
    /// History class (see [`HistoryKind`]).
    pub history: HistoryKind,
    /// Nominal budget ceiling in bits; `storage_bits()` of the built
    /// instance must not exceed this (0 = idealized/unbounded).
    pub nominal_budget_bits: u64,
    /// Builds a fresh instance at the lineup configuration.
    pub build: fn() -> Box<dyn Lane>,
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

/// The direction ladder, simplest first. Order is stable: report rows
/// and conformance output follow it.
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

/// Looks up one direction-lineup entry by its stable name. Target
/// entries are not found: a name resolves to a direction lane or to
/// nothing.
#[must_use]
pub fn lineup_entry(name: &str) -> Option<LineupEntry> {
    baseline_lineup().into_iter().find(|e| e.name == name)
}

/// The target ladder, simplest first: idealized last-target, the
/// finite BTB, then ITTAGE. Order is stable; report rows and
/// conformance output follow it.
#[must_use]
pub fn target_lineup() -> Vec<LineupEntry> {
    vec![
        LineupEntry {
            name: "last-target",
            history: HistoryKind::None,
            nominal_budget_bits: 0,
            build: || Box::new(Targets(LastTarget::new())),
        },
        LineupEntry {
            name: "btb",
            history: HistoryKind::None,
            nominal_budget_bits: 40 * 1024 * 8,
            build: || Box::new(Targets(TargetBtb::default_geometry())),
        },
        LineupEntry {
            name: "ittage-64kb",
            history: HistoryKind::Geometric,
            nominal_budget_bits: 64 * 1024 * 8,
            build: || Box::new(Targets(Ittage::new(&IttageConfig::budget_64kb()))),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_lineups() -> impl Iterator<Item = LineupEntry> {
        baseline_lineup().into_iter().chain(target_lineup())
    }

    #[test]
    fn built_names_match_registry_names() {
        for entry in both_lineups() {
            assert_eq!((entry.build)().name(), entry.name);
        }
    }

    #[test]
    fn names_are_unique_across_both_lineups() {
        let mut names: Vec<_> = both_lineups().map(|e| e.name).collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all, "a name in both lineups would make resolution ambiguous");
    }

    #[test]
    fn storage_fits_the_nominal_budget() {
        for entry in both_lineups() {
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
    fn lookup_by_name_finds_direction_lanes_only() {
        for entry in baseline_lineup() {
            assert_eq!(lineup_entry(entry.name).map(|e| e.name), Some(entry.name));
        }
        for entry in target_lineup() {
            assert!(
                lineup_entry(entry.name).is_none(),
                "{} resolved as a direction lane",
                entry.name
            );
        }
        assert!(lineup_entry("no-such-predictor").is_none());
    }
}
