//! Target prediction: the ITTAGE ladder on the indirect-heavy
//! workloads.
//!
//! The direction experiments ask "taken or not?"; this one asks
//! "where?". Every [`target_lineup`] entry (idealized last-target, the
//! finite BTB, ITTAGE) rides one gauntlet pass per test trace of each
//! [`IndirectBenchmark`], cold per trace, producing weighted
//! target-MPKI and target accuracy — the indirect analogue of the
//! Fig. 9 baseline table, and the number ITTAGE's geometric history
//! exists to move.

use crate::harness::Scale;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::metrics;
use branchnet_core::parallel::parallel_map;
use branchnet_tage::target_lineup;
use branchnet_trace::{Gauntlet, PredictionStats};
use branchnet_workloads::indirect::{IndirectBenchmark, IndirectSuite};

/// One (workload, target predictor) cell of the target ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetMpkiRow {
    /// Which indirect workload.
    pub workload: IndirectBenchmark,
    /// Target-lineup entry name.
    pub predictor: String,
    /// Weighted target mispredictions per kilo-instruction on the test
    /// traces.
    pub target_mpki: f64,
    /// Fraction of indirect branches whose target was predicted
    /// exactly.
    pub target_accuracy: f64,
}

/// Serializes an [`IndirectBenchmark`] as its short name.
#[must_use]
pub fn indirect_to_json(bench: IndirectBenchmark) -> Json {
    Json::Str(bench.name().to_string())
}

/// Parses an [`IndirectBenchmark`] from its short name.
pub fn indirect_from_json(json: &Json) -> Result<IndirectBenchmark, JsonError> {
    let name = json.as_str()?;
    IndirectBenchmark::from_name(name).ok_or_else(|| format!("unknown indirect workload {name:?}"))
}

impl ToJson for TargetMpkiRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", indirect_to_json(self.workload)),
            ("predictor", Json::Str(self.predictor.clone())),
            ("target_mpki", Json::Num(self.target_mpki)),
            ("target_accuracy", Json::Num(self.target_accuracy)),
        ])
    }
}

impl FromJson for TargetMpkiRow {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            workload: indirect_from_json(json.field("workload")?)?,
            predictor: json.field("predictor")?.as_str()?.to_string(),
            target_mpki: json.field("target_mpki")?.as_f64()?,
            target_accuracy: json.field("target_accuracy")?.as_f64()?,
        })
    }
}

/// Runs the whole ladder: every target-lineup entry over every
/// indirect workload's test traces, one gauntlet pass per trace (all
/// lanes share the single block decode), cold per trace, weighted
/// like the direction experiments. Rows come out workload-major in
/// lineup order — stable, like every other artifact.
#[must_use]
pub fn run(scale: &Scale) -> Vec<TargetMpkiRow> {
    let per_workload = parallel_map(&IndirectBenchmark::all(), |&workload| {
        let traces = IndirectSuite::benchmark(workload).trace_set(scale.branches_per_trace);
        let lineup = target_lineup();
        let mut agg = vec![PredictionStats::new(); lineup.len()];
        for t in &traces.test {
            let start = std::time::Instant::now();
            let mut gauntlet = Gauntlet::new();
            for entry in &lineup {
                gauntlet.add_boxed((entry.build)());
            }
            gauntlet.run(t);
            metrics::record_pass(lineup.len(), start.elapsed());
            for (lane_agg, result) in agg.iter_mut().zip(gauntlet.finish()) {
                lane_agg.merge_weighted(&result.stats, t.weight());
            }
        }
        lineup
            .iter()
            .zip(&agg)
            .map(|(entry, stats)| TargetMpkiRow {
                workload,
                predictor: entry.name.to_string(),
                target_mpki: stats.mpki(),
                target_accuracy: stats.accuracy(),
            })
            .collect::<Vec<_>>()
    });
    per_workload.into_iter().flatten().collect()
}

/// Paper-style rendering: one block per workload, lineup order within.
#[must_use]
pub fn render(rows: &[TargetMpkiRow]) -> String {
    let mut out = String::from(
        "Target prediction — ITTAGE vs the strawmen on indirect-heavy workloads\n\
         workload         predictor     t-MPKI   t-accuracy\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<12} {:>7.2}   {:>8.4}\n",
            r.workload.name(),
            r.predictor,
            r.target_mpki,
            r.target_accuracy
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale { branches_per_trace: 12_000, candidates: 2, epochs: 1, max_examples: 100 }
    }

    #[test]
    fn ladder_covers_the_full_cross_product_in_stable_order() {
        let rows = run(&tiny_scale());
        let lineup = target_lineup();
        assert_eq!(rows.len(), IndirectBenchmark::all().len() * lineup.len());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.workload, IndirectBenchmark::all()[i / lineup.len()]);
            assert_eq!(r.predictor, lineup[i % lineup.len()].name);
            assert!(r.target_mpki.is_finite() && r.target_mpki >= 0.0);
            assert!((0.0..=1.0).contains(&r.target_accuracy));
        }
    }

    #[test]
    fn ittage_beats_both_strawmen_on_every_workload() {
        // The point of the ladder: history-correlated indirect code is
        // exactly where geometric-history target tables pay off.
        let rows = run(&tiny_scale());
        for workload in IndirectBenchmark::all() {
            let acc = |pred: &str| {
                rows.iter()
                    .find(|r| r.workload == workload && r.predictor == pred)
                    .expect("cross product is complete")
                    .target_accuracy
            };
            let ittage = acc("ittage-64kb");
            let best_strawman = acc("last-target").max(acc("btb"));
            assert!(
                ittage > best_strawman,
                "{}: ittage {ittage} must beat the strawman ceiling {best_strawman}",
                workload.name()
            );
        }
    }

    #[test]
    fn rows_round_trip_through_json() {
        let row = TargetMpkiRow {
            workload: IndirectBenchmark::Vcalls,
            predictor: "ittage-64kb".to_string(),
            target_mpki: 3.25,
            target_accuracy: 0.875,
        };
        let back = TargetMpkiRow::from_json(&row.to_json()).unwrap();
        assert_eq!(back, row);
    }
}
