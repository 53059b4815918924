//! Fig. 4: offline-training generalization on the motivating
//! microbenchmark.
//!
//! CNNs are trained on the paper's three training-input distributions
//! for branch B of Fig. 3, then evaluated (together with a runtime
//! 64 KB TAGE-SC-L) on runs with `N ~ rand(5, 10)` and α swept from
//! 0.2 to 1.0. The expected shape: training sets (1) and (2) fail to
//! generalize (often below TAGE), while set (3) — diverse enough to
//! expose the input-independent count correlation — stays accurate at
//! every α.

use crate::harness::Scale;
use crate::json::{FromJson, Json, JsonError, ToJson};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::dataset::extract;
use branchnet_core::model::BranchNetModel;
use branchnet_core::parallel::parallel_map;
use branchnet_core::trainer::{evaluate_accuracy, train_model};
use branchnet_tage::{TageScL, TageSclConfig};
use branchnet_trace::run_one_per_branch;
use branchnet_workloads::motivating::{MotivatingConfig, MotivatingWorkload, PC_B};

/// Accuracy of each predictor on branch B at one α point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig04Point {
    /// The evaluation α.
    pub alpha: f64,
    /// Runtime TAGE-SC-L accuracy on branch B.
    pub tage: f64,
    /// CNN accuracy per training set (paper's sets 1–3).
    pub cnn: [f64; 3],
}

impl ToJson for Fig04Point {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("alpha", Json::Num(self.alpha)),
            ("tage", Json::Num(self.tage)),
            ("cnn", Json::Arr(self.cnn.iter().map(|&a| Json::Num(a)).collect())),
        ])
    }
}

impl FromJson for Fig04Point {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let cnn_arr = json.field("cnn")?.as_arr()?;
        if cnn_arr.len() != 3 {
            return Err(format!("expected 3 cnn accuracies, got {}", cnn_arr.len()));
        }
        let mut cnn = [0.0; 3];
        for (slot, v) in cnn.iter_mut().zip(cnn_arr) {
            *slot = v.as_f64()?;
        }
        Ok(Self { alpha: json.field("alpha")?.as_f64()?, tage: json.field("tage")?.as_f64()?, cnn })
    }
}

/// The CNN architecture used for this figure: three geometric slices
/// with wide pooling (a scaled Big-BranchNet; see DESIGN.md on compute
/// scaling). Validated to beat runtime TAGE-SC-L at every α when
/// trained on the diverse set (3).
#[must_use]
pub fn model_config() -> BranchNetConfig {
    use branchnet_core::config::SliceConfig;
    BranchNetConfig {
        name: "fig4-big-scaled".into(),
        slices: [(24usize, 3usize), (96, 24), (192, 96)]
            .into_iter()
            .map(|(h, p)| SliceConfig {
                history: h,
                channels: 16,
                pool_width: p,
                precise_pooling: true,
            })
            .collect(),
        pc_bits: 12,
        conv_hash_bits: None,
        embedding_dim: 8,
        conv_width: 1,
        hidden: vec![24],
        fc_quant_bits: None,
        tanh_activations: false,
    }
}

/// Trains the three CNNs and sweeps α.
#[must_use]
pub fn run(scale: &Scale) -> Vec<Fig04Point> {
    let cfg = model_config();
    let mut opts = scale.train_options();
    opts.epochs = opts.epochs.max(20);
    opts.max_examples = opts.max_examples.max(6_000);
    // One model per paper training set; a set may comprise several
    // profiled inputs (set 3 does). The three sets train in parallel.
    let models: Vec<BranchNetModel> =
        parallel_map(&MotivatingConfig::fig4_training_sets(), |set| {
            let mut traces = Vec::new();
            for (i, dist) in set.iter().enumerate() {
                let w = MotivatingWorkload::new(*dist);
                for seed in [100u64, 200, 300] {
                    traces.push(w.generate(seed + i as u64 * 7, scale.branches_per_trace));
                }
            }
            let ds = extract(&traces, PC_B, cfg.window_len(), cfg.pc_bits);
            train_model(&cfg, &ds, &opts).0
        });

    // α points evaluate in parallel; each clones the frozen models
    // (evaluation needs scratch state, not weight changes).
    parallel_map(&[0.2, 0.4, 0.6, 0.8, 1.0], |&alpha| {
        let w = MotivatingWorkload::new(MotivatingConfig::fig4_test(alpha));
        let trace = w.generate(0xE0 + (alpha * 10.0) as u64, scale.branches_per_trace);
        let mut tage = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let stats = run_one_per_branch(&mut tage, &trace);
        let tage_acc = stats.get(PC_B).map_or(1.0, |s| s.accuracy());
        let ds = extract(&[trace], PC_B, cfg.window_len(), cfg.pc_bits);
        let mut cnn = [0.0; 3];
        for (i, m) in models.iter().enumerate() {
            cnn[i] = evaluate_accuracy(&mut m.clone(), &ds);
        }
        Fig04Point { alpha, tage: tage_acc, cnn }
    })
}

/// Paper-style rendering.
#[must_use]
pub fn render(points: &[Fig04Point]) -> String {
    let mut out = String::from(
        "Fig. 4 — Branch B accuracy vs alpha (test: N~rand(5,10))\n\
         alpha   TAGE-SC-L   CNN set1 (N=10,a=1)   CNN set2 (N~5..10,a=1)   CNN set3 (N~2..8,a={.5,.9})\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:>4.1}     {:>6.3}        {:>6.3}               {:>6.3}                 {:>6.3}\n",
            p.alpha, p.tage, p.cnn[0], p.cnn[1], p.cnn[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set3_generalizes_sets_1_and_2_do_not() {
        let scale =
            Scale { branches_per_trace: 40_000, candidates: 1, epochs: 20, max_examples: 4_000 };
        let points = run(&scale);
        // At low alpha (far from sets 1/2's training distribution),
        // the diverse set-3 CNN must beat the degenerate ones.
        let low = points.iter().find(|p| p.alpha < 0.5).expect("has low alpha point");
        assert!(
            low.cnn[2] > low.cnn[0] + 0.05 && low.cnn[2] > low.cnn[1] + 0.05,
            "set3 {:.3} must clearly beat set1 {:.3} / set2 {:.3} at alpha {}",
            low.cnn[2],
            low.cnn[0],
            low.cnn[1],
            low.alpha
        );
        // And set 3 must be strong across the sweep (the paper shows
        // ~100%).
        for p in &points {
            assert!(p.cnn[2] > 0.85, "set3 accuracy {:.3} at alpha {}", p.cnn[2], p.alpha);
        }
    }
}
