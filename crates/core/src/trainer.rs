//! Minibatch training of BranchNet models.

use crate::config::BranchNetConfig;
use crate::dataset::BranchDataset;
use crate::model::BranchNetModel;
use branchnet_nn::loss::bce_with_logits;
use branchnet_nn::optim::{Adam, ParamVisitor};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Passes over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed (shuffling, sliding-pool randomization, init).
    pub seed: u64,
    /// Cap on training examples (subsampled with phase-preserving
    /// stride when exceeded).
    pub max_examples: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self { epochs: 8, batch_size: 64, lr: 0.01, seed: 0xB5A9, max_examples: 3000 }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Final-epoch mean training loss.
    pub final_loss: f32,
    /// Training-set accuracy after the final epoch.
    pub train_accuracy: f64,
    /// Epochs actually run (early stop counts).
    pub epochs_run: usize,
}

/// Trains a fresh model of `config` on `dataset`.
///
/// Returns the trained model and a [`TrainReport`]. The dataset is
/// subsampled to `opts.max_examples` first (phase-preserving stride).
///
/// # Panics
///
/// Panics if the dataset is empty or its window length differs from
/// the config's `max_history`.
#[must_use]
pub fn train_model(
    config: &BranchNetConfig,
    dataset: &BranchDataset,
    opts: &TrainOptions,
) -> (BranchNetModel, TrainReport) {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    assert_eq!(
        dataset.max_history,
        config.window_len(),
        "dataset window length must match the model's window_len"
    );
    let mut ds = dataset.clone();
    ds.subsample(opts.max_examples);

    let mut model = BranchNetModel::new(config, opts.seed);
    // Progressive quantization for hashed (Mini) models: the first
    // half of training runs with the soft Tanh convolution activation,
    // the second half with the binarized (engine-exact) one. Training
    // directly against binarized outputs from a cold start optimizes
    // poorly; warm-up recovers the accuracy (standard QAT practice).
    let qat_switch = opts.epochs / 2;
    if config.is_hashed() {
        model.set_conv_binarize(qat_switch == 0);
    }
    let mut opt = Adam::new(opts.lr);
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xDA7A);
    let mut order: Vec<usize> = (0..ds.len()).collect();
    let mut final_loss = f32::NAN;
    let mut epochs_run = 0;
    // Best inference-exact model seen so far, selected by binarized
    // eval-mode accuracy. Binarized fine-tuning is oscillatory (sign
    // flips are discrete events, so loss does not descend monotonically
    // and can diverge late), and train-mode loss can disagree with
    // eval-mode behavior while batch-norm running statistics settle;
    // snapshotting the best epoch under inference semantics makes the
    // returned model robust to where training happens to stop.
    let mut best: Option<(f64, f32, BranchNetModel)> = None;
    for epoch in 0..opts.epochs {
        if config.is_hashed() && epoch == qat_switch && qat_switch > 0 {
            model.set_conv_binarize(true);
            // Binarization is a discontinuity: the pooled features jump
            // from tanh-scaled values to ±1 sums, so fine-tuning at the
            // warm-up learning rate thrashes (sign flips dominate the
            // Adam updates and the warm-up fit never re-converges).
            // Fine-tune the binarized phase at a tenth of the rate.
            opt.set_lr(opts.lr * 0.1);
        }
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(opts.batch_size) {
            let windows: Vec<&[u32]> =
                chunk.iter().map(|&i| ds.examples[i].window.as_slice()).collect();
            let labels: Vec<f32> = chunk.iter().map(|&i| ds.examples[i].label).collect();
            let logits = model.forward(&windows, true, &mut rng);
            let (loss, grad) = bce_with_logits(&logits, &labels);
            model.backward(&grad);
            opt.step(&mut model);
            model.zero_grad();
            epoch_loss += f64::from(loss);
            batches += 1;
        }
        final_loss = (epoch_loss / batches.max(1) as f64) as f32;
        epochs_run = epoch + 1;
        // Score this epoch under inference semantics (binarized conv,
        // eval-mode batch norm) — the exact datapath callers will run.
        let warm = config.is_hashed() && epoch < qat_switch;
        if warm {
            model.set_conv_binarize(true);
        }
        let epoch_acc = evaluate_accuracy(&mut model, &ds);
        if warm {
            model.set_conv_binarize(false);
        }
        if best.as_ref().is_none_or(|(a, _, _)| epoch_acc > *a) {
            best = Some((epoch_acc, final_loss, model.clone()));
        }
        // Early stop on a converged fit — only once the binarized
        // (inference-exact) phase is active.
        if final_loss < 0.01 && epoch >= qat_switch {
            break;
        }
    }
    let (acc, best_loss, mut model) = best.unwrap_or_else(|| {
        let a = evaluate_accuracy(&mut model, &ds);
        (a, final_loss, model)
    });
    model.set_conv_binarize(true);
    (model, TrainReport { final_loss: best_loss, train_accuracy: acc, epochs_run })
}

/// Maximum reseeded retries [`train_model_resilient`] attempts after a
/// diverged run before giving up.
pub const MAX_TRAIN_RETRIES: usize = 2;

/// Whether a training outcome diverged: a non-finite loss or
/// accuracy, any non-finite trained weight, or an absurd logit on a
/// probe example. A NaN anywhere means the optimizer diverged; a
/// non-finite weight off the probe's path (a convolution-table row
/// its window never hashes to) would still poison every prediction
/// that reads it; a finite logit of absurd magnitude (healthy models
/// emit O(10)) means the weights blew up without quite overflowing.
fn diverged(model: &mut BranchNetModel, report: &TrainReport, dataset: &BranchDataset) -> bool {
    if !report.final_loss.is_finite() || !report.train_accuracy.is_finite() {
        return true;
    }
    let mut finite = true;
    model.visit_params(&mut |w, _| finite &= w.data().iter().all(|v| v.is_finite()));
    !finite
        || dataset.examples.first().is_some_and(|e| {
            let z = model.predict_logit(&e.window);
            !z.is_finite() || z.abs() > 1.0e9
        })
}

/// [`train_model`] with a divergence guard and bounded
/// retry-with-reseeded-init (the training half of the DESIGN.md §9
/// failure model).
///
/// Attempt 0 uses `opts.seed` unchanged, so a run that never diverges
/// is byte-identical to plain [`train_model`]. Each retry perturbs the
/// seed deterministically (`seed ^ (attempt · golden-ratio odd
/// constant)`), records itself in the process-global degradation
/// counter, and re-trains from a fresh init. Returns `None` when all
/// `1 + MAX_TRAIN_RETRIES` attempts diverge — callers should skip the
/// candidate, leaving its branch on the runtime baseline.
#[must_use]
pub fn train_model_resilient(
    config: &BranchNetConfig,
    dataset: &BranchDataset,
    opts: &TrainOptions,
) -> Option<(BranchNetModel, TrainReport)> {
    for attempt in 0..=MAX_TRAIN_RETRIES {
        let attempt_opts = TrainOptions {
            seed: if attempt == 0 {
                opts.seed
            } else {
                opts.seed ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            },
            ..*opts
        };
        if attempt > 0 {
            crate::degradation::record_training_retry();
        }
        let (mut model, report) = train_model(config, dataset, &attempt_opts);
        if !diverged(&mut model, &report, dataset) {
            return Some((model, report));
        }
    }
    None
}

/// Accuracy of `model` on every example of `dataset` (eval mode).
#[must_use]
pub fn evaluate_accuracy(model: &mut BranchNetModel, dataset: &BranchDataset) -> f64 {
    if dataset.is_empty() {
        return 1.0;
    }
    let mut rng = SmallRng::seed_from_u64(0);
    let mut correct = 0usize;
    for chunk in dataset.examples.chunks(256) {
        let windows: Vec<&[u32]> = chunk.iter().map(|e| e.window.as_slice()).collect();
        let logits = model.forward(&windows, false, &mut rng);
        for (z, e) in logits.data().iter().zip(chunk) {
            if (*z >= 0.0) == (e.label >= 0.5) {
                correct += 1;
            }
        }
    }
    correct as f64 / dataset.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SliceConfig;
    use crate::dataset::Example;

    fn tiny_config() -> BranchNetConfig {
        BranchNetConfig {
            name: "t".into(),
            slices: vec![SliceConfig {
                history: 12,
                channels: 3,
                pool_width: 12,
                precise_pooling: true,
            }],
            pc_bits: 4,
            conv_hash_bits: Some(5),
            embedding_dim: 0,
            conv_width: 1,
            hidden: vec![4],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        }
    }

    /// Synthesizes the Fig. 3 structure: label = (count of entries
    /// with id A) > (count of entries with id B).
    fn counting_dataset(n: usize) -> BranchDataset {
        let a = 0b0101u32; // "branch A, taken"
        let b = 0b1001u32;
        let mut examples = Vec::new();
        for i in 0..n {
            let ca = i % 7;
            let cb = (i / 7) % 7;
            let mut window = vec![0u32; 12];
            for slot in window.iter_mut().take(ca) {
                *slot = a;
            }
            for slot in window.iter_mut().skip(7).take(cb.min(5)) {
                *slot = b;
            }
            let label = if ca > cb.min(5) { 1.0 } else { 0.0 };
            examples.push(Example { window, label });
        }
        BranchDataset { pc: 0x99, max_history: 12, examples }
    }

    #[test]
    fn learns_count_comparison() {
        let ds = counting_dataset(400);
        let (mut model, report) = train_model(
            &tiny_config(),
            &ds,
            &TrainOptions { epochs: 40, batch_size: 32, lr: 0.02, ..Default::default() },
        );
        assert!(report.train_accuracy > 0.93, "accuracy {}", report.train_accuracy);
        assert!(evaluate_accuracy(&mut model, &ds) > 0.93);
    }

    #[test]
    fn report_tracks_epochs() {
        let ds = counting_dataset(100);
        let opts = TrainOptions { epochs: 3, ..Default::default() };
        let (_, report) = train_model(&tiny_config(), &ds, &opts);
        assert!(report.epochs_run <= 3 && report.epochs_run >= 1);
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let ds = counting_dataset(100);
        let opts = TrainOptions { epochs: 2, ..Default::default() };
        let (mut a, ra) = train_model(&tiny_config(), &ds, &opts);
        let (mut b, rb) = train_model(&tiny_config(), &ds, &opts);
        assert_eq!(ra.final_loss, rb.final_loss);
        let w = &ds.examples[0].window;
        assert_eq!(a.predict_logit(w), b.predict_logit(w));
    }

    #[test]
    fn resilient_training_is_byte_identical_when_healthy() {
        // Attempt 0 must reuse the caller's seed unchanged, so on the
        // (overwhelmingly common) no-divergence path the resilient
        // wrapper produces bit-identical weights to plain train_model —
        // the property the fidelity gate's byte-identity check relies on.
        let ds = counting_dataset(100);
        let opts = TrainOptions { epochs: 2, ..Default::default() };
        let (mut plain, plain_report) = train_model(&tiny_config(), &ds, &opts);
        let (mut resilient, resilient_report) =
            train_model_resilient(&tiny_config(), &ds, &opts).expect("healthy run");
        assert_eq!(plain_report, resilient_report);
        let w = &ds.examples[0].window;
        assert_eq!(plain.predict_logit(w), resilient.predict_logit(w));
    }

    #[test]
    fn resilient_training_gives_up_after_bounded_retries() {
        // An absurd learning rate blows the weights up to non-finite
        // values on every attempt, so the guard must retry exactly
        // MAX_TRAIN_RETRIES times (counted globally) and then report
        // failure instead of returning poisoned weights.
        let ds = counting_dataset(60);
        let before = crate::degradation::snapshot().trainings_retried;
        let opts = TrainOptions { epochs: 1, lr: 1.0e30, ..Default::default() };
        assert!(train_model_resilient(&tiny_config(), &ds, &opts).is_none());
        let after = crate::degradation::snapshot().trainings_retried;
        assert!(after >= before + MAX_TRAIN_RETRIES as u64);

        // The same holds for a one-slice, 3-wide hashed config trained
        // for two epochs.
        let cfg = BranchNetConfig {
            name: "diverge".into(),
            slices: vec![SliceConfig {
                history: 8,
                channels: 2,
                pool_width: 4,
                precise_pooling: true,
            }],
            pc_bits: 4,
            conv_hash_bits: Some(5),
            embedding_dim: 0,
            conv_width: 3,
            hidden: vec![4],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        };
        let examples = (0..40u32)
            .map(|i| Example {
                window: (0..cfg.window_len() as u32).map(|j| (i * 7 + j) % 32).collect(),
                label: f32::from(u8::from(i % 2 == 0)),
            })
            .collect();
        let ds = BranchDataset { pc: 1, max_history: cfg.window_len(), examples };
        let before = crate::degradation::snapshot().trainings_retried;
        let result = train_model_resilient(
            &cfg,
            &ds,
            &TrainOptions { epochs: 2, lr: 1.0e30, ..Default::default() },
        );
        assert!(result.is_none(), "an absurd learning rate must exhaust every retry");
        let after = crate::degradation::snapshot().trainings_retried;
        assert!(after > before, "retries must be counted ({before} -> {after})");
    }

    #[test]
    fn a_non_finite_weight_off_the_probe_path_counts_as_diverged() {
        let cfg = tiny_config();
        let ds = counting_dataset(100);
        let opts = TrainOptions { epochs: 1, ..Default::default() };
        let (mut model, report) = train_model(&cfg, &ds, &opts);
        assert!(!diverged(&mut model, &report, &ds), "a healthy model is not diverged");

        // A convolution-table row the probe example's window never
        // hashes to.
        let probe = &ds.examples[0].window;
        let bits = cfg.conv_hash_bits.expect("a hashed config");
        let hit = crate::hashing::conv_hash_sequence(probe, cfg.conv_width, bits);
        let row = (0..1u32 << bits).find(|id| !hit.contains(id)).expect("a row the probe misses");
        let logit = model.predict_logit(probe);
        // The first parameter tensor is slice 0's table: one row of
        // `channels` weights per hash id.
        let mut first = true;
        model.visit_params(&mut |w, _| {
            if std::mem::take(&mut first) {
                w.data_mut()[row as usize * cfg.slices[0].channels] = f32::NAN;
            }
        });
        assert_eq!(model.predict_logit(probe).to_bits(), logit.to_bits(), "off the probe path");
        assert!(diverged(&mut model, &report, &ds));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let ds = BranchDataset { pc: 0, max_history: 12, examples: vec![] };
        let _ = train_model(&tiny_config(), &ds, &TrainOptions::default());
    }
}
