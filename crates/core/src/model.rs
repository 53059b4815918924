//! The BranchNet CNN model (paper Fig. 5 / Section V).
//!
//! A [`BranchNetModel`] is built from a [`BranchNetConfig`] and covers
//! both variants:
//!
//! * **Big-BranchNet** — per slice: embedding → arithmetic `Conv1d` →
//!   batch-norm → ReLU → sum-pool; slice outputs concatenate into two
//!   fully-connected layers.
//! * **Mini-BranchNet (float)** — per slice: hashed convolution
//!   *table* (an embedding keyed by [`conv_hash`] of each K-window) →
//!   batch-norm → Tanh → sum-pool → batch-norm → Tanh; then one
//!   quantization-friendly hidden FC layer.
//!
//! Training-time sliding-pool randomization (Optimization 3) is
//! applied here: slices flagged non-precise drop `0..P-1` of the most
//! recent branches per example so the trained weights tolerate the
//! engine's nondeterministic window boundaries.

use crate::config::{BranchNetConfig, SliceConfig};
use crate::hashing::conv_hash;
use branchnet_nn::layers::{Activation, BatchNorm1d, Conv1d, Dense, Embedding, SumPool1d};
use branchnet_nn::optim::ParamVisitor;
use branchnet_nn::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::Rng;

/// One feature-extraction slice.
#[derive(Debug, Clone)]
struct Slice {
    cfg: SliceConfig,
    /// Big: the (PC,dir)-vocabulary embedding. Mini: the hashed
    /// convolution table (vocab `2^h`, dim = channels).
    embedding: Embedding,
    /// Arithmetic convolution (Big only).
    conv: Option<Conv1d>,
    bn1: BatchNorm1d,
    /// Soft activation (warm-up phase of quantization-aware training).
    act1_soft: Activation,
    /// Binarized activation (QAT phase + inference for Mini models).
    act1_bin: Option<Activation>,
    pool: SumPool1d,
    /// Post-pool normalization + Tanh (Mini only, Optimization 4).
    bn2: Option<BatchNorm1d>,
    act2: Option<Activation>,
}

impl Slice {
    fn act1(&mut self, binarize: bool) -> &mut Activation {
        match (&mut self.act1_bin, binarize) {
            (Some(b), true) => b,
            _ => &mut self.act1_soft,
        }
    }
}

/// A trainable BranchNet model for one static branch. Cloning copies
/// the frozen weights, so one trained model can be evaluated from
/// several threads at once (each clone carries its own forward
/// scratch state).
#[derive(Debug, Clone)]
pub struct BranchNetModel {
    config: BranchNetConfig,
    slices: Vec<Slice>,
    hidden: Vec<(Dense, BatchNorm1d, Activation)>,
    out: Dense,
    /// Cached per-slice flatten shapes for backward.
    last_batch: usize,
    /// Whether hashed models binarize convolution outputs (true for
    /// inference and the QAT phase; the trainer disables it during
    /// warm-up so optimization has smooth gradients to start from).
    conv_binarize: bool,
    /// Which activation the last forward used (backward must match).
    last_binarize: bool,
}

impl BranchNetModel {
    /// Builds a model with weights seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    #[must_use]
    pub fn new(config: &BranchNetConfig, seed: u64) -> Self {
        config.validate();
        let mut slices = Vec::with_capacity(config.slices.len());
        for (i, s) in config.slices.iter().enumerate() {
            let sseed = seed.wrapping_add(i as u64 * 0x9E37);
            let (embedding, conv) = match config.conv_hash_bits {
                None => (
                    Embedding::new(config.vocab(), config.embedding_dim, sseed),
                    Some(Conv1d::new(
                        config.embedding_dim,
                        s.channels,
                        config.conv_width,
                        sseed ^ 0x55,
                    )),
                ),
                Some(h) => (Embedding::new(1 << h, s.channels, sseed), None),
            };
            // Mini models train quantization-aware: the convolution
            // output is binarized in the forward pass exactly as the
            // inference engine will binarize it (straight-through
            // gradients keep it trainable); the soft sibling is used
            // for optimization warm-up.
            let act1_soft =
                if config.tanh_activations { Activation::tanh() } else { Activation::relu() };
            slices.push(Slice {
                cfg: *s,
                embedding,
                conv,
                bn1: BatchNorm1d::new(s.channels),
                act1_soft,
                act1_bin: config.is_hashed().then(Activation::binary_ste),
                pool: SumPool1d::new(s.pool_width),
                bn2: config.is_hashed().then(|| BatchNorm1d::new(s.channels)),
                act2: config.is_hashed().then(Activation::tanh),
            });
        }
        let mut hidden = Vec::new();
        let mut in_features = config.total_pooled();
        for (i, &n) in config.hidden.iter().enumerate() {
            let act = if config.tanh_activations { Activation::tanh } else { Activation::relu };
            hidden.push((
                Dense::new(in_features, n, seed.wrapping_add(0xF00 + i as u64)),
                BatchNorm1d::new(n),
                act(),
            ));
            in_features = n;
        }
        let out = Dense::new(in_features, 1, seed ^ 0xABCD);
        Self {
            config: config.clone(),
            slices,
            hidden,
            out,
            last_batch: 0,
            conv_binarize: true,
            last_binarize: true,
        }
    }

    /// Switches hashed models between binarized convolution outputs
    /// (inference semantics, the default) and the soft warm-up
    /// activation used early in quantization-aware training. No effect
    /// on non-hashed (Big) models.
    pub fn set_conv_binarize(&mut self, binarize: bool) {
        self.conv_binarize = binarize;
    }

    /// The architecture this model implements.
    #[must_use]
    pub fn config(&self) -> &BranchNetConfig {
        &self.config
    }

    /// Appends the integer input ids for slice `slice_idx` to `ids`,
    /// built from a full `max_history` window (oldest → newest),
    /// dropping the `drop_newest` most recent entries (sliding-pool
    /// training randomization).
    fn push_slice_ids(
        &self,
        slice_idx: usize,
        window: &[u32],
        drop_newest: usize,
        ids: &mut Vec<u32>,
    ) {
        let h = self.config.slices[slice_idx].history;
        let end = window.len() - drop_newest.min(window.len().saturating_sub(1));
        // Last H positions before `end`, zero-padded at front.
        let have = end.min(h);
        ids.resize(ids.len() + h - have, 0);
        match self.config.conv_hash_bits {
            None => ids.extend_from_slice(&window[end - have..end]),
            Some(bits) => {
                // Hash of each K-window ending at the position.
                let k = self.config.conv_width;
                ids.extend((end - have..end).map(|pos| conv_hash(window, pos, k, bits)));
            }
        }
    }

    /// Forward pass over a batch of full-history windows. In training
    /// mode, batch-norm uses batch statistics and sliding slices apply
    /// random window dropping via `rng`.
    ///
    /// Returns logits shaped `[batch, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if windows are not all `max_history` long.
    #[must_use]
    pub fn forward(&mut self, windows: &[&[u32]], train: bool, rng: &mut SmallRng) -> Tensor {
        self.run(windows, train.then_some(rng))
    }

    /// The forward pass: training mode when `drop_rng` is given (it
    /// draws the sliding slices' window drops), eval mode otherwise.
    fn run(&mut self, windows: &[&[u32]], mut drop_rng: Option<&mut SmallRng>) -> Tensor {
        let train = drop_rng.is_some();
        let batch = windows.len();
        assert!(batch > 0, "empty batch");
        let want = self.config.window_len();
        for w in windows {
            assert_eq!(w.len(), want, "all windows must be window_len long");
        }
        self.last_batch = batch;
        let mut features = Tensor::zeros(&[batch, self.config.total_pooled()]);
        let mut offset = 0usize;
        for si in 0..self.slices.len() {
            let s_cfg = self.slices[si].cfg;
            let h = s_cfg.history;
            // Assemble ids for the whole batch.
            let mut ids = Vec::with_capacity(batch * h);
            for w in windows {
                let drop = match drop_rng.as_deref_mut() {
                    Some(rng) if !s_cfg.precise_pooling => rng.gen_range(0..s_cfg.pool_width),
                    _ => 0,
                };
                self.push_slice_ids(si, w, drop, &mut ids);
            }
            let binarize = self.conv_binarize;
            self.last_binarize = binarize;
            let slice = &mut self.slices[si];
            let mut x = slice.embedding.forward(&ids, batch, h, train); // [B, dim, H]
            if let Some(conv) = slice.conv.as_mut() {
                x = conv.forward(&x, train); // [B, C, H]
            }
            let x = slice.bn1.forward(&x, train);
            let x = slice.act1(binarize).forward(&x, train);
            let mut x = slice.pool.forward(&x, train); // [B, C, H/P]
            if let Some(bn2) = slice.bn2.as_mut() {
                x = bn2.forward(&x, train);
            }
            if let Some(act2) = slice.act2.as_mut() {
                x = act2.forward(&x, train);
            }
            // Flatten into the feature tensor.
            let per = s_cfg.channels * s_cfg.pooled_len();
            for b in 0..batch {
                let src = &x.data()[b * per..(b + 1) * per];
                let dst_base = b * self.config.total_pooled() + offset;
                features.data_mut()[dst_base..dst_base + per].copy_from_slice(src);
            }
            offset += per;
        }
        let mut x = features;
        for (dense, bn, act) in &mut self.hidden {
            let a = dense.forward(&x, train);
            let a = bn.forward(&a, train);
            x = act.forward(&a, train);
        }
        self.out.forward(&x, train)
    }

    /// Backward pass from the loss gradient on the logits. Must follow
    /// a training-mode [`forward`](Self::forward) on the same batch.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let mut g = self.out.backward(grad_logits);
        for (dense, bn, act) in self.hidden.iter_mut().rev() {
            let ga = act.backward(&g);
            let ga = bn.backward(&ga);
            g = dense.backward(&ga);
        }
        // Split the feature gradient back into slices.
        let batch = self.last_batch;
        let total = self.config.total_pooled();
        let mut offset = 0usize;
        for slice in &mut self.slices {
            let per = slice.cfg.channels * slice.cfg.pooled_len();
            let mut gs = Tensor::zeros(&[batch, slice.cfg.channels, slice.cfg.pooled_len()]);
            for b in 0..batch {
                let src = &g.data()[b * total + offset..b * total + offset + per];
                gs.data_mut()[b * per..(b + 1) * per].copy_from_slice(src);
            }
            let mut gx = gs;
            if let Some(act2) = slice.act2.as_mut() {
                gx = act2.backward(&gx);
            }
            if let Some(bn2) = slice.bn2.as_mut() {
                gx = bn2.backward(&gx);
            }
            let gx = slice.pool.backward(&gx);
            let binarize = self.last_binarize;
            let gx = slice.act1(binarize).backward(&gx);
            let gx = slice.bn1.backward(&gx);
            let gx = match slice.conv.as_mut() {
                Some(conv) => conv.backward(&gx),
                None => gx,
            };
            slice.embedding.backward(&gx);
            offset += per;
        }
    }

    /// Inference on a single full-history window (eval mode, no
    /// sliding randomization). Returns the raw logit; `>= 0` predicts
    /// taken.
    #[must_use]
    pub fn predict_logit(&mut self, window: &[u32]) -> f32 {
        self.run(&[window], None).data()[0]
    }

    /// Convenience direction prediction.
    #[must_use]
    pub fn predict(&mut self, window: &[u32]) -> bool {
        self.predict_logit(window) >= 0.0
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn param_count(&mut self) -> usize {
        self.num_params()
    }

    /// Read access for quantization: per-slice `(conv table, bn1,
    /// bn2)` and the FC stack. Only meaningful for hashed (Mini)
    /// models.
    #[must_use]
    pub(crate) fn mini_parts(&self) -> MiniParts<'_> {
        assert!(self.config.is_hashed(), "mini_parts requires a hashed model");
        MiniParts {
            slices: self
                .slices
                .iter()
                .map(|s| MiniSliceParts {
                    cfg: s.cfg,
                    table: s.embedding.table(),
                    bn1: &s.bn1,
                    bn2: s.bn2.as_ref().expect("mini slices carry bn2"),
                })
                .collect(),
            hidden: self.hidden.iter().map(|(d, bn, _)| (d, bn)).collect(),
            out: &self.out,
        }
    }
}

/// Borrowed views of a trained Mini model used by quantization.
pub(crate) struct MiniParts<'a> {
    pub slices: Vec<MiniSliceParts<'a>>,
    pub hidden: Vec<(&'a Dense, &'a BatchNorm1d)>,
    pub out: &'a Dense,
}

/// Borrowed views of one Mini slice.
pub(crate) struct MiniSliceParts<'a> {
    pub cfg: SliceConfig,
    pub table: &'a Tensor,
    pub bn1: &'a BatchNorm1d,
    pub bn2: &'a BatchNorm1d,
}

impl ParamVisitor for BranchNetModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for s in &mut self.slices {
            s.embedding.visit_params(f);
            if let Some(conv) = s.conv.as_mut() {
                conv.visit_params(f);
            }
            s.bn1.visit_params(f);
            if let Some(bn2) = s.bn2.as_mut() {
                bn2.visit_params(f);
            }
        }
        for (dense, bn, _) in &mut self.hidden {
            dense.visit_params(f);
            bn.visit_params(f);
        }
        self.out.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_big_config() -> BranchNetConfig {
        BranchNetConfig {
            name: "tiny-big".into(),
            slices: vec![
                SliceConfig { history: 8, channels: 3, pool_width: 2, precise_pooling: true },
                SliceConfig { history: 16, channels: 2, pool_width: 4, precise_pooling: false },
            ],
            pc_bits: 4,
            conv_hash_bits: None,
            embedding_dim: 4,
            conv_width: 3,
            hidden: vec![6],
            fc_quant_bits: None,
            tanh_activations: false,
        }
    }

    fn tiny_mini_config() -> BranchNetConfig {
        BranchNetConfig {
            name: "tiny-mini".into(),
            slices: vec![
                SliceConfig { history: 8, channels: 3, pool_width: 2, precise_pooling: true },
                SliceConfig { history: 16, channels: 2, pool_width: 4, precise_pooling: false },
            ],
            pc_bits: 4,
            conv_hash_bits: Some(6),
            embedding_dim: 0,
            conv_width: 3,
            hidden: vec![5],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        }
    }

    fn window(seed: u32) -> Vec<u32> {
        // window_len = max_history (16) + K-1 (2) = 18.
        (0..18).map(|i| (i * 7 + seed) % 32).collect()
    }

    #[test]
    fn forward_produces_one_logit_per_example() {
        for cfg in [tiny_big_config(), tiny_mini_config()] {
            let mut m = BranchNetModel::new(&cfg, 42);
            let w1 = window(1);
            let w2 = window(9);
            let mut rng = SmallRng::seed_from_u64(0);
            let out = m.forward(&[&w1, &w2], true, &mut rng);
            assert_eq!(out.shape(), &[2, 1]);
            assert!(out.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn eval_forward_is_deterministic() {
        let mut m = BranchNetModel::new(&tiny_mini_config(), 7);
        let w = window(3);
        assert_eq!(m.predict_logit(&w), m.predict_logit(&w));
    }

    #[test]
    fn backward_accumulates_gradients_everywhere() {
        for cfg in [tiny_big_config(), tiny_mini_config()] {
            let mut m = BranchNetModel::new(&cfg, 1);
            let w1 = window(1);
            let w2 = window(2);
            let mut rng = SmallRng::seed_from_u64(0);
            let logits = m.forward(&[&w1, &w2], true, &mut rng);
            let (_, grad) = branchnet_nn::loss::bce_with_logits(&logits, &[1.0, 0.0]);
            m.backward(&grad);
            let mut nonzero_params = 0;
            m.visit_params(&mut |_, g| {
                if g.max_abs() > 0.0 {
                    nonzero_params += 1;
                }
            });
            assert!(nonzero_params >= 6, "{}: only {nonzero_params} grads", cfg.name);
        }
    }

    #[test]
    fn model_can_fit_a_simple_counting_rule() {
        // Label = 1 iff the window contains more odd entries (taken
        // branches) than even in the last 8 — exactly the counting
        // structure BranchNet exists for.
        let cfg = tiny_mini_config();
        let mut m = BranchNetModel::new(&cfg, 3);
        let mut opt = branchnet_nn::optim::Adam::new(0.02);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut data = Vec::new();
        for i in 0..200u32 {
            let mut w: Vec<u32> = (0..18).map(|j| ((i * 31 + j * 7) % 16) * 2).collect();
            let taken_cnt = (i % 9) as usize;
            for slot in w.iter_mut().take(8).skip(8 - taken_cnt.min(8)) {
                *slot |= 1;
            }
            // Shuffle the tail a bit so positions vary.
            let label = if taken_cnt > 4 { 1.0f32 } else { 0.0 };
            data.push((w, label));
        }
        for _ in 0..60 {
            for chunk in data.chunks(32) {
                let windows: Vec<&[u32]> = chunk.iter().map(|(w, _)| w.as_slice()).collect();
                let labels: Vec<f32> = chunk.iter().map(|(_, l)| *l).collect();
                let logits = m.forward(&windows, true, &mut rng);
                let (_, grad) = branchnet_nn::loss::bce_with_logits(&logits, &labels);
                m.backward(&grad);
                opt.step(&mut m);
                m.zero_grad();
            }
        }
        let correct = data.iter().filter(|(w, l)| m.predict(w) == (*l >= 0.5)).count();
        let acc = correct as f64 / data.len() as f64;
        assert!(acc > 0.9, "counting-rule accuracy only {acc}");
    }

    #[test]
    fn param_count_is_positive_and_config_dependent() {
        let mut small = BranchNetModel::new(&tiny_mini_config(), 0);
        let mut big = BranchNetModel::new(&tiny_big_config(), 0);
        assert!(small.param_count() > 0);
        assert!(big.param_count() > small.param_count());
    }

    #[test]
    #[should_panic(expected = "window_len")]
    fn wrong_window_length_rejected() {
        let mut m = BranchNetModel::new(&tiny_mini_config(), 0);
        let short = vec![0u32; 3];
        let _ = m.predict_logit(&short);
    }
}
