//! Quantization of trained Mini-BranchNet models (paper Section V-B,
//! Optimizations 2 and 4).
//!
//! A trained float [`BranchNetModel`] with hashed convolutions is
//! lowered to a [`QuantizedMini`]:
//!
//! * **Convolution binarization** — every `2^h`-entry convolution
//!   table row is reduced to the *sign* of its batch-norm-fused
//!   response (`1` bit per channel per entry). Sum-pooling then
//!   produces small integer counts in `[-P, +P]`.
//! * **Fixed-point fully-connected** — pooled features pass through
//!   the fused post-pool batch-norm + Tanh and are quantized to `q`
//!   bits; first-layer weights are quantized to `q` bits; each hidden
//!   neuron's batch norm and binarization collapse into a single
//!   integer threshold on the integer dot product; and the final layer
//!   becomes a `2^N`-entry lookup table over the binarized hidden
//!   vector.
//!
//! [`QuantMode`] selects how much of the ladder applies, which is what
//! the paper's Table IV measures.

use crate::config::{BranchNetConfig, SliceConfig};
use crate::hashing::conv_hash;
use crate::model::BranchNetModel;
use serde::{Deserialize, Serialize};

/// How far down the quantization ladder to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantMode {
    /// Binarized convolutions, floating-point fully-connected stage
    /// (Table IV row "Quantized convolution").
    ConvOnly,
    /// Fully quantized: integer FC with thresholds and the final LUT
    /// (Table IV row "Fully-quantized"; what the engine executes).
    Full,
}

/// One quantized slice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantSlice {
    /// Architecture of this slice.
    pub cfg: SliceConfig,
    /// Binarized convolution responses: `[2^h * C]`, each `-1` or `+1`.
    sign_table: Vec<i8>,
    /// Fused post-pool batch-norm scale per channel.
    bn2_scale: Vec<f32>,
    /// Fused post-pool batch-norm shift per channel.
    bn2_shift: Vec<f32>,
}

impl QuantSlice {
    /// The binarized response of table entry `id` on `channel`.
    #[must_use]
    pub fn sign(&self, id: u32, channel: usize) -> i8 {
        self.sign_table[id as usize * self.cfg.channels + channel]
    }
}

/// A fully-lowered Mini-BranchNet model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedMini {
    config: BranchNetConfig,
    slices: Vec<QuantSlice>,
    q: u32,
    // Float FC (for ConvOnly mode and LUT construction).
    fc1_w: Vec<f32>, // [N * total]
    fc1_b: Vec<f32>,
    bn3_scale: Vec<f32>,
    bn3_shift: Vec<f32>,
    out_w: Vec<f32>,
    out_b: f32,
    // Integer FC.
    fc1_wq: Vec<i32>, // [N * total]
    /// Per-neuron `(threshold, flipped)`: hidden bit = `dot >= t`
    /// (or `dot <= t` when flipped).
    thresholds: Vec<(i64, bool)>,
    /// Final-layer lookup table over binarized hidden vectors.
    lut: Vec<bool>,
}

impl QuantizedMini {
    /// Lowers a trained hashed-convolution model.
    ///
    /// # Panics
    ///
    /// Panics if the model is not a Mini-style (hashed, quantized,
    /// single-hidden-layer) model.
    #[must_use]
    pub fn from_model(model: &BranchNetModel) -> Self {
        let config = model.config().clone();
        assert!(
            config.is_hashed(),
            "quantization requires a hashed convolution (conv_hash_bits = Some): \
             config '{}' uses a float convolution and cannot be lowered",
            config.name
        );
        let q = config.fc_quant_bits.expect("quantization requires fc_quant_bits");
        assert_eq!(config.hidden.len(), 1, "Mini models have one hidden FC layer");
        let parts = model.mini_parts();
        let qmax = ((1i32 << (q - 1)) - 1) as f32;

        let mut slices = Vec::new();
        for sp in &parts.slices {
            let (scale1, shift1) = sp.bn1.affine_form();
            let (scale2, shift2) = sp.bn2.affine_form();
            let c = sp.cfg.channels;
            let entries = sp.table.len() / c;
            let mut sign_table = vec![0i8; entries * c];
            for id in 0..entries {
                for ch in 0..c {
                    let raw = sp.table.data()[id * c + ch];
                    let normed = scale1[ch] * raw + shift1[ch];
                    sign_table[id * c + ch] = if normed >= 0.0 { 1 } else { -1 };
                }
            }
            slices.push(QuantSlice {
                cfg: sp.cfg,
                sign_table,
                bn2_scale: scale2,
                bn2_shift: shift2,
            });
        }

        let (fc1, bn3) = parts.hidden[0];
        let (bn3_scale, bn3_shift) = bn3.affine_form();
        let n = fc1.out_features();
        let _ = fc1.in_features();
        let fc1_w = fc1.weight().data().to_vec();
        let fc1_b = fc1.bias().data().to_vec();

        // Symmetric per-layer weight quantization.
        let wmax = fc1_w.iter().fold(0.0f32, |m, w| m.max(w.abs())).max(1e-6);
        let wscale = wmax / qmax;
        let fc1_wq: Vec<i32> =
            fc1_w.iter().map(|w| (w / wscale).round().clamp(-qmax, qmax) as i32).collect();

        // Fuse bn3 + binarization into integer thresholds:
        // bit = [scale3*(s_w/Qmax · dot + b) + shift3 >= 0].
        let mut thresholds = Vec::with_capacity(n);
        for j in 0..n {
            let a = bn3_scale[j] * wscale / qmax; // coefficient on dot
            let b = bn3_scale[j] * fc1_b[j] + bn3_shift[j];
            if a.abs() < 1e-12 {
                // Degenerate neuron: constant bit.
                thresholds.push((if b >= 0.0 { i64::MIN } else { i64::MAX }, false));
            } else if a > 0.0 {
                thresholds.push(((-b / a).ceil() as i64, false));
            } else {
                thresholds.push(((-b / a).floor() as i64, true));
            }
        }

        let out_w = parts.out.weight().data().to_vec();
        let out_b = parts.out.bias().data()[0];
        // Final-layer LUT over all 2^N binarized hidden patterns.
        let lut: Vec<bool> = (0..(1usize << n))
            .map(|pattern| {
                let mut z = out_b;
                for (j, w) in out_w.iter().enumerate() {
                    let h = if pattern >> j & 1 == 1 { 1.0 } else { -1.0 };
                    z += w * h;
                }
                z >= 0.0
            })
            .collect();

        Self {
            config,
            slices,
            q,
            fc1_w,
            fc1_b,
            bn3_scale,
            bn3_shift,
            out_w,
            out_b,
            fc1_wq,
            thresholds,
            lut,
        }
    }

    /// The architecture this model implements.
    #[must_use]
    pub fn config(&self) -> &BranchNetConfig {
        &self.config
    }

    /// The quantized slices (used by the inference engine).
    #[must_use]
    pub fn slices(&self) -> &[QuantSlice] {
        &self.slices
    }

    /// Computes the pooled integer sums for a full-history window
    /// (oldest → newest), flattened `[slice][channel][window]` — the
    /// values an inference engine's pooling buffers would hold with
    /// prediction-aligned windows.
    #[must_use]
    pub fn pooled_sums(&self, window: &[u32]) -> Vec<i32> {
        assert_eq!(window.len(), self.config.window_len(), "window must be window_len long");
        let k = self.config.conv_width;
        let h_bits = self.config.conv_hash_bits.expect("hashed model");
        let mut sums = Vec::with_capacity(self.config.total_pooled());
        for s in &self.slices {
            let h = s.cfg.history;
            let c = s.cfg.channels;
            let p = s.cfg.pool_width;
            let windows = h / p;
            let end = window.len();
            // Conv signs for each of the H positions (older-than-stream
            // positions contribute 0, matching zero-padded training).
            let mut signs = vec![0i8; h * c];
            let have = end.min(h);
            for i in 0..have {
                let pos = end - have + i;
                let id = conv_hash(window, pos, k, h_bits);
                for ch in 0..c {
                    signs[(h - have + i) * c + ch] = s.sign(id, ch);
                }
            }
            for ch in 0..c {
                for w in 0..windows {
                    let mut acc = 0i32;
                    for t in 0..p {
                        acc += i32::from(signs[(w * p + t) * c + ch]);
                    }
                    sums.push(acc);
                }
            }
        }
        sums
    }

    /// Runs the fully-connected stage on pooled sums (flattened
    /// `[slice][channel][window]`) under the chosen quantization mode
    /// and returns the predicted direction.
    ///
    /// # Panics
    ///
    /// Panics if `sums.len()` differs from the config's total pooled
    /// feature count.
    #[must_use]
    pub fn predict_from_sums(&self, sums: &[i32], mode: QuantMode) -> bool {
        assert_eq!(sums.len(), self.config.total_pooled(), "pooled feature count mismatch");
        // Post-pool normalization + Tanh per channel.
        let mut feats = vec![0.0f32; sums.len()];
        let mut idx = 0;
        for s in &self.slices {
            let windows = s.cfg.pooled_len();
            for ch in 0..s.cfg.channels {
                for _ in 0..windows {
                    let x = s.bn2_scale[ch] * sums[idx] as f32 + s.bn2_shift[ch];
                    feats[idx] = x.tanh();
                    idx += 1;
                }
            }
        }
        let n = self.thresholds.len();
        match mode {
            QuantMode::ConvOnly => {
                // Float FC on the (binarized-conv) features.
                let total = feats.len();
                let mut logit = self.out_b;
                for j in 0..n {
                    let mut z = self.fc1_b[j];
                    for (i, f) in feats.iter().enumerate() {
                        z += self.fc1_w[j * total + i] * f;
                    }
                    let hval = (self.bn3_scale[j] * z + self.bn3_shift[j]).tanh();
                    logit += self.out_w[j] * hval;
                }
                logit >= 0.0
            }
            QuantMode::Full => {
                let qmax = ((1i32 << (self.q - 1)) - 1) as f32;
                let total = feats.len();
                let mut pattern = 0usize;
                for j in 0..n {
                    let mut dot = 0i64;
                    for (i, f) in feats.iter().enumerate() {
                        let xq = (f * qmax).round().clamp(-qmax, qmax) as i64;
                        dot += i64::from(self.fc1_wq[j * total + i]) * xq;
                    }
                    let (t, flipped) = self.thresholds[j];
                    let bit = if flipped { dot <= t } else { dot >= t };
                    if bit {
                        pattern |= 1 << j;
                    }
                }
                self.lut[pattern]
            }
        }
    }

    /// End-to-end prediction from a full-history window.
    #[must_use]
    pub fn predict(&self, window: &[u32], mode: QuantMode) -> bool {
        let sums = self.pooled_sums(window);
        self.predict_from_sums(&sums, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SliceConfig;
    use crate::dataset::{BranchDataset, Example};
    use crate::trainer::{evaluate_accuracy, train_model, TrainOptions};

    fn tiny_config() -> BranchNetConfig {
        BranchNetConfig {
            name: "tq".into(),
            slices: vec![
                SliceConfig { history: 12, channels: 3, pool_width: 6, precise_pooling: true },
                SliceConfig { history: 24, channels: 3, pool_width: 6, precise_pooling: false },
            ],
            pc_bits: 4,
            conv_hash_bits: Some(6),
            embedding_dim: 0,
            conv_width: 3,
            hidden: vec![6],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        }
    }

    fn counting_dataset(n: usize) -> BranchDataset {
        let a = 0b0_0101u32;
        let b = 0b0_1001u32;
        let mut examples = Vec::new();
        for i in 0..n {
            let ca = i % 10;
            let cb = (i / 10) % 10;
            let mut window = vec![0u32; 26];
            for slot in window.iter_mut().skip(14).take(ca) {
                *slot = a;
            }
            for slot in window.iter_mut().take(cb) {
                *slot = b;
            }
            examples.push(Example { window, label: if ca > cb { 1.0 } else { 0.0 } });
        }
        BranchDataset { pc: 0x7, max_history: 26, examples }
    }

    fn trained() -> (BranchNetModel, BranchDataset) {
        let ds = counting_dataset(600);
        let (model, _) = train_model(
            &tiny_config(),
            &ds,
            &TrainOptions { epochs: 50, batch_size: 32, lr: 0.02, ..Default::default() },
        );
        (model, ds)
    }

    #[test]
    #[should_panic(expected = "quantization requires a hashed convolution")]
    fn from_model_rejects_non_hashed_configs() {
        // A float-convolution (Big-style) model has no hashed tables
        // for the streaming datapath; lowering it must fail loudly at
        // construction instead of deep inside the first prediction.
        let mut cfg = tiny_config();
        cfg.conv_hash_bits = None;
        cfg.embedding_dim = 4;
        let ds = counting_dataset(60);
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 1, ..Default::default() });
        let _ = QuantizedMini::from_model(&model);
    }

    #[test]
    fn quantization_ladder_degrades_gracefully() {
        let (mut model, ds) = trained();
        let float_acc = evaluate_accuracy(&mut model, &ds);
        let quant = QuantizedMini::from_model(&model);
        let acc = |mode: QuantMode| {
            ds.examples
                .iter()
                .filter(|e| quant.predict(&e.window, mode) == (e.label >= 0.5))
                .count() as f64
                / ds.len() as f64
        };
        let conv_acc = acc(QuantMode::ConvOnly);
        let full_acc = acc(QuantMode::Full);
        assert!(float_acc > 0.9, "float accuracy {float_acc}");
        // Quantization costs something but not everything.
        assert!(conv_acc > 0.75, "conv-quantized accuracy {conv_acc}");
        assert!(full_acc > 0.7, "fully-quantized accuracy {full_acc}");
    }

    #[test]
    fn pooled_sums_are_bounded_by_pool_width() {
        let (model, ds) = trained();
        let quant = QuantizedMini::from_model(&model);
        let sums = quant.pooled_sums(&ds.examples[0].window);
        let mut idx = 0;
        for s in quant.slices() {
            for _ in 0..s.cfg.channels * s.cfg.pooled_len() {
                assert!(sums[idx].unsigned_abs() as usize <= s.cfg.pool_width);
                idx += 1;
            }
        }
    }

    #[test]
    fn sign_table_is_binary() {
        let (model, _) = trained();
        let quant = QuantizedMini::from_model(&model);
        for s in quant.slices() {
            for id in 0..(s.sign_table.len() / s.cfg.channels) {
                for ch in 0..s.cfg.channels {
                    let v = s.sign(id as u32, ch);
                    assert!(v == 1 || v == -1);
                }
            }
        }
    }

    #[test]
    fn full_mode_is_deterministic() {
        let (model, ds) = trained();
        let quant = QuantizedMini::from_model(&model);
        let w = &ds.examples[3].window;
        assert_eq!(quant.predict(w, QuantMode::Full), quant.predict(w, QuantMode::Full));
    }

    #[test]
    fn lut_covers_all_hidden_patterns() {
        let (model, _) = trained();
        let quant = QuantizedMini::from_model(&model);
        assert_eq!(quant.lut.len(), 1 << quant.thresholds.len());
    }

    #[test]
    fn ternary_quantization_supported() {
        // q=2 yields weights in {-1, 0, 1} (Tarsa-Ternary).
        let mut cfg = tiny_config();
        cfg.fc_quant_bits = Some(2);
        let ds = counting_dataset(200);
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 5, ..Default::default() });
        let quant = QuantizedMini::from_model(&model);
        assert!(quant.fc1_wq.iter().all(|&w| (-1..=1).contains(&w)));
    }
}
