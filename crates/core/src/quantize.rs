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
//!   vector. A pooled sum is an integer in `[-P, P]`, so the quantized
//!   feature of each (slice, channel) is a `2P+1`-entry table built
//!   here from the same float expression: the fully-quantized datapath
//!   does no float arithmetic at prediction.
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
    /// Quantized feature of every pooled sum: `[C * (2P+1)]`, entry
    /// `sum + P` of each channel's row.
    features: Vec<i16>,
}

impl QuantSlice {
    /// The binarized response of table entry `id` on `channel`.
    #[must_use]
    pub fn sign(&self, id: u32, channel: usize) -> i8 {
        self.sign_table[id as usize * self.cfg.channels + channel]
    }

    /// The binarized responses of table entry `id`, one per channel.
    pub(crate) fn signs(&self, id: u32) -> &[i8] {
        let c = self.cfg.channels;
        &self.sign_table[id as usize * c..(id as usize + 1) * c]
    }

    /// `channel`'s quantized features: entry `sum + P` is the feature
    /// of pooled sum `sum`.
    pub(crate) fn features(&self, channel: usize) -> &[i16] {
        let width = 2 * self.cfg.pool_width + 1;
        &self.features[channel * width..(channel + 1) * width]
    }
}

/// A fully-lowered Mini-BranchNet model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedMini {
    config: BranchNetConfig,
    slices: Vec<QuantSlice>,
    // Float FC (for ConvOnly mode and LUT construction).
    fc1_w: Vec<f32>, // [N * total]
    fc1_b: Vec<f32>,
    bn3_scale: Vec<f32>,
    bn3_shift: Vec<f32>,
    out_w: Vec<f32>,
    out_b: f32,
    // Integer FC.
    fc1_wq: Vec<i16>, // [N * total]
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
            let p = sp.cfg.pool_width as i32;
            // Post-pool normalization + Tanh, quantized to q bits.
            let features = (0..c)
                .flat_map(|ch| (-p..=p).map(move |sum| (ch, sum)))
                .map(|(ch, sum)| {
                    let x = scale2[ch] * sum as f32 + shift2[ch];
                    (x.tanh() * qmax).round().clamp(-qmax, qmax) as i16
                })
                .collect();
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
                features,
            });
        }

        let (fc1, bn3) = parts.hidden[0];
        let (bn3_scale, bn3_shift) = bn3.affine_form();
        let n = fc1.out_features();
        assert!(n < usize::BITS as usize, "the final LUT indexes 2^N hidden patterns");
        // Features and weights are at most 8-bit (config validation),
        // so a block of FC_BLOCK products sums exactly in an i32.
        assert!(q <= 8, "the integer FC holds values of at most 8 bits");
        let fc1_w = fc1.weight().data().to_vec();
        let fc1_b = fc1.bias().data().to_vec();

        // Symmetric per-layer weight quantization.
        let wmax = fc1_w.iter().fold(0.0f32, |m, w| m.max(w.abs())).max(1e-6);
        let wscale = wmax / qmax;
        let fc1_wq: Vec<i16> =
            fc1_w.iter().map(|w| (w / wscale).round().clamp(-qmax, qmax) as i16).collect();

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
    /// feature count, or in `Full` mode if a sum is outside its slice's
    /// `[-P, P]`.
    #[must_use]
    pub fn predict_from_sums(&self, sums: &[i32], mode: QuantMode) -> bool {
        assert_eq!(sums.len(), self.config.total_pooled(), "pooled feature count mismatch");
        let mut sums = sums.iter();
        match mode {
            QuantMode::ConvOnly => {
                // Post-pool normalization + Tanh per channel, then the
                // float FC on the (binarized-conv) features.
                let mut feats = Vec::with_capacity(sums.len());
                for s in &self.slices {
                    for ch in 0..s.cfg.channels {
                        for &sum in sums.by_ref().take(s.cfg.pooled_len()) {
                            let x = s.bn2_scale[ch] * sum as f32 + s.bn2_shift[ch];
                            feats.push(x.tanh());
                        }
                    }
                }
                let total = feats.len();
                let mut logit = self.out_b;
                for j in 0..self.thresholds.len() {
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
                let mut fc = IntegerFc::new(self);
                for s in &self.slices {
                    let p = s.cfg.pool_width as i32;
                    for ch in 0..s.cfg.channels {
                        let features = s.features(ch);
                        for &sum in sums.by_ref().take(s.cfg.pooled_len()) {
                            fc.push(features[(sum + p) as usize]);
                        }
                    }
                }
                fc.finish()
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

/// Features per [`IntegerFc`] block: 64 products of 8-bit values sum
/// exactly in an `i32`.
const FC_BLOCK: usize = 64;

/// The fully-quantized FC stage, fed one quantized feature at a time
/// in `[slice][channel][window]` order. Features are buffered in blocks
/// of [`FC_BLOCK`]; each full block is multiplied into every hidden
/// neuron's integer dot product, so nothing is allocated.
/// [`finish`](Self::finish) thresholds the dot products and reads the
/// final LUT.
pub(crate) struct IntegerFc<'a> {
    model: &'a QuantizedMini,
    /// Features per neuron (the weight matrix's row length).
    total: usize,
    dots: [i64; usize::BITS as usize],
    block: [i16; FC_BLOCK],
    filled: usize,
    /// Features already multiplied in.
    done: usize,
}

impl<'a> IntegerFc<'a> {
    /// An FC stage with every dot product at zero.
    pub(crate) fn new(model: &'a QuantizedMini) -> Self {
        Self {
            model,
            total: model.fc1_wq.len() / model.thresholds.len(),
            dots: [0; usize::BITS as usize],
            block: [0; FC_BLOCK],
            filled: 0,
            done: 0,
        }
    }

    /// Accumulates the next feature.
    pub(crate) fn push(&mut self, feature: i16) {
        self.block[self.filled] = feature;
        self.filled += 1;
        if self.filled == FC_BLOCK {
            self.flush();
        }
    }

    /// Multiplies the buffered features into every dot product.
    fn flush(&mut self) {
        let block = &self.block[..self.filled];
        for (j, dot) in self.dots[..self.model.thresholds.len()].iter_mut().enumerate() {
            let start = j * self.total + self.done;
            let weights = &self.model.fc1_wq[start..start + block.len()];
            let sum: i32 =
                weights.iter().zip(block).map(|(&w, &x)| i32::from(w) * i32::from(x)).sum();
            *dot += i64::from(sum);
        }
        self.done += self.filled;
        self.filled = 0;
    }

    /// The predicted direction once every feature has been pushed.
    pub(crate) fn finish(mut self) -> bool {
        self.model.lut[self.hidden_pattern()]
    }

    /// The binarized hidden vector: bit `j` is neuron `j`'s threshold
    /// test on its dot product.
    fn hidden_pattern(&mut self) -> usize {
        self.flush();
        debug_assert_eq!(self.done, self.total, "feature count mismatch");
        let mut pattern = 0usize;
        for (j, (&dot, &(t, flipped))) in self.dots.iter().zip(&self.model.thresholds).enumerate() {
            let bit = if flipped { dot <= t } else { dot >= t };
            pattern |= usize::from(bit) << j;
        }
        pattern
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

    /// The binarized hidden vector of the fully-quantized datapath as
    /// first written: a float `tanh` per pooled feature, rounded once
    /// per (feature, neuron), against neuron-major weights requantized
    /// from `fc1_w`. The feature table and `IntegerFc` must give its
    /// answer on every input.
    fn reference_hidden_pattern(quant: &QuantizedMini, sums: &[i32]) -> usize {
        let q = quant.config.fc_quant_bits.expect("quantized config");
        let qmax = ((1i32 << (q - 1)) - 1) as f32;
        let wmax = quant.fc1_w.iter().fold(0.0f32, |m, w| m.max(w.abs())).max(1e-6);
        let wscale = wmax / qmax;
        let fc1_wq: Vec<i32> =
            quant.fc1_w.iter().map(|w| (w / wscale).round().clamp(-qmax, qmax) as i32).collect();
        let mut feats = vec![0.0f32; sums.len()];
        let mut idx = 0;
        for s in &quant.slices {
            let windows = s.cfg.pooled_len();
            for ch in 0..s.cfg.channels {
                for _ in 0..windows {
                    let x = s.bn2_scale[ch] * sums[idx] as f32 + s.bn2_shift[ch];
                    feats[idx] = x.tanh();
                    idx += 1;
                }
            }
        }
        let total = feats.len();
        let mut pattern = 0usize;
        for j in 0..quant.thresholds.len() {
            let mut dot = 0i64;
            for (i, f) in feats.iter().enumerate() {
                let xq = (f * qmax).round().clamp(-qmax, qmax) as i64;
                dot += i64::from(fc1_wq[j * total + i]) * xq;
            }
            let (t, flipped) = quant.thresholds[j];
            let bit = if flipped { dot <= t } else { dot >= t };
            if bit {
                pattern |= 1 << j;
            }
        }
        pattern
    }

    /// A briefly trained model of `cfg` on random windows, so every
    /// batch norm has moved off its initial identity.
    fn preset_model(cfg: &BranchNetConfig) -> QuantizedMini {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let examples = (0..96)
            .map(|i| {
                let window = (0..cfg.window_len())
                    .map(|_| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        (seed >> 11) as u32 & ((2 << cfg.pc_bits) - 1)
                    })
                    .collect();
                Example { window, label: f32::from(u8::from(i % 3 == 0)) }
            })
            .collect();
        let ds = BranchDataset { pc: 0x7, max_history: cfg.window_len(), examples };
        let (model, _) = train_model(cfg, &ds, &TrainOptions { epochs: 2, ..Default::default() });
        QuantizedMini::from_model(&model)
    }

    fn presets() -> Vec<BranchNetConfig> {
        let mut configs: Vec<_> =
            BranchNetConfig::mini_menu().into_iter().map(|(c, _)| c).collect();
        configs.push(BranchNetConfig::tarsa_ternary());
        configs
    }

    #[test]
    fn feature_table_matches_reference_expression() {
        for cfg in presets() {
            let quant = preset_model(&cfg);
            let qmax = ((1i32 << (cfg.fc_quant_bits.unwrap() - 1)) - 1) as f32;
            for s in quant.slices() {
                let p = s.cfg.pool_width as i32;
                assert_eq!(s.features.len(), s.cfg.channels * (2 * p as usize + 1));
                for ch in 0..s.cfg.channels {
                    for sum in -p..=p {
                        let x = s.bn2_scale[ch] * sum as f32 + s.bn2_shift[ch];
                        let expect = (x.tanh() * qmax).round().clamp(-qmax, qmax) as i16;
                        assert_eq!(
                            s.features(ch)[(sum + p) as usize],
                            expect,
                            "{} channel {ch} sum {sum}",
                            cfg.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn integer_fc_matches_reference_datapath() {
        for cfg in presets() {
            let quant = preset_model(&cfg);
            let mut seed = 0xD1B5_4A32_D192_ED03u64;
            let mut patterns = std::collections::BTreeSet::new();
            for _ in 0..300 {
                let sums: Vec<i32> = quant
                    .slices()
                    .iter()
                    .flat_map(|s| {
                        let p = s.cfg.pool_width as u64;
                        (0..s.cfg.channels * s.cfg.pooled_len())
                            .map(|_| {
                                seed ^= seed << 13;
                                seed ^= seed >> 7;
                                seed ^= seed << 17;
                                ((seed >> 17) % (2 * p + 1)) as i32 - p as i32
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let expect = reference_hidden_pattern(&quant, &sums);
                let mut fc = IntegerFc::new(&quant);
                let mut next = sums.iter();
                for s in quant.slices() {
                    let p = s.cfg.pool_width as i32;
                    for ch in 0..s.cfg.channels {
                        for &sum in next.by_ref().take(s.cfg.pooled_len()) {
                            fc.push(s.features(ch)[(sum + p) as usize]);
                        }
                    }
                }
                assert_eq!(fc.hidden_pattern(), expect, "{}", cfg.name);
                assert_eq!(quant.predict_from_sums(&sums, QuantMode::Full), quant.lut[expect]);
                patterns.insert(expect);
            }
            assert!(patterns.len() > 1, "{}: the random sums reach one hidden vector", cfg.name);
        }
    }
}
