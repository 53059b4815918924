//! The on-chip Mini-BranchNet inference engine (paper Section V-B,
//! Fig. 6/7).
//!
//! The engine processes branches **one at a time** as they retire
//! (Optimization 1): each incoming branch is hashed with its `K−1`
//! predecessors, looked up in the binarized convolution tables, and
//! accumulated into per-slice *convolutional histories* —
//!
//! * **precise-pooling slices** buffer the last `H` binary convolution
//!   outputs so prediction-time windows align exactly to the newest
//!   branch;
//! * **sliding-pooling slices** (Optimization 3) keep only completed
//!   `P`-wide window sums plus one running partial sum, so the most
//!   recent `0..P−1` branches may be excluded from a prediction —
//!   the nondeterminism the training-time randomization prepares the
//!   model for.
//!
//! Prediction runs the fully-quantized datapath of
//! [`QuantizedMini`]. [`InferenceEngine::checkpoint`] /
//! [`restore`](InferenceEngine::restore) model the pipeline-flush
//! recovery mechanism of Section V-C.

use crate::hashing::conv_hash;
use crate::quantize::{QuantMode, QuantizedMini};
use crate::storage::{storage_breakdown, StorageBreakdown};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A quantized/engine model was built on a config without a
/// convolution hash: the streaming datapaths look up hashed
/// convolution tables, so such a model can never run on the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonHashedConfig {
    /// Name of the offending config.
    pub config: String,
}

impl std::fmt::Display for NonHashedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "config '{}' has no convolution hash (conv_hash_bits = None) and cannot stream",
            self.config
        )
    }
}

impl std::error::Error for NonHashedConfig {}

/// Per-slice streaming state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum SliceState {
    /// Last `H` per-channel binary convolution outputs, newest at the
    /// back.
    Precise { signs: VecDeque<Vec<i8>> },
    /// Completed window sums (newest at the back, up to `H/P`), the
    /// running partial sum, and the window phase counter.
    Sliding { completed: VecDeque<Vec<i32>>, partial: Vec<i32>, phase: usize },
}

/// Cold per-slice streaming state for `model`.
fn fresh_slices(model: &QuantizedMini) -> Vec<SliceState> {
    model
        .slices()
        .iter()
        .map(|s| {
            if s.cfg.precise_pooling {
                SliceState::Precise { signs: VecDeque::with_capacity(s.cfg.history) }
            } else {
                SliceState::Sliding {
                    completed: VecDeque::with_capacity(s.cfg.pooled_len()),
                    partial: vec![0; s.cfg.channels],
                    phase: 0,
                }
            }
        })
        .collect()
}

/// A snapshot of engine state for misprediction recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    recent: VecDeque<u32>,
    slices: Vec<SliceState>,
}

/// The streaming inference engine for one attached static branch.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    model: QuantizedMini,
    /// The last `K` encoded branches, for convolution hashing.
    recent: VecDeque<u32>,
    slices: Vec<SliceState>,
}

impl InferenceEngine {
    /// Wraps a quantized model with fresh streaming state.
    ///
    /// # Errors
    ///
    /// Returns [`NonHashedConfig`] if the model's config is not hashed
    /// (`conv_hash_bits: None`): the streaming update path looks up
    /// hashed convolution tables, so a float/Big-style config can
    /// never run on the engine. Rejecting it here (rather than deep in
    /// [`update`](Self::update)) gives the caller a typed, actionable
    /// error at construction time.
    pub fn new(model: QuantizedMini) -> Result<Self, NonHashedConfig> {
        if !model.config().is_hashed() {
            return Err(NonHashedConfig { config: model.config().name.clone() });
        }
        let slices = fresh_slices(&model);
        Ok(Self { recent: VecDeque::with_capacity(8), model, slices })
    }

    /// The quantized model this engine executes.
    #[must_use]
    pub fn model(&self) -> &QuantizedMini {
        &self.model
    }

    /// Feeds one retired branch (already encoded as the `(p+1)`-bit
    /// `(PC, direction)` integer) through the update pipeline. This is
    /// the single-cycle operation of the paper's update path.
    pub fn update(&mut self, encoded: u32) {
        let k = self.model.config().conv_width;
        if self.recent.len() == k {
            self.recent.pop_front();
        }
        self.recent.push_back(encoded);
        let window = self.recent.make_contiguous();
        let end = window.len() - 1;
        // Validated in `new`: engines are only constructed around
        // hashed configs.
        let h_bits = self.model.config().conv_hash_bits.expect("validated in InferenceEngine::new");
        let id = conv_hash(window, end, k, h_bits);
        for (s, state) in self.model.slices().iter().zip(&mut self.slices) {
            let c = s.cfg.channels;
            match state {
                SliceState::Precise { signs } => {
                    if signs.len() == s.cfg.history {
                        signs.pop_front();
                    }
                    signs.push_back((0..c).map(|ch| s.sign(id, ch)).collect());
                }
                SliceState::Sliding { completed, partial, phase } => {
                    for (ch, p) in partial.iter_mut().enumerate() {
                        *p += i32::from(s.sign(id, ch));
                    }
                    *phase += 1;
                    if *phase == s.cfg.pool_width {
                        if completed.len() == s.cfg.pooled_len() {
                            completed.pop_front();
                        }
                        completed.push_back(std::mem::replace(partial, vec![0; c]));
                        *phase = 0;
                    }
                }
            }
        }
    }

    /// Predicts the attached branch's direction from the current
    /// convolutional histories (the multi-cycle prediction path).
    #[must_use]
    pub fn predict(&self) -> bool {
        let mut sums = Vec::with_capacity(self.model.config().total_pooled());
        for (s, state) in self.model.slices().iter().zip(&self.slices) {
            let c = s.cfg.channels;
            let windows = s.cfg.pooled_len();
            let p = s.cfg.pool_width;
            match state {
                SliceState::Precise { signs } => {
                    // Zero-pad at the old end, then window sums aligned
                    // so the newest window ends at the newest branch.
                    let have = signs.len();
                    let pad = s.cfg.history - have;
                    // `ch` indexes the *inner* per-branch sign vectors,
                    // not `signs` itself, so an iterator doesn't apply.
                    #[allow(clippy::needless_range_loop)]
                    for ch in 0..c {
                        for w in 0..windows {
                            let mut acc = 0i32;
                            for t in 0..p {
                                let pos = w * p + t;
                                if pos >= pad {
                                    acc += i32::from(signs[pos - pad][ch]);
                                }
                            }
                            sums.push(acc);
                        }
                    }
                }
                SliceState::Sliding { completed, .. } => {
                    let have = completed.len();
                    let pad = windows - have;
                    // As above: `ch` indexes the inner window sums.
                    #[allow(clippy::needless_range_loop)]
                    for ch in 0..c {
                        for w in 0..windows {
                            sums.push(if w >= pad { completed[w - pad][ch] } else { 0 });
                        }
                    }
                }
            }
        }
        self.model.predict_from_sums(&sums, QuantMode::Full)
    }

    /// Clears all streaming state (e.g. at a context switch, before
    /// the OS reloads models for another process — Section V-F).
    pub fn reset(&mut self) {
        self.recent = VecDeque::with_capacity(8);
        self.slices = fresh_slices(&self.model);
    }

    /// Captures the streaming state (Section V-C recovery: shadow
    /// space holding recently shifted-out entries).
    #[must_use]
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint { recent: self.recent.clone(), slices: self.slices.clone() }
    }

    /// Restores a previously captured state after a pipeline flush.
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint) {
        self.recent = checkpoint.recent.clone();
        self.slices = checkpoint.slices.clone();
    }

    /// Table II storage of this engine instance.
    #[must_use]
    pub fn storage(&self) -> StorageBreakdown {
        storage_breakdown(self.model.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BranchNetConfig, SliceConfig};
    use crate::dataset::{BranchDataset, Example};
    use crate::trainer::{train_model, TrainOptions};

    fn tiny_config(all_precise: bool) -> BranchNetConfig {
        BranchNetConfig {
            name: "te".into(),
            slices: vec![
                SliceConfig { history: 8, channels: 2, pool_width: 4, precise_pooling: true },
                SliceConfig {
                    history: 16,
                    channels: 2,
                    pool_width: 8,
                    precise_pooling: all_precise,
                },
            ],
            pc_bits: 4,
            conv_hash_bits: Some(6),
            embedding_dim: 0,
            conv_width: 3,
            hidden: vec![4],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        }
    }

    fn quick_model(all_precise: bool) -> QuantizedMini {
        let mut examples = Vec::new();
        for i in 0..120u32 {
            let window: Vec<u32> = (0..18).map(|j| (i * 13 + j * 5) % 32).collect();
            examples.push(Example { window, label: f32::from(u8::from(i % 3 == 0)) });
        }
        let ds = BranchDataset { pc: 1, max_history: 18, examples };
        let (model, _) = train_model(
            &tiny_config(all_precise),
            &ds,
            &TrainOptions { epochs: 2, ..Default::default() },
        );
        QuantizedMini::from_model(&model)
    }

    /// Stream of encoded branches used across tests.
    fn stream(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| (i * 7 + 3) % 32).collect()
    }

    #[test]
    fn precise_engine_matches_batch_path_exactly() {
        // With every slice precise, the streaming engine must agree
        // with QuantizedMini::predict on the same history window.
        let quant = quick_model(true);
        let mut engine = InferenceEngine::new(quant.clone()).unwrap();
        let s = stream(64);
        for (i, &e) in s.iter().enumerate() {
            engine.update(e);
            if i + 1 >= 18 {
                let window: Vec<u32> = s[i + 1 - 18..=i].to_vec();
                assert_eq!(
                    engine.predict(),
                    quant.predict(&window, QuantMode::Full),
                    "diverged at stream position {i}"
                );
            }
        }
    }

    #[test]
    fn sliding_slices_tolerate_window_misalignment() {
        // With sliding pooling the engine may lag up to P-1 branches;
        // it must still produce *a* stable prediction every cycle.
        let quant = quick_model(false);
        let mut engine = InferenceEngine::new(quant).unwrap();
        for &e in &stream(100) {
            engine.update(e);
            let a = engine.predict();
            let b = engine.predict();
            assert_eq!(a, b, "prediction must be a pure function of state");
        }
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let quant = quick_model(false);
        let mut engine = InferenceEngine::new(quant).unwrap();
        let s = stream(40);
        for &e in &s[..20] {
            engine.update(e);
        }
        let ckpt = engine.checkpoint();
        let pred_at_ckpt = engine.predict();
        // Wrong-path execution: pollute state.
        for &e in &s[20..] {
            engine.update(e);
        }
        engine.restore(&ckpt);
        assert_eq!(engine.predict(), pred_at_ckpt);
        assert_eq!(engine.checkpoint(), ckpt);
    }

    #[test]
    fn restore_then_replay_equals_straight_run() {
        let quant = quick_model(false);
        let s = stream(60);
        // Straight run.
        let mut a = InferenceEngine::new(quant.clone()).unwrap();
        for &e in &s {
            a.update(e);
        }
        // Checkpointed run with a flush in the middle.
        let mut b = InferenceEngine::new(quant).unwrap();
        for &e in &s[..30] {
            b.update(e);
        }
        let ckpt = b.checkpoint();
        for &e in &s[30..45] {
            b.update(e); // wrong path
        }
        b.restore(&ckpt);
        for &e in &s[30..] {
            b.update(e); // correct path replay
        }
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a.predict(), b.predict());
    }

    #[test]
    fn cold_engine_still_predicts() {
        let quant = quick_model(true);
        let engine = InferenceEngine::new(quant).unwrap();
        // No updates at all: zero-padded state must not panic.
        let _ = engine.predict();
    }

    #[test]
    fn storage_matches_config_breakdown() {
        let quant = quick_model(false);
        let engine = InferenceEngine::new(quant.clone()).unwrap();
        assert_eq!(engine.storage().total_bits(), storage_breakdown(quant.config()).total_bits());
    }
}
