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
//! Both buffers are flat rings, one row per channel, so an update
//! allocates nothing. Prediction runs the fully-quantized datapath of
//! [`QuantizedMini`] in integers: each window sum indexes its (slice,
//! channel) quantized-feature table, then come the dot products, the
//! thresholds and the final LUT. [`InferenceEngine::checkpoint`] /
//! [`restore`](InferenceEngine::restore) model the pipeline-flush
//! recovery mechanism of Section V-C.

use crate::hashing::conv_hash;
use crate::quantize::{IntegerFc, QuantizedMini};
use crate::storage::{storage_breakdown, StorageBreakdown};
use serde::{Deserialize, Serialize};

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

/// `rows` rows of the last `len` values pushed to each, oldest first,
/// zero before the first push; every push appends one value to every
/// row. Each row lives in a buffer twice its length: the window slides
/// up one slot per push and is copied back to the front when it reaches
/// the end, so a push costs O(rows) amortized and every window is one
/// contiguous slice. Equality compares windows, not buffer offsets.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ring<T> {
    buf: Vec<T>,
    len: usize,
    start: usize,
}

impl<T: Copy + Default + PartialEq> Ring<T> {
    fn new(rows: usize, len: usize) -> Self {
        Self { buf: vec![T::default(); rows * 2 * len], len, start: 0 }
    }

    /// Row `r`'s window, oldest first.
    fn row(&self, r: usize) -> &[T] {
        let base = r * 2 * self.len + self.start;
        &self.buf[base..base + self.len]
    }

    /// Appends `values[r]` to row `r`, dropping each row's oldest.
    fn push(&mut self, values: &[T]) {
        let stride = 2 * self.len;
        if self.start == self.len {
            for row in self.buf.chunks_exact_mut(stride) {
                row.copy_within(self.len.., 0);
            }
            self.start = 0;
        }
        for (row, &v) in self.buf.chunks_exact_mut(stride).zip(values) {
            row[self.start + self.len] = v;
        }
        self.start += 1;
    }

    fn rows(&self) -> usize {
        self.buf.len() / (2 * self.len)
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for Ring<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.rows() == other.rows()
            && (0..self.rows()).all(|r| self.row(r) == other.row(r))
    }
}

/// Per-slice streaming state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum SliceState {
    /// Last `H` binary convolution outputs, one row per channel.
    Precise { signs: Ring<i8> },
    /// The last `H/P` completed window sums, one row per channel, the
    /// running partial sums, and the window phase counter.
    Sliding { completed: Ring<i32>, partial: Vec<i32>, phase: usize },
}

/// Cold per-slice streaming state for `model`.
fn fresh_slices(model: &QuantizedMini) -> Vec<SliceState> {
    model
        .slices()
        .iter()
        .map(|s| {
            if s.cfg.precise_pooling {
                SliceState::Precise { signs: Ring::new(s.cfg.channels, s.cfg.history) }
            } else {
                SliceState::Sliding {
                    completed: Ring::new(s.cfg.channels, s.cfg.pooled_len()),
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
    recent: Vec<u32>,
    slices: Vec<SliceState>,
}

/// The streaming inference engine for one attached static branch.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    model: QuantizedMini,
    /// The last `K` encoded branches, oldest first, for convolution
    /// hashing; zeros before the first `K` (which hash like the
    /// missing entries of a short window).
    recent: Vec<u32>,
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
        Ok(Self { recent: vec![0; model.config().conv_width], model, slices })
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
        let k = self.recent.len();
        self.recent.copy_within(1.., 0);
        self.recent[k - 1] = encoded;
        // Validated in `new`: engines are only constructed around
        // hashed configs.
        let h_bits = self.model.config().conv_hash_bits.expect("validated in InferenceEngine::new");
        let id = conv_hash(&self.recent, k - 1, k, h_bits);
        for (s, state) in self.model.slices().iter().zip(&mut self.slices) {
            let signs = s.signs(id);
            match state {
                SliceState::Precise { signs: ring } => ring.push(signs),
                SliceState::Sliding { completed, partial, phase } => {
                    for (p, &sign) in partial.iter_mut().zip(signs) {
                        *p += i32::from(sign);
                    }
                    *phase += 1;
                    if *phase == s.cfg.pool_width {
                        completed.push(partial);
                        partial.fill(0);
                        *phase = 0;
                    }
                }
            }
        }
    }

    /// Predicts the attached branch's direction from the current
    /// convolutional histories (the multi-cycle prediction path):
    /// window sums, their quantized features, integer dot products,
    /// thresholds and the final LUT.
    #[must_use]
    pub fn predict(&self) -> bool {
        let mut fc = IntegerFc::new(&self.model);
        for (s, state) in self.model.slices().iter().zip(&self.slices) {
            let p = s.cfg.pool_width;
            for ch in 0..s.cfg.channels {
                // Entry `sum + P` is the feature of window sum `sum`.
                let features = s.features(ch);
                match state {
                    // Windows aligned so the newest ends at the newest
                    // branch; zeros stand for branches not yet seen.
                    SliceState::Precise { signs } => {
                        for window in signs.row(ch).chunks_exact(p) {
                            let sum: i32 = window.iter().map(|&x| i32::from(x)).sum();
                            fc.push(features[(sum + p as i32) as usize]);
                        }
                    }
                    SliceState::Sliding { completed, .. } => {
                        for &sum in completed.row(ch) {
                            fc.push(features[(sum + p as i32) as usize]);
                        }
                    }
                }
            }
        }
        fc.finish()
    }

    /// Clears all streaming state (e.g. at a context switch, before
    /// the OS reloads models for another process — Section V-F).
    pub fn reset(&mut self) {
        self.recent.fill(0);
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
        self.recent.clone_from(&checkpoint.recent);
        self.slices.clone_from(&checkpoint.slices);
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
    use crate::quantize::QuantMode;
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

    /// Buffer offsets of every slice's ring.
    fn ring_starts(engine: &InferenceEngine) -> Vec<usize> {
        engine
            .slices
            .iter()
            .map(|state| match state {
                SliceState::Precise { signs } => signs.start,
                SliceState::Sliding { completed, .. } => completed.start,
            })
            .collect()
    }

    #[test]
    fn restore_across_ring_wraps_matches_straight_run() {
        // A flush whose wrong path copies every ring back to the front
        // of its buffer: the restored engine must predict, step by
        // step, exactly as one that never left the correct path.
        let quant = quick_model(false);
        let s = stream(90);
        let mut straight = InferenceEngine::new(quant.clone()).unwrap();
        let expected: Vec<bool> = s
            .iter()
            .map(|&e| {
                straight.update(e);
                straight.predict()
            })
            .collect();
        let mut engine = InferenceEngine::new(quant).unwrap();
        for &e in &s[..29] {
            engine.update(e);
        }
        let ckpt = engine.checkpoint();
        let at_ckpt = ring_starts(&engine);
        let mut wrapped = vec![false; at_ckpt.len()];
        for e in 0..20 {
            let before = ring_starts(&engine);
            engine.update(31 - e); // wrong path
            for ((w, b), a) in wrapped.iter_mut().zip(before).zip(ring_starts(&engine)) {
                *w |= a < b;
            }
        }
        assert!(wrapped.iter().all(|&w| w), "every ring must wrap on the wrong path");
        engine.restore(&ckpt);
        assert_eq!(ring_starts(&engine), at_ckpt);
        assert_eq!(engine.predict(), expected[28]);
        for (i, &e) in s.iter().enumerate().skip(29) {
            engine.update(e);
            assert_eq!(engine.predict(), expected[i], "diverged at stream position {i}");
        }
        assert_eq!(engine.checkpoint(), straight.checkpoint());
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
