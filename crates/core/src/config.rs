//! BranchNet architecture knobs (paper Table I).
//!
//! A [`BranchNetConfig`] fully describes one CNN model: the geometric
//! history lengths and channel/pooling structure of its five slices,
//! the PC/hash widths, embedding size, convolution width, hidden layer
//! sizes, and quantization precision. Presets reproduce the paper's
//! configurations; histories are rounded to multiples of their pooling
//! widths (the paper's nominal H values are not divisible by P — see
//! DESIGN.md) and the compute-heavy Big preset has a `big_scaled`
//! sibling for fast experimentation.

use serde::{Deserialize, Serialize};

/// One feature-extraction slice: embedding → convolution → sum-pool
/// over a particular history length (paper Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceConfig {
    /// History length H (branches fed to this slice).
    pub history: usize,
    /// Convolution output channels C.
    pub channels: usize,
    /// Sum-pooling width and stride P.
    pub pool_width: usize,
    /// Precise pooling (windows aligned to the prediction point)
    /// versus sliding pooling (stream-aligned windows; Optimization 3).
    pub precise_pooling: bool,
}

impl SliceConfig {
    /// Number of pooled outputs this slice feeds the fully-connected
    /// stage (per channel).
    #[must_use]
    pub fn pooled_len(&self) -> usize {
        self.history / self.pool_width
    }

    /// The first violated invariant, if any: a zero knob (a zero pool
    /// width would divide by zero in [`Self::pooled_len`]), an absurd
    /// size, or a history that is not a multiple of the pooling width.
    fn check(&self) -> Result<(), &'static str> {
        if self.history == 0 || self.channels == 0 || self.pool_width == 0 {
            return Err("slice knobs must be positive");
        }
        if self.history > 1 << 20 || self.channels > 1 << 12 {
            return Err("implausible slice size");
        }
        if !self.history.is_multiple_of(self.pool_width) {
            return Err("slice history must be a multiple of pool width");
        }
        Ok(())
    }
}

/// Complete architecture description of one BranchNet model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchNetConfig {
    /// Display name ("big", "mini-2kb", ...).
    pub name: String,
    /// The feature-extraction slices, shortest history first.
    pub slices: Vec<SliceConfig>,
    /// Bits of branch PC in each history element (knob `p`).
    pub pc_bits: u32,
    /// Hashed-convolution input width (knob `h`); `None` selects the
    /// full embedding + arithmetic convolution of Big-BranchNet,
    /// `Some(h)` the lookup-table convolution of Mini-BranchNet
    /// (Optimization 2).
    pub conv_hash_bits: Option<u32>,
    /// Embedding dimensionality E (Big only).
    pub embedding_dim: usize,
    /// Convolution width K.
    pub conv_width: usize,
    /// Hidden fully-connected layer sizes N.
    pub hidden: Vec<usize>,
    /// Fixed-point precision q of sum-pool outputs and FC weights;
    /// `None` keeps the model floating-point (Big, Tarsa-Float).
    pub fc_quant_bits: Option<u32>,
    /// Tanh activations (Mini, quantization-friendly) versus ReLU
    /// (Big).
    pub tanh_activations: bool,
}

impl BranchNetConfig {
    /// Big-BranchNet with the paper's Table I knobs (H rounded to pool
    /// multiples): 5 slices × 32 channels, E=32, K=7, hidden 128+128.
    /// Pure software model; training it is compute-heavy.
    #[must_use]
    pub fn big() -> Self {
        Self {
            name: "big".into(),
            slices: [(42, 3), (78, 6), (132, 12), (288, 24), (384, 48)]
                .into_iter()
                .map(|(h, p)| SliceConfig {
                    history: h,
                    channels: 32,
                    pool_width: p,
                    precise_pooling: true,
                })
                .collect(),
            pc_bits: 12,
            conv_hash_bits: None,
            embedding_dim: 32,
            conv_width: 7,
            hidden: vec![128, 128],
            fc_quant_bits: None,
            tanh_activations: false,
        }
    }

    /// A compute-scaled Big-BranchNet used by default in experiments:
    /// same structure, smaller E/C/H so CPU training finishes in
    /// seconds rather than hours. DESIGN.md documents this
    /// substitution.
    #[must_use]
    pub fn big_scaled() -> Self {
        Self {
            name: "big-scaled".into(),
            slices: [(24, 3), (48, 6), (96, 12), (192, 24), (288, 48)]
                .into_iter()
                .map(|(h, p)| SliceConfig {
                    history: h,
                    channels: 8,
                    pool_width: p,
                    precise_pooling: true,
                })
                .collect(),
            pc_bits: 12,
            conv_hash_bits: None,
            embedding_dim: 8,
            conv_width: 7,
            hidden: vec![32, 32],
            fc_quant_bits: None,
            tanh_activations: false,
        }
    }

    /// Shared Mini scaffold. The paper's Table I uses a 7-wide hashed
    /// convolution; this reproduction's Mini presets use a 1-wide one
    /// because the synthetic workloads' noise branches have i.i.d.
    /// directions, so wide hashed n-grams almost never recur between
    /// training and test and carry no generalizable signal (real
    /// programs re-execute the same local branch sequences, which is
    /// what makes K=7 hashing work there). See DESIGN.md.
    fn mini(
        name: &str,
        channels: [usize; 5],
        hash_bits: u32,
        hidden: usize,
        q: u32,
        precise: [bool; 5],
    ) -> Self {
        let histories = [36usize, 72, 144, 288, 576];
        let pools = [6usize, 12, 24, 48, 96];
        Self {
            name: name.into(),
            slices: (0..5)
                .map(|i| SliceConfig {
                    history: histories[i],
                    channels: channels[i],
                    pool_width: pools[i],
                    precise_pooling: precise[i],
                })
                .collect(),
            pc_bits: 12,
            conv_hash_bits: Some(hash_bits),
            embedding_dim: 0,
            conv_width: 1,
            hidden: vec![hidden],
            fc_quant_bits: Some(q),
            tanh_activations: true,
        }
    }

    /// The 2 KB Mini-BranchNet configuration.
    #[must_use]
    pub fn mini_2kb() -> Self {
        Self::mini("mini-2kb", [8, 6, 5, 5, 4], 8, 10, 4, [true, true, false, false, false])
    }

    /// The 1 KB Mini-BranchNet configuration.
    #[must_use]
    pub fn mini_1kb() -> Self {
        Self::mini("mini-1kb", [4, 3, 3, 3, 3], 8, 8, 4, [true, true, false, false, false])
    }

    /// The 0.5 KB Mini-BranchNet configuration.
    #[must_use]
    pub fn mini_05kb() -> Self {
        Self::mini("mini-0.5kb", [3, 2, 2, 2, 2], 7, 8, 3, [true, false, false, false, false])
    }

    /// The 0.25 KB Mini-BranchNet configuration.
    #[must_use]
    pub fn mini_025kb() -> Self {
        Self::mini("mini-0.25kb", [2, 2, 1, 1, 1], 7, 6, 3, [true, false, false, false, false])
    }

    /// Tarsa et al.'s CNN in BranchNet terms (Table I, last column):
    /// a single 200-branch history, no pooling, narrow PC field, one
    /// fully-connected stage. `tarsa_float` is the oracular software
    /// version; [`Self::tarsa_ternary`] its quantized counterpart.
    #[must_use]
    pub fn tarsa_float() -> Self {
        Self {
            name: "tarsa-float".into(),
            slices: vec![SliceConfig {
                history: 200,
                channels: 2,
                pool_width: 1,
                precise_pooling: true,
            }],
            pc_bits: 7,
            conv_hash_bits: None,
            embedding_dim: 32,
            conv_width: 3,
            hidden: vec![4],
            fc_quant_bits: None,
            tanh_activations: false,
        }
    }

    /// Tarsa-Ternary: the hashed, quantized variant (2-bit ternary
    /// weights, hashed 1-wide convolution).
    #[must_use]
    pub fn tarsa_ternary() -> Self {
        Self {
            name: "tarsa-ternary".into(),
            slices: vec![SliceConfig {
                history: 200,
                channels: 2,
                pool_width: 1,
                precise_pooling: true,
            }],
            pc_bits: 7,
            conv_hash_bits: Some(8),
            embedding_dim: 0,
            conv_width: 1,
            hidden: vec![4],
            fc_quant_bits: Some(2),
            tanh_activations: true,
        }
    }

    /// All Mini presets, largest first, with their nominal per-branch
    /// storage budgets in bytes — the menu the budget-assignment step
    /// draws from (Section V-B "Optimal Architecture Knobs").
    #[must_use]
    pub fn mini_menu() -> Vec<(BranchNetConfig, usize)> {
        vec![
            (Self::mini_2kb(), 2048),
            (Self::mini_1kb(), 1024),
            (Self::mini_05kb(), 512),
            (Self::mini_025kb(), 256),
        ]
    }

    /// Longest history any slice consumes.
    #[must_use]
    pub fn max_history(&self) -> usize {
        self.slices.iter().map(|s| s.history).max().unwrap_or(0)
    }

    /// History-window length models and datasets exchange: the longest
    /// slice history plus `K−1` extra context entries so every
    /// convolution position hashes a full `K`-window — making the
    /// batch path agree bit-for-bit with the streaming engine.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.max_history() + self.conv_width - 1
    }

    /// Total pooled features entering the first FC layer.
    #[must_use]
    pub fn total_pooled(&self) -> usize {
        self.slices.iter().map(|s| s.channels * s.pooled_len()).sum()
    }

    /// Vocabulary of the (PC, direction) input encoding.
    #[must_use]
    pub fn vocab(&self) -> usize {
        1usize << (self.pc_bits + 1)
    }

    /// Whether this is a hashed-convolution (Mini-style) model.
    #[must_use]
    pub fn is_hashed(&self) -> bool {
        self.conv_hash_bits.is_some()
    }

    /// The first violated invariant, if any: every knob a datapath
    /// divides by, shifts by, or allocates from is bounded.
    fn check(&self) -> Result<(), &'static str> {
        if self.slices.is_empty() {
            return Err("at least one slice required");
        }
        if self.slices.len() > 16 {
            return Err("implausible slice count");
        }
        for s in &self.slices {
            s.check()?;
        }
        if !(1..=20).contains(&self.pc_bits) {
            return Err("pc bits out of range");
        }
        if self.conv_width == 0 || self.conv_width.is_multiple_of(2) || self.conv_width > 63 {
            return Err("odd conv width required");
        }
        match self.conv_hash_bits {
            Some(h) if !(2..=16).contains(&h) => return Err("hash bits out of range"),
            None if self.embedding_dim == 0 => {
                return Err("embedding required without hashed convolution")
            }
            _ => {}
        }
        if self.embedding_dim > 1 << 12 {
            return Err("implausible embedding size");
        }
        if let Some(q) = self.fc_quant_bits {
            if !(2..=8).contains(&q) {
                return Err("fc quant bits out of range");
            }
        }
        if self.hidden.is_empty() {
            return Err("at least one hidden FC layer required");
        }
        if self.hidden.iter().any(|&n| n == 0 || n > 1 << 12) {
            return Err("implausible hidden width");
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on the first inconsistent knob.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid config '{}': {e}", self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for cfg in [
            BranchNetConfig::big(),
            BranchNetConfig::big_scaled(),
            BranchNetConfig::mini_2kb(),
            BranchNetConfig::mini_1kb(),
            BranchNetConfig::mini_05kb(),
            BranchNetConfig::mini_025kb(),
            BranchNetConfig::tarsa_float(),
            BranchNetConfig::tarsa_ternary(),
        ] {
            cfg.validate();
        }
    }

    #[test]
    fn big_matches_paper_knobs() {
        let b = BranchNetConfig::big();
        assert_eq!(b.slices.len(), 5);
        assert!(b.slices.iter().all(|s| s.channels == 32));
        assert_eq!(b.embedding_dim, 32);
        assert_eq!(b.conv_width, 7);
        assert_eq!(b.hidden, vec![128, 128]);
        assert_eq!(b.pc_bits, 12);
        assert!(b.fc_quant_bits.is_none());
    }

    #[test]
    fn histories_are_geometric_and_pool_divisible() {
        for cfg in [BranchNetConfig::big(), BranchNetConfig::mini_1kb()] {
            let hs: Vec<usize> = cfg.slices.iter().map(|s| s.history).collect();
            assert!(hs.windows(2).all(|w| w[0] < w[1]), "{hs:?} must grow");
            for s in &cfg.slices {
                assert_eq!(s.history % s.pool_width, 0);
            }
        }
    }

    #[test]
    fn mini_menu_is_sorted_by_budget() {
        let menu = BranchNetConfig::mini_menu();
        assert_eq!(menu.len(), 4);
        assert!(menu.windows(2).all(|w| w[0].1 > w[1].1));
    }

    #[test]
    fn mini_uses_longer_histories_than_big() {
        // Paper Section V-D: sum-pooling savings let Mini use longer
        // histories than both Big's nominal knobs and Tarsa.
        assert!(
            BranchNetConfig::mini_1kb().max_history()
                > BranchNetConfig::tarsa_ternary().max_history()
        );
    }

    #[test]
    fn total_pooled_counts_channels() {
        let cfg = BranchNetConfig::mini_1kb();
        let expect: usize =
            cfg.slices.iter().map(|s| s.channels * (s.history / s.pool_width)).sum();
        assert_eq!(cfg.total_pooled(), expect);
    }

    #[test]
    #[should_panic(expected = "multiple of pool width")]
    fn indivisible_history_rejected() {
        let mut cfg = BranchNetConfig::mini_1kb();
        cfg.slices[0].history = 37; // the paper's nominal, indivisible value
        cfg.validate();
    }
}
