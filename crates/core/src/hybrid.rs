//! The hybrid predictor: TAGE-SC-L for everything, BranchNet for the
//! attached hard-to-predict branches (paper Section I: "a hybrid
//! approach, using CNNs to predict a few hard-to-predict static
//! branches and state-of-the-art runtime predictors for all other
//! branches").

use crate::engine::{InferenceEngine, NonHashedConfig};
use crate::model::BranchNetModel;
use crate::quantize::{QuantMode, QuantizedMini};
use branchnet_tage::{Predictor, TageScL, TageSclConfig};
use branchnet_trace::BranchRecord;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// A per-branch model attached to the hybrid predictor. Cloning
/// copies the frozen weights together with any runtime state (engine
/// histories); pair a clone with
/// [`HybridPredictor::reset_runtime_state`] to get a cold start.
#[derive(Debug, Clone)]
pub enum AttachedModel {
    /// Floating-point CNN (Big-BranchNet, Tarsa-Float, or Mini before
    /// quantization) evaluated on the live history window.
    Float(BranchNetModel),
    /// Conv-binarized model with a floating-point FC stage (the
    /// Table IV middle rung).
    ConvQuant(QuantizedMini),
    /// The fully-quantized streaming inference engine.
    Engine(InferenceEngine),
}

impl AttachedModel {
    fn window_len(&self) -> usize {
        match self {
            AttachedModel::Float(m) => m.config().window_len(),
            AttachedModel::ConvQuant(q) => q.config().window_len(),
            AttachedModel::Engine(e) => e.model().config().window_len(),
        }
    }

    fn pc_bits(&self) -> u32 {
        match self {
            AttachedModel::Float(m) => m.config().pc_bits,
            AttachedModel::ConvQuant(q) => q.config().pc_bits,
            AttachedModel::Engine(e) => e.model().config().pc_bits,
        }
    }
}

/// Prediction-source counters for diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HybridStats {
    /// Predictions served by an attached CNN.
    pub cnn_predictions: u64,
    /// Predictions served by the runtime baseline.
    pub baseline_predictions: u64,
}

/// TAGE-SC-L plus attached per-PC BranchNet models.
#[derive(Debug)]
pub struct HybridPredictor {
    baseline_cfg: TageSclConfig,
    base: TageScL,
    models: HashMap<u64, AttachedModel>,
    /// Raw (pc, direction) ring of recent conditional branches, long
    /// enough to assemble the window of any attached float or
    /// ConvQuant model; engines keep their own histories.
    raw: VecDeque<(u64, bool)>,
    max_window: usize,
    /// Scratch for the window a float or ConvQuant model reads,
    /// reused across predictions.
    window: Vec<u32>,
    stats: HybridStats,
    name: &'static str,
}

impl HybridPredictor {
    /// Creates a hybrid around a fresh baseline.
    #[must_use]
    pub fn new(baseline_cfg: &TageSclConfig) -> Self {
        Self {
            baseline_cfg: baseline_cfg.clone(),
            base: TageScL::new(baseline_cfg),
            models: HashMap::new(),
            raw: VecDeque::new(),
            max_window: 0,
            window: Vec::new(),
            stats: HybridStats::default(),
            name: "hybrid",
        }
    }

    /// Resets all *runtime* state — a fresh baseline predictor, empty
    /// histories, cleared engine pipelines — while keeping the
    /// offline-trained models attached. Used to evaluate multiple
    /// traces with per-trace cold starts (per-SimPoint methodology):
    /// BranchNet weights are frozen at runtime (Section V-E), so
    /// reusing them across traces is exactly the deployment model.
    pub fn reset_runtime_state(&mut self) {
        self.base = TageScL::new(&self.baseline_cfg);
        self.raw.clear();
        for model in self.models.values_mut() {
            if let AttachedModel::Engine(e) = model {
                e.reset();
            }
        }
    }

    /// Attaches a model for the static branch at `pc` (replacing any
    /// previous one). This is the OS "load BranchNet model" operation
    /// of Section V-F.
    ///
    /// # Errors
    ///
    /// Rejects a quantized/engine model built on a non-hashed config,
    /// leaving the branch on the runtime-baseline lane: those datapaths
    /// look up hashed convolution tables. [`QuantizedMini::from_model`]
    /// and [`InferenceEngine::new`] enforce the same invariant at
    /// construction, so a model built through them always attaches.
    pub fn attach(&mut self, pc: u64, model: AttachedModel) -> Result<(), NonHashedConfig> {
        let quantized_cfg = match &model {
            AttachedModel::Float(_) => None,
            AttachedModel::ConvQuant(q) => Some(q.config()),
            AttachedModel::Engine(e) => Some(e.model().config()),
        };
        if let Some(cfg) = quantized_cfg.filter(|cfg| !cfg.is_hashed()) {
            return Err(NonHashedConfig { config: cfg.name.clone() });
        }
        if !matches!(model, AttachedModel::Engine(_)) {
            self.max_window = self.max_window.max(model.window_len());
        }
        self.models.insert(pc, model);
        Ok(())
    }

    /// A cold copy for parallel evaluation: same attached (frozen)
    /// models, fresh baseline predictor, empty histories. Equivalent
    /// to `clone()` followed by
    /// [`reset_runtime_state`](Self::reset_runtime_state), so
    /// evaluating traces on clones gives bit-identical results to
    /// evaluating them serially on one predictor with per-trace
    /// resets.
    #[must_use]
    pub fn fresh_runtime_clone(&self) -> Self {
        let mut copy = Self {
            baseline_cfg: self.baseline_cfg.clone(),
            base: TageScL::new(&self.baseline_cfg),
            models: self.models.clone(),
            raw: VecDeque::new(),
            max_window: self.max_window,
            window: Vec::new(),
            stats: HybridStats::default(),
            name: self.name,
        };
        for model in copy.models.values_mut() {
            if let AttachedModel::Engine(e) = model {
                e.reset();
            }
        }
        copy
    }

    /// Number of attached models.
    #[must_use]
    pub fn attached_count(&self) -> usize {
        self.models.len()
    }

    /// PCs with attached models.
    #[must_use]
    pub fn covered_pcs(&self) -> Vec<u64> {
        let mut pcs: Vec<u64> = self.models.keys().copied().collect();
        pcs.sort_unstable();
        pcs
    }

    /// Prediction-source counters.
    #[must_use]
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Total modeled storage: baseline plus every attached engine.
    /// Float models report their impractical software footprint.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let mut bits = self.base.storage_bits();
        for m in self.models.values() {
            bits += match m {
                AttachedModel::Engine(e) => e.storage().total_bits(),
                AttachedModel::Float(m) => {
                    crate::storage::storage_breakdown(m.config()).total_bits()
                }
                AttachedModel::ConvQuant(q) => {
                    crate::storage::storage_breakdown(q.config()).total_bits()
                }
            };
        }
        bits
    }
}

/// Assembles the encoded window for an attached model from the raw
/// `(pc, direction)` ring into `window`. A free function (not a
/// method) so [`Predictor::predict`] can call it while holding a
/// mutable borrow of the model map.
fn assemble_window(raw: &VecDeque<(u64, bool)>, len: usize, bits: u32, window: &mut Vec<u32>) {
    let have = raw.len().min(len);
    window.clear();
    window.resize(len - have, 0);
    window.extend(raw.range(raw.len() - have..).map(|&(pc, taken)| {
        let mask = (1u64 << bits) - 1;
        (((pc & mask) as u32) << 1) | u32::from(taken)
    }));
}

impl Predictor for HybridPredictor {
    fn predict(&mut self, pc: u64) -> bool {
        // The baseline always performs its lookup (it trains on every
        // branch and its histories must advance), even when a CNN
        // overrides the direction.
        let base_pred = self.base.predict(pc);
        // Destructure so the single map lookup can borrow a model
        // mutably while the window is assembled from the raw ring.
        let Self { models, raw, window, stats, .. } = self;
        if let Some(model) = models.get_mut(&pc) {
            stats.cnn_predictions += 1;
            if !matches!(model, AttachedModel::Engine(_)) {
                assemble_window(raw, model.window_len(), model.pc_bits(), window);
            }
            match model {
                AttachedModel::Engine(e) => e.predict(),
                AttachedModel::ConvQuant(q) => q.predict(window, QuantMode::ConvOnly),
                AttachedModel::Float(m) => m.predict(window),
            }
        } else {
            stats.baseline_predictions += 1;
            base_pred
        }
    }

    fn update(&mut self, record: &BranchRecord, predicted: bool) {
        self.base.update(record, predicted);
        // Advance the shared raw history and every engine's
        // convolutional histories with the retiring branch.
        if self.max_window > 0 {
            if self.raw.len() == self.max_window {
                self.raw.pop_front();
            }
            self.raw.push_back((record.pc, record.taken));
        }
        for model in self.models.values_mut() {
            if let AttachedModel::Engine(e) = model {
                let bits = e.model().config().pc_bits;
                e.update(record.encode(bits));
            }
        }
    }

    fn note_unconditional(&mut self, record: &BranchRecord) {
        self.base.note_unconditional(record);
    }

    fn flush(&mut self) {
        // The attached (offline-trained, frozen) models survive, as
        // deployed BranchNet weights would; everything learned at
        // runtime goes.
        self.reset_runtime_state();
        self.stats = HybridStats::default();
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn storage_bits(&self) -> u64 {
        HybridPredictor::storage_bits(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BranchNetConfig, SliceConfig};
    use crate::dataset::extract;
    use crate::trainer::{train_model, TrainOptions};
    use branchnet_trace::{run_one as evaluate, Trace};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mini_config() -> BranchNetConfig {
        BranchNetConfig {
            name: "hy".into(),
            slices: vec![
                SliceConfig { history: 16, channels: 3, pool_width: 4, precise_pooling: true },
                SliceConfig { history: 48, channels: 3, pool_width: 8, precise_pooling: false },
            ],
            pc_bits: 8,
            conv_hash_bits: Some(7),
            embedding_dim: 0,
            conv_width: 3,
            hidden: vec![6],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        }
    }

    /// Fig. 3-style trace: branch 0x90 is the exit of a loop whose
    /// trip count equals the not-taken count of branch 0x10, with
    /// noise in between.
    fn counting_trace(seed: u64, n: usize) -> Trace {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = Trace::new();
        while t.len() < n {
            let mut x = 0;
            for _ in 0..rng.gen_range(2..6) {
                let a = rng.gen_bool(0.5);
                t.push(BranchRecord::conditional(0x10, a));
                if !a {
                    x += 1;
                }
                for j in 0..4 {
                    t.push(BranchRecord::conditional(0x30 + j * 8, rng.gen_bool(0.5)));
                }
            }
            for j in 0..=x {
                t.push(BranchRecord::conditional(0x90, j < x));
            }
        }
        t
    }

    #[test]
    fn hybrid_beats_baseline_on_count_correlated_branch() {
        let train_trace = counting_trace(1, 30_000);
        let test_trace = counting_trace(99, 30_000);
        let cfg = mini_config();
        let ds = extract(&[train_trace], 0x90, cfg.window_len(), cfg.pc_bits);
        let (model, report) =
            train_model(&cfg, &ds, &TrainOptions { epochs: 24, lr: 0.02, ..Default::default() });
        // Quantization-aware training costs some headline accuracy;
        // the decisive check is the MPKI comparison below.
        assert!(report.train_accuracy > 0.78, "train accuracy {}", report.train_accuracy);

        let baseline_cfg = TageSclConfig::tage_sc_l_64kb();
        let mut baseline = TageScL::new(&baseline_cfg);
        let base_stats = evaluate(&mut baseline, &test_trace);

        let mut hybrid = HybridPredictor::new(&baseline_cfg);
        hybrid.attach(0x90, AttachedModel::Float(model)).unwrap();
        let hybrid_stats = evaluate(&mut hybrid, &test_trace);

        assert!(
            hybrid_stats.mpki() < base_stats.mpki(),
            "hybrid {:.3} MPKI must beat baseline {:.3} MPKI",
            hybrid_stats.mpki(),
            base_stats.mpki()
        );
    }

    #[test]
    fn hybrid_without_models_equals_baseline() {
        let trace = counting_trace(7, 5_000);
        let cfg = TageSclConfig::tage_sc_l_64kb();
        let a = evaluate(&mut TageScL::new(&cfg), &trace);
        let b = evaluate(&mut HybridPredictor::new(&cfg), &trace);
        assert_eq!(a.mispredictions(), b.mispredictions());
    }

    #[test]
    fn stats_attribute_predictions_to_sources() {
        let trace = counting_trace(3, 2_000);
        let cfg = mini_config();
        let ds = extract(&[counting_trace(1, 5_000)], 0x90, cfg.window_len(), cfg.pc_bits);
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 1, ..Default::default() });
        let mut hybrid = HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb());
        hybrid.attach(0x90, AttachedModel::Float(model)).unwrap();
        let _ = evaluate(&mut hybrid, &trace);
        let s = hybrid.stats();
        let covered = trace.iter().filter(|r| r.pc == 0x90).count() as u64;
        assert_eq!(s.cnn_predictions, covered);
        assert_eq!(s.baseline_predictions, trace.len() as u64 - covered);
    }

    #[test]
    fn engine_attachment_predicts_like_streamed_quantized_model() {
        let cfg = mini_config();
        let ds = extract(&[counting_trace(1, 10_000)], 0x90, cfg.window_len(), cfg.pc_bits);
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 3, ..Default::default() });
        let quant = QuantizedMini::from_model(&model);
        let mut hybrid = HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb());
        hybrid.attach(0x90, AttachedModel::Engine(InferenceEngine::new(quant).unwrap())).unwrap();
        let trace = counting_trace(5, 5_000);
        let stats = evaluate(&mut hybrid, &trace);
        assert!(stats.predictions() > 0.0);
        assert!(hybrid.stats().cnn_predictions > 0);
    }

    #[test]
    fn fresh_runtime_clone_matches_serial_reset_evaluation() {
        // Per-trace cold-start evaluation on clones must be
        // bit-identical to the serial reset-then-evaluate loop — this
        // is what lets the bench harness fan traces out across
        // threads without changing any reported number.
        let cfg = mini_config();
        let ds = extract(&[counting_trace(1, 8_000)], 0x90, cfg.window_len(), cfg.pc_bits);
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 2, ..Default::default() });
        let quant = QuantizedMini::from_model(&model);
        let mut hybrid = HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb());
        hybrid.attach(0x90, AttachedModel::Engine(InferenceEngine::new(quant).unwrap())).unwrap();
        hybrid.attach(0x10, AttachedModel::Float(model)).unwrap();

        let traces = [counting_trace(11, 3_000), counting_trace(12, 3_000)];
        let serial: Vec<f64> = traces
            .iter()
            .map(|t| {
                hybrid.reset_runtime_state();
                evaluate(&mut hybrid, t).mispredictions()
            })
            .collect();
        for (t, &expected) in traces.iter().zip(&serial) {
            let mut clone = hybrid.fresh_runtime_clone();
            assert_eq!(evaluate(&mut clone, t).mispredictions(), expected);
        }
        // `flush` is the trait-level spelling of the same cold start.
        for (t, &expected) in traces.iter().zip(&serial) {
            hybrid.flush();
            assert_eq!(evaluate(&mut hybrid, t).mispredictions(), expected);
        }
    }

    #[test]
    fn attach_replaces_previous_model() {
        let cfg = mini_config();
        let ds = extract(&[counting_trace(1, 4_000)], 0x90, cfg.window_len(), cfg.pc_bits);
        let (m1, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 1, ..Default::default() });
        let (m2, _) =
            train_model(&cfg, &ds, &TrainOptions { epochs: 1, seed: 5, ..Default::default() });
        let mut hybrid = HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb());
        hybrid.attach(0x90, AttachedModel::Float(m1)).unwrap();
        hybrid.attach(0x90, AttachedModel::Float(m2)).unwrap();
        assert_eq!(hybrid.attached_count(), 1);
    }

    #[test]
    fn storage_includes_attached_engines() {
        let cfg = mini_config();
        let ds = extract(&[counting_trace(1, 4_000)], 0x90, cfg.window_len(), cfg.pc_bits);
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 1, ..Default::default() });
        let quant = QuantizedMini::from_model(&model);
        let baseline_cfg = TageSclConfig::tage_sc_l_64kb();
        let base_bits = TageScL::new(&baseline_cfg).storage_bits();
        let mut hybrid = HybridPredictor::new(&baseline_cfg);
        hybrid.attach(0x90, AttachedModel::Engine(InferenceEngine::new(quant).unwrap())).unwrap();
        assert!(hybrid.storage_bits() > base_bits);
    }
}
