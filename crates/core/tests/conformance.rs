//! Conformance-suite instantiations for the CNN hybrid — the
//! top of the prediction stack must honor the same contracts as the
//! simplest baseline, both bare and with an attached inference engine
//! (attached models are offline configuration and must survive
//! `flush`, like a deployed BranchNet's frozen weights).

use std::sync::OnceLock;

use branchnet_core::config::{BranchNetConfig, SliceConfig};
use branchnet_core::dataset::{BranchDataset, Example};
use branchnet_core::engine::InferenceEngine;
use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
use branchnet_core::quantize::QuantizedMini;
use branchnet_core::trainer::{train_model, TrainOptions};
use branchnet_tage::TageSclConfig;
use branchnet_trace::predictor_conformance;

/// 0x4020 is one of the conditional PCs `mixed_trace` emits.
const ENGINE_PC: u64 = 0x4020;

/// A small trained, quantized model for the conformance PC range,
/// built once.
fn quantized() -> &'static QuantizedMini {
    static MODEL: OnceLock<QuantizedMini> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = BranchNetConfig {
            name: "conformance".into(),
            slices: vec![SliceConfig {
                history: 8,
                channels: 2,
                pool_width: 4,
                precise_pooling: true,
            }],
            pc_bits: 5,
            conv_hash_bits: Some(6),
            embedding_dim: 0,
            conv_width: 3,
            hidden: vec![4],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        };
        let examples = (0..40u32)
            .map(|i| Example {
                window: (0..cfg.window_len() as u32).map(|j| (i * 7 + j) % 64).collect(),
                label: f32::from(u8::from(i % 2 == 0)),
            })
            .collect();
        let ds = BranchDataset { pc: ENGINE_PC, max_history: cfg.window_len(), examples };
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 2, ..Default::default() });
        QuantizedMini::from_model(&model)
    })
}

predictor_conformance!(hybrid_bare, Direction, 64 * 1024 * 8, || {
    Box::new(HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb()))
});

predictor_conformance!(hybrid_with_engine, Direction, 2 * 64 * 1024 * 8, || {
    let mut hybrid = HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb());
    let engine = InferenceEngine::new(quantized().clone()).expect("a hashed config");
    hybrid.attach(ENGINE_PC, AttachedModel::Engine(engine)).expect("a hashed config");
    Box::new(hybrid)
});
