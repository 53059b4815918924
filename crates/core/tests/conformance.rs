//! Conformance-suite instantiations for the CNN hybrid — the
//! top of the prediction stack must honor the same contracts as the
//! simplest baseline, both bare and with an attached model pack
//! (attached packs are offline configuration and must survive
//! `flush`, like a deployed BranchNet's frozen weights).

use std::sync::OnceLock;

use branchnet_core::config::{BranchNetConfig, SliceConfig};
use branchnet_core::dataset::{BranchDataset, Example};
use branchnet_core::hybrid::HybridPredictor;
use branchnet_core::persist::write_model;
use branchnet_core::quantize::QuantizedMini;
use branchnet_core::trainer::{train_model, TrainOptions};
use branchnet_tage::TageSclConfig;
use branchnet_trace::predictor_conformance;

/// A small trained pack for the conformance PC range, built once.
fn pack_bytes() -> &'static [u8] {
    static PACK: OnceLock<Vec<u8>> = OnceLock::new();
    PACK.get_or_init(|| {
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
        // 0x4020 is one of the conditional PCs `mixed_trace` emits.
        let ds = BranchDataset { pc: 0x4020, max_history: cfg.window_len(), examples };
        let (model, _) = train_model(&cfg, &ds, &TrainOptions { epochs: 2, ..Default::default() });
        let mut buf = Vec::new();
        write_model(&mut buf, ds.pc, &QuantizedMini::from_model(&model)).unwrap();
        buf
    })
}

predictor_conformance!(hybrid_bare, Direction, 64 * 1024 * 8, || {
    Box::new(HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb()))
});

predictor_conformance!(hybrid_with_pack, Direction, 2 * 64 * 1024 * 8, || {
    let mut hybrid = HybridPredictor::new(&TageSclConfig::tage_sc_l_64kb());
    hybrid.attach_pack_bytes(pack_bytes()).expect("the conformance pack is valid");
    Box::new(hybrid)
});
