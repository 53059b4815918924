//! Property-based tests for the neural-network substrate.

use branchnet_nn::layers::{Activation, BatchNorm1d, Conv1d, Dense, SumPool1d};
use branchnet_nn::loss::bce_with_logits;
use branchnet_nn::tensor::Tensor;
use proptest::prelude::*;

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sum-pooling is linear: pool(a + λb) = pool(a) + λ·pool(b).
    #[test]
    fn sum_pool_linearity(
        a in finite_vec(24),
        b in finite_vec(24),
        lambda in -3.0f32..3.0,
        width in prop::sample::select(vec![1usize, 2, 3, 4, 6, 8, 12, 24]),
    ) {
        let ta = Tensor::from_vec(a, &[1, 2, 12]);
        let tb = Tensor::from_vec(b, &[1, 2, 12]);
        prop_assume!(12 % width == 0);
        let mut pool = SumPool1d::new(width);
        let mut combo = ta.clone();
        combo.add_scaled(&tb, lambda);
        let lhs = pool.forward(&combo, false);
        let mut rhs = pool.forward(&ta, false);
        rhs.add_scaled(&pool.forward(&tb, false), lambda);
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((l - r).abs() < 1e-3, "{l} vs {r}");
        }
    }

    /// Convolution is linear in its input for fixed weights.
    #[test]
    fn conv_linearity_in_input(a in finite_vec(30), b in finite_vec(30), lambda in -2.0f32..2.0) {
        let mut conv = Conv1d::new(2, 3, 3, 99);
        let ta = Tensor::from_vec(a, &[1, 2, 15]);
        let tb = Tensor::from_vec(b, &[1, 2, 15]);
        let mut combo = ta.clone();
        combo.add_scaled(&tb, lambda);
        // Zero the bias so the map is strictly linear.
        conv.visit_params_zero_bias();
        let lhs = conv.forward(&combo, false);
        let mut rhs = conv.forward(&ta, false);
        rhs.add_scaled(&conv.forward(&tb, false), lambda);
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((l - r).abs() < 1e-2, "{l} vs {r}");
        }
    }

    /// Training-mode batch norm output always has (near) zero mean and
    /// unit variance per channel.
    #[test]
    fn batchnorm_standardizes(x in finite_vec(32)) {
        // Guard against degenerate all-equal channels.
        let spread = x.iter().cloned().fold(f32::MIN, f32::max)
            - x.iter().cloned().fold(f32::MAX, f32::min);
        prop_assume!(spread > 0.5);
        let t = Tensor::from_vec(x, &[4, 2, 4]);
        let mut bn = BatchNorm1d::new(2);
        let y = bn.forward(&t, true);
        for c in 0..2 {
            let vals: Vec<f32> = (0..4)
                .flat_map(|b| (0..4).map(move |s| (b, s)))
                .map(|(b, s)| y.data()[(b * 2 + c) * 4 + s])
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "channel {c} mean {mean}");
        }
    }

    /// Dense layers satisfy f(x) - f(0) being linear in x.
    #[test]
    fn dense_affine_property(a in finite_vec(6), b in finite_vec(6)) {
        let mut d = Dense::new(3, 4, 5);
        let zero = Tensor::zeros(&[2, 3]);
        let f0 = d.forward(&zero, false);
        let ta = Tensor::from_vec(a, &[2, 3]);
        let tb = Tensor::from_vec(b, &[2, 3]);
        let mut sum = ta.clone();
        sum.add_scaled(&tb, 1.0);
        let fs = d.forward(&sum, false);
        let fa = d.forward(&ta, false);
        let fb = d.forward(&tb, false);
        for i in 0..fs.len() {
            let lhs = fs.data()[i] - f0.data()[i];
            let rhs = (fa.data()[i] - f0.data()[i]) + (fb.data()[i] - f0.data()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }

    /// BCE loss is non-negative and its gradient is bounded by 1/batch.
    #[test]
    fn bce_bounds(logits in finite_vec(8), labels in prop::collection::vec(0u8..2, 8)) {
        let t = Tensor::from_vec(logits, &[8, 1]);
        let l: Vec<f32> = labels.iter().map(|&v| f32::from(v)).collect();
        let (loss, grad) = bce_with_logits(&t, &l);
        prop_assert!(loss >= 0.0);
        for g in grad.data() {
            prop_assert!(g.abs() <= 1.0 / 8.0 + 1e-6);
        }
    }

    /// Activations are monotone non-decreasing element-wise.
    #[test]
    fn activations_are_monotone(x in -6.0f32..6.0, dx in 0.0f32..4.0) {
        for mut act in [Activation::relu(), Activation::tanh(), Activation::sigmoid(), Activation::binary_ste()] {
            let lo = act.forward(&Tensor::from_vec(vec![x], &[1]), false);
            let hi = act.forward(&Tensor::from_vec(vec![x + dx], &[1]), false);
            prop_assert!(hi.data()[0] >= lo.data()[0] - 1e-6);
        }
    }
}

/// Helper extension used by the conv linearity test: zero the bias via
/// the public visitor.
trait ZeroBias {
    fn visit_params_zero_bias(&mut self);
}

impl ZeroBias for Conv1d {
    fn visit_params_zero_bias(&mut self) {
        use branchnet_nn::optim::ParamVisitor;
        self.visit_params(&mut |w, _| {
            if w.shape().len() == 1 {
                w.fill(0.0);
            }
        });
    }
}
