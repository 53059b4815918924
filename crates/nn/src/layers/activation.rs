//! Element-wise activation functions.
//!
//! Big-BranchNet uses ReLU after convolutions and hidden
//! fully-connected layers; Mini-BranchNet replaces them with Tanh to
//! bound activations for fixed-point quantization (paper Section V-B,
//! Optimization 4). The final prediction neuron uses Sigmoid.

use crate::tensor::Tensor;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Relu,
    Tanh,
    Sigmoid,
    BinarySte,
}

impl Kind {
    /// Whether the gradient is a function of the output (`tanh`,
    /// sigmoid) rather than of the input (ReLU, binarization).
    fn grad_from_output(self) -> bool {
        matches!(self, Kind::Tanh | Kind::Sigmoid)
    }
}

/// An element-wise activation layer.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: Kind,
    /// What the last training-mode forward leaves for `backward`: its
    /// output for `tanh`/sigmoid, its input otherwise.
    cached: Option<Tensor>,
}

impl Activation {
    /// Rectified linear unit: `max(0, x)`.
    #[must_use]
    pub fn relu() -> Self {
        Self { kind: Kind::Relu, cached: None }
    }

    /// Hyperbolic tangent, bounding outputs to `(-1, 1)`.
    #[must_use]
    pub fn tanh() -> Self {
        Self { kind: Kind::Tanh, cached: None }
    }

    /// Logistic sigmoid, mapping logits to probabilities.
    #[must_use]
    pub fn sigmoid() -> Self {
        Self { kind: Kind::Sigmoid, cached: None }
    }

    /// Binarization with a straight-through gradient estimator:
    /// forward emits `sign(x) ∈ {-1, +1}`, backward passes the
    /// gradient where `|x| ≤ 1` (hard-tanh STE). This is the
    /// quantization-aware-training activation for Mini-BranchNet's
    /// binarized convolution outputs — the network trains against the
    /// exact values the inference engine will produce.
    #[must_use]
    pub fn binary_ste() -> Self {
        Self { kind: Kind::BinarySte, cached: None }
    }

    /// Applies the activation element-wise. In training mode (`train`)
    /// the layer keeps what [`backward`](Self::backward) needs; an eval
    /// forward drops it.
    #[must_use]
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = input.clone();
        match self.kind {
            Kind::Relu => out.data_mut().iter_mut().for_each(|x| *x = x.max(0.0)),
            Kind::Tanh => out.data_mut().iter_mut().for_each(|x| *x = x.tanh()),
            Kind::Sigmoid => {
                out.data_mut().iter_mut().for_each(|x| *x = 1.0 / (1.0 + (-*x).exp()));
            }
            Kind::BinarySte => {
                out.data_mut().iter_mut().for_each(|x| *x = if *x >= 0.0 { 1.0 } else { -1.0 });
            }
        }
        self.cached =
            train.then(|| if self.kind.grad_from_output() { out.clone() } else { input.clone() });
        out
    }

    /// Chain-rules `grad_out` through the activation.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode
    /// [`forward`](Self::forward).
    #[must_use]
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cached = self.cached.as_ref().expect("backward before forward");
        assert_eq!(grad_out.shape(), cached.shape());
        let mut gin = grad_out.clone();
        let gx = gin.data_mut().iter_mut().zip(cached.data());
        match self.kind {
            Kind::Relu => {
                for (g, x) in gx {
                    if *x <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Kind::Tanh => {
                for (g, y) in gx {
                    *g *= 1.0 - y * y;
                }
            }
            Kind::Sigmoid => {
                for (g, y) in gx {
                    *g *= y * (1.0 - y);
                }
            }
            Kind::BinarySte => {
                for (g, x) in gx {
                    if x.abs() > 1.0 {
                        *g = 0.0;
                    }
                }
            }
        }
        gin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check(mut act: Activation) {
        let x = Tensor::from_vec(vec![-1.5, -0.3, 0.0, 0.4, 2.0], &[1, 5]);
        let y = act.forward(&x, true);
        let gin = act.backward(&y.clone());
        let eps = 1e-3_f32;
        for i in 0..x.len() {
            if x.data()[i].abs() < 1e-6 {
                continue; // skip ReLU's kink
            }
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = act.forward(&xp, false).data().iter().map(|v| v * v).sum::<f32>() / 2.0;
            let lm: f32 = act.forward(&xm, false).data().iter().map(|v| v * v).sum::<f32>() / 2.0;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 1e-2,
                "fd={num} analytic={} at {i}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn relu_gradcheck() {
        fd_check(Activation::relu());
    }

    #[test]
    fn tanh_gradcheck() {
        fd_check(Activation::tanh());
    }

    #[test]
    fn sigmoid_gradcheck() {
        fd_check(Activation::sigmoid());
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Activation::relu();
        let y = r.forward(&Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]), false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_is_bounded() {
        let mut t = Activation::tanh();
        let y = t.forward(&Tensor::from_vec(vec![-100.0, 100.0], &[2]), false);
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn binary_ste_emits_signs_and_gates_gradient() {
        let mut b = Activation::binary_ste();
        let y = b.forward(&Tensor::from_vec(vec![-2.0, -0.3, 0.0, 0.4, 3.0], &[5]), true);
        assert_eq!(y.data(), &[-1.0, -1.0, 1.0, 1.0, 1.0]);
        let g = b.backward(&Tensor::full(&[5], 1.0));
        // Gradient passes only inside the [-1, 1] clip region.
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn eval_forward_clears_the_backward_cache() {
        let mut act = Activation::tanh();
        let x = Tensor::from_vec(vec![0.5], &[1]);
        let _ = act.forward(&x, true);
        let _ = act.forward(&x, false);
        let _ = act.backward(&x);
    }

    #[test]
    fn sigmoid_is_a_probability() {
        let mut s = Activation::sigmoid();
        let y = s.forward(&Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3]), false);
        assert!(y.data()[0] < 0.001);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 0.999);
    }
}
