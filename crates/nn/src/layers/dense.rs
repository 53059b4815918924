//! Fully-connected layer.

use crate::init::xavier_uniform;
use crate::optim::ParamVisitor;
use crate::tensor::Tensor;

/// Affine layer mapping `[batch, in]` to `[batch, out]`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    wgrad: Tensor,
    bgrad: Tensor,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a Xavier-initialized dense layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0);
        Self {
            weight: xavier_uniform(&[out_features, in_features], in_features, out_features, seed),
            bias: Tensor::zeros(&[out_features]),
            wgrad: Tensor::zeros(&[out_features, in_features]),
            bgrad: Tensor::zeros(&[out_features]),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Computes `x · Wᵀ + b`. In training mode (`train`) the input is
    /// kept for [`backward`](Self::backward); an eval forward drops it.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `[batch, in_features]`.
    #[must_use]
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let &[batch, fin] = input.shape() else {
            panic!("Dense expects [batch, in], got {:?}", input.shape())
        };
        assert_eq!(fin, self.in_features);
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        let x = input.data();
        let w = self.weight.data();
        {
            let o = out.data_mut();
            for b in 0..batch {
                for j in 0..self.out_features {
                    let mut acc = self.bias.data()[j];
                    let wrow = &w[j * fin..(j + 1) * fin];
                    let xrow = &x[b * fin..(b + 1) * fin];
                    for (wi, xi) in wrow.iter().zip(xrow) {
                        acc += wi * xi;
                    }
                    o[b * self.out_features + j] = acc;
                }
            }
        }
        self.cached_input = train.then(|| input.clone());
        out
    }

    /// Backpropagates, accumulating parameter gradients and returning
    /// the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode
    /// [`forward`](Self::forward).
    #[must_use]
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let &[batch, fin] = input.shape() else { unreachable!() };
        assert_eq!(grad_out.shape(), &[batch, self.out_features]);
        let mut gin = Tensor::zeros(&[batch, fin]);
        let x = input.data();
        let w = self.weight.data();
        let go = grad_out.data();
        {
            let wg = self.wgrad.data_mut();
            let bg = self.bgrad.data_mut();
            let gi = gin.data_mut();
            for b in 0..batch {
                for j in 0..self.out_features {
                    let g = go[b * self.out_features + j];
                    if g == 0.0 {
                        continue;
                    }
                    bg[j] += g;
                    for i in 0..fin {
                        wg[j * fin + i] += g * x[b * fin + i];
                        gi[b * fin + i] += g * w[j * fin + i];
                    }
                }
            }
        }
        gin
    }

    /// The weight matrix (`[out, in]`).
    #[must_use]
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight access (used by quantization-aware export).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Input feature count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

impl ParamVisitor for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.wgrad);
        f(&mut self.bias, &mut self.bgrad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_affine() {
        let mut d = Dense::new(2, 1, 0);
        d.weight.data_mut().copy_from_slice(&[2.0, -1.0]);
        d.bias.data_mut()[0] = 0.5;
        let x = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        let y = d.forward(&x, false);
        assert!((y.data()[0] - (2.0 * 3.0 - 4.0 + 0.5)).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut d = Dense::new(3, 2, 5);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]);
        let y = d.forward(&x, true);
        let gin = d.backward(&y.clone());
        let eps = 1e-3_f32;
        let loss = |d: &mut Dense, x: &Tensor| -> f32 {
            d.forward(x, false).data().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut d, &xp) - loss(&mut d, &xm)) / (2.0 * eps);
            assert!((num - gin.data()[i]).abs() < 1e-2, "fd={num} got={}", gin.data()[i]);
        }
        for i in 0..d.weight.len() {
            let orig = d.weight.data()[i];
            d.weight.data_mut()[i] = orig + eps;
            let lp = loss(&mut d, &x);
            d.weight.data_mut()[i] = orig - eps;
            let lm = loss(&mut d, &x);
            d.weight.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - d.wgrad.data()[i]).abs() < 2e-2);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut d = Dense::new(2, 2, 0);
        let _ = d.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn eval_forward_clears_the_backward_cache() {
        let mut d = Dense::new(2, 2, 0);
        let x = Tensor::zeros(&[1, 2]);
        let _ = d.forward(&x, true);
        let _ = d.forward(&x, false);
        let _ = d.backward(&Tensor::zeros(&[1, 2]));
    }
}
