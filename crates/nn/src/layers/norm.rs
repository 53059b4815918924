//! Batch normalization over channels.
//!
//! The paper inserts batch norm after convolutions and fully-connected
//! layers (Section V-A) and later *fuses* it into the quantized
//! inference datapath (Section V-B, Optimization 4); the
//! [`BatchNorm1d::affine_form`] accessor exposes the fused scale/shift.

use crate::optim::ParamVisitor;
use crate::tensor::Tensor;

/// Batch normalization for `[batch, channels, seq]` activations
/// (normalizing each channel over `batch × seq`) or `[batch, features]`
/// activations (each feature over the batch).
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    ggrad: Tensor,
    bgrad: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0);
        Self {
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            ggrad: Tensor::zeros(&[channels]),
            bgrad: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    fn dims(&self, shape: &[usize]) -> (usize, usize) {
        match *shape {
            [batch, c] => {
                assert_eq!(c, self.channels, "channel mismatch");
                (batch, 1)
            }
            [batch, c, seq] => {
                assert_eq!(c, self.channels, "channel mismatch");
                (batch, seq)
            }
            _ => panic!("BatchNorm1d expects 2-D or 3-D input, got {shape:?}"),
        }
    }

    /// Normalizes `input`; `train` selects batch statistics (updating
    /// running averages and keeping what [`backward`](Self::backward)
    /// needs) versus running statistics (dropping it).
    #[must_use]
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (batch, seq) = self.dims(input.shape());
        let n = (batch * seq) as f32;
        let x = input.data();
        let mut out = Tensor::zeros(input.shape());
        let mut xhat = Tensor::zeros(input.shape());
        let mut inv_std = vec![0.0f32; self.channels];
        for c in 0..self.channels {
            let (mean, var) = if train {
                let mut mean = 0.0f32;
                for b in 0..batch {
                    for s in 0..seq {
                        mean += x[(b * self.channels + c) * seq + s];
                    }
                }
                mean /= n;
                let mut var = 0.0f32;
                for b in 0..batch {
                    for s in 0..seq {
                        let d = x[(b * self.channels + c) * seq + s] - mean;
                        var += d * d;
                    }
                }
                var /= n;
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[c], self.running_var[c])
            };
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std[c] = istd;
            let g = self.gamma.data()[c];
            let be = self.beta.data()[c];
            for b in 0..batch {
                for s in 0..seq {
                    let idx = (b * self.channels + c) * seq + s;
                    let xh = (x[idx] - mean) * istd;
                    xhat.data_mut()[idx] = xh;
                    out.data_mut()[idx] = g * xh + be;
                }
            }
        }
        self.cache = train.then(|| BnCache { xhat, inv_std, shape: input.shape().to_vec() });
        out
    }

    /// Backpropagates through training-mode normalization.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward.
    #[must_use]
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward requires a train-mode forward");
        assert_eq!(grad_out.shape(), &cache.shape[..]);
        let (batch, seq) = self.dims(&cache.shape);
        let n = (batch * seq) as f32;
        let go = grad_out.data();
        let xh = cache.xhat.data();
        let mut gin = Tensor::zeros(grad_out.shape());
        for c in 0..self.channels {
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for b in 0..batch {
                for s in 0..seq {
                    let idx = (b * self.channels + c) * seq + s;
                    sum_g += go[idx];
                    sum_gx += go[idx] * xh[idx];
                }
            }
            self.bgrad.data_mut()[c] += sum_g;
            self.ggrad.data_mut()[c] += sum_gx;
            let g = self.gamma.data()[c];
            let istd = cache.inv_std[c];
            for b in 0..batch {
                for s in 0..seq {
                    let idx = (b * self.channels + c) * seq + s;
                    gin.data_mut()[idx] = g * istd * (go[idx] - sum_g / n - xh[idx] * sum_gx / n);
                }
            }
        }
        gin
    }

    /// The fused affine form of inference-mode batch norm:
    /// `y = scale[c] * x + shift[c]` with
    /// `scale = γ/√(var+ε)`, `shift = β − γ·mean/√(var+ε)`.
    /// This is what gets folded into adjacent layers when building the
    /// quantized inference engine.
    #[must_use]
    pub fn affine_form(&self) -> (Vec<f32>, Vec<f32>) {
        let mut scale = vec![0.0f32; self.channels];
        let mut shift = vec![0.0f32; self.channels];
        for c in 0..self.channels {
            let istd = 1.0 / (self.running_var[c] + self.eps).sqrt();
            scale[c] = self.gamma.data()[c] * istd;
            shift[c] = self.beta.data()[c] - self.gamma.data()[c] * self.running_mean[c] * istd;
        }
        (scale, shift)
    }

    /// Channel count.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Trainable parameter count (γ and β).
    #[must_use]
    pub fn param_count(&self) -> usize {
        2 * self.channels
    }
}

impl ParamVisitor for BatchNorm1d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.gamma, &mut self.ggrad);
        f(&mut self.beta, &mut self.bgrad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_mode_standardizes_each_channel() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 5.0, 6.0, 7.0, 40.0, 50.0, 60.0],
            &[2, 2, 3],
        );
        let y = bn.forward(&x, true);
        // Each channel of y should have ~zero mean, ~unit variance.
        for c in 0..2 {
            let vals: Vec<f32> = (0..2)
                .flat_map(|b| (0..3).map(move |s| (b, s)))
                .map(|(b, s)| y.data()[(b * 2 + c) * 3 + s])
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / 6.0;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(vec![4.0, 6.0], &[2, 1]);
        // Warm running stats.
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        // Running mean ≈ 5, var ≈ 1: outputs ≈ (4-5)/1, (6-5)/1.
        assert!((y.data()[0] + 1.0).abs() < 0.1, "{}", y.data()[0]);
        assert!((y.data()[1] - 1.0).abs() < 0.1, "{}", y.data()[1]);
    }

    #[test]
    fn affine_form_matches_eval_forward() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, -3.0, 2.0, 8.0, 0.5, -1.0, 3.0, 9.0], &[2, 2, 2]);
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        let (scale, shift) = bn.affine_form();
        for b in 0..2 {
            for c in 0..2 {
                for s in 0..2 {
                    let idx = (b * 2 + c) * 2 + s;
                    let expect = scale[c] * x.data()[idx] + shift[c];
                    assert!((y.data()[idx] - expect).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut bn = BatchNorm1d::new(2);
        bn.gamma.data_mut().copy_from_slice(&[1.5, 0.7]);
        bn.beta.data_mut().copy_from_slice(&[0.2, -0.1]);
        let x = Tensor::from_vec(
            vec![0.3, -1.2, 0.8, 2.0, -0.5, 1.1, 0.0, 0.9, -1.4, 0.6, 1.8, -0.2],
            &[2, 2, 3],
        );
        let y = bn.forward(&x, true);
        let gin = bn.backward(&y.clone());
        let eps = 1e-3_f32;
        let loss = |bn: &mut BatchNorm1d, x: &Tensor| -> f32 {
            bn.forward(x, true).data().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for &i in &[0usize, 3, 7, 11] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 3e-2,
                "bn input grad mismatch at {i}: fd={num} analytic={}",
                gin.data()[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "train-mode forward")]
    fn eval_forward_clears_the_backward_cache() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], &[2, 2]);
        let _ = bn.forward(&x, true);
        let _ = bn.forward(&x, false);
        let _ = bn.backward(&x);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm1d::new(3);
        let _ = bn.forward(&Tensor::zeros(&[1, 2, 4]), true);
    }
}
