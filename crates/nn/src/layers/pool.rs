//! Sum-pooling — BranchNet's key compression layer.
//!
//! Sum-pooling converts "where did each feature fire" into "how many
//! times did each feature fire per window", which is exactly the
//! occurrence-count information the paper's hard-to-predict branches
//! correlate with (Section IV), while discarding the fine-grained
//! positions that make noisy histories intractable for TAGE.

use crate::tensor::Tensor;

/// Sum-pooling over the sequence axis with equal width and stride,
/// mapping `[batch, channels, seq]` to `[batch, channels, seq / width]`.
#[derive(Debug, Clone)]
pub struct SumPool1d {
    width: usize,
    cached_shape: Option<Vec<usize>>,
}

impl SumPool1d {
    /// Creates a sum-pool of the given window `width` (= stride).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "pool width must be positive");
        Self { width, cached_shape: None }
    }

    /// Pools `input`; the sequence length must be a multiple of the
    /// pool width (BranchNet picks `H` divisible by `P` by
    /// construction). In training mode (`train`) the input shape is
    /// kept for [`backward`](Self::backward); an eval forward drops it.
    ///
    /// # Panics
    ///
    /// Panics if `seq % width != 0` or the input is not 3-D.
    #[must_use]
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let &[batch, channels, seq] = input.shape() else {
            panic!("SumPool1d expects [batch, channels, seq], got {:?}", input.shape())
        };
        assert_eq!(
            seq % self.width,
            0,
            "sequence length {seq} not divisible by pool width {}",
            self.width
        );
        let out_seq = seq / self.width;
        let mut out = Tensor::zeros(&[batch, channels, out_seq]);
        let x = input.data();
        {
            let o = out.data_mut();
            for bc in 0..batch * channels {
                for w in 0..out_seq {
                    let mut acc = 0.0f32;
                    for t in 0..self.width {
                        acc += x[bc * seq + w * self.width + t];
                    }
                    o[bc * out_seq + w] = acc;
                }
            }
        }
        self.cached_shape = train.then(|| input.shape().to_vec());
        out
    }

    /// Broadcasts the output gradient back across each window.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode
    /// [`forward`](Self::forward).
    #[must_use]
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.cached_shape.as_ref().expect("backward before forward");
        let &[batch, channels, seq] = &shape[..] else { unreachable!() };
        let out_seq = seq / self.width;
        assert_eq!(grad_out.shape(), &[batch, channels, out_seq]);
        let mut gin = Tensor::zeros(&[batch, channels, seq]);
        let go = grad_out.data();
        {
            let gi = gin.data_mut();
            for bc in 0..batch * channels {
                for w in 0..out_seq {
                    let g = go[bc * out_seq + w];
                    for t in 0..self.width {
                        gi[bc * seq + w * self.width + t] = g;
                    }
                }
            }
        }
        gin
    }

    /// The pooling width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_sums_windows() {
        let mut p = SumPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 1, 6]);
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.data(), &[3.0, 7.0, 11.0]);
    }

    #[test]
    fn full_history_pool_counts_occurrences() {
        // The Fig. 3 construction: pooling as wide as the history turns
        // a binary "feature fired" channel into an occurrence count.
        let mut p = SumPool1d::new(8);
        let x = Tensor::from_vec(vec![0., 1., 0., 1., 1., 0., 0., 1.], &[1, 1, 8]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn backward_broadcasts_gradient() {
        let mut p = SumPool1d::new(3);
        let x = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[1, 1, 6]);
        let _ = p.forward(&x, true);
        let g = p.backward(&Tensor::from_vec(vec![2.0, -1.0], &[1, 1, 2]));
        assert_eq!(g.data(), &[2.0, 2.0, 2.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn sum_pool_is_linear() {
        // pool(a + b) == pool(a) + pool(b)
        let mut p = SumPool1d::new(2);
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 1, 4]);
        let b = Tensor::from_vec(vec![0.25, 1.0, -1.5, 2.0], &[1, 1, 4]);
        let mut sum = a.clone();
        sum.add_scaled(&b, 1.0);
        let lhs = p.forward(&sum, false);
        let mut rhs = p.forward(&a, false);
        rhs.add_scaled(&p.forward(&b, false), 1.0);
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn eval_forward_clears_the_backward_cache() {
        let mut p = SumPool1d::new(2);
        let x = Tensor::zeros(&[1, 1, 4]);
        let _ = p.forward(&x, true);
        let _ = p.forward(&x, false);
        let _ = p.backward(&Tensor::zeros(&[1, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_length_rejected() {
        let mut p = SumPool1d::new(4);
        let _ = p.forward(&Tensor::zeros(&[1, 1, 6]), false);
    }
}
