//! Embedding layer: trainable dense vector per vocabulary entry.
//!
//! BranchNet uses embeddings to represent the `(PC, direction)` integer
//! encoding of each history entry (paper Section V-A), which converges
//! faster than one-hot inputs at a fraction of the weight count.

use crate::init::xavier_uniform;
use crate::optim::ParamVisitor;
use crate::tensor::Tensor;

/// A `vocab × dim` embedding table mapping integer ids to vectors.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: Tensor,
    grad: Tensor,
    vocab: usize,
    dim: usize,
    cached_ids: Vec<u32>,
    cached_batch: usize,
    cached_seq: usize,
}

impl Embedding {
    /// Creates an embedding with `vocab` rows of `dim` features,
    /// Xavier-initialized from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab` or `dim` is zero.
    #[must_use]
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        assert!(vocab > 0 && dim > 0);
        Self {
            table: xavier_uniform(&[vocab, dim], vocab, dim, seed),
            grad: Tensor::zeros(&[vocab, dim]),
            vocab,
            dim,
            cached_ids: Vec::new(),
            cached_batch: 0,
            cached_seq: 0,
        }
    }

    /// Looks up `ids` (length `batch * seq`, row-major by batch) and
    /// returns activations shaped `[batch, dim, seq]` — channel-major
    /// so the convolution can slide along `seq`. In training mode
    /// (`train`) the ids are kept for [`backward`](Self::backward); an
    /// eval forward drops them.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != batch * seq` or any id exceeds the
    /// vocabulary.
    #[must_use]
    pub fn forward(&mut self, ids: &[u32], batch: usize, seq: usize, train: bool) -> Tensor {
        assert_eq!(ids.len(), batch * seq, "ids must cover the full batch");
        let mut out = Tensor::zeros(&[batch, self.dim, seq]);
        {
            let data = out.data_mut();
            for b in 0..batch {
                for s in 0..seq {
                    let id = ids[b * seq + s] as usize;
                    assert!(id < self.vocab, "id {id} out of vocabulary {}", self.vocab);
                    for d in 0..self.dim {
                        data[(b * self.dim + d) * seq + s] = self.table.data()[id * self.dim + d];
                    }
                }
            }
        }
        self.cached_ids.clear();
        if train {
            self.cached_ids.extend_from_slice(ids);
        }
        self.cached_batch = batch;
        self.cached_seq = seq;
        out
    }

    /// Scatters `grad_out` (`[batch, dim, seq]`) into the table
    /// gradient. Embeddings are the network input, so there is no
    /// input gradient to return.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode
    /// [`forward`](Self::forward) or with a mismatched gradient shape.
    pub fn backward(&mut self, grad_out: &Tensor) {
        assert!(!self.cached_ids.is_empty(), "backward before forward");
        let (batch, seq) = (self.cached_batch, self.cached_seq);
        assert_eq!(grad_out.shape(), &[batch, self.dim, seq]);
        let g = self.grad.data_mut();
        for b in 0..batch {
            for s in 0..seq {
                let id = self.cached_ids[b * seq + s] as usize;
                for d in 0..self.dim {
                    g[id * self.dim + d] += grad_out.data()[(b * self.dim + d) * seq + s];
                }
            }
        }
    }

    /// The embedding table (for quantization/export).
    #[must_use]
    pub fn table(&self) -> &Tensor {
        &self.table
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.vocab * self.dim
    }
}

impl ParamVisitor for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.table, &mut self.grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_places_vectors_channel_major() {
        let mut e = Embedding::new(4, 2, 1);
        let out = e.forward(&[1, 3], 1, 2, false);
        assert_eq!(out.shape(), &[1, 2, 2]);
        // out[0, d, 0] == table[1][d]; out[0, d, 1] == table[3][d].
        for d in 0..2 {
            assert_eq!(out.data()[d * 2], e.table().data()[2 + d]);
            assert_eq!(out.data()[d * 2 + 1], e.table().data()[6 + d]);
        }
    }

    #[test]
    fn backward_scatters_gradient_to_used_rows() {
        let mut e = Embedding::new(4, 2, 1);
        let _ = e.forward(&[2, 2], 1, 2, true);
        let grad = Tensor::full(&[1, 2, 2], 1.0);
        e.backward(&grad);
        let mut g = Tensor::zeros(&[1, 1]);
        e.visit_params(&mut |_, grad| g = grad.clone());
        // Row 2 accumulates 2.0 per dim (two occurrences); others 0.
        assert_eq!(g.data()[2 * 2], 2.0);
        assert_eq!(g.data()[2 * 2 + 1], 2.0);
        assert_eq!(g.data()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab_ids() {
        let mut e = Embedding::new(4, 2, 1);
        let _ = e.forward(&[4], 1, 1, false);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut e = Embedding::new(4, 2, 1);
        e.backward(&Tensor::zeros(&[1, 2, 1]));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn eval_forward_clears_the_backward_cache() {
        let mut e = Embedding::new(4, 2, 1);
        let _ = e.forward(&[1], 1, 1, true);
        let _ = e.forward(&[1], 1, 1, false);
        e.backward(&Tensor::zeros(&[1, 2, 1]));
    }
}
