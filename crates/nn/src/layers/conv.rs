//! 1-D convolution over the branch-history axis.
//!
//! Each filter learns to fire on a specific pattern of `k` neighboring
//! history entries (paper Section III-A: "each filter identifies the
//! presence of a specific correlated branch pattern in the history").

use crate::init::kaiming_uniform;
use crate::optim::ParamVisitor;
use crate::tensor::Tensor;

/// 1-D convolution with stride 1 and zero "same" padding, mapping
/// `[batch, in_channels, seq]` to `[batch, out_channels, seq]`.
#[derive(Debug, Clone)]
pub struct Conv1d {
    weight: Tensor, // [out, in, k]
    bias: Tensor,   // [out]
    wgrad: Tensor,
    bgrad: Tensor,
    in_channels: usize,
    out_channels: usize,
    k: usize,
    pad: usize,
    /// The last training-mode input, for `backward`.
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// Creates a same-padded conv layer with an odd kernel width `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or any dimension is zero.
    #[must_use]
    pub fn new(in_channels: usize, out_channels: usize, k: usize, seed: u64) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && k > 0);
        assert!(k % 2 == 1, "same padding requires an odd kernel width");
        let fan_in = in_channels * k;
        Self {
            weight: kaiming_uniform(&[out_channels, in_channels, k], fan_in, seed),
            bias: Tensor::zeros(&[out_channels]),
            wgrad: Tensor::zeros(&[out_channels, in_channels, k]),
            bgrad: Tensor::zeros(&[out_channels]),
            in_channels,
            out_channels,
            k,
            pad: (k - 1) / 2,
            cached_input: None,
        }
    }

    /// Convolves `input` (`[batch, in, seq]`) into `[batch, out, seq]`.
    /// In training mode (`train`) the input is kept for
    /// [`backward`](Self::backward); an eval forward drops it.
    ///
    /// Each output element starts from its bias and adds
    /// `w[c,e,t] · x[b,e,s+t−pad]` in `(e, t)` order, skipping taps that
    /// fall in the padding. The loops run that sum tap by tap over
    /// whole rows: the innermost loop covers every position a tap
    /// reaches, with no bounds test, so it vectorizes across positions
    /// while each element still receives its additions in that order.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    #[must_use]
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let &[batch, cin, seq] = input.shape() else {
            panic!("Conv1d expects [batch, in, seq], got {:?}", input.shape())
        };
        assert_eq!(cin, self.in_channels);
        let (cout, k) = (self.out_channels, self.k);
        let mut out = Tensor::zeros(&[batch, cout, seq]);
        if seq > 0 {
            let w = self.weight.data();
            let bias = self.bias.data();
            for (out_b, x_b) in out
                .data_mut()
                .chunks_exact_mut(cout * seq)
                .zip(input.data().chunks_exact(cin * seq))
            {
                for ((row, w_c), &bias_c) in
                    out_b.chunks_exact_mut(seq).zip(w.chunks_exact(cin * k)).zip(bias)
                {
                    row.fill(bias_c);
                    for (x_row, w_ce) in x_b.chunks_exact(seq).zip(w_c.chunks_exact(k)) {
                        for (t, &wv) in w_ce.iter().enumerate() {
                            let (s0, j0) = tap_offsets(t, self.pad, seq);
                            for (o, &xv) in row[s0..].iter_mut().zip(&x_row[j0..]) {
                                *o += wv * xv;
                            }
                        }
                    }
                }
            }
        }
        self.cached_input = train.then(|| input.clone());
        out
    }

    /// Backpropagates `grad_out` (`[batch, out, seq]`), accumulating
    /// weight/bias gradients and returning the input gradient.
    ///
    /// Every element receives its additions in a fixed order: `wgrad`
    /// and `bgrad` add one term per `(b, s)` in ascending order, and
    /// `gin[b,e,j]` adds `g[b,c,s] · w[c,e,t]` by ascending `c`, then
    /// ascending `s`. Zero gradients are added rather than skipped: a
    /// sum that starts at `+0` is never `−0`, so adding `±0` leaves it
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode
    /// [`forward`](Self::forward).
    #[must_use]
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let &[batch, cin, seq] = input.shape() else { unreachable!() };
        let (cout, k, pad) = (self.out_channels, self.k, self.pad);
        assert_eq!(grad_out.shape(), &[batch, cout, seq]);
        let mut gin = Tensor::zeros(&[batch, cin, seq]);
        if seq == 0 {
            return gin;
        }
        let w = self.weight.data();
        // The weight gradient accumulates transposed, `[out][k][in]`, so
        // that the taps one position feeds form one contiguous run of
        // `k · in` independent sums; `xt` holds one example as
        // `[seq][in]` to match.
        let kc = k * cin;
        let mut wt = vec![0.0f32; cout * kc];
        for (wt_c, wg_c) in wt.chunks_exact_mut(kc).zip(self.wgrad.data().chunks_exact(kc)) {
            for (e, wg_ce) in wg_c.chunks_exact(k).enumerate() {
                for (t, &v) in wg_ce.iter().enumerate() {
                    wt_c[t * cin + e] = v;
                }
            }
        }
        let mut xt = vec![0.0f32; seq * cin];
        let bg = self.bgrad.data_mut();
        for ((go_b, x_b), gi_b) in grad_out
            .data()
            .chunks_exact(cout * seq)
            .zip(input.data().chunks_exact(cin * seq))
            .zip(gin.data_mut().chunks_exact_mut(cin * seq))
        {
            for (e, x_row) in x_b.chunks_exact(seq).enumerate() {
                for (j, &v) in x_row.iter().enumerate() {
                    xt[j * cin + e] = v;
                }
            }
            for (((g_row, w_c), wt_c), bg_c) in go_b
                .chunks_exact(seq)
                .zip(w.chunks_exact(kc))
                .zip(wt.chunks_exact_mut(kc))
                .zip(bg.iter_mut())
            {
                for &g in g_row {
                    *bg_c += g;
                }
                // wgrad: position s feeds taps t0..t1, which read the
                // inputs from s + t0 − pad on.
                for (s, &g) in g_row.iter().enumerate() {
                    let t0 = pad.saturating_sub(s);
                    let t1 = (seq + pad - s).min(k);
                    let j0 = s + t0 - pad;
                    for (a, &xv) in wt_c[t0 * cin..t1 * cin].iter_mut().zip(&xt[j0 * cin..]) {
                        *a += g * xv;
                    }
                }
                // gin: taps in descending order, so that each input
                // position sees its output positions in ascending order.
                for (gi_row, w_ce) in gi_b.chunks_exact_mut(seq).zip(w_c.chunks_exact(k)) {
                    for (t, &wv) in w_ce.iter().enumerate().rev() {
                        let (s0, j0) = tap_offsets(t, pad, seq);
                        for (gi, &g) in gi_row[j0..].iter_mut().zip(&g_row[s0..]) {
                            *gi += g * wv;
                        }
                    }
                }
            }
        }
        for (wt_c, wg_c) in wt.chunks_exact(kc).zip(self.wgrad.data_mut().chunks_exact_mut(kc)) {
            for (e, wg_ce) in wg_c.chunks_exact_mut(k).enumerate() {
                for (t, v) in wg_ce.iter_mut().enumerate() {
                    *v = wt_c[t * cin + e];
                }
            }
        }
        gin
    }

    /// The convolution filters (`[out, in, k]`).
    #[must_use]
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The per-output-channel biases.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Kernel width.
    #[must_use]
    pub fn kernel_width(&self) -> usize {
        self.k
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

impl ParamVisitor for Conv1d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.wgrad);
        f(&mut self.bias, &mut self.bgrad);
    }
}

/// Where tap `t` of a same-padded kernel overlaps a row of `seq`
/// positions: output position `s0` is the first to read an input
/// (`j = s + t − pad`), input `j0` the first read. Both run on together
/// until either leaves the row, so zipping `out[s0..]` with `in[j0..]`
/// visits exactly the in-range taps.
fn tap_offsets(t: usize, pad: usize, seq: usize) -> (usize, usize) {
    (pad.saturating_sub(t).min(seq), t.saturating_sub(pad).min(seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The scalar loops the kernels replaced, kept verbatim (bar the
    /// signatures) as the reference the kernels must match bit for bit.
    mod reference {
        #[derive(Clone, Copy)]
        pub struct Dims {
            pub batch: usize,
            pub cin: usize,
            pub cout: usize,
            pub seq: usize,
            pub k: usize,
        }

        pub fn forward(w: &[f32], bias: &[f32], x: &[f32], d: Dims) -> Vec<f32> {
            let Dims { batch, cin, cout, seq, k } = d;
            let pad = (k - 1) / 2;
            let mut o = vec![0.0f32; batch * cout * seq];
            for b in 0..batch {
                for (c, &bias_c) in bias.iter().enumerate() {
                    let obase = (b * cout + c) * seq;
                    for s in 0..seq {
                        let mut acc = bias_c;
                        for e in 0..cin {
                            let wbase = (c * cin + e) * k;
                            let xbase = (b * cin + e) * seq;
                            for t in 0..k {
                                let src = s + t;
                                if src >= pad && src - pad < seq {
                                    acc += w[wbase + t] * x[xbase + src - pad];
                                }
                            }
                        }
                        o[obase + s] = acc;
                    }
                }
            }
            o
        }

        pub fn backward(
            w: &[f32],
            x: &[f32],
            go: &[f32],
            wg: &mut [f32],
            bg: &mut [f32],
            d: Dims,
        ) -> Vec<f32> {
            let Dims { batch, cin, cout, seq, k } = d;
            let pad = (k - 1) / 2;
            let mut gi = vec![0.0f32; batch * cin * seq];
            for b in 0..batch {
                for (c, bgc) in bg.iter_mut().enumerate() {
                    let obase = (b * cout + c) * seq;
                    for s in 0..seq {
                        let g = go[obase + s];
                        if g == 0.0 {
                            continue;
                        }
                        *bgc += g;
                        for e in 0..cin {
                            let wbase = (c * cin + e) * k;
                            let xbase = (b * cin + e) * seq;
                            for t in 0..k {
                                let src = s + t;
                                if src >= pad && src - pad < seq {
                                    wg[wbase + t] += g * x[xbase + src - pad];
                                    gi[xbase + src - pad] += g * w[wbase + t];
                                }
                            }
                        }
                    }
                }
            }
            gi
        }
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: kernel {g:e}, reference {w:e}");
        }
    }

    /// One training forward and two successive backwards (gradients
    /// accumulate between `zero_grad` calls) on random data, each
    /// compared bit for bit with the reference loops. The output
    /// gradients are about half zeros of either sign, as after ReLU.
    fn check_against_reference(d: reference::Dims, seed: u64) {
        let reference::Dims { batch, cin, cout, seq, k } = d;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut conv = Conv1d::new(cin, cout, k, seed);
        for b in conv.bias.data_mut() {
            *b = rng.gen_range(-1.0f32..1.0);
        }
        let x: Vec<f32> = (0..batch * cin * seq).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let x = Tensor::from_vec(x, &[batch, cin, seq]);
        let out = conv.forward(&x, true);
        let want = reference::forward(conv.weight.data(), conv.bias.data(), x.data(), d);
        assert_bits_eq(out.data(), &want, "out");

        let mut wg = vec![0.0f32; cout * cin * k];
        let mut bg = vec![0.0f32; cout];
        for _ in 0..2 {
            let go: Vec<f32> = (0..batch * cout * seq)
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect();
            let go = Tensor::from_vec(go, &[batch, cout, seq]);
            let gin = conv.backward(&go);
            let want =
                reference::backward(conv.weight.data(), x.data(), go.data(), &mut wg, &mut bg, d);
            assert_bits_eq(gin.data(), &want, "gin");
            assert_bits_eq(conv.wgrad.data(), &wg, "wgrad");
            assert_bits_eq(conv.bgrad.data(), &bg, "bgrad");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Forward, input, weight and bias gradients are bit-identical
        /// to the scalar reference at random shapes.
        #[test]
        fn kernels_match_reference_bit_for_bit(
            k in prop::sample::select(vec![1usize, 3, 7]),
            seq in 1usize..=300,
            cin in 1usize..=9,
            cout in 1usize..=9,
            batch in 1usize..=4,
            seed in any::<u64>(),
        ) {
            check_against_reference(reference::Dims { batch, cin, cout, seq, k }, seed);
        }
    }

    /// Rows no longer than the kernel, where a position may have taps in
    /// the padding on both sides (`seq < pad` included).
    #[test]
    fn kernels_match_reference_on_short_rows() {
        for k in [1, 3, 7] {
            for seq in 1..=2 * k {
                for (cin, cout, batch) in [(1, 1, 1), (3, 2, 2), (9, 9, 4)] {
                    let seed = (k * 1000 + seq * 10 + cin) as u64;
                    check_against_reference(reference::Dims { batch, cin, cout, seq, k }, seed);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_a_training_forward() {
        let mut conv = Conv1d::new(2, 2, 3, 1);
        let x = Tensor::zeros(&[1, 2, 5]);
        let _ = conv.forward(&x, true);
        let _ = conv.forward(&x, false);
        let _ = conv.backward(&Tensor::zeros(&[1, 2, 5]));
    }

    /// Finite-difference gradient check on a tiny conv.
    #[test]
    fn gradients_match_finite_differences() {
        let mut conv = Conv1d::new(2, 3, 3, 7);
        let x =
            Tensor::from_vec((0..2 * 2 * 5).map(|i| (i as f32 * 0.37).sin()).collect(), &[2, 2, 5]);
        // Scalar objective: sum of outputs squared / 2.
        let y = conv.forward(&x, true);
        let grad_out = y.clone();
        let gin = conv.backward(&grad_out);

        let eps = 1e-3_f32;
        let loss = |conv: &mut Conv1d, x: &Tensor| -> f32 {
            let y = conv.forward(x, false);
            y.data().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        // Check input gradient at a few positions.
        for &i in &[0usize, 7, 13, 19] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 2e-2,
                "input grad mismatch at {i}: fd={num} analytic={}",
                gin.data()[i]
            );
        }

        // Check a few weight gradients.
        let mut wg = Tensor::zeros(&[1]);
        conv.visit_params(&mut |_, g| {
            if g.shape().len() == 3 {
                wg = g.clone();
            }
        });
        for &i in &[0usize, 5, 11] {
            let orig = conv.weight.data()[i];
            conv.weight.data_mut()[i] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight.data_mut()[i] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - wg.data()[i]).abs() < 5e-2,
                "weight grad mismatch at {i}: fd={num} analytic={}",
                wg.data()[i]
            );
        }
    }

    #[test]
    fn identity_kernel_passes_signal_through() {
        let mut conv = Conv1d::new(1, 1, 1, 0);
        conv.weight.data_mut()[0] = 1.0;
        conv.bias.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 1, 3]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn same_padding_preserves_length() {
        let mut conv = Conv1d::new(3, 4, 7, 9);
        let x = Tensor::zeros(&[2, 3, 10]);
        assert_eq!(conv.forward(&x, false).shape(), &[2, 4, 10]);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let _ = Conv1d::new(1, 1, 4, 0);
    }
}
