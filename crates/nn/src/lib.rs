//! A minimal, from-scratch neural-network library.
//!
//! This crate implements exactly the machinery BranchNet needs —
//! nothing more — with hand-written forward and backward passes:
//!
//! * [`tensor::Tensor`] — a flat `f32` buffer with a shape.
//! * [`layers`] — [`Embedding`](layers::Embedding),
//!   [`Conv1d`](layers::Conv1d), [`BatchNorm1d`](layers::BatchNorm1d),
//!   [`SumPool1d`](layers::SumPool1d), [`Dense`](layers::Dense) and the
//!   [`Activation`](layers::Activation) functions (ReLU / Tanh /
//!   Sigmoid).
//! * [`optim`] — [`Sgd`](optim::Sgd) with momentum and
//!   [`Adam`](optim::Adam), driven through the
//!   [`ParamVisitor`](optim::ParamVisitor) trait.
//! * [`loss`] — binary cross-entropy with logits, the branch-direction
//!   training objective.
//! * [`init`] — seeded Xavier/Kaiming initializers so every training
//!   run in the workspace is deterministic.
//!
//! Every layer's backward pass is validated against finite differences
//! in its unit tests, so models composed from these layers can trust
//! their gradients.
//!
//! # Example: fitting XOR with two dense layers
//!
//! ```
//! use branchnet_nn::layers::{Activation, Dense};
//! use branchnet_nn::loss::bce_with_logits;
//! use branchnet_nn::optim::{Adam, ParamVisitor};
//! use branchnet_nn::tensor::Tensor;
//!
//! struct Xor {
//!     l1: Dense,
//!     act: Activation,
//!     l2: Dense,
//! }
//! impl ParamVisitor for Xor {
//!     fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
//!         self.l1.visit_params(f);
//!         self.l2.visit_params(f);
//!     }
//! }
//!
//! let mut m = Xor {
//!     l1: Dense::new(2, 8, 1),
//!     act: Activation::tanh(),
//!     l2: Dense::new(8, 1, 2),
//! };
//! let x = Tensor::from_vec(vec![0., 0., 0., 1., 1., 0., 1., 1.], &[4, 2]);
//! let y = [0.0f32, 1.0, 1.0, 0.0];
//! let mut opt = Adam::new(0.05);
//! for _ in 0..300 {
//!     let h = m.l1.forward(&x, true);
//!     let h = m.act.forward(&h, true);
//!     let logits = m.l2.forward(&h, true);
//!     let (loss, grad) = bce_with_logits(&logits, &y);
//!     let g = m.l2.backward(&grad);
//!     let g = m.act.backward(&g);
//!     let _ = m.l1.backward(&g);
//!     opt.step(&mut m);
//!     m.visit_params(&mut |_, g| g.fill(0.0));
//!     if loss < 0.05 { break; }
//! }
//! let h = m.act.forward(&m.l1.forward(&x, false), false);
//! let out = m.l2.forward(&h, false);
//! assert!(out.data()[0] < 0.0 && out.data()[1] > 0.0);
//! ```

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod tensor;

pub use layers::{Activation, BatchNorm1d, Conv1d, Dense, Embedding, SumPool1d};
pub use loss::bce_with_logits;
pub use optim::{Adam, ParamVisitor, Sgd};
pub use tensor::Tensor;
