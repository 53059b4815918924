//! Neural-network layers with hand-written forward/backward passes.
//!
//! Conventions shared by every layer:
//!
//! * Batched activations flow as [`Tensor`](crate::tensor::Tensor)s;
//!   sequence data is shaped `[batch, channels, seq]`, flat features
//!   `[batch, features]`.
//! * `forward` takes a `train` flag. A training forward caches
//!   whatever the matching `backward` needs; an eval forward (float
//!   inference, validation) caches nothing and drops any earlier cache.
//!   `backward` consumes the gradient w.r.t. the layer output and
//!   returns the gradient w.r.t. the layer input, accumulating
//!   parameter gradients internally (cleared via
//!   [`ParamVisitor`](crate::optim::ParamVisitor)).
//! * Calling `backward` without a preceding training forward panics.

mod activation;
mod conv;
mod dense;
mod embedding;
mod norm;
mod pool;

pub use activation::Activation;
pub use conv::Conv1d;
pub use dense::Dense;
pub use embedding::Embedding;
pub use norm::BatchNorm1d;
pub use pool::SumPool1d;
