//! # ml — a from-scratch machine-learning substrate
//!
//! The paper trains its energy/time models with scikit-learn (§5.2.1:
//! Linear, Lasso, SVR-RBF, and Random Forest regression, selected by
//! accuracy under leave-one-out cross-validation; a grid search over the
//! forest's hyper-parameters found the defaults best, so the forest here
//! trains with those defaults). Rust has no equivalent batteries-included
//! stack — that gap is the main reason this paper sits at repro-band 2 —
//! so this crate implements the needed subset from scratch:
//!
//! * [`dataset`] — a row-major matrix and dataset container;
//! * [`scaler`] — feature standardization;
//! * [`linear`] — ordinary least squares (normal equations);
//! * [`lasso`] — L1-regularized regression via coordinate descent;
//! * [`svr`] — ε-insensitive support-vector regression with an RBF kernel,
//!   trained by SMO;
//! * [`tree`] / [`forest`] — CART regression trees and bagged random
//!   forests with feature subsampling (the model the paper selects),
//!   grown straight into [`flat`]'s node arena, the one form they fit,
//!   predict, serve and persist in;
//! * [`cv`] — leave-one-group-out cross-validation (the paper's LOOCV
//!   over input configurations);
//! * [`metrics`] — MAPE (the paper's headline metric), MAE, MSE, RMSE, R².
//!
//! Every stochastic component (bootstrap, feature subsampling, splits)
//! draws from caller-seeded ChaCha RNGs, so model training is
//! deterministic and the paper's experiments reproduce bit-for-bit.

#![forbid(unsafe_code)]

pub mod cv;
pub mod dataset;
pub mod flat;
pub mod forest;
pub mod importance;
pub mod lasso;
pub mod linear;
pub mod metrics;
pub mod scaler;
pub mod svr;
pub mod tree;

pub use dataset::{Dataset, Matrix};
pub use flat::FlatForest;
pub use forest::{RandomForest, RandomForestParams};
pub use metrics::{mae, mape, mse, r2, rmse};

/// A trainable regression model mapping feature rows to scalar targets.
///
/// `fit` consumes a design matrix and target vector; `predict_row` scores a
/// single feature row. Implementations must be deterministic given their
/// construction-time seeds.
pub trait Regressor: Send + Sync {
    /// Fits the model. Panics on dimension mismatches (programming errors).
    fn fit(&mut self, x: &Matrix, y: &[f64]);

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    /// Panics if called before `fit` or with the wrong number of features.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predicts targets for every row of `x` into a caller-owned buffer
    /// (cleared and refilled). One virtual dispatch serves the whole batch,
    /// and steady-state callers reuse `out` across calls instead of
    /// allocating per batch. Implementations may override with a layout
    /// better than row-at-a-time (a forest walks its arena tree-major,
    /// [`FlatForest::predict_batch_into`]) but must stay bit-identical to
    /// `predict_row` per row.
    fn predict_batch(&self, x: &Matrix, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(x.rows());
        out.extend(x.iter_rows().map(|row| self.predict_row(row)));
    }

    /// Predicts targets for every row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.rows());
        self.predict_batch(x, &mut out);
        out
    }
}
