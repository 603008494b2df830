//! Random Forest regression.
//!
//! Bagged CART trees with per-split feature subsampling, averaged at
//! prediction time. This is the model the paper selects for both the
//! speedup and normalized-energy domain-specific models (§5.2.1: "Random
//! Forest achieves the maximum accuracy for both"), with the grid-searched
//! hyper-parameters `max_depth`, `n_estimators`, and `max_features`.
//!
//! Trees are trained in parallel with rayon; each tree draws its bootstrap
//! sample and split-feature subsets from its own ChaCha stream derived from
//! the forest seed, so the fitted model is independent of thread schedule.
//! A bootstrap sample is a list of row indices: each tree grows on those
//! rows of the training matrix itself, with the feature ranks the fit
//! computed once for all its trees (`tree::Ranks`), and no tree
//! copies the data.
//!
//! A domain-specific model keeps no pointer trees: it serves and persists
//! the forest's compiled [`crate::flat::FlatForest`] arena
//! ([`RandomForest::flatten`]).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::dataset::{bootstrap_rows, Matrix};
use crate::tree::{DecisionTree, Ranks, TreeParams};
use crate::Regressor;

/// Random Forest hyper-parameters (the paper's grid-search space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees (`n_estimators`; scikit-learn default 100).
    pub n_estimators: usize,
    /// Per-tree growth controls.
    pub tree: TreeParams,
    /// Draw bootstrap samples (true for classic bagging).
    pub bootstrap: bool,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_estimators: 100,
            tree: TreeParams::default(),
            bootstrap: true,
        }
    }
}

/// A fitted Random Forest regressor.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    /// Hyper-parameters.
    pub params: RandomForestParams,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Forest with explicit parameters and seed.
    ///
    /// # Panics
    /// Panics if `n_estimators == 0`.
    pub fn new(params: RandomForestParams, seed: u64) -> Self {
        assert!(params.n_estimators > 0, "need at least one tree");
        RandomForest {
            params,
            seed,
            trees: Vec::new(),
        }
    }

    /// Forest with scikit-learn-like defaults (100 trees, unlimited depth,
    /// all features per split, bootstrap on) — the configuration the
    /// paper's grid search lands on.
    pub fn with_defaults(seed: u64) -> Self {
        RandomForest::new(RandomForestParams::default(), seed)
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Fitted trees (compile hook for [`crate::flat::FlatForest`]).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

/// Tree `t`'s seed: an independent, schedule-free stream per tree.
fn tree_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t as u64)
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let ranks = Ranks::new(x);
        let params = self.params;
        let seed = self.seed;
        self.trees = (0..params.n_estimators)
            .into_par_iter()
            .map(|t| {
                let tree_seed = tree_seed(seed, t);
                let rows = if params.bootstrap {
                    let mut rng = ChaCha8Rng::seed_from_u64(tree_seed ^ 0xB0075);
                    bootstrap_rows(x.rows(), &mut rng)
                } else {
                    (0..x.rows()).collect()
                };
                let mut tree = DecisionTree::new(params.tree, tree_seed);
                tree.grow(x, y, ranks.order(), rows);
                tree
            })
            .collect();
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict before fit");
        let s: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
        s / self.trees.len() as f64
    }

    /// Tree-major batched prediction: each tree scores every row before the
    /// next tree runs, keeping one tree hot in cache across the batch.
    /// Per-row accumulation stays in tree order, so results are
    /// bit-identical to `predict_row` per row.
    fn predict_batch(&self, x: &Matrix, out: &mut Vec<f64>) {
        assert!(!self.trees.is_empty(), "predict before fit");
        out.clear();
        out.resize(x.rows(), 0.0);
        for tree in &self.trees {
            for (acc, row) in out.iter_mut().zip(x.iter_rows()) {
                *acc += tree.predict_row(row);
            }
        }
        let n = self.trees.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::metrics::r2;
    use crate::tree::tests::{arb_tied_problem, arb_tree_params, same_tree, PerNodeSort};
    use proptest::prelude::*;

    /// The oracle forest: each tree grown with the per-node sort on its
    /// bootstrap sample copied out by `Dataset::bootstrap` (or on the
    /// whole set).
    fn oracle_trees(
        params: RandomForestParams,
        seed: u64,
        x: &Matrix,
        y: &[f64],
    ) -> Vec<DecisionTree> {
        let ds = Dataset::new(x.clone(), y.to_vec());
        (0..params.n_estimators)
            .map(|t| {
                let tree_seed = tree_seed(seed, t);
                let sample = if params.bootstrap {
                    ds.bootstrap(&mut ChaCha8Rng::seed_from_u64(tree_seed ^ 0xB0075))
                } else {
                    ds.clone()
                };
                let mut tree = DecisionTree::new(params.tree, tree_seed);
                tree.grow(
                    &sample.x,
                    &sample.y,
                    PerNodeSort,
                    (0..sample.len()).collect(),
                );
                tree
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A forest grown on bootstrap row indices with shared ranks holds
        /// the oracle forest's trees, bit for bit, bootstrap on and off.
        #[test]
        fn fit_grows_the_oracle_forest(
            (x, y, _) in arb_tied_problem(),
            tree in arb_tree_params(),
            n_estimators in 1usize..8,
            bootstrap in prop_oneof![Just(true), Just(false)],
            seed in 0u64..1000,
        ) {
            let params = RandomForestParams { n_estimators, tree, bootstrap };
            let mut forest = RandomForest::new(params, seed);
            forest.fit(&x, &y);
            let oracle = oracle_trees(params, seed, &x, &y);
            prop_assert_eq!(forest.trees().len(), oracle.len());
            for (fast, oracle) in forest.trees().iter().zip(&oracle) {
                prop_assert!(same_tree(fast, oracle));
            }
        }
    }

    fn friedman_like(n: usize) -> (Matrix, Vec<f64>) {
        // Deterministic quasi-random design over 3 features.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = ((i * 7919) % 1000) as f64 / 1000.0;
                let b = ((i * 104729) % 1000) as f64 / 1000.0;
                let c = ((i * 1299709) % 1000) as f64 / 1000.0;
                vec![a, b, c]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| 10.0 * (std::f64::consts::PI * r[0]).sin() + 5.0 * r[1] * r[1] + 2.0 * r[2])
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = friedman_like(400);
        let mut f = RandomForest::new(
            RandomForestParams {
                n_estimators: 30,
                ..Default::default()
            },
            42,
        );
        f.fit(&x, &y);
        let pred = f.predict(&x);
        assert!(r2(&y, &pred) > 0.95, "in-sample R² should be high");
    }

    #[test]
    fn deterministic_across_fits() {
        let (x, y) = friedman_like(100);
        let params = RandomForestParams {
            n_estimators: 10,
            ..Default::default()
        };
        let mut a = RandomForest::new(params, 7);
        let mut b = RandomForest::new(params, 7);
        a.fit(&x, &y);
        b.fit(&x, &y);
        let pa = a.predict(&x);
        let pb = b.predict(&x);
        assert_eq!(pa, pb, "same seed ⇒ identical forests");
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let (x, y) = friedman_like(100);
        let params = RandomForestParams {
            n_estimators: 5,
            ..Default::default()
        };
        let mut a = RandomForest::new(params, 1);
        let mut b = RandomForest::new(params, 2);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_ne!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn prediction_is_tree_mean() {
        let (x, y) = friedman_like(80);
        let mut f = RandomForest::new(
            RandomForestParams {
                n_estimators: 7,
                ..Default::default()
            },
            3,
        );
        f.fit(&x, &y);
        let row = x.row(5);
        let per_tree: Vec<f64> = f.trees().iter().map(|t| t.predict_row(row)).collect();
        let mean = per_tree.iter().sum::<f64>() / per_tree.len() as f64;
        assert!((f.predict_row(row) - mean).abs() < 1e-12);
        assert_eq!(f.n_trees(), 7);
    }

    #[test]
    fn forest_beats_single_tree_on_noisy_data() {
        // Bagging reduces variance: train on noisy targets, evaluate against
        // the clean function. A single deep tree memorizes the noise.
        let (x, y_clean) = friedman_like(600);
        let y_noisy: Vec<f64> = y_clean
            .iter()
            .enumerate()
            .map(|(i, v)| {
                // Deterministic pseudo-noise in [-1.5, 1.5].
                let u = ((i * 2654435761) % 1000) as f64 / 1000.0;
                v + (u - 0.5) * 3.0
            })
            .collect();
        let ds = Dataset::new(x, y_noisy);
        let (train, test_noisy) = ds.train_test_split(0.3, 11);
        // Clean targets for the test rows: recompute from the features.
        let test_clean: Vec<f64> = test_noisy
            .x
            .iter_rows()
            .map(|r| 10.0 * (std::f64::consts::PI * r[0]).sin() + 5.0 * r[1] * r[1] + 2.0 * r[2])
            .collect();

        let mut tree = DecisionTree::new(TreeParams::default(), 0);
        tree.fit(&train.x, &train.y);
        let tree_pred: Vec<f64> = test_noisy
            .x
            .iter_rows()
            .map(|r| tree.predict_row(r))
            .collect();

        let mut forest = RandomForest::new(
            RandomForestParams {
                n_estimators: 40,
                ..Default::default()
            },
            0,
        );
        forest.fit(&train.x, &train.y);
        let forest_pred = forest.predict(&test_noisy.x);

        let r2_tree = r2(&test_clean, &tree_pred);
        let r2_forest = r2(&test_clean, &forest_pred);
        assert!(
            r2_forest > r2_tree,
            "bagging should beat one deep tree on noisy data: {r2_forest} vs {r2_tree}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let _ = RandomForest::new(
            RandomForestParams {
                n_estimators: 0,
                ..Default::default()
            },
            0,
        );
    }
}
