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
//! Each tree grows straight into an arena of its own, and the fit joins
//! them in tree order into one [`FlatForest`]: the forest predicts
//! through it, and a domain-specific model takes it by value
//! ([`RandomForest::into_flat`]) to serve and persist.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::dataset::{bootstrap_rows, Matrix};
use crate::flat::FlatForest;
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
    /// The fitted trees, joined in tree order (`None` before `fit`).
    flat: Option<FlatForest>,
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
            flat: None,
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
        self.flat.as_ref().map_or(0, FlatForest::n_trees)
    }

    /// The fitted forest's arena, the form a domain-specific model serves
    /// and persists.
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn into_flat(self) -> FlatForest {
        self.flat.expect("into_flat before fit")
    }

    fn fitted(&self) -> &FlatForest {
        self.flat.as_ref().expect("predict before fit")
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
        let trees = (0..params.n_estimators)
            .into_par_iter()
            .map(|t| {
                let tree_seed = tree_seed(seed, t);
                let rows = if params.bootstrap {
                    let mut rng = ChaCha8Rng::seed_from_u64(tree_seed ^ 0xB0075);
                    bootstrap_rows(x.rows(), &mut rng)
                } else {
                    (0..x.rows()).collect()
                };
                DecisionTree::new(params.tree, tree_seed).grow(x, y, ranks.order(), rows)
            })
            .collect();
        self.flat = Some(FlatForest::join(trees));
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.fitted().predict_row(row)
    }

    /// Tree-major, through [`FlatForest::predict_batch_into`].
    fn predict_batch(&self, x: &Matrix, out: &mut Vec<f64>) {
        self.fitted().predict_batch_into(x, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::metrics::r2;
    use crate::tree::tests::{arb_tied_problem, arb_tree_params, arena_text, PerNodeSort};
    use crate::tree::MaxFeatures;
    use proptest::prelude::*;

    /// The oracle forest: each tree grown with the per-node sort on its
    /// bootstrap sample copied out by `Dataset::bootstrap` (or on the
    /// whole set), one arena per tree.
    fn oracle_trees(
        params: RandomForestParams,
        seed: u64,
        x: &Matrix,
        y: &[f64],
    ) -> Vec<FlatForest> {
        let ds = Dataset::new(x.clone(), y.to_vec());
        (0..params.n_estimators)
            .map(|t| {
                let tree_seed = tree_seed(seed, t);
                let sample = if params.bootstrap {
                    ds.bootstrap(&mut ChaCha8Rng::seed_from_u64(tree_seed ^ 0xB0075))
                } else {
                    ds.clone()
                };
                DecisionTree::new(params.tree, tree_seed).grow(
                    &sample.x,
                    &sample.y,
                    PerNodeSort,
                    (0..sample.len()).collect(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A forest grown on bootstrap row indices with shared ranks holds
        /// the oracle forest's trees in tree order, bit for bit, bootstrap
        /// on and off.
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
            let oracle = FlatForest::join(oracle_trees(params, seed, &x, &y));
            prop_assert_eq!(forest.n_trees(), n_estimators);
            prop_assert_eq!(arena_text(&forest.into_flat()), arena_text(&oracle));
        }
    }

    /// FNV-1a over the little-endian bytes of each value's bits.
    fn fnv1a(values: &[f64]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Sixteen distinct rows, three times over with different targets:
    /// few values per column, signed zeros, and targets that tie.
    fn tied_problem() -> (Matrix, Vec<f64>) {
        const NOISE: [f64; 5] = [0.0, 0.25, -0.0, 0.25, 1e3];
        let (mut rows, mut y) = (Vec::new(), Vec::new());
        for i in 0..48 {
            let t = i % 16;
            rows.push(vec![
                (t % 4) as f64,
                ((t * 7) % 5) as f64 * 0.5,
                [-0.0, 0.0, 1.0][t % 3],
                (t % 6) as f64,
            ]);
            y.push((t % 5) as f64 + NOISE[i % 5]);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn predictions_are_pinned() {
        let (x, y) = tied_problem();
        let mut queries: Vec<Vec<f64>> = x.iter_rows().map(<[f64]>::to_vec).collect();
        queries.push(vec![f64::NAN, 0.5, -0.0, 2.5]);
        queries.push(vec![1.5, 9.0, 0.5, -1.0]);
        let queries = Matrix::from_rows(&queries);
        let template = Matrix::from_rows(&[vec![1.5, 1.0, 0.0, 3.0]]);
        let values = [3.0, 0.0, 1.5, 0.0, 2.0, -1.0, 0.5];

        let mut bits = Vec::new();
        let mut swept = Vec::new();
        for max_features in [MaxFeatures::All, MaxFeatures::Sqrt, MaxFeatures::Count(2)] {
            for max_depth in [None, Some(4)] {
                for bootstrap in [true, false] {
                    let tree = TreeParams {
                        max_depth,
                        max_features,
                        ..Default::default()
                    };
                    let params = RandomForestParams {
                        n_estimators: 6,
                        tree,
                        bootstrap,
                    };
                    let mut forest = RandomForest::new(params, 11);
                    forest.fit(&x, &y);
                    bits.extend(queries.iter_rows().map(|row| forest.predict_row(row)));
                    bits.extend(forest.predict(&queries));
                    let flat = forest.into_flat();
                    for col in 0..x.cols() {
                        flat.predict_sweep_batch_into(&template, col, &values, &mut swept);
                        bits.extend_from_slice(&swept);
                    }
                }
            }
        }
        let params = TreeParams {
            max_features: MaxFeatures::Sqrt,
            ..Default::default()
        };
        let mut tree = DecisionTree::new(params, 5);
        tree.fit(&x, &y);
        bits.extend(queries.iter_rows().map(|row| tree.predict_row(row)));
        bits.extend(tree.predict(&queries));

        assert_eq!(bits.len(), 12 * (2 * 50 + 4 * 7) + 2 * 50);
        assert_eq!(fnv1a(&bits), 0xd2ca_fd4d_eab8_9c53);
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
        assert_eq!(arena_text(&a.into_flat()), arena_text(&b.into_flat()));
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
        let per_tree: Vec<f64> = oracle_trees(f.params, 3, &x, &y)
            .iter()
            .map(|t| t.predict_row(row))
            .collect();
        let mean = per_tree.iter().sum::<f64>() / per_tree.len() as f64;
        assert_eq!(f.predict_row(row).to_bits(), mean.to_bits());
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
    #[should_panic(expected = "into_flat before fit")]
    fn into_flat_before_fit_panics() {
        let _ = RandomForest::with_defaults(0).into_flat();
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
