//! Property tests of grown forest arenas, across random shapes (tree
//! depths, feature counts, forest sizes) and NaN-free query matrices:
//! every fitted forest's arena passes `FlatForest::check`, is the same for
//! the same fit and survives its persisted form byte for byte, and the
//! scalar, batched and sweep paths agree bit for bit.

use ml::dataset::Matrix;
use ml::flat::FlatForest;
use ml::forest::{RandomForest, RandomForestParams};
use ml::tree::{MaxFeatures, TreeParams};
use ml::Regressor;
use proptest::prelude::*;
use serde::json::{Reader, Writer};
use serde::{Deserialize, Serialize};

/// A training set plus query matrix with a shared, arbitrary feature width.
fn arb_problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, Vec<Vec<f64>>)> {
    (1usize..5).prop_flat_map(|p| {
        let train =
            proptest::collection::vec(proptest::collection::vec(-100.0..100.0f64, p..p + 1), 4..40);
        let targets = proptest::collection::vec(-1000.0..1000.0f64, 40..41);
        let queries =
            proptest::collection::vec(proptest::collection::vec(-150.0..150.0f64, p..p + 1), 1..12);
        (train, targets, queries).prop_map(|(x, mut y, q)| {
            y.truncate(x.len());
            (x, y, q)
        })
    })
}

fn arb_params() -> impl Strategy<Value = RandomForestParams> {
    (
        1usize..10,
        prop_oneof![Just(None), (1usize..8).prop_map(Some)],
        1usize..3,
        prop_oneof![
            Just(MaxFeatures::All),
            Just(MaxFeatures::Sqrt),
            Just(MaxFeatures::Third),
        ],
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(
            |(n_estimators, max_depth, min_samples_leaf, max_features, bootstrap)| {
                RandomForestParams {
                    n_estimators,
                    tree: TreeParams {
                        max_depth,
                        min_samples_leaf,
                        max_features,
                        ..Default::default()
                    },
                    bootstrap,
                }
            },
        )
}

fn fitted(x: &[Vec<f64>], y: &[f64], params: RandomForestParams, seed: u64) -> RandomForest {
    let mut forest = RandomForest::new(params, seed);
    forest.fit(&Matrix::from_rows(x), y);
    forest
}

/// The arena's persisted text.
fn text(flat: &FlatForest) -> String {
    let mut w = Writer::new(false);
    flat.serialize(&mut w);
    w.into_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Scalar prediction is bit-identical across the forest, its arena,
    /// and the arena's one-row batch and one-template, one-value sweep, on
    /// training rows and on out-of-sample queries.
    #[test]
    fn flat_scalar_bit_identical(
        (x, y, queries) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let forest = fitted(&x, &y, params, seed);
        let flat = forest.clone().into_flat();
        prop_assert_eq!(flat.n_trees(), params.n_estimators);
        let (mut batch, mut swept) = (Vec::new(), Vec::new());
        for row in x.iter().chain(&queries) {
            let one = Matrix::from_rows(std::slice::from_ref(row));
            flat.predict_batch_into(&one, &mut batch);
            flat.predict_sweep_batch_into(&one, 0, &row[..1], &mut swept);
            let bits = flat.predict_row(row).to_bits();
            prop_assert_eq!(forest.predict_row(row).to_bits(), bits);
            prop_assert_eq!(batch[0].to_bits(), bits);
            prop_assert_eq!(swept[0].to_bits(), bits);
        }
    }

    /// `FlatForest::predict_batch_into` (tree-major) matches the arena's
    /// scalar path and the forest's batched and scalar paths bit for bit.
    #[test]
    fn flat_batch_bit_identical(
        (x, y, queries) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let forest = fitted(&x, &y, params, seed);
        let flat = forest.clone().into_flat();
        let q = Matrix::from_rows(&queries);

        let mut batch = Vec::new();
        flat.predict_batch_into(&q, &mut batch);
        let forest_batch = forest.predict(&q);
        prop_assert_eq!(batch.len(), queries.len());
        for (i, row) in queries.iter().enumerate() {
            prop_assert_eq!(batch[i].to_bits(), flat.predict_row(row).to_bits());
            prop_assert_eq!(batch[i].to_bits(), forest_batch[i].to_bits());
            prop_assert_eq!(batch[i].to_bits(), forest.predict_row(row).to_bits());
        }
    }

    /// Sweep evaluation (one descent per tree and template,
    /// range-partitioned on the swept column) is bit-identical to
    /// materializing each query's swept rows and running the plain batch,
    /// for any column and unsorted value lists.
    #[test]
    fn sweep_bit_identical_to_materialized_rows(
        (x, y, queries) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
        values in proptest::collection::vec(-200.0..200.0f64, 1..12),
        col_pick in 0usize..64,
    ) {
        let flat = fitted(&x, &y, params, seed).into_flat();
        let col = col_pick % queries[0].len();

        let mut swept = Vec::new();
        flat.predict_sweep_batch_into(&Matrix::from_rows(&queries), col, &values, &mut swept);
        prop_assert_eq!(swept.len(), queries.len() * values.len());
        let mut materialized = Vec::new();
        for (template, swept) in queries.iter().zip(swept.chunks_exact(values.len())) {
            let rows: Vec<Vec<f64>> = values
                .iter()
                .map(|&v| {
                    let mut r = template.clone();
                    r[col] = v;
                    r
                })
                .collect();
            flat.predict_batch_into(&Matrix::from_rows(&rows), &mut materialized);
            for (a, b) in swept.iter().zip(&materialized) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Growing twice from the same data, parameters and seed yields equal
    /// arenas that write the same text byte for byte, and a clone of the
    /// fitted forest hands over an equal arena (a pure function of the fit).
    #[test]
    fn compile_is_deterministic(
        (x, y, _) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let forest = fitted(&x, &y, params, seed);
        let refit = fitted(&x, &y, params, seed).into_flat();
        prop_assert_eq!(text(&forest.clone().into_flat()), text(&refit));
        prop_assert_eq!(forest.into_flat(), refit);
    }

    /// Every grown arena passes the load-time check, and its persisted
    /// text reads back to an arena that passes it too, writes the same
    /// text byte for byte and predicts the same bits.
    #[test]
    fn grown_arenas_pass_check_and_round_trip(
        (x, y, queries) in arb_problem(),
        params in arb_params(),
        seed in 0u64..1000,
    ) {
        let flat = fitted(&x, &y, params, seed).into_flat();
        prop_assert_eq!(flat.check(), Ok(()));

        let text = text(&flat);
        let mut r = Reader::new(&text);
        let back = FlatForest::deserialize(&mut r).expect("a written arena reads back");
        r.finish().expect("nothing follows the arena");
        prop_assert_eq!(back.check(), Ok(()));
        prop_assert_eq!(self::text(&back), text);

        let q = Matrix::from_rows(&queries);
        let (mut before, mut after) = (Vec::new(), Vec::new());
        flat.predict_batch_into(&q, &mut before);
        back.predict_batch_into(&q, &mut after);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&before), bits(&after));
    }
}
