//! Property-based tests of the ML substrate's invariants.

use ml::dataset::{Dataset, Matrix};
use ml::forest::{RandomForest, RandomForestParams};
use ml::metrics::{mae, mape, mse, r2};
use ml::scaler::StandardScaler;
use ml::tree::{DecisionTree, TreeParams};
use ml::Regressor;
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    proptest::collection::vec(
        (-100.0..100.0f64, -100.0..100.0f64, -1000.0..1000.0f64),
        4..60,
    )
    .prop_map(|rows| {
        let x: Vec<Vec<f64>> = rows.iter().map(|(a, b, _)| vec![*a, *b]).collect();
        let y: Vec<f64> = rows.iter().map(|(_, _, y)| *y).collect();
        (x, y)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tree predictions are convex combinations of training targets:
    /// always within [min(y), max(y)].
    #[test]
    fn tree_predictions_within_target_range((x, y) in arb_dataset(), qa in -150.0..150.0f64, qb in -150.0..150.0f64) {
        let m = Matrix::from_rows(&x);
        let mut tree = DecisionTree::new(TreeParams::default(), 0);
        tree.fit(&m, &y);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = tree.predict_row(&[qa, qb]);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    /// Forest predictions inherit the same range bound.
    #[test]
    fn forest_predictions_within_target_range((x, y) in arb_dataset(), qa in -150.0..150.0f64) {
        let m = Matrix::from_rows(&x);
        let mut f = RandomForest::new(
            RandomForestParams { n_estimators: 8, ..Default::default() },
            1,
        );
        f.fit(&m, &y);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = f.predict_row(&[qa, 0.0]);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    /// A fully-grown tree with distinct feature rows memorizes training data.
    #[test]
    fn deep_tree_memorizes(rows in proptest::collection::vec((0u32..10_000, -10.0..10.0f64), 4..40)) {
        // Distinct integer keys guarantee separable rows.
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(u32, f64)> = rows.into_iter().filter(|(k, _)| seen.insert(*k)).collect();
        prop_assume!(rows.len() >= 3);
        let x: Vec<Vec<f64>> = rows.iter().map(|(k, _)| vec![*k as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|(_, v)| *v).collect();
        let m = Matrix::from_rows(&x);
        let mut tree = DecisionTree::new(TreeParams::default(), 0);
        tree.fit(&m, &y);
        for (xi, yi) in x.iter().zip(&y) {
            prop_assert!((tree.predict_row(xi) - yi).abs() < 1e-9);
        }
    }

    /// Metrics invariants: non-negative errors, R² ≤ 1, perfect prediction
    /// is a fixed point.
    #[test]
    fn metric_invariants(y in proptest::collection::vec(0.1..1000.0f64, 2..40), shift in -0.5..0.5f64) {
        let pred: Vec<f64> = y.iter().map(|v| v * (1.0 + shift)).collect();
        prop_assert!(mape(&y, &pred) >= 0.0);
        prop_assert!(mae(&y, &pred) >= 0.0);
        prop_assert!(mse(&y, &pred) >= 0.0);
        prop_assert!(r2(&y, &pred) <= 1.0 + 1e-12);
        prop_assert!(mape(&y, &y) == 0.0);
        prop_assert!((mape(&y, &pred) - shift.abs()).abs() < 1e-9);
    }

    /// Scaler transform/inverse round-trips any row.
    #[test]
    fn scaler_round_trip((x, _) in arb_dataset(), qa in -50.0..50.0f64, qb in -50.0..50.0f64) {
        let m = Matrix::from_rows(&x);
        let sc = StandardScaler::fit(&m);
        let mut row = vec![qa, qb];
        let orig = row.clone();
        sc.transform_row(&mut row);
        sc.inverse_transform_row(&mut row);
        for (a, b) in row.iter().zip(&orig) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    /// Train/test splits partition the dataset for any fraction.
    #[test]
    fn split_partitions((x, y) in arb_dataset(), frac in 0.1..0.9f64, seed in 0u64..1000) {
        let ds = Dataset::new(Matrix::from_rows(&x), y);
        let (train, test) = ds.train_test_split(frac, seed);
        prop_assert_eq!(train.len() + test.len(), ds.len());
        prop_assert!(!train.is_empty());
        prop_assert!(!test.is_empty());
    }
}
