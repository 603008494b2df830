//! CART regression trees.
//!
//! Variance-reduction (squared-error) splitting with the standard controls:
//! `max_depth`, `min_samples_split`, `min_samples_leaf`, and per-split
//! feature subsampling (`max_features`) — the knobs the paper grid-searches
//! for its Random Forest (§5.2.1). Split scanning sorts each candidate
//! feature once and evaluates every cut point with running sums, so a split
//! costs `O(k · n log n)` for `k` candidate features.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dataset::Matrix;
use crate::Regressor;

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features (classic CART, the Random Forest regressor default in
    /// scikit-learn ≥1.0 — the paper reports default parameters win).
    All,
    /// ⌈√p⌉ features.
    Sqrt,
    /// ⌈p/3⌉ features (the old regression-forest heuristic).
    Third,
    /// An explicit count (clamped to `p`).
    Count(usize),
}

impl MaxFeatures {
    /// Resolves to a concrete count for `p` features (always ≥ 1).
    pub fn resolve(&self, p: usize) -> usize {
        let k = match self {
            MaxFeatures::All => p,
            MaxFeatures::Sqrt => (p as f64).sqrt().ceil() as usize,
            MaxFeatures::Third => p.div_ceil(3),
            MaxFeatures::Count(k) => *k,
        };
        k.clamp(1, p)
    }
}

/// Tree growth controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth; `None` grows until purity/minimum-sample limits.
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Feature subsampling rule per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, row: &[f64]) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row[*feature] <= *threshold {
                    left.predict(row)
                } else {
                    right.predict(row)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.leaves() + right.leaves(),
        }
    }
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    /// Growth controls.
    pub params: TreeParams,
    seed: u64,
    root: Option<Node>,
    n_features: usize,
}

impl DecisionTree {
    /// A tree with the given parameters and RNG seed (used only when
    /// `max_features` subsamples).
    pub fn new(params: TreeParams, seed: u64) -> Self {
        DecisionTree {
            params,
            seed,
            root: None,
            n_features: 0,
        }
    }

    /// Depth of the fitted tree (0 = single leaf).
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn depth(&self) -> usize {
        self.root.as_ref().expect("fitted").depth()
    }

    /// Leaf count of the fitted tree.
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn n_leaves(&self) -> usize {
        self.root.as_ref().expect("fitted").leaves()
    }

    /// Root node of the fitted tree, if any (compile hook for
    /// [`crate::flat::FlatForest`]).
    pub(crate) fn root(&self) -> Option<&Node> {
        self.root.as_ref()
    }

    /// Feature width this tree was fitted on (0 before `fit`).
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    fn build(
        &self,
        x: &Matrix,
        y: &[f64],
        indices: &mut [usize],
        depth: usize,
        rng: &mut ChaCha8Rng,
    ) -> Node {
        let n = indices.len();
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n as f64;

        let depth_ok = self.params.max_depth.map(|d| depth < d).unwrap_or(true);
        if !depth_ok || n < self.params.min_samples_split {
            return Node::Leaf { value: mean };
        }
        // Pure node?
        let sse: f64 = indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        if sse <= 1e-24 {
            return Node::Leaf { value: mean };
        }

        let p = x.cols();
        let k = self.params.max_features.resolve(p);
        let mut feats: Vec<usize> = (0..p).collect();
        if k < p {
            feats.shuffle(rng);
            feats.truncate(k);
            feats.sort_unstable();
        }

        let best = self.best_split(x, y, indices, &feats);
        let Some((feature, threshold)) = best else {
            return Node::Leaf { value: mean };
        };

        // Partition indices in place: left = rows with value <= threshold.
        let mut lo = 0usize;
        let mut hi = indices.len();
        while lo < hi {
            if x.get(indices[lo], feature) <= threshold {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        let left = self.build(x, y, left_idx, depth + 1, rng);
        let right = self.build(x, y, right_idx, depth + 1, rng);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Finds the (feature, threshold) minimizing child SSE, or `None` when
    /// no valid split exists (all candidate features constant or
    /// `min_samples_leaf` unsatisfiable).
    fn best_split(
        &self,
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        feats: &[usize],
    ) -> Option<(usize, f64)> {
        let n = indices.len();
        let min_leaf = self.params.min_samples_leaf;
        let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();

        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, score)
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &j in feats {
            pairs.clear();
            pairs.extend(indices.iter().map(|&i| (x.get(i, j), y[i])));
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            if pairs[0].0 == pairs[n - 1].0 {
                continue; // constant feature
            }
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split in 1..n {
                let (v_prev, y_prev) = pairs[split - 1];
                left_sum += y_prev;
                left_sq += y_prev * y_prev;
                let v_next = pairs[split].0;
                if v_prev == v_next {
                    continue; // cannot cut between equal values
                }
                if split < min_leaf || n - split < min_leaf {
                    continue;
                }
                let nl = split as f64;
                let nr = (n - split) as f64;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse_l = left_sq - left_sum * left_sum / nl;
                let sse_r = right_sq - right_sum * right_sum / nr;
                let score = sse_l + sse_r;
                let better = match best {
                    None => true,
                    Some((_, _, s)) => score < s,
                };
                if better {
                    let thr = 0.5 * (v_prev + v_next);
                    best = Some((j, thr, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert!(self.params.min_samples_leaf >= 1, "min_samples_leaf ≥ 1");
        let mut indices: Vec<usize> = (0..x.rows()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.n_features = x.cols();
        self.root = Some(self.build(x, y, &mut indices, 0, &mut rng));
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let root = self.root.as_ref().expect("predict before fit");
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        root.predict(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 1 for x < 0.5, y = 5 for x >= 0.5
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let y = rows
            .iter()
            .map(|r| if r[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (x, y) = step_data();
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        assert_eq!(t.predict_row(&[0.1]), 1.0);
        assert_eq!(t.predict_row(&[0.9]), 5.0);
        // A single split suffices.
        assert_eq!(t.n_leaves(), 2);
    }

    #[test]
    fn depth_zero_cap_yields_mean_leaf() {
        let (x, y) = step_data();
        let mut t = DecisionTree::new(
            TreeParams {
                max_depth: Some(0),
                ..Default::default()
            },
            0,
        );
        t.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert_eq!(t.predict_row(&[0.3]), mean);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = step_data();
        let mut t = DecisionTree::new(
            TreeParams {
                min_samples_leaf: 8,
                ..Default::default()
            },
            0,
        );
        t.fit(&x, &y);
        // With 20 points and a leaf minimum of 8 at most one split fits per
        // path near the boundary; the tree must stay shallow.
        assert!(t.depth() <= 2);
    }

    #[test]
    fn interpolates_smooth_function_reasonably() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] * 6.0).sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        for (i, r) in x.iter_rows().enumerate().step_by(17) {
            assert!((t.predict_row(r) - y[i]).abs() < 0.05);
        }
    }

    #[test]
    fn constant_features_give_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        assert_eq!(t.n_leaves(), 1);
        assert!((t.predict_row(&[1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multifeature_split_picks_informative_one() {
        // Feature 0 is noise; feature 1 carries the signal.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![((i * 31) % 7) as f64, (i % 2) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[1] * 10.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        assert_eq!(t.predict_row(&[3.0, 0.0]), 0.0);
        assert_eq!(t.predict_row(&[3.0, 1.0]), 10.0);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Third.resolve(10), 4);
        assert_eq!(MaxFeatures::Count(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Count(0).resolve(10), 1);
    }

    #[test]
    fn deterministic_with_feature_subsampling() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 5) as f64, (i % 7) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] + 2.0 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let params = TreeParams {
            max_features: MaxFeatures::Count(2),
            ..Default::default()
        };
        let mut a = DecisionTree::new(params, 5);
        let mut b = DecisionTree::new(params, 5);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a, b);
    }
}
