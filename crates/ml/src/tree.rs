//! CART regression trees.
//!
//! Variance-reduction (squared-error) splitting with the standard controls:
//! `max_depth`, `min_samples_split`, `min_samples_leaf`, and per-split
//! feature subsampling (`max_features`) — the knobs the paper grid-searches
//! for its Random Forest (§5.2.1).
//!
//! A fit ranks every feature once (`Ranks`: each row's dense rank in
//! `total_cmp` order; a forest shares one ranking across its trees). A
//! split puts each candidate feature's rows in value order with one pass
//! over the node's rows to find their rank range — a feature whose extreme
//! values compare `==` is constant and skipped — and a stable counting sort
//! over that range, then evaluates every cut point with running sums: a
//! split costs `O(k · (n + r))` for `k` candidate features, `n` rows and a
//! rank range `r` no wider than the feature's distinct values. Ties keep
//! the order of the node's rows, as a stable per-node sort leaves them, so
//! every sum runs in the same order and the tree is bit-identical to the
//! one that sorting each feature at every node grows (the tests' oracle).
//!
//! A tree grows straight into a one-tree [`FlatForest`] arena, the form
//! every fitted tree and forest predicts through: a leaf sets its slot's
//! value; a split sets its feature and threshold, reserves its two
//! children side by side, then grows the left child and then the right.
//! A node that subsamples features draws them before its children grow,
//! so the RNG stream follows that order.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dataset::Matrix;
use crate::flat::FlatForest;
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

/// A fitted CART regression tree, held as a one-tree [`FlatForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    /// Growth controls.
    pub params: TreeParams,
    seed: u64,
    /// The fitted tree (`None` before `fit`).
    flat: Option<FlatForest>,
}

impl DecisionTree {
    /// A tree with the given parameters and RNG seed (used only when
    /// `max_features` subsamples).
    pub fn new(params: TreeParams, seed: u64) -> Self {
        DecisionTree {
            params,
            seed,
            flat: None,
        }
    }

    /// Depth of the fitted tree (0 = single leaf).
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn depth(&self) -> usize {
        self.fitted().depth()
    }

    /// Leaf count of the fitted tree.
    ///
    /// # Panics
    /// Panics before `fit`.
    pub fn n_leaves(&self) -> usize {
        self.fitted().n_leaves()
    }

    fn fitted(&self) -> &FlatForest {
        self.flat.as_ref().expect("tree used before fit")
    }

    /// Grows the tree on rows `rows` of `(x, y)` into a one-tree arena; a
    /// row may repeat (a bootstrap sample). `order` puts each node's rows
    /// in feature order.
    pub(crate) fn grow(
        &self,
        x: &Matrix,
        y: &[f64],
        order: impl SplitOrder,
        mut rows: Vec<usize>,
    ) -> FlatForest {
        assert!(self.params.min_samples_leaf >= 1, "min_samples_leaf ≥ 1");
        let mut grower = Grower {
            params: self.params,
            x,
            y,
            order,
            rng: ChaCha8Rng::seed_from_u64(self.seed),
            feats: Vec::with_capacity(x.cols()),
            pairs: Vec::with_capacity(rows.len()),
            flat: FlatForest::sapling(x.cols()),
        };
        grower.build(&mut rows, 0, 0);
        grower.flat
    }
}

/// Puts a node's rows in one feature's value order for the split scan.
pub(crate) trait SplitOrder {
    /// Fills `pairs` with `(x[i][j], y[i])` for each `i` in `indices`,
    /// stably sorted by `total_cmp` of the value (ties keep `indices`
    /// order). Returns false instead when the values all compare `==`: the
    /// feature is constant on this node.
    fn sort(
        &mut self,
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        j: usize,
        pairs: &mut Vec<(f64, f64)>,
    ) -> bool;
}

/// Each feature's dense rank per row in `total_cmp` order, computed once
/// per fit: rows with the same bits share a rank, and `-0.0` ranks below
/// `+0.0`.
pub(crate) struct Ranks {
    /// Column-major: `rank[j * rows + i]` is row `i`'s rank in feature `j`.
    rank: Vec<u32>,
    rows: usize,
}

impl Ranks {
    /// Ranks every column of `x`.
    ///
    /// # Panics
    /// Panics naming the row and column of a NaN feature, which has no
    /// place in the split order.
    pub(crate) fn new(x: &Matrix) -> Self {
        let rows = x.rows();
        let mut rank = vec![0u32; rows * x.cols()];
        let mut by_value: Vec<usize> = Vec::with_capacity(rows);
        for (j, col) in rank.chunks_exact_mut(rows).enumerate() {
            by_value.clear();
            by_value.extend(0..rows);
            by_value.sort_unstable_by(|&a, &b| x.get(a, j).total_cmp(&x.get(b, j)));
            let mut r = 0u32;
            let mut prev = x.get(by_value[0], j).to_bits();
            for &i in &by_value {
                let v = x.get(i, j);
                assert!(!v.is_nan(), "NaN feature at row {i}, column {j}");
                if v.to_bits() != prev {
                    prev = v.to_bits();
                    r += 1;
                }
                col[i] = r;
            }
        }
        Ranks { rank, rows }
    }

    /// A tree's sorter over these ranks, with its own counting buffer.
    pub(crate) fn order(&self) -> RankOrder<'_> {
        RankOrder {
            ranks: self,
            starts: Vec::new(),
        }
    }
}

/// Sorts a node's rows by counting their ranks (see [`Ranks`]).
pub(crate) struct RankOrder<'a> {
    ranks: &'a Ranks,
    /// Per rank in the node's range, the next free slot in `pairs`.
    starts: Vec<usize>,
}

impl SplitOrder for RankOrder<'_> {
    fn sort(
        &mut self,
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        j: usize,
        pairs: &mut Vec<(f64, f64)>,
    ) -> bool {
        let rank = &self.ranks.rank[j * self.ranks.rows..(j + 1) * self.ranks.rows];
        let (mut lo, mut hi) = (indices[0], indices[0]);
        for &i in indices {
            if rank[i] < rank[lo] {
                lo = i;
            } else if rank[i] > rank[hi] {
                hi = i;
            }
        }
        if x.get(lo, j) == x.get(hi, j) {
            return false;
        }
        let base = rank[lo];
        self.starts.clear();
        self.starts.resize((rank[hi] - base) as usize + 1, 0);
        for &i in indices {
            self.starts[(rank[i] - base) as usize] += 1;
        }
        let mut next = 0;
        for start in &mut self.starts {
            let count = *start;
            *start = next;
            next += count;
        }
        pairs.clear();
        pairs.resize(indices.len(), (0.0, 0.0));
        for &i in indices {
            let slot = &mut self.starts[(rank[i] - base) as usize];
            pairs[*slot] = (x.get(i, j), y[i]);
            *slot += 1;
        }
        true
    }
}

/// One tree's growth: its training rows, its RNG stream, the buffers
/// every node reuses and the arena it grows into.
struct Grower<'a, O> {
    params: TreeParams,
    x: &'a Matrix,
    y: &'a [f64],
    order: O,
    rng: ChaCha8Rng,
    feats: Vec<usize>,
    pairs: Vec<(f64, f64)>,
    flat: FlatForest,
}

impl<O: SplitOrder> Grower<'_, O> {
    /// Grows the node over rows `indices` into arena slot `slot`.
    fn build(&mut self, indices: &mut [usize], depth: usize, slot: u32) {
        let (x, y) = (self.x, self.y);
        let n = indices.len();
        let sum = indices.iter().map(|&i| y[i]).sum::<f64>();
        let mean = sum / n as f64;

        let depth_ok = self.params.max_depth.map(|d| depth < d).unwrap_or(true);
        if !depth_ok || n < self.params.min_samples_split {
            return self.flat.set_leaf(slot, mean);
        }
        // Pure node?
        let sse: f64 = indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        if sse <= 1e-24 {
            return self.flat.set_leaf(slot, mean);
        }

        let p = x.cols();
        let k = self.params.max_features.resolve(p);
        self.feats.clear();
        self.feats.extend(0..p);
        if k < p {
            self.feats.shuffle(&mut self.rng);
            self.feats.truncate(k);
            self.feats.sort_unstable();
        }

        let Some((feature, threshold)) = self.best_split(indices, sum) else {
            return self.flat.set_leaf(slot, mean);
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

        let left = self.flat.set_split(slot, feature, threshold);
        self.build(left_idx, depth + 1, left);
        self.build(right_idx, depth + 1, left + 1);
    }

    /// Finds the (feature, threshold) minimizing child SSE, or `None` when
    /// no valid split exists (all candidate features constant or
    /// `min_samples_leaf` unsatisfiable). `total_sum` is the node's target
    /// sum in `indices` order.
    fn best_split(&mut self, indices: &[usize], total_sum: f64) -> Option<(usize, f64)> {
        let y = self.y;
        let n = indices.len();
        let min_leaf = self.params.min_samples_leaf;
        let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();

        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, score)
        let pairs = &mut self.pairs;
        for &j in &self.feats {
            if !self.order.sort(self.x, y, indices, j, pairs) {
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
                    best = Some((j, threshold(v_prev, v_next), score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

/// The cut between adjacent sorted values `v_prev < v_next`: their
/// midpoint when it lies in `[v_prev, v_next)`, else `v_prev`. The midpoint
/// can round up to `v_next` (adjacent floats) or overflow to ±∞, and a cut
/// outside that interval would send every row to one child.
fn threshold(v_prev: f64, v_next: f64) -> f64 {
    let mid = 0.5 * (v_prev + v_next);
    if v_prev <= mid && mid < v_next {
        mid
    } else {
        v_prev
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        self.flat = Some(self.grow(x, y, Ranks::new(x).order(), (0..x.rows()).collect()));
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.fitted().predict_row(row)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// The oracle: a stable `total_cmp` sort of each feature's `(value,
    /// target)` pairs at every node.
    pub(crate) struct PerNodeSort;

    impl SplitOrder for PerNodeSort {
        fn sort(
            &mut self,
            x: &Matrix,
            y: &[f64],
            indices: &[usize],
            j: usize,
            pairs: &mut Vec<(f64, f64)>,
        ) -> bool {
            pairs.clear();
            pairs.extend(indices.iter().map(|&i| (x.get(i, j), y[i])));
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            pairs[0].0 != pairs[pairs.len() - 1].0
        }
    }

    /// An arena's persisted text: its base64 arrays carry every node's
    /// bits, so two arenas with the same text are the same trees bit for
    /// bit (`==` would take `-0.0` for `0.0`).
    pub(crate) fn arena_text(flat: &FlatForest) -> String {
        let mut w = serde::json::Writer::new(false);
        serde::Serialize::serialize(flat, &mut w);
        w.into_string()
    }

    /// Feature values with ties in mind: signed zeros, infinities, the
    /// extremes, a subnormal and adjacent floats.
    const VALUES: [f64; 13] = [
        f64::NEG_INFINITY,
        -f64::MAX,
        -2.5,
        -1.0,
        -0.0,
        0.0,
        5e-324,
        0.5,
        1.0,
        1.0 + f64::EPSILON,
        7.0,
        f64::MAX,
        f64::INFINITY,
    ];

    /// Targets that tie, including signed zeros, or differ in magnitude
    /// enough that a change in summation order shows in the low bits.
    const TARGETS: [f64; 8] = [0.1, 0.2, 0.3, -1.7, 1e6, 3.0, -0.0, 0.0];

    /// A training set with few distinct values per column (`distinct` of
    /// [`VALUES`]), rows copied from `templates` distinct rows, targets
    /// mostly from [`TARGETS`], and a row list: every row once in order
    /// (`draw == 0`), or `len` draws with repeats, as a bootstrap sample
    /// or a node deep in a tree holds them.
    pub(crate) fn arb_tied_problem() -> impl Strategy<Value = (Matrix, Vec<f64>, Vec<usize>)> {
        (
            0u64..1 << 32,
            1usize..6,
            1usize..48,
            1usize..VALUES.len() + 1,
            1usize..48,
            0usize..3,
            1usize..96,
        )
            .prop_map(|(seed, p, rows, distinct, templates, draw, len)| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let pools: Vec<Vec<f64>> = (0..p)
                    .map(|_| {
                        let mut pool = VALUES.to_vec();
                        pool.shuffle(&mut rng);
                        pool.truncate(distinct);
                        pool
                    })
                    .collect();
                let templates: Vec<Vec<f64>> = (0..templates)
                    .map(|_| {
                        pools
                            .iter()
                            .map(|pool| pool[rng.gen_range(0..distinct)])
                            .collect()
                    })
                    .collect();
                let x: Vec<Vec<f64>> = (0..rows)
                    .map(|_| templates[rng.gen_range(0..templates.len())].clone())
                    .collect();
                let y: Vec<f64> = (0..rows)
                    .map(|_| {
                        if rng.gen_bool(0.8) {
                            TARGETS[rng.gen_range(0..TARGETS.len())]
                        } else {
                            rng.gen_range(-1000.0..1000.0)
                        }
                    })
                    .collect();
                let picked = match draw {
                    0 => (0..rows).collect(),
                    _ => (0..len).map(|_| rng.gen_range(0..rows)).collect(),
                };
                (Matrix::from_rows(&x), y, picked)
            })
    }

    /// Growth controls over every knob, feature subsampling included.
    pub(crate) fn arb_tree_params() -> impl Strategy<Value = TreeParams> {
        (
            prop_oneof![Just(None), (0usize..6).prop_map(Some)],
            0usize..6,
            1usize..4,
            prop_oneof![
                Just(MaxFeatures::All),
                Just(MaxFeatures::Sqrt),
                Just(MaxFeatures::Third),
                (0usize..6).prop_map(MaxFeatures::Count),
            ],
        )
            .prop_map(
                |(max_depth, min_samples_split, min_samples_leaf, max_features)| TreeParams {
                    max_depth,
                    min_samples_split,
                    min_samples_leaf,
                    max_features,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On any row list, repeats included, ranking puts each feature in
        /// the per-node sort's order: the same constant verdict and, for a
        /// feature that varies, the same pairs bit for bit.
        #[test]
        fn rank_order_sorts_as_the_per_node_sort((x, y, rows) in arb_tied_problem()) {
            let ranks = Ranks::new(&x);
            let mut order = ranks.order();
            let (mut fast, mut oracle) = (Vec::new(), Vec::new());
            let bits = |pairs: &[(f64, f64)]| -> Vec<(u64, u64)> {
                pairs.iter().map(|(v, y)| (v.to_bits(), y.to_bits())).collect()
            };
            for j in 0..x.cols() {
                let varies = order.sort(&x, &y, &rows, j, &mut fast);
                prop_assert_eq!(varies, PerNodeSort.sort(&x, &y, &rows, j, &mut oracle));
                if varies {
                    prop_assert_eq!(bits(&fast), bits(&oracle));
                }
            }
        }

        /// The rank-based fit grows the per-node sort's tree, bit for bit.
        #[test]
        fn rank_fit_grows_the_per_node_sort_tree(
            (x, y, rows) in arb_tied_problem(),
            params in arb_tree_params(),
            seed in 0u64..1000,
        ) {
            let tree = DecisionTree::new(params, seed);
            let fast = tree.grow(&x, &y, Ranks::new(&x).order(), rows.clone());
            let oracle = tree.grow(&x, &y, PerNodeSort, rows);
            prop_assert_eq!(arena_text(&fast), arena_text(&oracle));
        }
    }

    #[test]
    fn signed_zeros_are_a_constant_feature() {
        let x = Matrix::from_rows(&[vec![0.0], vec![-0.0], vec![0.0], vec![-0.0]]);
        let y = [1.0, 2.0, 3.0, 4.0];
        let mut pairs = Vec::new();
        assert!(!Ranks::new(&x)
            .order()
            .sort(&x, &y, &[0, 1, 2, 3], 0, &mut pairs));
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &y);
        assert_eq!(t.n_leaves(), 1);
    }

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

    /// Fits the two rows `a < b` and checks each predicts its own target.
    fn splits_apart(a: f64, b: f64) {
        for (lo, hi) in [(0, 1), (1, 0)] {
            let mut rows = [vec![a], vec![a]];
            rows[hi] = vec![b];
            let mut y = [1.0; 2];
            y[hi] = 2.0;
            let mut t = DecisionTree::new(TreeParams::default(), 0);
            t.fit(&Matrix::from_rows(&rows), &y);
            assert_eq!(t.predict_row(&rows[lo]), 1.0, "{a:e} vs {b:e}");
            assert_eq!(t.predict_row(&rows[hi]), 2.0, "{a:e} vs {b:e}");
        }
    }

    #[test]
    fn adjacent_floats_split_apart() {
        // The midpoint of each pair rounds up to the larger value.
        splits_apart(1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        splits_apart(5e-324, 1e-323);
        splits_apart(1.0, 1.0f64.next_up());
    }

    #[test]
    fn overflowing_midpoints_split_apart() {
        splits_apart(1e308, 1.5e308);
        splits_apart(-1.5e308, -1e308);
        splits_apart(f64::MAX.next_down(), f64::MAX);
        splits_apart(-f64::MAX, f64::MAX);
    }

    #[test]
    fn infinite_features_split_apart() {
        splits_apart(f64::NEG_INFINITY, f64::INFINITY);
        splits_apart(1.0, f64::INFINITY);
        splits_apart(f64::NEG_INFINITY, 1.0);
        splits_apart(f64::MAX, f64::INFINITY);
        splits_apart(f64::NEG_INFINITY, -f64::MAX);
    }

    #[test]
    #[should_panic(expected = "NaN feature at row 2, column 1")]
    fn nan_feature_is_refused() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 2.0], vec![2.0, f64::NAN]]);
        let mut t = DecisionTree::new(TreeParams::default(), 0);
        t.fit(&x, &[1.0, 2.0, 3.0]);
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
