//! The forest arena: one tree form from fit to serve.
//!
//! A [`FlatForest`] holds a forest's trees in one contiguous
//! struct-of-arrays arena. Trees grow straight into it: [`crate::tree`]
//! writes each node into a one-tree arena as it grows it, and
//! [`crate::forest::RandomForest`]'s fit joins the trees' arenas in tree
//! order. The arena is what a forest predicts through, what a
//! domain-specific model serves and what its artifact persists; there is
//! no other tree form.
//!
//! The layout stores one node per index across three parallel arrays:
//!
//! * `feature[i]` — split feature as `u16` (unused for leaves);
//! * `threshold[i]` — split threshold, or the **leaf value** for leaves;
//! * `child[i]` — index of the left child, or `0` for a leaf.
//!
//! Nodes sit in growth order: a split reserves its two children side by
//! side, then its left subtree grows, then its right. So every child sits
//! past its parent, `right == left + 1`, and descent is near-branchless:
//! `idx = child[idx] + (go_right as u32)`. Index `0` is always the first
//! tree's root — never a child — which makes `child == 0` an unambiguous
//! leaf sentinel without a separate tag array. (Arenas persisted before
//! trees grew in place sit in breadth-first order; descent does not depend
//! on the order, and [`FlatForest::check`] accepts both.)
//!
//! A split sends a row left when `row[feature] <= threshold`; descent
//! steps right on the negation, so a NaN feature falls right. Per-row tree
//! contributions accumulate in tree order and the mean divides once by the
//! tree count, so the scalar, batched and sweep paths agree bit for bit.
//!
//! [`FlatForest::predict_batch_into`] evaluates *tree-major*: the outer
//! loop walks one tree across every row before moving to the next tree, so
//! a tree's ~few-KiB arena stays resident in L1/L2 for the whole batch
//! instead of re-streaming the entire forest per row.
//!
//! The arena serializes as a map of `n_features` and its four arrays
//! (`roots`, `feature`, `threshold`, `child`), each one string: the
//! array's little-endian bytes in base64 (RFC 4648, standard alphabet,
//! padded). Every `f64` bit pattern round-trips, NaN payloads and signed
//! zeros included, and a load decodes each array from the payload in
//! place, with no number parsing. The reader is strict — a character
//! outside the alphabet, a length that is not a multiple of 4, padding
//! before the end or beyond two `=`, non-zero trailing bits, a partial
//! element or a missing array is a [`DeError`] — so each arena has
//! exactly one encoding and re-sealing a loaded model reproduces its
//! bytes. An arena read from bytes was never grown here, so
//! [`FlatForest::check`] must accept it before it serves.

use serde::json::{Reader, Writer};
use serde::{DeError, Deserialize, Serialize};

use crate::dataset::Matrix;

/// `child` sentinel marking a leaf (arena slot 0 is always a root, so no
/// real child can ever be 0).
const LEAF: u32 = 0;

/// A forest's trees in one contiguous struct-of-arrays arena: the form a
/// fitted forest grows into, serves from and persists as.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    n_features: usize,
    /// Arena index of each tree's root, in tree order.
    roots: Vec<u32>,
    feature: Vec<u16>,
    threshold: Vec<f64>,
    child: Vec<u32>,
}

impl FlatForest {
    /// A one-tree arena holding only its root's slot, for a tree to grow
    /// into.
    ///
    /// # Panics
    /// Panics with ≥ `u16::MAX` features.
    pub(crate) fn sapling(n_features: usize) -> Self {
        assert!(
            n_features < usize::from(u16::MAX),
            "feature index must fit u16"
        );
        let mut flat = FlatForest {
            n_features,
            roots: vec![0],
            feature: Vec::new(),
            threshold: Vec::new(),
            child: Vec::new(),
        };
        flat.push_slot();
        flat
    }

    /// Makes `slot` a leaf predicting `value`.
    pub(crate) fn set_leaf(&mut self, slot: u32, value: f64) {
        self.threshold[slot as usize] = value;
    }

    /// Makes `slot` a split sending `row[feature] <= threshold` left, and
    /// reserves its two children side by side. Returns the left child's
    /// index; the right child's is one past it.
    pub(crate) fn set_split(&mut self, slot: u32, feature: usize, threshold: f64) -> u32 {
        let left = self.push_slot();
        self.push_slot();
        let slot = slot as usize;
        self.feature[slot] = feature as u16;
        self.threshold[slot] = threshold;
        self.child[slot] = left;
        left
    }

    /// Reserves one arena slot, a leaf until set, returning its index.
    fn push_slot(&mut self) -> u32 {
        let idx = self.feature.len();
        assert!(idx < u32::MAX as usize, "node count must fit u32");
        self.feature.push(0);
        self.threshold.push(0.0);
        self.child.push(LEAF);
        idx as u32
    }

    /// Joins arenas in order into one, offsetting each one's indices by
    /// the nodes before it.
    ///
    /// # Panics
    /// Panics on no arenas, or with more than `u32::MAX - 1` total nodes
    /// (far beyond any forest this repo trains).
    pub(crate) fn join(parts: Vec<FlatForest>) -> Self {
        let n: usize = parts.iter().map(FlatForest::n_nodes).sum();
        assert!(n < u32::MAX as usize, "node count must fit u32");
        let mut flat = FlatForest {
            n_features: parts[0].n_features,
            roots: Vec::with_capacity(parts.len()),
            feature: Vec::with_capacity(n),
            threshold: Vec::with_capacity(n),
            child: Vec::with_capacity(n),
        };
        for part in parts {
            let base = flat.n_nodes() as u32;
            flat.roots.extend(part.roots.iter().map(|&r| r + base));
            flat.feature.extend_from_slice(&part.feature);
            flat.threshold.extend_from_slice(&part.threshold);
            flat.child.extend(
                part.child
                    .iter()
                    .map(|&c| if c == LEAF { LEAF } else { c + base }),
            );
        }
        flat
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total arena nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Feature width expected by `predict_row`/`predict_batch_into`.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Leaf count across all trees.
    pub(crate) fn n_leaves(&self) -> usize {
        self.child.iter().filter(|&&c| c == LEAF).count()
    }

    /// Depth of the deepest tree (0 when every tree is a single leaf).
    pub(crate) fn depth(&self) -> usize {
        // Children sit past their parent, so one forward pass sets every
        // parent's depth before its children's.
        let mut depth = vec![0; self.n_nodes()];
        let mut deepest = 0;
        for (i, &c) in self.child.iter().enumerate() {
            if c != LEAF {
                let (c, d) = (c as usize, depth[i] + 1);
                depth[c] = d;
                depth[c + 1] = d;
                deepest = deepest.max(d);
            }
        }
        deepest
    }

    /// Checks what descent relies on, for an arena read from bytes: the
    /// arrays have equal length, there is a tree and every root is in
    /// bounds, and every split reads a feature inside the row width and
    /// points forward, to a left child past its own index whose right
    /// sibling is in bounds — so every descent ends at a leaf. Reports the
    /// first violation.
    pub fn check(&self) -> Result<(), String> {
        let n = self.feature.len();
        if self.threshold.len() != n || self.child.len() != n {
            return Err(format!(
                "ragged arena: {n} features, {} thresholds, {} children",
                self.threshold.len(),
                self.child.len()
            ));
        }
        if self.roots.is_empty() {
            return Err("arena has no trees".to_string());
        }
        if let Some(root) = self.roots.iter().find(|&&r| r as usize >= n) {
            return Err(format!("root {root} out of bounds ({n} nodes)"));
        }
        for (i, (&c, &f)) in self.child.iter().zip(&self.feature).enumerate() {
            let c = c as usize;
            if c == LEAF as usize {
                continue;
            }
            if c <= i {
                return Err(format!("split {i} points back to child {c}"));
            }
            if c + 1 >= n {
                return Err(format!("split {i} child {c} out of bounds ({n} nodes)"));
            }
            if usize::from(f) >= self.n_features {
                return Err(format!(
                    "split {i} reads feature {f} of {}",
                    self.n_features
                ));
            }
        }
        Ok(())
    }

    /// Walks one tree for one row. A split sends `row[feature] <= threshold`
    /// left, so the right step is its negation and a NaN feature falls
    /// right — `!(v <= t)` is *not* `v > t` when `v` is NaN, which is
    /// exactly why clippy's rewrite suggestion must be refused here.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn descend(&self, root: u32, row: &[f64]) -> f64 {
        let mut idx = root as usize;
        loop {
            let c = self.child[idx];
            if c == LEAF {
                return self.threshold[idx];
            }
            let go_right = !(row[self.feature[idx] as usize] <= self.threshold[idx]);
            idx = (c + u32::from(go_right)) as usize;
        }
    }

    /// Predicts one row: the mean of the trees' leaves, summed in tree
    /// order.
    ///
    /// # Panics
    /// Panics on a feature-count mismatch.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let s: f64 = self.roots.iter().map(|&r| self.descend(r, row)).sum();
        s / self.roots.len() as f64
    }

    /// Tree-major batched prediction into a caller-owned buffer (cleared
    /// and refilled), for allocation-free steady-state serving: walks one
    /// tree across every row before advancing to the next tree. Per-row
    /// accumulation stays in tree order, so results are bit-identical to
    /// calling [`FlatForest::predict_row`] per row.
    ///
    /// # Panics
    /// Panics on a feature-count mismatch.
    pub fn predict_batch_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        assert_eq!(x.cols(), self.n_features, "feature count mismatch");
        out.clear();
        out.resize(x.rows(), 0.0);
        for &root in &self.roots {
            for (acc, row) in out.iter_mut().zip(x.iter_rows()) {
                *acc += self.descend(root, row);
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// Sweep evaluation: for each row of `templates`, predictions for
    /// `values.len()` virtual rows that are all equal to it except column
    /// `sweep_col`, which takes each of `values` in turn. `out` is cleared
    /// and refilled template-major: the predictions for `templates` row
    /// `k` occupy `out[k * values.len()..][..values.len()]`, in `values`
    /// order.
    ///
    /// This is the frequency-curve hot path: instead of materializing the
    /// rows and descending every tree once *per value*, each tree is
    /// descended **once per template** — splits on any column other than
    /// `sweep_col` resolve identically for every value, so they follow a
    /// single child, and splits on `sweep_col` partition the (sorted)
    /// value range between the two children. The **outer loop is over
    /// trees**, so each tree's few-KiB arena slice stays cache-resident
    /// while it serves every template. Every value still lands on exactly
    /// the leaf the plain descent would reach, per-value tree
    /// contributions accumulate in tree order, and the mean divides once —
    /// so results are bit-identical to materializing the rows and calling
    /// [`FlatForest::predict_batch_into`].
    ///
    /// # Panics
    /// Panics on a feature-count mismatch, `sweep_col` out of range, or a
    /// NaN sweep value (range partitioning needs an ordered sweep axis;
    /// template columns may still be NaN and fall right as usual).
    pub fn predict_sweep_batch_into(
        &self,
        templates: &Matrix,
        sweep_col: usize,
        values: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(templates.cols(), self.n_features, "feature count mismatch");
        assert!(sweep_col < self.n_features, "sweep column out of range");
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "sweep values must not be NaN"
        );
        out.clear();
        out.resize(templates.rows() * values.len(), 0.0);
        if values.is_empty() || templates.rows() == 0 {
            return;
        }

        let plan = SweepPlan::new(values);
        let mut stack = Vec::with_capacity(64);
        for &root in &self.roots {
            for (row, acc) in templates
                .iter_rows()
                .zip(out.chunks_exact_mut(values.len()))
            {
                self.sweep_tree(root, row, sweep_col, &plan, &mut stack, acc);
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// One tree of a sweep evaluation: adds the tree's leaf value for every
    /// swept value into `out` (no mean division). Non-sweep splits follow a
    /// single child; sweep-column splits partition the sorted value range,
    /// deferring the right branch on `stack` (passed in so callers reuse
    /// its allocation; always left empty on return).
    // `!(v <= t)` is NaN-aware (not `v > t`); see `descend`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn sweep_tree(
        &self,
        root: u32,
        template: &[f64],
        sweep_col: usize,
        plan: &SweepPlan,
        stack: &mut Vec<(u32, u32, u32)>,
        out: &mut [f64],
    ) {
        let (mut idx, mut lo, mut hi) = (root as usize, 0u32, plan.sorted.len() as u32);
        loop {
            let c = self.child[idx];
            if c == LEAF {
                let v = self.threshold[idx];
                if plan.identity {
                    for acc in &mut out[lo as usize..hi as usize] {
                        *acc += v;
                    }
                } else {
                    for &o in &plan.order[lo as usize..hi as usize] {
                        out[o as usize] += v;
                    }
                }
                match stack.pop() {
                    Some((i, l, h)) => {
                        idx = i as usize;
                        lo = l;
                        hi = h;
                    }
                    None => break,
                }
                continue;
            }
            let t = self.threshold[idx];
            let f = self.feature[idx] as usize;
            if f == sweep_col {
                // Values `<= t` go left — the same predicate as the plain
                // descent. A branchless linear count beats binary search
                // on the short ranges seen here.
                let left = plan.sorted[lo as usize..hi as usize]
                    .iter()
                    .filter(|&&v| v <= t)
                    .count() as u32;
                let mid = lo + left;
                if mid == hi {
                    idx = c as usize; // every value goes left
                } else if mid == lo {
                    idx = (c + 1) as usize; // every value goes right
                } else {
                    stack.push((c + 1, mid, hi));
                    idx = c as usize;
                    hi = mid;
                }
            } else {
                idx = (c + u32::from(!(template[f] <= t))) as usize;
            }
        }
    }
}

impl Serialize for FlatForest {
    fn serialize(&self, w: &mut Writer) {
        w.begin_map();
        w.entry("n_features", &self.n_features);
        w.entry("roots", &encode(&self.roots, u32::to_le_bytes));
        w.entry("feature", &encode(&self.feature, u16::to_le_bytes));
        w.entry("threshold", &encode(&self.threshold, f64::to_le_bytes));
        w.entry("child", &encode(&self.child, u32::to_le_bytes));
        w.end_map();
    }
}

/// Reads the map [`Serialize`] writes, in one pass as a derived impl
/// does: the first of duplicate keys wins and unknown keys are skipped.
/// Each array decodes from the string in place.
impl Deserialize for FlatForest {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut n_features = None;
        let (mut roots, mut feature, mut threshold, mut child) = (None, None, None, None);
        r.map("map for FlatForest", |r, key| {
            match key {
                "n_features" if n_features.is_none() => {
                    n_features = Some(usize::deserialize(r)?);
                }
                "roots" if roots.is_none() => roots = Some(read_array(r, key, u32::from_le_bytes)?),
                "feature" if feature.is_none() => {
                    feature = Some(read_array(r, key, u16::from_le_bytes)?);
                }
                "threshold" if threshold.is_none() => {
                    threshold = Some(read_array(r, key, f64::from_le_bytes)?);
                }
                "child" if child.is_none() => child = Some(read_array(r, key, u32::from_le_bytes)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let missing = |field: &str| DeError(format!("missing field `{field}` in FlatForest"));
        Ok(FlatForest {
            n_features: n_features.ok_or_else(|| missing("n_features"))?,
            roots: roots.ok_or_else(|| missing("roots"))?,
            feature: feature.ok_or_else(|| missing("feature"))?,
            threshold: threshold.ok_or_else(|| missing("threshold"))?,
            child: child.ok_or_else(|| missing("child"))?,
        })
    }
}

/// The standard base64 alphabet (RFC 4648 §4).
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside [`BASE64`] in [`SEXTETS`]; every 6-bit value is
/// below it.
const NOT_BASE64: u8 = 0x80;

/// Each byte's 6-bit value in [`BASE64`], or [`NOT_BASE64`].
const SEXTETS: [u8; 256] = {
    let mut table = [NOT_BASE64; 256];
    let mut i = 0;
    while i < BASE64.len() {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// One arena array as base64 of its elements' little-endian bytes.
fn encode<T: Copy, const W: usize>(items: &[T], to_le: fn(T) -> [u8; W]) -> String {
    let mut bytes = Vec::with_capacity(items.len() * W);
    for &x in items {
        bytes.extend_from_slice(&to_le(x));
    }
    let groups = bytes.chunks_exact(3);
    let tail = groups.remainder();
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let sextet = |n: u32, i: usize| BASE64[(n >> (18 - 6 * i)) as usize & 63];
    for group in groups {
        let n = u32::from_be_bytes([0, group[0], group[1], group[2]]);
        out.extend_from_slice(&[sextet(n, 0), sextet(n, 1), sextet(n, 2), sextet(n, 3)]);
    }
    if !tail.is_empty() {
        // 1 or 2 bytes: 2 or 3 characters, zero trailing bits, then `=`.
        let n = u32::from_be_bytes([0, tail[0], tail.get(1).copied().unwrap_or(0), 0]);
        for i in 0..4 {
            out.push(if i <= tail.len() { sextet(n, i) } else { b'=' });
        }
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Reads the string of array `name` and decodes it.
fn read_array<T, const W: usize>(
    r: &mut Reader<'_>,
    name: &str,
    from_le: fn([u8; W]) -> T,
) -> Result<Vec<T>, DeError> {
    decode(&r.str()?, from_le).map_err(|e| DeError(format!("arena `{name}`: {e}")))
}

/// Decodes [`encode`]'s output, accepting nothing else: only the
/// alphabet's characters, a length that is a multiple of 4, at most two
/// `=` and only at the end, zero trailing bits, and whole `W`-byte
/// elements.
fn decode<T, const W: usize>(text: &str, from_le: fn([u8; W]) -> T) -> Result<Vec<T>, String> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            text.len()
        ));
    }
    // Up to two `=` end the last group; every other character must be in
    // the alphabet (an `=` is not).
    let padding = text
        .iter()
        .rev()
        .take(2)
        .take_while(|&&c| c == b'=')
        .count();
    let data = &text[..text.len() - padding];
    let groups = data.chunks_exact(4);
    let tail = groups.remainder();
    let mut bytes = vec![0u8; data.len() / 4 * 3];
    let mut seen = 0u8;
    for (group, out) in groups.zip(bytes.chunks_exact_mut(3)) {
        let mut n = 0u32;
        for &c in group {
            let v = SEXTETS[usize::from(c)];
            seen |= v;
            n = n << 6 | u32::from(v);
        }
        out.copy_from_slice(&n.to_be_bytes()[1..]);
    }
    for &c in tail {
        seen |= SEXTETS[usize::from(c)];
    }
    if seen & NOT_BASE64 != 0 {
        let at = data
            .iter()
            .position(|&c| SEXTETS[usize::from(c)] == NOT_BASE64)
            .unwrap_or(0);
        return Err(match data[at] {
            b'=' => format!("padding `=` before the end, at offset {at}"),
            c => format!("byte {c:#04x} at offset {at} is not base64"),
        });
    }
    if !tail.is_empty() {
        // 2 or 3 characters: 1 or 2 bytes, and 4 or 2 bits that must be 0.
        let n = tail
            .iter()
            .fold(0u32, |n, &c| n << 6 | u32::from(SEXTETS[usize::from(c)]));
        let spare = 2 * (4 - tail.len());
        if n & ((1 << spare) - 1) != 0 {
            return Err(format!(
                "non-zero trailing bits in the last group `{}`",
                String::from_utf8_lossy(&text[text.len() - 4..])
            ));
        }
        bytes.extend_from_slice(&(n >> spare).to_be_bytes()[5 - tail.len()..]);
    }
    if !bytes.len().is_multiple_of(W) {
        return Err(format!(
            "{} bytes are not a whole number of {W}-byte elements",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(W)
        .map(|chunk| {
            let mut le = [0u8; W];
            le.copy_from_slice(chunk);
            from_le(le)
        })
        .collect())
}

/// Sorted view of a sweep's value list, shared by every (tree, template)
/// walk of one sweep call. Range partitioning needs the sweep axis sorted;
/// callers pass arbitrary value lists, so leaves write through an index
/// permutation — except in the common case (an already-ascending frequency
/// grid), detected here so leaves accumulate into contiguous output ranges
/// with no indirection.
struct SweepPlan {
    sorted: Vec<f64>,
    order: Vec<u32>,
    identity: bool,
}

impl SweepPlan {
    fn new(values: &[f64]) -> Self {
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        order.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
        let identity = order.iter().enumerate().all(|(i, &o)| o as usize == i);
        let sorted: Vec<f64> = order.iter().map(|&i| values[i as usize]).collect();
        SweepPlan {
            sorted,
            order,
            identity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{RandomForest, RandomForestParams};
    use crate::Regressor;

    fn fitted_forest(n_estimators: usize, seed: u64) -> (FlatForest, Matrix) {
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                vec![
                    ((i * 7919) % 1000) as f64 / 1000.0,
                    ((i * 104729) % 1000) as f64 / 1000.0,
                    ((i * 1299709) % 1000) as f64 / 1000.0,
                ]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * (std::f64::consts::PI * r[0]).sin() + 5.0 * r[1] * r[1] + 2.0 * r[2])
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(
            RandomForestParams {
                n_estimators,
                ..Default::default()
            },
            seed,
        );
        f.fit(&x, &y);
        (f.into_flat(), x)
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let (flat, x) = fitted_forest(9, 7);
        let mut batch = Vec::new();
        flat.predict_batch_into(&x, &mut batch);
        assert_eq!(batch.len(), x.rows());
        for (i, row) in x.iter_rows().enumerate() {
            assert_eq!(batch[i].to_bits(), flat.predict_row(row).to_bits());
        }
    }

    #[test]
    fn batch_into_reuses_buffer() {
        let (flat, x) = fitted_forest(5, 3);
        let mut buf = vec![f64::NAN; 999];
        flat.predict_batch_into(&x, &mut buf);
        assert_eq!(buf.len(), x.rows());
        let rows: Vec<f64> = x.iter_rows().map(|row| flat.predict_row(row)).collect();
        assert_eq!(buf, rows);
    }

    /// One-template sweeps of `template` over every column, each checked
    /// against the batch over the materialized rows, bit for bit.
    fn assert_sweeps_match_batch(flat: &FlatForest, template: &[f64], values: &[f64]) {
        let (mut swept, mut materialized) = (Vec::new(), Vec::new());
        for col in 0..template.len() {
            let rows: Vec<Vec<f64>> = values
                .iter()
                .map(|&v| {
                    let mut r = template.to_vec();
                    r[col] = v;
                    r
                })
                .collect();
            flat.predict_batch_into(&Matrix::from_rows(&rows), &mut materialized);
            let one = Matrix::from_rows(&[template.to_vec()]);
            flat.predict_sweep_batch_into(&one, col, values, &mut swept);
            assert_eq!(swept.len(), values.len());
            for (a, b) in swept.iter().zip(&materialized) {
                assert_eq!(a.to_bits(), b.to_bits(), "col {col}");
            }
        }
    }

    #[test]
    fn sweep_matches_materialized_batch_bitwise() {
        let (flat, _) = fitted_forest(10, 21);
        // Unsorted values with duplicates, swept over every column.
        let values = [0.7, 0.1, 0.9, 0.1, 0.35, 1.2, -0.2, 0.5];
        assert_sweeps_match_batch(&flat, &[0.3, 0.6, 0.45], &values);
    }

    #[test]
    fn sweep_with_nan_template_matches_batch() {
        let (flat, _) = fitted_forest(6, 5);
        assert_sweeps_match_batch(&flat, &[f64::NAN, 0.5, f64::NAN], &[0.2, 0.8, 0.5]);
    }

    #[test]
    fn sweep_with_empty_values_clears_output() {
        let (flat, _) = fitted_forest(3, 2);
        let mut out = vec![1.0; 7];
        let template = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]);
        flat.predict_sweep_batch_into(&template, 0, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep values must not be NaN")]
    fn sweep_nan_values_panic() {
        let (flat, _) = fitted_forest(3, 2);
        let mut out = Vec::new();
        let template = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]);
        flat.predict_sweep_batch_into(&template, 0, &[0.5, f64::NAN], &mut out);
    }

    #[test]
    fn nan_features_fall_right() {
        // One split, `row[0] <= 0.5`, over leaves 1 (left) and 2 (right).
        let flat = FlatForest {
            n_features: 2,
            roots: vec![0],
            feature: vec![0; 3],
            threshold: vec![0.5, 1.0, 2.0],
            child: vec![1, LEAF, LEAF],
        };
        assert_eq!(flat.check(), Ok(()));
        assert_eq!(flat.predict_row(&[0.5, f64::NAN]), 1.0);
        assert_eq!(flat.predict_row(&[f64::NAN, 0.0]), 2.0);
        let mut out = Vec::new();
        let template = Matrix::from_rows(&[vec![f64::NAN, 0.0]]);
        flat.predict_sweep_batch_into(&template, 1, &[0.0, 1.0], &mut out);
        assert_eq!(out, [2.0, 2.0]);
    }

    #[test]
    fn single_leaf_trees_compile() {
        // Constant targets collapse every tree to one leaf.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 10];
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(
            RandomForestParams {
                n_estimators: 4,
                ..Default::default()
            },
            0,
        );
        f.fit(&x, &y);
        let flat = f.into_flat();
        assert_eq!(flat.n_nodes(), 4);
        assert_eq!(flat.predict_row(&[2.0]).to_bits(), 3.5f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_width_panics() {
        let (flat, _) = fitted_forest(3, 1);
        let _ = flat.predict_row(&[1.0]);
    }

    /// Corrupts a grown (and accepted) arena; `check` must refuse the
    /// result with a message containing `expected`.
    fn assert_refused(corrupt: impl FnOnce(&mut FlatForest), expected: &str) {
        let (mut flat, _) = fitted_forest(4, 9);
        assert_eq!(flat.check(), Ok(()));
        corrupt(&mut flat);
        let err = flat.check().unwrap_err();
        assert!(err.contains(expected), "{err}");
    }

    #[test]
    fn ragged_arrays_are_refused() {
        assert_refused(
            |f| {
                f.threshold.pop();
            },
            "ragged arena",
        );
    }

    #[test]
    fn an_arena_without_trees_is_refused() {
        assert_refused(|f| f.roots.clear(), "no trees");
    }

    #[test]
    fn a_root_out_of_bounds_is_refused() {
        assert_refused(|f| f.roots[1] = f.child.len() as u32, "root");
    }

    #[test]
    fn a_child_out_of_bounds_is_refused() {
        // The root's right child would sit one past the last slot.
        assert_refused(|f| f.child[0] = (f.child.len() - 1) as u32, "split 0 child");
    }

    #[test]
    fn a_backward_child_is_refused() {
        // Slot 1 pointing at itself: a left step there would never end.
        assert_refused(|f| f.child[1] = 1, "split 1 points back");
    }

    #[test]
    fn a_feature_past_the_row_width_is_refused() {
        assert_refused(|f| f.feature[0] = 3, "reads feature 3 of 3");
    }

    #[test]
    fn base64_matches_the_rfc_4648_test_vectors() {
        let vectors = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, coded) in vectors {
            assert_eq!(encode(plain.as_bytes(), |b: u8| [b]), coded);
            assert_eq!(decode(coded, |[b]: [u8; 1]| b).unwrap(), plain.as_bytes());
        }
        // Every character, in alphabet order: the sextets 0..63 packed
        // into 48 bytes.
        let bytes: Vec<u8> = (0..16u32)
            .flat_map(|g| {
                let n = (0..4).fold(0, |n, k| n << 6 | (4 * g + k));
                n.to_be_bytes().into_iter().skip(1)
            })
            .collect();
        assert_eq!(encode(&bytes, |b: u8| [b]).as_bytes(), BASE64);
    }

    #[test]
    fn decoding_accepts_only_the_canonical_encoding() {
        // Every string of up to four characters over a few data
        // characters (with zero and non-zero trailing bits), `=` and one
        // outside the alphabet, and each of those before and after a
        // whole group: whatever decodes encodes back to the same text, so
        // no two strings carry the same bytes, and nothing panics.
        const CHARS: [u8; 6] = *b"ABQ/=-";
        let mut short = vec![String::new()];
        for len in 1..=4 {
            let longer: Vec<String> = short
                .iter()
                .filter(|s| s.len() == len - 1)
                .flat_map(|s| CHARS.iter().map(move |&c| format!("{s}{}", char::from(c))))
                .collect();
            short.extend(longer);
        }
        let texts = short
            .iter()
            .flat_map(|s| [s.clone(), format!("AAAA{s}"), format!("{s}AAAA")]);
        let (mut accepted, mut refused) = (0, 0);
        for text in texts {
            match decode(&text, |[b]: [u8; 1]| b) {
                Ok(bytes) => {
                    assert_eq!(encode(&bytes, |b: u8| [b]), text);
                    accepted += 1;
                }
                Err(_) => refused += 1,
            }
        }
        // 851 of the 4 665 strings are canonical RFC 4648 base64, the
        // count any strict decoder that also refuses non-zero trailing
        // bits accepts.
        assert_eq!((accepted, refused), (851, 3814));
    }

    #[test]
    fn every_bit_pattern_round_trips() {
        // Thresholds and leaves that decimal text cannot carry: signed
        // zeros, infinities, NaNs of both signs with payload bits
        // (quiet and signalling), subnormals and the extremes.
        let threshold = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff8_dead_beef_0042),
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff4_0000_0000_0000),
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            0.1,
        ];
        let n = threshold.len();
        let flat = FlatForest {
            n_features: 7,
            roots: vec![0, 5, u32::MAX],
            feature: (0..n as u16).map(|i| i.wrapping_mul(0x9e37)).collect(),
            threshold: threshold.to_vec(),
            child: (0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect(),
        };
        let mut w = Writer::new(false);
        flat.serialize(&mut w);
        let text = w.into_string();
        let mut r = Reader::new(&text);
        let back = FlatForest::deserialize(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.n_features, flat.n_features);
        assert_eq!(back.roots, flat.roots);
        assert_eq!(back.feature, flat.feature);
        assert_eq!(back.child, flat.child);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.threshold), bits(&threshold));
        let mut again = Writer::new(false);
        back.serialize(&mut again);
        assert_eq!(again.into_string(), text);
    }
}
