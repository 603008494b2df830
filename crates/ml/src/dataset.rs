//! Row-major design matrix and dataset container.
//!
//! [`Matrix`] stores feature rows contiguously (row-major `Vec<f64>`) so
//! per-row prediction and per-feature column scans are both cache-friendly
//! without pulling in a linear-algebra dependency. [`Dataset`] pairs a
//! matrix with its target vector and provides the splitting/boot-strapping
//! primitives the model-selection pipeline needs.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// An empty matrix with a fixed column count, for incremental building.
    pub fn with_cols(cols: usize) -> Self {
        assert!(cols > 0, "matrix needs at least one column");
        Matrix {
            data: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the column count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Mutable element at `(i, j)`.
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }

    /// Column `j` gathered into a vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// A new matrix containing the given rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::with_cols(self.cols);
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }
}

/// The row indices of a bootstrap resample of `n` rows: `n` uniform draws
/// with replacement, in draw order.
pub(crate) fn bootstrap_rows(n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    use rand::Rng;
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

/// A supervised dataset: features plus scalar targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Design matrix, one row per sample.
    pub x: Matrix,
    /// Targets, one per row of `x`.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Pairs a design matrix with targets.
    ///
    /// # Panics
    /// Panics if the row count and target count differ.
    pub fn new(x: Matrix, y: Vec<f64>) -> Self {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        Dataset { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// The samples at `indices`, in order.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// Deterministic shuffled train/test split. `test_fraction` of the
    /// samples (rounded down, at least one row kept on each side for
    /// non-degenerate fractions) go to the test set.
    ///
    /// # Panics
    /// Panics unless `0 < test_fraction < 1` and the set has ≥ 2 samples.
    pub fn train_test_split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test fraction must be in (0, 1)"
        );
        assert!(self.len() >= 2, "need at least two samples to split");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_test = ((self.len() as f64 * test_fraction) as usize).clamp(1, self.len() - 1);
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// A bootstrap resample (with replacement) of the same size.
    pub fn bootstrap(&self, rng: &mut ChaCha8Rng) -> Dataset {
        self.subset(&bootstrap_rows(self.len(), rng))
    }

    /// Checks every feature and target for NaN/infinity. Returns the first
    /// offender as `(row, column)`, where the column is `None` for a bad
    /// target. Models trained on non-finite samples produce non-finite
    /// predictions silently; call this at ingestion boundaries.
    pub fn validate(&self) -> Result<(), (usize, Option<usize>)> {
        for i in 0..self.len() {
            for (j, v) in self.x.row(i).iter().enumerate() {
                if !v.is_finite() {
                    return Err((i, Some(j)));
                }
            }
            if !self.y[i].is_finite() {
                return Err((i, None));
            }
        }
        Ok(())
    }

    /// A copy with untrustworthy rows removed: any row with a non-finite
    /// feature or target is dropped, and — when `outlier_mads` is set —
    /// so is any row whose target deviates from the median by more than
    /// that many median-absolute-deviations (a robust guard against
    /// degraded measurements that slipped past upstream quarantine). The
    /// report says exactly which rows were dropped and why. Opt-in: the
    /// standard training paths never call this implicitly.
    pub fn sanitized(&self, outlier_mads: Option<f64>) -> (Dataset, SanitizeReport) {
        let mut report = SanitizeReport::default();
        let finite: Vec<usize> = (0..self.len())
            .filter(|&i| {
                let ok = self.x.row(i).iter().all(|v| v.is_finite()) && self.y[i].is_finite();
                if !ok {
                    report.non_finite_rows.push(i);
                }
                ok
            })
            .collect();
        let keep: Vec<usize> = match outlier_mads {
            Some(k) if finite.len() >= 3 => {
                assert!(k > 0.0, "MAD multiple must be positive");
                let targets: Vec<f64> = finite.iter().map(|&i| self.y[i]).collect();
                let med = median(&targets);
                let deviations: Vec<f64> = targets.iter().map(|t| (t - med).abs()).collect();
                let mad = median(&deviations);
                finite
                    .iter()
                    .copied()
                    .filter(|&i| {
                        // A zero MAD means over half the targets are identical;
                        // only exact ties are then "inliers".
                        let ok = if mad > 0.0 {
                            (self.y[i] - med).abs() <= k * mad
                        } else {
                            self.y[i] == med
                        };
                        if !ok {
                            report.outlier_rows.push(i);
                        }
                        ok
                    })
                    .collect()
            }
            _ => finite,
        };
        (self.subset(&keep), report)
    }
}

/// Which rows [`Dataset::sanitized`] dropped, and why.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SanitizeReport {
    /// Rows holding a NaN or infinity (original indices).
    pub non_finite_rows: Vec<usize>,
    /// Rows whose target failed the MAD outlier test (original indices).
    pub outlier_rows: Vec<usize>,
}

impl SanitizeReport {
    /// True when nothing was dropped.
    pub fn is_clean(&self) -> bool {
        self.non_finite_rows.is_empty() && self.outlier_rows.is_empty()
    }

    /// All dropped original row indices — non-finite and outlier rows
    /// merged, sorted, deduplicated. The shape a caller needs to drop the
    /// same rows from a parallel structure (e.g. per-row provenance).
    pub fn dropped_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .non_finite_rows
            .iter()
            .chain(self.outlier_rows.iter())
            .copied()
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ]);
        Dataset::new(x, vec![10.0, 20.0, 30.0, 40.0])
    }

    #[test]
    fn matrix_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::with_cols(3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1)[2], 6.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn select_rows_preserves_order() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.y, vec![30.0, 10.0]);
        assert_eq!(s.x.row(0), &[5.0, 6.0]);
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let d = toy();
        let (tr1, te1) = d.train_test_split(0.25, 7);
        let (tr2, te2) = d.train_test_split(0.25, 7);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.len() + te1.len(), d.len());
        assert_eq!(te1.len(), 1);
    }

    #[test]
    fn different_seed_changes_split() {
        let d = toy();
        let (_, te1) = d.train_test_split(0.5, 1);
        let (_, te2) = d.train_test_split(0.5, 99);
        // With 4 samples this could coincide; accept either but ensure both
        // are valid partitions.
        assert_eq!(te1.len(), 2);
        assert_eq!(te2.len(), 2);
    }

    #[test]
    fn bootstrap_same_size_from_original() {
        let d = toy();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let b = d.bootstrap(&mut rng);
        assert_eq!(b.len(), d.len());
        for v in &b.y {
            assert!(d.y.contains(v));
        }
    }

    #[test]
    #[should_panic(expected = "x/y length mismatch")]
    fn mismatched_targets_panic() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        let _ = Dataset::new(x, vec![1.0, 2.0]);
    }

    #[test]
    fn validate_reports_first_non_finite_cell() {
        let mut d = toy();
        assert_eq!(d.validate(), Ok(()));
        *d.x.get_mut(1, 1) = f64::NAN;
        assert_eq!(d.validate(), Err((1, Some(1))));
        *d.x.get_mut(1, 1) = 4.0;
        d.y[2] = f64::INFINITY;
        assert_eq!(d.validate(), Err((2, None)));
    }

    #[test]
    fn sanitized_drops_non_finite_rows() {
        let mut d = toy();
        *d.x.get_mut(0, 0) = f64::NEG_INFINITY;
        d.y[3] = f64::NAN;
        let (clean, report) = d.sanitized(None);
        assert_eq!(clean.y, vec![20.0, 30.0]);
        assert_eq!(report.non_finite_rows, vec![0, 3]);
        assert!(report.outlier_rows.is_empty());
        assert_eq!(clean.validate(), Ok(()));
    }

    #[test]
    fn sanitized_mad_guard_drops_wild_targets() {
        let x = Matrix::from_rows(&vec![vec![1.0]; 6]);
        // Five plausible energies and one corrupted by a counter glitch.
        let d = Dataset::new(x, vec![10.0, 11.0, 9.5, 10.5, 10.2, 4000.0]);
        let (clean, report) = d.sanitized(Some(8.0));
        assert_eq!(clean.len(), 5);
        assert_eq!(report.outlier_rows, vec![5]);
        assert!(report.non_finite_rows.is_empty());
        // Without the guard the glitch row survives.
        let (all, report) = d.sanitized(None);
        assert_eq!(all.len(), 6);
        assert!(report.is_clean());
    }

    #[test]
    fn sanitized_zero_mad_keeps_only_exact_ties() {
        let x = Matrix::from_rows(&vec![vec![1.0]; 5]);
        let d = Dataset::new(x, vec![7.0, 7.0, 7.0, 7.0, 9.0]);
        let (clean, report) = d.sanitized(Some(3.0));
        assert_eq!(clean.len(), 4);
        assert_eq!(report.outlier_rows, vec![4]);
    }
}
