//! Cross-validation: the paper's validation protocol (§5.2).
//!
//! [`leave_one_group_out`]: for each distinct *input configuration*
//! (feature vector), hold out every sample of that configuration (all its
//! frequency points) and train on the rest. This is "leave-one-out
//! cross-validation over the domain-specific features dataset":
//! `D_v = {s ∈ D : s has input features f}`, `D_t = D \ D_v`.
//! [`groups_from_columns`] derives the groups from the feature rows.

use crate::dataset::Matrix;

/// Group labels → leave-one-group-out `(train, validation)` index pairs,
/// one per distinct group, in first-appearance order.
///
/// # Panics
/// Panics if `groups` is empty or contains a single group (nothing to train
/// on when it is held out).
pub fn leave_one_group_out(groups: &[u64]) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(!groups.is_empty(), "no samples");
    let mut ordered: Vec<u64> = Vec::new();
    for g in groups {
        if !ordered.contains(g) {
            ordered.push(*g);
        }
    }
    assert!(
        ordered.len() >= 2,
        "leave-one-group-out needs at least two groups"
    );
    ordered
        .iter()
        .map(|g| {
            let mut train = Vec::new();
            let mut val = Vec::new();
            for (i, gi) in groups.iter().enumerate() {
                if gi == g {
                    val.push(i);
                } else {
                    train.push(i);
                }
            }
            (train, val)
        })
        .collect()
}

/// Derives group labels from the feature rows themselves: samples with
/// bit-identical values in `group_cols` share a group. This is exactly the
/// paper's grouping ("each different input feature f"): for the energy
/// datasets, the group columns are the domain-specific input features and
/// the remaining column is the frequency.
pub fn groups_from_columns(x: &Matrix, group_cols: &[usize]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut ids: HashMap<Vec<u64>, u64> = HashMap::new();
    let mut out = Vec::with_capacity(x.rows());
    for row in x.iter_rows() {
        let key: Vec<u64> = group_cols.iter().map(|&c| row[c].to_bits()).collect();
        let next = ids.len() as u64;
        let id = *ids.entry(key).or_insert(next);
        out.push(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logo_holds_out_whole_groups() {
        let groups = vec![1, 1, 2, 2, 2, 3];
        let folds = leave_one_group_out(&groups);
        assert_eq!(folds.len(), 3);
        assert_eq!(folds[0].1, vec![0, 1]);
        assert_eq!(folds[1].1, vec![2, 3, 4]);
        assert_eq!(folds[2].1, vec![5]);
        for (train, val) in &folds {
            for i in val {
                assert!(!train.contains(i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two groups")]
    fn logo_rejects_single_group() {
        let _ = leave_one_group_out(&[7, 7, 7]);
    }

    #[test]
    fn groups_from_columns_match_identical_rows() {
        let x = Matrix::from_rows(&[
            vec![1.0, 100.0],
            vec![1.0, 200.0],
            vec![2.0, 100.0],
            vec![1.0, 300.0],
        ]);
        let g = groups_from_columns(&x, &[0]);
        assert_eq!(g[0], g[1]);
        assert_eq!(g[1], g[3]);
        assert_ne!(g[0], g[2]);
    }
}
