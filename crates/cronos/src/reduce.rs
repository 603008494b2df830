//! The parallel max-reduction of the CFL buffer (the `reduce(cfl, cflBuf,
//! max)` of Algorithm 1).

use rayon::prelude::*;

/// Parallel maximum of a slice.
///
/// # Panics
/// Panics on an empty slice or non-finite values — the CFL buffer is never
/// empty and non-finite signal speeds mean the solver has already blown up,
/// which should fail loudly.
pub fn max_reduce(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "cannot reduce an empty buffer");
    // `f64::max` would silently drop NaN operands; propagate them instead so
    // the finite check below actually fires on a diverged solve.
    let m = values.par_iter().copied().reduce(
        || f64::NEG_INFINITY,
        |a, b| {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        },
    );
    assert!(
        m.is_finite(),
        "non-finite value in reduction: solver diverged"
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_of_known_values() {
        assert_eq!(max_reduce(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(max_reduce(&[-2.0, -7.0]), -2.0);
        assert_eq!(max_reduce(&[4.0]), 4.0);
    }

    #[test]
    fn max_matches_sequential_on_large_input() {
        let v: Vec<f64> = (0..100_000)
            .map(|i| ((i * 2654435761u64 as usize) % 9973) as f64)
            .collect();
        let seq = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max_reduce(&v), seq);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn empty_reduce_panics() {
        let _ = max_reduce(&[]);
    }

    #[test]
    #[should_panic(expected = "solver diverged")]
    fn nan_reduce_panics() {
        let _ = max_reduce(&[1.0, f64::NAN]);
    }
}
